//! From allocation to route updates.
//!
//! §3: the controller "serves as the vantage point from which to collect
//! and combine the information from both IP routing and photonic compute
//! routing, subsequently delivering next-hop updates to all routers."
//! This module turns a solved [`Allocation`] into (a) per-site engine
//! installations and (b) the dual-field routing overrides that steer each
//! demand's compute packets through its assigned transponder chain, then
//! applies them to a [`Network`].

use crate::demand::Demand;
use crate::options::ProblemInstance;
use crate::Allocation;
use ofpc_engine::Primitive;
use ofpc_net::routing::shortest_paths_filtered;
use ofpc_net::sim::{Network, OpSpec};
use ofpc_net::{LinkId, NodeId, Prefix};

/// One engine installation command.
#[derive(Debug, Clone, PartialEq)]
pub struct InstallCmd {
    pub node: NodeId,
    pub primitive: Primitive,
    pub op_id: u16,
}

/// One routing override command: at `router`, compute packets matching
/// (`dst_prefix`, `primitive`) take the first hop toward `via`.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteOverrideCmd {
    pub router: NodeId,
    pub(crate) dst_prefix: Prefix,
    pub(crate) primitive: Primitive,
    pub(crate) via: NodeId,
}

/// The full update set produced from one allocation round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpdatePlan {
    pub installs: Vec<InstallCmd>,
    pub overrides: Vec<RouteOverrideCmd>,
    /// Demands that could not be satisfied this round.
    pub unsatisfied: Vec<u32>,
}

/// Build the update plan for `demands` under `allocation`.
///
/// Op IDs are the demand IDs (one installed operation instance per
/// satisfied demand — the natural granularity, since each demand's
/// weights/pattern differ). For multi-task chains, only the first task's
/// placement gets routing overrides toward it; subsequent tasks are
/// reached because the packet *continues* from the previous site (the
/// sim re-evaluates pending primitives hop by hop).
pub fn build_plan(
    demands: &[Demand],
    instance: &ProblemInstance,
    allocation: &Allocation,
) -> UpdatePlan {
    assert_eq!(demands.len(), allocation.choices.len(), "shape mismatch");
    let placements: Vec<Option<&[NodeId]>> = allocation
        .choices
        .iter()
        .enumerate()
        .map(|(d, choice)| choice.map(|o| instance.options[d][o].placement.as_slice()))
        .collect();
    plan_from_placements(demands, &placements)
}

/// Build the update plan directly from per-demand placement chains —
/// the sharded controller's path, where the allocation state is the
/// placement itself rather than an index into a retained
/// [`ProblemInstance`]. `placements[d]` is demand `d`'s task-site chain
/// (`None` = unsatisfied); semantics match [`build_plan`] exactly.
pub fn build_plan_from_placements(
    demands: &[Demand],
    placements: &[Option<Vec<NodeId>>],
) -> UpdatePlan {
    assert_eq!(demands.len(), placements.len(), "shape mismatch");
    let refs: Vec<Option<&[NodeId]>> = placements
        .iter()
        .map(|p| p.as_ref().map(|v| v.as_slice()))
        .collect();
    plan_from_placements(demands, &refs)
}

fn plan_from_placements(demands: &[Demand], placements: &[Option<&[NodeId]>]) -> UpdatePlan {
    let mut plan = UpdatePlan::default();
    for (demand, placement) in demands.iter().zip(placements) {
        let Some(placement) = placement else {
            plan.unsatisfied.push(demand.id.0);
            continue;
        };
        let chain = demand
            .dag
            .linearize()
            .expect("satisfied demand must have an acyclic DAG");
        assert_eq!(chain.len(), placement.len(), "placement shape");
        for (&primitive, &node) in chain.iter().zip(placement.iter()) {
            plan.installs.push(InstallCmd {
                node,
                primitive,
                op_id: demand.id.0 as u16,
            });
            // Route overrides steer toward the task's site from
            // everywhere (scoped to the demand's destination prefix).
            plan.overrides.push(RouteOverrideCmd {
                router: node, // marker: resolved per-router in apply()
                dst_prefix: Network::node_prefix(demand.dst),
                primitive,
                via: node,
            });
        }
    }
    plan
}

/// One command that failed to apply, by kind and reason.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FailedCmd {
    /// An install's target node does not exist in the topology.
    InstallNodeMissing,
    /// An override's `via` node does not exist in the topology.
    OverrideNodeMissing,
    /// No router can reach the override's `via` over the surviving
    /// links, so the override landed nowhere.
    OverrideViaUnreachable,
}

/// What [`apply_plan`] actually did — the controller inspects this
/// instead of assuming every command landed.
#[derive(Debug, Clone, Default)]
pub struct ApplyReport {
    /// Commands that could not be applied, with reasons.
    pub(crate) failed: Vec<FailedCmd>,
}

impl ApplyReport {
    /// True when every command either applied or was already in place.
    pub fn fully_applied(&self) -> bool {
        self.failed.is_empty()
    }
}

/// Apply an update plan to a simulated network: install engine slots and
/// per-router dual-field overrides. `op_specs` supplies the semantics
/// for each installed op id (weights/pattern).
///
/// Idempotent: an install whose exact slot (node, op id, spec) already
/// exists is skipped, so re-applying a plan — e.g. the staged re-install
/// after protection switching — never duplicates engines. Commands that
/// cannot be applied (missing node, `via` unreachable over surviving
/// links) are returned in `ApplyReport::failed` rather than silently
/// dropped. Override path computation avoids downed links.
pub fn apply_plan(
    net: &mut Network,
    plan: &UpdatePlan,
    op_specs: &dyn Fn(u16, Primitive) -> OpSpec,
    noise_sigma: f64,
) -> ApplyReport {
    let mut report = ApplyReport::default();
    let node_count = net.topo.node_count();
    for install in &plan.installs {
        if install.node.0 as usize >= node_count {
            report.failed.push(FailedCmd::InstallNodeMissing);
            continue;
        }
        let spec = op_specs(install.op_id, install.primitive);
        assert_eq!(
            spec.primitive(),
            install.primitive,
            "op spec primitive mismatch for op {}",
            install.op_id
        );
        let already = net
            .engines_at(install.node)
            .iter()
            .any(|s| s.op_id == install.op_id && s.spec == spec);
        if already {
            continue;
        }
        net.add_engine(install.node, install.op_id, spec, noise_sigma);
    }
    // Install overrides: at every router, pending packets for
    // (dst_prefix, primitive) head toward `via` along shortest paths
    // over the links still up.
    for ov in &plan.overrides {
        if ov.via.0 as usize >= node_count {
            report.failed.push(FailedCmd::OverrideNodeMissing);
            continue;
        }
        let link_ok = |l: LinkId| net.link_is_up(l);
        let mut first_links = Vec::with_capacity(node_count);
        for r in 0..node_count {
            let router = NodeId(r as u32);
            if router == ov.via {
                continue;
            }
            let paths = shortest_paths_filtered(&net.topo, router, &link_ok);
            if let Some(&(_, Some(first_link))) = paths.get(&ov.via) {
                first_links.push((router, first_link));
            }
        }
        if first_links.is_empty() && node_count > 1 {
            report.failed.push(FailedCmd::OverrideViaUnreachable);
            continue;
        }
        for (router, first_link) in first_links {
            net.routing_table_mut(router).install_compute_override(
                ov.dst_prefix,
                ov.primitive,
                first_link,
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::TaskDag;
    use crate::ilp::solve_exact;
    use crate::options::enumerate_options;
    use ofpc_net::packet::Packet;
    use ofpc_net::pch::PchHeader;
    use ofpc_net::Topology;
    use ofpc_photonics::SimRng;

    const P1: Primitive = Primitive::VectorDotProduct;

    #[test]
    fn plan_contains_installs_and_overrides() {
        let topo = Topology::fig1();
        let slots = vec![0, 1, 1, 0];
        let demands = vec![Demand::new(0, NodeId(0), NodeId(3), TaskDag::single(P1))];
        let inst = enumerate_options(&topo, &slots, &demands, 10);
        let sol = solve_exact(&inst, 1_000_000);
        let plan = build_plan(&demands, &inst, &sol.allocation);
        assert_eq!(plan.installs.len(), 1);
        assert_eq!(plan.overrides.len(), 1);
        assert!(plan.unsatisfied.is_empty());
        assert_eq!(plan.installs[0].op_id, 0);
    }

    #[test]
    fn plan_from_placements_matches_instance_path() {
        // The sharded controller hands placements straight to the
        // planner; the commands must be identical to the option-indexed
        // path for the same allocation.
        let topo = Topology::fig1();
        let slots = vec![0, 1, 1, 0];
        let demands = vec![
            Demand::new(0, NodeId(0), NodeId(3), TaskDag::single(P1)),
            Demand::new(1, NodeId(0), NodeId(1), TaskDag::single(P1)),
        ];
        let inst = enumerate_options(&topo, &slots, &demands, 10);
        let sol = solve_exact(&inst, 1_000_000);
        let via_instance = build_plan(&demands, &inst, &sol.allocation);
        let placements: Vec<Option<Vec<NodeId>>> = sol
            .allocation
            .choices
            .iter()
            .enumerate()
            .map(|(d, c)| c.map(|o| inst.options[d][o].placement.clone()))
            .collect();
        let direct = build_plan_from_placements(&demands, &placements);
        assert_eq!(via_instance, direct);
        // And an explicit rejection surfaces in `unsatisfied`.
        let rejected = build_plan_from_placements(&demands, &vec![None; 2]);
        assert_eq!(rejected.unsatisfied, vec![0, 1]);
        assert!(rejected.installs.is_empty());
    }

    #[test]
    fn unsatisfied_demands_are_reported() {
        let topo = Topology::fig1();
        let slots = vec![0, 1, 0, 0]; // one slot only
        let demands = vec![
            Demand::new(0, NodeId(0), NodeId(3), TaskDag::single(P1)),
            Demand::new(1, NodeId(0), NodeId(3), TaskDag::single(P1)),
        ];
        let inst = enumerate_options(&topo, &slots, &demands, 10);
        let sol = solve_exact(&inst, 1_000_000);
        let plan = build_plan(&demands, &inst, &sol.allocation);
        assert_eq!(plan.installs.len(), 1);
        assert_eq!(plan.unsatisfied.len(), 1);
    }

    #[test]
    fn end_to_end_controller_drives_the_sim() {
        // Full loop: enumerate → solve → plan → apply → traffic computes.
        let topo = Topology::fig1();
        let slots = vec![0, 1, 1, 0];
        let demands = vec![Demand::new(7, NodeId(0), NodeId(3), TaskDag::single(P1))];
        let inst = enumerate_options(&topo, &slots, &demands, 10);
        let sol = solve_exact(&inst, 1_000_000);
        let plan = build_plan(&demands, &inst, &sol.allocation);

        let mut net = Network::new(Topology::fig1(), SimRng::seed_from_u64(0));
        net.install_shortest_path_routes();
        apply_plan(
            &mut net,
            &plan,
            &|_op, _prim| OpSpec::Dot {
                weights: vec![0.5; 4],
            },
            0.0,
        );
        let pch = PchHeader::request(P1, 7, 4);
        let p = Packet::compute(
            Network::node_addr(NodeId(0), 1),
            Network::node_addr(NodeId(3), 1),
            1,
            pch,
            Packet::encode_operands(&[1.0; 4]),
        );
        net.inject(0, NodeId(0), p);
        net.run_to_idle();
        assert_eq!(net.stats.delivered_count(), 1);
        assert!(net.stats.delivered[0].computed, "packet was never computed");
    }

    #[test]
    fn apply_is_idempotent() {
        let topo = Topology::fig1();
        let slots = vec![0, 1, 1, 0];
        let demands = vec![Demand::new(3, NodeId(0), NodeId(3), TaskDag::single(P1))];
        let inst = enumerate_options(&topo, &slots, &demands, 10);
        let sol = solve_exact(&inst, 1_000_000);
        let plan = build_plan(&demands, &inst, &sol.allocation);

        let mut net = Network::new(Topology::fig1(), SimRng::seed_from_u64(0));
        net.install_shortest_path_routes();
        let specs = |_op: u16, _p: Primitive| OpSpec::Dot {
            weights: vec![1.0; 4],
        };
        let engines =
            |net: &Network| -> usize { (0..4).map(|n| net.engines_at(NodeId(n)).len()).sum() };
        let engines_initially = engines(&net);
        let first = apply_plan(&mut net, &plan, &specs, 0.0);
        assert!(first.fully_applied());
        let engines_before = engines(&net);
        assert_eq!(engines_before, engines_initially + 1, "one install");

        // Re-applying the same plan changes nothing.
        let second = apply_plan(&mut net, &plan, &specs, 0.0);
        assert!(second.fully_applied());
        assert_eq!(engines_before, engines(&net), "no duplicate slots");
    }

    #[test]
    fn apply_reports_unappliable_commands() {
        let mut net = Network::new(Topology::fig1(), SimRng::seed_from_u64(0));
        net.install_shortest_path_routes();
        let plan = UpdatePlan {
            installs: vec![InstallCmd {
                node: NodeId(99), // no such node
                primitive: P1,
                op_id: 0,
            }],
            overrides: vec![RouteOverrideCmd {
                router: NodeId(42),
                dst_prefix: Network::node_prefix(NodeId(3)),
                primitive: P1,
                via: NodeId(42), // no such node either
            }],
            unsatisfied: vec![],
        };
        let report = apply_plan(
            &mut net,
            &plan,
            &|_, _| OpSpec::Dot { weights: vec![1.0] },
            0.0,
        );
        assert!(!report.fully_applied());
        assert!(matches!(
            report.failed[..],
            [
                FailedCmd::InstallNodeMissing,
                FailedCmd::OverrideNodeMissing
            ]
        ));
    }

    #[test]
    fn apply_reports_via_unreachable_over_cut_links() {
        // Isolate node B by cutting all its links: an override via B
        // cannot land anywhere and must be reported, not dropped.
        let mut net = Network::new(Topology::fig1(), SimRng::seed_from_u64(0));
        net.install_shortest_path_routes();
        let b = net.topo.find_node("B").unwrap();
        let b_links: Vec<ofpc_net::LinkId> =
            net.topo.neighbors(b).into_iter().map(|(l, _)| l).collect();
        for l in b_links {
            net.set_link_up(l, false);
        }
        let plan = UpdatePlan {
            installs: vec![],
            overrides: vec![RouteOverrideCmd {
                router: b,
                dst_prefix: Network::node_prefix(NodeId(3)),
                primitive: P1,
                via: b,
            }],
            unsatisfied: vec![],
        };
        let report = apply_plan(&mut net, &plan, &|_, _| OpSpec::Nonlinear, 0.0);
        assert!(matches!(
            report.failed[..],
            [FailedCmd::OverrideViaUnreachable]
        ));
    }

    #[test]
    #[should_panic(expected = "primitive mismatch")]
    fn apply_rejects_wrong_spec() {
        let mut net = Network::new(Topology::fig1(), SimRng::seed_from_u64(0));
        let plan = UpdatePlan {
            installs: vec![InstallCmd {
                node: NodeId(1),
                primitive: P1,
                op_id: 0,
            }],
            overrides: vec![],
            unsatisfied: vec![],
        };
        apply_plan(&mut net, &plan, &|_, _| OpSpec::Nonlinear, 0.0);
    }
}
