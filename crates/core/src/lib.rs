//! # ofpc-core — on-fiber photonic computing, assembled
//!
//! The paper's proposal as one library: a WAN whose pluggable
//! transponders compute on traffic while it flies. This crate glues the
//! substrates together behind [`OnFiberNetwork`]:
//!
//! * `ofpc-photonics` / `ofpc-engine` — device physics and the P1/P2/P3
//!   primitives (validated at the optical-field level).
//! * `ofpc-transponder` — the Fig.-3/Fig.-4 hardware models.
//! * `ofpc-net` — packets, the photonic compute header, dual-field
//!   routing, and the discrete-event WAN simulator.
//! * `ofpc-controller` — demand DAGs, the integer allocator and its
//!   LP/greedy relaxations, and route-update generation.
//!
//! [`scenario`] builds the paper's Fig.-1 walkthrough; [`protocol`]
//! implements the end-host side of the compute-communication protocol
//! and its staged rollout; [`deployment`] models incremental deployment
//! (the backward-compatibility argument, experiment E9); [`metrics`]
//! aggregates what experiments report.

pub mod deployment;
pub mod distributed;
pub mod metrics;
pub mod protocol;
pub mod scenario;
pub mod topo;

use ofpc_controller::demand::Demand;
use ofpc_controller::greedy::solve_greedy;
use ofpc_controller::ilp::solve_exact;
use ofpc_controller::lp::{round_lp, solve_lp};
use ofpc_controller::options::enumerate_options_filtered;
use ofpc_controller::protection::surviving_slots;
use ofpc_controller::teupdate::{apply_plan, build_plan, ApplyReport, UpdatePlan};
use ofpc_controller::Allocation;
use ofpc_net::sim::{Network, OpSpec};
use ofpc_net::{NodeId, Topology};
use ofpc_photonics::SimRng;
use std::collections::HashMap;

/// Which allocation solver the controller runs.
#[derive(Debug, Clone, Copy)]
pub enum Solver {
    /// Exact branch and bound (node budget bounded).
    Exact { node_budget: u64 },
    /// Greedy most-constrained-first.
    Greedy,
    /// LP relaxation + randomized rounding with the given trials.
    LpRounding { trials: usize },
}

/// The assembled on-fiber photonic computing system.
#[derive(Debug)]
pub struct OnFiberNetwork {
    /// The packet-level WAN simulator.
    pub net: Network,
    /// Transponder slots per site (upgrade state).
    slots: Vec<usize>,
    /// Registered demands.
    demands: Vec<Demand>,
    /// Operation semantics per (demand id, primitive wire id).
    op_specs: HashMap<(u16, u8), OpSpec>,
    rng: SimRng,
    /// The last applied update plan (for inspection).
    pub last_plan: Option<UpdatePlan>,
    /// What happened when the last plan was applied: fresh installs,
    /// idempotent skips, and commands that could not be applied.
    pub last_apply: Option<ApplyReport>,
    /// Sites currently marked failed (excluded from allocation until
    /// [`OnFiberNetwork::repair_site`]).
    failed_sites: Vec<NodeId>,
}

impl OnFiberNetwork {
    /// Build over a topology with no compute sites upgraded yet.
    pub fn new(topo: Topology, seed: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed);
        let node_count = topo.node_count();
        let mut net = Network::new(topo, rng.derive("net"));
        net.install_shortest_path_routes();
        OnFiberNetwork {
            net,
            slots: vec![0; node_count],
            demands: Vec::new(),
            op_specs: HashMap::new(),
            rng,
            last_plan: None,
            last_apply: None,
            failed_sites: Vec::new(),
        }
    }

    /// Attach a telemetry handle: the packet simulator mirrors its
    /// counters onto the registry and emits trace events for link/engine
    /// state flips and engine executions. A disabled handle (the
    /// default) costs one branch per hook.
    pub fn set_telemetry(&mut self, tel: &ofpc_telemetry::Telemetry) {
        self.net.set_telemetry(tel);
    }

    /// Upgrade a site with `count` photonic compute transponders — the
    /// paper's pluggable, backward-compatible deployment step.
    pub fn upgrade_site(&mut self, node: NodeId, count: usize) {
        assert!(
            (node.0 as usize) < self.slots.len(),
            "unknown node {node:?}"
        );
        self.slots[node.0 as usize] += count;
    }

    /// Slots per node (the controller's capacity vector).
    pub fn slots(&self) -> &[usize] {
        &self.slots
    }

    /// Upgraded compute sites as `(node, slot count)` pairs, in node
    /// order — what a serving runtime schedules onto.
    pub fn compute_sites(&self) -> Vec<(NodeId, usize)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (NodeId(i as u32), n))
            .collect()
    }

    /// Register a single-task compute demand with its operation
    /// semantics. The demand's id doubles as the protocol op id. For
    /// multi-task DAGs use [`OnFiberNetwork::submit_chain_demand`].
    pub fn submit_demand(&mut self, demand: Demand, spec: OpSpec) {
        let chain = demand.dag.linearize().expect("acyclic DAG");
        assert!(
            chain.len() <= 1,
            "multi-task demands need submit_chain_demand (one spec per task)"
        );
        self.submit_chain_demand(demand, vec![spec]);
    }

    /// Register a demand whose DAG has several tasks, with one operation
    /// spec per task (in topological order).
    pub fn submit_chain_demand(&mut self, demand: Demand, specs: Vec<OpSpec>) {
        assert!(
            demand.id.0 <= u16::MAX as u32,
            "demand id must fit the 16-bit op-id field"
        );
        let chain = demand.dag.linearize().expect("acyclic DAG");
        let op_id = demand.id.0 as u16;
        assert!(
            specs.len() >= chain.len(),
            "need one op spec per task ({} tasks, {} specs)",
            chain.len(),
            specs.len()
        );
        for (prim, spec) in chain.iter().zip(&specs) {
            assert_eq!(
                spec.primitive(),
                *prim,
                "op spec order must match the DAG's topological order"
            );
            let key = (op_id, prim.wire_id());
            assert!(
                !self.op_specs.contains_key(&key),
                "duplicate demand id {} for primitive {prim}",
                demand.id.0
            );
            self.op_specs.insert(key, spec.clone());
        }
        if chain.is_empty() {
            // Reserve the id so duplicates are still caught.
            let key = (op_id, 0);
            assert!(
                !self.op_specs.contains_key(&key),
                "duplicate demand id {}",
                demand.id.0
            );
            self.op_specs.insert(key, specs[0].clone());
        }
        self.demands.push(demand);
    }

    /// Run the controller: enumerate options, solve, build the plan, and
    /// apply it to the network (engine installs + route overrides).
    /// Sites marked failed are excluded from the capacity vector.
    /// Returns the update plan; [`OnFiberNetwork::last_apply`] records
    /// how the installation went.
    pub fn allocate_and_apply(&mut self, solver: Solver) -> &UpdatePlan {
        let slots = surviving_slots(&self.slots, &self.failed_sites);
        self.solve_and_apply(solver, &slots)
    }

    /// Recovery re-run after engine hard-fails: mark `failed` sites out,
    /// flag their engine slots unhealthy (in-flight packets pass through
    /// tagged rather than carrying garbage), reconverge routes around any
    /// downed links, and re-run the allocator over the survivors. The
    /// failed sites stay excluded until [`OnFiberNetwork::repair_site`].
    pub fn reallocate_excluding(&mut self, failed: &[NodeId], solver: Solver) -> &UpdatePlan {
        for &node in failed {
            if !self.failed_sites.contains(&node) {
                self.failed_sites.push(node);
            }
            self.net.set_engine_health(node, false);
        }
        // Routes first (wipes stale compute detours over dead paths),
        // then the plan re-install lays fresh overrides on top.
        self.net.reconverge_routes();
        let slots = surviving_slots(&self.slots, &self.failed_sites);
        self.solve_and_apply(solver, &slots)
    }

    /// Bring a failed site back: clear its exclusion and restore its
    /// engine slots to healthy. The next allocation may use it again.
    pub fn repair_site(&mut self, node: NodeId) {
        self.failed_sites.retain(|&n| n != node);
        self.net.set_engine_health(node, true);
    }

    fn solve_and_apply(&mut self, solver: Solver, slots: &[usize]) -> &UpdatePlan {
        // Enumerate over the links currently up: placements stranded
        // behind a cut price in their real detour (or drop out entirely
        // when unreachable), so protection switching moves compute onto
        // the surviving paths instead of re-installing the old plan.
        let instance = enumerate_options_filtered(&self.net.topo, slots, &self.demands, 16, &|l| {
            self.net.link_is_up(l)
        });
        let allocation: Allocation = match solver {
            Solver::Exact { node_budget } => solve_exact(&instance, node_budget).allocation,
            Solver::Greedy => solve_greedy(&instance).allocation,
            Solver::LpRounding { trials } => {
                let lp = solve_lp(&instance);
                round_lp(&instance, &lp, trials, &mut self.rng)
            }
        };
        let plan = build_plan(&self.demands, &instance, &allocation);
        let specs = self.op_specs.clone();
        let report = apply_plan(&mut self.net, &plan, &move |op_id, prim| {
            specs
                .get(&(op_id, prim.wire_id()))
                .cloned()
                .unwrap_or_else(|| {
                    panic!("no op spec registered for demand {op_id} primitive {prim}")
                })
        });
        self.last_apply = Some(report);
        self.last_plan = Some(plan);
        self.last_plan.as_ref().expect("just set")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofpc_controller::demand::TaskDag;
    use ofpc_engine::Primitive;
    use ofpc_net::packet::Packet;
    use ofpc_net::pch::PchHeader;

    const P1: Primitive = Primitive::VectorDotProduct;

    fn fig1_system() -> OnFiberNetwork {
        let mut sys = OnFiberNetwork::new(Topology::fig1(), 7);
        sys.upgrade_site(NodeId(1), 1);
        sys.upgrade_site(NodeId(2), 1);
        sys
    }

    #[test]
    fn upgrade_accounting() {
        let mut sys = fig1_system();
        assert_eq!(sys.slots().iter().sum::<usize>(), 2);
        sys.upgrade_site(NodeId(1), 3);
        assert_eq!(sys.slots().iter().sum::<usize>(), 5);
        assert_eq!(sys.slots(), &[0, 4, 1, 0]);
    }

    #[test]
    fn allocate_apply_and_serve_traffic() {
        let mut sys = fig1_system();
        sys.submit_demand(
            Demand::new(1, NodeId(0), NodeId(3), TaskDag::single(P1)),
            OpSpec::Dot {
                weights: vec![0.25; 8],
            },
        );
        let plan = sys.allocate_and_apply(Solver::Exact {
            node_budget: 1_000_000,
        });
        assert!(plan.unsatisfied.is_empty());
        assert_eq!(plan.installs.len(), 1);
        // Drive a compute packet through.
        let pch = PchHeader::request(P1, 1, 8);
        let p = Packet::compute(
            Network::node_addr(NodeId(0), 1),
            Network::node_addr(NodeId(3), 1),
            1,
            pch,
            Packet::encode_operands(&[0.5; 8]),
        );
        sys.net.inject(0, NodeId(0), p);
        sys.net.run_to_idle();
        assert_eq!(sys.net.stats.delivered_count(), 1);
        assert!(sys.net.stats.delivered[0].computed);
    }

    #[test]
    fn all_three_solvers_serve_a_satisfiable_workload() {
        for solver in [
            Solver::Exact {
                node_budget: 1_000_000,
            },
            Solver::Greedy,
            Solver::LpRounding { trials: 10 },
        ] {
            let mut sys = fig1_system();
            for i in 0..2u32 {
                sys.submit_demand(
                    Demand::new(i, NodeId(0), NodeId(3), TaskDag::single(P1)),
                    OpSpec::Dot {
                        weights: vec![0.5; 4],
                    },
                );
            }
            let plan = sys.allocate_and_apply(solver);
            assert!(
                plan.unsatisfied.is_empty(),
                "{solver:?} left {:?} unsatisfied",
                plan.unsatisfied
            );
        }
    }

    #[test]
    fn oversubscription_reports_unsatisfied() {
        let mut sys = OnFiberNetwork::new(Topology::fig1(), 7);
        sys.upgrade_site(NodeId(1), 1); // one slot only
        for i in 0..3u32 {
            sys.submit_demand(
                Demand::new(i, NodeId(0), NodeId(3), TaskDag::single(P1)),
                OpSpec::Dot { weights: vec![1.0] },
            );
        }
        let plan = sys.allocate_and_apply(Solver::Exact {
            node_budget: 1_000_000,
        });
        assert_eq!(plan.unsatisfied.len(), 2);
        assert_eq!(plan.installs.len(), 1);
    }

    #[test]
    fn reallocation_excludes_failed_site_and_recovers_service() {
        let mut sys = fig1_system();
        sys.submit_demand(
            Demand::new(1, NodeId(0), NodeId(3), TaskDag::single(P1)),
            OpSpec::Dot {
                weights: vec![0.25; 8],
            },
        );
        let solver = Solver::Exact {
            node_budget: 1_000_000,
        };
        let first = sys.allocate_and_apply(solver).clone();
        assert!(first.unsatisfied.is_empty());
        let failed_site = first.installs[0].node;
        assert!(sys.last_apply.as_ref().unwrap().fully_applied());

        // Hard-fail the chosen site: the re-run must place the demand on
        // the surviving upgraded site instead.
        let second = sys.reallocate_excluding(&[failed_site], solver).clone();
        assert!(second.unsatisfied.is_empty(), "survivor should absorb it");
        assert_eq!(second.installs.len(), 1);
        let new_site = second.installs[0].node;
        assert_ne!(new_site, failed_site, "must move off the failed site");
        assert_eq!(sys.failed_sites, vec![failed_site]);
        assert!(sys.last_apply.as_ref().unwrap().fully_applied());

        // Traffic still gets computed — by the survivor.
        let pch = PchHeader::request(P1, 1, 8);
        let p = Packet::compute(
            Network::node_addr(NodeId(0), 1),
            Network::node_addr(NodeId(3), 1),
            1,
            pch,
            Packet::encode_operands(&[0.5; 8]),
        );
        sys.net.inject(0, NodeId(0), p);
        sys.net.run_to_idle();
        assert_eq!(sys.net.stats.delivered_count(), 1);
        let rec = &sys.net.stats.delivered[0];
        assert!(rec.computed, "survivor engine must compute");
        assert_eq!(rec.status, ofpc_net::pch::ResultStatus::Ok);

        // Repair re-admits the site to future allocations.
        sys.repair_site(failed_site);
        assert!(sys.failed_sites.is_empty());
    }

    #[test]
    fn failing_every_site_reports_unsatisfied() {
        let mut sys = fig1_system();
        sys.submit_demand(
            Demand::new(1, NodeId(0), NodeId(3), TaskDag::single(P1)),
            OpSpec::Dot { weights: vec![1.0] },
        );
        let solver = Solver::Greedy;
        sys.allocate_and_apply(solver);
        let plan = sys
            .reallocate_excluding(&[NodeId(1), NodeId(2)], solver)
            .clone();
        assert_eq!(plan.unsatisfied, vec![1], "no survivors → unsatisfied");
        assert!(plan.installs.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate demand id")]
    fn duplicate_demand_ids_rejected() {
        let mut sys = fig1_system();
        let d = Demand::new(1, NodeId(0), NodeId(3), TaskDag::single(P1));
        let spec = OpSpec::Dot { weights: vec![1.0] };
        sys.submit_demand(d.clone(), spec.clone());
        sys.submit_demand(d, spec);
    }

    #[test]
    #[should_panic(expected = "topological order")]
    fn mismatched_spec_primitive_rejected() {
        let mut sys = fig1_system();
        let d = Demand::new(1, NodeId(0), NodeId(3), TaskDag::single(P1));
        sys.submit_demand(d, OpSpec::Nonlinear);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn upgrade_unknown_site_panics() {
        let mut sys = fig1_system();
        sys.upgrade_site(NodeId(99), 1);
    }
}
