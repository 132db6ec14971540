//! Incremental deployment (the backward-compatibility argument, E9).
//!
//! The paper's pitch against new router ASICs is that transponders are
//! *pluggable*: operators can upgrade any fraction of sites and the rest
//! of the network keeps forwarding unchanged. This module quantifies
//! that: pick the upgrade order (by site degree — a natural
//! highest-leverage-first policy — or a given order), sweep the upgraded
//! fraction, and for each point run the controller over a demand set to
//! measure how much compute demand the partially-upgraded WAN satisfies
//! and at what added latency.

use ofpc_controller::demand::Demand;
use ofpc_controller::greedy::solve_greedy;
use ofpc_controller::options::enumerate_options;
use ofpc_net::{NodeId, Topology};
use serde::Serialize;

/// One point of the deployment sweep.
#[derive(Debug, Clone, Serialize)]
pub struct DeploymentPoint {
    /// Sites upgraded.
    pub upgraded_sites: usize,
    /// Fraction of sites upgraded.
    pub fraction: f64,
    /// Demands satisfied out of the total.
    pub satisfied: usize,
    pub total_demands: usize,
    /// Mean added latency (ms) across satisfied demands.
    pub mean_added_latency_ms: f64,
}

/// Order sites for upgrade by descending degree (ties by index), the
/// "upgrade the busiest exchange points first" policy.
pub fn upgrade_order_by_degree(topo: &Topology) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = (0..topo.node_count()).map(|n| NodeId(n as u32)).collect();
    order.sort_by_key(|&n| (std::cmp::Reverse(topo.neighbors(n).len()), n.0));
    order
}

/// Sweep upgraded-site counts `0..=n` in the given order, with
/// `slots_per_site` transponders per upgraded site, solving greedily at
/// each point (the sweep is about coverage, not solver optimality).
pub fn deployment_sweep(
    topo: &Topology,
    order: &[NodeId],
    slots_per_site: usize,
    demands: &[Demand],
) -> Vec<DeploymentPoint> {
    assert!(slots_per_site >= 1, "need at least one slot per site");
    assert!(!demands.is_empty(), "need demands to measure coverage");
    let n = topo.node_count();
    let mut points = Vec::with_capacity(order.len() + 1);
    for k in 0..=order.len() {
        let mut slots = vec![0usize; n];
        for &site in &order[..k] {
            slots[site.0 as usize] = slots_per_site;
        }
        let instance = enumerate_options(topo, &slots, demands, 8);
        let sol = solve_greedy(&instance);
        let mut added = Vec::new();
        for (d, choice) in sol.allocation.choices.iter().enumerate() {
            if let Some(o) = choice {
                added.push(instance.options[d][*o].added_latency_ps as f64 / 1e9);
            }
        }
        let satisfied = sol.allocation.satisfied_count();
        points.push(DeploymentPoint {
            upgraded_sites: k,
            fraction: k as f64 / order.len().max(1) as f64,
            satisfied,
            total_demands: demands.len(),
            mean_added_latency_ms: if added.is_empty() {
                0.0
            } else {
                added.iter().sum::<f64>() / added.len() as f64
            },
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofpc_controller::demand::TaskDag;
    use ofpc_engine::Primitive;
    use ofpc_photonics::SimRng;

    fn abilene_demands(n: usize, rng: &mut SimRng) -> Vec<Demand> {
        let topo = Topology::abilene();
        (0..n)
            .map(|i| {
                let src = NodeId(rng.below(topo.node_count()) as u32);
                let mut dst = src;
                while dst == src {
                    dst = NodeId(rng.below(topo.node_count()) as u32);
                }
                Demand::new(
                    i as u32,
                    src,
                    dst,
                    TaskDag::single(Primitive::VectorDotProduct),
                )
            })
            .collect()
    }

    #[test]
    fn degree_order_puts_hubs_first() {
        let topo = Topology::abilene();
        let order = upgrade_order_by_degree(&topo);
        assert_eq!(order.len(), 11);
        let first_degree = topo.neighbors(order[0]).len();
        let last_degree = topo.neighbors(order[10]).len();
        assert!(first_degree >= last_degree);
        assert!(first_degree >= 3, "Abilene hubs have degree ≥ 3");
    }

    #[test]
    fn coverage_grows_monotonically_with_deployment() {
        let topo = Topology::abilene();
        let mut rng = SimRng::seed_from_u64(1);
        let demands = abilene_demands(12, &mut rng);
        let order = upgrade_order_by_degree(&topo);
        let points = deployment_sweep(&topo, &order, 2, &demands);
        assert_eq!(points.len(), 12);
        assert_eq!(points[0].satisfied, 0, "no sites → no compute");
        for w in points.windows(2) {
            assert!(
                w[1].satisfied >= w[0].satisfied,
                "coverage regressed: {w:?}"
            );
        }
        let last = points.last().unwrap();
        assert_eq!(
            last.satisfied, 12,
            "full deployment satisfies everything: {last:?}"
        );
    }

    #[test]
    fn partial_deployment_already_covers_most_demands() {
        // The backward-compatibility selling point: upgrading a few hub
        // sites covers a large demand share.
        let topo = Topology::abilene();
        let mut rng = SimRng::seed_from_u64(2);
        let demands = abilene_demands(16, &mut rng);
        let order = upgrade_order_by_degree(&topo);
        // Slots sized so coverage (reachability), not slot capacity, is
        // what the sweep measures.
        let points = deployment_sweep(&topo, &order, 8, &demands);
        let at_3 = &points[3];
        assert!(
            at_3.satisfied as f64 / at_3.total_demands as f64 >= 0.9,
            "3 hub sites should cover ≥90%: {at_3:?}"
        );
    }

    #[test]
    fn added_latency_falls_as_deployment_densifies() {
        let topo = Topology::abilene();
        let mut rng = SimRng::seed_from_u64(3);
        let demands = abilene_demands(16, &mut rng);
        let order = upgrade_order_by_degree(&topo);
        let points = deployment_sweep(&topo, &order, 3, &demands);
        // Compare the first point with full satisfaction against the
        // final point: more sites = shorter detours on average.
        let first_full = points
            .iter()
            .find(|p| p.satisfied == p.total_demands)
            .expect("full coverage reached");
        let last = points.last().unwrap();
        assert!(
            last.mean_added_latency_ms <= first_full.mean_added_latency_ms + 1e-9,
            "densification should not lengthen detours: {first_full:?} vs {last:?}"
        );
    }

    #[test]
    #[should_panic(expected = "demands")]
    fn empty_demand_set_panics() {
        let topo = Topology::fig1();
        let order = upgrade_order_by_degree(&topo);
        deployment_sweep(&topo, &order, 1, &[]);
    }
}
