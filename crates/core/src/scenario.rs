//! The paper's Fig.-1 scenario, runnable.
//!
//! "A user at source site A is sending packets to a user at destination
//! site D. Simultaneously, a cell phone at source site A intends to
//! transmit an image, along with its image recognition result, to
//! another cell phone at destination site D. A photonic computing
//! transponder with packet classification capability is located at site
//! B and another ... with image recognition capability is located at
//! site C."
//!
//! [`Fig1Scenario::build`] assembles exactly that: the 4-site topology,
//! a P2 classification engine at B, a P1 image-recognition engine at C,
//! controller allocation, routing overrides, and traffic generators for
//! both applications. Experiment E1 runs it and compares against the
//! cloud baseline.

use crate::{OnFiberNetwork, Solver};
use ofpc_controller::demand::{Demand, TaskDag};
use ofpc_engine::Primitive;
use ofpc_net::packet::Packet;
use ofpc_net::pch::PchHeader;
use ofpc_net::sim::{Network, OpSpec};
use ofpc_net::{NodeId, Topology};
use ofpc_photonics::SimRng;

/// Demand / op IDs for the two Fig.-1 applications.
pub(crate) const OP_CLASSIFY: u16 = 1;
pub(crate) const OP_RECOGNIZE: u16 = 2;

/// The assembled Fig.-1 scenario.
#[derive(Debug)]
pub struct Fig1Scenario {
    pub system: OnFiberNetwork,
    pub(crate) site_a: NodeId,
    pub(crate) site_b: NodeId,
    pub(crate) site_c: NodeId,
    pub(crate) site_d: NodeId,
    /// The classification pattern installed at B.
    pub(crate) classify_pattern: Vec<bool>,
}

impl Fig1Scenario {
    /// Build the scenario and run controller allocation. Panics if the
    /// controller cannot satisfy both applications (it always can: one
    /// transponder each at B and C).
    pub fn build(seed: u64) -> Self {
        let topo = Topology::fig1();
        let site_a = topo.find_node("A").expect("A exists");
        let site_b = topo.find_node("B").expect("B exists");
        let site_c = topo.find_node("C").expect("C exists");
        let site_d = topo.find_node("D").expect("D exists");
        let mut system = OnFiberNetwork::new(topo, seed);
        system.upgrade_site(site_b, 1);
        system.upgrade_site(site_c, 1);

        // App 1: packet classification (P2) — an 16-bit header pattern.
        let classify_pattern: Vec<bool> = (0..16).map(|i| i % 3 == 0).collect();
        system.submit_demand(
            Demand::new(
                OP_CLASSIFY as u32,
                site_a,
                site_d,
                TaskDag::single(Primitive::PatternMatching),
            ),
            OpSpec::Match {
                pattern: classify_pattern.clone(),
            },
        );
        // App 2: image recognition (P1) — a 64-pixel linear classifier
        // row (the full DNN runs in `ofpc-apps::ml`; the in-network hop
        // executes its dominant layer).
        let mut wrng = SimRng::seed_from_u64(seed ^ 0x5eed);
        let recognize_weights: Vec<f64> = (0..64).map(|_| wrng.uniform_range(-1.0, 1.0)).collect();
        system.submit_demand(
            Demand::new(
                OP_RECOGNIZE as u32,
                site_a,
                site_d,
                TaskDag::single(Primitive::VectorDotProduct),
            ),
            OpSpec::Dot {
                weights: recognize_weights.clone(),
            },
        );
        let plan = system.allocate_and_apply(Solver::Exact {
            node_budget: 1_000_000,
        });
        assert!(
            plan.unsatisfied.is_empty(),
            "Fig. 1 allocation must satisfy both apps"
        );
        Fig1Scenario {
            system,
            site_a,
            site_b,
            site_c,
            site_d,
            classify_pattern,
        }
    }

    /// Inject `n` classification packets and `n` recognition packets
    /// from A to D, starting at `start_ps` with `gap_ps` spacing.
    pub fn inject_traffic(&mut self, n: usize, start_ps: u64, gap_ps: u64, rng: &mut SimRng) {
        let src = Network::node_addr(self.site_a, 1);
        let dst = Network::node_addr(self.site_d, 1);
        let mut t = start_ps;
        for i in 0..n {
            // Classification request: header bits as operands.
            let header_bits: Vec<f64> = self
                .classify_pattern
                .iter()
                .map(|&b| {
                    // Half the packets match the pattern, half don't.
                    let flip = i % 2 == 1 && rng.chance(0.9);
                    if b != flip {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect();
            let pch = PchHeader::request(Primitive::PatternMatching, OP_CLASSIFY, 16);
            let p = Packet::compute(
                src,
                dst,
                (i * 2) as u32,
                pch,
                Packet::encode_operands(&header_bits),
            );
            self.system.net.inject(t, self.site_a, p);
            // Recognition request: a synthetic image.
            let image: Vec<f64> = (0..64).map(|_| rng.uniform()).collect();
            let pch = PchHeader::request(Primitive::VectorDotProduct, OP_RECOGNIZE, 64);
            let p = Packet::compute(
                src,
                dst,
                (i * 2 + 1) as u32,
                pch,
                Packet::encode_operands(&image),
            );
            self.system.net.inject(t, self.site_a, p);
            t += gap_ps;
        }
    }

    /// Run to completion and report (delivered, computed) counts.
    pub fn run(&mut self) -> (usize, usize) {
        self.system.net.run_to_idle();
        (
            self.system.net.stats.delivered_count(),
            self.system.net.stats.computed_count(),
        )
    }

    /// Engines' execution counters at B and C.
    pub fn engine_executions(&self) -> (u64, u64) {
        let at = |node| {
            self.system
                .net
                .engines_at(node)
                .iter()
                .map(|s| s.executions)
                .sum()
        };
        (at(self.site_b), at(self.site_c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builds_and_installs_both_engines() {
        let s = Fig1Scenario::build(11);
        // One engine at B (classification) and one at C (recognition),
        // or the controller may have placed them the other way — but
        // both sites host exactly one engine.
        let b = s.system.net.engines_at(s.site_b).len();
        let c = s.system.net.engines_at(s.site_c).len();
        assert_eq!(b + c, 2, "two engines installed");
        assert!(b >= 1 || c >= 1);
    }

    #[test]
    fn both_apps_compute_in_flight() {
        let mut s = Fig1Scenario::build(11);
        let mut rng = SimRng::seed_from_u64(1);
        s.inject_traffic(10, 0, 1_000_000, &mut rng);
        let (delivered, computed) = s.run();
        assert_eq!(delivered, 20);
        assert_eq!(computed, 20, "every request computed on fiber");
        let (at_b, at_c) = s.engine_executions();
        assert_eq!(at_b + at_c, 20);
        assert!(at_b > 0, "classification engine idle");
        assert!(at_c > 0, "recognition engine idle");
    }

    #[test]
    fn latency_is_single_transit_not_round_trip() {
        // On-fiber latency ≈ one A→D transit (~7.3 ms); a cloud bounce
        // would at least double a leg. Verify delivered latencies sit at
        // transit scale.
        let mut s = Fig1Scenario::build(3);
        let mut rng = SimRng::seed_from_u64(2);
        s.inject_traffic(5, 0, 10_000_000, &mut rng);
        s.run();
        let p99 = s
            .system
            .net
            .stats
            .latency_percentile_ms(0.99)
            .expect("deliveries exist");
        assert!(p99 < 8.0, "p99 {p99} ms exceeds one-transit scale");
        assert!(p99 > 7.0, "p99 {p99} ms below physical propagation");
    }

    #[test]
    fn scenario_is_deterministic() {
        let run = |seed| {
            let mut s = Fig1Scenario::build(seed);
            let mut rng = SimRng::seed_from_u64(5);
            s.inject_traffic(8, 0, 500_000, &mut rng);
            s.run();
            s.system
                .net
                .stats
                .delivered
                .iter()
                .map(|r| (r.packet_id, r.delivered_ps))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }
}
