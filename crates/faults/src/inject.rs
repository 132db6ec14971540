//! Threading a [`FaultPlan`] into the discrete-event network simulator.
//!
//! Faults become ordinary simulator events: a cut schedules
//! `LinkState(down)`, a repair schedules `LinkState(up)`, engine fails
//! and noise steps map likewise. Because they ride the same seeded event
//! queue as the packets, a given (seed, plan) pair replays to an
//! identical packet-level history — fault scenarios are as deterministic
//! as fault-free ones.

use crate::plan::{FaultKind, FaultPlan};
use ofpc_net::sim::Network;

/// Schedule every event of `plan` into `net`. Call before (or between)
/// `run_to_idle` drives; events already in the past of the simulator
/// clock still execute in seq order at the current instant.
pub fn inject(plan: &FaultPlan, net: &mut Network) {
    for ev in &plan.events {
        match ev.kind {
            FaultKind::FiberCut { link } => net.schedule_link_down(ev.at_ps, link),
            FaultKind::LinkRestore { link } => net.schedule_link_up(ev.at_ps, link),
            FaultKind::EngineFail { node } => net.schedule_engine_health(ev.at_ps, node, false),
            FaultKind::EngineRepair { node } => net.schedule_engine_health(ev.at_ps, node, true),
            FaultKind::NoiseStep { node, sigma } => {
                net.schedule_engine_noise(ev.at_ps, node, sigma)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultEvent, FaultPlan};
    use ofpc_net::packet::Packet;
    use ofpc_net::stats::DropReason;
    use ofpc_net::{LinkId, NodeId, Topology};
    use ofpc_photonics::SimRng;

    fn line_net() -> Network {
        let topo = Topology::line(3, 50.0);
        let mut net = Network::new(topo, SimRng::seed_from_u64(3));
        net.install_shortest_path_routes();
        net
    }

    fn plain(net: &Network, src: u32, dst: u32) -> Packet {
        let _ = net;
        Packet::data(
            Network::node_addr(NodeId(src), 1),
            Network::node_addr(NodeId(dst), 1),
            1,
            vec![0u8; 64],
        )
    }

    #[test]
    fn injected_cut_fires_at_its_scheduled_time() {
        let mut net = line_net();
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent {
            at_ps: 1_000,
            kind: FaultKind::FiberCut { link: LinkId(0) },
        });
        inject(&plan, &mut net);
        // Packet injected after the cut time never crosses link 0.
        let p = plain(&net, 0, 2);
        net.inject(2_000, NodeId(0), p);
        net.run_to_idle();
        assert_eq!(net.stats.delivered_count(), 0);
        assert_eq!(net.stats.drop_count(DropReason::LinkDown), 1);
        assert!(!net.link_is_up(LinkId(0)));
    }

    #[test]
    fn injected_flap_recovers() {
        let mut net = line_net();
        let plan = FaultPlan::new().flap(1_000, LinkId(0), 500_000_000);
        inject(&plan, &mut net);
        let p = plain(&net, 0, 2);
        // Injected well after the restore: delivered normally.
        net.inject(600_000_000, NodeId(0), p);
        net.run_to_idle();
        assert_eq!(net.stats.delivered_count(), 1);
        assert!(net.link_is_up(LinkId(0)));
        assert!(net.stats.conservation_holds(net.in_flight_count()));
    }

    #[test]
    fn injected_noise_step_raises_sigma() {
        let mut net = line_net();
        net.add_engine(
            NodeId(1),
            1,
            ofpc_net::sim::OpSpec::Dot {
                weights: vec![1.0; 4],
            },
            0.0,
        );
        let mut plan = FaultPlan::new();
        for (at_ps, sigma) in [(1_000, 0.05), (2_000, 0.25)] {
            plan.push(FaultEvent {
                at_ps,
                kind: FaultKind::NoiseStep {
                    node: NodeId(1),
                    sigma,
                },
            });
        }
        inject(&plan, &mut net);
        net.run_to_idle();
        let sigma = net.engines_at(NodeId(1))[0].noise_sigma;
        assert!((sigma - 0.25).abs() < 1e-12, "final rung wins: {sigma}");
    }
}
