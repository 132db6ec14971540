//! Fault-injection integration tests: packet conservation under fault
//! plans, bounded recovery after a fiber cut, graceful digital fallback
//! in the serving runtime, and byte-identical replay of a full fault
//! scenario (same seed + same `FaultPlan` ⇒ same report).

use ofpc_apps::digital::ComputeModel;
use ofpc_controller::demand::{Demand, TaskDag};
use ofpc_controller::protection::ttr_bound_ps;
use ofpc_core::{OnFiberNetwork, Solver};
use ofpc_engine::Primitive;
use ofpc_faults::{generate_storm, inject, FaultPlan, Orchestrator, StormSpec};
use ofpc_net::packet::Packet;
use ofpc_net::pch::PchHeader;
use ofpc_net::sim::{Network, OpSpec};
use ofpc_net::stats::DropReason;
use ofpc_net::{LinkId, NodeId, Topology};
use ofpc_photonics::SimRng;
use ofpc_serve::{ArrivalSpec, BatchPolicy, ServeConfig, ServeReport, ServeRuntime, TenantSpec};
use ofpc_transponder::compute::ComputeTransponderConfig;

const P1: Primitive = Primitive::VectorDotProduct;

const SOLVER: Solver = Solver::Exact {
    node_budget: 1_000_000,
};

fn fig1_system(seed: u64) -> OnFiberNetwork {
    let mut sys = OnFiberNetwork::new(Topology::fig1(), seed);
    sys.upgrade_site(NodeId(1), 1);
    sys.upgrade_site(NodeId(2), 1);
    sys.submit_demand(
        Demand::new(1, NodeId(0), NodeId(3), TaskDag::single(P1)),
        OpSpec::Dot {
            weights: vec![0.25; 8],
        },
    );
    sys
}

fn compute_packet(id: u32) -> Packet {
    Packet::compute(
        Network::node_addr(NodeId(0), 1),
        Network::node_addr(NodeId(3), 1),
        id,
        PchHeader::request(P1, 1, 8),
        Packet::encode_operands(&[0.5; 8]),
    )
}

#[test]
fn packet_conservation_holds_under_fault_plan() {
    // A flapping link and an engine outage while traffic flows: every
    // injected packet must be accounted for — delivered, dropped with a
    // reason, or still in flight. Nothing vanishes.
    let mut sys = fig1_system(21);
    sys.allocate_and_apply(SOLVER);
    let a = sys.net.topo.find_node("A").unwrap();
    let (link_ab, _) = sys.net.topo.neighbors(a)[0];
    let plan = FaultPlan::new()
        .flap(2_000_000, link_ab, 5_000_000_000)
        .engine_outage(3_000_000, NodeId(1), 4_000_000_000);
    inject(&plan, &mut sys.net);

    // 100 µs spacing: the train spans 10 ms, straddling both the 5 ms
    // flap window and the engine outage, so some packets die on the
    // downed link and later ones cross the restored fiber.
    for i in 0..100u32 {
        sys.net
            .inject(i as u64 * 100_000_000, NodeId(0), compute_packet(i + 1));
    }
    sys.net.run_to_idle();

    let stats = &sys.net.stats;
    assert!(
        stats.conservation_holds(sys.net.in_flight_count()),
        "injected must equal delivered + dropped + in-flight"
    );
    assert_eq!(stats.injected, 100);
    // The cut bites mid-train: at least one packet dies on the downed
    // link, the rest arrive (fig1 is 2-connected, reroute survives).
    assert!(stats.drop_count(DropReason::LinkDown) > 0);
    assert!(stats.delivered_count() > 0);
}

#[test]
fn cut_recovery_ttr_is_bounded_and_service_resumes() {
    let mut sys = fig1_system(22);
    let orch = Orchestrator::new(SOLVER);
    sys.allocate_and_apply(orch.solver);

    let a = sys.net.topo.find_node("A").unwrap();
    let (cut_link, _) = sys.net.topo.neighbors(a)[0];
    sys.net.set_link_up(cut_link, false);
    let out = orch.recover_from_cut(&mut sys, 1_000_000);

    assert!(out.fully_applied);
    assert_eq!(out.unsatisfied, 0);
    let bound = ttr_bound_ps(sys.net.topo.node_count());
    assert!(
        out.timeline.ttr_ps() <= bound,
        "TTR {} exceeds detection+realloc+staged-install bound {bound}",
        out.timeline.ttr_ps()
    );
    // Post-recovery traffic is computed on the surviving path.
    sys.net
        .inject(out.timeline.installed_at_ps, NodeId(0), compute_packet(1));
    sys.net.run_to_idle();
    assert_eq!(sys.net.stats.delivered_count(), 1);
    assert!(sys.net.stats.delivered[0].computed);
}

/// Node 1 fails first, node 2 joins (zero photonic capacity), then both
/// repair in reverse order.
fn outage_schedule() -> FaultPlan {
    FaultPlan::new()
        .engine_outage(500_000_000, NodeId(1), 1_000_000_000)
        .engine_outage(800_000_000, NodeId(2), 400_000_000)
}

fn serve_under_outage(seed: u64, fallback: bool) -> ServeReport {
    let mut sys = OnFiberNetwork::new(Topology::line(3, 10.0), seed);
    sys.upgrade_site(NodeId(1), 1);
    sys.upgrade_site(NodeId(2), 1);
    let config = ServeConfig {
        seed,
        horizon_ps: 2_000_000_000,
        drain_grace_ps: 1_000_000_000,
        batch: BatchPolicy {
            max_batch: 8,
            max_wait_ps: 5_000_000,
        },
        tenants: vec![TenantSpec {
            name: "steady".to_string(),
            weight: 1,
            queue_capacity: 96,
            arrivals: ArrivalSpec::Poisson { rate_rps: 6e6 },
            primitive: P1,
            operand_len: 2048,
            deadline_ps: 2_000_000_000,
        }],
        verify_every: 128,
    };
    let mut rt = ServeRuntime::over_network(
        &sys,
        NodeId(0),
        &ComputeTransponderConfig::realistic(),
        4,
        config,
    )
    .with_storm(&outage_schedule());
    if fallback {
        rt = rt.with_digital_fallback(ComputeModel::cpu());
    }
    rt.run()
}

#[test]
fn digital_fallback_beats_shedding_under_outage() {
    let shed_only = serve_under_outage(23, false);
    let with_fb = serve_under_outage(23, true);
    // Same arrivals either way (open-loop, same seed).
    assert_eq!(shed_only.arrivals, with_fb.arrivals);
    assert!(shed_only.shed > 0, "outage must displace work");
    assert_eq!(shed_only.degraded, 0, "no fallback, no degraded outcomes");
    assert!(with_fb.degraded > 0, "fallback absorbs displaced requests");
    assert!(
        with_fb.shed_rate < shed_only.shed_rate,
        "fallback shed rate {} must undercut baseline {}",
        with_fb.shed_rate,
        shed_only.shed_rate
    );
    // Degraded answers are exact but cost digital energy.
    assert!(with_fb.degraded_energy_j > 0.0);
    // Every arrival is accounted for in both runs.
    for r in [&shed_only, &with_fb] {
        assert_eq!(r.arrivals, r.completed + r.shed + r.degraded + r.unfinished);
    }
}

#[test]
fn fault_scenario_replays_byte_identical() {
    // Satellite: same seed + same fault plan ⇒ byte-identical report,
    // through the whole serve pipeline including faults, retries, and
    // fallback.
    let a = serde_json::to_string_pretty(&serve_under_outage(24, true)).unwrap();
    let b = serde_json::to_string_pretty(&serve_under_outage(24, true)).unwrap();
    assert_eq!(a, b, "fault scenario must replay deterministically");
    assert!(a.contains("\"degraded\""));
    // And the network-level fault injection replays too.
    let net_run = || {
        let mut sys = fig1_system(25);
        sys.allocate_and_apply(SOLVER);
        let plan = FaultPlan::new()
            .flap(1_000_000, LinkId(0), 3_000_000_000)
            .engine_outage(2_000_000, NodeId(1), 2_000_000_000);
        inject(&plan, &mut sys.net);
        for i in 0..50u32 {
            sys.net
                .inject(i as u64 * 400_000, NodeId(0), compute_packet(i + 1));
        }
        sys.net.run_to_idle();
        sys.net
            .stats
            .delivered
            .iter()
            .map(|d| (d.packet_id, d.delivered_ps, d.computed, d.hops))
            .collect::<Vec<_>>()
    };
    assert_eq!(net_run(), net_run());
}

#[test]
fn fifty_event_storm_conserves_packets_and_slot_inventory() {
    // A dense correlated storm on fig1: 10 bursts of 2 cuts (each cut
    // paired with its splice = 40 events) over a 5-rung drift ramp on
    // both compute sites (10 NoiseStep events) — exactly 50 fault
    // events sweeping a 10 ms packet train.
    let mut sys = fig1_system(26);
    sys.allocate_and_apply(SOLVER);

    let links: Vec<LinkId> = (0..sys.net.topo.link_count() as u32).map(LinkId).collect();
    let sites = vec![NodeId(1), NodeId(2)];
    let spec = StormSpec {
        bursts: 10,
        cuts_per_burst: 2,
        burst_jitter_ps: 20_000_000,
        cut_down_ps: 300_000_000,
        engines_per_burst: 0,
        engine_down_ps: 0,
        drift_sigmas: vec![0.001, 0.002, 0.004, 0.008, 0.016],
    };
    let horizon = 10_000_000_000u64;
    let mut rng = SimRng::seed_from_u64(26).derive("storm-50");
    let storm = generate_storm(&links, &sites, horizon, &spec, &mut rng);
    assert_eq!(
        storm.events.len(),
        50,
        "10 bursts x 2 (cut + splice) pairs + 2 sites x 5 drift rungs"
    );
    inject(&storm, &mut sys.net);

    for i in 0..100u32 {
        sys.net
            .inject(i as u64 * 100_000_000, NodeId(0), compute_packet(i + 1));
    }
    sys.net.run_to_idle();

    // Packet conservation: every injected packet is delivered, dropped
    // with a reason, or still in flight — across all 50 fault events.
    let stats = &sys.net.stats;
    assert!(
        stats.conservation_holds(sys.net.in_flight_count()),
        "injected must equal delivered + dropped + in-flight"
    );
    assert_eq!(stats.injected, 100);
    assert!(
        stats.drop_count(DropReason::LinkDown) > 0,
        "the storm bites"
    );
    assert!(
        stats.delivered_count() > 0,
        "splice windows must let traffic through"
    );

    // Slot-inventory invariant: the post-storm reallocation may not
    // install more operations on a node than it has upgraded slots.
    let orch = Orchestrator::new(SOLVER);
    let out = orch.recover_from_cut(&mut sys, horizon);
    assert!(out.fully_applied);
    assert_eq!(out.unsatisfied, 0);
    let plan = sys.last_plan.clone().expect("recovery installs a plan");
    let mut used = vec![0usize; sys.net.topo.node_count()];
    for ins in &plan.installs {
        used[ins.node.0 as usize] += 1;
    }
    for (node, (&u, &have)) in used.iter().zip(sys.slots().iter()).enumerate() {
        assert!(
            u <= have,
            "node {node}: {u} installs exceed {have} upgraded slots"
        );
    }
}
