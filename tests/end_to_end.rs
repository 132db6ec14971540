//! Cross-crate integration tests: the full system assembled, plus the
//! key cross-validation — the network simulator's abstract engine
//! semantics must agree with the *physical* optical-field transponder
//! pipeline on identical operands and weights.

use ofpc_controller::demand::{Demand, TaskDag};
use ofpc_core::protocol::tag_request;
use ofpc_core::scenario::Fig1Scenario;
use ofpc_core::{OnFiberNetwork, Solver};
use ofpc_engine::Primitive;
use ofpc_net::sim::{Network, OpSpec};
use ofpc_net::{NodeId, Topology};
use ofpc_photonics::SimRng;
use ofpc_transponder::compute::{ComputeOp, ComputeResult, PhotonicComputeTransponder};
use ofpc_transponder::frame::Frame;

/// The load-bearing fidelity check: the packet-level simulator's Dot
/// semantics and the optical-field transponder must produce the same
/// result for the same operands/weights (within analog readout error).
#[test]
fn sim_engine_agrees_with_physical_transponder() {
    let weights: Vec<f64> = (0..16).map(|i| (i % 5) as f64 / 5.0).collect();
    let operands: Vec<f64> = (0..16).map(|i| ((i * 7) % 9) as f64 / 9.0).collect();

    // --- Physical path: optical fields through the Fig.-4 pipeline. ---
    let mut rng = SimRng::seed_from_u64(3);
    let mut tp = PhotonicComputeTransponder::ideal(&mut rng);
    tp.load_op(ComputeOp::DotProduct {
        weights: weights.clone(),
    });
    let frame = Frame::compute(Primitive::VectorDotProduct.wire_id(), &b"xval"[..]);
    let field = tp.transmit_compute_frame(&frame, &operands);
    let physical = match tp.process(&field).unwrap().computed {
        Some(ComputeResult::Dot(v)) => v,
        other => panic!("expected a dot result, got {other:?}"),
    };

    // --- Simulator path: the same op through the packet-level WAN. ---
    let mut net = Network::new(Topology::fig1(), SimRng::seed_from_u64(3));
    net.install_shortest_path_routes();
    let b = NodeId(1);
    net.add_engine(
        b,
        1,
        OpSpec::Dot {
            weights: weights.clone(),
        },
        0.0,
    );
    net.install_compute_detour(Primitive::VectorDotProduct, b);
    let p = tag_request(
        Network::node_addr(NodeId(0), 1),
        Network::node_addr(NodeId(3), 1),
        1,
        Primitive::VectorDotProduct,
        1,
        &operands,
    );
    net.inject(0, NodeId(0), p);
    net.run_to_idle();
    assert!(net.stats.delivered[0].computed);
    // Recompute what the sim engine produced from its slot counters and
    // the exact math it implements (quantized operands).
    let quantized: Vec<f64> = operands
        .iter()
        .map(|&v| (v * 255.0).round() / 255.0)
        .collect();
    let sim_result: f64 = quantized.iter().zip(&weights).map(|(a, w)| a * w).sum();

    let exact: f64 = operands.iter().zip(&weights).map(|(a, w)| a * w).sum();
    assert!(
        (physical - exact).abs() < 0.05,
        "physical {physical} vs exact {exact}"
    );
    assert!(
        (sim_result - exact).abs() < 0.05,
        "sim {sim_result} vs exact {exact}"
    );
    assert!(
        (physical - sim_result).abs() < 0.05,
        "physical {physical} vs sim {sim_result}"
    );
}

#[test]
fn fig1_scenario_full_stack() {
    let mut s = Fig1Scenario::build(99);
    let mut rng = SimRng::seed_from_u64(4);
    s.inject_traffic(25, 500_000, &mut rng);
    let (delivered, computed) = s.run();
    assert_eq!(delivered, 50);
    assert_eq!(computed, 50);
    // Both engines participated.
    let (b, c) = s.engine_executions();
    assert!(b > 0 && c > 0);
    // Latency is propagation-bound: ~7.3 ms across 1500 km.
    let p50 = s.system.net.stats.latency_percentile_ms(0.5).unwrap();
    assert!((7.0..8.0).contains(&p50), "p50 {p50}");
}

#[test]
fn controller_reallocation_after_failure() {
    // Serve a demand at B; then B's transponder "fails" (engines
    // cleared), the controller re-solves with only C available, and
    // traffic computes again.
    let mut sys = OnFiberNetwork::new(Topology::fig1(), 5);
    let (a, b, c, d) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
    sys.upgrade_site(b, 1);
    sys.submit_demand(
        Demand::new(1, a, d, TaskDag::single(Primitive::VectorDotProduct)),
        OpSpec::Dot {
            weights: vec![0.5; 4],
        },
    );
    let plan = sys
        .allocate_and_apply(Solver::Exact {
            node_budget: 100_000,
        })
        .clone();
    assert_eq!(plan.installs[0].node, b);

    // Failure: clear B, upgrade C, re-run the controller on a fresh
    // system (the controller would do this on heartbeat loss).
    let mut sys2 = OnFiberNetwork::new(Topology::fig1(), 5);
    sys2.upgrade_site(c, 1);
    sys2.submit_demand(
        Demand::new(1, a, d, TaskDag::single(Primitive::VectorDotProduct)),
        OpSpec::Dot {
            weights: vec![0.5; 4],
        },
    );
    let plan2 = sys2
        .allocate_and_apply(Solver::Exact {
            node_budget: 100_000,
        })
        .clone();
    assert_eq!(plan2.installs[0].node, c, "reallocation moved the op to C");
    let p = tag_request(
        Network::node_addr(a, 1),
        Network::node_addr(d, 1),
        1,
        Primitive::VectorDotProduct,
        1,
        &[0.5; 4],
    );
    sys2.net.inject(0, a, p);
    sys2.net.run_to_idle();
    assert!(sys2.net.stats.delivered[0].computed);
}

#[test]
fn multi_primitive_chain_demand_executes_both_tasks() {
    // A demand whose DAG is P1 → P3: the packet must visit two engines.
    let mut sys = OnFiberNetwork::new(Topology::fig1(), 6);
    let (a, b, c, d) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
    sys.upgrade_site(b, 1);
    sys.upgrade_site(c, 1);
    sys.submit_chain_demand(
        Demand::new(
            1,
            a,
            d,
            TaskDag::chain(vec![
                Primitive::VectorDotProduct,
                Primitive::NonlinearFunction,
            ]),
        ),
        vec![
            OpSpec::Dot {
                weights: vec![0.5; 4],
            },
            OpSpec::Nonlinear,
        ],
    );
    let plan = sys.allocate_and_apply(Solver::Greedy).clone();
    assert!(plan.unsatisfied.is_empty(), "{plan:?}");
    assert_eq!(plan.installs.len(), 2, "two tasks, two installs");
}

#[test]
fn plain_and_compute_traffic_coexist() {
    let mut net = Network::new(Topology::abilene(), SimRng::seed_from_u64(8));
    net.install_shortest_path_routes();
    let denver = net.topo.find_node("Denver").unwrap();
    net.add_engine(
        denver,
        1,
        OpSpec::Match {
            pattern: vec![true; 8],
        },
        0.0,
    );
    net.install_compute_detour(Primitive::PatternMatching, denver);
    let seattle = net.topo.find_node("Seattle").unwrap();
    let ny = net.topo.find_node("NewYork").unwrap();
    for i in 0..40u32 {
        let src = Network::node_addr(seattle, 1);
        let dst = Network::node_addr(ny, 1);
        let p = if i % 2 == 0 {
            ofpc_net::packet::Packet::data(src, dst, i, vec![0u8; 200])
        } else {
            tag_request(src, dst, i, Primitive::PatternMatching, 1, &[1.0; 8])
        };
        net.inject(i as u64 * 100_000, seattle, p);
    }
    net.run_to_idle();
    assert_eq!(net.stats.delivered_count(), 40);
    assert_eq!(net.stats.computed_count(), 20);
    // Plain packets beat compute packets on latency (no detour).
    let plain_mean: f64 = net
        .stats
        .delivered
        .iter()
        .filter(|r| !r.computed)
        .map(|r| r.latency_ms())
        .sum::<f64>()
        / 20.0;
    let compute_mean: f64 = net
        .stats
        .delivered
        .iter()
        .filter(|r| r.computed)
        .map(|r| r.latency_ms())
        .sum::<f64>()
        / 20.0;
    // Denver sits essentially on the shortest Seattle→NY path, so the
    // "detour" can tie with the plain path (compute packets are smaller
    // and serialize a few ns faster); allow a 1 µs tolerance.
    assert!(
        compute_mean >= plain_mean - 1e-3,
        "detour latency {compute_mean} must not undercut shortest-path {plain_mean}"
    );
}
