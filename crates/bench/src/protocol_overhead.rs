//! E7 — §3: the compute-communication protocol.
//!
//! Three measurements:
//!
//! 1. **Header overhead** — bytes the PCH adds per packet across payload
//!    sizes (the protocol tax).
//! 2. **Dual-lookup correctness** — mixed compute and plain traffic on
//!    the same WAN: plain packets must take shortest paths untouched,
//!    compute packets must detour exactly once and arrive computed.
//! 3. **Rollout convergence** — how many in-flight compute packets miss
//!    their engine while the controller's next-hop updates propagate
//!    router by router, as a function of the update gap.

use crate::table::{versioned_pretty, Table};
use ofpc_core::protocol::staged_rollout;
use ofpc_engine::Primitive;
use ofpc_net::packet::{Packet, IP_HEADER_BYTES};
use ofpc_net::pch::{PchHeader, PCH_WIRE_BYTES};
use ofpc_net::sim::{Network, OpSpec};
use ofpc_net::{NodeId, Topology};
use ofpc_par::WorkerPool;
use ofpc_photonics::SimRng;
use serde::Serialize;

#[derive(Serialize, Default)]
struct E7Result {
    overhead_pct_64b: f64,
    overhead_pct_1500b: f64,
    plain_hops: u32,
    compute_hops: u32,
    computed_coverage: f64,
    rollout: Vec<(u64, usize, usize)>, // (gap_ps, computed, missed)
}

pub(crate) fn expt(_pool: &WorkerPool) -> String {
    println!("E7: compute-communication protocol\n");
    let mut result = E7Result::default();

    // ---- 1. Header overhead ----
    let mut t = Table::new(
        "PCH overhead by payload size",
        &["payload B", "plain wire B", "compute wire B", "overhead %"],
    );
    for &payload in &[64usize, 256, 1500] {
        let plain = IP_HEADER_BYTES + payload;
        let tagged = plain + PCH_WIRE_BYTES;
        let pct = 100.0 * PCH_WIRE_BYTES as f64 / plain as f64;
        t.row(&[
            payload.to_string(),
            plain.to_string(),
            tagged.to_string(),
            format!("{pct:.2}"),
        ]);
        if payload == 64 {
            result.overhead_pct_64b = pct;
        }
        if payload == 1500 {
            result.overhead_pct_1500b = pct;
        }
    }
    t.print();
    assert!(result.overhead_pct_1500b < 1.0, "negligible at MTU size");

    // ---- 2. Dual-lookup correctness on Abilene ----
    let topo = Topology::abilene();
    let mut net = Network::new(topo, SimRng::seed_from_u64(7));
    net.install_shortest_path_routes();
    let seattle = net.topo.find_node("Seattle").unwrap();
    let ny = net.topo.find_node("NewYork").unwrap();
    let denver = net.topo.find_node("Denver").unwrap();
    net.add_engine(
        denver,
        1,
        OpSpec::Dot {
            weights: vec![0.5; 8],
        },
        0.0,
    );
    net.install_compute_detour(Primitive::VectorDotProduct, denver);
    // One plain + one compute packet, Seattle → New York.
    let src = Network::node_addr(seattle, 1);
    let dst = Network::node_addr(ny, 1);
    net.inject(0, seattle, Packet::data(src, dst, 1, vec![0u8; 100]));
    let pch = PchHeader::request(Primitive::VectorDotProduct, 1, 8);
    net.inject(
        0,
        seattle,
        Packet::compute(src, dst, 2, pch, Packet::encode_operands(&[0.5; 8])),
    );
    net.run_to_idle();
    assert_eq!(net.stats.delivered_count(), 2);
    let plain = net
        .stats
        .delivered
        .iter()
        .find(|r| r.packet_id == 1)
        .unwrap();
    let compute = net
        .stats
        .delivered
        .iter()
        .find(|r| r.packet_id == 2)
        .unwrap();
    result.plain_hops = plain.hops;
    result.compute_hops = compute.hops;
    result.computed_coverage = if compute.computed { 1.0 } else { 0.0 };
    println!(
        "dual lookup: plain took {} hops (shortest), compute took {} hops via Denver, computed = {}\n",
        plain.hops, compute.hops, compute.computed
    );
    assert!(compute.computed);
    assert!(!plain.computed);
    assert!(
        compute.hops >= plain.hops,
        "detour cannot be shorter than the shortest path"
    );

    // ---- 3. Rollout convergence ----
    let mut t = Table::new(
        "staged rollout: computed vs missed while updates propagate",
        &["update gap (ms)", "computed", "missed"],
    );
    for &gap_ms in &[0.001f64, 1.0, 5.0, 20.0] {
        let gap_ps = (gap_ms * 1e9) as u64;
        let mut net = Network::new(Topology::fig1(), SimRng::seed_from_u64(8));
        net.install_shortest_path_routes();
        let c = NodeId(2);
        net.add_engine(
            c,
            1,
            OpSpec::Dot {
                weights: vec![1.0; 4],
            },
            0.0,
        );
        let report = staged_rollout(
            &mut net,
            Primitive::VectorDotProduct,
            c,
            gap_ps,
            NodeId(0),
            Network::node_addr(NodeId(3), 1),
            1,
            &[0.5; 4],
            20,
            1_000_000_000, // 1 ms between packets
        );
        t.row(&[
            format!("{gap_ms}"),
            report.computed.to_string(),
            report.missed.to_string(),
        ]);
        result
            .rollout
            .push((gap_ps, report.computed, report.missed));
        assert_eq!(report.computed + report.missed, 20);
    }
    t.print();
    // Shape: slower rollout → more missed packets. The packet injected
    // at t=0 always races the first update, so even an instant rollout
    // can miss that single in-flight packet.
    let fastest_missed = result.rollout.first().unwrap().2;
    let slowest_missed = result.rollout.last().unwrap().2;
    assert!(slowest_missed >= fastest_missed);
    assert!(
        fastest_missed <= 1,
        "instant rollout misses at most the in-flight packet"
    );
    assert!(slowest_missed > 1, "slow rollout must miss more");

    versioned_pretty(&result)
}
