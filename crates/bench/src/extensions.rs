//! E11 — the paper's §5 "Discussion and limitations" items, implemented
//! and measured (the extension/future-work experiments):
//!
//! * **Distributed on-fiber computing** — a dot product split across
//!   multiple transponders along the path, accumulated in the PCH.
//! * **Security** — pattern matching on encrypted optical data: the
//!   phase-XOR cipher commutes with interference matching.
//! * **Datacenters** — photonic compute transceivers in a leaf–spine
//!   spine serving cross-rack inference at microsecond latency.
//! * **Coherent transponders** — QPSK IQ path with LO-gain sensitivity,
//!   the hardware the Fig.-3 architecture actually ships with.

use crate::table::{versioned_pretty, Table};
use ofpc_apps::secure_match::{encrypt_bits, SecureMatcher};
use ofpc_core::distributed::install_distributed_dot;
use ofpc_core::protocol::tag_request;
use ofpc_engine::Primitive;
use ofpc_net::sim::{Network, OpSpec};
use ofpc_net::{NodeId, Topology};
use ofpc_par::WorkerPool;
use ofpc_photonics::SimRng;
use ofpc_transponder::coherent::{span_carrier_phase, CoherentRx, CoherentTx};
use serde::Serialize;

#[derive(Serialize, Default)]
struct E11Result {
    distributed_parts: Vec<(u32, u64)>, // (site, macs)
    distributed_computed: bool,
    secure_match_distance: f64,
    secure_adversary_distance: f64,
    dc_p99_us: f64,
    dc_coverage: f64,
    coherent_span_errors: usize,
    coherent_bits: usize,
}

pub(crate) fn expt(_pool: &WorkerPool) -> String {
    println!("E11: §5 extension experiments\n");
    let mut result = E11Result::default();

    // ---- 1. Distributed dot product over a 5-node line ----
    let mut net = Network::new(Topology::line(5, 300.0), SimRng::seed_from_u64(1));
    net.install_shortest_path_routes();
    let sites = [NodeId(1), NodeId(2), NodeId(3)];
    let weights: Vec<f64> = (0..24).map(|i| (i % 8) as f64 / 8.0).collect();
    let plan = install_distributed_dot(
        &mut net,
        &sites,
        100,
        &weights,
        Network::node_prefix(NodeId(4)),
        0.0,
    );
    let operands: Vec<f64> = (0..24).map(|i| ((i * 5) % 9) as f64 / 9.0).collect();
    let p = tag_request(
        Network::node_addr(NodeId(0), 1),
        Network::node_addr(NodeId(4), 1),
        1,
        Primitive::VectorDotProduct,
        plan.entry_op,
        &operands,
    );
    net.inject(0, NodeId(0), p);
    net.run_to_idle();
    result.distributed_computed = net.stats.delivered[0].computed;
    let mut t = Table::new(
        "distributed dot product: 24 weights over 3 transponders",
        &["site", "op", "offset", "part len", "MACs"],
    );
    for &(site, op, offset, len) in &plan.parts {
        let macs = net.engines_at(site)[0].macs;
        t.row(&[
            format!("n{}", site.0),
            op.to_string(),
            offset.to_string(),
            len.to_string(),
            macs.to_string(),
        ]);
        result.distributed_parts.push((site.0, macs));
    }
    t.print();
    assert!(result.distributed_computed, "all parts must complete");
    assert_eq!(
        result
            .distributed_parts
            .iter()
            .map(|&(_, m)| m)
            .sum::<u64>(),
        24
    );

    // ---- 2. Matching on encrypted data ----
    let key = 0xFEED_BEEF;
    let pattern: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
    let mut sm = SecureMatcher::ideal(&pattern, key);
    let mut data = pattern.clone();
    data[7] = !data[7];
    data[40] = !data[40];
    let enc = encrypt_bits(&data, key);
    result.secure_match_distance = sm.match_ciphertext(&enc);
    result.secure_adversary_distance = sm.match_ciphertext_against_plaintext_rule(&enc, &pattern);
    println!(
        "encrypted matching: distance through cipher = {:.2} (true 2); \
         plaintext-rule adversary reads {:.1} (n/2 = 32 — no leak)\n",
        result.secure_match_distance, result.secure_adversary_distance
    );
    assert!((result.secure_match_distance - 2.0).abs() < 0.2);
    assert!((result.secure_adversary_distance - 32.0).abs() < 12.0);

    // ---- 3. Datacenter leaf–spine ----
    let mut dc = Network::new(Topology::leaf_spine(8, 2, 0.1), SimRng::seed_from_u64(2));
    dc.install_shortest_path_routes();
    let spine = NodeId(8);
    dc.add_engine(
        spine,
        1,
        OpSpec::Dot {
            weights: vec![0.5; 16],
        },
        0.0,
    );
    dc.install_compute_detour(Primitive::VectorDotProduct, spine);
    let mut id = 0;
    for src in 0..8u32 {
        for k in 0..8u32 {
            let dst = (src + 1 + k % 7) % 8;
            let p = tag_request(
                Network::node_addr(NodeId(src), 1),
                Network::node_addr(NodeId(dst), 1),
                id,
                Primitive::VectorDotProduct,
                1,
                &[0.5; 16],
            );
            dc.inject(id as u64 * 2_000, NodeId(src), p);
            id += 1;
        }
    }
    dc.run_to_idle();
    result.dc_p99_us = dc.stats.latency_percentile_ms(0.99).unwrap() * 1e3;
    result.dc_coverage = dc.stats.computed_count() as f64 / dc.stats.delivered_count() as f64;
    println!(
        "datacenter: {} cross-rack requests, p99 {:.2} µs, coverage {:.2}\n",
        dc.stats.delivered_count(),
        result.dc_p99_us,
        result.dc_coverage
    );
    assert!(result.dc_p99_us < 10.0, "DC latency must be µs-scale");
    assert!((result.dc_coverage - 1.0).abs() < 1e-9);

    // ---- 4. Coherent QPSK over a long span ----
    let mut rng = SimRng::seed_from_u64(3);
    let mut tx = CoherentTx::ideal(&mut rng);
    let mut rx = CoherentRx::ideal(&mut rng);
    let span = ofpc_photonics::fiber::FiberSpan::compensated(80.0);
    let bits: Vec<bool> = (0..2_000).map(|i| (i * 13) % 7 < 3).collect();
    let field = span.propagate(&tx.transmit(&bits));
    let got = rx.receive(&field, span_carrier_phase(&span, field.wavelength_m));
    result.coherent_bits = bits.len();
    result.coherent_span_errors = got.iter().zip(&bits).filter(|(a, b)| a != b).count();
    println!(
        "coherent QPSK over 80 km: {}/{} bit errors at 2 bits/symbol (64 Gb/s on 32 GBd)",
        result.coherent_span_errors, result.coherent_bits
    );
    assert_eq!(result.coherent_span_errors, 0);

    let doc = versioned_pretty(&result);
    println!("\nall §5 extension experiments verified");
    doc
}
