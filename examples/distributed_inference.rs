//! Distributed on-fiber photonic computing (§5): a dot product too large
//! for one transponder is split across three sites on the path, each
//! accumulating its partial result into the packet's compute header —
//! the packet arrives with the complete answer, and no single site ever
//! held the whole model.
//!
//! Run with: `cargo run --example distributed_inference`

use ofpc_core::distributed::install_distributed_dot;
use ofpc_core::protocol::tag_request;
use ofpc_engine::Primitive;
use ofpc_net::sim::Network;
use ofpc_net::{NodeId, Topology};
use ofpc_photonics::SimRng;

fn main() {
    // A 5-site line: src — t1 — t2 — t3 — dst, 300 km spans.
    let mut net = Network::new(Topology::line(5, 300.0), SimRng::seed_from_u64(7));
    net.install_shortest_path_routes();
    let src = NodeId(0);
    let dst = NodeId(4);
    let sites = [NodeId(1), NodeId(2), NodeId(3)];

    // A 48-element classifier row, too big for one engine slot in this
    // story: the controller splits it three ways along the path.
    let weights: Vec<f64> = (0..48).map(|i| ((i * 7) % 16) as f64 / 16.0).collect();
    let plan = install_distributed_dot(&mut net, &sites, &weights, Network::node_prefix(dst));
    println!("distributed plan (entry op {}):", plan.entry_op);
    for &(site, op, offset, len) in &plan.parts {
        println!(
            "  site n{}: op {op}, weights[{offset}..{}]",
            site.0,
            offset + len
        );
    }

    // An end host tags a request with the *first* part's op id; routing
    // and the engines handle the rest.
    let operands: Vec<f64> = (0..48).map(|i| ((i * 3) % 11) as f64 / 11.0).collect();
    let exact: f64 = operands.iter().zip(&weights).map(|(a, w)| a * w).sum();
    let p = tag_request(
        Network::node_addr(src, 1),
        Network::node_addr(dst, 1),
        1,
        Primitive::VectorDotProduct,
        plan.entry_op,
        &operands,
    );
    net.inject(0, src, p);
    net.run_to_idle();

    let rec = &net.stats.delivered[0];
    println!(
        "\npacket delivered in {:.3} ms after {} hops, computed: {}",
        rec.latency_ms(),
        rec.hops,
        rec.computed
    );
    for &site in &sites {
        let slot = &net.engines_at(site)[0];
        println!(
            "  engine n{}: {} MACs, {:.2e} J",
            site.0, slot.macs, slot.energy_j
        );
    }
    println!("exact dot product: {exact:.4} (accumulated in the PCH en route)");
    assert!(rec.computed);
    assert_eq!(rec.hops, 4, "straight down the line, no detours");
}
