//! Bench: discrete-event simulator throughput — packets per
//! second of wall time through the Fig.-1 and Abilene WANs, plain and
//! compute traffic.

use ofpc_bench::gate::{per_call, report};
use ofpc_engine::Primitive;
use ofpc_net::packet::Packet;
use ofpc_net::pch::PchHeader;
use ofpc_net::sim::{Network, OpSpec};
use ofpc_net::{NodeId, Topology};
use ofpc_photonics::SimRng;
use std::hint::black_box;

fn run_batch(topo: Topology, compute: bool, packets: usize) -> usize {
    let mut net = Network::new(topo, SimRng::seed_from_u64(0));
    net.install_shortest_path_routes();
    let last = NodeId(net.topo.node_count() as u32 - 1);
    if compute {
        net.add_engine(
            NodeId(1),
            1,
            OpSpec::Dot {
                weights: vec![0.5; 16],
            },
            0.0,
        );
        net.install_compute_detour(Primitive::VectorDotProduct, NodeId(1));
    }
    for i in 0..packets {
        let p = if compute {
            let pch = PchHeader::request(Primitive::VectorDotProduct, 1, 16);
            Packet::compute(
                Network::node_addr(NodeId(0), 1),
                Network::node_addr(last, 1),
                i as u32,
                pch,
                Packet::encode_operands(&[0.5; 16]),
            )
        } else {
            Packet::data(
                Network::node_addr(NodeId(0), 1),
                Network::node_addr(last, 1),
                i as u32,
                vec![0u8; 256],
            )
        };
        net.inject(i as u64 * 10_000, NodeId(0), p);
    }
    net.run_to_idle();
    net.stats.delivered_count()
}

fn main() {
    let packets = 500usize;
    for (name, topo_fn, compute) in [
        ("fig1_plain", Topology::fig1 as fn() -> Topology, false),
        ("fig1_compute", Topology::fig1 as fn() -> Topology, true),
        (
            "abilene_plain",
            Topology::abilene as fn() -> Topology,
            false,
        ),
        (
            "abilene_compute",
            Topology::abilene as fn() -> Topology,
            true,
        ),
    ] {
        let t = per_call(|| {
            black_box(run_batch(topo_fn(), compute, packets));
        });
        report(&format!("des_throughput/{name}"), t, Some(packets as u64));
    }
}
