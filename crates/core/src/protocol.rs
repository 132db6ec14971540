//! The compute-communication protocol (paper §3), end-host side and
//! control-plane rollout.
//!
//! Two pieces:
//!
//! 1. **End-host tagging** — [`tag_request`] builds a compute packet:
//!    PCH layered over the IP header, operands fixed-point-encoded at the
//!    payload front. [`read_result`] extracts the in-band result at the
//!    destination. The protocol's per-packet overhead is the PCH alone,
//!    [`ofpc_net::pch::PCH_WIRE_BYTES`]: operands replace payload the
//!    application would send anyway (experiment E7).
//! 2. **Staged rollout** — [`staged_rollout`] models the §3 controller
//!    "delivering next-hop updates to all routers": updates land router
//!    by router with a control-plane delay, and the function reports how
//!    many in-flight compute packets miss their engine during
//!    convergence (delivered uncomputed) versus after.

use ofpc_engine::Primitive;
use ofpc_net::packet::Packet;
use ofpc_net::pch::PchHeader;
pub(crate) use ofpc_net::pch::ResultStatus;
use ofpc_net::routing::shortest_paths;
use ofpc_net::sim::Network;
use ofpc_net::{Addr, NodeId};

/// Build a tagged compute request.
pub fn tag_request(
    src: Addr,
    dst: Addr,
    packet_id: u32,
    primitive: Primitive,
    op_id: u16,
    operands: &[f64],
) -> Packet {
    assert!(
        operands.len() <= u16::MAX as usize,
        "operand vector exceeds the 16-bit length field"
    );
    let pch = PchHeader::request(primitive, op_id, operands.len() as u16);
    Packet::compute(src, dst, packet_id, pch, Packet::encode_operands(operands))
}

/// Extract the computed result from a delivered packet, if any. Returns
/// `None` for uncomputed packets *and* for results whose status is not
/// [`ResultStatus::Ok`] — a value stamped by an unhealthy engine or past
/// its deadline is garbage, not a result.
pub fn read_result(packet: &Packet) -> Option<f64> {
    packet
        .pch
        .as_ref()
        .filter(|pch| pch.is_computed() && pch.status() == ResultStatus::Ok)
        .map(|pch| pch.result())
}

/// Outcome of a staged control-plane rollout.
#[derive(Debug, Clone)]
pub struct RolloutReport {
    /// Packets delivered having been computed.
    pub computed: usize,
    /// Packets delivered uncomputed (sent before their detour route
    /// reached the routers they crossed).
    pub missed: usize,
}

/// Primitive and op id of every rollout packet.
const ROLLOUT_PRIMITIVE: Primitive = Primitive::VectorDotProduct;
const ROLLOUT_OP_ID: u16 = 1;

/// Gap between rollout packets: 1 ms.
const PACKET_GAP_PS: u64 = 1_000_000_000;

/// Install compute-detour overrides for (dot product → `via`) one router
/// at a time, `update_gap_ps` apart, while `packets` dot-product
/// requests (op 1), 1 ms apart, flow from `src_node` toward `dst`.
/// Before a router updates, it forwards compute packets on plain routes
/// (possibly past the engine). Reports how many packets computed vs
/// missed — the §3 convergence story quantified.
pub fn staged_rollout(
    net: &mut Network,
    via: NodeId,
    update_gap_ps: u64,
    src_node: NodeId,
    dst: Addr,
    operands: &[f64],
    packets: usize,
) -> RolloutReport {
    // Precompute each router's first hop toward `via`.
    let node_count = net.topo.node_count();
    let mut updates: Vec<(NodeId, ofpc_net::topology::LinkId)> = Vec::new();
    for r in 0..node_count {
        let router = NodeId(r as u32);
        if router == via {
            continue;
        }
        let paths = shortest_paths(&net.topo, router);
        if let Some(&(_, Some(first_link))) = paths.get(&via) {
            updates.push((router, first_link));
        }
    }
    // Interleave: inject traffic and apply updates in timestamp order.
    let dst_prefix = {
        // Route override scoped to the destination's /24.
        let o = dst.octets();
        ofpc_net::Prefix::new(Addr::new(o[0], o[1], o[2], 0), 24)
    };
    let mut events: Vec<(u64, Result<Packet, usize>)> = Vec::new();
    for (i, p) in (0..packets)
        .map(|i| {
            let pch = PchHeader::request(ROLLOUT_PRIMITIVE, ROLLOUT_OP_ID, operands.len() as u16);
            Packet::compute(
                Network::node_addr(src_node, 1),
                dst,
                i as u32,
                pch,
                Packet::encode_operands(operands),
            )
        })
        .enumerate()
    {
        events.push((i as u64 * PACKET_GAP_PS, Ok(p)));
    }
    for (i, _) in updates.iter().enumerate() {
        events.push(((i as u64 + 1) * update_gap_ps, Err(i)));
    }
    events.sort_by_key(|(t, e)| (*t, e.is_ok() as u8));
    for (t, ev) in events {
        net.run_until(t);
        match ev {
            Ok(packet) => net.inject(t.max(net.now_ps()), src_node, packet),
            Err(idx) => {
                let (router, link) = updates[idx];
                net.routing_table_mut(router).install_compute_override(
                    dst_prefix,
                    ROLLOUT_PRIMITIVE,
                    link,
                );
            }
        }
    }
    net.run_to_idle();
    let computed = net.stats.computed_count();
    let missed = net.stats.delivered_count() - computed;
    RolloutReport { computed, missed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofpc_net::sim::OpSpec;
    use ofpc_net::Topology;
    use ofpc_photonics::SimRng;

    const P1: Primitive = Primitive::VectorDotProduct;

    #[test]
    fn tag_and_read_round_trip() {
        let p = tag_request(
            Addr::new(10, 0, 0, 1),
            Addr::new(10, 0, 3, 1),
            5,
            P1,
            9,
            &[0.5, 0.25],
        );
        assert!(p.is_compute());
        assert_eq!(read_result(&p), None, "uncomputed request has no result");
        let mut computed = p.clone();
        computed.pch.as_mut().unwrap().mark_computed(1.25);
        assert!((read_result(&computed).unwrap() - 1.25).abs() < 0.01);
    }

    #[test]
    fn result_status_round_trips_through_the_wire() {
        use bytes::BytesMut;
        let src = Addr::new(10, 0, 0, 1);
        let dst = Addr::new(10, 0, 3, 1);
        // Engine-unhealthy pass-through: computed=false, status set.
        let mut p = tag_request(src, dst, 1, P1, 9, &[0.5, 0.25]);
        p.pch
            .as_mut()
            .unwrap()
            .set_status(ResultStatus::EngineUnhealthy);
        // Round-trip the PCH over its wire format, as a router would.
        let mut buf = BytesMut::new();
        p.pch.as_ref().unwrap().write_to(&mut buf);
        let parsed = ofpc_net::pch::PchHeader::read_from(&mut buf.freeze()).unwrap();
        assert_eq!(parsed.status(), ResultStatus::EngineUnhealthy);
        assert_eq!(read_result(&p), None);

        // Timed-out request.
        let mut p = tag_request(src, dst, 2, P1, 9, &[1.0]);
        p.pch.as_mut().unwrap().set_status(ResultStatus::TimedOut);
        assert_eq!(read_result(&p), None);

        // Healthy compute: Ok status, value visible.
        let mut p = tag_request(src, dst, 3, P1, 9, &[1.0]);
        p.pch.as_mut().unwrap().mark_computed(2.5);
        assert!((read_result(&p).unwrap() - 2.5).abs() < 0.01);

        // A computed value stamped non-Ok is hidden from the strict
        // accessor.
        p.pch
            .as_mut()
            .unwrap()
            .set_status(ResultStatus::EngineUnhealthy);
        assert_eq!(read_result(&p), None);
    }

    #[test]
    fn overhead_is_the_pch() {
        // Tagging adds exactly the PCH to the wire size.
        let plain = Packet::data(
            Addr::new(10, 0, 0, 1),
            Addr::new(10, 0, 1, 1),
            0,
            vec![0u8; 64],
        );
        let tagged = tag_request(
            Addr::new(10, 0, 0, 1),
            Addr::new(10, 0, 1, 1),
            0,
            P1,
            0,
            &vec![0.5; 64],
        );
        assert_eq!(
            tagged.wire_bytes() - plain.wire_bytes(),
            ofpc_net::pch::PCH_WIRE_BYTES
        );
    }

    #[test]
    fn instant_rollout_computes_everything() {
        let mut net = Network::new(Topology::fig1(), SimRng::seed_from_u64(0));
        net.install_shortest_path_routes();
        let b = NodeId(1);
        net.add_engine(
            b,
            1,
            OpSpec::Dot {
                weights: vec![1.0; 4],
            },
            0.0,
        );
        let report = staged_rollout(
            &mut net,
            b,
            1, // effectively instant updates
            NodeId(0),
            Network::node_addr(NodeId(3), 1),
            &[0.5; 4],
            10,
        );
        assert_eq!(report.computed, 10);
        assert_eq!(report.missed, 0);
    }

    #[test]
    fn slow_rollout_misses_early_packets() {
        let mut net = Network::new(Topology::fig1(), SimRng::seed_from_u64(0));
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
        // Updates land 5 ms apart while packets go every 1 ms: early
        // packets cross un-updated routers. (Shortest A→D may go via B,
        // missing the engine at C entirely.)
        let report = staged_rollout(
            &mut net,
            c,
            5_000_000_000,
            NodeId(0),
            Network::node_addr(NodeId(3), 1),
            &[0.5; 4],
            12,
        );
        assert!(report.missed > 0, "{report:?}");
        assert!(report.computed > 0, "{report:?}");
        assert_eq!(report.missed + report.computed, 12);
    }
}
