//! Load balancing (Table 1, class C2).
//!
//! Table 1's bottleneck: switches have "limited memory for precise load
//! balancing due to replicating entries". The photonic alternative reads
//! link queue depths as *analog* values through a photonic comparator
//! (balanced detection — no per-entry state at all) and steers each
//! flowlet to the emptier path. Baselines: ECMP-style hashing (stateless
//! but congestion-blind) and static WCMP weights.
//!
//! The experiment runs on the Fig.-1 topology, which conveniently has
//! two disjoint A→D paths.

use ofpc_engine::comparator::{Comparison, PhotonicComparator};
use ofpc_net::packet::Packet;
use ofpc_net::sim::Network;
use ofpc_net::topology::{LinkId, Topology};
use ofpc_net::NodeId;
use ofpc_photonics::SimRng;

/// The balancing policy at the source's two-path fork.
#[derive(Debug)]
pub enum Balancer {
    /// Hash the flow id (ECMP model).
    EcmpHash,
    /// Static weights: probability of the first path.
    Wcmp { first_path_weight: f64 },
    /// Photonic comparator on the two egress queue occupancies
    /// (boxed: the device model is much larger than the other arms).
    Photonic(Box<PhotonicComparator>),
}

impl Balancer {
    /// Pick a path (0 or 1) for a flowlet.
    pub(crate) fn pick(
        &mut self,
        flow_id: u32,
        occupancy0: f64,
        occupancy1: f64,
        rng: &mut SimRng,
    ) -> usize {
        match self {
            Balancer::EcmpHash => {
                // FNV-style hash of the flow id.
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for b in flow_id.to_be_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x1000_0000_01b3);
                }
                (h % 2) as usize
            }
            Balancer::Wcmp { first_path_weight } => {
                if rng.uniform() < *first_path_weight {
                    0
                } else {
                    1
                }
            }
            Balancer::Photonic(cmp) => match cmp.compare(occupancy0, occupancy1) {
                // Send to the *less* occupied path.
                Comparison::AGreater => 1,
                Comparison::BGreater => 0,
                Comparison::TooClose => (flow_id % 2) as usize,
            },
        }
    }
}

/// Result of one load-balancing run.
#[derive(Debug, Clone)]
pub struct LbReport {
    pub drops: u64,
    pub p99_latency_ms: f64,
}

/// Capacity of the thin A→B link as a fraction of the default.
const CAPACITY_RATIO: f64 = 0.25;

/// Flowlets per run, and packets per flowlet.
const FLOWLETS: usize = 24;
const PACKETS_PER_FLOWLET: usize = 12;

/// Payload of every packet, bytes.
const PAYLOAD_BYTES: usize = 8_000;

/// Gap between foreground packets, ps.
const GAP_PS: u64 = 150_000;

/// Background load on the thin A→B link, as a fraction of its capacity.
const BG_LOAD: f64 = 0.9;

/// Build the asymmetric two-path test network: Fig. 1 with the B path's
/// A→B link capacity cut to stress precision. Returns the network and
/// the two first-hop link IDs (A→B, A→C).
pub(crate) fn build_two_path_network(rng: SimRng) -> (Network, [LinkId; 2]) {
    let mut topo = Topology::new();
    let a = topo.add_node("A");
    let b = topo.add_node("B");
    let c = topo.add_node("C");
    let d = topo.add_node("D");
    let cap = ofpc_net::topology::DEFAULT_CAPACITY_BPS;
    let l_ab = topo.add_link_with_capacity(a, b, 800.0, cap * CAPACITY_RATIO);
    let l_ac = topo.add_link_with_capacity(a, c, 800.0, cap);
    topo.add_link_with_capacity(b, d, 700.0, cap);
    topo.add_link_with_capacity(c, d, 700.0, cap);
    let mut net = Network::with_queue_capacity(topo, rng, 64 * 1024);
    net.install_shortest_path_routes();
    (net, [l_ab, l_ac])
}

/// Run 24 flowlets of 12 packets each from A to D under `balancer`,
/// reading egress occupancies at decision time. A persistent background
/// flow loads the thin A→B link to 90% of its capacity — the asymmetry
/// a congestion-aware balancer should route around and a hash-based one
/// cannot see.
pub fn run_lb(balancer: &mut Balancer, rng: &mut SimRng) -> LbReport {
    let (mut net, first_hops) = build_two_path_network(SimRng::seed_from_u64(1));
    let a = NodeId(0);
    let d = NodeId(3);
    let b = NodeId(1);
    let mut id = 0u32;

    // Background load on the thin path: plain packets terminating at B.
    let thin_capacity = net.topo.link(first_hops[0]).capacity_bps;
    let wire = (PAYLOAD_BYTES + ofpc_net::packet::IP_HEADER_BYTES) as f64;
    let bg_gap_ps = (wire * 8.0 / (BG_LOAD * thin_capacity) * 1e12).round() as u64;
    let duration_ps = (FLOWLETS * PACKETS_PER_FLOWLET) as u64 * GAP_PS;
    let mut bt = 0u64;
    while bt < duration_ps {
        let p = Packet::data(
            Network::node_addr(a, 9),
            Network::node_addr(b, 9),
            1_000_000 + id,
            vec![0u8; PAYLOAD_BYTES],
        );
        net.inject(bt, a, p);
        id += 1;
        bt += bg_gap_ps;
    }

    let mut t = 0u64;
    let foreground_base = 2_000_000u32;
    let mut fg_id = foreground_base;
    for f in 0..FLOWLETS {
        // Advance simulated time to the flowlet boundary, then take the
        // occupancy snapshot — in hardware this is the analog tap the
        // comparator reads at decision time.
        net.run_until(t);
        let occ0 = net.queue_occupancy(first_hops[0]);
        let occ1 = net.queue_occupancy(first_hops[1]);
        let path = balancer.pick(f as u32, occ0, occ1, rng);
        // Pin the flowlet to its path with a /32 route at the fork.
        let dst = Network::node_addr(d, (f % 200 + 1) as u8);
        net.routing_table_mut(a).install(
            ofpc_net::Prefix::host(dst),
            ofpc_net::routing::RouteEntry {
                next_hop: Some(first_hops[path]),
                ..Default::default()
            },
        );
        for _ in 0..PACKETS_PER_FLOWLET {
            let p = Packet::data(
                Network::node_addr(a, 1),
                dst,
                fg_id,
                vec![0u8; PAYLOAD_BYTES],
            );
            net.inject(t, a, p);
            fg_id += 1;
            t += GAP_PS;
        }
    }
    net.run_to_idle();
    // Report foreground deliveries only (background is plumbing).
    let lat: Vec<f64> = net
        .stats
        .delivered
        .iter()
        .filter(|r| r.packet_id >= foreground_base)
        .map(|r| r.latency_ms())
        .collect();
    LbReport {
        drops: net.stats.total_drops(),
        p99_latency_ms: ofpc_net::stats::percentile(lat, 0.99).unwrap_or(f64::NAN),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecmp_hash_is_deterministic_per_flow() {
        let mut b = Balancer::EcmpHash;
        let mut rng = SimRng::seed_from_u64(0);
        let p1 = b.pick(42, 0.0, 0.0, &mut rng);
        let p2 = b.pick(42, 0.9, 0.1, &mut rng);
        assert_eq!(p1, p2, "hash ignores occupancy");
        // Different flows spread across paths.
        let spread: std::collections::HashSet<usize> =
            (0..32).map(|f| b.pick(f, 0.0, 0.0, &mut rng)).collect();
        assert_eq!(spread.len(), 2);
    }

    #[test]
    fn photonic_balancer_prefers_empty_path() {
        let mut b = Balancer::Photonic(Box::new(PhotonicComparator::ideal()));
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(b.pick(0, 0.9, 0.1, &mut rng), 1);
        assert_eq!(b.pick(0, 0.1, 0.9, &mut rng), 0);
    }

    #[test]
    fn wcmp_follows_weights() {
        let mut b = Balancer::Wcmp {
            first_path_weight: 0.2,
        };
        let mut rng = SimRng::seed_from_u64(2);
        let first = (0..2_000)
            .filter(|&f| b.pick(f, 0.0, 0.0, &mut rng) == 0)
            .count();
        assert!((300..500).contains(&first), "first-path picks {first}");
    }

    #[test]
    fn photonic_lb_beats_ecmp_under_asymmetry() {
        // The A→B path has a quarter of the capacity; ECMP still sends
        // half the flowlets there, the photonic comparator shifts load
        // toward the fat path. Load is sized so queues actually build
        // (packet serialization on the thin path exceeds the gap), and
        // the comparator needs a small dead zone so an empty-vs-empty
        // comparison alternates instead of biasing one port.
        let mut rng = SimRng::seed_from_u64(3);
        let mut ecmp = Balancer::EcmpHash;
        let ecmp_report = run_lb(&mut ecmp, &mut rng);
        let mut phot = Balancer::Photonic(Box::new(PhotonicComparator::ideal()));
        let phot_report = run_lb(&mut phot, &mut rng);
        // With every flowlet on the fat path nothing is lost, so each
        // drop is a flowlet packet overflowing the thin path's queue:
        // the drop count measures how much load the policy left there.
        let mut fat_only = Balancer::Wcmp {
            first_path_weight: 0.0,
        };
        let fat_only_report = run_lb(&mut fat_only, &mut rng);
        assert_eq!(fat_only_report.drops, 0);
        // The photonic policy must shift load off the thin path.
        assert!(
            phot_report.drops * 4 < ecmp_report.drops,
            "photonic drops {} vs ECMP {}",
            phot_report.drops,
            ecmp_report.drops
        );
    }
}
