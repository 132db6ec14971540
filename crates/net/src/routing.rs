//! Routing: shortest paths and the dual-field forwarding table.
//!
//! The paper's §3 protocol has routers "perform next-hop lookup based on
//! two fields: the destination IP address in the IP header and the
//! photonic computing primitive ID specified in the photonic computing
//! header". The [`RoutingTable`] implements exactly that: a
//! longest-prefix-match stage over destination prefixes, where each
//! matched entry holds a default next hop plus per-primitive overrides
//! installed by the centralized controller to steer compute packets
//! through compute-capable sites.

use crate::addr::{Addr, Prefix};
use crate::topology::{LinkId, NodeId, Topology};
use ofpc_engine::Primitive;
use std::collections::{BinaryHeap, HashMap};

/// Weighted shortest paths from `src` by propagation delay (Dijkstra).
/// Returns per-node `(distance_ps, first_hop_link)`; unreachable nodes
/// are absent.
pub fn shortest_paths(topo: &Topology, src: NodeId) -> HashMap<NodeId, (u64, Option<LinkId>)> {
    shortest_paths_filtered(topo, src, &|_| true)
}

/// [`shortest_paths`] restricted to links accepted by `link_ok` — the
/// reconvergence primitive: protection switching routes around cut
/// fibers by filtering them out here.
pub fn shortest_paths_filtered(
    topo: &Topology,
    src: NodeId,
    link_ok: &dyn Fn(LinkId) -> bool,
) -> HashMap<NodeId, (u64, Option<LinkId>)> {
    let mut dist: HashMap<NodeId, (u64, Option<LinkId>)> = HashMap::new();
    // Max-heap on Reverse(dist); entries: (Reverse(d), node, first_link).
    let mut heap: BinaryHeap<(std::cmp::Reverse<u64>, u32, Option<u32>)> = BinaryHeap::new();
    dist.insert(src, (0, None));
    heap.push((std::cmp::Reverse(0), src.0, None));
    while let Some((std::cmp::Reverse(d), node, first)) = heap.pop() {
        let node = NodeId(node);
        if let Some(&(best, _)) = dist.get(&node) {
            if d > best {
                continue;
            }
        }
        for (link_id, next) in topo.neighbors(node) {
            if !link_ok(link_id) {
                continue;
            }
            let nd = d + topo.link(link_id).delay_ps();
            let first_hop = if node == src { Some(link_id.0) } else { first };
            let better = match dist.get(&next) {
                Some(&(best, _)) => nd < best,
                None => true,
            };
            if better {
                dist.insert(next, (nd, first_hop.map(LinkId)));
                heap.push((std::cmp::Reverse(nd), next.0, first_hop));
            }
        }
    }
    dist
}

/// All-pairs shortest-path delays over links accepted by `link_ok`, ps,
/// indexed `[src][dst]`; `None` = unreachable. One Dijkstra per source —
/// the shared matrix behind option enumeration and graph placement.
pub fn distance_matrix(topo: &Topology, link_ok: &dyn Fn(LinkId) -> bool) -> Vec<Vec<Option<u64>>> {
    (0..topo.node_count())
        .map(|i| {
            let paths = shortest_paths_filtered(topo, NodeId(i as u32), link_ok);
            (0..topo.node_count())
                .map(|j| paths.get(&NodeId(j as u32)).map(|&(d, _)| d))
                .collect()
        })
        .collect()
}

/// A concrete routed path: the node sequence, the exact links taken
/// (parallel spans are distinguished), and the end-to-end delay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedPath {
    pub nodes: Vec<NodeId>,
    pub links: Vec<LinkId>,
    pub delay_ps: u64,
}

impl RoutedPath {
    /// Whether this path shares any link with `other`.
    pub fn shares_link_with(&self, other: &RoutedPath) -> bool {
        self.links.iter().any(|l| other.links.contains(l))
    }

    /// Whether any of `down` takes this path out.
    pub fn uses_any(&self, down: &[LinkId]) -> bool {
        self.links.iter().any(|l| down.contains(l))
    }
}

/// Delay-shortest route from `src` to `dst` over links accepted by
/// `link_ok`, tracking the *exact* links taken, so an excluded parallel
/// span is never picked. Returns `None` when `dst` is unreachable over
/// the surviving links. This is the primitive behind k-disjoint
/// enumeration, where exclusions must bind to link identities, not
/// node adjacency.
pub fn shortest_route_filtered(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    link_ok: &dyn Fn(LinkId) -> bool,
) -> Option<RoutedPath> {
    if src == dst {
        return Some(RoutedPath {
            nodes: vec![src],
            links: Vec::new(),
            delay_ps: 0,
        });
    }
    // Dijkstra with (predecessor node, arriving link) tracking.
    let mut dist: HashMap<NodeId, u64> = HashMap::new();
    let mut prev: HashMap<NodeId, (NodeId, LinkId)> = HashMap::new();
    let mut heap: BinaryHeap<(std::cmp::Reverse<u64>, u32)> = BinaryHeap::new();
    dist.insert(src, 0);
    heap.push((std::cmp::Reverse(0), src.0));
    while let Some((std::cmp::Reverse(d), node)) = heap.pop() {
        let node = NodeId(node);
        if d > *dist.get(&node).unwrap_or(&u64::MAX) {
            continue;
        }
        if node == dst {
            break;
        }
        for (link_id, next) in topo.neighbors(node) {
            if !link_ok(link_id) {
                continue;
            }
            let nd = d + topo.link(link_id).delay_ps();
            if nd < *dist.get(&next).unwrap_or(&u64::MAX) {
                dist.insert(next, nd);
                prev.insert(next, (node, link_id));
                heap.push((std::cmp::Reverse(nd), next.0));
            }
        }
    }
    let delay_ps = *dist.get(&dst)?;
    let mut nodes = vec![dst];
    let mut links = Vec::new();
    let mut cur = dst;
    while cur != src {
        let (p, l) = prev[&cur];
        links.push(l);
        nodes.push(p);
        cur = p;
    }
    nodes.reverse();
    links.reverse();
    Some(RoutedPath {
        nodes,
        links,
        delay_ps,
    })
}

/// Up to `k` pairwise link-disjoint `src → dst` paths, shortest first:
/// greedy iterative Dijkstra, removing each found path's links before
/// the next round (the classic link-disjoint generalization of
/// `disjoint_pair`; greedy is not maximal on adversarial graphs, but it
/// is deterministic and exact for the 2-connected topologies here).
/// Returns fewer than `k` paths when the topology runs out of disjoint
/// capacity, and an empty vector when `dst` is unreachable.
pub fn k_disjoint_paths(topo: &Topology, src: NodeId, dst: NodeId, k: usize) -> Vec<RoutedPath> {
    k_disjoint_paths_filtered(topo, src, dst, k, &|_| true)
}

/// [`k_disjoint_paths`] over the links accepted by `link_ok` (cut
/// fibers are excluded before disjointness is even considered).
pub fn k_disjoint_paths_filtered(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    k: usize,
    link_ok: &dyn Fn(LinkId) -> bool,
) -> Vec<RoutedPath> {
    let mut out: Vec<RoutedPath> = Vec::new();
    if src == dst {
        if k > 0 {
            out.push(RoutedPath {
                nodes: vec![src],
                links: Vec::new(),
                delay_ps: 0,
            });
        }
        return out;
    }
    let mut used: Vec<LinkId> = Vec::new();
    while out.len() < k {
        let ok = |l: LinkId| link_ok(l) && !used.contains(&l);
        let Some(path) = shortest_route_filtered(topo, src, dst, &ok) else {
            break;
        };
        used.extend(&path.links);
        out.push(path);
    }
    out
}

/// One forwarding entry: a default next hop and per-primitive overrides.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouteEntry {
    /// Next-hop link for plain traffic (None = deliver locally).
    pub next_hop: Option<LinkId>,
    /// Per-primitive next-hop overrides for compute traffic that has not
    /// been computed yet.
    pub compute_next_hop: HashMap<u8, LinkId>,
    /// Op-granular overrides keyed by (primitive wire id, op id) —
    /// checked before the per-primitive map. Used by the distributed
    /// on-fiber computing extension (§5), where consecutive parts of one
    /// operation live at different sites and the packet must visit them
    /// in order.
    pub compute_next_hop_by_op: HashMap<(u8, u16), LinkId>,
}

/// A router's dual-field forwarding table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoutingTable {
    entries: Vec<(Prefix, RouteEntry)>,
}

impl RoutingTable {
    pub fn new() -> Self {
        RoutingTable::default()
    }

    /// Install (or replace) the entry for `prefix`.
    pub fn install(&mut self, prefix: Prefix, entry: RouteEntry) {
        if let Some(slot) = self.entries.iter_mut().find(|(p, _)| *p == prefix) {
            slot.1 = entry;
        } else {
            self.entries.push((prefix, entry));
            // Keep sorted by descending prefix length for LPM.
            self.entries
                .sort_by_key(|(p, _)| std::cmp::Reverse(p.len()));
        }
    }

    /// Add a per-primitive override on an existing (or new) prefix entry.
    pub fn install_compute_override(&mut self, prefix: Prefix, primitive: Primitive, link: LinkId) {
        if let Some(slot) = self.entries.iter_mut().find(|(p, _)| *p == prefix) {
            slot.1.compute_next_hop.insert(primitive.wire_id(), link);
        } else {
            let mut entry = RouteEntry::default();
            entry.compute_next_hop.insert(primitive.wire_id(), link);
            self.install(prefix, entry);
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Longest-prefix-match lookup of the raw entry.
    pub fn lookup_entry(&self, dst: Addr) -> Option<&RouteEntry> {
        self.entries
            .iter()
            .find(|(p, _)| p.contains(dst))
            .map(|(_, e)| e)
    }

    /// The §3 dual-field lookup: destination LPM, then primitive
    /// override. `pending_primitive` is the packet's primitive ID iff the
    /// packet still needs computation (computed packets route like plain
    /// traffic). Returns the next-hop link, or `None` for local delivery
    /// (or no route).
    pub fn lookup(&self, dst: Addr, pending_primitive: Option<Primitive>) -> Option<LinkId> {
        self.lookup_op(dst, pending_primitive.map(|p| (p, None)))
    }

    /// Like [`RoutingTable::lookup`], with optional op-granular routing:
    /// `pending` carries the packet's primitive and (optionally) its op
    /// id. Match precedence: (primitive, op) → primitive → default.
    pub fn lookup_op(
        &self,
        dst: Addr,
        pending: Option<(Primitive, Option<u16>)>,
    ) -> Option<LinkId> {
        let entry = self.lookup_entry(dst)?;
        if let Some((prim, op)) = pending {
            if let Some(op) = op {
                if let Some(&link) = entry.compute_next_hop_by_op.get(&(prim.wire_id(), op)) {
                    return Some(link);
                }
            }
            if let Some(&link) = entry.compute_next_hop.get(&prim.wire_id()) {
                return Some(link);
            }
        }
        entry.next_hop
    }

    /// Install an op-granular override (distributed-compute routing).
    pub fn install_op_override(
        &mut self,
        prefix: Prefix,
        primitive: Primitive,
        op_id: u16,
        link: LinkId,
    ) {
        if let Some(slot) = self.entries.iter_mut().find(|(p, _)| *p == prefix) {
            slot.1
                .compute_next_hop_by_op
                .insert((primitive.wire_id(), op_id), link);
        } else {
            let mut entry = RouteEntry::default();
            entry
                .compute_next_hop_by_op
                .insert((primitive.wire_id(), op_id), link);
            self.install(prefix, entry);
        }
    }

    /// Whether any route (even local delivery) exists for `dst`.
    pub fn has_route(&self, dst: Addr) -> bool {
        self.lookup_entry(dst).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dijkstra_on_fig1() {
        let t = Topology::fig1();
        let a = t.find_node("A").unwrap();
        let d = t.find_node("D").unwrap();
        let paths = shortest_paths(&t, a);
        // Shortest A→D is via B (800+700=1500 km beats 900+600=1500 km —
        // equal; tie broken deterministically) — either way distance
        // matches 1500 km of fiber.
        let (dist, first) = paths[&d];
        let expect = ofpc_photonics::units::fiber_delay_ps(1500.0);
        assert_eq!(dist, expect);
        assert!(first.is_some());
        // Source itself: zero distance, no first hop.
        assert_eq!(paths[&a], (0, None));
    }

    #[test]
    fn path_nodes_walks_the_topology() {
        let t = Topology::fig1();
        let a = t.find_node("A").unwrap();
        let d = t.find_node("D").unwrap();
        let route = shortest_route_filtered(&t, a, d, &|_| true).unwrap();
        assert_eq!(route.nodes.len(), 3); // A → {B|C} → D
        assert_eq!(route.nodes[0], a);
        assert_eq!(route.nodes[2], d);
        assert_eq!(route.links.len(), 2);
        // Agrees with the distance Dijkstra.
        assert_eq!(route.delay_ps, shortest_paths(&t, a)[&d].0);
        // Self-route.
        assert_eq!(
            shortest_route_filtered(&t, a, a, &|_| true).unwrap().nodes,
            vec![a]
        );
    }

    #[test]
    fn filtered_paths_avoid_cut_links() {
        let t = Topology::fig1();
        let a = t.find_node("A").unwrap();
        let b = t.find_node("B").unwrap();
        let d = t.find_node("D").unwrap();
        // Cut every link incident to B: the A→D path must go via C.
        let b_links: Vec<LinkId> = t.neighbors(b).into_iter().map(|(l, _)| l).collect();
        let ok = |l: LinkId| !b_links.contains(&l);
        let route = shortest_route_filtered(&t, a, d, &ok).unwrap();
        assert_eq!(route.nodes.len(), 3);
        assert!(!route.nodes.contains(&b), "detour must avoid B: {route:?}");
        assert_eq!(route.links.len(), 2);
        assert!(route.links.iter().all(|l| ok(*l)));
        // Filtered Dijkstra agrees on reachability and avoids B's links.
        let sp = shortest_paths_filtered(&t, a, &ok);
        assert_eq!(sp[&d].0, route.delay_ps);
        assert!(!sp.contains_key(&b));
        assert!(shortest_route_filtered(&t, a, b, &ok).is_none());
    }

    #[test]
    fn fig1_yields_two_disjoint_paths() {
        let t = Topology::fig1();
        let a = t.find_node("A").unwrap();
        let d = t.find_node("D").unwrap();
        let paths = k_disjoint_paths(&t, a, d, 4);
        // fig1 is 2-connected between A and D: exactly two disjoint
        // paths (via B and via C), shortest first.
        assert_eq!(paths.len(), 2);
        assert!(paths[0].delay_ps <= paths[1].delay_ps);
        assert!(!paths[0].shares_link_with(&paths[1]));
        for p in &paths {
            assert_eq!(p.nodes.first(), Some(&a));
            assert_eq!(p.nodes.last(), Some(&d));
            assert_eq!(p.links.len(), p.nodes.len() - 1);
        }
        assert_ne!(paths[0].nodes[1], paths[1].nodes[1], "distinct middles");
    }

    #[test]
    fn line_yields_one_path_ring_yields_two() {
        let line = Topology::line(3, 50.0);
        assert_eq!(k_disjoint_paths(&line, NodeId(0), NodeId(2), 3).len(), 1);
        let ring = Topology::ring(5, 50.0);
        let paths = k_disjoint_paths(&ring, NodeId(0), NodeId(2), 3);
        assert_eq!(paths.len(), 2);
        assert!(!paths[0].shares_link_with(&paths[1]));
        // Clockwise (2 hops) before counter-clockwise (3 hops).
        assert_eq!(paths[0].links.len(), 2);
        assert_eq!(paths[1].links.len(), 3);
    }

    #[test]
    fn parallel_spans_are_distinct_disjoint_paths() {
        // Two parallel fibers between the same pair: node-identical
        // paths, but link-disjoint — only link-aware enumeration finds
        // the second one.
        let mut t = Topology::new();
        let x = t.add_node("x");
        let y = t.add_node("y");
        let l0 = t.add_link(x, y, 10.0);
        let l1 = t.add_link(x, y, 20.0);
        let paths = k_disjoint_paths(&t, x, y, 4);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].links, vec![l0]);
        assert_eq!(paths[1].links, vec![l1]);
        assert_eq!(paths[0].nodes, paths[1].nodes);
    }

    #[test]
    fn disjoint_paths_respect_the_link_filter() {
        let t = Topology::fig1();
        let a = t.find_node("A").unwrap();
        let b = t.find_node("B").unwrap();
        let d = t.find_node("D").unwrap();
        let b_links: Vec<LinkId> = t.neighbors(b).into_iter().map(|(l, _)| l).collect();
        let ok = |l: LinkId| !b_links.contains(&l);
        let paths = k_disjoint_paths_filtered(&t, a, d, 4, &ok);
        assert_eq!(paths.len(), 1, "only the C route survives the filter");
        assert!(!paths[0].nodes.contains(&b));
        assert!(paths[0].links.iter().all(|&l| ok(l)));
    }

    #[test]
    fn self_route_is_trivial() {
        let t = Topology::fig1();
        let a = t.find_node("A").unwrap();
        let paths = k_disjoint_paths(&t, a, a, 3);
        assert_eq!(paths.len(), 1);
        assert!(paths[0].links.is_empty());
        assert_eq!(paths[0].delay_ps, 0);
        assert!(!paths[0].uses_any(&[LinkId(0)]));
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new();
        let x = t.add_node("x");
        let y = t.add_node("y");
        assert!(shortest_route_filtered(&t, x, y, &|_| true).is_none());
        assert!(!shortest_paths(&t, x).contains_key(&y));
    }

    #[test]
    fn lpm_prefers_longer_prefix() {
        let mut rt = RoutingTable::new();
        rt.install(
            "10.0.0.0/8".parse().unwrap(),
            RouteEntry {
                next_hop: Some(LinkId(1)),
                ..Default::default()
            },
        );
        rt.install(
            "10.1.0.0/16".parse().unwrap(),
            RouteEntry {
                next_hop: Some(LinkId(2)),
                ..Default::default()
            },
        );
        assert_eq!(
            rt.lookup("10.1.5.5".parse().unwrap(), None),
            Some(LinkId(2))
        );
        assert_eq!(
            rt.lookup("10.2.5.5".parse().unwrap(), None),
            Some(LinkId(1))
        );
        assert_eq!(rt.lookup("11.0.0.1".parse().unwrap(), None), None);
        assert!(!rt.has_route("11.0.0.1".parse().unwrap()));
    }

    #[test]
    fn dual_field_lookup_steers_compute_traffic() {
        let mut rt = RoutingTable::new();
        rt.install(
            "10.0.0.0/8".parse().unwrap(),
            RouteEntry {
                next_hop: Some(LinkId(1)),
                ..Default::default()
            },
        );
        rt.install_compute_override(
            "10.0.0.0/8".parse().unwrap(),
            Primitive::VectorDotProduct,
            LinkId(7),
        );
        let dst: Addr = "10.9.9.9".parse().unwrap();
        // Plain traffic: default hop.
        assert_eq!(rt.lookup(dst, None), Some(LinkId(1)));
        // Pending P1 compute: detour.
        assert_eq!(
            rt.lookup(dst, Some(Primitive::VectorDotProduct)),
            Some(LinkId(7))
        );
        // A different primitive without an override: default hop.
        assert_eq!(
            rt.lookup(dst, Some(Primitive::PatternMatching)),
            Some(LinkId(1))
        );
    }

    #[test]
    fn override_on_missing_prefix_creates_entry() {
        let mut rt = RoutingTable::new();
        rt.install_compute_override(
            "10.0.0.0/8".parse().unwrap(),
            Primitive::PatternMatching,
            LinkId(3),
        );
        let dst: Addr = "10.1.1.1".parse().unwrap();
        assert_eq!(
            rt.lookup(dst, Some(Primitive::PatternMatching)),
            Some(LinkId(3))
        );
        // Plain traffic has no next hop on that entry (local/no-route).
        assert_eq!(rt.lookup(dst, None), None);
    }

    #[test]
    fn reinstall_replaces_entry() {
        let mut rt = RoutingTable::new();
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        rt.install(
            p,
            RouteEntry {
                next_hop: Some(LinkId(1)),
                ..Default::default()
            },
        );
        rt.install(
            p,
            RouteEntry {
                next_hop: Some(LinkId(2)),
                ..Default::default()
            },
        );
        assert_eq!(rt.len(), 1);
        assert_eq!(
            rt.lookup("10.0.0.1".parse().unwrap(), None),
            Some(LinkId(2))
        );
    }
}
