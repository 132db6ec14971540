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
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// The links `link_ok` accepts, indexed by node: node `v`'s usable links
/// are `arcs[start[v]..start[v + 1]]`, in link-id order (the order
/// [`Topology::neighbors`] lists them), each with its far end and
/// one-way delay. Built once per routing call, so the Dijkstra inner
/// loop neither scans the link table nor asks `link_ok` again.
struct Adjacency {
    start: Vec<usize>,
    arcs: Vec<(LinkId, NodeId, u64)>,
}

impl Adjacency {
    fn new(topo: &Topology, link_ok: &dyn Fn(LinkId) -> bool) -> Self {
        let n = topo.node_count();
        let usable: Vec<(LinkId, NodeId, NodeId, u64)> = topo
            .links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId(i as u32), l.a, l.b, l.delay_ps()))
            .filter(|&(id, ..)| link_ok(id))
            .collect();
        let mut start = vec![0usize; n + 1];
        for &(_, a, b, _) in &usable {
            start[a.0 as usize + 1] += 1;
            start[b.0 as usize + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut next = start.clone();
        let mut arcs = vec![(LinkId(0), NodeId(0), 0); start[n]];
        for &(id, a, b, delay) in &usable {
            for (from, to) in [(a, b), (b, a)] {
                arcs[next[from.0 as usize]] = (id, to, delay);
                next[from.0 as usize] += 1;
            }
        }
        Adjacency { start, arcs }
    }

    fn node_count(&self) -> usize {
        self.start.len() - 1
    }
}

/// One single-source Dijkstra over an [`Adjacency`], with buffers that
/// are reused across sources. This is the only shortest-path search in
/// the crate; every public routing function reads its arrays.
///
/// Nodes settle in ascending distance, equal distances in descending
/// node id, and each node's links relax in link-id order. A node keeps
/// the first predecessor that reached its final distance, so equal-delay
/// ties always resolve the same way.
struct Dijkstra {
    /// Delay from the source, ps; `u64::MAX` = unreached.
    dist: Vec<u64>,
    /// The node and link each reached node was entered from.
    pred: Vec<Option<(NodeId, LinkId)>>,
    /// The source's outgoing link on the path to each node.
    first: Vec<Option<LinkId>>,
    heap: BinaryHeap<(Reverse<u64>, u32)>,
}

impl Dijkstra {
    fn new(n: usize) -> Self {
        Dijkstra {
            dist: vec![u64::MAX; n],
            pred: vec![None; n],
            first: vec![None; n],
            heap: BinaryHeap::new(),
        }
    }

    /// Search from `src`, stopping once `stop_at` (if any) settles.
    fn run(&mut self, adj: &Adjacency, src: NodeId, stop_at: Option<NodeId>) {
        self.dist.fill(u64::MAX);
        self.pred.fill(None);
        self.first.fill(None);
        self.heap.clear();
        self.dist[src.0 as usize] = 0;
        self.heap.push((Reverse(0), src.0));
        while let Some((Reverse(d), node)) = self.heap.pop() {
            let u = node as usize;
            if d > self.dist[u] {
                continue;
            }
            if stop_at == Some(NodeId(node)) {
                break;
            }
            for &(link, next, delay) in &adj.arcs[adj.start[u]..adj.start[u + 1]] {
                let v = next.0 as usize;
                let nd = d + delay;
                if nd < self.dist[v] {
                    self.dist[v] = nd;
                    self.pred[v] = Some((NodeId(node), link));
                    self.first[v] = if node == src.0 {
                        Some(link)
                    } else {
                        self.first[u]
                    };
                    self.heap.push((Reverse(nd), next.0));
                }
            }
        }
    }

    /// The distance to `v`, `None` if unreached.
    fn reached(&self, v: usize) -> Option<u64> {
        (self.dist[v] != u64::MAX).then_some(self.dist[v])
    }
}

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
    let adj = Adjacency::new(topo, link_ok);
    let mut search = Dijkstra::new(adj.node_count());
    search.run(&adj, src, None);
    (0..adj.node_count())
        .filter_map(|v| {
            let d = search.reached(v)?;
            Some((NodeId(v as u32), (d, search.first[v])))
        })
        .collect()
}

/// All-pairs shortest-path delays over links accepted by `link_ok`, ps,
/// indexed `[src][dst]`; `None` = unreachable. One Dijkstra per source —
/// the shared matrix behind option enumeration and graph placement.
pub fn distance_matrix(topo: &Topology, link_ok: &dyn Fn(LinkId) -> bool) -> Vec<Vec<Option<u64>>> {
    let all: Vec<NodeId> = (0..topo.node_count()).map(|v| NodeId(v as u32)).collect();
    distance_rows(topo, &all, link_ok)
}

/// The [`distance_matrix`] rows of `sources` only, in the order given:
/// row `i` holds the delays from `sources[i]` to every node. A caller
/// that only ever reads a few sources' rows pays for those alone.
pub fn distance_rows(
    topo: &Topology,
    sources: &[NodeId],
    link_ok: &dyn Fn(LinkId) -> bool,
) -> Vec<Vec<Option<u64>>> {
    let adj = Adjacency::new(topo, link_ok);
    let mut search = Dijkstra::new(adj.node_count());
    sources
        .iter()
        .map(|&src| {
            search.run(&adj, src, None);
            (0..adj.node_count()).map(|v| search.reached(v)).collect()
        })
        .collect()
}

/// A concrete routed path: the exact links taken (parallel spans are
/// distinguished) and the end-to-end delay.
#[derive(Debug, Clone)]
pub struct RoutedPath {
    pub links: Vec<LinkId>,
    pub delay_ps: u64,
}

impl RoutedPath {
    /// Whether this path shares any link with `other`.
    pub fn shares_link_with(&self, other: &RoutedPath) -> bool {
        self.links.iter().any(|l| other.links.contains(l))
    }
}

/// Delay-shortest route from `src` to `dst` over links accepted by
/// `link_ok`, tracking the *exact* links taken, so an excluded parallel
/// span is never picked. Returns `None` when `dst` is unreachable over
/// the surviving links. Disjoint-route planning builds on it, where
/// exclusions must bind to link identities, not node adjacency.
pub fn shortest_route_filtered(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    link_ok: &dyn Fn(LinkId) -> bool,
) -> Option<RoutedPath> {
    if src == dst {
        return Some(RoutedPath {
            links: Vec::new(),
            delay_ps: 0,
        });
    }
    let adj = Adjacency::new(topo, link_ok);
    let mut search = Dijkstra::new(adj.node_count());
    search.run(&adj, src, Some(dst));
    let delay_ps = search.reached(dst.0 as usize)?;
    let mut links = Vec::new();
    let mut cur = dst;
    while cur != src {
        let (p, l) = search.pred[cur.0 as usize].expect("a reached node has a predecessor");
        links.push(l);
        cur = p;
    }
    links.reverse();
    Some(RoutedPath { links, delay_ps })
}

/// One forwarding entry: a default next hop and per-primitive overrides.
#[derive(Debug, Clone, Default)]
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
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    entries: Vec<(Prefix, RouteEntry)>,
}

impl RoutingTable {
    pub(crate) fn new() -> Self {
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

    /// Longest-prefix-match lookup of the raw entry.
    pub(crate) fn lookup_entry(&self, dst: Addr) -> Option<&RouteEntry> {
        self.entries
            .iter()
            .find(|(p, _)| p.contains(dst))
            .map(|(_, e)| e)
    }

    /// The §3 dual-field lookup: destination LPM, then the compute
    /// override. `pending` carries the packet's primitive and (optionally)
    /// its op id iff the packet still needs computation (computed packets
    /// route like plain traffic). Match precedence: (primitive, op) →
    /// primitive → default. Returns the next-hop link, or `None` for local
    /// delivery (or no route).
    pub(crate) fn lookup_op(
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofpc_photonics::SimRng;

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

    /// Seeded random geometric WANs, each with one added parallel span
    /// and one zero-length span, under random cut sets. The zero-length
    /// span settles a node at the same distance as its predecessor, the
    /// case where deriving first hops in distance order goes wrong.
    #[test]
    fn dijkstra_views_agree_with_floyd_warshall_under_random_cuts() {
        let mut rng = SimRng::seed_from_u64(0xD1A5);
        for case in 0..80 {
            let n = 3 + rng.below(14);
            let mut t = Topology::random_geometric(n, 1000.0, 350.0, &mut rng);
            let twin = t.link(LinkId(rng.below(t.link_count()) as u32)).clone();
            t.add_link(twin.a, twin.b, twin.length_km * rng.uniform_range(0.5, 2.0));
            let a = NodeId(rng.below(n) as u32);
            let b = NodeId(((a.0 as usize + 1 + rng.below(n - 1)) % n) as u32);
            t.add_link(a, b, 0.0);
            let cut: Vec<bool> = (0..t.link_count()).map(|_| rng.chance(0.2)).collect();
            let ok = |l: LinkId| !cut[l.0 as usize];

            let mut oracle = vec![vec![None; n]; n];
            for (v, row) in oracle.iter_mut().enumerate() {
                row[v] = Some(0);
            }
            for (i, link) in t.links.iter().enumerate() {
                if !cut[i] {
                    for (x, y) in [(link.a, link.b), (link.b, link.a)] {
                        let cell = &mut oracle[x.0 as usize][y.0 as usize];
                        *cell = Some(cell.map_or(link.delay_ps(), |d: u64| d.min(link.delay_ps())));
                    }
                }
            }
            for k in 0..n {
                for i in 0..n {
                    for j in 0..n {
                        if let (Some(x), Some(y)) = (oracle[i][k], oracle[k][j]) {
                            if oracle[i][j].is_none_or(|d| x + y < d) {
                                oracle[i][j] = Some(x + y);
                            }
                        }
                    }
                }
            }

            let matrix = distance_matrix(&t, &ok);
            assert_eq!(matrix, oracle, "case {case}");
            let rows = distance_rows(&t, &[b, a], &ok);
            assert_eq!(
                rows,
                vec![matrix[b.0 as usize].clone(), matrix[a.0 as usize].clone()]
            );
            for (s, row) in matrix.iter().enumerate() {
                let src = NodeId(s as u32);
                let paths = shortest_paths_filtered(&t, src, &ok);
                for (d, &delay) in row.iter().enumerate() {
                    let dst = NodeId(d as u32);
                    let route = shortest_route_filtered(&t, src, dst, &ok);
                    let Some(delay) = delay else {
                        assert!(route.is_none() && !paths.contains_key(&dst), "case {case}");
                        continue;
                    };
                    let route = route.expect("reachable pair has a route");
                    assert_eq!(route.delay_ps, delay, "case {case} {s}->{d}");
                    let walked: u64 = route.links.iter().map(|&l| t.link(l).delay_ps()).sum();
                    assert_eq!(walked, delay, "case {case} {s}->{d}");
                    assert!(route.links.iter().all(|&l| ok(l)));
                    assert_eq!(
                        paths[&dst],
                        (delay, route.links.first().copied()),
                        "case {case} {s}->{d}"
                    );
                }
            }
        }
    }

    #[test]
    fn route_links_and_delay_match_dijkstra() {
        let t = Topology::fig1();
        let a = t.find_node("A").unwrap();
        let d = t.find_node("D").unwrap();
        let route = shortest_route_filtered(&t, a, d, &|_| true).unwrap();
        // A → {B|C} → D.
        assert_eq!(route.links.len(), 2);
        // Agrees with the distance Dijkstra.
        assert_eq!(route.delay_ps, shortest_paths(&t, a)[&d].0);
        // Self-route.
        assert!(shortest_route_filtered(&t, a, a, &|_| true)
            .unwrap()
            .links
            .is_empty());
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
        assert_eq!(route.links.len(), 2);
        assert!(route.links.iter().all(|l| ok(*l)));
        // Filtered Dijkstra agrees on reachability and avoids B's links.
        let sp = shortest_paths_filtered(&t, a, &ok);
        assert_eq!(sp[&d].0, route.delay_ps);
        assert!(!sp.contains_key(&b));
        assert!(shortest_route_filtered(&t, a, b, &ok).is_none());
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
            rt.lookup_op("10.1.5.5".parse().unwrap(), None),
            Some(LinkId(2))
        );
        assert_eq!(
            rt.lookup_op("10.2.5.5".parse().unwrap(), None),
            Some(LinkId(1))
        );
        assert_eq!(rt.lookup_op("11.0.0.1".parse().unwrap(), None), None);
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
        assert_eq!(rt.lookup_op(dst, None), Some(LinkId(1)));
        // Pending P1 compute: detour.
        assert_eq!(
            rt.lookup_op(dst, Some((Primitive::VectorDotProduct, None))),
            Some(LinkId(7))
        );
        // A different primitive without an override: default hop.
        assert_eq!(
            rt.lookup_op(dst, Some((Primitive::PatternMatching, None))),
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
            rt.lookup_op(dst, Some((Primitive::PatternMatching, None))),
            Some(LinkId(3))
        );
        // Plain traffic has no next hop on that entry (local/no-route).
        assert_eq!(rt.lookup_op(dst, None), None);
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
        assert_eq!(rt.entries.len(), 1);
        assert_eq!(
            rt.lookup_op("10.0.0.1".parse().unwrap(), None),
            Some(LinkId(2))
        );
    }
}
