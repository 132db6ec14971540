//! WAN topologies.
//!
//! Nodes are router sites; links are fiber pairs with real lengths, so
//! propagation delay falls out of the speed of light in glass. Builders
//! cover the paper's Fig. 1 four-site example, classic research WANs
//! (an Abilene-like continental backbone), and parametric families
//! (line, ring, star, random geometric) for the controller-scaling
//! experiment E6.

use ofpc_photonics::units;
use ofpc_photonics::SimRng;

/// Node identifier (index into the topology's node table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Link identifier (index into the topology's link table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// A router site.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    pub name: String,
}

/// A bidirectional fiber link between two sites.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    pub a: NodeId,
    pub b: NodeId,
    pub length_km: f64,
    /// Line capacity per direction, bits/s.
    pub capacity_bps: f64,
}

impl Link {
    /// One-way propagation delay, integer picoseconds.
    pub fn delay_ps(&self) -> u64 {
        units::fiber_delay_ps(self.length_km)
    }

    /// The far end relative to `from`, if `from` is an endpoint.
    pub fn other(&self, from: NodeId) -> Option<NodeId> {
        if from == self.a {
            Some(self.b)
        } else if from == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

/// Default per-wavelength line rate: the §5 headline 800 Gbps.
pub const DEFAULT_CAPACITY_BPS: f64 = 800e9;

/// A WAN topology.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Topology {
    pub nodes: Vec<Node>,
    pub links: Vec<Link>,
}

impl Topology {
    pub fn new() -> Self {
        Topology::default()
    }

    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { name: name.into() });
        id
    }

    pub fn add_link(&mut self, a: NodeId, b: NodeId, length_km: f64) -> LinkId {
        self.add_link_with_capacity(a, b, length_km, DEFAULT_CAPACITY_BPS)
    }

    pub fn add_link_with_capacity(
        &mut self,
        a: NodeId,
        b: NodeId,
        length_km: f64,
        capacity_bps: f64,
    ) -> LinkId {
        assert!(a != b, "self-loops are not allowed");
        assert!((a.0 as usize) < self.nodes.len(), "node {a:?} out of range");
        assert!((b.0 as usize) < self.nodes.len(), "node {b:?} out of range");
        assert!(
            length_km >= 0.0 && capacity_bps > 0.0,
            "bad link parameters"
        );
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            a,
            b,
            length_km,
            capacity_bps,
        });
        id
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Find a node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(|i| NodeId(i as u32))
    }

    /// Links incident to `node` with the neighbor at the far end.
    pub fn neighbors(&self, node: NodeId) -> Vec<(LinkId, NodeId)> {
        self.links
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.other(node).map(|n| (LinkId(i as u32), n)))
            .collect()
    }

    /// Whether every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        while let Some(n) = stack.pop() {
            for (_, next) in self.neighbors(n) {
                if !seen[next.0 as usize] {
                    seen[next.0 as usize] = true;
                    stack.push(next);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }

    /// The paper's Fig. 1 scenario: four sites A, B, C, D. A connects to
    /// B and C; B and C each connect to D — two disjoint A→D paths, one
    /// through each compute site.
    pub fn fig1() -> Self {
        let mut t = Topology::new();
        let a = t.add_node("A");
        let b = t.add_node("B");
        let c = t.add_node("C");
        let d = t.add_node("D");
        t.add_link(a, b, 800.0);
        t.add_link(a, c, 900.0);
        t.add_link(b, d, 700.0);
        t.add_link(c, d, 600.0);
        t
    }

    /// An Abilene-like 11-node continental backbone (names and rough
    /// great-circle fiber lengths of the classic research WAN).
    pub fn abilene() -> Self {
        let mut t = Topology::new();
        let names = [
            "Seattle",
            "Sunnyvale",
            "LosAngeles",
            "Denver",
            "KansasCity",
            "Houston",
            "Chicago",
            "Indianapolis",
            "Atlanta",
            "WashingtonDC",
            "NewYork",
        ];
        let ids: Vec<NodeId> = names.iter().map(|n| t.add_node(*n)).collect();
        let links = [
            (0, 1, 1342.0),
            (0, 3, 2113.0),
            (1, 2, 573.0),
            (1, 3, 1512.0),
            (2, 5, 2472.0),
            (3, 4, 966.0),
            (4, 5, 1178.0),
            (4, 7, 724.0),
            (5, 8, 1288.0),
            (6, 7, 294.0),
            (6, 10, 1143.0),
            (7, 8, 687.0),
            (8, 9, 870.0),
            (9, 10, 366.0),
        ];
        for (a, b, km) in links {
            t.add_link(ids[a], ids[b], km);
        }
        t
    }

    /// A line of `n` nodes with uniform `km` spans.
    pub fn line(n: usize, km: f64) -> Self {
        assert!(n >= 1, "a line needs at least one node");
        let mut t = Topology::new();
        let ids: Vec<NodeId> = (0..n).map(|i| t.add_node(format!("n{i}"))).collect();
        for w in ids.windows(2) {
            t.add_link(w[0], w[1], km);
        }
        t
    }

    /// A ring of `n` nodes with uniform `km` spans.
    pub fn ring(n: usize, km: f64) -> Self {
        assert!(n >= 3, "a ring needs at least three nodes");
        let mut t = Topology::line(n, km);
        t.add_link(NodeId(n as u32 - 1), NodeId(0), km);
        t
    }

    /// A two-tier leaf–spine datacenter fabric (§5 "On-fiber photonic
    /// computing in datacenters"): `leaves` top-of-rack switches each
    /// connected to every one of `spines` spine switches with short
    /// (`km`, typically « 1) intra-DC fiber. Nodes 0..leaves are leaves;
    /// leaves..leaves+spines are spines.
    pub fn leaf_spine(leaves: usize, spines: usize, km: f64) -> Self {
        assert!(leaves >= 2 && spines >= 1, "need ≥2 leaves and ≥1 spine");
        let mut t = Topology::new();
        let leaf_ids: Vec<NodeId> = (0..leaves)
            .map(|i| t.add_node(format!("leaf{i}")))
            .collect();
        let spine_ids: Vec<NodeId> = (0..spines)
            .map(|i| t.add_node(format!("spine{i}")))
            .collect();
        for &l in &leaf_ids {
            for &s in &spine_ids {
                t.add_link(l, s, km);
            }
        }
        t
    }

    /// A random geometric graph: `n` nodes scattered on a
    /// `side_km × side_km` square, connected to every neighbor within
    /// `radius_km`, then augmented with a spanning chain for
    /// connectivity. Deterministic per seed — used by E6 scaling sweeps.
    pub fn random_geometric(n: usize, side_km: f64, radius_km: f64, rng: &mut SimRng) -> Self {
        assert!(n >= 2, "need at least two nodes");
        let mut t = Topology::new();
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                t.add_node(format!("n{i}"));
                (rng.uniform() * side_km, rng.uniform() * side_km)
            })
            .collect();
        for i in 0..n {
            for j in i + 1..n {
                let d = ((pts[i].0 - pts[j].0).powi(2) + (pts[i].1 - pts[j].1).powi(2)).sqrt();
                if d <= radius_km {
                    t.add_link(NodeId(i as u32), NodeId(j as u32), d.max(1.0));
                }
            }
        }
        // Spanning chain guarantees connectivity regardless of radius.
        for i in 0..n - 1 {
            let already = t
                .neighbors(NodeId(i as u32))
                .iter()
                .any(|(_, nb)| *nb == NodeId(i as u32 + 1));
            if !already {
                let d = ((pts[i].0 - pts[i + 1].0).powi(2) + (pts[i].1 - pts[i + 1].1).powi(2))
                    .sqrt()
                    .max(1.0);
                t.add_link(NodeId(i as u32), NodeId(i as u32 + 1), d);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shape() {
        let t = Topology::fig1();
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.link_count(), 4);
        assert!(t.is_connected());
        let a = t.find_node("A").unwrap();
        let nbrs: Vec<NodeId> = t.neighbors(a).iter().map(|(_, n)| *n).collect();
        assert_eq!(nbrs.len(), 2);
        assert!(nbrs.contains(&t.find_node("B").unwrap()));
        assert!(nbrs.contains(&t.find_node("C").unwrap()));
        // D is not adjacent to A: the compute sites are on the way.
        assert!(!nbrs.contains(&t.find_node("D").unwrap()));
    }

    #[test]
    fn abilene_shape() {
        let t = Topology::abilene();
        assert_eq!(t.node_count(), 11);
        assert_eq!(t.link_count(), 14);
        assert!(t.is_connected());
        assert!(t.find_node("Denver").is_some());
        assert!(t.find_node("Atlantis").is_none());
    }

    #[test]
    fn link_delay_is_physical() {
        let t = Topology::fig1();
        // 800 km ≈ 3.9 ms.
        let l = t.link(LinkId(0));
        let ms = l.delay_ps() as f64 / 1e9;
        assert!((ms - 3.9).abs() < 0.1, "delay {ms} ms");
    }

    #[test]
    fn line_and_ring() {
        let line = Topology::line(5, 100.0);
        assert_eq!(line.link_count(), 4);
        assert!(line.is_connected());
        let ring = Topology::ring(5, 100.0);
        assert_eq!(ring.link_count(), 5);
        assert_eq!(ring.neighbors(NodeId(0)).len(), 2);
    }

    #[test]
    fn leaf_spine_shape() {
        let t = Topology::leaf_spine(4, 2, 0.1);
        assert_eq!(t.node_count(), 6);
        assert_eq!(t.link_count(), 8);
        assert!(t.is_connected());
        // Every leaf reaches every spine directly.
        for l in 0..4 {
            assert_eq!(t.neighbors(NodeId(l)).len(), 2);
        }
        for s in 4..6 {
            assert_eq!(t.neighbors(NodeId(s)).len(), 4);
        }
        // Intra-DC distances: sub-µs propagation.
        assert!(t.link(LinkId(0)).delay_ps() < 1_000_000);
    }

    #[test]
    #[should_panic(expected = "leaves")]
    fn leaf_spine_rejects_degenerate() {
        Topology::leaf_spine(1, 1, 0.1);
    }

    #[test]
    fn random_geometric_is_connected_and_deterministic() {
        let mut rng1 = SimRng::seed_from_u64(42);
        let mut rng2 = SimRng::seed_from_u64(42);
        let t1 = Topology::random_geometric(20, 1000.0, 300.0, &mut rng1);
        let t2 = Topology::random_geometric(20, 1000.0, 300.0, &mut rng2);
        assert_eq!(t1, t2);
        assert!(t1.is_connected());
        assert_eq!(t1.node_count(), 20);
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut t = Topology::new();
        t.add_node("x");
        t.add_node("y");
        assert!(!t.is_connected());
        let empty = Topology::new();
        assert!(empty.is_connected());
    }

    #[test]
    fn link_other_endpoint() {
        let t = Topology::fig1();
        let l = t.link(LinkId(0));
        assert_eq!(l.other(l.a), Some(l.b));
        assert_eq!(l.other(l.b), Some(l.a));
        assert_eq!(l.other(NodeId(99)), None);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        t.add_link(a, a, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_unknown_node() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        t.add_link(a, NodeId(5), 1.0);
    }
}
