//! Region partition of a WAN topology.
//!
//! A [`RegionMap`] is the static part of sharding: which node belongs
//! to which region. It is built from a plain per-node assignment (as
//! produced by `ofpc_core::topo::multi_region`, or any clustering), so
//! this crate stays independent of how regions were drawn.

use ofpc_net::NodeId;

/// Node → region assignment plus the inverse (region → sorted nodes).
#[derive(Debug, Clone)]
pub struct RegionMap {
    region_of: Vec<u32>,
    nodes_by_region: Vec<Vec<NodeId>>,
}

impl RegionMap {
    /// Build from a per-node region id vector (`region_of[node]`).
    /// Region ids must be dense: every id in `0..max+1` non-empty.
    pub fn from_assignment(region_of: Vec<u32>) -> Self {
        assert!(!region_of.is_empty(), "empty region assignment");
        let regions = *region_of.iter().max().unwrap() as usize + 1;
        let mut nodes_by_region = vec![Vec::new(); regions];
        for (n, &r) in region_of.iter().enumerate() {
            nodes_by_region[r as usize].push(NodeId(n as u32));
        }
        for (r, nodes) in nodes_by_region.iter().enumerate() {
            assert!(!nodes.is_empty(), "region {r} has no nodes");
        }
        RegionMap {
            region_of,
            nodes_by_region,
        }
    }

    /// Everything in one region — the degenerate (monolithic) map.
    pub fn single(node_count: usize) -> Self {
        RegionMap::from_assignment(vec![0; node_count])
    }

    pub(crate) fn region_count(&self) -> usize {
        self.nodes_by_region.len()
    }

    pub(crate) fn node_count(&self) -> usize {
        self.region_of.len()
    }

    pub(crate) fn region_of(&self, node: NodeId) -> u32 {
        self.region_of[node.0 as usize]
    }

    /// Nodes of a region, ascending by id.
    pub(crate) fn nodes(&self, region: u32) -> &[NodeId] {
        &self.nodes_by_region[region as usize]
    }

    /// True iff both endpoints sit in `region` — the link filter for a
    /// shard's intra-region distance matrix.
    pub(crate) fn link_in_region(&self, a: NodeId, b: NodeId, region: u32) -> bool {
        self.region_of(a) == region && self.region_of(b) == region
    }

    /// The shard a demand belongs to: `Some(region)` when src and dst
    /// share one, `None` for a cross-region (boundary) demand.
    pub(crate) fn demand_region(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        let r = self.region_of(src);
        (self.region_of(dst) == r).then_some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_round_trips() {
        let map = RegionMap::from_assignment(vec![0, 0, 1, 1, 1, 2]);
        assert_eq!(map.region_count(), 3);
        assert_eq!(map.node_count(), 6);
        assert_eq!(map.nodes(1), &[NodeId(2), NodeId(3), NodeId(4)]);
        assert_eq!(map.region_of(NodeId(5)), 2);
    }

    #[test]
    fn demand_classification() {
        let map = RegionMap::from_assignment(vec![0, 0, 1, 1]);
        assert_eq!(map.demand_region(NodeId(0), NodeId(1)), Some(0));
        assert_eq!(map.demand_region(NodeId(2), NodeId(3)), Some(1));
        assert_eq!(map.demand_region(NodeId(1), NodeId(2)), None);
        assert!(map.link_in_region(NodeId(2), NodeId(3), 1));
        assert!(!map.link_in_region(NodeId(1), NodeId(2), 0));
    }

    #[test]
    fn single_region_is_monolithic() {
        let map = RegionMap::single(4);
        assert_eq!(map.region_count(), 1);
        assert_eq!(map.demand_region(NodeId(0), NodeId(3)), Some(0));
    }

    #[test]
    #[should_panic(expected = "no nodes")]
    fn sparse_region_ids_rejected() {
        RegionMap::from_assignment(vec![0, 2]);
    }
}
