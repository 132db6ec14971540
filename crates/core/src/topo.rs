//! Multi-region WAN topology generation — the 10–100x fig1 instances
//! the sharded controller (ofpc-shard, experiment E20) partitions.
//!
//! The paper's fig1 WAN is a single 4-node region. A continental
//! deployment is better modeled as a set of metro *regions* — dense
//! random-geometric clusters — stitched by a sparse long-haul backbone.
//! That structure is exactly what makes region sharding effective: most
//! demands stay inside one region, and the backbone carries the
//! boundary traffic the shard layer reconciles globally.
//!
//! The generator is deterministic per seed (it draws only from the
//! caller's [`SimRng`]), and returns the region assignment alongside
//! the topology so shard construction never has to re-derive it.

use ofpc_net::{NodeId, Topology};
use ofpc_photonics::SimRng;

/// Side of each region's square scatter area, km.
const REGION_SIDE_KM: f64 = 300.0;

/// Geometric-graph connection radius inside a region, km.
const REGION_RADIUS_KM: f64 = 150.0;

/// Long-haul backbone link length between adjacent gateways, km.
const BACKBONE_KM: f64 = 900.0;

/// Parameters for [`multi_region`]: metro-scale regions (300 km square,
/// 150 km radius) on a 900 km backbone ring.
#[derive(Debug, Clone)]
pub struct MultiRegionSpec {
    /// Number of metro regions (≥ 2).
    pub(crate) regions: usize,
    /// Nodes per region (≥ 2).
    pub(crate) sites_per_region: usize,
}

impl MultiRegionSpec {
    pub fn new(regions: usize, sites_per_region: usize) -> Self {
        MultiRegionSpec {
            regions,
            sites_per_region,
        }
    }

    pub(crate) fn node_count(&self) -> usize {
        self.regions * self.sites_per_region
    }
}

/// A generated multi-region WAN: the topology plus, for every node,
/// the region it belongs to (`region_of[node.0 as usize]`).
#[derive(Debug, Clone)]
pub struct MultiRegionWan {
    pub topo: Topology,
    pub region_of: Vec<u32>,
}

/// Generate a multi-region WAN.
///
/// Each region is an independent random-geometric cluster (plus a
/// spanning chain for connectivity, as in
/// [`Topology::random_geometric`]); its first node is the gateway.
/// Gateways are joined by a backbone ring, plus one cross chord for
/// ≥ 4 regions so backbone cuts don't partition the WAN in half.
/// Node ids are region-contiguous: region `r` owns ids
/// `r * sites_per_region .. (r + 1) * sites_per_region`.
pub fn multi_region(spec: &MultiRegionSpec, rng: &mut SimRng) -> MultiRegionWan {
    assert!(spec.regions >= 2, "need at least two regions");
    assert!(spec.sites_per_region >= 2, "need at least two sites/region");
    let mut topo = Topology::new();
    let mut region_of = Vec::with_capacity(spec.node_count());
    for r in 0..spec.regions {
        let base = topo.node_count();
        let pts: Vec<(f64, f64)> = (0..spec.sites_per_region)
            .map(|i| {
                topo.add_node(format!("r{r}s{i}"));
                region_of.push(r as u32);
                (
                    rng.uniform() * REGION_SIDE_KM,
                    rng.uniform() * REGION_SIDE_KM,
                )
            })
            .collect();
        for i in 0..pts.len() {
            for j in i + 1..pts.len() {
                let d = ((pts[i].0 - pts[j].0).powi(2) + (pts[i].1 - pts[j].1).powi(2)).sqrt();
                if d <= REGION_RADIUS_KM {
                    topo.add_link(
                        NodeId((base + i) as u32),
                        NodeId((base + j) as u32),
                        d.max(1.0),
                    );
                }
            }
        }
        for i in 0..pts.len() - 1 {
            let a = NodeId((base + i) as u32);
            let b = NodeId((base + i + 1) as u32);
            let already = topo.neighbors(a).iter().any(|(_, nb)| *nb == b);
            if !already {
                let d = ((pts[i].0 - pts[i + 1].0).powi(2) + (pts[i].1 - pts[i + 1].1).powi(2))
                    .sqrt()
                    .max(1.0);
                topo.add_link(a, b, d);
            }
        }
    }
    // Backbone ring over the gateways (node 0 of each region).
    let gw = |r: usize| NodeId((r * spec.sites_per_region) as u32);
    for r in 0..spec.regions {
        topo.add_link(gw(r), gw((r + 1) % spec.regions), BACKBONE_KM);
    }
    // A chord across the ring: one backbone cut never doubles the
    // worst-case gateway distance, and the ring stays 2-cut-tolerant.
    if spec.regions >= 4 {
        topo.add_link(gw(0), gw(spec.regions / 2), BACKBONE_KM * 1.5);
    }
    MultiRegionWan { topo, region_of }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_contiguous_and_connected() {
        let mut rng = SimRng::seed_from_u64(7);
        let wan = multi_region(&MultiRegionSpec::new(5, 8), &mut rng);
        assert_eq!(wan.topo.node_count(), 40);
        assert_eq!(wan.region_of.len(), 40);
        assert!(wan.topo.is_connected());
        // Contiguous id blocks of 8 per region.
        for (node, &r) in wan.region_of.iter().enumerate() {
            assert_eq!(r, node as u32 / 8);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = MultiRegionSpec::new(3, 4);
        let a = multi_region(&spec, &mut SimRng::seed_from_u64(42));
        let b = multi_region(&spec, &mut SimRng::seed_from_u64(42));
        let c = multi_region(&spec, &mut SimRng::seed_from_u64(43));
        assert_eq!(a.topo.link_count(), b.topo.link_count());
        assert_eq!(a.region_of, b.region_of);
        // A different seed scatters differently (links differ with
        // overwhelming probability for these sizes).
        assert_ne!(a.topo.link_count(), c.topo.link_count());
    }

    #[test]
    fn chord_added_for_four_plus_regions() {
        let mut rng = SimRng::seed_from_u64(1);
        let small = multi_region(&MultiRegionSpec::new(3, 3), &mut SimRng::seed_from_u64(1));
        let big = multi_region(&MultiRegionSpec::new(4, 3), &mut rng);
        // ring only (3 links) vs ring + chord (5 links) on the backbone:
        // count links touching two different-region endpoints.
        let backbone = |wan: &MultiRegionWan| {
            wan.topo
                .links
                .iter()
                .filter(|l| wan.region_of[l.a.0 as usize] != wan.region_of[l.b.0 as usize])
                .count()
        };
        assert_eq!(backbone(&small), 3);
        assert_eq!(backbone(&big), 5);
    }
}
