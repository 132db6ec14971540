//! Multipath placement planning: link-disjoint routes from the serving
//! front-end to the compute sites.
//!
//! The planner is greedy and deterministic: sites are routed in the
//! order given, each preferring a route that shares no fiber with any
//! route already selected. When the topology cannot offer another
//! disjoint route (a tree, or a site stranded behind the same span),
//! the planner degrades gracefully — the site still gets its shortest
//! route, just flagged non-disjoint — so the serving layer can fall
//! back to serialized-same-path replication or a declared-unprotected
//! downgrade instead of silently promising diversity it does not have.

use ofpc_net::routing::{shortest_route_filtered, RoutedPath};
use ofpc_net::{LinkId, NodeId, Topology};
use std::collections::BTreeSet;

/// One planned route from the front-end to a compute site.
#[derive(Debug, Clone)]
pub struct SiteRoute {
    /// The compute site this route lands on.
    pub node: NodeId,
    /// The fiber route from the front-end to `node`.
    pub route: RoutedPath,
    /// True when this route shares no link with any earlier route in
    /// the plan (the disjointness the redundancy layer relies on).
    pub disjoint: bool,
}

/// Link-disjoint route plan from one front-end to a set of sites.
#[derive(Debug, Clone)]
pub struct MultipathPlan {
    /// Per-site routes, in the site order given to [`MultipathPlan::plan`];
    /// unreachable sites are dropped.
    pub routes: Vec<SiteRoute>,
}

impl MultipathPlan {
    /// Plan routes from `front_end` to each of `sites`, greedily
    /// preferring link-disjoint routes. Sites unreachable even over the
    /// full topology are omitted from the plan.
    pub fn plan(topo: &Topology, front_end: NodeId, sites: &[NodeId]) -> MultipathPlan {
        let mut used: BTreeSet<LinkId> = BTreeSet::new();
        let mut routes = Vec::new();
        for &node in sites {
            let disjoint_route =
                shortest_route_filtered(topo, front_end, node, &|l| !used.contains(&l));
            let (route, disjoint) = match disjoint_route {
                Some(r) => (r, true),
                None => match shortest_route_filtered(topo, front_end, node, &|_| true) {
                    Some(r) => (r, false),
                    None => continue, // unreachable outright
                },
            };
            for &l in &route.links {
                used.insert(l);
            }
            routes.push(SiteRoute {
                node,
                route,
                disjoint,
            });
        }
        MultipathPlan { routes }
    }

    /// Number of pairwise link-disjoint routes in the plan.
    pub fn diversity(&self) -> usize {
        self.routes.iter().filter(|r| r.disjoint).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hub-and-spoke: front-end 0, sites 1..=n each on its own span.
    fn star(n: usize) -> Topology {
        let mut t = Topology::new();
        let hub = t.add_node("fe");
        for i in 0..n {
            let s = t.add_node(format!("site{i}"));
            t.add_link(hub, s, 10.0);
        }
        t
    }

    #[test]
    fn star_routes_are_all_disjoint() {
        let topo = star(4);
        let sites: Vec<NodeId> = (1u32..=4).map(NodeId).collect();
        let plan = MultipathPlan::plan(&topo, NodeId(0), &sites);
        assert_eq!(plan.routes.len(), 4);
        assert_eq!(plan.diversity(), 4);
        // Pairwise disjoint in fact, not just by flag.
        for i in 0..plan.routes.len() {
            for j in i + 1..plan.routes.len() {
                assert!(!plan.routes[i].route.shares_link_with(&plan.routes[j].route));
            }
        }
    }

    #[test]
    fn line_degrades_to_serialized_same_path() {
        // 0 - 1 - 2: both sites sit behind the same first span, so only
        // the first route can be disjoint; the plan says so.
        let topo = Topology::line(3, 10.0);
        let plan = MultipathPlan::plan(&topo, NodeId(0), &[NodeId(1), NodeId(2)]);
        assert_eq!(plan.routes.len(), 2);
        assert_eq!(plan.diversity(), 1);
        assert!(plan.routes[0].disjoint);
        assert!(!plan.routes[1].disjoint);
    }

    #[test]
    fn unreachable_sites_are_dropped() {
        let mut topo = star(2);
        let island = topo.add_node("island");
        let plan = MultipathPlan::plan(&topo, NodeId(0), &[NodeId(1), island]);
        assert_eq!(plan.routes.len(), 1);
        assert!(plan.routes.iter().all(|r| r.node != island));
        let empty = MultipathPlan::plan(&topo, island, &[NodeId(1), NodeId(2)]);
        assert!(empty.routes.is_empty());
    }

    #[test]
    fn ring_offers_two_disjoint_routes_to_one_site() {
        // On a ring, the same site listed twice gets the clockwise and
        // counter-clockwise routes — true multipath to a single engine.
        let topo = Topology::ring(5, 10.0);
        let plan = MultipathPlan::plan(&topo, NodeId(0), &[NodeId(2), NodeId(2)]);
        assert_eq!(plan.diversity(), 2);
        assert!(!plan.routes[0].route.shares_link_with(&plan.routes[1].route));
    }
}
