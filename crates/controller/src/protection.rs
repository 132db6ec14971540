//! Protection switching: precomputed disjoint backup paths,
//! failure-aware slot exclusion, and time-to-recovery accounting.
//!
//! The §3 controller "monitors the network" — this module is what it
//! does when monitoring reports a failure. Ahead of time it precomputes,
//! per protected (src, dst) pair, a primary path and a link-disjoint
//! backup ([`disjoint_pair`]); on a fiber cut the backup is known
//! immediately, without a route computation on the critical path. For
//! engine-site failures, [`surviving_slots`] masks the failed sites out
//! of the slot inventory so the allocator re-runs over survivors only.
//!
//! Recovery time is modeled as three sequential stages —
//! loss-of-light **detection**, allocator **re-run**, and the
//! staged per-router **install** of the new `UpdatePlan` (same model as
//! `ofpc_core::protocol::staged_rollout`) — accounted by
//! [`RecoveryParams::timeline`]. The bound in
//! [`RecoveryParams::ttr_bound_ps`] is what experiment E13 checks p99
//! time-to-recovery against.

use ofpc_net::routing::{k_disjoint_paths, k_disjoint_paths_filtered, RoutedPath};
use ofpc_net::{LinkId, NodeId, Topology};

/// A protected (src, dst) pair: the primary path and, when the topology
/// allows one, a link-disjoint backup.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtectedPair {
    pub src: NodeId,
    pub dst: NodeId,
    pub primary_nodes: Vec<NodeId>,
    pub primary_links: Vec<LinkId>,
    /// Link-disjoint backup path, if the topology provides one.
    pub backup_nodes: Option<Vec<NodeId>>,
    pub backup_links: Option<Vec<LinkId>>,
}

/// How a protected pair can actually be protected, given what the
/// topology offers. The serving layers use this to pick a redundancy
/// strategy instead of silently running unprotected when
/// `backup_links` is `None` (tree topologies, degree-1 sites).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtectionMode {
    /// ≥ 2 link-disjoint paths exist: redundant copies ride different
    /// fibers and any single cut is survivable.
    DisjointMultipath,
    /// Only one path exists: redundant copies must serialize on the
    /// same fibers — engine flaps are survivable, fiber cuts are not.
    SerializedSamePath,
    /// The destination is unreachable outright.
    Unprotected,
}

impl ProtectedPair {
    /// Whether a cut of `link` takes down the primary path.
    pub fn primary_uses(&self, link: LinkId) -> bool {
        self.primary_links.contains(&link)
    }

    /// The strongest protection the topology supports for this pair —
    /// the graceful-degradation classification consumers must act on
    /// (never treat `backup_links: None` as "run unprotected").
    pub fn protection_mode(&self) -> ProtectionMode {
        if self.backup_links.is_some() {
            ProtectionMode::DisjointMultipath
        } else {
            ProtectionMode::SerializedSamePath
        }
    }

    /// The path to use given a set of downed links: primary if intact,
    /// else the backup if *it* is intact, else `None` (recovery falls
    /// back to a full reroute).
    pub fn surviving_path(&self, down: &[LinkId]) -> Option<&[NodeId]> {
        if !self.primary_links.iter().any(|l| down.contains(l)) {
            return Some(&self.primary_nodes);
        }
        match (&self.backup_nodes, &self.backup_links) {
            (Some(nodes), Some(links)) if !links.iter().any(|l| down.contains(l)) => Some(nodes),
            _ => None,
        }
    }
}

/// A (src, dst) pair protected across up to `k` pairwise link-disjoint
/// paths — the k-path generalization of [`ProtectedPair`], used by the
/// proactive multipath layer (`ofpc-resil`) to pin redundant copies of
/// one request to different fibers *before* any fault occurs.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtectedPaths {
    pub src: NodeId,
    pub dst: NodeId,
    /// Pairwise link-disjoint paths, delay-shortest first. Non-empty.
    pub paths: Vec<RoutedPath>,
}

impl ProtectedPaths {
    /// Paths whose links all survive the given downed set, shortest
    /// first (the proactive analogue of `surviving_path`).
    pub fn surviving(&self, down: &[LinkId]) -> Vec<&RoutedPath> {
        self.paths.iter().filter(|p| !p.uses_any(down)).collect()
    }

    /// Link-disjoint path diversity (1 = no redundancy possible).
    pub fn diversity(&self) -> usize {
        self.paths.len()
    }

    /// The protection classification consumers branch on.
    pub fn protection_mode(&self) -> ProtectionMode {
        if self.paths.len() >= 2 {
            ProtectionMode::DisjointMultipath
        } else {
            ProtectionMode::SerializedSamePath
        }
    }
}

/// Precompute up to `k ≥ 1` pairwise link-disjoint paths for
/// (src, dst), shortest first. Returns `None` when `dst` is
/// unreachable.
pub fn protected_paths(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    k: usize,
) -> Option<ProtectedPaths> {
    assert!(k >= 1, "need at least one path");
    let paths = k_disjoint_paths(topo, src, dst, k);
    if paths.is_empty() {
        return None;
    }
    Some(ProtectedPaths { src, dst, paths })
}

/// [`protected_paths`] over the links accepted by `link_ok` — the
/// replanning entry point once some fibers are already down.
pub fn protected_paths_filtered(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    k: usize,
    link_ok: &dyn Fn(LinkId) -> bool,
) -> Option<ProtectedPaths> {
    assert!(k >= 1, "need at least one path");
    let paths = k_disjoint_paths_filtered(topo, src, dst, k, link_ok);
    if paths.is_empty() {
        return None;
    }
    Some(ProtectedPaths { src, dst, paths })
}

/// Precompute a primary path and link-disjoint backup for (src, dst):
/// primary = delay-shortest path; backup = the next link-disjoint path
/// ([`k_disjoint_paths`] with k = 2). Returns `None` when no path
/// exists at all; `backup_*` are `None` when the pair is not
/// 2-link-connected.
pub fn disjoint_pair(topo: &Topology, src: NodeId, dst: NodeId) -> Option<ProtectedPair> {
    let protected = protected_paths(topo, src, dst, 2)?;
    let mut it = protected.paths.into_iter();
    let primary = it.next().expect("protected_paths is non-empty");
    let backup = it.next();
    Some(ProtectedPair {
        src,
        dst,
        primary_nodes: primary.nodes,
        primary_links: primary.links,
        backup_nodes: backup.as_ref().map(|p| p.nodes.clone()),
        backup_links: backup.map(|p| p.links),
    })
}

/// Slot inventory with failed sites excluded: the allocator input for
/// the re-run after an engine hard-fail (a failed site contributes zero
/// usable transponders until repaired).
pub fn surviving_slots(slots: &[usize], failed: &[NodeId]) -> Vec<usize> {
    slots
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            if failed.iter().any(|n| n.0 as usize == i) {
                0
            } else {
                s
            }
        })
        .collect()
}

/// Recovery-stage durations (all picoseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryParams {
    /// Fault → detection: loss-of-light at the photodetector, charged
    /// as this fixed delay. Default 50 µs (SONET-class LOS detection is
    /// tens of microseconds).
    pub detection_ps: u64,
    /// Detection → new allocation: the controller's solver re-run over
    /// surviving sites. Default 1 ms.
    pub realloc_ps: u64,
    /// Per-router staged install gap for the new plan (§3's "next-hop
    /// updates to all routers", delivered one router at a time).
    /// Default 200 µs per router.
    pub per_router_install_ps: u64,
}

impl Default for RecoveryParams {
    fn default() -> Self {
        RecoveryParams {
            detection_ps: 50_000_000,           // 50 µs
            realloc_ps: 1_000_000_000,          // 1 ms
            per_router_install_ps: 200_000_000, // 200 µs
        }
    }
}

/// When each recovery stage completed for one fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryTimeline {
    pub fault_at_ps: u64,
    pub detected_at_ps: u64,
    pub reallocated_at_ps: u64,
    /// Last router updated — service is restored from here.
    pub installed_at_ps: u64,
}

impl RecoveryTimeline {
    /// Time to recovery: fault to full re-install.
    pub fn ttr_ps(&self) -> u64 {
        self.installed_at_ps - self.fault_at_ps
    }

    /// The three sequential recovery stages as `(name, start, end)`
    /// picosecond intervals — the shape telemetry traces and reports
    /// consume without re-deriving stage boundaries.
    pub fn stages(&self) -> [(&'static str, u64, u64); 3] {
        [
            ("recovery.detect", self.fault_at_ps, self.detected_at_ps),
            (
                "recovery.realloc",
                self.detected_at_ps,
                self.reallocated_at_ps,
            ),
            (
                "recovery.install",
                self.reallocated_at_ps,
                self.installed_at_ps,
            ),
        ]
    }
}

impl RecoveryParams {
    /// Build the timeline for a fault at `fault_at_ps` whose re-install
    /// touches `routers_updated` routers.
    pub fn timeline(&self, fault_at_ps: u64, routers_updated: usize) -> RecoveryTimeline {
        let detected_at_ps = fault_at_ps + self.detection_ps;
        let reallocated_at_ps = detected_at_ps + self.realloc_ps;
        let installed_at_ps =
            reallocated_at_ps + routers_updated as u64 * self.per_router_install_ps;
        RecoveryTimeline {
            fault_at_ps,
            detected_at_ps,
            reallocated_at_ps,
            installed_at_ps,
        }
    }

    /// Upper bound on TTR for a network of `routers` routers — every
    /// recovery must complete within detection + realloc + full staged
    /// install. E13 asserts measured p99 TTR against this.
    pub fn ttr_bound_ps(&self, routers: usize) -> u64 {
        self.detection_ps + self.realloc_ps + routers as u64 * self.per_router_install_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_a_d_has_disjoint_protection() {
        let t = Topology::fig1();
        let a = t.find_node("A").unwrap();
        let d = t.find_node("D").unwrap();
        let pair = disjoint_pair(&t, a, d).unwrap();
        assert_eq!(pair.primary_nodes.len(), 3);
        let backup = pair.backup_nodes.as_ref().expect("fig1 is 2-connected A→D");
        assert_eq!(backup.len(), 3);
        // Truly link-disjoint.
        let bl = pair.backup_links.as_ref().unwrap();
        assert!(bl.iter().all(|l| !pair.primary_links.contains(l)));
        // Middle hops differ (B vs C).
        assert_ne!(pair.primary_nodes[1], backup[1]);
    }

    #[test]
    fn surviving_path_switches_on_cut() {
        let t = Topology::fig1();
        let a = t.find_node("A").unwrap();
        let d = t.find_node("D").unwrap();
        let pair = disjoint_pair(&t, a, d).unwrap();
        // Intact: primary.
        assert_eq!(pair.surviving_path(&[]), Some(&pair.primary_nodes[..]));
        // Cut the primary's first link: backup takes over.
        let cut = pair.primary_links[0];
        assert!(pair.primary_uses(cut));
        let surviving = pair.surviving_path(&[cut]).expect("backup survives");
        assert_eq!(surviving, &pair.backup_nodes.as_ref().unwrap()[..]);
        // Cut both paths: nothing precomputed survives.
        let mut down = pair.primary_links.clone();
        down.extend(pair.backup_links.as_ref().unwrap());
        assert_eq!(pair.surviving_path(&down), None);
    }

    #[test]
    fn line_topology_has_no_backup() {
        let t = Topology::line(3, 100.0);
        let pair = disjoint_pair(&t, NodeId(0), NodeId(2)).unwrap();
        assert!(pair.backup_nodes.is_none());
        assert_eq!(pair.surviving_path(&[pair.primary_links[0]]), None);
    }

    #[test]
    fn protection_mode_classifies_tree_topologies() {
        // A tree (star) offers no disjoint backup anywhere: the
        // classification must say "serialize on the same path", never
        // silently pretend the pair is protected — and a 2-connected
        // pair must classify as disjoint multipath.
        let mut t = Topology::new();
        let hub = t.add_node("hub");
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.add_link(hub, a, 10.0);
        t.add_link(hub, b, 10.0);
        let pair = disjoint_pair(&t, a, b).unwrap();
        assert!(pair.backup_links.is_none());
        assert_eq!(pair.protection_mode(), ProtectionMode::SerializedSamePath);
        let paths = protected_paths(&t, a, b, 3).unwrap();
        assert_eq!(paths.diversity(), 1);
        assert_eq!(paths.protection_mode(), ProtectionMode::SerializedSamePath);

        let fig1 = Topology::fig1();
        let fa = fig1.find_node("A").unwrap();
        let fd = fig1.find_node("D").unwrap();
        let pair = disjoint_pair(&fig1, fa, fd).unwrap();
        assert_eq!(pair.protection_mode(), ProtectionMode::DisjointMultipath);
    }

    #[test]
    fn protected_paths_survive_single_cuts() {
        let t = Topology::fig1();
        let a = t.find_node("A").unwrap();
        let d = t.find_node("D").unwrap();
        let p = protected_paths(&t, a, d, 4).unwrap();
        assert_eq!(p.diversity(), 2);
        assert_eq!(p.protection_mode(), ProtectionMode::DisjointMultipath);
        // Any single-link cut leaves at least one path standing.
        for path in &p.paths {
            for &cut in &path.links {
                assert_eq!(p.surviving(&[cut]).len(), 1);
            }
        }
        // Cut one link from each path: nothing survives.
        let down = [p.paths[0].links[0], p.paths[1].links[0]];
        assert!(p.surviving(&down).is_empty());
        // Unreachable pair: no protection at all.
        let mut iso = Topology::new();
        let x = iso.add_node("x");
        let y = iso.add_node("y");
        assert!(protected_paths(&iso, x, y, 2).is_none());
    }

    #[test]
    fn filtered_protection_replans_around_downed_fibers() {
        let t = Topology::fig1();
        let a = t.find_node("A").unwrap();
        let d = t.find_node("D").unwrap();
        let full = protected_paths(&t, a, d, 2).unwrap();
        let down = full.paths[0].links.clone();
        let ok = |l| !down.contains(&l);
        let re = protected_paths_filtered(&t, a, d, 2, &ok).unwrap();
        assert_eq!(re.diversity(), 1, "one fiber route left after the cut");
        assert!(re.paths[0].links.iter().all(|&l| ok(l)));
    }

    #[test]
    fn surviving_slots_masks_failed_sites() {
        let slots = vec![2, 3, 1, 4];
        let out = surviving_slots(&slots, &[NodeId(1), NodeId(3)]);
        assert_eq!(out, vec![2, 0, 1, 0]);
        assert_eq!(surviving_slots(&slots, &[]), slots);
    }

    #[test]
    fn timeline_accounts_stage_by_stage() {
        let p = RecoveryParams {
            detection_ps: 10,
            realloc_ps: 100,
            per_router_install_ps: 5,
        };
        let t = p.timeline(1_000, 4);
        assert_eq!(t.detected_at_ps, 1_010);
        assert_eq!(t.reallocated_at_ps, 1_110);
        assert_eq!(t.installed_at_ps, 1_130);
        assert_eq!(t.ttr_ps(), 130);
        assert!(t.ttr_ps() <= p.ttr_bound_ps(4));
        // Bound is tight at full-network installs.
        assert_eq!(p.ttr_bound_ps(4), 130);
    }
}
