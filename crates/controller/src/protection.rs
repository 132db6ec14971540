//! Failure-aware slot exclusion and time-to-recovery accounting.
//!
//! The §3 controller "monitors the network" — this module is what it
//! does when monitoring reports a failure. For engine-site failures,
//! [`surviving_slots`] masks the failed sites out of the slot inventory
//! so the allocator re-runs over survivors only.
//!
//! Recovery time is modeled as three sequential stages —
//! loss-of-light **detection**, allocator **re-run**, and the
//! staged per-router **install** of the new `UpdatePlan` (same model as
//! `ofpc_core::protocol::staged_rollout`) — accounted by
//! [`RecoveryParams::timeline`]. The bound in
//! [`RecoveryParams::ttr_bound_ps`] is what experiment E13 checks p99
//! time-to-recovery against.

use ofpc_net::NodeId;

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
#[derive(Debug, Clone, Copy)]
pub struct RecoveryParams {
    /// Fault → detection: loss-of-light at the photodetector, charged
    /// as this fixed delay. Default 50 µs (SONET-class LOS detection is
    /// tens of microseconds).
    pub(crate) detection_ps: u64,
    /// Detection → new allocation: the controller's solver re-run over
    /// surviving sites. Default 1 ms.
    pub(crate) realloc_ps: u64,
    /// Per-router staged install gap for the new plan (§3's "next-hop
    /// updates to all routers", delivered one router at a time).
    /// Default 200 µs per router.
    pub(crate) per_router_install_ps: u64,
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
#[derive(Debug, Clone, Copy)]
pub struct RecoveryTimeline {
    pub fault_at_ps: u64,
    pub(crate) detected_at_ps: u64,
    pub(crate) reallocated_at_ps: u64,
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
