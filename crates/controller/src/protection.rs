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
//! [`RecoveryTimeline::new`]. The stage durations are constants. The
//! bound in [`ttr_bound_ps`] is what experiment E13 checks p99
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

/// Fault → detection, ps: loss-of-light at the photodetector, charged
/// as this fixed delay of 50 µs (SONET-class LOS detection is tens of
/// microseconds).
const DETECTION_PS: u64 = 50_000_000;

/// Detection → new allocation, ps: the controller's solver re-run over
/// surviving sites, 1 ms.
const REALLOC_PS: u64 = 1_000_000_000;

/// Per-router staged install gap for the new plan, ps (§3's "next-hop
/// updates to all routers", delivered one router at a time): 200 µs per
/// router.
const PER_ROUTER_INSTALL_PS: u64 = 200_000_000;

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
    /// Build the timeline for a fault at `fault_at_ps` whose re-install
    /// touches `routers_updated` routers.
    pub fn new(fault_at_ps: u64, routers_updated: usize) -> Self {
        let detected_at_ps = fault_at_ps + DETECTION_PS;
        let reallocated_at_ps = detected_at_ps + REALLOC_PS;
        let installed_at_ps = reallocated_at_ps + routers_updated as u64 * PER_ROUTER_INSTALL_PS;
        RecoveryTimeline {
            fault_at_ps,
            detected_at_ps,
            reallocated_at_ps,
            installed_at_ps,
        }
    }

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

/// Upper bound on TTR for a network of `routers` routers — every
/// recovery must complete within detection + realloc + full staged
/// install. E13 asserts measured p99 TTR against this.
pub fn ttr_bound_ps(routers: usize) -> u64 {
    DETECTION_PS + REALLOC_PS + routers as u64 * PER_ROUTER_INSTALL_PS
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
        let t = RecoveryTimeline::new(1_000, 4);
        assert_eq!(t.detected_at_ps, 50_001_000);
        assert_eq!(t.reallocated_at_ps, 1_050_001_000);
        assert_eq!(t.installed_at_ps, 1_850_001_000);
        assert_eq!(t.ttr_ps(), 1_850_000_000);
        // Bound is tight at full-network installs.
        assert_eq!(ttr_bound_ps(4), 1_850_000_000);
    }
}
