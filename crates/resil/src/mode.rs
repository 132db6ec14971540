//! Redundancy policy and the tag that rides on every redundant batch.
//!
//! A tenant picks one [`RedundancyMode`] at admission:
//!
//! * `Unprotected` — today's behaviour; a fiber cut mid-flight costs
//!   the batch (degraded digital fallback or shed).
//! * `Replica` — the whole batch is dispatched twice, on link-disjoint
//!   paths. First valid result wins; the duplicate is cancelled.
//!   Deterministic, simple, ≈2× energy.
//! * `XorParity { data_groups }` — the batch is split into
//!   `data_groups` WDM sub-batches plus one XOR-parity group, each on
//!   its own path. Any single lost group is reconstructed digitally
//!   from the surviving k groups, for ≈(k+1)/k energy.
//!
//! Redundant batches carry a [`ResilTag`] naming their redundancy set,
//! member index, and pinned entry path, so the scheduler can place them
//! disjointly and the [`crate::ledger::WorkLedger`] can arbitrate
//! completions deterministically.

use ofpc_net::NodeId;

/// Per-tenant redundancy policy.
#[derive(Debug, Clone, Copy)]
pub enum RedundancyMode {
    /// No redundancy: the existing reactive fault path applies.
    Unprotected,
    /// Full duplication across two link-disjoint paths.
    Replica,
    /// XOR-parity erasure coding: `data_groups` data sub-batches plus
    /// one parity group, each on its own path.
    XorParity {
        /// Number of data groups k (parity adds one more member).
        data_groups: u8,
    },
}

impl RedundancyMode {
    /// Stable small integer for keying batches by mode (batcher must
    /// never mix requests of different modes in one batch).
    pub fn rank(&self) -> u16 {
        match self {
            RedundancyMode::Unprotected => 0,
            RedundancyMode::Replica => 1,
            RedundancyMode::XorParity { data_groups } => 2 + u16::from(*data_groups),
        }
    }

    /// True when this mode spawns redundancy sets.
    pub fn is_protected(&self) -> bool {
        !matches!(self, RedundancyMode::Unprotected)
    }
}

/// Tag carried by each member batch of a redundancy set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilTag {
    /// Redundancy set id (unique per run, allocation order).
    pub set: u64,
    /// Member index within the set (replica: 0/1; parity: data groups
    /// 0..k-1, parity group = k).
    pub member: u8,
    /// Compute site this member is pinned to (disjoint-path entry).
    pub pin: NodeId,
    /// Work the member prices but does not carry as requests — the
    /// parity group's synthetic request count (0 for data/replica
    /// members). Keeps transponder energy/latency pricing honest for
    /// batches whose payload is coded, not raw.
    pub phantom: u32,
    /// Deadline inherited from the set's tightest request, ps.
    pub deadline_ps: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_separate_modes_for_batching() {
        let modes: Vec<RedundancyMode> = [RedundancyMode::Unprotected, RedundancyMode::Replica]
            .into_iter()
            .chain((0..=u8::MAX).map(|data_groups| RedundancyMode::XorParity { data_groups }))
            .collect();
        let ranks: std::collections::BTreeSet<_> = modes.iter().map(|m| m.rank()).collect();
        assert_eq!(
            ranks.len(),
            modes.len(),
            "distinct modes key distinct batches"
        );
    }
}
