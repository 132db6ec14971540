//! The global rebalancer: the one sequential moment between epochs.
//!
//! Shards run their epochs embarrassingly parallel; here the driver —
//! single-threaded, after an ordered gather — looks across all of them
//! and corrects skew two ways:
//!
//! 1. **Tenant migration**: the hottest tenants of the most-loaded shard
//!    (by this epoch's arrivals) move to the least-loaded shard. Their
//!    queued requests travel with them (`SparseAdmission::remove_tenant`
//!    → `adopt`), so no work is lost; requests already dispatched stay
//!    and complete on the old shard.
//! 2. **Slot re-split**: every physical site's transponder slots are
//!    re-divided between the shard-local schedulers in proportion to
//!    epoch load (largest-remainder, ties by shard id), applied through
//!    `Scheduler::resize_site` so in-flight batches are never torn.
//!
//! Everything here is a deterministic function of gathered shard state,
//! which is why running shards on 1, 2, or 8 workers cannot change the
//! outcome.

use crate::shard::ShardState;
use ofpc_serve::SiteSpec;

/// Rebalance policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct RebalanceConfig {
    /// Rebalance after every Nth epoch (0 disables rebalancing).
    pub every_epochs: u32,
    /// Max tenants migrated per rebalance.
    pub max_migrations: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            every_epochs: 1,
            max_migrations: 8,
        }
    }
}

/// What one rebalance pass did (accumulated into the report).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RebalanceOutcome {
    pub(crate) migrations: u64,
    /// Total |Δslots| across shards and sites.
    pub(crate) slot_moves: u64,
}

/// Largest-remainder apportionment of `slots` across `loads` (ties by
/// index). Guarantees the shares sum exactly to `slots`.
pub(crate) fn apportion(slots: usize, loads: &[u64]) -> Vec<usize> {
    let total: u64 = loads.iter().sum();
    if total == 0 || loads.is_empty() {
        // No signal: spread evenly, remainder to the low indices.
        let n = loads.len().max(1);
        return (0..loads.len())
            .map(|i| slots / n + usize::from(i < slots % n))
            .collect();
    }
    let mut base = Vec::with_capacity(loads.len());
    let mut rems: Vec<(u64, usize)> = Vec::with_capacity(loads.len());
    let mut used = 0usize;
    for (i, &l) in loads.iter().enumerate() {
        let num = l as u128 * slots as u128;
        let q = (num / total as u128) as usize;
        let r = (num % total as u128) as u64;
        base.push(q);
        used += q;
        rems.push((r, i));
    }
    // Largest remainder first; ties broken by shard id for determinism.
    rems.sort_by_key(|&(r, i)| (std::cmp::Reverse(r), i));
    for &(_, i) in rems.iter().take(slots - used) {
        base[i] += 1;
    }
    base
}

/// One full rebalance pass over gathered shard state.
pub(crate) fn rebalance(
    shards: &mut [ShardState],
    sites: &[SiteSpec],
    config: RebalanceConfig,
    mut on_migrate: impl FnMut(u32, u32),
) -> RebalanceOutcome {
    let mut outcome = RebalanceOutcome::default();
    if shards.len() < 2 {
        return outcome;
    }
    let loads: Vec<u64> = shards.iter().map(|s| s.epoch_arrivals + 1).collect();

    // -- tenant migration: hottest of the busiest → the least loaded --
    let src = (0..shards.len())
        .max_by_key(|&i| (loads[i], std::cmp::Reverse(i)))
        .expect("non-empty");
    let dst = (0..shards.len())
        .min_by_key(|&i| (loads[i], i))
        .expect("non-empty");
    if src != dst && loads[src] > loads[dst] {
        let hot = shards[src].hottest_this_epoch(config.max_migrations);
        for (tenant, _heat) in hot {
            let queued = shards[src].evict_tenant(tenant);
            shards[dst].adopt_tenant(tenant, queued);
            on_migrate(tenant, dst as u32);
            outcome.migrations += 1;
        }
    }

    // -- slot re-split, per physical site, proportional to load --
    let grants = split_slots(sites, &loads);
    for (site_idx, site) in sites.iter().enumerate() {
        for (shard_idx, shard) in shards.iter_mut().enumerate() {
            let before = shard.slots_at();
            shard.set_site_slots(site.node, grants[site_idx][shard_idx]);
            outcome.slot_moves += before.abs_diff(shard.slots_at()) as u64;
        }
    }
    outcome
}

/// Apportion every site's slots across shards in proportion to load,
/// then guarantee each shard ends with ≥1 slot *somewhere*: a shard
/// with tenants but no slots anywhere would strand its queues until the
/// next rebalance. Requires Σ site slots ≥ shard count.
pub(crate) fn split_slots(sites: &[SiteSpec], loads: &[u64]) -> Vec<Vec<usize>> {
    let shards = loads.len();
    let total_slots: usize = sites.iter().map(|s| s.slots).sum();
    assert!(
        total_slots >= shards,
        "need at least one transponder slot per shard ({total_slots} slots, {shards} shards)"
    );
    let mut grants: Vec<Vec<usize>> = sites.iter().map(|s| apportion(s.slots, loads)).collect();
    loop {
        let totals: Vec<usize> = (0..shards)
            .map(|i| grants.iter().map(|g| g[i]).sum())
            .collect();
        let Some(poor) = (0..shards).find(|&i| totals[i] == 0) else {
            break;
        };
        // Donate from the richest shard (ties: lowest id), at the site
        // where it holds the most (ties: lowest site index).
        let rich = (0..shards)
            .max_by_key(|&i| (totals[i], std::cmp::Reverse(i)))
            .expect("non-empty");
        let site = (0..grants.len())
            .max_by_key(|&s| (grants[s][rich], std::cmp::Reverse(s)))
            .expect("non-empty");
        grants[site][rich] -= 1;
        grants[site][poor] += 1;
    }
    grants
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apportionment_conserves_and_follows_load() {
        let grant = apportion(10, &[700, 200, 100]);
        assert_eq!(grant.iter().sum::<usize>(), 10);
        assert_eq!(grant, vec![7, 2, 1]);

        let grant = apportion(4, &[1, 1, 1]);
        assert_eq!(grant.iter().sum::<usize>(), 4);
        // Remainder goes to the lowest ids, deterministically.
        assert_eq!(grant, vec![2, 1, 1]);

        let grant = apportion(5, &[0, 0]);
        assert_eq!(grant, vec![3, 2]);
    }

    #[test]
    fn extreme_skew_still_sums() {
        let grant = apportion(3, &[1_000_000, 1, 1, 1]);
        assert_eq!(grant.iter().sum::<usize>(), 3);
        assert!(grant[0] >= 2);
    }

    #[test]
    fn split_slots_never_leaves_a_shard_slotless() {
        use ofpc_net::NodeId;
        // 8 shards over 5+3 slots: naive per-site apportionment under
        // heavy skew would starve the cold shards entirely.
        let sites = vec![
            SiteSpec {
                node: NodeId(1),
                slots: 5,
                access_ps: 25_000,
            },
            SiteSpec {
                node: NodeId(2),
                slots: 3,
                access_ps: 100_000,
            },
        ];
        let loads = [1_000_000, 1, 1, 1, 1, 1, 1, 1];
        let grants = split_slots(&sites, &loads);
        let mut site_totals = vec![0usize; sites.len()];
        for shard in 0..loads.len() {
            let total: usize = grants.iter().map(|g| g[shard]).sum();
            assert!(total >= 1, "shard {shard} left slotless: {grants:?}");
            for (s, g) in grants.iter().enumerate() {
                site_totals[s] += g[shard];
            }
        }
        for (s, site) in sites.iter().enumerate() {
            assert_eq!(site_totals[s], site.slots, "site inventory not conserved");
        }
        // The hot shard still holds the largest share.
        let hot: usize = grants.iter().map(|g| g[0]).sum();
        assert!(hot >= 1 && hot <= sites.iter().map(|s| s.slots).sum::<usize>() - 7);
    }
}
