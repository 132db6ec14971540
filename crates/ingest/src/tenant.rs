//! The tenant universe: who exists, how they behave, and where they live.
//!
//! A million tenants cannot each carry an arrival-process object, a
//! queue allocation, and a metrics collector — the front-end would spend
//! all its memory on idle users. Instead tenants are described
//! *by class*: a handful of [`TenantClass`] templates, each with a
//! population count, laid out as contiguous id blocks. Everything a
//! tenant needs (rate, weight, queue bound, request shape, deadline) is
//! a class lookup; per-tenant state materializes only while the tenant
//! has work queued (see `ofpc_serve::SparseAdmission`).
//!
//! Placement is a pure hash of the tenant id ([`TenantDirectory::home_shard`]),
//! so any component can route a tenant without consulting a map. The
//! exception is the small set of tenants the global rebalancer has
//! migrated off their home shard; those live in an override table that
//! is bounded by the rebalancer's migration budget, not by the
//! population.

use ofpc_engine::Primitive;
use std::collections::BTreeSet;

/// A behavioral template shared by a block of tenants.
#[derive(Debug, Clone)]
pub struct TenantClass {
    pub name: String,
    /// How many tenants instantiate this class.
    pub population: u32,
    /// DRR weight of each member tenant.
    pub weight: u32,
    /// Per-tenant admission queue bound.
    pub queue_capacity: usize,
    /// Mean request rate per tenant, req/s (Poisson).
    pub mean_rate_rps: f64,
    /// Request shape: photonic primitive and operand element count.
    pub primitive: Primitive,
    pub operand_len: u16,
    /// Relative deadline granted to each request, ps.
    pub deadline_ps: u64,
}

/// SplitMix64 finalizer: the tenant-placement hash. Chosen over a plain
/// modulus so consecutive tenant ids (which share a class block) spread
/// across shards instead of striping.
#[inline]
pub(crate) fn place_hash(tenant: u32) -> u64 {
    let mut z = (tenant as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Id-space layout and shard placement for the whole tenant universe.
///
/// Tenant ids are assigned in class order: class `c` owns the half-open
/// block `[class_start[c], class_start[c + 1])`. The directory is O(classes
/// + migrated tenants) in memory regardless of population.
#[derive(Debug, Clone)]
pub struct TenantDirectory {
    /// Prefix sums of class populations; `class_start[classes.len()]`
    /// is the total tenant count.
    class_start: Vec<u32>,
    shards: u32,
    /// Tenants the rebalancer moved off their hash-home shard.
    overrides: BTreeSet<u32>,
}

impl TenantDirectory {
    pub fn new(classes: &[TenantClass], shards: u32) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(!classes.is_empty(), "need at least one tenant class");
        let mut class_start = Vec::with_capacity(classes.len() + 1);
        let mut acc: u32 = 0;
        class_start.push(0);
        for c in classes {
            assert!(c.population > 0, "class {} has no tenants", c.name);
            assert!(c.weight > 0, "class {} has zero DRR weight", c.name);
            assert!(
                c.queue_capacity > 0,
                "class {} has zero queue capacity",
                c.name
            );
            acc = acc
                .checked_add(c.population)
                .expect("tenant population overflows u32");
            class_start.push(acc);
        }
        TenantDirectory {
            class_start,
            shards,
            overrides: BTreeSet::new(),
        }
    }

    pub fn total_tenants(&self) -> u32 {
        *self.class_start.last().expect("non-empty prefix sums")
    }

    /// Which class block a tenant id falls in.
    pub fn class_of(&self, tenant: u32) -> usize {
        debug_assert!(
            tenant < self.total_tenants(),
            "tenant {tenant} out of range"
        );
        // partition_point gives the first start > tenant; the block
        // before it owns the id.
        self.class_start.partition_point(|&s| s <= tenant) - 1
    }

    /// Hash-home shard, ignoring migrations.
    pub fn home_shard(&self, tenant: u32) -> u32 {
        (place_hash(tenant) % u64::from(self.shards)) as u32
    }

    /// Record a migration. Moving a tenant back to its home shard drops
    /// the override, so the table stays bounded by the *displaced* set.
    pub fn migrate(&mut self, tenant: u32, to: u32) {
        assert!(to < self.shards, "migration to unknown shard {to}");
        if to == self.home_shard(tenant) {
            self.overrides.remove(&tenant);
        } else {
            self.overrides.insert(tenant);
        }
    }

    /// Tenants currently living away from their hash home.
    pub fn displaced(&self) -> usize {
        self.overrides.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classes() -> Vec<TenantClass> {
        vec![
            TenantClass {
                name: "heavy".into(),
                population: 3,
                weight: 4,
                queue_capacity: 64,
                mean_rate_rps: 1000.0,
                primitive: Primitive::VectorDotProduct,
                operand_len: 256,
                deadline_ps: 50_000_000,
            },
            TenantClass {
                name: "tail".into(),
                population: 100,
                weight: 1,
                queue_capacity: 8,
                mean_rate_rps: 2.0,
                primitive: Primitive::PatternMatching,
                operand_len: 64,
                deadline_ps: 80_000_000,
            },
        ]
    }

    #[test]
    #[should_panic(expected = "class tail has zero DRR weight")]
    fn zero_weight_class_is_rejected_at_construction() {
        let mut c = classes();
        c[1].weight = 0;
        TenantDirectory::new(&c, 4);
    }

    #[test]
    #[should_panic(expected = "class heavy has zero queue capacity")]
    fn zero_capacity_class_is_rejected_at_construction() {
        let mut c = classes();
        c[0].queue_capacity = 0;
        TenantDirectory::new(&c, 4);
    }

    #[test]
    fn class_blocks_are_contiguous() {
        let d = TenantDirectory::new(&classes(), 4);
        assert_eq!(d.total_tenants(), 103);
        assert_eq!(d.class_of(0), 0);
        assert_eq!(d.class_of(2), 0);
        assert_eq!(d.class_of(3), 1);
        assert_eq!(d.class_of(102), 1);
    }

    #[test]
    fn placement_is_stable_and_spread() {
        let d = TenantDirectory::new(&classes(), 4);
        let mut per_shard = [0usize; 4];
        for t in 0..d.total_tenants() {
            assert_eq!(d.home_shard(t), d.home_shard(t));
            per_shard[d.home_shard(t) as usize] += 1;
        }
        // 103 tenants over 4 shards: the hash should not leave any
        // shard starved or hoarding.
        for &n in &per_shard {
            assert!((10..=50).contains(&n), "skewed placement: {per_shard:?}");
        }
    }

    #[test]
    fn overrides_track_only_displaced_tenants() {
        let mut d = TenantDirectory::new(&classes(), 4);
        let t = 7;
        let home = d.home_shard(t);
        let away = (home + 1) % 4;
        d.migrate(t, away);
        assert_eq!(d.displaced(), 1);
        d.migrate(t, away);
        assert_eq!(d.displaced(), 1, "one override per displaced tenant");
        d.migrate(t, home);
        assert_eq!(d.displaced(), 0, "returning home clears the override");
    }
}
