//! Admission control: bounded per-tenant queues with weighted fair
//! dequeue and explicit load shedding.
//!
//! Every backlogged tenant owns a FIFO of admitted requests with a hard
//! capacity — arrivals beyond it are shed immediately with
//! [`ShedReason::QueueFull`] (backpressure, never silent loss). The
//! batcher drains tenants through deficit round robin (DRR) weighted by
//! the tenant's share, the classic O(1) approximation of weighted fair
//! queueing: under overload each tenant's goodput converges to
//! `weight_i / Σ weight` of capacity, while an idle tenant's unused
//! share flows to the others.
//!
//! One controller, [`SparseAdmission`], serves both the serving runtime
//! (a handful of configured tenants) and the million-tenant ingest
//! shards: it holds state only for backlogged tenants, so its memory is
//! bounded by the backlog in either setting. Its cost per wake-up is
//! bounded by the work the wake-up does plus `log` of the backlog: the
//! expiry sweep runs only once a queue head can have expired, and a
//! drain walks the backlogged tenants from its cursor one `BTreeMap`
//! step at a time instead of listing them all.

use crate::request::{ComputeRequest, ShedReason, TenantId};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound;

/// DRR quantum granted per weight unit each round (scaled credits; 1000
/// credits = one request).
const CREDITS_PER_WEIGHT: u64 = 1000;

/// One DRR visit to a backlogged tenant: grant this round's credit,
/// then pop requests while credit and budget last, shedding the ones
/// already past deadline. Returns `true` when anything was popped.
fn drr_visit(
    queue: &mut VecDeque<ComputeRequest>,
    deficit: &mut u64,
    weight: u32,
    max_out: usize,
    now_ps: u64,
    out: &mut Vec<ComputeRequest>,
    shed: &mut Vec<(ComputeRequest, ShedReason)>,
) -> bool {
    *deficit += u64::from(weight) * CREDITS_PER_WEIGHT;
    let mut progressed = false;
    while *deficit >= CREDITS_PER_WEIGHT && !queue.is_empty() && out.len() < max_out {
        let req = queue.pop_front().expect("non-empty");
        *deficit -= CREDITS_PER_WEIGHT;
        if req.expired(now_ps) {
            shed.push((req, ShedReason::DeadlineExpiredQueued));
        } else {
            out.push(req);
        }
        progressed = true;
    }
    progressed
}

/// Admission-time shape of one tenant: queue bound and fair-share
/// weight. Admission takes the shape *per offer* (derived from the
/// tenant's spec or class) instead of storing it per tenant, so an idle
/// tenant costs zero bytes.
#[derive(Debug, Clone, Copy)]
pub struct TenantShape {
    pub capacity: usize,
    pub weight: u32,
}

/// Per-tenant state while (and only while) the tenant is backlogged.
#[derive(Debug)]
struct SparseQueue {
    queue: VecDeque<ComputeRequest>,
    deficit: u64,
    shape: TenantShape,
}

/// The admission controller: per-tenant state exists only while the
/// tenant is backlogged.
///
/// A tenant's queue entry is created on its first queued request and
/// evicted the moment its queue drains, so memory is bounded by the
/// instantaneous backlog (plus one drained queue's buffer, kept for
/// reuse), never by the tenant universe. Eviction also drops the DRR
/// deficit: an idle tenant banks no credit, and dropping it at eviction
/// is what makes the eviction lossless.
///
/// The round-robin cursor is a tenant *id* rather than a vector index,
/// so it survives eviction and migration. Tenants can be removed
/// wholesale ([`SparseAdmission::remove_tenant`]) and adopted with their
/// queued work ([`SparseAdmission::adopt`]) — the message-passing shard
/// rebalance moves tenant state through exactly that pair.
#[derive(Debug, Default)]
pub struct SparseAdmission {
    active: BTreeMap<TenantId, SparseQueue>,
    /// Drains resume strictly after this tenant id.
    cursor: Option<TenantId>,
    shed: Vec<(ComputeRequest, ShedReason)>,
    queued: usize,
    /// The last drained queue, emptied, kept so the next tenant to
    /// become backlogged reuses its buffer instead of allocating.
    spare: VecDeque<ComputeRequest>,
    /// A lower bound on every queue head's deadline: no head has
    /// expired while `now_ps <= head_floor`. Whatever exposes a new head
    /// lowers it; the expiry sweep recomputes it exactly.
    head_floor: u64,
}

impl SparseAdmission {
    pub(crate) fn new() -> Self {
        SparseAdmission::default()
    }

    /// Admit or shed an arriving request under `shape`. Returns `true`
    /// when admitted. The shape travels with the offer (it is a function
    /// of the tenant's class); a backlogged tenant's shape follows the
    /// latest offer.
    pub fn offer(&mut self, req: ComputeRequest, shape: TenantShape) -> bool {
        assert!(shape.capacity > 0, "tenant queue capacity must be positive");
        assert!(shape.weight > 0, "tenant weight must be positive");
        let t = self
            .active
            .entry(req.tenant)
            .or_insert_with(|| SparseQueue {
                queue: std::mem::take(&mut self.spare),
                deficit: 0,
                shape,
            });
        t.shape = shape;
        if t.queue.len() >= shape.capacity {
            self.shed.push((req, ShedReason::QueueFull));
            false
        } else {
            if t.queue.is_empty() {
                self.head_floor = self.head_floor.min(req.deadline_ps);
            }
            t.queue.push_back(req);
            self.queued += 1;
            true
        }
    }

    /// Total queued requests across all backlogged tenants.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Tenants currently holding state — the memory bound.
    pub fn active_tenants(&self) -> usize {
        self.active.len()
    }

    /// Drop queued requests whose deadline has passed, shedding them
    /// explicitly, and evict tenants drained empty by the sweep. Returns
    /// at once, touching no queue, while no head can have expired.
    pub(crate) fn expire_stale(&mut self, now_ps: u64) -> usize {
        if now_ps <= self.head_floor {
            return 0;
        }
        let mut n = 0;
        let mut floor = u64::MAX;
        let mut emptied = false;
        for t in self.active.values_mut() {
            while let Some(front) = t.queue.front() {
                if front.expired(now_ps) {
                    let req = t.queue.pop_front().expect("front exists");
                    self.shed.push((req, ShedReason::DeadlineExpiredQueued));
                    self.queued -= 1;
                    n += 1;
                } else {
                    floor = floor.min(front.deadline_ps);
                    break;
                }
            }
            emptied |= t.queue.is_empty();
        }
        if emptied {
            self.active.retain(|_, t| !t.queue.is_empty());
        }
        self.head_floor = floor;
        n
    }

    /// Weighted-fair drain of up to `max` requests (deficit round
    /// robin over the backlogged tenants, resuming after the cursor).
    ///
    /// A round visits the ids after the cursor, then wraps to the ids up
    /// to and including it, stepping through the map from the last
    /// tenant visited. That is the round's snapshot order without the
    /// snapshot: a drain adds no tenant and evicts only the one it just
    /// visited.
    pub(crate) fn drain_fair(&mut self, max: usize, now_ps: u64) -> Vec<ComputeRequest> {
        let mut out = Vec::new();
        if max == 0 || self.queued == 0 {
            return out;
        }
        let round_end = self.cursor.map_or(Bound::Unbounded, Bound::Included);
        while out.len() < max && self.queued > 0 {
            let mut from = self.cursor.map_or(Bound::Unbounded, Bound::Excluded);
            let mut wrapped = self.cursor.is_none();
            let mut progressed = false;
            loop {
                let upto = if wrapped { round_end } else { Bound::Unbounded };
                let Some((&tenant, t)) = self.active.range_mut((from, upto)).next() else {
                    if wrapped {
                        break;
                    }
                    wrapped = true;
                    from = Bound::Unbounded;
                    continue;
                };
                from = Bound::Excluded(tenant);
                let before = out.len() + self.shed.len();
                progressed |= drr_visit(
                    &mut t.queue,
                    &mut t.deficit,
                    t.shape.weight,
                    max,
                    now_ps,
                    &mut out,
                    &mut self.shed,
                );
                self.queued -= out.len() + self.shed.len() - before;
                match t.queue.front() {
                    Some(head) => self.head_floor = self.head_floor.min(head.deadline_ps),
                    // Idle tenants bank no credit; drop the state.
                    None => self.spare = self.active.remove(&tenant).expect("visited").queue,
                }
                if out.len() >= max {
                    self.cursor = Some(tenant);
                    return out;
                }
            }
            if !progressed {
                break;
            }
        }
        out
    }

    /// Take the accumulated shed records.
    pub fn take_shed(&mut self) -> Vec<(ComputeRequest, ShedReason)> {
        std::mem::take(&mut self.shed)
    }

    /// Remove a tenant and return its queued requests in FIFO order
    /// (the outbound half of a migration; the deficit is dropped, as at
    /// any other eviction).
    pub fn remove_tenant(&mut self, tenant: TenantId) -> Vec<ComputeRequest> {
        match self.active.remove(&tenant) {
            Some(t) => {
                self.queued -= t.queue.len();
                t.queue.into()
            }
            None => Vec::new(),
        }
    }

    /// Adopt a migrated tenant's queued requests, preserving their
    /// order and re-applying the queue bound (overflow sheds here, on
    /// the receiving shard, so conservation holds across the move).
    pub fn adopt(&mut self, requests: Vec<ComputeRequest>, shape: TenantShape) {
        for req in requests {
            self.offer(req, shape);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestId;
    use ofpc_engine::Primitive;
    use ofpc_photonics::SimRng;

    fn req(id: u64, tenant: u32, deadline: u64) -> ComputeRequest {
        ComputeRequest {
            id: RequestId(id),
            tenant: TenantId(tenant),
            primitive: Primitive::VectorDotProduct,
            operand_len: 8,
            arrival_ps: 0,
            deadline_ps: deadline,
        }
    }

    fn shape(capacity: usize, weight: u32) -> TenantShape {
        TenantShape { capacity, weight }
    }

    #[test]
    fn sparse_state_is_bounded_by_backlog_not_population() {
        let mut ac = SparseAdmission::new();
        // A million-tenant universe where only three tenants ever queue.
        for (i, t) in [7u32, 500_000, 999_999].iter().enumerate() {
            ac.offer(req(i as u64, *t, u64::MAX), shape(8, 1));
        }
        assert_eq!(ac.active_tenants(), 3);
        assert_eq!(ac.queued(), 3);
        let drained = ac.drain_fair(10, 0);
        assert_eq!(drained.len(), 3);
        // Drained dry → evicted: zero retained state.
        assert_eq!(ac.active_tenants(), 0);
        assert_eq!(ac.queued(), 0);
    }

    #[test]
    fn sparse_drain_respects_weights_under_backlog() {
        let mut ac = SparseAdmission::new();
        for i in 0..100 {
            ac.offer(req(i, 11, u64::MAX), shape(100, 3));
            ac.offer(req(100 + i, 903_214, u64::MAX), shape(100, 1));
        }
        let drained = ac.drain_fair(40, 0);
        assert_eq!(drained.len(), 40);
        let t0 = drained.iter().filter(|r| r.tenant == TenantId(11)).count();
        assert!((28..=32).contains(&t0), "t0 got {t0}");

        // An idle tenant's share flows to the busy one: with only the
        // weight-1 tenant backlogged, it takes the whole drain.
        let mut ac = SparseAdmission::new();
        for i in 0..50 {
            ac.offer(req(i, 903_214, u64::MAX), shape(100, 1));
        }
        let drained = ac.drain_fair(30, 0);
        assert_eq!(drained.len(), 30);
        assert!(drained.iter().all(|r| r.tenant == TenantId(903_214)));
    }

    #[test]
    fn sparse_full_queue_sheds_and_expiry_evicts() {
        let mut ac = SparseAdmission::new();
        assert!(ac.offer(req(1, 0, 100), shape(1, 1)));
        assert!(!ac.offer(req(2, 0, 100), shape(1, 1)));
        let shed = ac.take_shed();
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].0.id, RequestId(2));
        assert_eq!(shed[0].1, ShedReason::QueueFull);
        // The sweep reaches every queue's expired head: tenant 0's
        // only request and tenant 1's first, not tenant 1's live tail.
        ac.offer(req(3, 1, 50), shape(4, 1));
        ac.offer(req(4, 1, 500), shape(4, 1));
        assert_eq!(ac.expire_stale(200), 2);
        assert_eq!(ac.active_tenants(), 1, "expired tenant evicted");
        assert_eq!(ac.queued(), 1);
        let shed = ac.take_shed();
        assert_eq!(shed.len(), 2);
        assert!(shed
            .iter()
            .all(|(_, reason)| *reason == ShedReason::DeadlineExpiredQueued));
        // A drain sheds an expired request instead of returning it.
        ac.offer(req(5, 2, 300), shape(4, 1));
        let drained = ac.drain_fair(10, 400);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].id, RequestId(4));
        let shed = ac.take_shed();
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].0.id, RequestId(5));
        assert_eq!(shed[0].1, ShedReason::DeadlineExpiredQueued);
    }

    #[test]
    fn sparse_migration_conserves_requests() {
        let mut src = SparseAdmission::new();
        let mut dst = SparseAdmission::new();
        for i in 0..6 {
            src.offer(req(i, 42, u64::MAX), shape(8, 2));
        }
        let moved = src.remove_tenant(TenantId(42));
        assert_eq!(moved.len(), 6);
        assert_eq!(src.queued(), 0);
        // Destination re-applies a tighter bound: overflow sheds there.
        dst.adopt(moved, shape(4, 2));
        assert_eq!(dst.queued(), 4);
        assert_eq!(dst.take_shed().len(), 2);
        let drained = dst.drain_fair(10, 0);
        assert_eq!(drained[0].id, RequestId(0), "FIFO order preserved");
    }

    #[test]
    fn conservation_nothing_lost() {
        let mut ac = SparseAdmission::new();
        let mut offered = 0;
        for i in 0..20 {
            let tenant = (i % 2) as u32;
            ac.offer(
                req(i, tenant, if i % 3 == 0 { 1 } else { u64::MAX }),
                shape(5, 2 - tenant),
            );
            offered += 1;
        }
        let drained = ac.drain_fair(6, 10).len();
        let shed = ac.take_shed().len();
        let queued = ac.queued();
        assert!(queued > 0, "a partial drain leaves work queued");
        assert_eq!(drained + shed + queued, offered);
    }

    /// The `expire_stale` the head floor replaced, kept verbatim as the
    /// differential oracle: sweep every queue head at every call.
    fn reference_expire_stale(ac: &mut SparseAdmission, now_ps: u64) -> usize {
        let mut n = 0;
        for t in ac.active.values_mut() {
            while let Some(front) = t.queue.front() {
                if front.expired(now_ps) {
                    let req = t.queue.pop_front().expect("front exists");
                    ac.shed.push((req, ShedReason::DeadlineExpiredQueued));
                    ac.queued -= 1;
                    n += 1;
                } else {
                    break;
                }
            }
        }
        ac.active.retain(|_, t| !t.queue.is_empty());
        n
    }

    /// The `drain_fair` the cursor walk replaced, kept verbatim as the
    /// differential oracle: snapshot every backlogged id each round.
    fn reference_drain_fair(
        ac: &mut SparseAdmission,
        max: usize,
        now_ps: u64,
    ) -> Vec<ComputeRequest> {
        let mut out = Vec::new();
        if max == 0 || ac.queued == 0 {
            return out;
        }
        let mut order = Vec::new();
        'rounds: while out.len() < max && ac.queued > 0 {
            // Cyclic visit order: ids after the cursor, then wrap.
            match ac.cursor {
                Some(c) => {
                    let after = (Bound::Excluded(c), Bound::Unbounded);
                    let upto = (Bound::Unbounded, Bound::Included(c));
                    order.extend(ac.active.range(after).map(|(&t, _)| t));
                    order.extend(ac.active.range(upto).map(|(&t, _)| t));
                }
                None => order.extend(ac.active.keys().copied()),
            }
            let mut progressed = false;
            for tenant in order.drain(..) {
                let Some(t) = ac.active.get_mut(&tenant) else {
                    continue;
                };
                let before = out.len() + ac.shed.len();
                progressed |= drr_visit(
                    &mut t.queue,
                    &mut t.deficit,
                    t.shape.weight,
                    max,
                    now_ps,
                    &mut out,
                    &mut ac.shed,
                );
                ac.queued -= out.len() + ac.shed.len() - before;
                if t.queue.is_empty() {
                    // Idle tenants bank no credit; drop the state.
                    ac.spare = ac.active.remove(&tenant).expect("visited").queue;
                }
                if out.len() >= max {
                    ac.cursor = Some(tenant);
                    break 'rounds;
                }
            }
            if !progressed {
                break;
            }
        }
        out
    }

    fn ids(reqs: &[ComputeRequest]) -> Vec<u64> {
        reqs.iter().map(|r| r.id.0).collect()
    }

    #[test]
    fn head_floor_and_cursor_walk_match_the_full_sweep_and_snapshot() {
        // Seeded streams over a few hundred sparse tenant ids with mixed
        // capacities and weights. Deadlines go non-monotone within a
        // tenant (a retry re-offers a request under its old deadline),
        // tenants migrate out and back in under another shape, drains
        // range from nothing through a few requests to the whole
        // backlog, and `now` jumps past deadlines.
        for case in 0..40u64 {
            let mut rng = SimRng::seed_from_u64(0xD1FF ^ case);
            let population = 50 + rng.below(400);
            let ids_pool: Vec<u32> = (0..population)
                .map(|_| rng.below(1_000_000) as u32)
                .collect();
            let shape_of = |t: u32| TenantShape {
                capacity: 1 + (t as usize * 7) % 12,
                weight: 1 + t % 5,
            };
            let mut new = SparseAdmission::new();
            let mut old = SparseAdmission::new();
            let mut now = 0u64;
            let mut next_id = 0u64;
            let mut moved: Vec<(Vec<ComputeRequest>, TenantShape)> = Vec::new();
            for step in 0..3_000 {
                match rng.below(20) {
                    // A burst of arrivals, half of them on a few hot
                    // tenants so their queues run deep.
                    0..=9 => {
                        for _ in 0..1 + rng.below(32) {
                            let tenant = if rng.chance(0.5) {
                                ids_pool[rng.below(8)]
                            } else {
                                ids_pool[rng.below(ids_pool.len())]
                            };
                            let deadline = match rng.below(6) {
                                0 => u64::MAX,
                                1 => now.saturating_sub(rng.below(2_000) as u64),
                                _ => now + rng.below(5_000) as u64,
                            };
                            let r = req(next_id, tenant, deadline);
                            next_id += 1;
                            let shape = shape_of(tenant);
                            assert_eq!(new.offer(r.clone(), shape), old.offer(r, shape));
                        }
                    }
                    10..=12 => {
                        assert_eq!(new.expire_stale(now), reference_expire_stale(&mut old, now));
                    }
                    13..=16 => {
                        let max = match rng.below(4) {
                            0 => 0,
                            1 => old.queued(),
                            2 => old.queued() + 1 + rng.below(5),
                            _ => 1 + rng.below(12),
                        };
                        assert_eq!(
                            ids(&new.drain_fair(max, now)),
                            ids(&reference_drain_fair(&mut old, max, now)),
                            "case {case} step {step}: drain of {max} at {now}"
                        );
                    }
                    17 => {
                        let tenant = TenantId(ids_pool[rng.below(ids_pool.len())]);
                        let out = new.remove_tenant(tenant);
                        assert_eq!(ids(&out), ids(&old.remove_tenant(tenant)));
                        if !out.is_empty() {
                            let tighter = TenantShape {
                                capacity: 1 + rng.below(out.len()),
                                weight: 1 + rng.below(6) as u32,
                            };
                            moved.push((out, tighter));
                        }
                    }
                    18 if !moved.is_empty() => {
                        let (reqs, shape) = moved.swap_remove(rng.below(moved.len()));
                        new.adopt(reqs.clone(), shape);
                        old.adopt(reqs, shape);
                    }
                    _ => now += rng.below(3_000) as u64,
                }
                let (a, b) = (new.take_shed(), old.take_shed());
                assert_eq!(
                    a.iter().map(|(r, why)| (r.id, *why)).collect::<Vec<_>>(),
                    b.iter().map(|(r, why)| (r.id, *why)).collect::<Vec<_>>(),
                    "case {case} step {step}: shed records"
                );
                assert_eq!(new.queued(), old.queued(), "case {case} step {step}");
                assert_eq!(new.active_tenants(), old.active_tenants());
            }
        }
    }
}
