//! Dynamic batching: coalesce compatible requests into WDM wavelength
//! batches, inference-server style.
//!
//! One photonic pass configures the substrate once (weights/pattern,
//! engine settling) and then streams operand vectors over parallel WDM
//! channels, so requests that share a [`BatchClass`] amortize the fixed
//! per-pass overhead. The batcher holds an open batch per class and
//! closes it when it reaches `max_batch` (the wavelength-parallel width)
//! or when its oldest member has waited `max_wait_ps` — the same
//! size-or-timeout rule digital inference servers use.
//!
//! [`Batcher::fill`] is the one drain-and-batch rule both event loops
//! run at every wake-up: the serving runtime and each ingest shard call
//! it with their own admission controller, scheduler and closed-batch
//! buffer, then enqueue and dispatch what it closes.

use crate::admission::SparseAdmission;
use crate::request::{BatchClass, ComputeRequest};
use crate::scheduler::Scheduler;
use ofpc_resil::ResilTag;
use std::collections::BTreeMap;

/// Batch closing policy.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Maximum requests per batch (≥ 1). Bounded by the WDM channel
    /// count the scheduler can light at once.
    pub max_batch: usize,
    /// Maximum time the oldest member may wait before the batch is
    /// forced closed, ps.
    pub max_wait_ps: u64,
}

impl BatchPolicy {
    /// Batching disabled: every request becomes its own batch.
    pub fn disabled() -> Self {
        BatchPolicy {
            max_batch: 1,
            max_wait_ps: 0,
        }
    }
}

/// A closed batch, ready for the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    pub(crate) class: BatchClass,
    pub requests: Vec<ComputeRequest>,
    /// When the batch was closed, ps.
    pub(crate) closed_ps: u64,
    /// Redundancy-set membership, when this batch is one member of a
    /// replica/parity set (`None` for ordinary unprotected batches).
    pub(crate) resil: Option<ResilTag>,
}

impl Batch {
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Earliest member deadline — what EDF scheduling sorts by. A
    /// requestless parity member inherits its set's deadline through
    /// the tag, so the coded group is not starved behind real batches.
    pub(crate) fn deadline_ps(&self) -> u64 {
        self.requests
            .iter()
            .map(|r| r.deadline_ps)
            .min()
            .or_else(|| self.resil.map(|t| t.deadline_ps))
            .unwrap_or(u64::MAX)
    }
}

/// An open (still accumulating) batch.
#[derive(Debug)]
struct OpenBatch {
    requests: Vec<ComputeRequest>,
    /// When the first member was added, ps.
    opened_ps: u64,
}

/// The dynamic batcher across all compatibility classes.
///
/// Open batches are keyed by `(redundancy mode rank, class)`: requests
/// of protected and unprotected tenants never share a batch, because a
/// redundancy set must cover every member of its batch (one tenant's
/// replica cannot silently replicate another tenant's work).
#[derive(Debug)]
pub struct Batcher {
    policy: BatchPolicy,
    /// BTreeMap for deterministic iteration order across runs.
    open: BTreeMap<(u16, BatchClass), OpenBatch>,
    closed: Vec<Batch>,
    /// The requests one `fill` drains, kept to reuse its buffer.
    drained: Vec<ComputeRequest>,
}

impl Batcher {
    pub fn new(policy: BatchPolicy) -> Self {
        assert!(policy.max_batch >= 1, "max_batch must be at least 1");
        Batcher {
            policy,
            open: BTreeMap::new(),
            closed: Vec::new(),
            drained: Vec::new(),
        }
    }

    /// Add a request under its tenant's redundancy-mode rank (see
    /// `ofpc_resil::RedundancyMode::rank`): batches stay pure per mode
    /// so the redundancy layer can expand whole batches into sets.
    pub(crate) fn push_with_mode(&mut self, req: ComputeRequest, mode_rank: u16, now_ps: u64) {
        let class = req.batch_class();
        let key = (mode_rank, class);
        let entry = self.open.entry(key).or_insert_with(|| OpenBatch {
            requests: Vec::with_capacity(self.policy.max_batch),
            opened_ps: now_ps,
        });
        entry.requests.push(req);
        if entry.requests.len() >= self.policy.max_batch {
            let done = self.open.remove(&key).expect("just inserted");
            self.closed.push(Batch {
                class,
                requests: done.requests,
                closed_ps: now_ps,
                resil: None,
            });
        }
    }

    /// Close any open batch whose oldest member has waited out the
    /// policy timeout.
    pub(crate) fn flush_timeouts(&mut self, now_ps: u64) {
        let max_wait_ps = self.policy.max_wait_ps;
        let closed = &mut self.closed;
        self.open.retain(|&(_, class), b| {
            let due = now_ps.saturating_sub(b.opened_ps) >= max_wait_ps;
            if due {
                closed.push(Batch {
                    class,
                    requests: std::mem::take(&mut b.requests),
                    closed_ps: now_ps,
                    resil: None,
                });
            }
            !due
        });
    }

    /// Force-close everything (the fallback divert, or the scheduler
    /// idle with free capacity — holding requests while transponders sit
    /// idle only adds latency).
    pub(crate) fn flush_all(&mut self, now_ps: u64) {
        while let Some(((_, class), b)) = self.open.pop_first() {
            self.closed.push(Batch {
                class,
                requests: b.requests,
                closed_ps: now_ps,
                resil: None,
            });
        }
    }

    /// The next deadline at which `flush_timeouts` would act, if any.
    pub fn next_timeout_ps(&self) -> Option<u64> {
        self.open
            .values()
            .map(|b| b.opened_ps + self.policy.max_wait_ps)
            .min()
    }

    /// Pending open-batch requests (not yet closed).
    pub fn open_len(&self) -> usize {
        self.open.values().map(|b| b.requests.len()).sum()
    }

    /// Move all closed batches, in close order, to the end of `out`.
    pub(crate) fn take_closed(&mut self, out: &mut Vec<Batch>) {
        out.append(&mut self.closed);
    }

    /// One wake-up of the drain-and-batch rule; appends the batches it
    /// closed, in close order, to `out`.
    ///
    /// Stale queue heads are shed first. The drain budget is what the
    /// idle slots can take in full batches (`idle × max_batch`), less
    /// the requests already waiting in queued redundancy-set members,
    /// and never more than `max_drain`; the budget is drained by DRR and
    /// each request batched under its redundancy-mode rank
    /// (`rank` runs once per drained request, in drain order). Timed-out
    /// batches close next, and when admission is empty, nothing waits
    /// for a slot and a slot is idle, every partial batch closes too:
    /// holding requests while transponders sit idle only adds latency.
    pub fn fill(
        &mut self,
        admission: &mut SparseAdmission,
        scheduler: &Scheduler,
        now_ps: u64,
        max_drain: usize,
        mut rank: impl FnMut(&ComputeRequest) -> u16,
        out: &mut Vec<Batch>,
    ) {
        admission.expire_stale(now_ps);
        let idle = scheduler.idle_slots(now_ps);
        let budget = (idle * self.policy.max_batch)
            .saturating_sub(scheduler.set_backlog_requests())
            .min(max_drain);
        let mut drained = std::mem::take(&mut self.drained);
        admission.drain_fair(budget, now_ps, &mut drained);
        for req in drained.drain(..) {
            let mode_rank = rank(&req);
            self.push_with_mode(req, mode_rank, now_ps);
        }
        self.drained = drained;
        self.flush_timeouts(now_ps);
        if admission.queued() == 0 && scheduler.backlog_requests() == 0 && idle > 0 {
            self.flush_all(now_ps);
        }
        self.take_closed(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{RequestId, TenantId};
    use ofpc_engine::Primitive;

    /// The batches closed so far.
    fn closed(b: &mut Batcher) -> Vec<Batch> {
        let mut out = Vec::new();
        b.take_closed(&mut out);
        out
    }

    fn req(id: u64, len: usize, arrival: u64) -> ComputeRequest {
        ComputeRequest {
            id: RequestId(id),
            tenant: TenantId(0),
            primitive: Primitive::VectorDotProduct,
            operand_len: len as u32,
            arrival_ps: arrival,
            deadline_ps: arrival + 1_000_000,
        }
    }

    #[test]
    fn fills_to_max_batch() {
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 3,
            max_wait_ps: 1_000,
        });
        for i in 0..7 {
            b.push_with_mode(req(i, 8, i), 0, i);
        }
        let closed = closed(&mut b);
        assert_eq!(closed.len(), 2);
        assert!(closed.iter().all(|c| c.len() == 3));
        assert_eq!(b.open_len(), 1);
    }

    #[test]
    fn timeout_closes_partial_batches() {
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 8,
            max_wait_ps: 100,
        });
        b.push_with_mode(req(1, 8, 0), 0, 0);
        b.flush_timeouts(50);
        assert!(closed(&mut b).is_empty());
        b.flush_timeouts(100);
        let closed = closed(&mut b);
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].len(), 1);
        assert_eq!(closed[0].closed_ps, 100);
    }

    #[test]
    fn classes_do_not_mix() {
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 2,
            max_wait_ps: 1_000,
        });
        b.push_with_mode(req(1, 8, 0), 0, 0);
        b.push_with_mode(req(2, 16, 0), 0, 0); // different shape
        let mut r3 = req(3, 8, 0);
        r3.primitive = Primitive::NonlinearFunction; // different primitive
        b.push_with_mode(r3, 0, 0);
        assert!(closed(&mut b).is_empty());
        assert_eq!(b.open_len(), 3);
        b.push_with_mode(req(4, 8, 1), 0, 1); // completes the (P1, 8) batch
        let closed = closed(&mut b);
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].class.operand_len, 8);
        assert_eq!(closed[0].len(), 2);
    }

    #[test]
    fn disabled_policy_is_one_request_per_batch() {
        let mut b = Batcher::new(BatchPolicy::disabled());
        for i in 0..4 {
            b.push_with_mode(req(i, 8, i), 0, i);
        }
        let closed = closed(&mut b);
        assert_eq!(closed.len(), 4);
        assert!(closed.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn batch_deadline_is_min_member_deadline() {
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 2,
            max_wait_ps: 0,
        });
        let mut r1 = req(1, 8, 0);
        r1.deadline_ps = 500;
        let mut r2 = req(2, 8, 0);
        r2.deadline_ps = 300;
        b.push_with_mode(r1, 0, 0);
        b.push_with_mode(r2, 0, 0);
        let closed = closed(&mut b);
        assert_eq!(closed[0].deadline_ps(), 300);
    }

    #[test]
    fn redundancy_modes_do_not_mix_in_one_batch() {
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 2,
            max_wait_ps: 1_000,
        });
        // Same class, different tenant protection modes: kept apart.
        b.push_with_mode(req(1, 8, 0), 0, 0);
        b.push_with_mode(req(2, 8, 0), 1, 0);
        assert!(closed(&mut b).is_empty());
        assert_eq!(b.open_len(), 2);
        b.push_with_mode(req(3, 8, 0), 1, 0); // fills the rank-1 batch
        let closed = closed(&mut b);
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].len(), 2);
        assert!(closed[0].resil.is_none(), "tagging happens at expansion");
    }

    #[test]
    fn empty_batch_deadline_comes_from_the_resil_tag() {
        use ofpc_net::NodeId;
        let parity = Batch {
            class: req(1, 8, 0).batch_class(),
            requests: Vec::new(),
            closed_ps: 0,
            resil: Some(ResilTag {
                set: 1,
                member: 2,
                pin: NodeId(3),
                phantom: 4,
                deadline_ps: 777,
            }),
        };
        assert_eq!(parity.deadline_ps(), 777);
    }

    mod fill {
        use super::*;
        use crate::admission::TenantShape;
        use crate::scheduler::{ServiceModel, SiteSpec};
        use ofpc_net::NodeId;
        use ofpc_transponder::compute::ComputeTransponderConfig;

        const SHAPE: TenantShape = TenantShape {
            capacity: 64,
            weight: 1,
        };

        fn scheduler(slots: usize) -> Scheduler {
            let model = ServiceModel::from_transponder(&ComputeTransponderConfig::ideal(), 4);
            let site = SiteSpec {
                node: NodeId(1),
                slots,
                access_ps: 1_000,
            };
            Scheduler::new(model, vec![site])
        }

        fn batcher() -> Batcher {
            Batcher::new(BatchPolicy {
                max_batch: 4,
                max_wait_ps: 1_000_000,
            })
        }

        fn admission(n: u64) -> SparseAdmission {
            let mut ac = SparseAdmission::new();
            for i in 0..n {
                ac.offer(req(i, 8, 0), SHAPE);
            }
            ac
        }

        fn set_member(ids: std::ops::Range<u64>) -> Batch {
            Batch {
                class: req(0, 8, 0).batch_class(),
                requests: ids
                    .map(|i| ComputeRequest {
                        deadline_ps: u64::MAX,
                        ..req(i, 8, 0)
                    })
                    .collect(),
                closed_ps: 0,
                resil: Some(ResilTag {
                    set: 0,
                    member: 0,
                    pin: NodeId(1),
                    phantom: 0,
                    deadline_ps: u64::MAX,
                }),
            }
        }

        /// The batches one `fill` call closes.
        fn fill(
            b: &mut Batcher,
            ac: &mut SparseAdmission,
            s: &Scheduler,
            now_ps: u64,
            max_drain: usize,
            rank: impl FnMut(&ComputeRequest) -> u16,
        ) -> Vec<Batch> {
            let mut out = Vec::new();
            b.fill(ac, s, now_ps, max_drain, rank, &mut out);
            out
        }

        /// Requests `fill` took out of admission.
        fn drained(ac: &mut SparseAdmission, s: &Scheduler, max_drain: usize) -> usize {
            let before = ac.queued();
            fill(&mut batcher(), ac, s, 0, max_drain, |_| 0);
            before - ac.queued()
        }

        #[test]
        fn budget_is_idle_slots_times_max_batch() {
            let s = scheduler(2);
            let mut ac = admission(20);
            let mut b = batcher();
            let closed = fill(&mut b, &mut ac, &s, 0, usize::MAX, |_| 0);
            assert_eq!(closed.len(), 2, "two idle slots take two full batches");
            assert!(closed.iter().all(|c| c.len() == 4));
            assert_eq!(ac.queued(), 12);
        }

        #[test]
        fn budget_subtracts_queued_set_members_and_obeys_the_cap() {
            let mut s = scheduler(2);
            s.enqueue(set_member(100..103));
            assert_eq!(drained(&mut admission(20), &s, usize::MAX), 8 - 3);
            assert_eq!(drained(&mut admission(20), &s, 2), 2, "max_drain binds");
            // A backlog of plain batches does not shrink the budget...
            let mut plain = scheduler(2);
            let mut unpinned = set_member(100..103);
            unpinned.resil = None;
            plain.enqueue(unpinned);
            assert_eq!(drained(&mut admission(20), &plain, usize::MAX), 8);
            // ...and a set backlog past the idle capacity saturates at 0.
            s.enqueue(set_member(103..110));
            assert_eq!(drained(&mut admission(20), &s, usize::MAX), 0);
        }

        #[test]
        fn partial_batches_close_only_when_idle_with_nothing_waiting() {
            // Admission drained dry, no backlog, a slot idle: close.
            let s = scheduler(2);
            let closed = fill(&mut batcher(), &mut admission(3), &s, 0, usize::MAX, |_| 0);
            assert_eq!(closed.len(), 1);
            assert_eq!(closed[0].len(), 3);

            // Admission still holds work: the partial batch stays open.
            let mut b = batcher();
            let mut ac = admission(3);
            assert!(fill(&mut b, &mut ac, &s, 0, 2, |_| 0).is_empty());
            assert_eq!((b.open_len(), ac.queued()), (2, 1));

            // A batch waits for a slot: the partial batch stays open.
            let mut waiting = scheduler(2);
            waiting.enqueue(Batch {
                resil: None,
                ..set_member(100..101)
            });
            let mut b = batcher();
            assert!(fill(&mut b, &mut admission(3), &waiting, 0, usize::MAX, |_| 0).is_empty());
            assert_eq!(b.open_len(), 3);

            // No idle slot: the open batch stays open too.
            let mut busy = scheduler(1);
            busy.enqueue(Batch {
                resil: None,
                ..set_member(100..101)
            });
            let mut dispatched = Vec::new();
            busy.try_dispatch(0, &mut dispatched);
            assert_eq!(dispatched.len(), 1);
            let mut b = batcher();
            b.push_with_mode(req(1, 8, 0), 0, 0);
            assert!(fill(
                &mut b,
                &mut SparseAdmission::new(),
                &busy,
                0,
                usize::MAX,
                |_| 0
            )
            .is_empty());
            assert_eq!(b.open_len(), 1);
        }

        #[test]
        fn zero_budget_still_expires_stale_heads() {
            let s = scheduler(2);
            let mut ac = SparseAdmission::new();
            let mut stale = req(1, 8, 0);
            stale.deadline_ps = 10;
            ac.offer(stale, SHAPE);
            let closed = fill(&mut batcher(), &mut ac, &s, 100, 0, |_| 0);
            assert!(closed.is_empty());
            assert_eq!(ac.queued(), 0);
            let mut shed = Vec::new();
            ac.take_shed(&mut shed);
            assert_eq!(shed.len(), 1);
            assert_eq!(shed[0].1, crate::request::ShedReason::DeadlineExpiredQueued);
        }

        #[test]
        fn rank_keys_each_drained_request() {
            let s = scheduler(2);
            let mut ac = SparseAdmission::new();
            for i in 0..4 {
                ac.offer(req(i, 8, 0), SHAPE);
                let mut other = req(10 + i, 8, 0);
                other.tenant = TenantId(1);
                ac.offer(other, SHAPE);
            }
            let mut ranked = Vec::new();
            let closed = fill(&mut batcher(), &mut ac, &s, 0, usize::MAX, |r| {
                ranked.push(r.id);
                r.tenant.0 as u16
            });
            assert_eq!(ranked.len(), 8, "once per drained request");
            assert_eq!(closed.len(), 2, "one pure batch per rank");
            for c in &closed {
                assert!(c.requests.iter().all(|r| r.tenant == c.requests[0].tenant));
            }
        }
    }

    #[test]
    fn next_timeout_tracks_oldest_open_batch() {
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 8,
            max_wait_ps: 100,
        });
        assert_eq!(b.next_timeout_ps(), None);
        b.push_with_mode(req(1, 8, 10), 0, 10);
        b.push_with_mode(req(2, 16, 30), 0, 30);
        assert_eq!(b.next_timeout_ps(), Some(110));
    }
}
