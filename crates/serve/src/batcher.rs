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

use crate::request::{BatchClass, ComputeRequest};
use ofpc_resil::ResilTag;
use std::collections::BTreeMap;

/// Batch closing policy.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    pub class: BatchClass,
    pub requests: Vec<ComputeRequest>,
    /// When the batch was closed, ps.
    pub closed_ps: u64,
    /// Redundancy-set membership, when this batch is one member of a
    /// replica/parity set (`None` for ordinary unprotected batches).
    pub resil: Option<ResilTag>,
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
    pub fn deadline_ps(&self) -> u64 {
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
    open: BTreeMap<(u8, BatchClass), OpenBatch>,
    closed: Vec<Batch>,
}

impl Batcher {
    pub fn new(policy: BatchPolicy) -> Self {
        assert!(policy.max_batch >= 1, "max_batch must be at least 1");
        Batcher {
            policy,
            open: BTreeMap::new(),
            closed: Vec::new(),
        }
    }

    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Add a request to its class's open batch, closing the batch when
    /// it fills. Unprotected shorthand for [`Batcher::push_with_mode`].
    pub fn push(&mut self, req: ComputeRequest, now_ps: u64) {
        self.push_with_mode(req, 0, now_ps);
    }

    /// Add a request under its tenant's redundancy-mode rank (see
    /// `ofpc_resil::RedundancyMode::rank`): batches stay pure per mode
    /// so the redundancy layer can expand whole batches into sets.
    pub fn push_with_mode(&mut self, req: ComputeRequest, mode_rank: u8, now_ps: u64) {
        let class = req.batch_class();
        let key = (mode_rank, class);
        let entry = self.open.entry(key).or_insert_with(|| OpenBatch {
            requests: Vec::new(),
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
    pub fn flush_timeouts(&mut self, now_ps: u64) {
        let due: Vec<(u8, BatchClass)> = self
            .open
            .iter()
            .filter(|(_, b)| now_ps.saturating_sub(b.opened_ps) >= self.policy.max_wait_ps)
            .map(|(&k, _)| k)
            .collect();
        for key in due {
            let b = self.open.remove(&key).expect("listed above");
            self.closed.push(Batch {
                class: key.1,
                requests: b.requests,
                closed_ps: now_ps,
                resil: None,
            });
        }
    }

    /// Force-close everything (end of run, or scheduler idle with free
    /// capacity — holding requests while transponders sit idle only adds
    /// latency).
    pub fn flush_all(&mut self, now_ps: u64) {
        let keys: Vec<(u8, BatchClass)> = self.open.keys().copied().collect();
        for key in keys {
            let b = self.open.remove(&key).expect("listed above");
            self.closed.push(Batch {
                class: key.1,
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

    /// Take all closed batches, in close order.
    pub fn take_closed(&mut self) -> Vec<Batch> {
        std::mem::take(&mut self.closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{RequestId, TenantId};
    use ofpc_engine::Primitive;

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
            b.push(req(i, 8, i), i);
        }
        let closed = b.take_closed();
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
        b.push(req(1, 8, 0), 0);
        b.flush_timeouts(50);
        assert!(b.take_closed().is_empty());
        b.flush_timeouts(100);
        let closed = b.take_closed();
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
        b.push(req(1, 8, 0), 0);
        b.push(req(2, 16, 0), 0); // different shape
        let mut r3 = req(3, 8, 0);
        r3.primitive = Primitive::NonlinearFunction; // different primitive
        b.push(r3, 0);
        assert!(b.take_closed().is_empty());
        assert_eq!(b.open_len(), 3);
        b.push(req(4, 8, 1), 1); // completes the (P1, 8) batch
        let closed = b.take_closed();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].class.operand_len, 8);
        assert_eq!(closed[0].len(), 2);
    }

    #[test]
    fn disabled_policy_is_one_request_per_batch() {
        let mut b = Batcher::new(BatchPolicy::disabled());
        for i in 0..4 {
            b.push(req(i, 8, i), i);
        }
        let closed = b.take_closed();
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
        b.push(r1, 0);
        b.push(r2, 0);
        let closed = b.take_closed();
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
        assert!(b.take_closed().is_empty());
        assert_eq!(b.open_len(), 2);
        b.push_with_mode(req(3, 8, 0), 1, 0); // fills the rank-1 batch
        let closed = b.take_closed();
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

    #[test]
    fn next_timeout_tracks_oldest_open_batch() {
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 8,
            max_wait_ps: 100,
        });
        assert_eq!(b.next_timeout_ps(), None);
        b.push(req(1, 8, 10), 10);
        b.push(req(2, 16, 30), 30);
        assert_eq!(b.next_timeout_ps(), Some(110));
    }
}
