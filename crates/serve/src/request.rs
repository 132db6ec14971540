//! Request front-end types: what a user asks the substrate to do, and
//! every way that ask can end.
//!
//! The serving runtime is *open-loop*: requests arrive on their own
//! schedule whether or not the system keeps up, so every request must
//! reach a terminal [`Outcome`] — completed, shed, or expired — and the
//! metrics layer checks that none are silently dropped.

use ofpc_engine::Primitive;
use serde::Serialize;

/// A tenant (one of the N users sharing the wavelength's compute
/// bandwidth, paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct TenantId(pub u32);

/// Globally unique request identifier (assigned in arrival order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// One user request against the photonic substrate.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeRequest {
    pub id: RequestId,
    pub tenant: TenantId,
    /// Which photonic primitive the request needs (P1/P2/P3).
    pub primitive: Primitive,
    /// Operand vector length. The runtime keeps requests payload-free —
    /// scheduling depends only on the shape; operand *values* are
    /// synthesized deterministically (see [`ComputeRequest::operands`])
    /// when a batch is cross-checked against the real photonic engine.
    pub operand_len: u32,
    /// Arrival at the serving front-end, ps of virtual time.
    pub arrival_ps: u64,
    /// Absolute completion deadline, ps. Missing it sheds the request.
    pub deadline_ps: u64,
}

impl ComputeRequest {
    /// Has the deadline passed at `now`?
    pub fn expired(&self, now_ps: u64) -> bool {
        now_ps > self.deadline_ps
    }

    /// The batching compatibility class: requests batch together only
    /// when they run the same primitive over the same vector shape (one
    /// weight/pattern configuration per wavelength pass).
    pub fn batch_class(&self) -> BatchClass {
        BatchClass {
            primitive: self.primitive,
            operand_len: self.operand_len,
        }
    }

    /// The request's operand vector, synthesized deterministically from
    /// its id (values in `[0, 1]`, the wire fixed-point domain). Used
    /// when the runtime cross-checks a sampled batch on the real engine.
    pub fn operands(&self) -> Vec<f64> {
        let base = self.id.0 as usize;
        (0..self.operand_len as usize)
            .map(|k| ((base + k) % 255) as f64 / 255.0)
            .collect()
    }
}

/// The compatibility key for dynamic batching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BatchClass {
    pub primitive: Primitive,
    pub operand_len: u32,
}

/// Why a request was refused or abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ShedReason {
    /// The tenant's admission queue was full on arrival (backpressure).
    QueueFull,
    /// The deadline passed while the request waited in a queue or batch.
    DeadlineExpiredQueued,
    /// The request was scheduled, but service would (or did) finish past
    /// the deadline.
    DeadlineExpiredServing,
    /// The engine serving the request hard-failed, retries onto
    /// survivors were exhausted, and no digital fallback was configured.
    EngineFailed,
}

/// Terminal state of a request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Served within its deadline.
    Completed {
        /// End-to-end latency (arrival to result delivery), ps.
        latency_ps: u64,
        /// Requests sharing the same wavelength batch (1 = unbatched).
        batch_size: u32,
        /// Energy attributed to this request, joules.
        energy_j: f64,
    },
    /// Refused or abandoned; the reason is always reported upstream.
    Shed { reason: ShedReason },
    /// Photonic capacity was exhausted (engine faults), so the request
    /// was answered by the digital baseline instead: the result is
    /// correct, but latency and energy are worse than the photonic path.
    DegradedDigital {
        /// End-to-end latency including the digital compute time, ps.
        latency_ps: u64,
        /// Digital compute energy attributed to this request, joules.
        energy_j: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(arrival: u64, deadline: u64) -> ComputeRequest {
        ComputeRequest {
            id: RequestId(1),
            tenant: TenantId(0),
            primitive: Primitive::VectorDotProduct,
            operand_len: 16,
            arrival_ps: arrival,
            deadline_ps: deadline,
        }
    }

    #[test]
    fn expires_only_after_the_deadline() {
        let r = req(100, 500);
        assert!(!r.expired(500));
        assert!(r.expired(501));
    }

    #[test]
    fn batch_class_separates_shapes_and_primitives() {
        let a = req(0, 1).batch_class();
        let mut b = req(0, 1);
        b.operand_len = 32;
        let mut c = req(0, 1);
        c.primitive = Primitive::PatternMatching;
        assert_ne!(a, b.batch_class());
        assert_ne!(a, c.batch_class());
        assert_eq!(a, req(5, 9).batch_class());
    }
}
