//! The photonic compute header (PCH).
//!
//! The paper's §3 compute-communication protocol: "our additional
//! photonic computing packet header is layered on top of the IP header to
//! identify the photonic computing primitive ID", and routers look up the
//! next hop on *(destination IP, primitive ID)*. This module defines that
//! header's wire format and semantics.
//!
//! Wire layout (8 bytes, big-endian):
//!
//! ```text
//! +--------+--------+----------------+----------------+
//! | prim   | flags  |     op_id      |  result (Q8.8) | ...
//! +--------+--------+----------------+----------------+
//! |  bytes: 1 prim, 1 flags, 2 op_id, 2 result, 2 operand_len
//! ```
//!
//! * `prim` — primitive ID ([`ofpc_engine::Primitive::wire_id`]).
//! * `flags` — bit 0: COMPUTED (a transponder has executed the op);
//!   bit 1: RESULT_IN_PAYLOAD (result too wide for the header field).
//! * `op_id` — which installed operation instance to run (controller
//!   namespace; one primitive can host many ops across the WAN).
//! * `result` — Q8.8 fixed-point result summary.
//! * `operand_len` — number of operand elements in the payload segment.

use bytes::{Buf, BufMut};
use ofpc_engine::Primitive;

/// Size of the PCH on the wire, bytes.
pub const PCH_WIRE_BYTES: usize = 8;

/// Flag bit 0: the operation has been executed by some transponder.
pub const FLAG_COMPUTED: u8 = 0b0000_0001;
/// Flag bits 2–3: result status ([`ResultStatus`]), so a receiver can
/// tell a valid analog result from one skipped or corrupted by a fault.
pub const STATUS_MASK: u8 = 0b0000_1100;
/// Bit offset of the status field inside `flags`.
pub const STATUS_SHIFT: u8 = 2;

/// Result health carried in the PCH flags byte (bits 2–3). `Ok` is the
/// wire default so pre-fault-aware senders stay compatible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ResultStatus {
    /// Result (if computed) came from a healthy engine.
    Ok = 0,
    /// A matching engine was found but had hard-failed; the op was
    /// skipped rather than emitting a garbage analog value.
    EngineUnhealthy = 1,
    /// The request waited past its deadline before any engine ran it.
    TimedOut = 2,
}

impl ResultStatus {
    /// Decode from the flags byte.
    pub fn from_flags(flags: u8) -> Self {
        match (flags & STATUS_MASK) >> STATUS_SHIFT {
            1 => ResultStatus::EngineUnhealthy,
            2 => ResultStatus::TimedOut,
            _ => ResultStatus::Ok,
        }
    }
}

/// The photonic compute header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PchHeader {
    pub primitive: Primitive,
    pub flags: u8,
    /// Operation instance ID (controller-assigned).
    pub op_id: u16,
    /// Q8.8 fixed-point result summary.
    pub result_q88: i16,
    /// Operand element count in the payload.
    pub operand_len: u16,
}

impl PchHeader {
    /// A fresh compute request for `primitive`/`op_id` with `operand_len`
    /// payload elements.
    pub fn request(primitive: Primitive, op_id: u16, operand_len: u16) -> Self {
        PchHeader {
            primitive,
            flags: 0,
            op_id,
            result_q88: 0,
            operand_len,
        }
    }

    pub fn is_computed(&self) -> bool {
        self.flags & FLAG_COMPUTED != 0
    }

    /// Mark the operation executed and record the result summary.
    pub fn mark_computed(&mut self, result: f64) {
        self.flags |= FLAG_COMPUTED;
        self.result_q88 = (result * 256.0)
            .round()
            .clamp(i16::MIN as f64, i16::MAX as f64) as i16;
    }

    /// Accumulate a partial result into the summary field *without*
    /// setting the COMPUTED flag — the distributed on-fiber computing
    /// extension (§5): each transponder along the path adds its share;
    /// the final one calls [`PchHeader::mark_computed`]-equivalent via
    /// [`PchHeader::finish_partial`].
    pub fn add_partial(&mut self, partial: f64) {
        let acc = self.result() + partial;
        self.result_q88 = (acc * 256.0)
            .round()
            .clamp(i16::MIN as f64, i16::MAX as f64) as i16;
    }

    /// Add the last partial and set the COMPUTED flag.
    pub fn finish_partial(&mut self, partial: f64) {
        self.add_partial(partial);
        self.flags |= FLAG_COMPUTED;
    }

    /// Retarget the header at the next operation instance (distributed
    /// chains: each part hands the packet to the next part's op id).
    pub fn retarget(&mut self, next_op: u16) {
        self.op_id = next_op;
    }

    /// Decode the Q8.8 result summary.
    pub fn result(&self) -> f64 {
        self.result_q88 as f64 / 256.0
    }

    /// Result status carried in flag bits 2–3.
    pub fn status(&self) -> ResultStatus {
        ResultStatus::from_flags(self.flags)
    }

    /// Stamp the result status into flag bits 2–3.
    pub fn set_status(&mut self, status: ResultStatus) {
        self.flags = (self.flags & !STATUS_MASK) | ((status as u8) << STATUS_SHIFT);
    }

    /// Serialize to the wire.
    pub fn write_to(&self, buf: &mut impl BufMut) {
        buf.put_u8(self.primitive.wire_id());
        buf.put_u8(self.flags);
        buf.put_u16(self.op_id);
        buf.put_i16(self.result_q88);
        buf.put_u16(self.operand_len);
    }

    /// Parse from the wire.
    pub fn read_from(buf: &mut impl Buf) -> Result<Self, PchError> {
        if buf.remaining() < PCH_WIRE_BYTES {
            return Err(PchError::Truncated);
        }
        let prim_id = buf.get_u8();
        let primitive = Primitive::from_wire_id(prim_id).ok_or(PchError::BadPrimitive(prim_id))?;
        Ok(PchHeader {
            primitive,
            flags: buf.get_u8(),
            op_id: buf.get_u16(),
            result_q88: buf.get_i16(),
            operand_len: buf.get_u16(),
        })
    }
}

/// PCH parse errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PchError {
    Truncated,
    BadPrimitive(u8),
}

impl std::fmt::Display for PchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PchError::Truncated => write!(f, "truncated photonic compute header"),
            PchError::BadPrimitive(id) => write!(f, "unknown primitive id {id}"),
        }
    }
}

impl std::error::Error for PchError {}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn wire_round_trip() {
        let mut h = PchHeader::request(Primitive::VectorDotProduct, 42, 64);
        h.mark_computed(3.5);
        let mut buf = BytesMut::new();
        h.write_to(&mut buf);
        assert_eq!(buf.len(), PCH_WIRE_BYTES);
        let parsed = PchHeader::read_from(&mut buf.freeze()).unwrap();
        assert_eq!(parsed, h);
        assert!(parsed.is_computed());
        assert!((parsed.result() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn fresh_request_is_uncomputed() {
        let h = PchHeader::request(Primitive::PatternMatching, 7, 128);
        assert!(!h.is_computed());
        assert_eq!(h.result(), 0.0);
        assert_eq!(h.operand_len, 128);
    }

    #[test]
    fn result_saturates_at_q88_range() {
        let mut h = PchHeader::request(Primitive::VectorDotProduct, 0, 1);
        h.mark_computed(1e9);
        assert_eq!(h.result_q88, i16::MAX);
        h.mark_computed(-1e9);
        assert_eq!(h.result_q88, i16::MIN);
    }

    #[test]
    fn negative_results_round_trip() {
        let mut h = PchHeader::request(Primitive::VectorDotProduct, 0, 1);
        h.mark_computed(-2.25);
        assert!((h.result() + 2.25).abs() < 1e-9);
    }

    #[test]
    fn status_bits_round_trip_on_the_wire() {
        for status in [
            ResultStatus::Ok,
            ResultStatus::EngineUnhealthy,
            ResultStatus::TimedOut,
        ] {
            let mut h = PchHeader::request(Primitive::VectorDotProduct, 3, 16);
            h.mark_computed(1.0);
            h.set_status(status);
            // Status must not clobber the other flag bits.
            assert!(h.is_computed());
            let mut buf = BytesMut::new();
            h.write_to(&mut buf);
            let parsed = PchHeader::read_from(&mut buf.freeze()).unwrap();
            assert_eq!(parsed.status(), status);
            assert!(parsed.is_computed());
        }
    }

    #[test]
    fn status_rewrites_replace_not_accumulate() {
        let mut h = PchHeader::request(Primitive::PatternMatching, 1, 4);
        h.set_status(ResultStatus::EngineUnhealthy);
        h.set_status(ResultStatus::TimedOut);
        assert_eq!(h.status(), ResultStatus::TimedOut);
        h.set_status(ResultStatus::Ok);
        assert_eq!(h.status(), ResultStatus::Ok);
        assert_eq!(h.flags & STATUS_MASK, 0);
    }

    #[test]
    fn truncated_header_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(1);
        buf.put_u8(0);
        assert_eq!(
            PchHeader::read_from(&mut buf.freeze()),
            Err(PchError::Truncated)
        );
    }

    #[test]
    fn unknown_primitive_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(99);
        buf.put_slice(&[0u8; 7]);
        assert_eq!(
            PchHeader::read_from(&mut buf.freeze()),
            Err(PchError::BadPrimitive(99))
        );
    }
}
