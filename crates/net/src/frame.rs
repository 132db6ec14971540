//! Zero-copy views over compute frames on the wire.
//!
//! [`Packet::from_wire`](crate::packet::Packet::from_wire) materializes
//! an owned packet — it decodes every
//! header field eagerly and `copy_to_bytes` the payload. That is the
//! right shape for the router simulator, which mutates TTLs and result
//! fields in place, but the million-tenant ingest front-end only needs
//! to *read* a handful of header fields per frame and hand the operand
//! segment onward. [`PchFrame`] is the read path for that scale: it
//! validates a [`Bytes`] buffer once and then serves every field as a
//! direct big-endian read from the original buffer. The payload accessor
//! is a refcounted [`Bytes::slice`] — no byte of the frame is ever
//! copied, and the view round-trips bit-identically with the owned
//! parser (pinned by the workspace property tests).
//!
//! Malformed input is a *value*, never a panic: every way a frame can be
//! short, mislabeled, or self-inconsistent maps to a typed
//! [`FrameError`], so a front-end can count and drop hostile frames
//! without tearing down its shard loop.

use crate::addr::Addr;
use crate::packet::{IP_HEADER_BYTES, PROTO_COMPUTE, PROTO_DATA};
use crate::pch::{PchHeader, PCH_WIRE_BYTES};
use bytes::Bytes;
use ofpc_engine::Primitive;

/// Why a byte buffer failed to validate as a compute frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrameError {
    /// Fewer bytes than the headers plus declared payload require.
    Truncated { need: usize, have: usize },
    /// The IP protocol field names neither data nor compute.
    BadProto(u8),
    /// A well-formed data frame, but the caller wanted compute.
    NotCompute,
    /// The PCH primitive id is not a known primitive.
    BadPrimitive(u8),
    /// The PCH declares more operand elements than the payload carries.
    OperandOverrun {
        operand_len: usize,
        payload_len: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            FrameError::BadProto(p) => write!(f, "unknown protocol {p:#04x}"),
            FrameError::NotCompute => write!(f, "not a compute frame"),
            FrameError::BadPrimitive(id) => write!(f, "unknown primitive id {id}"),
            FrameError::OperandOverrun {
                operand_len,
                payload_len,
            } => write!(
                f,
                "operand_len {operand_len} overruns the {payload_len}-byte payload"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Byte offsets inside the frame (see the `packet` module wire layout).
const OFF_SRC: usize = 0;
const OFF_DST: usize = 4;
const OFF_ID: usize = 8;
const OFF_LEN: usize = 12;
const OFF_TTL: usize = 14;
const OFF_PROTO: usize = 15;
const OFF_PCH: usize = IP_HEADER_BYTES;

#[inline]
fn be_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([buf[off], buf[off + 1]])
}

#[inline]
fn be_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_be_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

/// A validated zero-copy view over one compute frame.
///
/// Construction ([`PchFrame::parse`]) proves once that every accessor's
/// bytes exist and that the primitive id decodes; after that, accessors
/// are plain offset reads with no failure path. The view owns a
/// refcounted handle to the underlying buffer, so it is `'static` and
/// can cross the shard-loop boundary without copying the frame.
#[derive(Debug, Clone)]
pub struct PchFrame {
    buf: Bytes,
    payload_len: usize,
    primitive: Primitive,
}

impl PchFrame {
    /// Rewrite the fields that tell one request from the next (source
    /// address, packet id, PCH op id) in an encoded compute frame and
    /// leave every other byte alone, so a sender can reuse one encoded
    /// frame per request shape instead of serializing each request.
    pub fn restamp(wire: &mut [u8], src: Addr, id: u32, op_id: u16) {
        wire[OFF_SRC..OFF_SRC + 4].copy_from_slice(&src.0.to_be_bytes());
        wire[OFF_ID..OFF_ID + 4].copy_from_slice(&id.to_be_bytes());
        wire[OFF_PCH + 2..OFF_PCH + 4].copy_from_slice(&op_id.to_be_bytes());
    }

    /// Validate `buf` as a compute frame. The only bytes inspected are
    /// the two headers; the payload is bounds-checked but untouched.
    pub fn parse(buf: Bytes) -> Result<Self, FrameError> {
        let have = buf.len();
        if have < IP_HEADER_BYTES {
            return Err(FrameError::Truncated {
                need: IP_HEADER_BYTES,
                have,
            });
        }
        match buf[OFF_PROTO] {
            PROTO_COMPUTE => {}
            PROTO_DATA => return Err(FrameError::NotCompute),
            other => return Err(FrameError::BadProto(other)),
        }
        let payload_len = be_u16(&buf, OFF_LEN) as usize;
        let need = IP_HEADER_BYTES + PCH_WIRE_BYTES + payload_len;
        if have < need {
            return Err(FrameError::Truncated { need, have });
        }
        let prim_id = buf[OFF_PCH];
        let primitive =
            Primitive::from_wire_id(prim_id).ok_or(FrameError::BadPrimitive(prim_id))?;
        let frame = PchFrame {
            buf,
            payload_len,
            primitive,
        };
        let operand_len = frame.operand_len() as usize;
        if operand_len > payload_len {
            return Err(FrameError::OperandOverrun {
                operand_len,
                payload_len,
            });
        }
        Ok(frame)
    }

    pub fn src(&self) -> Addr {
        Addr(be_u32(&self.buf, OFF_SRC))
    }

    pub fn dst(&self) -> Addr {
        Addr(be_u32(&self.buf, OFF_DST))
    }

    pub fn id(&self) -> u32 {
        be_u32(&self.buf, OFF_ID)
    }

    pub fn ttl(&self) -> u8 {
        self.buf[OFF_TTL]
    }

    pub fn primitive(&self) -> Primitive {
        self.primitive
    }

    pub(crate) fn flags(&self) -> u8 {
        self.buf[OFF_PCH + 1]
    }

    pub(crate) fn op_id(&self) -> u16 {
        be_u16(&self.buf, OFF_PCH + 2)
    }

    pub(crate) fn result_q88(&self) -> i16 {
        be_u16(&self.buf, OFF_PCH + 4) as i16
    }

    pub fn operand_len(&self) -> u16 {
        be_u16(&self.buf, OFF_PCH + 6)
    }

    /// Total frame size on the wire, bytes (headers + payload; trailing
    /// bytes beyond the declared payload are not part of the frame).
    pub fn wire_bytes(&self) -> usize {
        IP_HEADER_BYTES + PCH_WIRE_BYTES + self.payload_len
    }

    /// The payload segment as a refcounted slice of the original buffer
    /// — zero bytes copied.
    pub fn payload(&self) -> Bytes {
        let start = IP_HEADER_BYTES + PCH_WIRE_BYTES;
        self.buf.slice(start..start + self.payload_len)
    }

    /// Materialize the owned [`PchHeader`] (differential testing against
    /// the eager parser; the hot path never needs this).
    pub fn header(&self) -> PchHeader {
        PchHeader {
            primitive: self.primitive,
            flags: self.flags(),
            op_id: self.op_id(),
            result_q88: self.result_q88(),
            operand_len: self.operand_len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;

    fn compute_frame() -> Bytes {
        let pch = PchHeader::request(Primitive::VectorDotProduct, 42, 4);
        Packet::compute(Addr(7), Addr(9), 1234, pch, vec![1u8, 2, 3, 4]).to_wire()
    }

    #[test]
    fn view_matches_owned_parser() {
        let wire = compute_frame();
        let owned = Packet::from_wire(wire.clone()).expect("owned parse");
        let view = PchFrame::parse(wire).expect("view parse");
        assert_eq!(view.src(), owned.src);
        assert_eq!(view.dst(), owned.dst);
        assert_eq!(view.id(), owned.id);
        assert_eq!(view.ttl(), owned.ttl);
        assert_eq!(view.header(), owned.pch.expect("compute"));
        assert_eq!(view.payload(), owned.payload);
        assert_eq!(view.wire_bytes(), owned.wire_bytes());
    }

    #[test]
    fn payload_slice_shares_the_frame_allocation() {
        let wire = compute_frame();
        let base = wire.as_ptr() as usize;
        let view = PchFrame::parse(wire).expect("parse");
        let payload = view.payload();
        let off = payload.as_ptr() as usize - base;
        assert_eq!(off, IP_HEADER_BYTES + PCH_WIRE_BYTES, "no copy happened");
    }

    #[test]
    fn truncation_reports_needed_bytes() {
        let wire = compute_frame();
        for cut in 0..wire.len() {
            let err = PchFrame::parse(wire.slice(..cut)).expect_err("short frame");
            match err {
                FrameError::Truncated { need, have } => {
                    assert_eq!(have, cut);
                    assert!(need > cut);
                }
                other => panic!("cut {cut}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn data_frames_and_junk_protocols_are_typed_errors() {
        let data = Packet::data(Addr(1), Addr(2), 3, vec![0u8; 4]).to_wire();
        assert_eq!(PchFrame::parse(data).unwrap_err(), FrameError::NotCompute);
        let mut junk = compute_frame().to_vec();
        junk[OFF_PROTO] = 0x55;
        assert_eq!(
            PchFrame::parse(junk.into()).unwrap_err(),
            FrameError::BadProto(0x55)
        );
    }

    #[test]
    fn operand_overrun_is_rejected() {
        let pch = PchHeader::request(Primitive::VectorDotProduct, 0, 9);
        let wire = Packet::compute(Addr(1), Addr(2), 3, pch, vec![0u8; 4]).to_wire();
        assert_eq!(
            PchFrame::parse(wire).unwrap_err(),
            FrameError::OperandOverrun {
                operand_len: 9,
                payload_len: 4
            }
        );
    }
}
