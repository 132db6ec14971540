//! Packets: an IPv4-like header, the optional photonic compute header,
//! and a payload, with a real wire serialization (`bytes`-backed) so the
//! protocol-overhead experiment (E7) can count actual bytes.
//!
//! Wire layout:
//!
//! ```text
//! [ ip header 16B ][ pch 8B, iff proto == PROTO_COMPUTE ][ payload ]
//!
//! ip header: src(4) dst(4) id(4) len(2) ttl(1) proto(1)
//! ```

use crate::addr::Addr;
use crate::pch::{PchError, PchHeader, PCH_WIRE_BYTES};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Fixed IP-like header size, bytes.
pub const IP_HEADER_BYTES: usize = 16;

/// Protocol number for plain data.
pub const PROTO_DATA: u8 = 0x11;
/// Protocol number indicating a photonic compute header follows.
pub const PROTO_COMPUTE: u8 = 0xCC;

/// Default initial TTL.
pub const DEFAULT_TTL: u8 = 64;

/// A network packet.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    pub src: Addr,
    pub dst: Addr,
    /// Unique packet ID (assigned by the traffic source).
    pub id: u32,
    pub ttl: u8,
    /// The compute header, present iff this is a compute packet.
    pub pch: Option<PchHeader>,
    /// Payload bytes (operand segment first for compute packets); on the
    /// wire they follow the headers verbatim (see [`Packet::to_wire`]).
    pub payload: Bytes,
}

impl Packet {
    /// A plain data packet.
    pub fn data(src: Addr, dst: Addr, id: u32, payload: impl Into<Bytes>) -> Self {
        Packet {
            src,
            dst,
            id,
            ttl: DEFAULT_TTL,
            pch: None,
            payload: payload.into(),
        }
    }

    /// A compute packet with the given PCH.
    pub fn compute(
        src: Addr,
        dst: Addr,
        id: u32,
        pch: PchHeader,
        payload: impl Into<Bytes>,
    ) -> Self {
        Packet {
            src,
            dst,
            id,
            ttl: DEFAULT_TTL,
            pch: Some(pch),
            payload: payload.into(),
        }
    }

    pub fn is_compute(&self) -> bool {
        self.pch.is_some()
    }

    /// Total size on the wire, bytes.
    pub fn wire_bytes(&self) -> usize {
        IP_HEADER_BYTES
            + if self.pch.is_some() {
                PCH_WIRE_BYTES
            } else {
                0
            }
            + self.payload.len()
    }

    /// Header overhead added by the compute-communication protocol for
    /// this packet, bytes (0 for plain packets).
    pub fn pch_overhead_bytes(&self) -> usize {
        if self.pch.is_some() {
            PCH_WIRE_BYTES
        } else {
            0
        }
    }

    /// Serialize to the wire.
    pub fn to_wire(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_bytes());
        buf.put_u32(self.src.0);
        buf.put_u32(self.dst.0);
        buf.put_u32(self.id);
        buf.put_u16(self.payload.len() as u16);
        buf.put_u8(self.ttl);
        buf.put_u8(if self.pch.is_some() {
            PROTO_COMPUTE
        } else {
            PROTO_DATA
        });
        if let Some(pch) = &self.pch {
            pch.write_to(&mut buf);
        }
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Parse from the wire.
    pub fn from_wire(mut buf: Bytes) -> Result<Self, PacketError> {
        if buf.remaining() < IP_HEADER_BYTES {
            return Err(PacketError::Truncated);
        }
        let src = Addr(buf.get_u32());
        let dst = Addr(buf.get_u32());
        let id = buf.get_u32();
        let len = buf.get_u16() as usize;
        let ttl = buf.get_u8();
        let proto = buf.get_u8();
        let pch = match proto {
            PROTO_DATA => None,
            PROTO_COMPUTE => Some(PchHeader::read_from(&mut buf).map_err(PacketError::Pch)?),
            other => return Err(PacketError::BadProto(other)),
        };
        if buf.remaining() < len {
            return Err(PacketError::Truncated);
        }
        let payload = buf.copy_to_bytes(len);
        Ok(Packet {
            src,
            dst,
            id,
            ttl,
            pch,
            payload,
        })
    }

    /// Decrement TTL; returns `false` when the packet must be dropped.
    pub fn decrement_ttl(&mut self) -> bool {
        if self.ttl == 0 {
            return false;
        }
        self.ttl -= 1;
        self.ttl > 0
    }

    /// Operand vector carried by a compute packet: `operand_len` bytes at
    /// the front of the payload, each an element in `[0, 1]` (fixed-point
    /// u8). Empty for plain packets.
    pub fn operands(&self) -> Vec<f64> {
        match &self.pch {
            Some(pch) => self
                .payload
                .iter()
                .take(pch.operand_len as usize)
                .map(|&b| b as f64 / 255.0)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Encode an operand vector (values clamped to `[0,1]`) as payload
    /// bytes.
    pub fn encode_operands(values: &[f64]) -> Bytes {
        values
            .iter()
            .map(|&v| (v.clamp(0.0, 1.0) * 255.0).round() as u8)
            .collect::<Vec<u8>>()
            .into()
    }
}

/// Packet parse errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketError {
    Truncated,
    BadProto(u8),
    Pch(PchError),
}

impl std::fmt::Display for PacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PacketError::Truncated => write!(f, "truncated packet"),
            PacketError::BadProto(p) => write!(f, "unknown protocol {p:#04x}"),
            PacketError::Pch(e) => write!(f, "bad compute header: {e}"),
        }
    }
}

impl std::error::Error for PacketError {}

#[cfg(test)]
mod tests {
    use super::*;
    use ofpc_engine::Primitive;

    fn addrs() -> (Addr, Addr) {
        (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 3, 1))
    }

    #[test]
    fn data_packet_wire_round_trip() {
        let (src, dst) = addrs();
        let p = Packet::data(src, dst, 7, &b"hello"[..]);
        let wire = p.to_wire();
        assert_eq!(wire.len(), IP_HEADER_BYTES + 5);
        let parsed = Packet::from_wire(wire).unwrap();
        assert_eq!(parsed, p);
        assert!(!parsed.is_compute());
        assert_eq!(parsed.pch_overhead_bytes(), 0);
    }

    #[test]
    fn compute_packet_wire_round_trip() {
        let (src, dst) = addrs();
        let pch = PchHeader::request(Primitive::VectorDotProduct, 3, 4);
        let payload = Packet::encode_operands(&[0.0, 0.5, 1.0, 0.25]);
        let p = Packet::compute(src, dst, 9, pch, payload);
        let wire = p.to_wire();
        assert_eq!(wire.len(), IP_HEADER_BYTES + PCH_WIRE_BYTES + 4);
        let parsed = Packet::from_wire(wire).unwrap();
        assert_eq!(parsed, p);
        assert!(parsed.is_compute());
        assert_eq!(parsed.pch_overhead_bytes(), PCH_WIRE_BYTES);
    }

    #[test]
    fn operands_decode_within_half_lsb() {
        let (src, dst) = addrs();
        let values = [0.1, 0.9, 0.42];
        let pch = PchHeader::request(Primitive::VectorDotProduct, 0, 3);
        let p = Packet::compute(src, dst, 0, pch, Packet::encode_operands(&values));
        let got = p.operands();
        assert_eq!(got.len(), 3);
        for (g, v) in got.iter().zip(&values) {
            assert!((g - v).abs() <= 0.5 / 255.0 + 1e-12);
        }
    }

    #[test]
    fn plain_packet_has_no_operands() {
        let (src, dst) = addrs();
        let p = Packet::data(src, dst, 0, &b"abc"[..]);
        assert!(p.operands().is_empty());
    }

    #[test]
    fn ttl_decrements_and_expires() {
        let (src, dst) = addrs();
        let mut p = Packet::data(src, dst, 0, &b""[..]);
        p.ttl = 2;
        assert!(p.decrement_ttl());
        assert!(!p.decrement_ttl());
        assert_eq!(p.ttl, 0);
        assert!(!p.decrement_ttl()); // stays expired, no underflow
    }

    #[test]
    fn truncated_and_garbage_wires_are_rejected() {
        assert_eq!(
            Packet::from_wire(Bytes::from_static(&[0u8; 4])),
            Err(PacketError::Truncated)
        );
        // Bad proto byte.
        let (src, dst) = addrs();
        let p = Packet::data(src, dst, 0, &b""[..]);
        let mut wire = p.to_wire().to_vec();
        wire[15] = 0x77;
        assert_eq!(
            Packet::from_wire(Bytes::from(wire)),
            Err(PacketError::BadProto(0x77))
        );
        // Length field longer than remaining bytes.
        let p2 = Packet::data(src, dst, 0, &b"abcd"[..]);
        let mut wire2 = p2.to_wire().to_vec();
        wire2.truncate(wire2.len() - 2);
        assert_eq!(
            Packet::from_wire(Bytes::from(wire2)),
            Err(PacketError::Truncated)
        );
    }

    #[test]
    fn operand_encoding_clamps() {
        let enc = Packet::encode_operands(&[-0.5, 2.0]);
        assert_eq!(&enc[..], &[0, 255]);
    }
}
