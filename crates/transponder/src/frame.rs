//! Line framing.
//!
//! The minimal frame structure the photonic engine needs to operate on
//! the optical signal (Fig. 4): a fixed optical **preamble** the engine's
//! pattern-matching front end locks onto, a one-byte compute-op tag, a
//! length field, the payload, and a reserved **result field** the engine
//! writes its output into. The paper's compute-communication protocol
//! rides above this at the packet layer (`ofpc-net`); this frame is the
//! physical-layer container.
//!
//! Layout, MSB-first on the line:
//!
//! ```text
//! [ preamble 16 bits | op 8 | payload_len 16 | result 32 | payload 8·len | crc 16 ]
//! ```

use bytes::{BufMut, Bytes, BytesMut};

/// The fixed 16-bit optical preamble (alternating-rich pattern with good
/// autocorrelation for the photonic matcher): `0xB7E1`.
pub(crate) const PREAMBLE: u16 = 0xB7E1;

/// Preamble as a bit vector (MSB first).
pub(crate) fn preamble_bits() -> Vec<bool> {
    (0..16).rev().map(|i| (PREAMBLE >> i) & 1 == 1).collect()
}

/// Number of header+trailer overhead bits per frame.
pub const OVERHEAD_BITS: usize = 16 + 8 + 16 + 32 + 16;

/// A physical-layer frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Compute-op tag: 0 = plain transit; non-zero selects the loaded
    /// photonic operation (mirrors the primitive wire ID).
    pub op: u8,
    /// Result field the photonic engine fills in (4 bytes, fixed point).
    pub result: [u8; 4],
    /// Payload bytes.
    pub payload: Bytes,
}

impl Frame {
    /// A plain data frame with no compute request.
    pub fn data(payload: impl Into<Bytes>) -> Self {
        Frame {
            op: 0,
            result: [0; 4],
            payload: payload.into(),
        }
    }

    /// A compute frame tagged for operation `op`.
    pub fn compute(op: u8, payload: impl Into<Bytes>) -> Self {
        assert!(op != 0, "compute frames need a non-zero op tag");
        Frame {
            op,
            result: [0; 4],
            payload: payload.into(),
        }
    }

    /// Whether this frame requests photonic computation.
    pub(crate) fn is_compute(&self) -> bool {
        self.op != 0
    }

    /// Total bits on the line for this frame.
    pub fn line_bits(&self) -> usize {
        OVERHEAD_BITS + self.payload.len() * 8
    }

    /// CRC-16/CCITT over op, length, result, and payload.
    pub(crate) fn crc(&self) -> u16 {
        let mut bytes = BytesMut::new();
        bytes.put_u8(self.op);
        bytes.put_u16(self.payload.len() as u16);
        bytes.put_slice(&self.result);
        bytes.put_slice(&self.payload);
        crc16(&bytes)
    }

    /// Serialize to line bits (MSB first), preamble included.
    pub fn to_bits(&self) -> Vec<bool> {
        assert!(
            self.payload.len() <= u16::MAX as usize,
            "payload exceeds the 16-bit length field"
        );
        let mut bits = preamble_bits();
        push_byte(&mut bits, self.op);
        push_u16(&mut bits, self.payload.len() as u16);
        for b in self.result {
            push_byte(&mut bits, b);
        }
        for &b in self.payload.iter() {
            push_byte(&mut bits, b);
        }
        push_u16(&mut bits, self.crc());
        bits
    }

    /// Parse a frame from line bits starting at the preamble. Returns the
    /// frame and the number of bits consumed, or a [`FrameError`].
    pub fn from_bits(bits: &[bool]) -> Result<(Frame, usize), FrameError> {
        if bits.len() < OVERHEAD_BITS {
            return Err(FrameError::Truncated);
        }
        let pre = read_u16(&bits[0..16]);
        if pre != PREAMBLE {
            return Err(FrameError::BadPreamble(pre));
        }
        let op = read_byte(&bits[16..24]);
        let len = read_u16(&bits[24..40]) as usize;
        let need = OVERHEAD_BITS + len * 8;
        if bits.len() < need {
            return Err(FrameError::Truncated);
        }
        let mut result = [0u8; 4];
        for (i, r) in result.iter_mut().enumerate() {
            *r = read_byte(&bits[40 + i * 8..48 + i * 8]);
        }
        let payload: Vec<u8> = (0..len)
            .map(|i| read_byte(&bits[72 + i * 8..80 + i * 8]))
            .collect();
        let crc_read = read_u16(&bits[72 + len * 8..88 + len * 8]);
        let frame = Frame {
            op,
            result,
            payload: Bytes::from(payload),
        };
        if frame.crc() != crc_read {
            return Err(FrameError::BadCrc {
                expected: frame.crc(),
                got: crc_read,
            });
        }
        Ok((frame, need))
    }

    /// Locate the preamble in a bit stream (exact match), returning the
    /// offset of its first bit.
    pub(crate) fn find_preamble(bits: &[bool]) -> Option<usize> {
        let pre = preamble_bits();
        if bits.len() < pre.len() {
            return None;
        }
        (0..=bits.len() - pre.len()).find(|&off| bits[off..off + pre.len()] == pre[..])
    }
}

/// Frame parse errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FrameError {
    /// Not enough bits for a complete frame.
    Truncated,
    /// The first 16 bits are not the preamble.
    BadPreamble(u16),
    /// CRC mismatch (bit errors on the line).
    BadCrc { expected: u16, got: u16 },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::BadPreamble(p) => write!(f, "bad preamble {p:#06x}"),
            FrameError::BadCrc { expected, got } => {
                write!(f, "CRC mismatch: computed {expected:#06x}, read {got:#06x}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

fn push_byte(bits: &mut Vec<bool>, b: u8) {
    for i in (0..8).rev() {
        bits.push((b >> i) & 1 == 1);
    }
}

fn push_u16(bits: &mut Vec<bool>, v: u16) {
    push_byte(bits, (v >> 8) as u8);
    push_byte(bits, (v & 0xff) as u8);
}

fn read_byte(bits: &[bool]) -> u8 {
    bits.iter().fold(0u8, |acc, &b| (acc << 1) | b as u8)
}

fn read_u16(bits: &[bool]) -> u16 {
    bits.iter().fold(0u16, |acc, &b| (acc << 1) | b as u16)
}

/// CRC-16/CCITT-FALSE.
pub(crate) fn crc16(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &byte in data {
        crc ^= (byte as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_round_trip_data_frame() {
        let f = Frame::data(&b"hello optical world"[..]);
        let bits = f.to_bits();
        assert_eq!(bits.len(), f.line_bits());
        let (parsed, consumed) = Frame::from_bits(&bits).unwrap();
        assert_eq!(parsed, f);
        assert_eq!(consumed, bits.len());
    }

    #[test]
    fn bits_round_trip_compute_frame_with_result() {
        let mut f = Frame::compute(2, &[1u8, 2, 3, 4][..]);
        f.result = [0xDE, 0xAD, 0xBE, 0xEF];
        let bits = f.to_bits();
        let (parsed, _) = Frame::from_bits(&bits).unwrap();
        assert_eq!(parsed.result, [0xDE, 0xAD, 0xBE, 0xEF]);
        assert_eq!(parsed.op, 2);
        assert!(parsed.is_compute());
    }

    #[test]
    fn empty_payload_round_trips() {
        let f = Frame::data(&b""[..]);
        let (parsed, consumed) = Frame::from_bits(&f.to_bits()).unwrap();
        assert_eq!(parsed.payload.len(), 0);
        assert_eq!(consumed, OVERHEAD_BITS);
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let f = Frame::data(&b"payload"[..]);
        let mut bits = f.to_bits();
        let flip = 72 + 3; // inside payload
        bits[flip] = !bits[flip];
        match Frame::from_bits(&bits) {
            Err(FrameError::BadCrc { .. }) => {}
            other => panic!("expected BadCrc, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_preamble_is_rejected() {
        let f = Frame::data(&b"x"[..]);
        let mut bits = f.to_bits();
        bits[0] = !bits[0];
        assert!(matches!(
            Frame::from_bits(&bits),
            Err(FrameError::BadPreamble(_))
        ));
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let f = Frame::data(&b"abcdef"[..]);
        let bits = f.to_bits();
        assert_eq!(Frame::from_bits(&bits[..40]), Err(FrameError::Truncated));
        assert_eq!(
            Frame::from_bits(&bits[..bits.len() - 8]),
            Err(FrameError::Truncated)
        );
    }

    #[test]
    fn find_preamble_locates_offset_frames() {
        let f = Frame::data(&b"zz"[..]);
        let mut stream = vec![false, true, false];
        stream.extend(f.to_bits());
        assert_eq!(Frame::find_preamble(&stream), Some(3));
        let (parsed, _) = Frame::from_bits(&stream[3..]).unwrap();
        assert_eq!(parsed, f);
    }

    #[test]
    fn find_preamble_none_in_noise() {
        // A stream of zeros contains no preamble.
        assert_eq!(Frame::find_preamble(&[false; 64]), None);
        assert_eq!(Frame::find_preamble(&[]), None);
    }

    #[test]
    fn crc16_known_vector() {
        // CRC-16/CCITT-FALSE("123456789") = 0x29B1.
        assert_eq!(crc16(b"123456789"), 0x29B1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn compute_frame_rejects_zero_op() {
        Frame::compute(0, &b"x"[..]);
    }

    #[test]
    fn line_bits_counts_overhead() {
        let f = Frame::data(&b"1234"[..]);
        assert_eq!(f.line_bits(), OVERHEAD_BITS + 32);
    }
}
