//! Redundancy overhead accounting.
//!
//! Redundant members are priced by the *same* transponder-derived
//! service model as primary work — a replica copy is a real batch on a
//! real slot, a parity group is a real sub-batch plus one coded group.
//! This module prices the one genuinely new operation: digital XOR
//! reconstruction at the front-end.

/// Fixed software/bookkeeping overhead per XOR reconstruction at the
/// serving front-end, ps: 50 ns of software dispatch.
const RECONSTRUCT_FIXED_PS: u64 = 50_000;

/// Time per XORed byte, ps (all surviving groups stream once): ≈10 GB/s
/// effective XOR bandwidth.
const RECONSTRUCT_PER_BYTE_PS: u64 = 100;

/// Energy per XORed byte, J (DRAM traffic dominated): ≈20 pJ/byte of
/// memory traffic.
const RECONSTRUCT_PER_BYTE_J: f64 = 2e-11;

/// Latency (ps) and energy (J) of digital XOR reconstruction of a lost
/// parity group at the serving front-end (a memory-bandwidth-bound pass
/// over the surviving payloads), when `bytes` total bytes of surviving
/// payload must be XORed.
pub fn reconstruct_cost(bytes: usize) -> (u64, f64) {
    (
        RECONSTRUCT_FIXED_PS + RECONSTRUCT_PER_BYTE_PS * bytes as u64,
        RECONSTRUCT_PER_BYTE_J * bytes as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconstruction_cost_scales_with_bytes() {
        let (t0, e0) = reconstruct_cost(0);
        let (t1, e1) = reconstruct_cost(4096);
        assert_eq!(t0, RECONSTRUCT_FIXED_PS);
        assert_eq!(e0, 0.0);
        assert_eq!(t1, RECONSTRUCT_FIXED_PS + 4096 * RECONSTRUCT_PER_BYTE_PS);
        assert!(e1 > 0.0);
    }
}
