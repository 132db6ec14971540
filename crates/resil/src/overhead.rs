//! Redundancy overhead accounting.
//!
//! Redundant members are priced by the *same* transponder-derived
//! service model as primary work — a replica copy is a real batch on a
//! real slot, a parity group is a real sub-batch plus one coded group.
//! This module prices the one genuinely new operation: digital XOR
//! reconstruction at the front-end.

/// Cost model for digital XOR reconstruction of a lost parity group at
/// the serving front-end (a memory-bandwidth-bound pass over the
/// surviving payloads).
#[derive(Debug, Clone, Copy)]
pub struct ReconstructModel {
    /// Fixed software/bookkeeping overhead per reconstruction, ps.
    pub(crate) fixed_ps: u64,
    /// Time per XORed byte, ps (all surviving groups stream once).
    pub(crate) per_byte_ps: u64,
    /// Energy per XORed byte, J (DRAM traffic dominated).
    pub(crate) per_byte_j: f64,
}

impl Default for ReconstructModel {
    fn default() -> Self {
        ReconstructModel {
            fixed_ps: 50_000,  // 50 ns of software dispatch
            per_byte_ps: 100,  // ≈10 GB/s effective XOR bandwidth
            per_byte_j: 2e-11, // ≈20 pJ/byte of memory traffic
        }
    }
}

impl ReconstructModel {
    /// Latency (ps) and energy (J) to reconstruct a group when `bytes`
    /// total bytes of surviving payload must be XORed.
    pub fn cost(&self, bytes: usize) -> (u64, f64) {
        (
            self.fixed_ps + self.per_byte_ps * bytes as u64,
            self.per_byte_j * bytes as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconstruction_cost_scales_with_bytes() {
        let m = ReconstructModel::default();
        let (t0, e0) = m.cost(0);
        let (t1, e1) = m.cost(4096);
        assert_eq!(t0, m.fixed_ps);
        assert_eq!(e0, 0.0);
        assert_eq!(t1, m.fixed_ps + 4096 * m.per_byte_ps);
        assert!(e1 > 0.0);
    }
}
