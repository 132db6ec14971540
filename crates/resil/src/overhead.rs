//! Redundancy overhead accounting.
//!
//! Redundant members are priced by the *same* transponder-derived
//! service model as primary work — a replica copy is a real batch on a
//! real slot, a parity group is a real sub-batch plus one coded group.
//! This module predicts the resulting overhead factor for any additive
//! per-batch cost function (the serving layer passes a closure over
//! `ServiceModel::batch_service`), and prices the one genuinely new
//! operation: digital XOR reconstruction at the front-end.

use crate::mode::RedundancyMode;
use crate::parity::split_groups;

/// Predicted protected-to-unprotected cost factor for a batch of
/// `batch_len` requests under `mode`, where `price(n)` is any additive
/// batch cost (energy in J, or service time in ps) of an `n`-request
/// batch from the deployment's transponder price model.
///
/// Replica prices two full copies; parity prices the k data sub-batches
/// plus one parity group sized like the largest sub-batch. Per-batch
/// fixed costs (engine settle, laser supply during reconfig) are why
/// the parity factor sits *above* the ideal `(k+1)/k`.
pub fn energy_factor_with(
    price: &dyn Fn(usize) -> f64,
    mode: RedundancyMode,
    batch_len: usize,
) -> f64 {
    let base = price(batch_len);
    if base <= 0.0 || batch_len == 0 {
        return 1.0;
    }
    match mode {
        RedundancyMode::Unprotected => 1.0,
        RedundancyMode::Replica => 2.0 * price(batch_len) / base,
        RedundancyMode::XorParity { data_groups } => {
            let groups = split_groups(batch_len, data_groups as usize);
            let parity_len = groups.iter().copied().max().unwrap_or(0);
            let total: f64 = groups.iter().map(|&g| price(g)).sum::<f64>() + price(parity_len);
            total / base
        }
    }
}

/// Cost model for digital XOR reconstruction of a lost parity group at
/// the serving front-end (a memory-bandwidth-bound pass over the
/// surviving payloads).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconstructModel {
    /// Fixed software/bookkeeping overhead per reconstruction, ps.
    pub fixed_ps: u64,
    /// Time per XORed byte, ps (all surviving groups stream once).
    pub per_byte_ps: u64,
    /// Energy per XORed byte, J (DRAM traffic dominated).
    pub per_byte_j: f64,
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
    fn replica_prices_exactly_two_copies() {
        let price = |n: usize| 5.0 + n as f64; // fixed + per-request
        let f = energy_factor_with(&price, RedundancyMode::Replica, 8);
        assert!((f - 2.0).abs() < 1e-12);
    }

    #[test]
    fn parity_factor_sits_between_ideal_and_replica() {
        let price = |n: usize| 1.0 + n as f64;
        let mode = RedundancyMode::XorParity { data_groups: 3 };
        let f = energy_factor_with(&price, mode, 9);
        // Ideal (k+1)/k = 4/3; fixed per-batch cost pushes it up, but a
        // 9-request batch stays well under replica's 2×.
        assert!(f > 4.0 / 3.0, "fixed costs push above ideal: {f}");
        assert!(f < 2.0, "parity beats replica: {f}");
    }

    #[test]
    fn fixed_cost_free_parity_hits_the_ideal_factor() {
        let price = |n: usize| n as f64;
        let mode = RedundancyMode::XorParity { data_groups: 3 };
        let f = energy_factor_with(&price, mode, 9);
        assert!((f - 4.0 / 3.0).abs() < 1e-12, "pure per-request: {f}");
    }

    #[test]
    fn unprotected_is_free_and_degenerate_inputs_are_safe() {
        let price = |n: usize| n as f64;
        assert_eq!(
            energy_factor_with(&price, RedundancyMode::Unprotected, 8),
            1.0
        );
        assert_eq!(energy_factor_with(&price, RedundancyMode::Replica, 0), 1.0);
    }

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
