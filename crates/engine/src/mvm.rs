//! WDM-parallel matrix-vector multiplication.
//!
//! One P1 dot-product unit computes one row at a time; WDM gives the
//! photonic engine row-parallelism without new hardware paths — each grid
//! channel carries an independent copy of the Fig. 2a pipeline on its own
//! wavelength (the architecture of integrated photonic tensor cores). A
//! matrix-vector product over an `m×n` matrix finishes in
//! `ceil(m / lanes)` sequential dot products.

use crate::dot::{DotProductUnit, DotUnitConfig, KernelBackend};
use ofpc_photonics::energy::EnergyLedger;
use ofpc_photonics::wdm::WdmGrid;
use ofpc_photonics::SimRng;

/// A bank of P1 units, one per WDM lane.
#[derive(Debug, Clone)]
pub struct PhotonicMatVec {
    lanes: Vec<DotProductUnit>,
}

impl PhotonicMatVec {
    /// Build a matvec engine with `lanes` WDM channels, all sharing the
    /// same unit configuration. Each lane's devices get independent noise
    /// streams derived from `rng`.
    pub fn new(config: DotUnitConfig, lanes: usize, rng: &mut SimRng) -> Self {
        assert!(lanes >= 1, "need at least one WDM lane");
        let grid = WdmGrid::c_band(lanes);
        let mut units = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            let mut cfg = config.clone();
            cfg.laser.wavelength_m = grid.wavelength_m(lane);
            let mut lane_rng = rng.derive(&format!("mvm-lane-{lane}"));
            units.push(DotProductUnit::new(cfg, &mut lane_rng));
        }
        PhotonicMatVec { lanes: units }
    }

    /// Ideal engine for algebra tests.
    pub fn ideal(lanes: usize) -> Self {
        let mut rng = SimRng::seed_from_u64(0);
        let mut engine = PhotonicMatVec::new(DotUnitConfig::ideal(), lanes, &mut rng);
        engine.calibrate(64);
        engine
    }

    /// Calibrate every lane.
    pub fn calibrate(&mut self, n: usize) {
        for lane in &mut self.lanes {
            lane.calibrate(n);
        }
    }

    /// `y = W·x` with signed entries in `[-1, 1]`. `matrix` is row-major:
    /// `matrix[r]` is row `r`, and every row must have `x.len()` entries.
    ///
    /// Under the vectorized backend the shared `x` operand (the `b` side
    /// of every per-row dot product) is precoded once — DAC quantization
    /// and MZM power transfer evaluated a single time instead of once per
    /// row — which is byte-identical to the per-row path (see
    /// `PrecodedOperand` in `dot`).
    pub fn mat_vec_signed(&mut self, matrix: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        assert!(!matrix.is_empty(), "empty matrix");
        let precoded = (self.lanes[0].config.backend == KernelBackend::Vectorized)
            .then(|| self.lanes[0].precode_signed(x));
        let mut y = Vec::with_capacity(matrix.len());
        for (r, row) in matrix.iter().enumerate() {
            assert_eq!(
                row.len(),
                x.len(),
                "matrix row {r} has {} entries, vector has {}",
                row.len(),
                x.len()
            );
            let lane = r % self.lanes.len();
            y.push(match &precoded {
                Some((xp, xn)) => self.lanes[lane].dot_signed_precoded(row, xp, xn),
                None => self.lanes[lane].dot_signed(row, x),
            });
        }
        y
    }

    /// `y = W·x` with entries in `[0, 1]`. Precodes the shared `x`
    /// operand once under the vectorized backend, like
    /// [`PhotonicMatVec::mat_vec_signed`].
    pub(crate) fn mat_vec_nonneg(&mut self, matrix: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        assert!(!matrix.is_empty(), "empty matrix");
        let precoded = (self.lanes[0].config.backend == KernelBackend::Vectorized)
            .then(|| self.lanes[0].precode(x));
        let mut y = Vec::with_capacity(matrix.len());
        for (r, row) in matrix.iter().enumerate() {
            assert_eq!(row.len(), x.len(), "matrix row {r} length mismatch");
            let lane = r % self.lanes.len();
            y.push(match &precoded {
                Some(xp) => self.lanes[lane].dot_nonneg_precoded(row, xp),
                None => self.lanes[lane].dot_nonneg(row, x),
            });
        }
        y
    }

    /// Wall-clock latency of an `m×n` matvec: rows run `lanes`-wide in
    /// parallel, so `ceil(m/lanes)` sequential dot products.
    pub(crate) fn latency_s(&self, rows: usize, cols: usize) -> f64 {
        let rounds = rows.div_ceil(self.lanes.len());
        rounds as f64 * self.lanes[0].latency_s(cols)
    }

    /// Merged energy ledger across lanes.
    pub(crate) fn energy_ledger(&self) -> EnergyLedger {
        let mut total = EnergyLedger::new();
        for lane in &self.lanes {
            total.merge(&lane.energy_ledger());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_matvec(m: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        m.iter()
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    #[test]
    fn single_lane_matches_exact() {
        let mut e = PhotonicMatVec::ideal(1);
        let m = vec![vec![0.5, 0.25], vec![1.0, 0.0]];
        let x = vec![0.5, 1.0];
        let got = e.mat_vec_nonneg(&m, &x);
        let want = exact_matvec(&m, &x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 0.01, "got {g} want {w}");
        }
    }

    #[test]
    fn multi_lane_matches_single_lane_semantics() {
        let m: Vec<Vec<f64>> = (0..8)
            .map(|r| (0..4).map(|c| ((r * 4 + c) % 5) as f64 / 5.0).collect())
            .collect();
        let x = vec![0.2, 0.4, 0.6, 0.8];
        let want = exact_matvec(&m, &x);
        let mut wide = PhotonicMatVec::ideal(4);
        let got = wide.mat_vec_nonneg(&m, &x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 0.02, "got {g} want {w}");
        }
    }

    #[test]
    fn signed_matvec() {
        let mut e = PhotonicMatVec::ideal(2);
        let m = vec![vec![0.5, -0.5], vec![-1.0, 1.0]];
        let x = vec![1.0, 0.5];
        let got = e.mat_vec_signed(&m, &x);
        let want = exact_matvec(&m, &x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 0.03, "got {g} want {w}");
        }
    }

    #[test]
    fn lanes_speed_up_latency() {
        let one = PhotonicMatVec::ideal(1);
        let eight = PhotonicMatVec::ideal(8);
        let l1 = one.latency_s(64, 100);
        let l8 = eight.latency_s(64, 100);
        assert!((l1 / l8 - 8.0).abs() < 0.01, "speedup {}", l1 / l8);
    }

    #[test]
    fn latency_rounds_up_partial_rounds() {
        let e = PhotonicMatVec::ideal(8);
        // 9 rows on 8 lanes = 2 rounds.
        assert!((e.latency_s(9, 10) / e.latency_s(8, 10) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn lanes_have_distinct_wavelengths() {
        let e = PhotonicMatVec::ideal(4);
        let wl: std::collections::BTreeSet<u64> = e
            .lanes
            .iter()
            .map(|l| (l.config.laser.wavelength_m * 1e15) as u64)
            .collect();
        assert_eq!(wl.len(), 4);
    }

    #[test]
    fn mac_count_accumulates() {
        let mut e = PhotonicMatVec::ideal(2);
        let m = vec![vec![0.1; 16]; 4];
        let x = vec![0.5; 16];
        e.mat_vec_nonneg(&m, &x);
        assert_eq!(e.lanes.iter().map(|l| l.macs_performed).sum::<u64>(), 64);
    }

    #[test]
    fn vectorized_blocked_matvec_replays_per_row_dots_byte_for_byte() {
        let mut cfg = DotUnitConfig::realistic();
        cfg.backend = KernelBackend::Vectorized;
        let mut rng1 = SimRng::seed_from_u64(21);
        let mut rng2 = SimRng::seed_from_u64(21);
        let mut blocked = PhotonicMatVec::new(cfg.clone(), 2, &mut rng1);
        let mut manual = PhotonicMatVec::new(cfg, 2, &mut rng2);
        blocked.calibrate(64);
        manual.calibrate(64);
        let m: Vec<Vec<f64>> = (0..6)
            .map(|r| {
                (0..8)
                    .map(|c| ((r * 8 + c) % 7) as f64 / 3.5 - 1.0)
                    .collect()
            })
            .collect();
        let x: Vec<f64> = (0..8).map(|c| (c as f64 / 7.0) * 2.0 - 1.0).collect();
        let got = blocked.mat_vec_signed(&m, &x);
        // Per-row reference: exactly what mat_vec_signed did before the
        // blocked path existed.
        let want: Vec<f64> = m
            .iter()
            .enumerate()
            .map(|(r, row)| manual.lanes[r % 2].dot_signed(row, &x))
            .collect();
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
        for (b, m) in blocked.lanes.iter().zip(&manual.lanes) {
            assert_eq!(b.macs_performed, m.macs_performed);
        }
        assert_eq!(
            blocked.energy_ledger().total_j().to_bits(),
            manual.energy_ledger().total_j().to_bits()
        );
    }

    #[test]
    fn vectorized_matvec_matches_exact_algebra() {
        let mut cfg = DotUnitConfig::ideal();
        cfg.backend = KernelBackend::Vectorized;
        let mut rng = SimRng::seed_from_u64(0);
        let mut e = PhotonicMatVec::new(cfg, 4, &mut rng);
        e.calibrate(64);
        let m: Vec<Vec<f64>> = (0..8)
            .map(|r| (0..4).map(|c| ((r * 4 + c) % 5) as f64 / 5.0).collect())
            .collect();
        let x = vec![0.2, 0.4, 0.6, 0.8];
        let got = e.mat_vec_nonneg(&m, &x);
        let want = exact_matvec(&m, &x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 0.02, "got {g} want {w}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_ragged_matrix() {
        let mut e = PhotonicMatVec::ideal(1);
        let m = vec![vec![0.1, 0.2], vec![0.1]];
        e.mat_vec_nonneg(&m, &[0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_empty_matrix() {
        let mut e = PhotonicMatVec::ideal(1);
        e.mat_vec_nonneg(&[], &[0.5]);
    }
}
