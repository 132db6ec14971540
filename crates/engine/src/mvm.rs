//! WDM-parallel matrix-vector multiplication.
//!
//! One P1 dot-product unit computes one row at a time; WDM gives the
//! photonic engine row-parallelism without new hardware paths — each grid
//! channel carries an independent copy of the Fig. 2a pipeline on its own
//! wavelength (the architecture of integrated photonic tensor cores). A
//! matrix-vector product over an `m×n` matrix finishes in
//! `ceil(m / lanes)` sequential dot products. Row `r` runs on lane
//! `r mod lanes` as one ordinary dot product of the row with the shared
//! vector, on either kernel backend.

use crate::dot::{DotProductUnit, DotUnitConfig};
use ofpc_photonics::energy::EnergyLedger;
use ofpc_photonics::wdm::WdmGrid;
use ofpc_photonics::SimRng;

/// WDM lanes of the ideal engine.
const IDEAL_LANES: usize = 8;

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

    /// Ideal engine on eight lanes.
    pub fn ideal() -> Self {
        let mut rng = SimRng::seed_from_u64(0);
        let mut engine = PhotonicMatVec::new(DotUnitConfig::ideal(), IDEAL_LANES, &mut rng);
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
    pub fn mat_vec_signed(&mut self, matrix: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        assert!(!matrix.is_empty(), "empty matrix");
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
            y.push(self.lanes[lane].dot_signed(row, x));
        }
        y
    }

    /// `y = W·x` with entries in `[0, 1]`.
    pub(crate) fn mat_vec_nonneg(&mut self, matrix: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        assert!(!matrix.is_empty(), "empty matrix");
        let mut y = Vec::with_capacity(matrix.len());
        for (r, row) in matrix.iter().enumerate() {
            assert_eq!(row.len(), x.len(), "matrix row {r} length mismatch");
            let lane = r % self.lanes.len();
            y.push(self.lanes[lane].dot_nonneg(row, x));
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
    use crate::dot::KernelBackend;

    /// An ideal engine on `lanes` lanes, calibrated like
    /// [`PhotonicMatVec::ideal`].
    fn ideal_lanes(lanes: usize) -> PhotonicMatVec {
        let mut rng = SimRng::seed_from_u64(0);
        let mut engine = PhotonicMatVec::new(DotUnitConfig::ideal(), lanes, &mut rng);
        engine.calibrate(64);
        engine
    }

    fn exact_matvec(m: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        m.iter()
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    #[test]
    fn single_lane_matches_exact() {
        let mut e = ideal_lanes(1);
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
        let mut wide = ideal_lanes(4);
        let got = wide.mat_vec_nonneg(&m, &x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 0.02, "got {g} want {w}");
        }
    }

    #[test]
    fn signed_matvec() {
        let mut e = ideal_lanes(2);
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
        let one = ideal_lanes(1);
        let eight = ideal_lanes(8);
        let l1 = one.latency_s(64, 100);
        let l8 = eight.latency_s(64, 100);
        assert!((l1 / l8 - 8.0).abs() < 0.01, "speedup {}", l1 / l8);
    }

    #[test]
    fn latency_rounds_up_partial_rounds() {
        let e = ideal_lanes(8);
        // 9 rows on 8 lanes = 2 rounds.
        assert!((e.latency_s(9, 10) / e.latency_s(8, 10) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn lanes_have_distinct_wavelengths() {
        let e = ideal_lanes(4);
        let wl: std::collections::BTreeSet<u64> = e
            .lanes
            .iter()
            .map(|l| (l.config.laser.wavelength_m * 1e15) as u64)
            .collect();
        assert_eq!(wl.len(), 4);
    }

    #[test]
    fn mac_count_accumulates() {
        let mut e = ideal_lanes(2);
        let m = vec![vec![0.1; 16]; 4];
        let x = vec![0.5; 16];
        e.mat_vec_nonneg(&m, &x);
        assert_eq!(e.lanes.iter().map(|l| l.macs_performed).sum::<u64>(), 64);
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
        let mut e = ideal_lanes(1);
        let m = vec![vec![0.1, 0.2], vec![0.1]];
        e.mat_vec_nonneg(&m, &[0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_empty_matrix() {
        let mut e = ideal_lanes(1);
        e.mat_vec_nonneg(&[], &[0.5]);
    }
}
