//! Massive MIMO baseband processing (Table 1, class C2).
//!
//! Uplink detection for an `n_rx × n_tx` antenna array: received symbols
//! `y = H·x + n` are detected by a linear equalizer `x̂ = W·y` (matched
//! filter or zero-forcing), followed by symbol slicing. The equalizer is
//! computed offline (digital — it changes at channel-coherence time,
//! not per symbol); the per-symbol matrix-vector multiply — the
//! compute-hungry part Table 1 points at — runs on the photonic P1
//! engine (P1 + P3 in the table; slicing is the nonlinear step).
//!
//! We implement QPSK, a Rayleigh-ish Gaussian channel, Gauss–Jordan
//! matrix inversion from scratch for zero-forcing, and SER measurement
//! digital vs photonic.

use ofpc_engine::mvm::PhotonicMatVec;
use ofpc_photonics::SimRng;

/// A real-valued matrix (row-major).
pub(crate) type Mat = Vec<Vec<f64>>;

/// QPSK symbol alphabet on the real/imag grid: each complex symbol is
/// two real dimensions in `{−1/√2, +1/√2}`. We work in the real-valued
/// equivalent model (dimension doubled), standard for MIMO detection.
pub(crate) const QPSK_AMP: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Draw a random channel `H` (real-equivalent, `2·n_rx × 2·n_tx`) with
/// i.i.d. Gaussian entries ~N(0, 1/(2·n_tx)).
pub(crate) fn random_channel(n_rx: usize, n_tx: usize, rng: &mut SimRng) -> Mat {
    assert!(n_rx >= n_tx && n_tx >= 1, "need n_rx ≥ n_tx ≥ 1");
    let (rows, cols) = (2 * n_rx, 2 * n_tx);
    let sigma = (1.0 / (2.0 * n_tx as f64)).sqrt();
    (0..rows)
        .map(|_| (0..cols).map(|_| rng.normal(0.0, sigma)).collect())
        .collect()
}

/// Random QPSK bit vector → real-equivalent symbol vector of length
/// `2·n_tx` (bits map to ±QPSK_AMP).
pub(crate) fn random_symbols(n_tx: usize, rng: &mut SimRng) -> (Vec<bool>, Vec<f64>) {
    let bits: Vec<bool> = (0..2 * n_tx).map(|_| rng.chance(0.5)).collect();
    let symbols = bits
        .iter()
        .map(|&b| if b { QPSK_AMP } else { -QPSK_AMP })
        .collect();
    (bits, symbols)
}

/// `y = H·x + noise` with per-dimension noise sigma from `snr_db`
/// (signal power normalized to 1).
pub(crate) fn transmit(h: &Mat, x: &[f64], snr_db: f64, rng: &mut SimRng) -> Vec<f64> {
    let sigma = (10f64.powf(-snr_db / 10.0) / 2.0).sqrt();
    h.iter()
        .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum::<f64>() + rng.normal(0.0, sigma))
        .collect()
}

/// Matrix transpose.
pub(crate) fn transpose(m: &Mat) -> Mat {
    let rows = m.len();
    let cols = m[0].len();
    (0..cols)
        .map(|j| (0..rows).map(|i| m[i][j]).collect())
        .collect()
}

/// Matrix product.
pub(crate) fn matmul(a: &Mat, b: &Mat) -> Mat {
    let n = a.len();
    let k = b.len();
    let m = b[0].len();
    assert!(a.iter().all(|r| r.len() == k), "shape mismatch");
    (0..n)
        .map(|i| {
            (0..m)
                .map(|j| (0..k).map(|p| a[i][p] * b[p][j]).sum())
                .collect()
        })
        .collect()
}

/// Gauss–Jordan inverse. Panics on singular input (pivot < 1e-12).
#[allow(clippy::needless_range_loop)] // elimination reads clearest with indices
pub(crate) fn invert(m: &Mat) -> Mat {
    let n = m.len();
    assert!(m.iter().all(|r| r.len() == n), "matrix must be square");
    // Augment with identity.
    let mut a: Vec<Vec<f64>> = m
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let mut r = row.clone();
            r.extend((0..n).map(|j| if i == j { 1.0 } else { 0.0 }));
            r
        })
        .collect();
    for col in 0..n {
        // Partial pivot.
        let pivot_row = (col..n)
            .max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap())
            .unwrap();
        assert!(a[pivot_row][col].abs() > 1e-12, "singular matrix");
        a.swap(col, pivot_row);
        let pivot = a[col][col];
        for v in &mut a[col] {
            *v /= pivot;
        }
        for row in 0..n {
            if row != col && a[row][col].abs() > 0.0 {
                let f = a[row][col];
                for j in 0..2 * n {
                    a[row][j] -= f * a[col][j];
                }
            }
        }
    }
    a.into_iter().map(|row| row[n..].to_vec()).collect()
}

/// The zero-forcing equalizer `W = (HᵀH)⁻¹ Hᵀ` (computed offline).
pub(crate) fn zero_forcing(h: &Mat) -> Mat {
    let ht = transpose(h);
    let gram = matmul(&ht, h);
    matmul(&invert(&gram), &ht)
}

/// Slice a real-equivalent estimate back to bits.
pub(crate) fn slice_bits(x_hat: &[f64]) -> Vec<bool> {
    x_hat.iter().map(|&v| v > 0.0).collect()
}

/// The per-symbol detector backend.
pub enum Detector<'a> {
    Digital,
    Photonic(&'a mut PhotonicMatVec),
}

impl Detector<'_> {
    /// Apply the equalizer: `x̂ = W·y`. The photonic path normalizes
    /// inputs to the engine's `[-1, 1]` encoding range and restores the
    /// scale digitally (a single scalar per vector).
    pub(crate) fn equalize(&mut self, w: &Mat, y: &[f64]) -> Vec<f64> {
        match self {
            Detector::Digital => w
                .iter()
                .map(|row| row.iter().zip(y).map(|(a, b)| a * b).sum())
                .collect(),
            Detector::Photonic(engine) => {
                let y_peak = y.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1e-12);
                let w_peak = w
                    .iter()
                    .flatten()
                    .fold(0.0f64, |m, &v| m.max(v.abs()))
                    .max(1e-12);
                let y_n: Vec<f64> = y.iter().map(|&v| v / y_peak).collect();
                let w_n: Mat = w
                    .iter()
                    .map(|row| row.iter().map(|&v| v / w_peak).collect())
                    .collect();
                engine
                    .mat_vec_signed(&w_n, &y_n)
                    .into_iter()
                    .map(|v| v * y_peak * w_peak)
                    .collect()
            }
        }
    }
}

/// Measure symbol-error rate over `frames` QPSK vectors at `snr_db`.
pub fn measure_ser(
    n_rx: usize,
    n_tx: usize,
    snr_db: f64,
    frames: usize,
    detector: &mut Detector,
    rng: &mut SimRng,
) -> f64 {
    assert!(frames >= 1, "need at least one frame");
    let h = random_channel(n_rx, n_tx, rng);
    let w = zero_forcing(&h);
    let mut errors = 0usize;
    let mut total = 0usize;
    for _ in 0..frames {
        let (bits, x) = random_symbols(n_tx, rng);
        let y = transmit(&h, &x, snr_db, rng);
        let x_hat = detector.equalize(&w, &y);
        let got = slice_bits(&x_hat);
        errors += got.iter().zip(&bits).filter(|(a, b)| a != b).count();
        total += bits.len();
    }
    errors as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn invert_recovers_identity() {
        let m = vec![vec![4.0, 7.0], vec![2.0, 6.0]];
        let inv = invert(&m);
        let id = matmul(&m, &inv);
        for i in 0..2 {
            for j in 0..2 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((id[i][j] - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn singular_matrix_panics() {
        invert(&vec![vec![1.0, 2.0], vec![2.0, 4.0]]);
    }

    #[test]
    fn zero_forcing_inverts_the_channel_noiselessly() {
        let mut rng = SimRng::seed_from_u64(0);
        let h = random_channel(8, 4, &mut rng);
        let w = zero_forcing(&h);
        let (_, x) = random_symbols(4, &mut rng);
        let y = transmit(&h, &x, 200.0, &mut rng); // effectively noiseless
        let mut det = Detector::Digital;
        let x_hat = det.equalize(&w, &y);
        for (a, b) in x_hat.iter().zip(&x) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn high_snr_has_low_ser() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut det = Detector::Digital;
        let ser = measure_ser(8, 4, 25.0, 100, &mut det, &mut rng);
        assert!(ser < 0.01, "ser {ser}");
    }

    #[test]
    fn ser_falls_with_snr() {
        let mut rng = SimRng::seed_from_u64(2);
        let mut det = Detector::Digital;
        let low = measure_ser(8, 4, 0.0, 150, &mut det, &mut rng);
        let mut rng2 = SimRng::seed_from_u64(2);
        let mut det2 = Detector::Digital;
        let high = measure_ser(8, 4, 15.0, 150, &mut det2, &mut rng2);
        assert!(high < low, "SER should fall with SNR: {high} vs {low}");
    }

    #[test]
    fn photonic_detector_tracks_digital() {
        let mut rng_d = SimRng::seed_from_u64(3);
        let mut det_d = Detector::Digital;
        let ser_digital = measure_ser(4, 2, 15.0, 60, &mut det_d, &mut rng_d);

        let mut rng_p = SimRng::seed_from_u64(3);
        let mut engine = PhotonicMatVec::ideal(4);
        let mut det_p = Detector::Photonic(&mut engine);
        let ser_photonic = measure_ser(4, 2, 15.0, 60, &mut det_p, &mut rng_p);
        assert!(
            ser_photonic <= ser_digital + 0.05,
            "photonic {ser_photonic} vs digital {ser_digital}"
        );
    }

    #[test]
    fn symbols_and_slicing_round_trip() {
        let mut rng = SimRng::seed_from_u64(4);
        let (bits, x) = random_symbols(8, &mut rng);
        assert_eq!(slice_bits(&x), bits);
        assert_eq!(x.len(), 16);
        assert!(x.iter().all(|&v| (v.abs() - QPSK_AMP).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "n_rx")]
    fn undersized_array_panics() {
        let mut rng = SimRng::seed_from_u64(0);
        random_channel(2, 4, &mut rng);
    }
}
