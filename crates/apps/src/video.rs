//! Video encoding (Table 1, class C1).
//!
//! An intra-frame transform encoder in the HEVC/JPEG lineage: 8×8 block
//! DCT-II, quantization, zigzag scan, run-length coding. The transform —
//! the MAC-heavy stage — runs on the photonic P1 engine as two
//! matrix-matrix passes (`D·B·Dᵀ` decomposed into matvecs), which is
//! exactly the "in-network encoding algorithm" Table 1 calls for. The
//! decoder and the PSNR meter are digital, as they would be at the
//! receiving end-host.

use ofpc_engine::mvm::PhotonicMatVec;
use ofpc_photonics::SimRng;

/// Block size (8×8, the classic transform size).
pub(crate) const B: usize = 8;

/// The 8×8 DCT-II basis matrix `D` (orthonormal).
pub(crate) fn dct_matrix() -> Vec<Vec<f64>> {
    let mut d = vec![vec![0.0; B]; B];
    for (k, row) in d.iter_mut().enumerate() {
        let alpha = if k == 0 {
            (1.0 / B as f64).sqrt()
        } else {
            (2.0 / B as f64).sqrt()
        };
        for (n, v) in row.iter_mut().enumerate() {
            *v = alpha
                * (std::f64::consts::PI * (2.0 * n as f64 + 1.0) * k as f64 / (2.0 * B as f64))
                    .cos();
        }
    }
    d
}

/// Transpose a square matrix.
fn transpose(m: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = m.len();
    (0..n).map(|j| (0..n).map(|i| m[i][j]).collect()).collect()
}

/// JPEG-style luminance quantization table scaled by `quality ∈ (0, 1]`
/// (1 = finest).
pub(crate) fn quant_table(quality: f64) -> Vec<Vec<f64>> {
    assert!(quality > 0.0 && quality <= 1.0, "quality must be in (0,1]");
    const BASE: [[f64; 8]; 8] = [
        [16.0, 11.0, 10.0, 16.0, 24.0, 40.0, 51.0, 61.0],
        [12.0, 12.0, 14.0, 19.0, 26.0, 58.0, 60.0, 55.0],
        [14.0, 13.0, 16.0, 24.0, 40.0, 57.0, 69.0, 56.0],
        [14.0, 17.0, 22.0, 29.0, 51.0, 87.0, 80.0, 62.0],
        [18.0, 22.0, 37.0, 56.0, 68.0, 109.0, 103.0, 77.0],
        [24.0, 35.0, 55.0, 64.0, 81.0, 104.0, 113.0, 92.0],
        [49.0, 64.0, 78.0, 87.0, 103.0, 121.0, 120.0, 101.0],
        [72.0, 92.0, 95.0, 98.0, 112.0, 100.0, 103.0, 99.0],
    ];
    BASE.iter()
        .map(|row| {
            row.iter()
                .map(|&v| (v / quality / 255.0).max(1e-3))
                .collect()
        })
        .collect()
}

/// Zigzag scan order for an 8×8 block.
pub(crate) fn zigzag_order() -> Vec<(usize, usize)> {
    let mut order = Vec::with_capacity(B * B);
    for s in 0..(2 * B - 1) {
        let coords: Vec<(usize, usize)> = (0..=s.min(B - 1))
            .filter_map(|i| {
                let j = s - i;
                (j < B).then_some((i, j))
            })
            .collect();
        if s % 2 == 0 {
            order.extend(coords.into_iter().rev());
        } else {
            order.extend(coords);
        }
    }
    order
}

/// Run-length encode a quantized coefficient sequence. Each `(v, run)`
/// symbol means "`run` zeros, then the value `v`" — so `(0, n)` encodes
/// `n + 1` zeros. The symbol stream reconstructs the input exactly.
pub fn rle_encode(coeffs: &[i32]) -> Vec<(i32, u8)> {
    let mut out = Vec::new();
    let mut zeros: u8 = 0;
    for &c in coeffs {
        if c == 0 && zeros < u8::MAX {
            zeros += 1;
        } else {
            out.push((c, zeros));
            zeros = 0;
        }
    }
    if zeros > 0 {
        // `zeros` trailing zeros = (zeros − 1) run + one zero value.
        out.push((0, zeros - 1));
    }
    out
}

/// Invert [`rle_encode`]; pads or truncates to `len` defensively.
pub fn rle_decode(rle: &[(i32, u8)], len: usize) -> Vec<i32> {
    let mut out = Vec::with_capacity(len);
    for &(v, run) in rle {
        out.extend(std::iter::repeat_n(0, run as usize));
        out.push(v);
    }
    out.truncate(len);
    while out.len() < len {
        out.push(0);
    }
    out
}

/// One encoded 8×8 block.
#[derive(Debug, Clone)]
pub struct EncodedBlock {
    pub(crate) rle: Vec<(i32, u8)>,
}

/// The transform backend: exact digital math or the photonic engine.
pub enum Transform<'a> {
    Digital,
    Photonic(&'a mut PhotonicMatVec),
}

impl Transform<'_> {
    /// `y = M · x` for the 8-vector `x` with signed matrix rows.
    fn matvec(&mut self, m: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        match self {
            Transform::Digital => m
                .iter()
                .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
                .collect(),
            Transform::Photonic(engine) => {
                // The photonic engine encodes values in [-1,1]; DCT
                // inputs are pixel values in [0,1] shifted to [-0.5,0.5]
                // upstream, and basis entries are within [-0.5,0.5].
                engine.mat_vec_signed(m, x)
            }
        }
    }

    /// 2-D DCT of a block: `D · block · Dᵀ`.
    pub(crate) fn dct2(&mut self, block: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let d = dct_matrix();
        // rows: tmp = D · block  (column-wise matvecs on blockᵀ)
        let bt = transpose(block);
        let tmp_t: Vec<Vec<f64>> = bt.iter().map(|col| self.matvec(&d, col)).collect();
        let tmp = transpose(&tmp_t); // tmp = D·block
        let tmp2: Vec<Vec<f64>> = tmp.iter().map(|row| self.matvec(&d, row)).collect();
        // tmp2 rows are D·(rows of tmp) = (D·tmpᵀ)ᵀ → tmp·Dᵀ done right.
        tmp2
    }
}

/// Exact inverse 2-D DCT (digital; runs at the decoder).
pub(crate) fn idct2(coeffs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let d = dct_matrix();
    let dt = transpose(&d);
    // block = Dᵀ · coeffs · D
    let mul = |a: &[Vec<f64>], b: &[Vec<f64>]| -> Vec<Vec<f64>> {
        (0..B)
            .map(|i| {
                (0..B)
                    .map(|j| (0..B).map(|k| a[i][k] * b[k][j]).sum())
                    .collect()
            })
            .collect()
    };
    mul(&mul(&dt, coeffs), &d)
}

/// Encode one block (pixels in `[0,1]`): center, transform, quantize,
/// zigzag, RLE.
pub(crate) fn encode_block(block: &[Vec<f64>], quality: f64, tf: &mut Transform) -> EncodedBlock {
    assert_eq!(block.len(), B, "block must be 8×8");
    let centered: Vec<Vec<f64>> = block
        .iter()
        .map(|row| {
            assert_eq!(row.len(), B, "block must be 8×8");
            row.iter().map(|&p| p - 0.5).collect()
        })
        .collect();
    let coeffs = tf.dct2(&centered);
    let q = quant_table(quality);
    let zz = zigzag_order();
    let scanned: Vec<i32> = zz
        .iter()
        .map(|&(i, j)| (coeffs[i][j] / q[i][j]).round() as i32)
        .collect();
    EncodedBlock {
        rle: rle_encode(&scanned),
    }
}

/// Decode one block back to pixels in `[0,1]`.
pub(crate) fn decode_block(enc: &EncodedBlock, quality: f64) -> Vec<Vec<f64>> {
    let q = quant_table(quality);
    let zz = zigzag_order();
    let scanned = rle_decode(&enc.rle, B * B);
    let mut coeffs = vec![vec![0.0; B]; B];
    for (&(i, j), &v) in zz.iter().zip(&scanned) {
        coeffs[i][j] = v as f64 * q[i][j];
    }
    idct2(&coeffs)
        .into_iter()
        .map(|row| row.into_iter().map(|p| (p + 0.5).clamp(0.0, 1.0)).collect())
        .collect()
}

/// A synthetic frame: smooth gradient plus a moving bright square —
/// compressible structure with edges (stand-in for real video content).
pub fn synthetic_frame(
    width: usize,
    height: usize,
    phase: usize,
    rng: &mut SimRng,
) -> Vec<Vec<f64>> {
    let mut f = vec![vec![0.0; width]; height];
    let sq = 8 + (phase * 4) % width.saturating_sub(16).max(1);
    for (i, row) in f.iter_mut().enumerate() {
        for (j, p) in row.iter_mut().enumerate() {
            let grad = 0.3 + 0.4 * (j as f64 / width as f64);
            let in_square = (4..12).contains(&i) && j >= sq && j < sq + 8;
            let v = if in_square { 0.9 } else { grad };
            *p = (v + rng.normal(0.0, 0.01)).clamp(0.0, 1.0);
        }
    }
    f
}

/// PSNR between two images, dB.
pub fn psnr(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    assert_eq!(a.len(), b.len(), "image height mismatch");
    let mut se = 0.0;
    let mut n = 0usize;
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(ra.len(), rb.len(), "image width mismatch");
        for (&x, &y) in ra.iter().zip(rb) {
            se += (x - y) * (x - y);
            n += 1;
        }
    }
    let mse = se / n as f64;
    if mse <= 0.0 {
        f64::INFINITY
    } else {
        10.0 * (1.0 / mse).log10()
    }
}

/// Full-frame encode: tile into 8×8 blocks (frame dims must be multiples
/// of 8). Returns blocks in row-major tile order.
pub fn encode_frame(frame: &[Vec<f64>], quality: f64, tf: &mut Transform) -> Vec<EncodedBlock> {
    let h = frame.len();
    let w = frame[0].len();
    assert!(
        h.is_multiple_of(B) && w.is_multiple_of(B),
        "frame dims must be multiples of 8"
    );
    let mut out = Vec::new();
    for bi in (0..h).step_by(B) {
        for bj in (0..w).step_by(B) {
            let block: Vec<Vec<f64>> = (0..B).map(|i| frame[bi + i][bj..bj + B].to_vec()).collect();
            out.push(encode_block(&block, quality, tf));
        }
    }
    out
}

/// Full-frame decode.
pub fn decode_frame(
    blocks: &[EncodedBlock],
    width: usize,
    height: usize,
    quality: f64,
) -> Vec<Vec<f64>> {
    let mut frame = vec![vec![0.0; width]; height];
    let tiles_per_row = width / B;
    for (t, enc) in blocks.iter().enumerate() {
        let bi = (t / tiles_per_row) * B;
        let bj = (t % tiles_per_row) * B;
        let block = decode_block(enc, quality);
        for i in 0..B {
            frame[bi + i][bj..bj + B].copy_from_slice(&block[i]);
        }
    }
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dct_matrix_is_orthonormal() {
        let d = dct_matrix();
        for i in 0..B {
            for j in 0..B {
                let dot: f64 = (0..B).map(|k| d[i][k] * d[j][k]).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-12, "({i},{j}) = {dot}");
            }
        }
    }

    #[test]
    fn dct_idct_round_trip_is_exact_digitally() {
        let mut rng = SimRng::seed_from_u64(0);
        let block: Vec<Vec<f64>> = (0..B)
            .map(|_| (0..B).map(|_| rng.uniform() - 0.5).collect())
            .collect();
        let mut tf = Transform::Digital;
        let coeffs = tf.dct2(&block);
        let back = idct2(&coeffs);
        for i in 0..B {
            for j in 0..B {
                assert!((back[i][j] - block[i][j]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn zigzag_covers_all_64_once() {
        let zz = zigzag_order();
        assert_eq!(zz.len(), 64);
        let set: std::collections::HashSet<(usize, usize)> = zz.iter().copied().collect();
        assert_eq!(set.len(), 64);
        assert_eq!(zz[0], (0, 0));
        assert_eq!(zz[63], (7, 7));
    }

    #[test]
    fn rle_round_trips() {
        let cases: Vec<Vec<i32>> = vec![
            vec![5, 0, 0, -3, 0, 0, 0, 1],
            vec![0; 10],
            vec![1, 2, 3],
            vec![],
        ];
        for c in cases {
            let enc = rle_encode(&c);
            let dec = rle_decode(&enc, c.len());
            assert_eq!(dec, c, "case {c:?} enc {enc:?}");
        }
    }

    #[test]
    fn rle_compresses_sparse_data() {
        let mut coeffs = vec![0i32; 64];
        coeffs[0] = 50;
        coeffs[1] = -3;
        let enc = rle_encode(&coeffs);
        assert!(enc.len() <= 3, "{enc:?}");
    }

    #[test]
    fn block_round_trip_quality() {
        let mut rng = SimRng::seed_from_u64(1);
        // A smooth block compresses nearly losslessly at high quality.
        let block: Vec<Vec<f64>> = (0..B)
            .map(|i| (0..B).map(|j| 0.3 + 0.03 * (i + j) as f64).collect())
            .collect();
        let _ = &mut rng;
        let mut tf = Transform::Digital;
        let enc = encode_block(&block, 1.0, &mut tf);
        let dec = decode_block(&enc, 1.0);
        let p = psnr(&block, &dec);
        assert!(p > 35.0, "psnr {p}");
    }

    #[test]
    fn photonic_transform_tracks_digital() {
        let mut rng = SimRng::seed_from_u64(2);
        let frame = synthetic_frame(32, 16, 0, &mut rng);
        let mut digital = Transform::Digital;
        let enc_d = encode_frame(&frame, 0.8, &mut digital);
        let dec_d = decode_frame(&enc_d, 32, 16, 0.8);
        let psnr_digital = psnr(&frame, &dec_d);

        let mut engine = PhotonicMatVec::ideal(8);
        let mut photonic = Transform::Photonic(&mut engine);
        let enc_p = encode_frame(&frame, 0.8, &mut photonic);
        let dec_p = decode_frame(&enc_p, 32, 16, 0.8);
        let psnr_photonic = psnr(&frame, &dec_p);
        assert!(psnr_digital > 28.0, "digital psnr {psnr_digital}");
        assert!(
            psnr_photonic > psnr_digital - 3.0,
            "photonic {psnr_photonic} vs digital {psnr_digital}"
        );
    }

    #[test]
    fn lower_quality_means_fewer_bytes() {
        let mut rng = SimRng::seed_from_u64(3);
        let frame = synthetic_frame(32, 16, 1, &mut rng);
        let mut tf = Transform::Digital;
        let hi: usize = encode_frame(&frame, 1.0, &mut tf)
            .iter()
            .map(|b| b.rle.len() * 3)
            .sum();
        let lo: usize = encode_frame(&frame, 0.2, &mut tf)
            .iter()
            .map(|b| b.rle.len() * 3)
            .sum();
        assert!(lo < hi, "lo {lo} hi {hi}");
        // And both beat raw (512 pixels × 1 byte).
        assert!(lo < 512);
    }

    #[test]
    fn psnr_extremes() {
        let a = vec![vec![0.5; 8]; 8];
        assert_eq!(psnr(&a, &a), f64::INFINITY);
        let b = vec![vec![1.0; 8]; 8];
        let p = psnr(&a, &b);
        assert!((p - 6.02).abs() < 0.1, "psnr {p}"); // MSE 0.25 → ~6 dB
    }

    #[test]
    #[should_panic(expected = "multiples of 8")]
    fn odd_frame_dims_panic() {
        let frame = vec![vec![0.0; 10]; 10];
        encode_frame(&frame, 1.0, &mut Transform::Digital);
    }
}
