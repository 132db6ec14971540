//! Ziggurat sampler for the standard normal distribution.
//!
//! The scalar device models draw Gaussians through
//! `SimRng::standard_normal` (Box–Muller: one `ln`, one `sqrt`, one
//! `cos` per draw) — fine at one draw per device event, far too slow at
//! two draws per sample in the fused block kernels. This is the classic
//! 256-layer ziggurat (Marsaglia & Tsang): one `u64` from the generator
//! covers layer index, sign, and a 53-bit uniform, and ~98.8% of draws
//! finish with a table lookup and one compare. Wedge and tail cases fall
//! back to exact rejection sampling, so the produced distribution is the
//! standard normal, not an approximation.
//!
//! Determinism: the sampler consumes a *variable* number of generator
//! words per draw, but the count depends only on the generator's output
//! sequence — replays are byte-stable per seed. The stream differs from
//! Box–Muller's, which is why the vectorized kernels that use this
//! sampler are a distinct [`KernelBackend`](super::KernelBackend) rather
//! than a drop-in swap.

use crate::rng::SimRng;
use std::sync::OnceLock;

/// Right edge of the topmost ziggurat layer (the tail split point).
const R: f64 = 3.654_152_885_361_009;

/// Number of layers.
const LAYERS: usize = 256;

/// Precomputed layer tables: `x[i]` is the right edge of layer `i`
/// (descending, `x[1] == R`, `x[256] == 0`), `f[i] = exp(-x[i]²/2)`.
struct Tables {
    x: [f64; LAYERS + 1],
    f: [f64; LAYERS + 1],
}

fn pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// Walk the layer recursion for candidate strip area `v`, returning the
/// pdf height reached above the topmost strip. The correct `v` makes
/// that exactly 1 (the peak of the unnormalized pdf); the height is
/// monotone increasing in `v`, so it bisects cleanly.
fn final_height(v: f64) -> f64 {
    let mut x = R;
    let mut y = pdf(R);
    for i in 1..LAYERS {
        y += v / x;
        if i < LAYERS - 1 {
            if y >= 1.0 {
                return 2.0; // overshot before the last layer: v too large
            }
            x = (-2.0 * y.ln()).sqrt();
        }
    }
    y
}

fn build_tables() -> Tables {
    // Solve for the common strip area V given R: 60 bisection steps pin
    // it to the last ulp. (Runs once per process; pure float ops, so the
    // tables are identical on every build and every replay.)
    let (mut lo, mut hi) = (0.0045_f64, 0.0055_f64);
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if final_height(mid) < 1.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let v = 0.5 * (lo + hi);

    let mut x = [0.0_f64; LAYERS + 1];
    let mut f = [0.0_f64; LAYERS + 1];
    // Layer 0 is the base strip: rectangle [0, R]×[0, f(R)] plus the
    // tail beyond R, total area V, represented as a virtual rectangle of
    // width V/f(R).
    x[0] = v / pdf(R);
    x[1] = R;
    let mut y = pdf(R);
    for i in 1..LAYERS {
        y += v / x[i];
        x[i + 1] = if i == LAYERS - 1 {
            0.0
        } else {
            (-2.0 * y.min(1.0).ln()).max(0.0).sqrt()
        };
    }
    for i in 0..=LAYERS {
        f[i] = pdf(x[i]);
    }
    Tables { x, f }
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(build_tables)
}

/// Uniform in (0, 1] — rejects the exact-zero output so `ln` is finite.
fn uniform_positive(rng: &mut SimRng) -> f64 {
    loop {
        let u = rng.uniform();
        if u > 0.0 {
            return u;
        }
    }
}

/// One standard-normal draw via the ziggurat.
pub(crate) fn standard_normal(rng: &mut SimRng) -> f64 {
    let t = tables();
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xFF) as usize; // 8 bits: layer
        let sign = if bits & 0x100 != 0 { -1.0 } else { 1.0 }; // 1 bit: sign
        let u = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64); // 53 bits: position
        let x = u * t.x[i];
        if x < t.x[i + 1] {
            // Entirely inside the layer's inscribed rectangle.
            return sign * x;
        }
        if i == 0 {
            // Base strip, beyond R: exact Marsaglia tail sample.
            loop {
                let xt = -uniform_positive(rng).ln() / R;
                let yt = -uniform_positive(rng).ln();
                if 2.0 * yt > xt * xt {
                    return sign * (R + xt);
                }
            }
        }
        // Wedge: uniform height between the layer's bounding pdf values.
        if t.f[i + 1] + (t.f[i] - t.f[i + 1]) * rng.uniform() < pdf(x) {
            return sign * x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_close_the_ziggurat() {
        let t = tables();
        assert_eq!(t.x[1], R);
        assert_eq!(t.x[LAYERS], 0.0);
        assert!((t.f[LAYERS] - 1.0).abs() < 1e-15, "peak {}", t.f[LAYERS]);
        // Strictly descending edges, ascending heights.
        for i in 1..LAYERS {
            assert!(t.x[i] > t.x[i + 1], "x not descending at {i}");
            assert!(t.f[i] < t.f[i + 1], "f not ascending at {i}");
        }
        // Every rectangle layer has (nearly) the same area as the base.
        let base = t.x[0] * t.f[1];
        for i in 1..LAYERS {
            let area = t.x[i] * (t.f[i + 1] - t.f[i]);
            assert!((area - base).abs() / base < 1e-9, "layer {i} area {area}");
        }
    }

    #[test]
    fn moments_match_the_standard_normal() {
        let mut rng = SimRng::seed_from_u64(42);
        let n = 400_000;
        let (mut sum, mut sum2, mut sum4) = (0.0, 0.0, 0.0);
        for _ in 0..n {
            let z = standard_normal(&mut rng);
            sum += z;
            sum2 += z * z;
            sum4 += z * z * z * z;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        let kurt = sum4 / n as f64 / (var * var);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.01, "var {var}");
        assert!((kurt - 3.0).abs() < 0.1, "kurtosis {kurt}");
    }

    #[test]
    fn tail_probabilities_are_right() {
        let mut rng = SimRng::seed_from_u64(7);
        let n = 400_000;
        let (mut beyond_2, mut beyond_r) = (0u32, 0u32);
        for _ in 0..n {
            let z = standard_normal(&mut rng).abs();
            if z > 2.0 {
                beyond_2 += 1;
            }
            if z > R {
                beyond_r += 1;
            }
        }
        // P(|Z| > 2) = 0.04550; P(|Z| > 3.654) = 2.58e-4.
        let p2 = beyond_2 as f64 / n as f64;
        assert!((0.043..0.048).contains(&p2), "P(|Z|>2) = {p2}");
        assert!(beyond_r > 0, "tail beyond R never exercised");
        let pr = beyond_r as f64 / n as f64;
        assert!((1e-4..6e-4).contains(&pr), "P(|Z|>R) = {pr}");
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let mut a = SimRng::seed_from_u64(9);
        let mut b = SimRng::seed_from_u64(9);
        let xs: [f64; 257] = std::array::from_fn(|_| standard_normal(&mut a));
        let ys: [f64; 257] = std::array::from_fn(|_| standard_normal(&mut b));
        assert_eq!(xs.map(f64::to_bits), ys.map(f64::to_bits));
        // And a different seed gives a different stream.
        let mut c = SimRng::seed_from_u64(10);
        let zs: [f64; 257] = std::array::from_fn(|_| standard_normal(&mut c));
        assert_ne!(xs.map(f64::to_bits), zs.map(f64::to_bits));
    }
}
