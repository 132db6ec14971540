//! Deterministic randomness for the whole simulation.
//!
//! Every stochastic process in the substrate (shot noise, thermal noise,
//! RIN, ASE, traffic arrivals, workload synthesis) draws from a [`SimRng`]
//! seeded by the experiment harness. Two runs with the same seed produce
//! bit-identical results, which the replay tests in `tests/` rely on.

/// A seeded random-number generator with the Gaussian sampler the noise
/// models need. The generator is an inline xoshiro256** (public-domain
/// algorithm by Blackman & Vigna) seeded through SplitMix64, so the whole
/// workspace builds with no external RNG crate and the stream is stable
/// across toolchains — the replay tests pin exact output bytes.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

impl SimRng {
    /// Create a generator from a 64-bit experiment seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the 256-bit state, as the
        // xoshiro authors recommend (never yields the all-zero state).
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SimRng {
            state: [next(), next(), next(), next()],
        }
    }

    /// Derive an independent child generator for a named subsystem.
    ///
    /// Deriving (rather than sharing) keeps subsystems' noise streams
    /// independent of each other's sample counts: adding a device to one
    /// path does not perturb another path's noise.
    pub fn derive(&mut self, label: &str) -> SimRng {
        let mut seed = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        for b in label.bytes() {
            seed ^= b as u64;
            seed = seed.wrapping_mul(0x1000_0000_01b3);
        }
        seed ^= self.next_u64();
        SimRng::seed_from_u64(seed)
    }

    /// Uniform sample in `[0, 1)` (53 bits of precision).
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)` via Lemire's widening-multiply
    /// reduction (unbiased to ~2^-64, deterministic). Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        (((self.next_u64() as u128) * (n as u128)) >> 64) as usize
    }

    /// Raw 64-bit sample (xoshiro256** output function).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Standard normal sample via Box–Muller (no `rand_distr` offline).
    pub(crate) fn standard_normal(&mut self) -> f64 {
        // Reject u1 == 0 so ln() stays finite.
        let mut u1 = self.uniform();
        while u1 <= f64::MIN_POSITIVE {
            u1 = self.uniform();
        }
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Exponential sample with the given rate (events per unit time).
    /// Used by Poisson traffic generators. Panics if `rate <= 0`.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let mut u = self.uniform();
        while u <= f64::MIN_POSITIVE {
            u = self.uniform();
        }
        -u.ln() / rate
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn derive_is_deterministic_and_label_sensitive() {
        let mut parent1 = SimRng::seed_from_u64(7);
        let mut parent2 = SimRng::seed_from_u64(7);
        let mut c1 = parent1.derive("shot");
        let mut c2 = parent2.derive("shot");
        assert_eq!(c1.next_u64(), c2.next_u64());

        let mut parent3 = SimRng::seed_from_u64(7);
        let mut c3 = parent3.derive("thermal");
        let mut parent4 = SimRng::seed_from_u64(7);
        let mut c4 = parent4.derive("shot");
        assert_ne!(c3.next_u64(), c4.next_u64());
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = SimRng::seed_from_u64(123);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = SimRng::seed_from_u64(5);
        let rate = 4.0;
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(9);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        // Out-of-range probabilities are clamped, not UB.
        assert!(rng.chance(2.0));
        assert!(!rng.chance(-1.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
