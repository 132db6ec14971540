//! Open-loop arrival generators.
//!
//! The serving experiments need traffic that does not slow down when the
//! system saturates (closed-loop harnesses hide the saturation knee).
//! Two processes cover the paper's "N users share one wavelength"
//! question: memoryless Poisson, and a two-state Markov-modulated Poisson
//! process (MMPP-2) for bursty tenants — the standard minimal model of
//! ON/OFF burstiness in serving literature.
//!
//! All draws come from a [`SimRng`] stream derived per tenant, so adding
//! a tenant never perturbs another tenant's arrival times.

use ofpc_photonics::SimRng;

/// Picoseconds per second (the runtime's clock unit).
pub(crate) const PS_PER_SEC: f64 = 1e12;

/// Arrival process specification.
#[derive(Debug, Clone, Copy)]
pub enum ArrivalSpec {
    /// Memoryless arrivals at `rate_rps` requests/second.
    Poisson { rate_rps: f64 },
    /// Two-state MMPP: exponentially distributed dwell in a calm and a
    /// burst state, each with its own Poisson rate.
    Mmpp {
        calm_rps: f64,
        burst_rps: f64,
        /// Mean dwell time in the calm state, seconds.
        mean_calm_s: f64,
        /// Mean dwell time in the burst state, seconds.
        mean_burst_s: f64,
    },
}

/// A running arrival process: yields successive absolute arrival times.
#[derive(Debug, Clone)]
pub(crate) struct ArrivalProcess {
    spec: ArrivalSpec,
    rng: SimRng,
    /// Absolute time of the last arrival, ps.
    now_ps: u64,
    /// MMPP state: currently bursting, and when the state flips next.
    bursting: bool,
    state_flip_ps: u64,
}

impl ArrivalProcess {
    pub(crate) fn new(spec: ArrivalSpec, mut rng: SimRng) -> Self {
        let (bursting, flip) = match spec {
            ArrivalSpec::Poisson { .. } => (false, u64::MAX),
            ArrivalSpec::Mmpp { mean_calm_s, .. } => {
                let dwell = rng.exponential(1.0 / mean_calm_s);
                (false, (dwell * PS_PER_SEC) as u64)
            }
        };
        ArrivalProcess {
            spec,
            rng,
            now_ps: 0,
            bursting,
            state_flip_ps: flip,
        }
    }

    fn current_rate_rps(&self) -> f64 {
        match self.spec {
            ArrivalSpec::Poisson { rate_rps } => rate_rps,
            ArrivalSpec::Mmpp {
                calm_rps,
                burst_rps,
                ..
            } => {
                if self.bursting {
                    burst_rps
                } else {
                    calm_rps
                }
            }
        }
    }

    /// Advance the MMPP state machine across `t` if needed.
    fn advance_state_to(&mut self, t_ps: u64) {
        let ArrivalSpec::Mmpp {
            mean_calm_s,
            mean_burst_s,
            ..
        } = self.spec
        else {
            return;
        };
        while t_ps >= self.state_flip_ps {
            self.bursting = !self.bursting;
            let mean_dwell = if self.bursting {
                mean_burst_s
            } else {
                mean_calm_s
            };
            let dwell_ps = (self.rng.exponential(1.0 / mean_dwell) * PS_PER_SEC) as u64;
            self.state_flip_ps = self.state_flip_ps.saturating_add(dwell_ps.max(1));
        }
    }

    /// Absolute time of the next arrival, ps. Monotonically increasing.
    pub(crate) fn next_arrival_ps(&mut self) -> u64 {
        loop {
            let rate = self.current_rate_rps();
            assert!(rate > 0.0, "arrival rate must be positive");
            let gap_s = self.rng.exponential(rate);
            let candidate = self.now_ps + ((gap_s * PS_PER_SEC) as u64).max(1);
            // If an MMPP state flip lands before the candidate arrival,
            // the memorylessness of the exponential lets us restart the
            // draw from the flip instant at the new rate.
            if candidate > self.state_flip_ps {
                self.now_ps = self.state_flip_ps;
                self.advance_state_to(self.state_flip_ps);
                continue;
            }
            self.now_ps = candidate;
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_is_respected() {
        let mut p = ArrivalProcess::new(
            ArrivalSpec::Poisson { rate_rps: 1000.0 },
            SimRng::seed_from_u64(1),
        );
        let n = 20_000;
        let mut last = 0;
        for _ in 0..n {
            last = p.next_arrival_ps();
        }
        let mean_gap_s = last as f64 / PS_PER_SEC / n as f64;
        assert!(
            (mean_gap_s - 1e-3).abs() < 5e-5,
            "mean gap {mean_gap_s} vs expected 1e-3"
        );
    }

    #[test]
    fn arrivals_are_strictly_increasing_and_deterministic() {
        let spec = ArrivalSpec::Mmpp {
            calm_rps: 100.0,
            burst_rps: 10_000.0,
            mean_calm_s: 0.01,
            mean_burst_s: 0.002,
        };
        let mut a = ArrivalProcess::new(spec, SimRng::seed_from_u64(7));
        let mut b = ArrivalProcess::new(spec, SimRng::seed_from_u64(7));
        let mut last = 0;
        for _ in 0..5_000 {
            let ta = a.next_arrival_ps();
            let tb = b.next_arrival_ps();
            assert_eq!(ta, tb);
            assert!(ta > last);
            last = ta;
        }
    }

    #[test]
    fn mmpp_long_run_rate_matches_mixture() {
        let spec = ArrivalSpec::Mmpp {
            calm_rps: 500.0,
            burst_rps: 5_000.0,
            mean_calm_s: 0.004,
            mean_burst_s: 0.001,
        };
        let mut p = ArrivalProcess::new(spec, SimRng::seed_from_u64(3));
        let n = 50_000;
        let mut last = 0;
        for _ in 0..n {
            last = p.next_arrival_ps();
        }
        let measured_rps = n as f64 / (last as f64 / PS_PER_SEC);
        // Time-weighted mixture of the calm and burst rates.
        let expected = (500.0 * 0.004 + 5_000.0 * 0.001) / (0.004 + 0.001);
        assert!(
            (measured_rps - expected).abs() / expected < 0.1,
            "measured {measured_rps} expected {expected}"
        );
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Squared coefficient of variation of inter-arrival gaps: 1 for
        // Poisson, > 1 for MMPP with distinct rates.
        let cv2 = |spec: ArrivalSpec, seed: u64| {
            let mut p = ArrivalProcess::new(spec, SimRng::seed_from_u64(seed));
            let mut gaps = Vec::new();
            let mut prev = 0u64;
            for _ in 0..30_000 {
                let t = p.next_arrival_ps();
                gaps.push((t - prev) as f64);
                prev = t;
            }
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            var / (mean * mean)
        };
        let poisson = cv2(ArrivalSpec::Poisson { rate_rps: 2_000.0 }, 11);
        let mmpp = cv2(
            ArrivalSpec::Mmpp {
                calm_rps: 200.0,
                burst_rps: 20_000.0,
                mean_calm_s: 0.005,
                mean_burst_s: 0.0005,
            },
            11,
        );
        assert!((poisson - 1.0).abs() < 0.15, "poisson cv2 {poisson}");
        assert!(mmpp > 2.0, "mmpp cv2 {mmpp}");
    }
}
