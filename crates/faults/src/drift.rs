//! Slow analog failure models and their watchdog observables.
//!
//! Hard faults (cuts, hard-fails) are step functions; the sneaky
//! failures are ramps. An EDFA's gain wanders with temperature and pump
//! aging, a DFB laser's output droops over years of operation, a
//! photodetector's responsivity degrades with accumulated optical dose.
//! All three show up at the receive path as a slowly *falling Q-factor*
//! or *falling power* — exactly what [`ofpc_transponder::EngineWatchdog`]
//! monitors. These models produce those trajectories; [`detect_step`]
//! replays one against a watchdog to find when detection fires, and
//! [`sigma_ramp`] converts a drift into the engine-noise staircase the
//! packet simulator understands.

use ofpc_transponder::ber::q_to_ber;
use ofpc_transponder::{EngineWatchdog, Health};

/// EDFA gain drift: receive Q-factor falls linearly from `q0` as the
/// amplifier wanders off its operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdfaGainDrift {
    /// Healthy operating Q-factor.
    pub q0: f64,
    /// Q lost per second of drift.
    pub dq_per_s: f64,
}

impl EdfaGainDrift {
    pub fn q_at(&self, t_s: f64) -> f64 {
        (self.q0 - self.dq_per_s * t_s).max(0.0)
    }

    pub fn ber_at(&self, t_s: f64) -> f64 {
        q_to_ber(self.q_at(t_s))
    }

    /// Analog result-noise sigma implied by the drifted SNR: noise scales
    /// with `q0 / q(t)` from the calibrated `sigma0` (an engine tuned at
    /// `q0` sees its effective noise grow as the optical SNR falls).
    pub fn sigma_at(&self, sigma0: f64, t_s: f64) -> f64 {
        let q = self.q_at(t_s);
        if q <= 0.0 {
            // No usable signal: saturate well past any trip threshold.
            return sigma0 * 1e3;
        }
        sigma0 * (self.q0 / q)
    }
}

/// Laser power droop: output decays exponentially toward dark with time
/// constant `tau_s` (pump degradation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaserDroop {
    /// Healthy emitted power, W.
    pub p0_w: f64,
    /// Decay time constant, s.
    pub tau_s: f64,
}

impl LaserDroop {
    pub fn power_at(&self, t_s: f64) -> f64 {
        self.p0_w * (-t_s / self.tau_s).exp()
    }

    /// When the drooping power crosses `floor_w` (loss-of-light at the
    /// far photodetector), seconds. `None` if it never does.
    pub fn time_to_floor_s(&self, floor_w: f64) -> Option<f64> {
        if floor_w <= 0.0 || floor_w >= self.p0_w {
            return if floor_w >= self.p0_w {
                Some(0.0)
            } else {
                None
            };
        }
        Some(self.tau_s * (self.p0_w / floor_w).ln())
    }
}

/// Photodetector responsivity degradation: linear fractional loss per
/// second of operation. Received *electrical* signal scales with
/// responsivity, so this behaves like a power fade at the decision gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdDegradation {
    /// Healthy responsivity, A/W.
    pub r0_a_per_w: f64,
    /// Fraction of responsivity lost per second.
    pub loss_frac_per_s: f64,
}

impl PdDegradation {
    pub fn responsivity_at(&self, t_s: f64) -> f64 {
        self.r0_a_per_w * (1.0 - self.loss_frac_per_s * t_s).max(0.0)
    }

    /// Effective received power seen through the degraded detector.
    pub fn effective_power_w(&self, incident_w: f64, t_s: f64) -> f64 {
        incident_w * self.responsivity_at(t_s) / self.r0_a_per_w
    }
}

/// Sample a drift's sigma trajectory into the `sigmas` staircase a
/// [`crate::plan::FaultPlan::noise_ramp`] schedules: `steps` rungs at
/// `step_s` spacing starting from t = `step_s`.
pub fn sigma_ramp(drift: &EdfaGainDrift, sigma0: f64, step_s: f64, steps: usize) -> Vec<f64> {
    (1..=steps)
        .map(|i| drift.sigma_at(sigma0, i as f64 * step_s))
        .collect()
}

/// Replay a Q-factor drift against a watchdog sampled every `step_s`:
/// returns the sample index at which the engine stops being usable
/// (`None` if it survives all `steps` samples). This is the detection
/// half of the drift MTTR story: faster drift ⇒ earlier trip.
pub fn detect_step(
    watchdog: &mut EngineWatchdog,
    drift: &EdfaGainDrift,
    step_s: f64,
    steps: usize,
) -> Option<usize> {
    for i in 0..steps {
        let h = watchdog.observe_q(drift.q_at(i as f64 * step_s));
        if !h.usable() {
            return Some(i);
        }
    }
    None
}

/// Replay a power droop against a watchdog: index where loss-of-light
/// fires, `None` if the power stays above the floor throughout.
pub fn detect_loss_of_light(
    watchdog: &mut EngineWatchdog,
    droop: &LaserDroop,
    step_s: f64,
    steps: usize,
) -> Option<usize> {
    (0..steps)
        .find(|&i| watchdog.observe_power(droop.power_at(i as f64 * step_s)) == Health::LossOfLight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofpc_transponder::WatchdogConfig;

    #[test]
    fn gain_drift_monotone_down_in_q_up_in_ber() {
        let d = EdfaGainDrift {
            q0: 7.0,
            dq_per_s: 0.5,
        };
        assert!(d.q_at(2.0) < d.q_at(1.0));
        assert!(d.ber_at(2.0) > d.ber_at(1.0));
        assert_eq!(d.q_at(100.0), 0.0, "clamped at zero");
        assert!(d.sigma_at(0.01, 4.0) > 0.01);
        assert!(d.sigma_at(0.01, 100.0) > 1.0, "dead SNR saturates sigma");
    }

    #[test]
    fn faster_drift_trips_the_watchdog_earlier() {
        let slow = EdfaGainDrift {
            q0: 7.5,
            dq_per_s: 0.05,
        };
        let fast = EdfaGainDrift {
            q0: 7.5,
            dq_per_s: 0.2,
        };
        let mut w_slow = EngineWatchdog::new(WatchdogConfig::default());
        let mut w_fast = EngineWatchdog::new(WatchdogConfig::default());
        let t_slow = detect_step(&mut w_slow, &slow, 1.0, 200).expect("slow drift still trips");
        let t_fast = detect_step(&mut w_fast, &fast, 1.0, 200).expect("fast drift trips");
        assert!(
            t_fast < t_slow,
            "fast {t_fast} must be detected before slow {t_slow}"
        );
    }

    #[test]
    fn droop_crossing_the_alarm_bound_exactly_is_not_yet_a_violation() {
        // Pin the trip threshold to the BER the droop reaches at sample
        // k: that sample sits *exactly on* the bound, and the strict
        // `ber > ber_trip` test means violations only start at k+1, so
        // the debounced trip lands at k + trip_after.
        let drift = EdfaGainDrift {
            q0: 7.0,
            dq_per_s: 0.1,
        };
        let step_s = 1.0;
        let k = 20;
        let cfg = WatchdogConfig {
            ber_trip: drift.ber_at(k as f64 * step_s),
            ..WatchdogConfig::default()
        };
        let mut w = EngineWatchdog::new(cfg);
        let at = detect_step(&mut w, &drift, step_s, 200).expect("ramp must trip");
        assert_eq!(
            at,
            k + cfg.trip_after as usize,
            "at-bound sample k={k} must not count toward the debounce run"
        );
        // Replaying sample k alone against a fresh watchdog: usable.
        let mut fresh = EngineWatchdog::new(cfg);
        for _ in 0..cfg.trip_after * 4 {
            assert!(fresh.observe_q(drift.q_at(k as f64 * step_s)).usable());
        }
        assert_eq!(fresh.trips, 0);
    }

    #[test]
    fn recovered_drift_does_not_flap_the_watchdog() {
        // Gain droop trips the watchdog; the EDFA is re-pumped (Q back to
        // healthy) but wobbles briefly past the bound once more before
        // settling. Hysteresis holds the engine out until the clean run
        // completes — health never oscillates.
        let cfg = WatchdogConfig::default();
        let drift = EdfaGainDrift {
            q0: 7.5,
            dq_per_s: 0.25,
        };
        let mut w = EngineWatchdog::new(cfg);
        detect_step(&mut w, &drift, 1.0, 200).expect("drift trips");
        let mut transitions = 0;
        let mut last_usable = false;
        // clear_after-1 clean samples, one wobble, then a clean run.
        for _ in 0..cfg.clear_after - 1 {
            w.observe_q(7.5);
        }
        w.observe_q(2.0);
        for _ in 0..cfg.clear_after * 2 {
            let usable = w.observe_q(7.5).usable();
            if usable != last_usable {
                transitions += 1;
            }
            last_usable = usable;
        }
        assert!(last_usable, "sustained clean run must re-arm");
        assert_eq!(
            transitions, 1,
            "exactly one unusable→usable transition: no flapping"
        );
        assert_eq!(w.trips, 1);
    }

    #[test]
    fn droop_crosses_the_floor_when_it_should() {
        let droop = LaserDroop {
            p0_w: 1e-3,
            tau_s: 10.0,
        };
        let t = droop.time_to_floor_s(1e-6).expect("decays through floor");
        assert!((droop.power_at(t) - 1e-6).abs() / 1e-6 < 1e-9);
        assert_eq!(droop.time_to_floor_s(2e-3), Some(0.0), "already below");
        assert_eq!(droop.time_to_floor_s(0.0), None, "never reaches zero");
        let mut w = EngineWatchdog::new(WatchdogConfig::default());
        let idx = detect_loss_of_light(&mut w, &droop, 10.0, 20).expect("LOS fires");
        assert!(idx > 0, "not dark at t=0");
    }

    #[test]
    fn pd_degradation_fades_effective_power() {
        let pd = PdDegradation {
            r0_a_per_w: 0.8,
            loss_frac_per_s: 0.01,
        };
        assert!((pd.effective_power_w(1e-3, 0.0) - 1e-3).abs() < 1e-15);
        assert!(pd.effective_power_w(1e-3, 50.0) < 1e-3);
        assert_eq!(pd.responsivity_at(200.0), 0.0, "clamped dead");
    }

    #[test]
    fn sigma_ramp_is_monotone_for_falling_q() {
        let d = EdfaGainDrift {
            q0: 7.0,
            dq_per_s: 0.3,
        };
        let ramp = sigma_ramp(&d, 0.01, 1.0, 10);
        assert_eq!(ramp.len(), 10);
        assert!(ramp.windows(2).all(|w| w[1] > w[0]));
    }
}
