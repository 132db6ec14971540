//! BER/SNR watchdogs and loss-of-light detection.
//!
//! The fault-detection half of the recovery loop: every engine site runs
//! a watchdog over its measured link quality (Q-factor samples from the
//! receive path, mapped to BER via [`crate::ber::q_to_ber`]). Slow
//! analog drift — EDFA gain wander, laser power droop, photodetector
//! responsivity degradation — pushes BER up gradually; the watchdog
//! EWMA-smooths samples, trips *unhealthy* after a run of threshold
//! violations (debounced, so one noisy sample never fails an engine),
//! and re-arms only after a longer run of clean samples (hysteresis, so
//! a marginal engine does not flap). A cut fiber is detected separately
//! and instantly as **loss of light**: received power below the
//! photodetector floor.
//!
//! The controller polls [`EngineWatchdog::health`] and excludes
//! non-[`Health::Healthy`]/[`Health::Degraded`] engines from allocation
//! (protection switching); `ofpc-net` marks the corresponding engine
//! slots unhealthy so in-flight packets pass through tagged rather than
//! carrying garbage results.

use crate::ber::q_to_ber;
use ofpc_telemetry::{Counter, Telemetry};

/// Engine health as judged by the watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// BER comfortably under the warning threshold.
    Healthy,
    /// BER above the warning threshold but not tripped — still usable,
    /// flagged for the controller to watch.
    Degraded,
    /// Sustained BER violations: results can no longer be trusted.
    Unhealthy,
    /// Received power under the detector floor — cut fiber or dead
    /// laser. Detection is immediate, not debounced.
    LossOfLight,
}

impl Health {
    /// Whether the engine may keep serving traffic.
    pub fn usable(self) -> bool {
        matches!(self, Health::Healthy | Health::Degraded)
    }
}

/// Watchdog thresholds and debounce settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// EWMA BER above this is a violation; enough in a row trips the
    /// watchdog. Default 1e-6 (well past FEC comfort).
    pub ber_trip: f64,
    /// EWMA BER above this marks the engine degraded. Default 1e-9
    /// (the classic Q≈6 operating point).
    pub ber_warn: f64,
    /// Received optical power floor, watts; below it is loss of light.
    /// Default 1 µW (−30 dBm).
    pub power_floor_w: f64,
    /// EWMA weight of each new sample, in (0, 1]. Default 0.3.
    pub alpha: f64,
    /// Consecutive violating samples before tripping. Default 3.
    pub trip_after: u32,
    /// Consecutive clean samples before a tripped watchdog re-arms.
    /// Default 8 (hysteresis: recovery is harder than failure).
    pub clear_after: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            ber_trip: 1e-6,
            ber_warn: 1e-9,
            power_floor_w: 1e-6,
            alpha: 0.3,
            trip_after: 3,
            clear_after: 8,
        }
    }
}

/// Per-engine watchdog state machine.
#[derive(Debug, Clone)]
pub struct EngineWatchdog {
    cfg: WatchdogConfig,
    ewma_ber: Option<f64>,
    violations: u32,
    clean: u32,
    tripped: bool,
    loss_of_light: bool,
    /// How many times the watchdog has tripped over its lifetime.
    pub trips: u64,
    tel_trips: Counter,
}

impl EngineWatchdog {
    pub fn new(cfg: WatchdogConfig) -> Self {
        assert!(cfg.alpha > 0.0 && cfg.alpha <= 1.0, "alpha in (0,1]");
        assert!(cfg.ber_trip >= cfg.ber_warn, "trip must be ≥ warn");
        assert!(cfg.trip_after > 0 && cfg.clear_after > 0);
        EngineWatchdog {
            cfg,
            ewma_ber: None,
            violations: 0,
            clean: 0,
            tripped: false,
            loss_of_light: false,
            trips: 0,
            tel_trips: Counter::noop(),
        }
    }

    /// Profiling hook: mirror trips onto `watchdog_trips_total`.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel_trips = tel.counter("watchdog_trips_total", &Vec::new());
    }

    /// Feed one BER sample; returns the resulting health.
    ///
    /// Trip/clear debouncing runs on the *raw* sample (a run of
    /// `trip_after` violations trips; a run of `clear_after` clean
    /// samples re-arms), while the EWMA provides the smoothed estimate
    /// behind the degraded warning zone. On re-arm the EWMA is re-seeded
    /// from the current sample — recovery implies the drift was repaired
    /// or recalibrated, so the stale elevated estimate is discarded.
    pub fn observe_ber(&mut self, ber: f64) -> Health {
        let ber = ber.clamp(0.0, 0.5);
        let ewma = match self.ewma_ber {
            Some(prev) => self.cfg.alpha * ber + (1.0 - self.cfg.alpha) * prev,
            None => ber,
        };
        self.ewma_ber = Some(ewma);
        if ber > self.cfg.ber_trip {
            self.violations += 1;
            self.clean = 0;
            if !self.tripped && self.violations >= self.cfg.trip_after {
                self.tripped = true;
                self.trips += 1;
                self.tel_trips.inc();
            }
        } else {
            self.violations = 0;
            self.clean += 1;
            if self.tripped && self.clean >= self.cfg.clear_after {
                self.tripped = false;
                self.ewma_ber = Some(ber);
            }
        }
        self.health()
    }

    /// Feed one Q-factor sample (receive-path level statistics).
    pub fn observe_q(&mut self, q: f64) -> Health {
        self.observe_ber(q_to_ber(q))
    }

    /// Feed one received-power sample; below the floor is loss of light
    /// (immediate, undebounced — a cut fiber is unambiguous). Light
    /// returning clears it just as immediately.
    pub fn observe_power(&mut self, watts: f64) -> Health {
        self.loss_of_light = watts < self.cfg.power_floor_w;
        self.health()
    }

    /// Current smoothed BER estimate.
    pub fn ewma_ber(&self) -> Option<f64> {
        self.ewma_ber
    }

    pub fn health(&self) -> Health {
        if self.loss_of_light {
            Health::LossOfLight
        } else if self.tripped {
            Health::Unhealthy
        } else if self.ewma_ber.is_some_and(|b| b > self.cfg.ber_warn) {
            Health::Degraded
        } else {
            Health::Healthy
        }
    }
}

impl Default for EngineWatchdog {
    fn default() -> Self {
        EngineWatchdog::new(WatchdogConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_samples_stay_healthy() {
        let mut w = EngineWatchdog::default();
        for _ in 0..50 {
            assert_eq!(w.observe_q(7.5), Health::Healthy);
        }
        assert_eq!(w.trips, 0);
    }

    #[test]
    fn drift_ramp_degrades_then_trips() {
        // Q drifting down 7.5 → 3.0, as gain drift would push it.
        let mut w = EngineWatchdog::default();
        let mut saw_degraded = false;
        let mut tripped_at = None;
        for step in 0..=45 {
            let q = 7.5 - step as f64 * 0.1;
            match w.observe_q(q) {
                Health::Degraded => saw_degraded = true,
                Health::Unhealthy if tripped_at.is_none() => tripped_at = Some(step),
                _ => {}
            }
        }
        assert!(saw_degraded, "should pass through the warning zone");
        let at = tripped_at.expect("ramp must trip the watchdog");
        assert!(at >= 3, "debounce: needs trip_after violations, got {at}");
        assert_eq!(w.trips, 1, "one sustained excursion = one trip");
        assert_eq!(w.health(), Health::Unhealthy);
    }

    #[test]
    fn single_bad_sample_does_not_trip() {
        let mut w = EngineWatchdog::default();
        for _ in 0..10 {
            w.observe_q(8.0);
        }
        // One glitch then clean again: debounce holds — no trip. The
        // EWMA keeps the estimate elevated (possibly Degraded) but the
        // engine remains usable throughout.
        w.observe_ber(1e-3);
        for _ in 0..5 {
            w.observe_q(8.0);
        }
        assert!(w.health().usable(), "{:?}", w.health());
        assert_eq!(w.trips, 0);
    }

    #[test]
    fn recovery_needs_sustained_clean_samples() {
        let mut w = EngineWatchdog::default();
        for _ in 0..5 {
            w.observe_ber(1e-2);
        }
        assert_eq!(w.health(), Health::Unhealthy);
        // A couple of clean samples are not enough (hysteresis)…
        w.observe_ber(1e-12);
        w.observe_ber(1e-12);
        assert_eq!(w.health(), Health::Unhealthy);
        // …but a sustained clean run re-arms.
        for _ in 0..20 {
            w.observe_ber(1e-12);
        }
        assert_eq!(w.health(), Health::Healthy);
        assert_eq!(w.trips, 1);
    }

    #[test]
    fn loss_of_light_is_immediate_and_reversible() {
        let mut w = EngineWatchdog::default();
        w.observe_q(8.0);
        assert_eq!(w.observe_power(1e-9), Health::LossOfLight);
        assert!(!w.health().usable());
        // Light restored (e.g. protection switch to the backup path).
        assert_eq!(w.observe_power(1e-3), Health::Healthy);
        assert!(w.health().usable());
    }

    #[test]
    fn exactly_at_trip_bound_never_trips() {
        // The violation test is strict (`ber > ber_trip`): an engine
        // sitting *exactly* on the alarm bound is marginal-but-usable,
        // not failed. Only crossing the bound counts.
        let cfg = WatchdogConfig::default();
        let mut w = EngineWatchdog::new(cfg);
        for _ in 0..cfg.trip_after * 10 {
            let h = w.observe_ber(cfg.ber_trip);
            assert!(h.usable(), "at-bound sample must stay usable, got {h:?}");
        }
        assert_eq!(w.trips, 0);
        // EWMA sits at the bound, well past the warning zone.
        assert_eq!(w.health(), Health::Degraded);
    }

    #[test]
    fn infinitesimally_above_bound_trips_after_debounce() {
        let cfg = WatchdogConfig::default();
        let mut w = EngineWatchdog::new(cfg);
        let above = cfg.ber_trip * (1.0 + 1e-12);
        for i in 1..=cfg.trip_after {
            let h = w.observe_ber(above);
            if i < cfg.trip_after {
                assert!(
                    h.usable(),
                    "violation {i} of {} must not trip",
                    cfg.trip_after
                );
            } else {
                assert_eq!(h, Health::Unhealthy, "trip exactly at the debounce count");
            }
        }
        assert_eq!(w.trips, 1);
    }

    #[test]
    fn at_bound_samples_reset_the_violation_run() {
        // trip_after-1 violations followed by an exactly-at-bound sample:
        // the run resets, so the next violation starts a fresh count.
        let cfg = WatchdogConfig::default();
        let mut w = EngineWatchdog::new(cfg);
        let above = cfg.ber_trip * 1.001;
        for _ in 0..cfg.trip_after - 1 {
            w.observe_ber(above);
        }
        w.observe_ber(cfg.ber_trip); // at the bound: clean
        for _ in 0..cfg.trip_after - 1 {
            w.observe_ber(above);
        }
        assert!(w.health().usable(), "interrupted runs must not accumulate");
        assert_eq!(w.trips, 0);
    }

    #[test]
    fn recovery_hysteresis_does_not_flap() {
        // A marginal engine oscillating near the bound after a trip:
        // every violation restarts the clean run, so the watchdog stays
        // Unhealthy rather than flapping in and out of service.
        let cfg = WatchdogConfig::default();
        let mut w = EngineWatchdog::new(cfg);
        for _ in 0..cfg.trip_after {
            w.observe_ber(1e-3);
        }
        assert_eq!(w.health(), Health::Unhealthy);
        for _cycle in 0..10 {
            for _ in 0..cfg.clear_after - 1 {
                w.observe_ber(1e-12);
            }
            w.observe_ber(1e-3); // one excursion short of re-arming
            assert_eq!(w.health(), Health::Unhealthy, "must not flap usable");
        }
        assert_eq!(w.trips, 1, "still the one original trip");
        // A genuinely repaired engine re-arms after a sustained clean run
        // and then needs a *full* fresh debounce to trip again.
        for _ in 0..cfg.clear_after {
            w.observe_ber(1e-12);
        }
        assert_eq!(w.health(), Health::Healthy);
        w.observe_ber(1e-3);
        assert!(
            w.health().usable(),
            "one post-recovery glitch must not re-trip"
        );
        assert_eq!(w.trips, 1);
    }

    #[test]
    fn usable_partition() {
        assert!(Health::Healthy.usable());
        assert!(Health::Degraded.usable());
        assert!(!Health::Unhealthy.usable());
        assert!(!Health::LossOfLight.usable());
    }
}
