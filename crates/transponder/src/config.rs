//! Transponder reconfiguration state machine.
//!
//! The paper's §3: "Service providers will reconfigure each transponder
//! according to the desired operation" and the controller "dynamically
//! reconfigure\[s\] them to accommodate a diverse set of photonic computing
//! tasks". Reconfiguration is not free — weights must be pushed over the
//! control channel and thermo-optic phase shifters need settling time —
//! so the controller's allocator has to know the cost. This module
//! models that: a state machine with explicit reconfiguration latency and
//! a version counter the controller uses for idempotent updates.

use crate::compute::ComputeOp;

/// Reconfiguration timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfigTiming {
    /// Control-channel transfer rate for weights/patterns, bits/s.
    pub control_rate_bps: f64,
    /// Fixed thermo-optic settling time after new analog set-points, s.
    pub settle_s: f64,
}

impl Default for ReconfigTiming {
    fn default() -> Self {
        ReconfigTiming {
            control_rate_bps: 1e9, // 1 Gb/s management channel
            settle_s: 100e-6,      // thermal phase-shifter settling
        }
    }
}

impl ReconfigTiming {
    /// Derive the control-plane timing from a calibrated weight DAC:
    /// set-points stream at the part's word rate (bits × samples/s),
    /// capped by the 1 Gb/s management channel; thermo-optic settling
    /// is a property of the phase shifters, not the DAC, and stays.
    pub fn from_weight_dac(dac: &dyn ofpc_photonics::parts::DacPart) -> Self {
        ReconfigTiming {
            control_rate_bps: (dac.sample_rate_hz() * f64::from(dac.bits())).min(1e9),
            settle_s: ReconfigTiming::default().settle_s,
        }
    }

    /// Time to install `op`, seconds: payload transfer plus settling.
    pub fn reconfigure_latency_s(&self, op: &ComputeOp) -> f64 {
        let payload_bits = match op {
            // 16-bit fixed-point weights.
            ComputeOp::DotProduct { weights } => weights.len() * 16,
            ComputeOp::PatternMatch { pattern } => pattern.len(),
            ComputeOp::Nonlinear { .. } => 64, // a handful of set-points
        };
        payload_bits as f64 / self.control_rate_bps + self.settle_s
    }
}

/// Operational state of a compute transponder.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineState {
    /// No operation loaded; transit only.
    Idle,
    /// Operation loaded and serving.
    Active { op_tag: u8, version: u64 },
    /// Mid-reconfiguration until the embedded deadline (sim time, ps).
    Reconfiguring { until_ps: u64, version: u64 },
}

/// The reconfigurable control plane of one transponder.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineControl {
    pub timing: ReconfigTiming,
    pub state: EngineState,
    /// Monotonic configuration version.
    pub version: u64,
}

impl EngineControl {
    pub fn new(timing: ReconfigTiming) -> Self {
        EngineControl {
            timing,
            state: EngineState::Idle,
            version: 0,
        }
    }

    /// Begin installing `op` at sim time `now_ps`. Returns the completion
    /// time in picoseconds. Idempotent per version: the caller gets the
    /// new version to match against status reports.
    pub fn begin_reconfigure(&mut self, op: &ComputeOp, now_ps: u64) -> (u64, u64) {
        let latency_ps = (self.timing.reconfigure_latency_s(op) * 1e12).round() as u64;
        let until_ps = now_ps + latency_ps;
        self.version += 1;
        self.state = EngineState::Reconfiguring {
            until_ps,
            version: self.version,
        };
        (until_ps, self.version)
    }

    /// Advance the state machine to sim time `now_ps`; completes any
    /// finished reconfiguration. `op_tag` is the tag that becomes active.
    pub fn tick(&mut self, now_ps: u64, op_tag: u8) {
        if let EngineState::Reconfiguring { until_ps, version } = self.state {
            if now_ps >= until_ps {
                self.state = EngineState::Active { op_tag, version };
            }
        }
    }

    /// Whether the engine can serve compute frames right now.
    pub fn is_active(&self) -> bool {
        matches!(self.state, EngineState::Active { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot_op(n: usize) -> ComputeOp {
        ComputeOp::DotProduct {
            weights: vec![0.5; n],
        }
    }

    #[test]
    fn reconfig_latency_scales_with_payload() {
        let t = ReconfigTiming::default();
        let small = t.reconfigure_latency_s(&dot_op(16));
        let large = t.reconfigure_latency_s(&dot_op(16_000));
        assert!(large > small);
        // Settling dominates small payloads.
        assert!((small - 100e-6).abs() / 100e-6 < 0.01, "small {small}");
    }

    #[test]
    fn state_machine_walkthrough() {
        let mut ctl = EngineControl::new(ReconfigTiming::default());
        assert!(!ctl.is_active());
        let (until, v) = ctl.begin_reconfigure(&dot_op(64), 1_000);
        assert_eq!(v, 1);
        assert!(until > 1_000);
        // Before the deadline: still reconfiguring.
        ctl.tick(until - 1, 1);
        assert!(!ctl.is_active());
        // At the deadline: active.
        ctl.tick(until, 1);
        assert!(ctl.is_active());
        assert_eq!(
            ctl.state,
            EngineState::Active {
                op_tag: 1,
                version: 1
            }
        );
    }

    #[test]
    fn versions_are_monotonic() {
        let mut ctl = EngineControl::new(ReconfigTiming::default());
        let (_, v1) = ctl.begin_reconfigure(&dot_op(4), 0);
        let (_, v2) = ctl.begin_reconfigure(&dot_op(4), 10);
        assert!(v2 > v1);
    }

    #[test]
    fn reconfigure_preempts_active_state() {
        let mut ctl = EngineControl::new(ReconfigTiming::default());
        let (until, _) = ctl.begin_reconfigure(&dot_op(4), 0);
        ctl.tick(until, 1);
        assert!(ctl.is_active());
        ctl.begin_reconfigure(&dot_op(8), until + 10);
        assert!(!ctl.is_active());
    }

    #[test]
    fn pattern_and_nonlinear_payload_sizes() {
        let t = ReconfigTiming::default();
        let pm = ComputeOp::PatternMatch {
            pattern: vec![true; 1024],
        };
        let nl = ComputeOp::Nonlinear { len: 10 };
        assert!(t.reconfigure_latency_s(&pm) > t.reconfigure_latency_s(&nl));
    }
}
