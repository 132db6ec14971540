//! The photonic compute transponder of Fig. 4.
//!
//! The receive path is augmented with a **photonic engine** that operates
//! on the incoming light before the conventional photodetector:
//!
//! 1. An *optical preamble detector* (the P2 pattern-matching front end)
//!    locks onto new frames.
//! 2. The frame's digital header is sliced by a monitor photodiode — OOK
//!    slicing is a 1-bit analog comparison, not a full-rate ADC.
//! 3. For compute frames, the **operand segment** that follows the header
//!    is *amplitude-encoded*: each symbol's intensity is one operand
//!    element, exactly how delocalized photonic deep-learning systems
//!    ship data today. The engine consumes those samples directly —
//!    a weight modulator and an integrating photodetector for P1, the
//!    interference matcher for P2, the electro-optic activation for P3 —
//!    with **no per-element DAC/ADC conversion** (the §2.2 saving).
//! 4. The result lands in the frame's reserved result field and the frame
//!    is regenerated onto the next span.
//!
//! The conventional alternative (commodity transponder + electronic or
//! photonic accelerator) pays full O-E-O plus per-element conversions;
//! experiment E3 measures both ledgers.

use crate::frame::{Frame, FrameError};
use crate::rxpath::{RxConfig, RxPath};
use crate::txpath::{TxConfig, TxPath};
use ofpc_engine::matcher::{MatcherConfig, PatternMatcher};
use ofpc_engine::nonlinear::{NonlinearConfig, NonlinearUnit};
use ofpc_engine::Primitive;
use ofpc_photonics::energy::EnergyLedger;
use ofpc_photonics::modulator::{MachZehnderModulator, MzmConfig};
use ofpc_photonics::photodetector::{Photodetector, PhotodetectorConfig};
use ofpc_photonics::signal::{AnalogWaveform, OpticalField};
use ofpc_photonics::SimRng;

/// The operation loaded into a transponder's photonic engine. The
/// centralized controller installs these (§3); the op's wire tag must
/// match the frame's `op` byte for the engine to fire.
#[derive(Debug, Clone)]
pub enum ComputeOp {
    /// P1: dot product of the operand segment with stored weights
    /// (signed, in `[-1, 1]`).
    DotProduct { weights: Vec<f64> },
    /// P2: match the operand segment (as bits) against a stored pattern.
    PatternMatch { pattern: Vec<bool> },
    /// P3: apply the nonlinear activation element-wise to the operand
    /// segment and re-emit it.
    Nonlinear { len: usize },
}

impl ComputeOp {
    /// The primitive class this op needs.
    pub(crate) fn primitive(&self) -> Primitive {
        match self {
            ComputeOp::DotProduct { .. } => Primitive::VectorDotProduct,
            ComputeOp::PatternMatch { .. } => Primitive::PatternMatching,
            ComputeOp::Nonlinear { .. } => Primitive::NonlinearFunction,
        }
    }

    /// Wire tag carried in the frame's `op` byte.
    pub(crate) fn wire_tag(&self) -> u8 {
        self.primitive().wire_id()
    }

    /// Number of operand symbols that follow the frame header.
    pub(crate) fn operand_len(&self) -> usize {
        match self {
            ComputeOp::DotProduct { weights } => weights.len(),
            ComputeOp::PatternMatch { pattern } => pattern.len(),
            ComputeOp::Nonlinear { len } => *len,
        }
    }
}

/// The outcome of running a compute operation on a frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ComputeResult {
    /// P1 dot-product value.
    Dot(f64),
    /// P2 match outcome.
    Match { matched: bool, distance: f64 },
    /// P3: number of elements transformed (the transformed segment rides
    /// the regenerated output field).
    Nonlinear { elements: usize },
}

/// Everything `process` returns for one incoming field.
#[derive(Debug)]
pub struct ProcessOutcome {
    /// The frame, with the result field filled in when computation ran.
    pub frame: Frame,
    /// The computation result, if the engine fired.
    pub computed: Option<ComputeResult>,
    /// Processing latency added at this node, seconds.
    pub added_latency_s: f64,
}

/// Encode a signed result value as 4 fixed-point bytes (Q16.16,
/// big-endian) for the frame's result field.
pub(crate) fn encode_result(value: f64) -> [u8; 4] {
    let fixed = (value * 65536.0)
        .round()
        .clamp(i32::MIN as f64, i32::MAX as f64) as i32;
    fixed.to_be_bytes()
}

/// Decode a Q16.16 result field.
pub fn decode_result(bytes: [u8; 4]) -> f64 {
    i32::from_be_bytes(bytes) as f64 / 65536.0
}

/// Fixed engine pipeline latency of every compute transponder, seconds
/// (analog settling).
pub const ENGINE_LATENCY_S: f64 = 5e-9;

/// Configuration for the photonic compute transponder.
#[derive(Debug, Clone)]
pub struct ComputeTransponderConfig {
    pub tx: TxConfig,
    pub(crate) rx: RxConfig,
    /// Weight modulator for the P1 path.
    pub weight_mzm: MzmConfig,
    /// Integrating photodetector for the engine readout.
    pub(crate) engine_pd: PhotodetectorConfig,
    /// Monitor photodiode for header slicing.
    pub(crate) monitor_pd: PhotodetectorConfig,
    /// Matcher hardware for preamble detection and the P2 op.
    pub(crate) matcher: MatcherConfig,
    /// P3 activation hardware.
    pub(crate) nonlinear: NonlinearConfig,
    /// Single result-readout ADC energy, J.
    pub result_adc_energy_j: f64,
}

impl ComputeTransponderConfig {
    pub fn ideal() -> Self {
        ComputeTransponderConfig {
            tx: TxConfig::ideal(),
            rx: RxConfig::ideal(),
            weight_mzm: MzmConfig::ideal(),
            engine_pd: PhotodetectorConfig::ideal(),
            monitor_pd: PhotodetectorConfig::ideal(),
            matcher: MatcherConfig::ideal(),
            nonlinear: NonlinearConfig::ideal(),
            result_adc_energy_j: 0.0,
        }
    }

    pub fn realistic() -> Self {
        ComputeTransponderConfig {
            tx: TxConfig::realistic(),
            rx: RxConfig::realistic(),
            weight_mzm: MzmConfig::default(),
            engine_pd: PhotodetectorConfig::default(),
            monitor_pd: PhotodetectorConfig::default(),
            matcher: MatcherConfig::realistic(),
            nonlinear: NonlinearConfig::ideal(),
            result_adc_energy_j: ofpc_photonics::energy::constants::ADC_SAMPLE_J,
        }
    }

    /// The realistic transponder with its converter, modulator, and
    /// laser blocks swapped for calibrated catalog parts (the
    /// `ofpc-dse` component library). The operand DAC drives both the
    /// TX path and the line rate — the serial line cannot outrun the
    /// DAC at one 8-bit symbol per conversion — and the modulator part
    /// serves as both the TX MZM and the P1 weight arm.
    pub fn with_parts(
        dac: &dyn ofpc_photonics::parts::DacPart,
        adc: &dyn ofpc_photonics::parts::AdcPart,
        modulator: &dyn ofpc_photonics::parts::ModulatorPart,
        laser: &dyn ofpc_photonics::parts::LaserPart,
    ) -> Self {
        let mut cfg = ComputeTransponderConfig::realistic();
        cfg.tx.laser = laser.laser_config();
        cfg.tx.mzm = modulator.mzm_config();
        cfg.tx.dac = dac.converter_config();
        cfg.tx.line_rate_bps = cfg.tx.line_rate_bps.min(dac.sample_rate_hz() * 8.0);
        cfg.rx.adc = adc.converter_config();
        cfg.weight_mzm = modulator.mzm_config();
        cfg.result_adc_energy_j = adc.energy_per_sample_j();
        cfg
    }
}

/// A photonic compute transponder (Fig. 4).
#[derive(Debug)]
pub struct PhotonicComputeTransponder {
    pub(crate) config: ComputeTransponderConfig,
    pub tx: TxPath,
    /// Conventional receive path (used when the frame terminates here).
    pub(crate) rx: RxPath,
    weight_mzm: MachZehnderModulator,
    engine_pd: Photodetector,
    monitor_pd: Photodetector,
    preamble_matcher: PatternMatcher,
    nonlinear: NonlinearUnit,
    /// The loaded operation (installed by the controller).
    loaded_op: Option<ComputeOp>,
    /// Calibrated engine unit current (per unit operand×weight), A.
    engine_unit_a: Option<f64>,
    /// Expected received '1'-level power, W (from the link budget).
    one_level_w: Option<f64>,
    /// Monitor slicing threshold, A.
    monitor_threshold_a: Option<f64>,
    pub(crate) result_readouts: u64,
}

impl PhotonicComputeTransponder {
    pub fn new(config: ComputeTransponderConfig, rng: &mut SimRng) -> Self {
        let tx = TxPath::new(config.tx.clone(), rng);
        let rx = RxPath::new(config.rx.clone(), rng);
        let mut matcher = PatternMatcher::new(config.matcher.clone(), rng);
        matcher.calibrate(64);
        let mut nonlinear = NonlinearUnit::new(config.nonlinear.clone(), rng);
        nonlinear.calibrate();
        PhotonicComputeTransponder {
            tx,
            rx,
            weight_mzm: MachZehnderModulator::new(config.weight_mzm.clone()),
            engine_pd: Photodetector::new(config.engine_pd.clone(), rng.derive("engine-pd")),
            monitor_pd: Photodetector::new(config.monitor_pd.clone(), rng.derive("monitor-pd")),
            preamble_matcher: matcher,
            nonlinear,
            config,
            loaded_op: None,
            engine_unit_a: None,
            one_level_w: None,
            monitor_threshold_a: None,
            result_readouts: 0,
        }
    }

    /// Ideal device with loopback calibration.
    pub fn ideal(rng: &mut SimRng) -> Self {
        let mut t = PhotonicComputeTransponder::new(ComputeTransponderConfig::ideal(), rng);
        let one = t.tx.one_level_w();
        t.calibrate(one);
        t
    }

    /// Calibrate for an expected received '1'-level power (link budget):
    /// sets the monitor threshold, the RX threshold, and the engine unit
    /// current via a training block through the weight arm.
    pub fn calibrate(&mut self, one_level_w: f64) {
        assert!(one_level_w > 0.0, "one-level power must be positive");
        self.one_level_w = Some(one_level_w);
        self.rx.calibrate_for_one_level(one_level_w);
        let i_one = self.monitor_pd.expected_current_a(one_level_w);
        let i_zero = self.monitor_pd.expected_current_a(0.0);
        self.monitor_threshold_a = Some((i_one + i_zero) / 2.0);
        // Training block: unit-level CW through the weight MZM at full
        // transmission, averaged to beat the noise down.
        let k = 256;
        let cw = OpticalField::cw(k, one_level_w, self.tx.config.line_rate_bps, 1550e-9);
        let drive = AnalogWaveform::new(
            vec![self.weight_mzm.drive_for_transmission(1.0); k],
            self.tx.config.line_rate_bps,
        );
        let lit = self.weight_mzm.modulate(&cw, &drive);
        let mean = self.engine_pd.detect(&lit).mean();
        let dark = self.engine_pd.expected_current_a(0.0);
        let unit = mean - dark;
        assert!(unit > 0.0, "engine calibration failed: no signal contrast");
        self.engine_unit_a = Some(unit);
    }

    /// Install a compute operation (done by the centralized controller).
    pub fn load_op(&mut self, op: ComputeOp) {
        self.loaded_op = Some(op);
    }

    /// Build the on-the-wire optical signal for a compute frame: OOK
    /// header bits followed by the amplitude-encoded operand segment.
    /// Used by end hosts (and tests) to originate compute traffic.
    pub fn transmit_compute_frame(&mut self, frame: &Frame, operands: &[f64]) -> OpticalField {
        let mut field = self.tx.transmit(&frame.to_bits());
        if !operands.is_empty() {
            let analog = self.transmit_operands(operands);
            field.samples.extend(analog.samples);
        }
        field
    }

    /// Amplitude-encode an operand vector (values in `[0,1]`).
    fn transmit_operands(&mut self, operands: &[f64]) -> OpticalField {
        // Reuse the TX laser/modulator at analog drive levels: encode each
        // value as power transmission.
        let bits_equiv = vec![true; operands.len()];
        let carrier = self.tx.transmit(&bits_equiv);
        // Scale each '1' sample down to the operand value (the TX MZM is
        // driven at the analog level rather than full swing; power scales
        // linearly with the encoded value).
        let mut out = carrier;
        for (s, &v) in out.samples.iter_mut().zip(operands.iter()) {
            *s = s.scale(v.clamp(0.0, 1.0).sqrt());
        }
        out
    }

    /// Slice the incoming field to bits with the monitor photodiode
    /// (1-bit analog comparison — no full-rate ADC charged).
    fn monitor_slice(&mut self, field: &OpticalField) -> Vec<bool> {
        let threshold = self
            .monitor_threshold_a
            .expect("transponder must be calibrated before use; call calibrate()");
        let current = self.monitor_pd.detect(field);
        current.samples.iter().map(|&i| i > threshold).collect()
    }

    /// P1 on-fiber dot product: incoming operand light through the weight
    /// modulator into the integrating photodetector. Signed weights use
    /// two passes (positive and negative rails) over split copies.
    fn engine_dot(&mut self, operand_field: &OpticalField, weights: &[f64]) -> f64 {
        let unit = self
            .engine_unit_a
            .expect("transponder must be calibrated before use; call calibrate()");
        let dark = self.engine_pd.expected_current_a(0.0);
        let rails = ofpc_photonics::coupler::split_n(operand_field, 2);
        let mut pass = |field: &OpticalField, rail: &dyn Fn(f64) -> f64| -> f64 {
            let drive = AnalogWaveform::new(
                weights
                    .iter()
                    .map(|&w| self.weight_mzm.drive_for_transmission(rail(w)))
                    .collect(),
                field.sample_rate_hz,
            );
            let lit = self.weight_mzm.modulate(field, &drive);
            let summed: f64 = self.engine_pd.detect(&lit).samples.iter().sum();
            summed - weights.len() as f64 * dark
        };
        // Each rail sees half the power; compensate with 2×.
        let pos = pass(&rails[0], &|w: f64| w.clamp(0.0, 1.0));
        let neg = pass(&rails[1], &|w: f64| (-w).clamp(0.0, 1.0));
        self.result_readouts += 1;
        2.0 * (pos - neg) / unit
    }

    /// Process an incoming optical field end-to-end (Fig. 4 receive path
    /// plus regeneration). Returns a [`FrameError`] if no valid frame is
    /// found in the light.
    pub fn process(&mut self, field: &OpticalField) -> Result<ProcessOutcome, FrameError> {
        let bits = self.monitor_slice(field);
        // Optical preamble detection: the matcher slides over the stream.
        // We charge the matcher for the symbols it scanned.
        let off = Frame::find_preamble(&bits).ok_or(FrameError::BadPreamble(0))?;
        let (mut frame, consumed) = Frame::from_bits(&bits[off..])?;
        let mut computed = None;
        let mut latency = ENGINE_LATENCY_S;
        if frame.is_compute() {
            if let Some(op) = self.loaded_op.clone() {
                if op.wire_tag() == frame.op {
                    let n = op.operand_len();
                    let start = off + consumed;
                    if field.samples.len() >= start + n {
                        let operand_field = OpticalField {
                            samples: field.samples[start..start + n].to_vec(),
                            sample_rate_hz: field.sample_rate_hz,
                            wavelength_m: field.wavelength_m,
                        };
                        let result = self.run_op(&op, &operand_field, &bits[start..start + n]);
                        latency += n as f64 / field.sample_rate_hz;
                        frame.result = match &result {
                            ComputeResult::Dot(v) => encode_result(*v),
                            ComputeResult::Match { matched, distance } => {
                                let mut r = encode_result(*distance);
                                r[0] = if *matched { 1 } else { 0 };
                                r
                            }
                            ComputeResult::Nonlinear { elements } => {
                                (*elements as u32).to_be_bytes()
                            }
                        };
                        computed = Some(result);
                    }
                }
            }
        }
        // Regenerate the (possibly updated) frame for the next span. No
        // caller reads the regenerated light, so the TX path books its
        // energy without synthesizing it.
        self.tx.book(frame.line_bits());
        latency += frame.line_bits() as f64 / self.tx.config.line_rate_bps;
        Ok(ProcessOutcome {
            frame,
            computed,
            added_latency_s: latency,
        })
    }

    fn run_op(
        &mut self,
        op: &ComputeOp,
        operand_field: &OpticalField,
        operand_bits: &[bool],
    ) -> ComputeResult {
        match op {
            ComputeOp::DotProduct { weights } => {
                ComputeResult::Dot(self.engine_dot(operand_field, weights))
            }
            ComputeOp::PatternMatch { pattern } => {
                let r = self.preamble_matcher.match_block(operand_bits, pattern);
                ComputeResult::Match {
                    matched: r.matched,
                    distance: r.distance_estimate,
                }
            }
            ComputeOp::Nonlinear { len } => {
                let one = self.one_level_w.unwrap_or(1e-3);
                let values: Vec<f64> = operand_field
                    .samples
                    .iter()
                    .map(|s| (s.norm_sqr() / one).clamp(0.0, 1.0))
                    .collect();
                let _transformed = self.nonlinear.activate_vec(&values);
                ComputeResult::Nonlinear {
                    elements: (*len).min(values.len()),
                }
            }
        }
    }

    /// Energy ledger across all stages.
    pub fn energy_ledger(&self) -> EnergyLedger {
        let mut ledger = self.tx.energy_ledger();
        ledger.merge(&self.rx.energy_ledger());
        ledger.add("engine-weight-mzm", self.weight_mzm.energy_consumed_j());
        ledger.add("engine-pd", self.engine_pd.energy_consumed_j());
        ledger.add("monitor-pd", self.monitor_pd.energy_consumed_j());
        ledger.add(
            "engine-result-adc",
            self.result_readouts as f64 * self.config.result_adc_energy_j,
        );
        ledger.merge(&self.preamble_matcher.energy_ledger());
        ledger.merge(&self.nonlinear.energy_ledger());
        ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ideal_pair() -> (PhotonicComputeTransponder, SimRng) {
        let mut rng = SimRng::seed_from_u64(0);
        let t = PhotonicComputeTransponder::ideal(&mut rng);
        (t, rng)
    }

    #[test]
    fn result_encoding_round_trips() {
        for v in [-3.25, -0.0001, 0.0, 0.5, 100.125] {
            let got = decode_result(encode_result(v));
            assert!((got - v).abs() < 1e-4, "v {v} got {got}");
        }
    }

    #[test]
    fn plain_frames_pass_through_unchanged() {
        let (mut t, _) = ideal_pair();
        let frame = Frame::data(&b"just passing through"[..]);
        let field = t.tx.transmit(&frame.to_bits());
        let out = t.process(&field).unwrap();
        assert_eq!(out.frame, frame);
        assert!(out.computed.is_none());
    }

    #[test]
    fn dot_product_op_computes_on_fiber() {
        let (mut t, _) = ideal_pair();
        let weights = vec![0.5, 1.0, 0.25, 0.75];
        t.load_op(ComputeOp::DotProduct {
            weights: weights.clone(),
        });
        let operands = vec![0.8, 0.2, 1.0, 0.4];
        let frame = Frame::compute(Primitive::VectorDotProduct.wire_id(), &b"ml-query"[..]);
        let field = t.transmit_compute_frame(&frame, &operands);
        let out = t.process(&field).unwrap();
        let want: f64 = operands.iter().zip(&weights).map(|(a, w)| a * w).sum();
        match out.computed {
            Some(ComputeResult::Dot(v)) => {
                assert!((v - want).abs() < 0.05, "got {v} want {want}");
                assert!((decode_result(out.frame.result) - want).abs() < 0.05);
            }
            other => panic!("expected Dot result, got {other:?}"),
        }
    }

    #[test]
    fn signed_weights_work() {
        let (mut t, _) = ideal_pair();
        let weights = vec![0.5, -0.5, 1.0, -1.0];
        t.load_op(ComputeOp::DotProduct {
            weights: weights.clone(),
        });
        let operands = vec![1.0, 1.0, 0.5, 0.25];
        let frame = Frame::compute(Primitive::VectorDotProduct.wire_id(), &b"q"[..]);
        let field = t.transmit_compute_frame(&frame, &operands);
        let out = t.process(&field).unwrap();
        let want: f64 = operands.iter().zip(&weights).map(|(a, w)| a * w).sum();
        match out.computed {
            Some(ComputeResult::Dot(v)) => assert!((v - want).abs() < 0.05, "got {v} want {want}"),
            other => panic!("expected Dot, got {other:?}"),
        }
    }

    #[test]
    fn pattern_match_op_fires() {
        let (mut t, _) = ideal_pair();
        let pattern = vec![true, false, true, true, false, false, true, false];
        t.load_op(ComputeOp::PatternMatch {
            pattern: pattern.clone(),
        });
        let frame = Frame::compute(Primitive::PatternMatching.wire_id(), &b"ids"[..]);
        // Matching operands: encode pattern bits as on/off levels.
        let operands: Vec<f64> = pattern.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
        let field = t.transmit_compute_frame(&frame, &operands);
        let out = t.process(&field).unwrap();
        match out.computed {
            Some(ComputeResult::Match { matched, .. }) => assert!(matched),
            other => panic!("expected Match, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_op_tag_skips_compute() {
        let (mut t, _) = ideal_pair();
        t.load_op(ComputeOp::DotProduct {
            weights: vec![1.0; 4],
        });
        // Frame asks for pattern matching, engine has dot product loaded.
        let frame = Frame::compute(Primitive::PatternMatching.wire_id(), &b"x"[..]);
        let field = t.transmit_compute_frame(&frame, &[1.0; 4]);
        let out = t.process(&field).unwrap();
        assert!(out.computed.is_none());
    }

    #[test]
    fn no_loaded_op_means_transit_only() {
        let (mut t, _) = ideal_pair();
        let frame = Frame::compute(1, &b"y"[..]);
        let field = t.transmit_compute_frame(&frame, &[0.5; 4]);
        let out = t.process(&field).unwrap();
        assert!(out.computed.is_none());
        assert_eq!(out.frame.result, [0; 4]);
    }

    #[test]
    fn nonlinear_op_reports_elements() {
        let (mut t, _) = ideal_pair();
        t.load_op(ComputeOp::Nonlinear { len: 6 });
        let frame = Frame::compute(Primitive::NonlinearFunction.wire_id(), &b"act"[..]);
        let field = t.transmit_compute_frame(&frame, &[0.1, 0.3, 0.5, 0.7, 0.9, 1.0]);
        let out = t.process(&field).unwrap();
        assert_eq!(out.computed, Some(ComputeResult::Nonlinear { elements: 6 }));
    }

    #[test]
    fn truncated_operand_segment_skips_compute() {
        let (mut t, _) = ideal_pair();
        t.load_op(ComputeOp::DotProduct {
            weights: vec![1.0; 8],
        });
        let frame = Frame::compute(Primitive::VectorDotProduct.wire_id(), &b"z"[..]);
        // Only 3 of the 8 expected operand symbols arrive.
        let field = t.transmit_compute_frame(&frame, &[0.5; 3]);
        let out = t.process(&field).unwrap();
        assert!(out.computed.is_none());
    }

    #[test]
    fn dark_input_is_an_error() {
        let (mut t, _) = ideal_pair();
        let dark = OpticalField::dark(128, 32e9, 1550e-9);
        assert!(t.process(&dark).is_err());
    }

    #[test]
    #[should_panic(expected = "calibrated")]
    fn uncalibrated_process_panics() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut t = PhotonicComputeTransponder::new(ComputeTransponderConfig::ideal(), &mut rng);
        let field = OpticalField::cw(32, 1e-3, 32e9, 1550e-9);
        let _ = t.process(&field);
    }

    #[test]
    fn compute_latency_is_nanoseconds_not_milliseconds() {
        let (mut t, _) = ideal_pair();
        t.load_op(ComputeOp::DotProduct {
            weights: vec![0.5; 16],
        });
        let frame = Frame::compute(Primitive::VectorDotProduct.wire_id(), &b"lat"[..]);
        let field = t.transmit_compute_frame(&frame, &[0.5; 16]);
        let out = t.process(&field).unwrap();
        assert!(
            out.added_latency_s < 1e-6,
            "added latency {} should be sub-microsecond",
            out.added_latency_s
        );
    }

    #[test]
    fn energy_ledger_has_no_per_element_adc() {
        let (mut t, _) = ideal_pair();
        t.load_op(ComputeOp::DotProduct {
            weights: vec![0.5; 64],
        });
        let frame = Frame::compute(Primitive::VectorDotProduct.wire_id(), &b"e"[..]);
        let field = t.transmit_compute_frame(&frame, &[0.5; 64]);
        let _ = t.process(&field).unwrap();
        // The conventional RX ADC never ran on the operand segment: the
        // rx path was not invoked at all in transit+compute mode.
        let ledger = t.energy_ledger();
        assert_eq!(ledger.get("rx-adc"), 0.0);
        assert_eq!(t.result_readouts, 1);
    }
}
