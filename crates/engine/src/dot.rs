//! P1 — photonic vector dot product (Fig. 2a).
//!
//! The time-multiplexed architecture of Feldmann/Sludds-style photonic
//! MACs: element `i` of each vector occupies one symbol slot. A DAC turns
//! the digital value into a drive voltage, the first MZM encodes `aᵢ` as
//! optical transmission, the second MZM (driven by `bᵢ`) multiplies, and
//! the photodetector's integrated charge over the block is `Σ aᵢ·bᵢ` up to
//! a calibration constant. One ADC read converts the integrated result
//! back to digital.
//!
//! Values are physically non-negative (intensity encoding); signed
//! arithmetic decomposes into four non-negative passes
//! (`a⁺b⁺ + a⁻b⁻ − a⁺b⁻ − a⁻b⁺`), exactly as time-multiplexed photonic
//! accelerators do it.
//!
//! The unit computes **on fiber** (the paper's key delta over
//! Lightning-style accelerators): the `a` operand is already optical — it
//! arrived on the fiber — so only the `b` weights pay a per-element DAC,
//! which is where the §2.2 "no constant conversions" energy saving comes
//! from. Experiment E3 measures it via the [`EnergyLedger`].

use crate::calibration::DotCalibration;
use ofpc_photonics::converter::{Adc, ConverterConfig, Dac, FULL_SCALE_V};
use ofpc_photonics::energy::constants::PHOTONIC_LANE_HZ;
use ofpc_photonics::energy::EnergyLedger;
use ofpc_photonics::laser::{Laser, LaserConfig};
use ofpc_photonics::modulator::{MachZehnderModulator, MzmConfig};
use ofpc_photonics::photodetector::{Photodetector, PhotodetectorConfig};
use ofpc_photonics::signal::AnalogWaveform;
use ofpc_photonics::SimRng;

pub use ofpc_photonics::simd::KernelBackend;

/// Configuration of a P1 dot-product unit. Vector elements pass through
/// the unit at [`PHOTONIC_LANE_HZ`].
#[derive(Debug, Clone)]
pub struct DotUnitConfig {
    pub laser: LaserConfig,
    pub mzm_a: MzmConfig,
    pub mzm_b: MzmConfig,
    pub pd: PhotodetectorConfig,
    /// DAC used per weight element (the data arrives as light).
    pub(crate) dac: ConverterConfig,
    /// ADC used once per dot-product readout.
    pub(crate) adc: ConverterConfig,
    /// Which kernel implementation executes the physical pass.
    ///
    /// `Scalar` (the default) is the reference device-by-device walk and
    /// reproduces every historical result bit for bit. `Vectorized` runs
    /// the same physics as fused power-domain loops over flat buffers:
    /// deterministic per seed and statistically identical, but on a
    /// different noise stream (see DESIGN.md §12 for the full contract).
    pub backend: KernelBackend,
}

impl DotUnitConfig {
    /// Ideal devices everywhere — algebra validation.
    pub fn ideal() -> Self {
        DotUnitConfig {
            laser: LaserConfig {
                rin_db_hz: f64::NEG_INFINITY,
                linewidth_hz: 0.0,
                wall_plug_w: 0.0,
                ..LaserConfig::default()
            },
            mzm_a: MzmConfig::ideal(),
            mzm_b: MzmConfig::ideal(),
            pd: PhotodetectorConfig::ideal(),
            dac: ConverterConfig::ideal(12),
            adc: ConverterConfig::ideal(12),
            backend: KernelBackend::Scalar,
        }
    }

    /// Realistic defaults: lossy modulators, noisy receiver, 8-bit
    /// converters at transponder symbol rate.
    pub fn realistic() -> Self {
        DotUnitConfig {
            laser: LaserConfig::default(),
            mzm_a: MzmConfig::default(),
            mzm_b: MzmConfig::default(),
            pd: PhotodetectorConfig::default(),
            dac: ConverterConfig::default(),
            adc: ConverterConfig {
                energy_per_sample_j: ofpc_photonics::energy::constants::ADC_SAMPLE_J,
                ..ConverterConfig::default()
            },
            backend: KernelBackend::Scalar,
        }
    }
}

/// Reusable scratch buffers and lookup tables for the vectorized
/// kernel, grown once and reused across passes so the steady state
/// performs no per-pass allocation.
#[derive(Debug, Clone, Default)]
struct VecScratch {
    /// Per-sample instantaneous power walking down the chain, W.
    powers: Vec<f64>,
    /// Per-sample power transmissions of the current modulator stage.
    t2: Vec<f64>,
    /// Quantized operand values (code → value grid).
    vals: Vec<f64>,
    /// DAC code → fused power transmission of `mzm_b` (passthrough
    /// drive only).
    lut_b: Option<std::sync::Arc<Vec<f64>>>,
    /// Whether the LUT above has been (not) built for this config.
    luts_ready: bool,
}

/// A weight operand pre-encoded for the vectorized backend: the DAC
/// quantization and the `mzm_b` power transfer are evaluated once and
/// reused across every row of a matrix–vector product. Build with
/// [`DotProductUnit::precode`] / [`DotProductUnit::precode_signed`].
///
/// Byte-compatible with the per-row path: the vectorized `b` side
/// consumes no RNG, so a precoded pass produces bit-identical results
/// to passing the same vector to [`DotProductUnit::dot_nonneg`] (the
/// per-pass DAC energy and modulator symbol accounting still happen on
/// every use).
#[derive(Debug, Clone)]
pub(crate) struct PrecodedOperand {
    /// Per-element power transmission of the `b` modulator.
    t2: Vec<f64>,
}

impl PrecodedOperand {
    /// Number of vector elements.
    pub(crate) fn len(&self) -> usize {
        self.t2.len()
    }
}

/// A P1 photonic dot-product unit.
#[derive(Debug, Clone)]
pub struct DotProductUnit {
    pub config: DotUnitConfig,
    laser: Laser,
    mzm_a: MachZehnderModulator,
    mzm_b: MachZehnderModulator,
    pd: Photodetector,
    dac: Dac,
    adc: Adc,
    calibration: Option<DotCalibration>,
    scratch: VecScratch,
    /// Total scalar multiply-accumulates performed.
    pub(crate) macs_performed: u64,
}

impl DotProductUnit {
    pub fn new(config: DotUnitConfig, rng: &mut SimRng) -> Self {
        DotProductUnit {
            laser: Laser::new(config.laser.clone(), rng.derive("p1-laser")),
            mzm_a: MachZehnderModulator::new(config.mzm_a.clone()),
            mzm_b: MachZehnderModulator::new(config.mzm_b.clone()),
            pd: Photodetector::new(config.pd.clone(), rng.derive("p1-pd")),
            dac: Dac::new(config.dac.clone(), rng.derive("p1-dac")),
            adc: Adc::new(config.adc.clone(), rng.derive("p1-adc")),
            config,
            calibration: None,
            scratch: VecScratch::default(),
            macs_performed: 0,
        }
    }

    /// Convenience: ideal unit with a fixed seed.
    pub fn ideal() -> Self {
        let mut rng = SimRng::seed_from_u64(0);
        let mut unit = DotProductUnit::new(DotUnitConfig::ideal(), &mut rng);
        unit.calibrate(64);
        unit
    }

    /// Run the calibration procedure: measure the photocurrent for a
    /// unit-product vector (all ones) and for a dark vector, storing the
    /// gain and offset that map integrated charge back to value. This is
    /// the §4 "algorithm to mitigate photonic noise" in its simplest
    /// load-bearing form — without it, device insertion losses bias every
    /// result (experiment E10 ablates it).
    pub fn calibrate(&mut self, n: usize) {
        assert!(n > 0, "calibration needs at least one symbol");
        let ones = self.raw_pass(&vec![1.0; n], &vec![1.0; n]);
        let zeros = self.raw_pass(&vec![0.0; n], &vec![0.0; n]);
        let unit = ones / n as f64;
        let dark = zeros / n as f64;
        self.calibration = Some(DotCalibration {
            unit_current_a: unit - dark,
            dark_current_a: dark,
        });
        // Calibration traffic shouldn't count as useful MACs.
        self.macs_performed = self.macs_performed.saturating_sub(2 * n as u64);
    }

    /// Inject an explicit calibration (e.g. a stale or wrong one, for the
    /// ablation experiments).
    pub fn set_calibration(&mut self, cal: DotCalibration) {
        self.calibration = Some(cal);
    }

    /// One physical pass: quantize, modulate, detect, integrate.
    /// Returns the *summed photocurrent* over the block (amps·samples).
    /// Dispatches on the configured [`KernelBackend`].
    fn raw_pass(&mut self, a: &[f64], b: &[f64]) -> f64 {
        match self.config.backend {
            KernelBackend::Scalar => self.raw_pass_scalar(a, b),
            KernelBackend::Vectorized => self.raw_pass_vectorized(a, b),
        }
    }

    /// The reference scalar pass: device-by-device field walk, kept
    /// verbatim as the golden-replay baseline.
    fn raw_pass_scalar(&mut self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(
            a.len(),
            b.len(),
            "dot-product operands must match in length"
        );
        assert!(!a.is_empty(), "dot product of empty vectors");
        let n = a.len();
        // The `a` operand arrived as light: it skips quantization and DAC
        // energy (the paper's conversion-saving claim). The weights are
        // digital, so they are quantized and DAC-converted.
        let b_codes: Vec<u64> = b.iter().map(|&x| self.dac.encode_unit(x)).collect();
        let _ = self.dac.convert(&b_codes, PHOTONIC_LANE_HZ);
        let b_vals: Vec<f64> = b_codes.iter().map(|&c| self.adc.decode_unit(c)).collect();

        let light = self.laser.emit(n, PHOTONIC_LANE_HZ);
        // Each value is encoded as the MZM's *power* transmission, so the
        // cascade of the two modulators' power transmissions is aᵢ·bᵢ.
        let drive_a = AnalogWaveform::new(
            a.iter()
                .map(|&v| self.mzm_a.drive_for_transmission(v.clamp(0.0, 1.0)))
                .collect(),
            PHOTONIC_LANE_HZ,
        );
        let drive_b = AnalogWaveform::new(
            b_vals
                .iter()
                .map(|&v| self.mzm_b.drive_for_transmission(v.clamp(0.0, 1.0)))
                .collect(),
            PHOTONIC_LANE_HZ,
        );
        let stage1 = self.mzm_a.modulate(&light, &drive_a);
        let stage2 = self.mzm_b.modulate(&stage1, &drive_b);
        let current = self.pd.detect(&stage2);
        self.macs_performed += n as u64;
        current.samples.iter().sum()
    }

    /// The vectorized pass: the whole chain collapses to power-domain
    /// loops over one flat buffer — `p[i] = laser power × T_a(aᵢ) ×
    /// T_b(bᵢ)`, then photodetection in place. Physics preserved (same
    /// transfer curves, same noise variances, same energy accounting);
    /// the per-element DAC conversions the scalar path discards are
    /// elided and charged via [`Dac::charge_samples`], the laser phase
    /// walk is skipped (invisible to square-law detection), and shot +
    /// thermal noise collapse to one Gaussian draw per sample.
    fn raw_pass_vectorized(&mut self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(
            a.len(),
            b.len(),
            "dot-product operands must match in length"
        );
        assert!(!a.is_empty(), "dot product of empty vectors");
        let n = a.len();
        let rate = PHOTONIC_LANE_HZ;
        self.ensure_luts();
        let mut powers = std::mem::take(&mut self.scratch.powers);
        self.laser.emit_power_block(n, rate, &mut powers);
        self.apply_mzm_a(a, &mut powers);
        self.apply_mzm_b(b, &mut powers);
        self.pd.detect_power_block(&mut powers, rate);
        let sum = powers.iter().sum();
        self.scratch.powers = powers;
        self.macs_performed += n as u64;
        sum
    }

    /// Apply the `a`-side (on-fiber, unquantized) modulator power
    /// transfer in place.
    fn apply_mzm_a(&mut self, a: &[f64], powers: &mut [f64]) {
        let rate = PHOTONIC_LANE_HZ;
        if self.mzm_a.is_drive_passthrough(rate) {
            let (floor, il) = self.mzm_a.fused_amplitude_constants();
            for (p, &x) in powers.iter_mut().zip(a) {
                let amp = x.clamp(0.0, 1.0).sqrt().max(floor) * il;
                *p *= amp * amp;
            }
        } else {
            let mut t2 = std::mem::take(&mut self.scratch.t2);
            self.mzm_a.power_transmissions_into(a, rate, &mut t2);
            for (p, &t) in powers.iter_mut().zip(&t2) {
                *p *= t;
            }
            self.scratch.t2 = t2;
        }
        self.mzm_a.symbols_modulated += a.len() as u64;
    }

    /// Apply the `b`-side (always-digital weight) encode + modulator
    /// power transfer in place, including the per-pass DAC charge.
    fn apply_mzm_b(&mut self, b: &[f64], powers: &mut [f64]) {
        let rate = PHOTONIC_LANE_HZ;
        if let Some(lut) = &self.scratch.lut_b {
            for (p, &x) in powers.iter_mut().zip(b) {
                *p *= lut[self.dac.encode_unit(x) as usize];
            }
        } else {
            let mut vals = std::mem::take(&mut self.scratch.vals);
            vals.clear();
            vals.extend(
                b.iter()
                    .map(|&x| self.adc.decode_unit(self.dac.encode_unit(x))),
            );
            let mut t2 = std::mem::take(&mut self.scratch.t2);
            self.mzm_b.power_transmissions_into(&vals, rate, &mut t2);
            for (p, &t) in powers.iter_mut().zip(&t2) {
                *p *= t;
            }
            self.scratch.vals = vals;
            self.scratch.t2 = t2;
        }
        self.dac.charge_samples(b.len() as u64);
        self.mzm_b.symbols_modulated += b.len() as u64;
    }

    /// Largest DAC code space a dense lookup table is built for.
    const MAX_LUT_LEVELS: u64 = 1 << 16;

    /// Build the weight-side code → power-transmission LUT once per
    /// unit, where the config allows it (passthrough drive, tractable
    /// code space).
    fn ensure_luts(&mut self) {
        if self.scratch.luts_ready {
            return;
        }
        if self.dac.levels() <= Self::MAX_LUT_LEVELS
            && self.mzm_b.is_drive_passthrough(PHOTONIC_LANE_HZ)
        {
            self.scratch.lut_b = Some(Self::build_code_lut(
                &self.config.mzm_b,
                &self.dac,
                &self.adc,
            ));
        }
        self.scratch.luts_ready = true;
    }

    /// DAC code → fused power transmission of an MZM with `config`,
    /// dense over the code space. The curve is evaluated at each decoded
    /// code snapped to the half-code grid `0.5/(levels − 1)`: the same
    /// point up to one ulp, and the one the golden fixtures were pinned
    /// at.
    fn build_code_lut(config: &MzmConfig, dac: &Dac, adc: &Adc) -> std::sync::Arc<Vec<f64>> {
        let mzm = MachZehnderModulator::new(config.clone());
        let step = 0.5 / (adc.levels() - 1) as f64;
        std::sync::Arc::new(
            (0..dac.levels())
                .map(|c| mzm.fused_power_transmission((adc.decode_unit(c) / step).round() * step))
                .collect(),
        )
    }

    /// Pre-encode a non-negative weight vector (elements in `[0, 1]`)
    /// for reuse across many [`DotProductUnit::dot_nonneg_precoded`]
    /// calls. Vectorized backend only.
    pub(crate) fn precode(&mut self, b: &[f64]) -> PrecodedOperand {
        assert!(
            self.config.backend == KernelBackend::Vectorized,
            "precoding requires the vectorized backend"
        );
        self.ensure_luts();
        let rate = PHOTONIC_LANE_HZ;
        let t2 = if let Some(lut) = &self.scratch.lut_b {
            b.iter()
                .map(|&x| lut[self.dac.encode_unit(x) as usize])
                .collect()
        } else {
            let vals: Vec<f64> = b
                .iter()
                .map(|&x| self.adc.decode_unit(self.dac.encode_unit(x)))
                .collect();
            let mut t2 = Vec::new();
            self.mzm_b.power_transmissions_into(&vals, rate, &mut t2);
            t2
        };
        PrecodedOperand { t2 }
    }

    /// Pre-encode a signed weight vector as its positive/negative
    /// decomposition, for [`DotProductUnit::dot_signed_precoded`].
    pub(crate) fn precode_signed(&mut self, b: &[f64]) -> (PrecodedOperand, PrecodedOperand) {
        let bp: Vec<f64> = b.iter().map(|&x| x.clamp(0.0, 1.0)).collect();
        let bn: Vec<f64> = b.iter().map(|&x| (-x).clamp(0.0, 1.0)).collect();
        (self.precode(&bp), self.precode(&bn))
    }

    /// The vectorized pass against a precoded `b` operand: identical to
    /// [`DotProductUnit::raw_pass_vectorized`] with the `b`-side table
    /// lookups replaced by the stored transmissions.
    fn raw_pass_precoded(&mut self, a: &[f64], pre: &PrecodedOperand) -> f64 {
        assert_eq!(
            a.len(),
            pre.len(),
            "dot-product operands must match in length"
        );
        assert!(!a.is_empty(), "dot product of empty vectors");
        let n = a.len();
        let rate = PHOTONIC_LANE_HZ;
        self.ensure_luts();
        let mut powers = std::mem::take(&mut self.scratch.powers);
        self.laser.emit_power_block(n, rate, &mut powers);
        self.apply_mzm_a(a, &mut powers);
        for (p, &t) in powers.iter_mut().zip(&pre.t2) {
            *p *= t;
        }
        self.dac.charge_samples(n as u64);
        self.mzm_b.symbols_modulated += n as u64;
        self.pd.detect_power_block(&mut powers, rate);
        let sum = powers.iter().sum();
        self.scratch.powers = powers;
        self.macs_performed += n as u64;
        sum
    }

    /// Dot product of non-negative vectors with elements in `[0, 1]`.
    /// Requires prior calibration.
    pub fn dot_nonneg(&mut self, a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let cal = *self
            .calibration
            .as_ref()
            .expect("DotProductUnit must be calibrated before use; call calibrate()");
        let charge = self.raw_pass(a, b);
        self.convert_readout(charge, n, cal)
    }

    /// Non-negative dot product against a precoded weight operand
    /// (vectorized backend only; see [`PrecodedOperand`]).
    pub(crate) fn dot_nonneg_precoded(&mut self, a: &[f64], b: &PrecodedOperand) -> f64 {
        let n = a.len();
        let cal = *self
            .calibration
            .as_ref()
            .expect("DotProductUnit must be calibrated before use; call calibrate()");
        let charge = self.raw_pass_precoded(a, b);
        self.convert_readout(charge, n, cal)
    }

    /// Calibration-corrected single-sample ADC readout of an integrated
    /// charge: the shared back half of every dot product.
    fn convert_readout(&mut self, charge: f64, n: usize, cal: DotCalibration) -> f64 {
        let raw = (charge - n as f64 * cal.dark_current_a) / cal.unit_current_a;
        // Single ADC readout of the normalized integrator output.
        let normalized = (raw / n as f64).clamp(0.0, 1.0);
        let wave = AnalogWaveform::new(vec![normalized * FULL_SCALE_V], PHOTONIC_LANE_HZ);
        let code = self.adc.convert(&wave)[0];
        self.adc.decode_unit(code) * n as f64
    }

    /// Signed dot product with elements in `[-1, 1]`, via the standard
    /// four-pass positive/negative decomposition.
    pub fn dot_signed(&mut self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(
            a.len(),
            b.len(),
            "dot-product operands must match in length"
        );
        let pos = |v: &[f64]| -> Vec<f64> { v.iter().map(|&x| x.clamp(0.0, 1.0)).collect() };
        let neg = |v: &[f64]| -> Vec<f64> { v.iter().map(|&x| (-x).clamp(0.0, 1.0)).collect() };
        let (ap, an) = (pos(a), neg(a));
        let (bp, bn) = (pos(b), neg(b));
        self.dot_nonneg(&ap, &bp) + self.dot_nonneg(&an, &bn)
            - self.dot_nonneg(&ap, &bn)
            - self.dot_nonneg(&an, &bp)
    }

    /// Signed dot product against a precoded weight decomposition from
    /// [`DotProductUnit::precode_signed`]: the same four passes, in the
    /// same order, as [`DotProductUnit::dot_signed`].
    pub(crate) fn dot_signed_precoded(
        &mut self,
        a: &[f64],
        bp: &PrecodedOperand,
        bn: &PrecodedOperand,
    ) -> f64 {
        assert_eq!(
            a.len(),
            bp.len(),
            "dot-product operands must match in length"
        );
        assert_eq!(
            a.len(),
            bn.len(),
            "dot-product operands must match in length"
        );
        let ap: Vec<f64> = a.iter().map(|&x| x.clamp(0.0, 1.0)).collect();
        let an: Vec<f64> = a.iter().map(|&x| (-x).clamp(0.0, 1.0)).collect();
        self.dot_nonneg_precoded(&ap, bp) + self.dot_nonneg_precoded(&an, bn)
            - self.dot_nonneg_precoded(&ap, bn)
            - self.dot_nonneg_precoded(&an, bp)
    }

    /// Latency of one n-element dot product, seconds: the block occupies
    /// `n` symbol slots plus a fixed analog front-end latency (~1 ns for
    /// modulator + detector + readout).
    pub(crate) fn latency_s(&self, n: usize) -> f64 {
        n as f64 / PHOTONIC_LANE_HZ + 1e-9
    }

    /// Energy ledger over everything this unit has done so far.
    pub(crate) fn energy_ledger(&self) -> EnergyLedger {
        let mut ledger = EnergyLedger::new();
        ledger.add(
            "laser",
            self.laser.config.wall_plug_w * self.seconds_active(),
        );
        ledger.add("mzm-a", self.mzm_a.energy_consumed_j());
        ledger.add("mzm-b", self.mzm_b.energy_consumed_j());
        ledger.add("photodetector", self.pd.energy_consumed_j());
        ledger.add("dac", self.dac.energy_consumed_j());
        ledger.add("adc", self.adc.energy_consumed_j());
        ledger
    }

    /// Seconds of optical signal processed.
    fn seconds_active(&self) -> f64 {
        self.macs_performed as f64 / PHOTONIC_LANE_HZ
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn ideal_unit_computes_exact_dot() {
        let mut unit = DotProductUnit::ideal();
        let a = vec![0.5, 0.25, 1.0, 0.0, 0.75];
        let b = vec![1.0, 0.5, 0.5, 1.0, 0.25];
        let got = unit.dot_nonneg(&a, &b);
        let want = exact_dot(&a, &b);
        assert!((got - want).abs() < 0.01, "got {got} want {want}");
    }

    #[test]
    fn signed_dot_product() {
        let mut unit = DotProductUnit::ideal();
        let a = vec![0.5, -0.25, 1.0, -0.5];
        let b = vec![-1.0, 0.5, 0.5, 1.0];
        let got = unit.dot_signed(&a, &b);
        let want = exact_dot(&a, &b);
        assert!((got - want).abs() < 0.02, "got {got} want {want}");
    }

    #[test]
    fn calibration_corrects_insertion_loss() {
        // Lossy modulators scale the light by ~-7 dB; an uncalibrated
        // nominal gain would be off by that factor, calibration fixes it.
        let mut rng = SimRng::seed_from_u64(1);
        let mut cfg = DotUnitConfig::ideal();
        cfg.mzm_a.insertion_loss_db = 3.5;
        cfg.mzm_b.insertion_loss_db = 3.5;
        let mut unit = DotProductUnit::new(cfg, &mut rng);
        unit.calibrate(64);
        let a = vec![0.8, 0.4];
        let b = vec![0.5, 0.5];
        let got = unit.dot_nonneg(&a, &b);
        assert!((got - 0.6).abs() < 0.01, "got {got}");
    }

    #[test]
    fn uncalibrated_lossy_unit_is_biased() {
        // The E10 ablation in miniature: inject the "nominal" calibration
        // that ignores insertion loss and watch the bias appear.
        let mut rng = SimRng::seed_from_u64(2);
        let mut cfg = DotUnitConfig::ideal();
        cfg.mzm_a.insertion_loss_db = 3.5;
        cfg.mzm_b.insertion_loss_db = 3.5;
        let p0 = ofpc_photonics::units::dbm_to_watts(cfg.laser.power_dbm);
        let mut unit = DotProductUnit::new(cfg, &mut rng);
        unit.set_calibration(DotCalibration {
            unit_current_a: p0, // nominal R·P0, ignoring 7 dB of loss
            dark_current_a: 0.0,
        });
        let got = unit.dot_nonneg(&[1.0], &[1.0]);
        assert!(
            got < 0.5,
            "uncalibrated result should be badly low, got {got}"
        );
    }

    #[test]
    #[should_panic(expected = "calibrated")]
    fn uncalibrated_unit_panics() {
        let mut rng = SimRng::seed_from_u64(0);
        let mut unit = DotProductUnit::new(DotUnitConfig::ideal(), &mut rng);
        unit.dot_nonneg(&[1.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn mismatched_lengths_panic() {
        let mut unit = DotProductUnit::ideal();
        unit.dot_nonneg(&[1.0, 0.5], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_vectors_panic() {
        let mut unit = DotProductUnit::ideal();
        unit.dot_nonneg(&[], &[]);
    }

    #[test]
    fn noisy_unit_is_approximately_right() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut unit = DotProductUnit::new(DotUnitConfig::realistic(), &mut rng);
        unit.calibrate(256);
        let n = 64;
        let a: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| (n - i) as f64 / n as f64).collect();
        let want = exact_dot(&a, &b);
        let got = unit.dot_nonneg(&a, &b);
        let rel = (got - want).abs() / want;
        assert!(rel < 0.1, "relative error {rel} (got {got}, want {want})");
    }

    #[test]
    fn on_fiber_mode_skips_data_dac_energy() {
        // The data operand arrives as light: on both backends a pass
        // charges the DAC for the weight operand only, one conversion
        // per weight element (calibration's two 64-element passes, then
        // one 128-element pass).
        let cfg = DotUnitConfig::realistic();
        let per_sample = cfg.dac.energy_per_sample_j;
        for backend in [KernelBackend::Scalar, KernelBackend::Vectorized] {
            let mut rng = SimRng::seed_from_u64(4);
            let mut unit = DotProductUnit::new(
                DotUnitConfig {
                    backend,
                    ..cfg.clone()
                },
                &mut rng,
            );
            unit.calibrate(64);
            unit.dot_nonneg(&[0.5; 128], &[0.5; 128]);
            assert_eq!(
                unit.energy_ledger().get("dac").to_bits(),
                ((2 * 64 + 128) as f64 * per_sample).to_bits(),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn latency_scales_with_vector_length() {
        let unit = DotProductUnit::ideal();
        let l64 = unit.latency_s(64);
        let l128 = unit.latency_s(128);
        assert!(l128 > l64);
        // 64 symbols at 32 GHz = 2 ns, plus 1 ns front end.
        assert!((l64 - 3e-9).abs() < 1e-10, "latency {l64}");
    }

    #[test]
    fn results_are_deterministic_per_seed() {
        let run = || {
            let mut rng = SimRng::seed_from_u64(7);
            let mut unit = DotProductUnit::new(DotUnitConfig::realistic(), &mut rng);
            unit.calibrate(64);
            unit.dot_nonneg(&[0.3; 40], &[0.7; 40])
        };
        assert_eq!(run(), run());
    }

    fn vectorized(mut cfg: DotUnitConfig, seed: u64, cal: usize) -> DotProductUnit {
        cfg.backend = KernelBackend::Vectorized;
        let mut rng = SimRng::seed_from_u64(seed);
        let mut unit = DotProductUnit::new(cfg, &mut rng);
        unit.calibrate(cal);
        unit
    }

    #[test]
    fn vectorized_results_are_deterministic_per_seed() {
        let run = || {
            let mut unit = vectorized(DotUnitConfig::realistic(), 7, 64);
            unit.dot_nonneg(&[0.3; 40], &[0.7; 40])
        };
        assert_eq!(run().to_bits(), run().to_bits());
    }

    #[test]
    fn vectorized_ideal_unit_matches_scalar_within_readout_lsb() {
        // Noiseless config: the only divergence allowed between the
        // backends is the final readout quantizing to an adjacent code —
        // one LSB of the result scale, n/(2^bits − 1).
        let mut scalar = DotProductUnit::ideal();
        let mut vec = vectorized(DotUnitConfig::ideal(), 0, 64);
        let n = 64;
        let a: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| (n - i) as f64 / n as f64).collect();
        let lsb = n as f64 / ((1u64 << 12) - 1) as f64;
        let (s, v) = (scalar.dot_nonneg(&a, &b), vec.dot_nonneg(&a, &b));
        assert!((s - v).abs() <= lsb + 1e-12, "scalar {s} vectorized {v}");
        let (s, v) = (
            scalar.dot_signed(&[0.5, -0.25, 1.0, -0.5], &[-1.0, 0.5, 0.5, 1.0]),
            vec.dot_signed(&[0.5, -0.25, 1.0, -0.5], &[-1.0, 0.5, 0.5, 1.0]),
        );
        let lsb4 = 4.0 / ((1u64 << 12) - 1) as f64;
        assert!(
            (s - v).abs() <= 4.0 * lsb4 + 1e-12,
            "scalar {s} vectorized {v}"
        );
    }

    #[test]
    fn precoded_weights_replay_per_row_results_byte_for_byte() {
        let a = vec![0.3, -0.8, 0.1, 0.9, -0.4, 0.0, 0.65, -1.0];
        let w = vec![0.2, 0.7, -0.5, 1.0, -0.15, 0.4, -0.9, 0.05];
        let mut per_row = vectorized(DotUnitConfig::realistic(), 9, 256);
        let mut pre = vectorized(DotUnitConfig::realistic(), 9, 256);
        let (bp, bn) = pre.precode_signed(&w);
        for _ in 0..3 {
            let x = per_row.dot_signed(&a, &w);
            let y = pre.dot_signed_precoded(&a, &bp, &bn);
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Energy and symbol accounting must also be identical: precoding
        // still pays the per-pass DAC and modulator costs.
        assert_eq!(per_row.macs_performed, pre.macs_performed);
        assert_eq!(
            per_row.energy_ledger().total_j().to_bits(),
            pre.energy_ledger().total_j().to_bits()
        );
    }

    #[test]
    fn vectorized_noisy_unit_is_approximately_right() {
        let mut unit = vectorized(DotUnitConfig::realistic(), 3, 256);
        let n = 64;
        let a: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| (n - i) as f64 / n as f64).collect();
        let want = exact_dot(&a, &b);
        let got = unit.dot_nonneg(&a, &b);
        let rel = (got - want).abs() / want;
        assert!(rel < 0.1, "relative error {rel} (got {got}, want {want})");
    }

    #[test]
    fn vectorized_dac_energy_matches_scalar_exactly() {
        // The elided (discarded) conversions must still be charged:
        // after identical workloads both backends report the same DAC
        // sample count and energy.
        let cfg = DotUnitConfig::realistic();
        let mut rng = SimRng::seed_from_u64(6);
        let mut scalar = DotProductUnit::new(cfg.clone(), &mut rng);
        scalar.calibrate(64);
        let mut vec = vectorized(cfg, 6, 64);
        scalar.dot_signed(&[0.4; 32], &[-0.6; 32]);
        vec.dot_signed(&[0.4; 32], &[-0.6; 32]);
        assert_eq!(
            scalar.energy_ledger().get("dac").to_bits(),
            vec.energy_ledger().get("dac").to_bits()
        );
        assert_eq!(
            scalar.energy_ledger().get("mzm-a").to_bits(),
            vec.energy_ledger().get("mzm-a").to_bits()
        );
        assert_eq!(
            scalar.energy_ledger().get("mzm-b").to_bits(),
            vec.energy_ledger().get("mzm-b").to_bits()
        );
    }

    #[test]
    fn code_lut_is_the_fused_curve_at_every_converter_code() {
        // The vectorized kernel's table must be the fused curve at
        // exactly the values the converters decode to, for every code.
        let cfg = MzmConfig::default();
        let m = MachZehnderModulator::new(cfg.clone());
        for bits in [8, 12] {
            let (dac, adc) = (Dac::ideal(bits), Adc::ideal(bits));
            let lut = DotProductUnit::build_code_lut(&cfg, &dac, &adc);
            assert_eq!(lut.len() as u64, dac.levels());
            for (code, &got) in lut.iter().enumerate() {
                let want = m.fused_power_transmission(adc.decode_unit(code as u64));
                let err = (got - want).abs();
                assert!(
                    err <= 4.0 * f64::EPSILON,
                    "{bits}-bit code {code}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "length")]
    fn vectorized_mismatched_lengths_panic() {
        let mut unit = vectorized(DotUnitConfig::ideal(), 0, 64);
        unit.dot_nonneg(&[1.0, 0.5], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "vectorized backend")]
    fn precode_rejects_scalar_backend() {
        let mut unit = DotProductUnit::ideal();
        unit.precode(&[0.5]);
    }
}
