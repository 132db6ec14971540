//! Energy accounting.
//!
//! The paper's §2.2 comparison is an energy argument: a photonic MAC costs
//! ~40 aJ (Sludds et al., Science 2022) while a TPU 8-bit MAC costs
//! ~70 fJ; and on-fiber computing additionally skips DAC/ADC conversions.
//! This module centralizes every energy constant with its provenance and
//! provides a ledger type that devices and pipelines append to, so
//! experiments E3–E5 can report per-stage joules.

use std::collections::BTreeMap;

/// Energy constants used across the workspace, with provenance.
pub mod constants {
    /// Photonic 8-bit multiply-accumulate, J. Paper §2.2, citing
    /// Sludds et al. "Delocalized Photonic Deep Learning on the
    /// Internet's Edge" (Science 2022): 40 × 10⁻¹⁸ J.
    pub const PHOTONIC_MAC_J: f64 = 40e-18;

    /// TPU 8-bit multiply, J. Paper §2.2: 7 × 10⁻¹⁴ J.
    pub const TPU_MAC_J: f64 = 7e-14;

    /// TPU v4i clock frequency, Hz. Paper §2.2 citing Jouppi et al.
    /// (ISCA 2021): ~1.05 GHz.
    pub const TPU_CLOCK_HZ: f64 = 1.05e9;

    /// NVIDIA A100 boost clock, Hz. Paper §2.2: ~1.41 GHz.
    pub const GPU_CLOCK_HZ: f64 = 1.41e9;

    /// Photonic compute rate per dot-product lane, Hz. Set by the
    /// modulator/detector bandwidth (tens of GHz); we use the transponder
    /// symbol rate as the per-lane MAC rate.
    pub const PHOTONIC_LANE_HZ: f64 = 32e9;

    /// Fixed pipeline latency of every photonic engine (analog
    /// settling), s.
    pub const ENGINE_LATENCY_S: f64 = 5e-9;

    /// High-speed DAC energy per sample, J (~pJ/sample class).
    pub const DAC_SAMPLE_J: f64 = 1.5e-12;

    /// High-speed ADC energy per sample, J. ADCs at coherent-transponder
    /// speeds are several times costlier than DACs.
    pub const ADC_SAMPLE_J: f64 = 4.0e-12;

    /// Coherent DSP ASIC energy per processed bit, J (~10 pJ/bit class).
    pub const DSP_BIT_J: f64 = 10e-12;

    /// Switch-ASIC in-network compute energy per 32-bit ALU op, J.
    pub const SWITCH_ALU_OP_J: f64 = 5e-12;

    /// General-purpose CPU energy per 8-bit-equivalent MAC, J
    /// (server-class, including memory traffic; order 1 pJ–10 pJ; we use
    /// a conservative mid value).
    pub const CPU_MAC_J: f64 = 5e-12;

    /// CPU sustained MAC rate for the server baseline, Hz.
    pub const CPU_MAC_HZ: f64 = 50e9;

    /// TPU sustained MAC rate used by the baseline model, MACs/s.
    /// (65k MACs/cycle at ~1 GHz is peak; we model a sustained fraction.)
    pub const TPU_MAC_HZ: f64 = 20e12;
}

/// A labelled energy ledger: joules per named stage, ordered by label.
/// Stage labels are static strings, so booking energy never allocates
/// a key.
#[derive(Debug, Clone, Default)]
pub struct EnergyLedger {
    entries: BTreeMap<&'static str, f64>,
}

impl EnergyLedger {
    pub fn new() -> Self {
        EnergyLedger::default()
    }

    /// Add `joules` to stage `label`. Negative contributions are rejected
    /// (energy is spent, never refunded).
    pub fn add(&mut self, label: &'static str, joules: f64) {
        assert!(
            joules >= 0.0 && joules.is_finite(),
            "energy contribution must be finite and non-negative, got {joules} for {label}"
        );
        *self.entries.entry(label).or_insert(0.0) += joules;
    }

    /// Total joules across all stages.
    pub fn total_j(&self) -> f64 {
        self.entries.values().sum()
    }

    /// Joules recorded for one stage (0 if absent).
    pub fn get(&self, label: &str) -> f64 {
        self.entries.get(label).copied().unwrap_or(0.0)
    }

    /// Merge another ledger into this one.
    pub fn merge(&mut self, other: &EnergyLedger) {
        for (&k, v) in &other.entries {
            *self.entries.entry(k).or_insert(0.0) += v;
        }
    }

    /// Iterate `(stage, joules)` in label order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.entries.iter().map(|(&k, &v)| (k, v))
    }
}

impl std::fmt::Display for EnergyLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (k, v) in &self.entries {
            writeln!(f, "{k:>24}: {:.3e} J", v)?;
        }
        write!(f, "{:>24}: {:.3e} J", "total", self.total_j())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_energy_ratio_is_1750x() {
        // §2.2: photonic MAC vs TPU MAC — the headline energy advantage.
        let ratio = constants::TPU_MAC_J / constants::PHOTONIC_MAC_J;
        assert!((ratio - 1750.0).abs() < 1.0, "ratio {ratio}");
    }

    #[test]
    fn ledger_accumulates_and_totals() {
        let mut l = EnergyLedger::new();
        l.add("dac", 1e-12);
        l.add("dac", 1e-12);
        l.add("adc", 4e-12);
        assert!((l.get("dac") - 2e-12).abs() < 1e-24);
        assert!((l.total_j() - 6e-12).abs() < 1e-24);
        assert_eq!(l.iter().count(), 2);
    }

    #[test]
    fn ledger_merge() {
        let mut a = EnergyLedger::new();
        a.add("x", 1.0);
        let mut b = EnergyLedger::new();
        b.add("x", 2.0);
        b.add("y", 3.0);
        a.merge(&b);
        assert_eq!(a.get("x"), 3.0);
        assert_eq!(a.get("y"), 3.0);
        assert_eq!(a.total_j(), 6.0);
    }

    #[test]
    fn ledger_missing_stage_is_zero() {
        let l = EnergyLedger::new();
        assert_eq!(l.get("nothing"), 0.0);
        assert_eq!(l.iter().count(), 0);
        assert_eq!(l.total_j(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn ledger_rejects_negative_energy() {
        EnergyLedger::new().add("bad", -1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn ledger_rejects_nan() {
        EnergyLedger::new().add("bad", f64::NAN);
    }

    #[test]
    fn display_includes_total() {
        let mut l = EnergyLedger::new();
        l.add("laser", 1e-3);
        let s = format!("{l}");
        assert!(s.contains("laser"));
        assert!(s.contains("total"));
    }
}
