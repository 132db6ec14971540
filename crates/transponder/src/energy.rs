//! Form-factor power and area budgets (§5 "Form factor").
//!
//! The paper flags the open question of whether the photonic engine fits
//! a pluggable module's power and area envelope. This module makes that
//! question computable: standard pluggable form factors with their power
//! ceilings, per-component power/area estimates for both the commodity
//! blocks and the added photonic-engine blocks, and a budget checker the
//! experiments use to report headroom.

/// Standard pluggable module form factors and their power ceilings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormFactor {
    /// QSFP-DD: ~20 W class.
    QsfpDd,
    /// OSFP: ~28 W class (what 800G pluggables use).
    Osfp,
}

impl FormFactor {
    /// Maximum module power, W.
    pub(crate) fn power_ceiling_w(self) -> f64 {
        match self {
            FormFactor::QsfpDd => 20.0,
            FormFactor::Osfp => 28.0,
        }
    }

    /// Usable PIC area, mm² (order-of-magnitude per published module
    /// teardowns; silicon photonics dies in pluggables run tens of mm²).
    pub(crate) fn pic_area_mm2(self) -> f64 {
        match self {
            FormFactor::QsfpDd => 40.0,
            FormFactor::Osfp => 60.0,
        }
    }
}

/// One hardware block's power and area demand.
#[derive(Debug, Clone)]
pub struct BlockBudget {
    pub(crate) name: String,
    pub(crate) power_w: f64,
    pub(crate) area_mm2: f64,
}

/// Catalog of block budgets (commodity + photonic-engine additions).
/// Values are engineering estimates consistent with the published device
/// classes the paper cites; they exist to make §5's form-factor question
/// quantitative, not to claim component-level accuracy.
pub(crate) fn block(name: &str) -> BlockBudget {
    let (power_w, area_mm2) = match name {
        // Commodity transponder blocks (Fig. 3).
        "laser" => (1.5, 2.0),
        "tx-mzm" => (0.8, 3.0),
        "dac" => (2.5, 4.0),
        "adc" => (3.5, 4.0),
        "pd-tia" => (0.5, 1.0),
        "dsp" => (8.0, 15.0),
        // Photonic-engine additions (Fig. 4).
        "engine-weight-mzm" => (0.8, 3.0),
        "engine-pd" => (0.5, 1.0),
        "engine-monitor-pd" => (0.3, 0.5),
        "engine-matcher" => (1.0, 4.0),
        "engine-nonlinear" => (0.8, 3.0),
        "engine-control" => (1.0, 2.0),
        "engine-weight-memory" => (0.5, 3.0),
        other => panic!("unknown block {other:?}"),
    };
    BlockBudget {
        name: name.to_string(),
        power_w,
        area_mm2,
    }
}

/// The block set of a commodity transponder (Fig. 3).
pub(crate) fn commodity_blocks() -> Vec<BlockBudget> {
    ["laser", "tx-mzm", "dac", "adc", "pd-tia", "dsp"]
        .iter()
        .map(|n| block(n))
        .collect()
}

/// The block set of a photonic compute transponder (Fig. 4): commodity
/// blocks plus the engine additions.
pub(crate) fn compute_blocks() -> Vec<BlockBudget> {
    let mut blocks = commodity_blocks();
    for n in [
        "engine-weight-mzm",
        "engine-pd",
        "engine-monitor-pd",
        "engine-matcher",
        "engine-nonlinear",
        "engine-control",
        "engine-weight-memory",
    ] {
        blocks.push(block(n));
    }
    blocks
}

/// The Fig.-4 block set with the `dac` and `adc` estimates replaced by
/// calibrated converter rows, each a `(power_w, area_mm2)` pair — what a
/// design point in the `ofpc-dse` sweep actually asks the form factor
/// to carry. The block order, and so every budget sum, is unchanged.
pub fn compute_blocks_with(dac: (f64, f64), adc: (f64, f64)) -> Vec<BlockBudget> {
    let mut blocks = compute_blocks();
    for b in &mut blocks {
        (b.power_w, b.area_mm2) = match b.name.as_str() {
            "dac" => dac,
            "adc" => adc,
            _ => continue,
        };
    }
    blocks
}

/// Budget-check result.
#[derive(Debug, Clone)]
pub struct BudgetReport {
    pub total_power_w: f64,
    pub total_area_mm2: f64,
    pub fits: bool,
}

/// Check whether a block set fits a form factor.
pub fn check_budget(blocks: &[BlockBudget], ff: FormFactor) -> BudgetReport {
    let total_power_w: f64 = blocks.iter().map(|b| b.power_w).sum();
    let total_area_mm2: f64 = blocks.iter().map(|b| b.area_mm2).sum();
    BudgetReport {
        total_power_w,
        total_area_mm2,
        fits: total_power_w <= ff.power_ceiling_w() && total_area_mm2 <= ff.pic_area_mm2(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commodity_fits_qsfp_dd() {
        let report = check_budget(&commodity_blocks(), FormFactor::QsfpDd);
        assert!(report.fits, "{report:?}");
    }

    #[test]
    fn compute_transponder_fits_osfp_but_is_tight_in_qsfp_dd() {
        // The §5 form-factor concern, quantified: the engine additions
        // push past the QSFP-DD 20 W class but fit OSFP.
        let qsfp = check_budget(&compute_blocks(), FormFactor::QsfpDd);
        let osfp = check_budget(&compute_blocks(), FormFactor::Osfp);
        assert!(!qsfp.fits, "{qsfp:?}");
        assert!(osfp.fits, "{osfp:?}");
    }

    #[test]
    fn engine_additions_cost_roughly_5w() {
        let commodity: f64 = commodity_blocks().iter().map(|b| b.power_w).sum();
        let compute: f64 = compute_blocks().iter().map(|b| b.power_w).sum();
        let delta = compute - commodity;
        assert!(delta > 3.0 && delta < 8.0, "engine delta {delta} W");
    }

    #[test]
    #[should_panic(expected = "unknown block")]
    fn unknown_block_panics() {
        block("flux-capacitor");
    }
}
