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
    /// CFP2: ~24 W class.
    Cfp2,
}

impl FormFactor {
    /// Maximum module power, W.
    pub fn power_ceiling_w(self) -> f64 {
        match self {
            FormFactor::QsfpDd => 20.0,
            FormFactor::Osfp => 28.0,
            FormFactor::Cfp2 => 24.0,
        }
    }

    /// Usable PIC area, mm² (order-of-magnitude per published module
    /// teardowns; silicon photonics dies in pluggables run tens of mm²).
    pub fn pic_area_mm2(self) -> f64 {
        match self {
            FormFactor::QsfpDd => 40.0,
            FormFactor::Osfp => 60.0,
            FormFactor::Cfp2 => 55.0,
        }
    }
}

/// One hardware block's power and area demand.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockBudget {
    pub name: String,
    pub power_w: f64,
    pub area_mm2: f64,
}

impl BlockBudget {
    /// Budget entry from a calibrated catalog part.
    pub fn from_part(part: &dyn ofpc_photonics::parts::HardwarePart) -> Self {
        BlockBudget {
            name: part.part_name().to_string(),
            power_w: part.power_w(),
            area_mm2: part.area_mm2(),
        }
    }
}

/// Catalog of block budgets (commodity + photonic-engine additions).
/// Values are engineering estimates consistent with the published device
/// classes the paper cites; they exist to make §5's form-factor question
/// quantitative, not to claim component-level accuracy.
pub fn block(name: &str) -> BlockBudget {
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
pub fn commodity_blocks() -> Vec<BlockBudget> {
    ["laser", "tx-mzm", "dac", "adc", "pd-tia", "dsp"]
        .iter()
        .map(|n| block(n))
        .collect()
}

/// The block set of a photonic compute transponder (Fig. 4): commodity
/// blocks plus the engine additions.
pub fn compute_blocks() -> Vec<BlockBudget> {
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

/// The Fig.-4 block set with the converter/modulator/laser estimates
/// replaced by calibrated catalog parts — what a design point in the
/// `ofpc-dse` sweep actually asks the form factor to carry.
pub fn compute_blocks_with(
    dac: &dyn ofpc_photonics::parts::HardwarePart,
    adc: &dyn ofpc_photonics::parts::HardwarePart,
    modulator: &dyn ofpc_photonics::parts::HardwarePart,
    laser: &dyn ofpc_photonics::parts::HardwarePart,
) -> Vec<BlockBudget> {
    compute_blocks()
        .into_iter()
        .map(|b| match b.name.as_str() {
            "dac" => BlockBudget::from_part(dac),
            "adc" => BlockBudget::from_part(adc),
            "tx-mzm" => BlockBudget::from_part(modulator),
            "laser" => BlockBudget::from_part(laser),
            _ => b,
        })
        .collect()
}

/// Budget-check result.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetReport {
    pub form_factor: FormFactor,
    pub total_power_w: f64,
    pub total_area_mm2: f64,
    pub power_headroom_w: f64,
    pub area_headroom_mm2: f64,
    pub fits: bool,
}

/// Check whether a block set fits a form factor.
pub fn check_budget(blocks: &[BlockBudget], ff: FormFactor) -> BudgetReport {
    let total_power_w: f64 = blocks.iter().map(|b| b.power_w).sum();
    let total_area_mm2: f64 = blocks.iter().map(|b| b.area_mm2).sum();
    let power_headroom_w = ff.power_ceiling_w() - total_power_w;
    let area_headroom_mm2 = ff.pic_area_mm2() - total_area_mm2;
    BudgetReport {
        form_factor: ff,
        total_power_w,
        total_area_mm2,
        power_headroom_w,
        area_headroom_mm2,
        fits: power_headroom_w >= 0.0 && area_headroom_mm2 >= 0.0,
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
    fn headroom_math_is_consistent() {
        let report = check_budget(&commodity_blocks(), FormFactor::Osfp);
        assert!(
            (report.total_power_w + report.power_headroom_w - FormFactor::Osfp.power_ceiling_w())
                .abs()
                < 1e-12
        );
    }

    #[test]
    #[should_panic(expected = "unknown block")]
    fn unknown_block_panics() {
        block("flux-capacitor");
    }

    #[test]
    fn form_factors_are_ordered_by_power() {
        assert!(FormFactor::QsfpDd.power_ceiling_w() < FormFactor::Cfp2.power_ceiling_w());
        assert!(FormFactor::Cfp2.power_ceiling_w() < FormFactor::Osfp.power_ceiling_w());
    }
}
