//! E10 — §4's called-out challenge: "new algorithms to mitigate photonic
//! noise during computation and achieve high accuracy."
//!
//! Two mitigation knobs, each ablated on the glyph-classification task:
//!
//! 1. **Device calibration** (gain/offset): run the P1 unit with its
//!    calibration replaced by the nominal (loss-blind) constants and
//!    watch dot-product precision collapse.
//! 2. **Photonics-aware training**: train the DNN against the exact
//!    ReLU, then execute on the photonic activation (mismatch), versus
//!    training against the measured transfer curve (matched). Accuracy
//!    recovers under matched training.

use crate::table::{versioned_pretty, Table};
use ofpc_apps::ml::{
    accuracy_photonic, accuracy_with_activation, deploy_curve_trained, synthetic_glyphs, train_mlp,
    TrainActivation,
};
use ofpc_engine::calibration::DotCalibration;
use ofpc_engine::dnn::PhotonicDnn;
use ofpc_engine::dot::{DotProductUnit, DotUnitConfig};
use ofpc_engine::mvm::PhotonicMatVec;
use ofpc_engine::nonlinear::NonlinearUnit;
use ofpc_engine::precision::measure_precision;
use ofpc_par::WorkerPool;
use ofpc_photonics::SimRng;
use serde::Serialize;

#[derive(Serialize, Default)]
struct E10Result {
    calibrated_rms: f64,
    uncalibrated_rms: f64,
    calibrated_bits: f64,
    uncalibrated_bits: f64,
    relu_trained_digital_acc: f64,
    relu_trained_photonic_acc: f64,
    curve_trained_digital_acc: f64,
    curve_trained_photonic_acc: f64,
}

pub(crate) fn expt(_pool: &WorkerPool) -> String {
    println!("E10: noise-mitigation ablations\n");
    let mut result = E10Result::default();

    // ---- Ablation 1: calibration ----
    let make_unit = |calibrated: bool| -> DotProductUnit {
        let mut rng = SimRng::seed_from_u64(10);
        let mut cfg = DotUnitConfig::ideal();
        cfg.mzm_a.insertion_loss_db = 3.5;
        cfg.mzm_b.insertion_loss_db = 3.5;
        cfg.pd.shot_noise = true;
        let mut unit = DotProductUnit::new(cfg.clone(), &mut rng);
        if calibrated {
            unit.calibrate(512);
        } else {
            // Nominal constants: responsivity × laser power, loss-blind.
            let p0 = ofpc_photonics::units::dbm_to_watts(cfg.laser.power_dbm);
            unit.set_calibration(DotCalibration {
                unit_current_a: ofpc_photonics::photodetector::RESPONSIVITY_A_W * p0,
                dark_current_a: 0.0,
            });
        }
        unit
    };
    let mut prng = SimRng::seed_from_u64(11);
    let cal = measure_precision(&mut make_unit(true), 64, 25, &mut prng);
    let mut prng = SimRng::seed_from_u64(11);
    let uncal = measure_precision(&mut make_unit(false), 64, 25, &mut prng);
    let mut t = Table::new(
        "ablation 1 — gain/offset calibration (P1, n=64)",
        &["configuration", "rms error", "effective bits"],
    );
    t.row(&[
        "calibrated".into(),
        format!("{:.2e}", cal.rms_error),
        format!("{:.2}", cal.effective_bits),
    ]);
    t.row(&[
        "uncalibrated (nominal)".into(),
        format!("{:.2e}", uncal.rms_error),
        format!("{:.2}", uncal.effective_bits),
    ]);
    t.print();
    result.calibrated_rms = cal.rms_error;
    result.uncalibrated_rms = uncal.rms_error;
    result.calibrated_bits = cal.effective_bits;
    result.uncalibrated_bits = uncal.effective_bits;
    assert!(
        uncal.rms_error > 10.0 * cal.rms_error,
        "calibration must matter: {:.2e} vs {:.2e}",
        uncal.rms_error,
        cal.rms_error
    );

    // ---- Ablation 2: photonics-aware training ----
    let mut rng = SimRng::seed_from_u64(12);
    let train = synthetic_glyphs(30, &mut rng);
    let test = synthetic_glyphs(12, &mut rng);
    let curve = NonlinearUnit::ideal().transfer_curve(64);
    let scale = 4.0;

    // (a) ReLU-trained, photonic execution (mismatched).
    let relu_mlp = train_mlp(&[64, 16, 4], &train, &TrainActivation::Relu, &mut rng);
    result.relu_trained_digital_acc = ofpc_apps::ml::accuracy_digital(&relu_mlp, &test);
    let engine = {
        let mut erng = SimRng::seed_from_u64(13);
        let mut e = PhotonicMatVec::new(DotUnitConfig::ideal(), 4, &mut erng);
        e.calibrate(64);
        e
    };
    let calib: Vec<Vec<f64>> = train.images.iter().take(16).cloned().collect();
    let mut relu_pdnn = PhotonicDnn::new(&relu_mlp, engine, NonlinearUnit::ideal(), &calib);
    result.relu_trained_photonic_acc = accuracy_photonic(&mut relu_pdnn, &test);

    // (b) curve-trained, photonic execution (matched).
    let act = TrainActivation::ScaledCurve {
        curve: curve.clone(),
        scale,
    };
    let curve_mlp = train_mlp(&[64, 16, 4], &train, &act, &mut rng);
    result.curve_trained_digital_acc = accuracy_with_activation(&curve_mlp, &test, &act);
    let mut curve_pdnn = deploy_curve_trained(&curve_mlp, scale, &mut rng);
    result.curve_trained_photonic_acc = accuracy_photonic(&mut curve_pdnn, &test);

    let mut t = Table::new(
        "ablation 2 — photonics-aware training (glyph classification)",
        &["training", "digital acc", "photonic acc"],
    );
    t.row(&[
        "exact ReLU (mismatched)".into(),
        format!("{:.2}", result.relu_trained_digital_acc),
        format!("{:.2}", result.relu_trained_photonic_acc),
    ]);
    t.row(&[
        "measured curve (matched)".into(),
        format!("{:.2}", result.curve_trained_digital_acc),
        format!("{:.2}", result.curve_trained_photonic_acc),
    ]);
    t.print();

    assert!(
        result.curve_trained_photonic_acc >= result.relu_trained_photonic_acc,
        "matched training must not be worse photonic-side"
    );
    assert!(
        result.curve_trained_photonic_acc >= 0.8,
        "matched training should restore high accuracy ({})",
        result.curve_trained_photonic_acc
    );
    println!(
        "\nphotonic accuracy: {:.2} (ReLU-trained) → {:.2} (curve-trained)",
        result.relu_trained_photonic_acc, result.curve_trained_photonic_acc
    );
    versioned_pretty(&result)
}
