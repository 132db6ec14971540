//! The Fig.-1 "image recognition" application, end to end: train a glyph
//! classifier against the *measured* photonic activation curve, deploy
//! it on P1/P3 engine hardware, and check that photonic inference
//! matches digital accuracy — the paper's §4 noise-mitigation loop.
//!
//! Run with: `cargo run --release --example image_recognition_wan`

use ofpc_apps::ml::{
    accuracy_photonic, accuracy_with_activation, deploy_curve_trained, synthetic_glyphs, train_mlp,
    TrainActivation,
};
use ofpc_engine::nonlinear::NonlinearUnit;
use ofpc_photonics::SimRng;

fn main() {
    let mut rng = SimRng::seed_from_u64(2026);

    // 1. Synthetic "camera" data: four 8×8 glyph classes with noise.
    let train = synthetic_glyphs(40, 0.08, &mut rng);
    let test = synthetic_glyphs(15, 0.08, &mut rng);
    println!(
        "dataset: {} training / {} test images, {} classes",
        train.len(),
        test.len(),
        train.classes
    );

    // 2. Characterize the deployed P3 activation: sweep its transfer
    //    curve once (this is calibration metadata the controller ships
    //    with the model, per §4).
    let curve = NonlinearUnit::ideal().transfer_curve(64);
    let scale = 4.0;
    let act = TrainActivation::ScaledCurve {
        curve: curve.clone(),
        scale,
    };

    // 3. Train the MLP *through* that curve (photonics-aware training).
    let mlp = train_mlp(&[64, 16, 4], &train, &act, &mut rng);
    let digital_acc = accuracy_with_activation(&mlp, &test, &act);
    println!("digital accuracy (curve activation): {digital_acc:.3}");

    // 4. Deploy onto the photonic engine: 4 WDM lanes of P1 dot-product
    //    units plus the P3 activation, with the training-time scales.
    let mut pdnn = deploy_curve_trained(&mlp, scale, 4, &mut rng);
    let photonic_acc = accuracy_photonic(&mut pdnn, &test);
    println!("photonic accuracy (on-engine):       {photonic_acc:.3}");

    // 5. The deployment economics: latency and energy per inference.
    println!(
        "\nper-inference latency on engine: {:.1} ns ({} MACs per inference)",
        pdnn.latency_s() * 1e9,
        mlp.macs_per_inference()
    );
    let ledger = pdnn.energy_ledger();
    println!(
        "engine energy ledger after {} inferences:\n{ledger}",
        test.len()
    );

    assert!(
        photonic_acc >= digital_acc - 0.1,
        "photonic inference must track digital accuracy"
    );
    println!("\nphotonic inference tracks digital accuracy — §4 mitigation works.");
}
