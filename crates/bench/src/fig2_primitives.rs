//! E2 — Fig. 2a/2b/2c: the three photonic computing primitives,
//! characterized at the device level.
//!
//! * **E2a (Fig. 2a, P1)**: dot-product accuracy and effective bits vs
//!   vector length and optical power.
//! * **E2b (Fig. 2b, P2)**: pattern-match discrimination — distance
//!   estimates for matched vs 1-bit-off vs random blocks, and the error
//!   rate of the match decision under receiver noise.
//! * **E2c (Fig. 2c, P3)**: the nonlinear transfer curve and its
//!   deviation from an ideal shifted ReLU.

use crate::table::{versioned_pretty, Table};
use ofpc_engine::dot::{DotProductUnit, DotUnitConfig};
use ofpc_engine::matcher::{MatcherConfig, PatternMatcher};
use ofpc_engine::nonlinear::{relu_reference, NonlinearUnit};
use ofpc_engine::precision::measure_precision;
use ofpc_par::WorkerPool;
use ofpc_photonics::SimRng;
use serde::Serialize;

#[derive(Serialize)]
struct E2aRow {
    n: usize,
    laser_dbm: f64,
    rms_error: f64,
    effective_bits: f64,
}

#[derive(Serialize)]
struct E2bRow {
    pattern_bits: usize,
    matched_est: f64,
    one_off_est: f64,
    random_est: f64,
    decision_errors: usize,
    trials: usize,
}

#[derive(Serialize, Default)]
struct E2Result {
    a: Vec<E2aRow>,
    b: Vec<E2bRow>,
    c_curve: Vec<(f64, f64)>,
    c_max_relu_dev: f64,
}

pub(crate) fn expt(_pool: &WorkerPool) -> String {
    let mut result = E2Result::default();

    // ---------- E2a: P1 precision sweep ----------
    let mut t = Table::new(
        "E2a — P1 dot product: precision vs vector length and power",
        &["n", "laser dBm", "rms err", "eff. bits"],
    );
    for &laser_dbm in &[13.0, 3.0, -7.0] {
        for &n in &[4usize, 16, 64, 256] {
            let mut rng = SimRng::seed_from_u64(1000 + n as u64);
            let mut cfg = DotUnitConfig::realistic();
            cfg.laser.power_dbm = laser_dbm;
            let mut unit = DotProductUnit::new(cfg, &mut rng);
            unit.calibrate(512);
            let mut prng = SimRng::seed_from_u64(7);
            let report = measure_precision(&mut unit, n, 25, &mut prng);
            t.row(&[
                n.to_string(),
                format!("{laser_dbm:.0}"),
                format!("{:.2e}", report.rms_error),
                format!("{:.2}", report.effective_bits),
            ]);
            result.a.push(E2aRow {
                n,
                laser_dbm,
                rms_error: report.rms_error,
                effective_bits: report.effective_bits,
            });
        }
    }
    t.print();
    // Shape check: precision degrades as launch power falls.
    let hi = result
        .a
        .iter()
        .filter(|r| r.laser_dbm == 13.0)
        .map(|r| r.effective_bits)
        .sum::<f64>();
    let lo = result
        .a
        .iter()
        .filter(|r| r.laser_dbm == -7.0)
        .map(|r| r.effective_bits)
        .sum::<f64>();
    assert!(hi > lo, "effective bits must fall with optical power");

    // ---------- E2b: P2 discrimination ----------
    let mut t = Table::new(
        "E2b — P2 pattern matching: distance estimates and decisions",
        &[
            "bits",
            "matched est",
            "1-off est",
            "random est",
            "errors/trials",
        ],
    );
    for &bits in &[8usize, 32, 128] {
        let mut rng = SimRng::seed_from_u64(2000 + bits as u64);
        let mut m = PatternMatcher::new(MatcherConfig::realistic(), &mut rng);
        m.calibrate(256);
        let mut wrng = SimRng::seed_from_u64(5);
        let pattern: Vec<bool> = (0..bits).map(|_| wrng.chance(0.5)).collect();
        let trials = 30;
        let mut matched_sum = 0.0;
        let mut oneoff_sum = 0.0;
        let mut random_sum = 0.0;
        let mut errors = 0;
        for _ in 0..trials {
            let r = m.match_block(&pattern, &pattern);
            matched_sum += r.distance_estimate;
            if !r.matched {
                errors += 1;
            }
            let mut oneoff = pattern.clone();
            let flip = wrng.below(bits);
            oneoff[flip] = !oneoff[flip];
            let r = m.match_block(&oneoff, &pattern);
            oneoff_sum += r.distance_estimate;
            if r.matched {
                errors += 1;
            }
            let random: Vec<bool> = (0..bits).map(|_| wrng.chance(0.5)).collect();
            let r = m.match_block(&random, &pattern);
            random_sum += r.distance_estimate;
        }
        let row = E2bRow {
            pattern_bits: bits,
            matched_est: matched_sum / trials as f64,
            one_off_est: oneoff_sum / trials as f64,
            random_est: random_sum / trials as f64,
            decision_errors: errors,
            trials: 2 * trials,
        };
        t.row(&[
            bits.to_string(),
            format!("{:.3}", row.matched_est),
            format!("{:.3}", row.one_off_est),
            format!("{:.1}", row.random_est),
            format!("{}/{}", row.decision_errors, row.trials),
        ]);
        result.b.push(row);
    }
    t.print();
    for row in &result.b {
        assert!(row.matched_est < 0.3, "matched blocks near zero distance");
        assert!(
            (row.one_off_est - 1.0).abs() < 0.3,
            "one-off distance ≈ 1 (got {})",
            row.one_off_est
        );
        assert!(
            (row.random_est - row.pattern_bits as f64 / 2.0).abs() < row.pattern_bits as f64 * 0.25,
            "random distance ≈ n/2"
        );
    }

    // ---------- E2c: P3 transfer curve ----------
    let mut unit = NonlinearUnit::ideal();
    let curve = unit.transfer_curve(33);
    let knee = curve
        .iter()
        .find(|(_, y)| *y > 0.05)
        .map(|(x, _)| *x)
        .unwrap_or(0.0);
    let mut max_dev: f64 = 0.0;
    let mut t = Table::new(
        "E2c — P3 transfer curve (x → f(x))",
        &["x", "f(x)", "ReLU ref"],
    );
    for &(x, y) in &curve {
        let r = relu_reference(x, knee);
        if x > knee {
            max_dev = max_dev.max((y - r).abs());
        }
        if (x * 8.0).fract() < 1e-9 {
            t.row(&[format!("{x:.3}"), format!("{y:.3}"), format!("{r:.3}")]);
        }
    }
    t.print();
    println!("knee ≈ {knee:.3}; max deviation from shifted ReLU above knee: {max_dev:.3}");
    result.c_curve = curve;
    result.c_max_relu_dev = max_dev;
    assert!(max_dev < 0.3, "P3 must be ReLU-like above the knee");

    versioned_pretty(&result)
}
