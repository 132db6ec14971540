//! Bench: P1 photonic dot product (simulator throughput).
//!
//! Measures how fast the *simulation* of the Fig.-2a pipeline runs per
//! vector length — the number that bounds every higher-level experiment
//! — alongside the modeled device latency for context. Both kernel
//! backends are measured (the scalar reference and the vectorized
//! fused-power-domain path), and a summary table reports throughput in
//! GMAC/s — multiply-accumulates per wall-clock second, the figure of
//! merit the photonic-computing literature quotes — next to the
//! per-config wall times.

use ofpc_bench::gate::{best_time, per_call, report};
use ofpc_engine::dot::{DotProductUnit, DotUnitConfig, KernelBackend};
use ofpc_photonics::SimRng;
use std::hint::black_box;

/// A calibrated unit from a fixed seed on the given config + backend.
fn calibrated(mut config: DotUnitConfig, backend: KernelBackend) -> DotProductUnit {
    config.backend = backend;
    let mut rng = SimRng::seed_from_u64(1);
    let mut unit = DotProductUnit::new(config, &mut rng);
    unit.calibrate(256);
    unit
}

fn bench_dot() {
    for &n in &[16usize, 64, 256] {
        for (label, config) in [
            ("ideal", DotUnitConfig::ideal()),
            ("realistic", DotUnitConfig::realistic()),
        ] {
            for (suffix, backend) in [
                ("", KernelBackend::Scalar),
                ("-vectorized", KernelBackend::Vectorized),
            ] {
                let mut unit = calibrated(config.clone(), backend);
                let a = vec![0.5; n];
                let w = vec![0.25; n];
                let t = per_call(|| {
                    black_box(unit.dot_nonneg(black_box(&a), black_box(&w)));
                });
                report(
                    &format!("p1_dot_product/{label}{suffix}/{n}"),
                    t,
                    Some(n as u64),
                );
            }
        }
    }
}

/// Explicit GMAC/s summary for the hot configuration (realistic, both
/// backends): MACs per wall-clock second over a sustained run.
fn bench_gmacs() {
    let n = 256usize;
    let reps = 200usize;
    for (label, backend) in [
        ("scalar", KernelBackend::Scalar),
        ("vectorized", KernelBackend::Vectorized),
    ] {
        let mut unit = calibrated(DotUnitConfig::realistic(), backend);
        let a = vec![0.5; n];
        let w = vec![0.25; n];
        // Warm-up (LUT build, allocator).
        for _ in 0..reps {
            black_box(unit.dot_nonneg(black_box(&a), black_box(&w)));
        }
        let best = best_time(5, || {
            for _ in 0..reps {
                black_box(unit.dot_nonneg(black_box(&a), black_box(&w)));
            }
        });
        let gmacs = (n * reps) as f64 / best / 1e9;
        println!(
            "p1_dot_product/gmacs/realistic-{label:<10}  {:>8.2} ms for {} MACs -> {gmacs:.4} GMAC/s",
            best * 1e3,
            n * reps,
        );
    }
}

fn bench_signed() {
    let mut unit = DotProductUnit::ideal();
    let a: Vec<f64> = (0..64).map(|i| (i as f64 / 32.0) - 1.0).collect();
    let w: Vec<f64> = (0..64).map(|i| 1.0 - (i as f64 / 32.0)).collect();
    let t = per_call(|| {
        black_box(unit.dot_signed(black_box(&a), black_box(&w)));
    });
    report("p1_dot_signed_64", t, None);
}

fn main() {
    bench_dot();
    bench_gmacs();
    bench_signed();
}
