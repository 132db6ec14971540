//! Bench gate: vectorized-kernel speedup over the scalar reference.
//!
//! Three checks, run as a `harness = false` binary so it can fail CI
//! with a nonzero exit:
//!
//! 1. **Relative speedup** — the vectorized P1 dot-product kernel must
//!    beat the scalar reference by at least [`MIN_SPEEDUP`]× on the
//!    *same machine in the same process* (best of [`TIMING_REPS`]
//!    trials each). This gate always runs: both sides see the same
//!    hardware, so no core-count escape hatch applies.
//! 2. **Absolute speedup** — when `BENCH_BASELINE.json` carries a
//!    scalar `dot_product_ms` figure recorded on a machine with the
//!    same core count, the vectorized kernel must also beat *that*
//!    pinned figure by [`MIN_SPEEDUP`]×. On a different machine shape
//!    the check prints a notice and skips — comparing against another
//!    machine's milliseconds would measure the hardware, not the code.
//! 3. **Vectorized regression** — the vectorized kernel must stay
//!    within [`MAX_VEC_REGRESSION`] (+50%) of the `dot_product_vec_ms`
//!    figure pinned in `BENCH_BASELINE.json`, under its own core stamp
//!    (`kernel_vec_cores`). A missing file, missing key, core mismatch,
//!    or `OFPC_BENCH_RECORD=1` re-records this gate's keys through
//!    [`ofpc_bench::gate`] instead of failing.
//!
//! Both kernels replicate `par_scaling`'s `dot_product_kernel` exactly
//! (seed 1, realistic config, 256 calibration symbols, 200 length-256
//! rows) so the scalar figure here is directly comparable to the
//! `dot_product_ms` baseline. Throughput is also reported in GMAC/s —
//! multiply-accumulates per wall-clock second — the unit the photonics
//! literature quotes for analog compute engines.

use ofpc_bench::gate::{best_time, cores, Baseline};
use ofpc_engine::dot::{DotProductUnit, DotUnitConfig, KernelBackend};
use ofpc_photonics::SimRng;
use std::hint::black_box;

/// Gate: vectorized must beat scalar by at least this factor.
const MIN_SPEEDUP: f64 = 5.0;
/// Gate: the vectorized kernel may regress at most this much vs its own
/// pinned baseline. Wider than `par_scaling`'s 1.10 because one trial
/// is ~1 ms — short enough that scheduler interference during a full
/// `ci.sh` run can inflate even a best-of minimum well past 10%.
const MAX_VEC_REGRESSION: f64 = 1.50;
/// Trials per timing; the best (minimum) is the reported figure.
const TIMING_REPS: usize = 5;
/// MVM rows per kernel invocation (matches `par_scaling`).
const ROWS: usize = 200;
/// Row length per invocation (matches `par_scaling`).
const ROW_LEN: usize = 256;

/// The P1 dot-product hot loop from `par_scaling`, parameterized on the
/// kernel backend: realistic calibrated unit, 200 length-256 MVM rows.
fn dot_product_kernel(backend: KernelBackend) {
    let mut rng = SimRng::seed_from_u64(1);
    let mut config = DotUnitConfig::realistic();
    config.backend = backend;
    let mut unit = DotProductUnit::new(config, &mut rng);
    unit.calibrate(256);
    let a = vec![0.5; ROW_LEN];
    let w = vec![0.25; ROW_LEN];
    for _ in 0..ROWS {
        black_box(unit.dot_nonneg(black_box(&a), black_box(&w)));
    }
}

/// GMAC/s for one kernel invocation that took `secs` seconds.
fn gmacs(secs: f64) -> f64 {
    (ROWS * ROW_LEN) as f64 / secs / 1e9
}

fn main() {
    // Warm-up pass for both backends (allocator, page cache, LUT build).
    dot_product_kernel(KernelBackend::Scalar);
    dot_product_kernel(KernelBackend::Vectorized);

    let scalar_s = best_time(TIMING_REPS, || dot_product_kernel(KernelBackend::Scalar));
    let vec_s = best_time(TIMING_REPS, || {
        dot_product_kernel(KernelBackend::Vectorized)
    });
    let speedup = scalar_s / vec_s;
    println!(
        "kernel_speedup: scalar {:.2} ms ({:.3} GMAC/s), vectorized {:.3} ms ({:.3} GMAC/s) \
         -> {speedup:.2}x",
        scalar_s * 1e3,
        gmacs(scalar_s),
        vec_s * 1e3,
        gmacs(vec_s),
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "kernel_speedup: vectorized backend is only {speedup:.2}x the scalar reference, \
         gate requires {MIN_SPEEDUP}x"
    );

    let mut base = Baseline::load();
    let measured_cores = cores();

    // Absolute gate against the scalar baseline pinned by par_scaling.
    match (base.get_num("cores"), base.get_num("dot_product_ms")) {
        (Some(c), Some(base_ms)) if c as usize == measured_cores => {
            let abs_speedup = base_ms / (vec_s * 1e3);
            println!(
                "kernel_speedup: vectorized vs pinned scalar baseline {base_ms:.2} ms \
                 -> {abs_speedup:.2}x"
            );
            assert!(
                abs_speedup >= MIN_SPEEDUP,
                "kernel_speedup: vectorized kernel is only {abs_speedup:.2}x the pinned \
                 scalar baseline ({base_ms:.2} ms), gate requires {MIN_SPEEDUP}x"
            );
        }
        (Some(c), Some(_)) => println!(
            "kernel_speedup: absolute gate skipped — scalar baseline is from a {}-core \
             machine, this one has {measured_cores}",
            c as usize
        ),
        _ => println!("kernel_speedup: absolute gate skipped — no pinned scalar baseline"),
    }

    // Vectorized self-regression gate, with its own core stamp.
    let vec_ms = vec_s * 1e3;
    match base.pinned(
        "kernel_speedup",
        "kernel_vec_cores",
        &["dot_product_vec_ms"],
    ) {
        Ok(pinned) => {
            let want = pinned[0];
            println!(
                "kernel_speedup: vectorized {vec_ms:.3} ms vs baseline {want:.3} ms \
                 (gate {:.3} ms)",
                want * MAX_VEC_REGRESSION
            );
            assert!(
                vec_ms <= want * MAX_VEC_REGRESSION,
                "kernel_speedup: vectorized kernel regressed: {vec_ms:.3} ms vs baseline \
                 {want:.3} ms (+{:.0}% allowed); if intentional, re-pin with \
                 OFPC_BENCH_RECORD=1",
                (MAX_VEC_REGRESSION - 1.0) * 100.0,
            );
        }
        Err(reason) => {
            base.record(
                "kernel_vec_cores",
                &[
                    ("dot_product_vec_ms", vec_ms),
                    ("dot_product_vec_gmacs", gmacs(vec_s)),
                ],
            );
            println!(
                "kernel_speedup: recorded new baseline ({reason}): vectorized {vec_ms:.3} ms \
                 ({:.3} GMAC/s) on {measured_cores} core(s)",
                gmacs(vec_s)
            );
        }
    }
    println!("kernel_speedup: all gates passed");
}
