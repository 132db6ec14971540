//! Bench gate: design-space-sweep determinism and throughput.
//!
//! Two checks, run as a `harness = false` binary so it can fail CI with
//! a nonzero exit:
//!
//! 1. **Determinism** — the mini-E17 sweep at 4 workers must be
//!    byte-identical to the 1-worker bytes (the same contract the
//!    serving sweeps pin in `par_scaling`).
//! 2. **Throughput regression** — the full sequential E17 sweep (54
//!    design points, closed-form pricing) must stay within
//!    [`MAX_REGRESSION`] (+50%) of the `dse_sweep_ms` figure pinned in
//!    `BENCH_BASELINE.json`, under its own core-count stamp
//!    (`dse_sweep_cores`) so it re-records independently of the other
//!    gates. A missing file, missing key, core-count mismatch, or
//!    `OFPC_BENCH_RECORD=1` re-records this gate's keys through
//!    [`ofpc_bench::gate`] instead of failing.

use ofpc_bench::dse;
use ofpc_bench::gate::{best_time, cores, Baseline};
use ofpc_dse::{run_sweep, SweepSpec};
use ofpc_par::WorkerPool;
use std::hint::black_box;

/// Gate: the sequential sweep may regress at most this much. Wider
/// than `par_scaling`'s 1.10 because one trial here is only ~10 ms —
/// short enough that sustained scheduler interference during a full
/// `ci.sh` run can inflate even a best-of minimum past 10%.
const MAX_REGRESSION: f64 = 1.50;
/// Trials per timing; the best (minimum) is the reported figure. Enough
/// trials to spread the measurement window past transient CPU
/// contention from earlier CI steps.
const TIMING_REPS: usize = 15;
/// Full-sweep invocations per trial, so one trial is comfortably above
/// timer resolution.
const SWEEPS_PER_TRIAL: usize = 10;

fn sweep_kernel() {
    let pool = WorkerPool::sequential();
    let spec = SweepSpec::e17();
    for _ in 0..SWEEPS_PER_TRIAL {
        black_box(run_sweep(&pool, black_box(&spec)));
    }
}

fn check_determinism() {
    let reference = dse::e17_mini(&WorkerPool::new(1));
    let wide = dse::e17_mini(&WorkerPool::new(4));
    assert!(
        reference == wide,
        "dse_sweep: 4-worker mini-E17 sweep diverged from the 1-worker bytes"
    );
    println!(
        "dse_sweep: determinism OK (1-worker and 4-worker sweeps byte-identical, {} bytes)",
        reference.len()
    );
}

fn check_throughput_regression() {
    // Warm-up pass.
    sweep_kernel();
    let measured_ms = best_time(TIMING_REPS, sweep_kernel) * 1e3;
    let mut base = Baseline::load();
    match base.pinned("dse_sweep", "dse_sweep_cores", &["dse_sweep_ms"]) {
        Ok(pinned) => {
            let want = pinned[0];
            println!(
                "dse_sweep: {SWEEPS_PER_TRIAL}x E17 sweep {measured_ms:.2} ms vs baseline \
                 {want:.2} ms (gate {:.2} ms)",
                want * MAX_REGRESSION
            );
            assert!(
                measured_ms <= want * MAX_REGRESSION,
                "dse_sweep: sweep throughput regressed: {measured_ms:.2} ms vs baseline \
                 {want:.2} ms (+{:.0}% allowed); if intentional, re-pin with \
                 OFPC_BENCH_RECORD=1",
                (MAX_REGRESSION - 1.0) * 100.0,
            );
        }
        Err(reason) => {
            base.record("dse_sweep_cores", &[("dse_sweep_ms", measured_ms)]);
            println!(
                "dse_sweep: recorded new baseline ({reason}): {measured_ms:.2} ms on \
                 {} core(s)",
                cores()
            );
        }
    }
}

fn main() {
    check_determinism();
    check_throughput_regression();
    println!("dse_sweep: all gates passed");
}
