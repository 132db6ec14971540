//! Bench gate: ingest front-end determinism, epoch-parallel scaling,
//! and throughput-per-core regression.
//!
//! Three checks, run as a `harness = false` binary so it can fail CI
//! with a nonzero exit:
//!
//! 1. **Determinism** — the mini-E21 report at 4 workers must be
//!    byte-identical to the 1-worker bytes (always checked; threads
//!    exist even when cores do not).
//! 2. **Epoch-parallel scaling** — on ≥ 4 cores, an 8-shard ingest run
//!    must finish at least [`MIN_SPEEDUP`]× faster on 4 workers than on
//!    1 (best of [`TIMING_REPS`] trials each); shard epochs are
//!    independent, so this measures the ofpc-par scatter over the real
//!    admission → batch → dispatch loop. Skipped with a notice on
//!    narrower machines.
//! 3. **Throughput-per-core regression** — sequential parsed-requests
//!    per wall-second must stay within [`MAX_REGRESSION`] of the
//!    `serve_scale_krps_per_core` figure pinned in
//!    `BENCH_BASELINE.json`, under its own core stamp
//!    (`serve_scale_cores`). A missing file, missing key, core
//!    mismatch, or `OFPC_BENCH_RECORD=1` re-records this gate's keys
//!    through [`ofpc_bench::gate`] instead of failing.

use ofpc_bench::gate::{best_time, cores, Baseline};
use ofpc_bench::ingest::{e21_mini, mini_config, run_e21};
use ofpc_ingest::IngestConfig;
use ofpc_par::WorkerPool;
use std::hint::black_box;

/// Gate: 4 workers must beat 1 worker by at least this factor.
const MIN_SPEEDUP: f64 = 2.0;
/// Gate: throughput may drop at most this factor below the baseline
/// (measured ≥ baseline / MAX_REGRESSION).
const MAX_REGRESSION: f64 = 1.50;
/// Trials per timing; the best (max throughput / min time) is reported.
const TIMING_REPS: usize = 5;

/// The timing workload: the mini class mix spread over 8 shards with a
/// longer horizon, so per-epoch shard work dwarfs the sequential
/// rebalance barrier.
fn scaling_config() -> IngestConfig {
    let mut c = mini_config();
    c.shards = 8;
    c.epochs = 2;
    c.epoch_ps = 30_000_000_000;
    for class in &mut c.classes {
        class.population *= 4;
    }
    // 8 shards need >= 8 slots (split_slots' one-slot-per-shard floor).
    c.sites[0].slots = 5;
    c.sites[1].slots = 3;
    c
}

fn check_determinism() {
    let reference = e21_mini(&WorkerPool::new(1));
    let wide = e21_mini(&WorkerPool::new(4));
    assert!(
        reference == wide,
        "serve_scale: 4-worker mini-E21 report diverged from the 1-worker bytes"
    );
    println!(
        "serve_scale: determinism OK (1-worker and 4-worker reports byte-identical, {} bytes)",
        reference.len()
    );
}

fn check_parallel_speedup() {
    if cores() < 4 {
        println!(
            "serve_scale: speedup check skipped ({} core(s) < 4); \
             determinism and throughput gates still apply",
            cores()
        );
        return;
    }
    let time_run = |workers: usize| {
        let pool = WorkerPool::new(workers);
        best_time(TIMING_REPS, || {
            black_box(run_e21(scaling_config(), &pool));
        })
    };
    let t1 = time_run(1);
    let t4 = time_run(4);
    let speedup = t1 / t4;
    println!(
        "serve_scale: 8-shard ingest run {:.1} ms @1w, {:.1} ms @4w ({speedup:.2}×, gate {MIN_SPEEDUP:.1}×)",
        t1 * 1e3,
        t4 * 1e3
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "serve_scale: epoch-parallel speedup {speedup:.2}× below the {MIN_SPEEDUP:.1}× gate"
    );
}

/// Sequential front-end throughput: parsed requests per wall-second on
/// one worker — the per-core figure the baseline pins.
fn throughput_krps_per_core() -> f64 {
    let pool = WorkerPool::sequential();
    let parsed = run_e21(scaling_config(), &pool).parsed;
    let secs = best_time(TIMING_REPS, || {
        black_box(run_e21(scaling_config(), &pool));
    });
    parsed as f64 / secs / 1e3
}

fn check_throughput_regression() {
    let measured_krps = throughput_krps_per_core();
    let mut base = Baseline::load();
    match base.pinned(
        "serve_scale",
        "serve_scale_cores",
        &["serve_scale_krps_per_core"],
    ) {
        Ok(pinned) => {
            let want = pinned[0];
            println!(
                "serve_scale: throughput {measured_krps:.0} kreq/s/core vs baseline \
                 {want:.0} (gate {:.0})",
                want / MAX_REGRESSION
            );
            assert!(
                measured_krps >= want / MAX_REGRESSION,
                "serve_scale: throughput regressed: {measured_krps:.0} kreq/s/core vs \
                 baseline {want:.0} (÷{MAX_REGRESSION:.1} allowed); if intentional, \
                 re-pin with OFPC_BENCH_RECORD=1"
            );
        }
        Err(reason) => {
            base.record(
                "serve_scale_cores",
                &[("serve_scale_krps_per_core", measured_krps)],
            );
            println!(
                "serve_scale: recorded new baseline ({reason}): {measured_krps:.0} kreq/s/core on \
                 {} core(s)",
                cores()
            );
        }
    }
}

fn main() {
    check_determinism();
    check_parallel_speedup();
    check_throughput_regression();
    println!("serve_scale: all gates passed");
}
