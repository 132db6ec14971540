//! Bench gate: resilience-layer determinism, energy overhead, and
//! throughput.
//!
//! Three checks, run as a `harness = false` binary so it can fail CI
//! with a nonzero exit:
//!
//! 1. **Determinism** — the mini-E18 storm comparison at 4 workers must
//!    be byte-identical to the 1-worker bytes: the whole redundancy
//!    dance (set formation, first-home-wins arbitration, cancellation,
//!    reconstruction) replays exactly on the `ofpc-par` pool.
//! 2. **Energy-overhead gates** — the mini scenario's protection price
//!    must stay within the ISSUE's contract: replica ≤ 2.1×, parity
//!    ≤ 1.5× of the unprotected baseline, with parity strictly cheaper
//!    than replication.
//! 3. **Throughput regression** — one sequential mini-E18 comparison
//!    (three serving runs under the same storm) must stay within
//!    [`MAX_REGRESSION`] of the `resil_overhead_ms` figure pinned in
//!    `BENCH_BASELINE.json`, under its own core stamp
//!    (`resil_overhead_cores`). A missing file, missing key, core
//!    mismatch, or `OFPC_BENCH_RECORD=1` re-records this gate's keys
//!    through [`ofpc_bench::gate`] instead of failing.

use ofpc_bench::gate::{best_time, cores, Baseline};
use ofpc_bench::resil::{run_e18, E18Config};
use ofpc_par::WorkerPool;
use std::hint::black_box;

/// Gate: the sequential comparison may regress at most this much.
const MAX_REGRESSION: f64 = 1.50;
/// Trials per timing; the best (minimum) is the reported figure.
const TIMING_REPS: usize = 10;

fn comparison_kernel() {
    let pool = WorkerPool::sequential();
    let cfg = E18Config::mini();
    black_box(run_e18(&pool, black_box(&cfg)));
}

fn check_determinism() {
    let reference = ofpc_bench::resil::e18_mini(&WorkerPool::new(1));
    let wide = ofpc_bench::resil::e18_mini(&WorkerPool::new(4));
    assert!(
        reference == wide,
        "resil_overhead: 4-worker mini-E18 comparison diverged from the 1-worker bytes"
    );
    println!(
        "resil_overhead: determinism OK (1-worker and 4-worker storms byte-identical, {} bytes)",
        reference.len()
    );
}

fn check_energy_gates() {
    let rep = run_e18(&WorkerPool::sequential(), &E18Config::mini());
    let replica = &rep.runs[1];
    let parity = &rep.runs[2];
    println!(
        "resil_overhead: energy overhead replica {:.3}x (gate 2.1x), parity {:.3}x (gate 1.5x)",
        replica.energy_overhead, parity.energy_overhead
    );
    assert!(
        replica.energy_overhead <= 2.1,
        "resil_overhead: replica energy overhead {:.3} above the 2.1x gate",
        replica.energy_overhead
    );
    assert!(
        parity.energy_overhead <= 1.5,
        "resil_overhead: parity energy overhead {:.3} above the 1.5x gate",
        parity.energy_overhead
    );
    assert!(
        parity.energy_overhead < replica.energy_overhead,
        "resil_overhead: coding must undercut full replication"
    );
}

fn check_throughput_regression() {
    // Warm-up pass.
    comparison_kernel();
    let measured_ms = best_time(TIMING_REPS, comparison_kernel) * 1e3;
    let mut base = Baseline::load();
    match base.pinned(
        "resil_overhead",
        "resil_overhead_cores",
        &["resil_overhead_ms"],
    ) {
        Ok(pinned) => {
            let want = pinned[0];
            println!(
                "resil_overhead: mini-E18 comparison {measured_ms:.2} ms vs baseline \
                 {want:.2} ms (gate {:.2} ms)",
                want * MAX_REGRESSION
            );
            assert!(
                measured_ms <= want * MAX_REGRESSION,
                "resil_overhead: storm-comparison throughput regressed: {measured_ms:.2} ms \
                 vs baseline {want:.2} ms (+{:.0}% allowed); if intentional, re-pin with \
                 OFPC_BENCH_RECORD=1",
                (MAX_REGRESSION - 1.0) * 100.0,
            );
        }
        Err(reason) => {
            base.record(
                "resil_overhead_cores",
                &[("resil_overhead_ms", measured_ms)],
            );
            println!(
                "resil_overhead: recorded new baseline ({reason}): {measured_ms:.2} ms on \
                 {} core(s)",
                cores()
            );
        }
    }
}

fn main() {
    check_determinism();
    check_energy_gates();
    check_throughput_regression();
    println!("resil_overhead: all gates passed");
}
