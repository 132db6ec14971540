//! Differential tests for the deterministic parallel execution layer
//! (DESIGN.md §8): every parallelized path must produce byte-identical
//! output to its sequential reference at 1, 2, and 8 workers.

use ofpc_bench::{faults, serving, telemetry};
use ofpc_engine::batch::{BatchEngine, KernelSpec};
use ofpc_par::{split_seed, WorkerPool};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn diff_across_workers(label: &str, run: impl Fn(&WorkerPool) -> String) {
    let reference = run(&WorkerPool::new(WORKER_COUNTS[0]));
    for &workers in &WORKER_COUNTS[1..] {
        let got = run(&WorkerPool::new(workers));
        assert_eq!(
            reference, got,
            "{label}: {workers}-worker output diverged from the sequential reference"
        );
    }
}

// ------------------------------------------------------------ engine batches

fn engine_batch() -> Vec<KernelSpec> {
    let mut tasks = Vec::new();
    for i in 0..6usize {
        let n = 4 + i;
        let matrix: Vec<Vec<f64>> = (0..3)
            .map(|r| (0..n).map(|c| ((r * n + c) % 7) as f64 / 7.0).collect())
            .collect();
        let x: Vec<f64> = (0..n).map(|c| (c % 5) as f64 / 5.0).collect();
        tasks.push(KernelSpec::MvmNonneg {
            matrix,
            x,
            lanes: 1 + i % 3,
        });
    }
    let sig: Vec<bool> = (0..8).map(|b| b % 3 == 0).collect();
    let mut stream = vec![false; 48];
    stream[24..32].copy_from_slice(&sig);
    tasks.push(KernelSpec::Correlate {
        signatures: vec![sig.clone()],
        stream,
        tolerance: 0.5,
        stride: 8,
    });
    tasks.push(KernelSpec::MatchBlock {
        data: sig.clone(),
        pattern: sig,
    });
    tasks
}

#[test]
fn engine_mvm_batches_are_byte_identical_across_worker_counts() {
    let engine = BatchEngine::realistic(12);
    diff_across_workers("engine batch", |pool| {
        serde_json::to_string_pretty(&engine.execute(pool, engine_batch())).expect("serializes")
    });
}

// -------------------------------------------------------- harness scenarios

#[test]
fn e12_serving_knee_is_byte_identical_across_worker_counts() {
    diff_across_workers("E12 mini serving knee", serving::e12_mini);
}

#[test]
fn e13_fault_replay_is_byte_identical_across_worker_counts() {
    diff_across_workers("E13 mini fault replay", faults::e13_mini);
}

#[test]
fn e14_telemetry_snapshot_is_byte_identical_across_worker_counts() {
    diff_across_workers("E14 mini telemetry snapshot", telemetry::e14_mini);
}

// ------------------------------------------------------------- seed splitting

#[test]
fn split_seed_streams_are_independent_of_sibling_count() {
    // Task 3's seed must not depend on how many siblings run with it —
    // that is what lets a resharded batch reproduce the same bytes.
    let narrow: Vec<u64> = (0..4).map(|i| split_seed(99, i)).collect();
    let wide: Vec<u64> = (0..64).map(|i| split_seed(99, i)).collect();
    assert_eq!(&wide[..4], &narrow[..]);
}
