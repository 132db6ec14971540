//! The worker-count diff shared by the suites that pin DESIGN.md §8's
//! contract: a parallelized path must produce byte-identical output to
//! its sequential reference at 1, 2, 4 and 8 workers.

use ofpc_bench::fixtures;
use ofpc_par::WorkerPool;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

pub fn diff_across_workers(label: &str, run: impl Fn(&WorkerPool) -> String) {
    let reference = run(&WorkerPool::new(WORKER_COUNTS[0]));
    for &workers in &WORKER_COUNTS[1..] {
        let got = run(&WorkerPool::new(workers));
        assert_eq!(
            reference, got,
            "{label}: {workers}-worker output diverged from the sequential reference"
        );
    }
}

/// [`diff_across_workers`] on the golden fixture registered as `id`.
pub fn diff_fixture_across_workers(id: &str) {
    let entry = fixtures()
        .find(|e| e.id == id)
        .unwrap_or_else(|| panic!("unknown golden fixture {id:?}"));
    diff_across_workers(id, entry.run);
}
