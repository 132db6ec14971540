//! The ordered scatter/gather worker pool.
//!
//! Determinism contract (DESIGN.md §8): the pool may only run tasks that
//! are pure functions of their inputs (seeded via
//! [`crate::sweep::split_seed`], no shared mutable state beyond
//! deterministic caches). Under that contract the merged output is
//! byte-identical to a sequential left-to-right execution regardless of
//! worker count or OS scheduling, because
//!
//! 1. task → worker assignment is round-robin by submission index, fixed
//!    before any thread starts;
//! 2. results are gathered into a slot table indexed by submission
//!    index, so completion order cannot reorder them.
//!
//! The pool records no telemetry. A caller that traces a parallel
//! section emits after the gather, in submission order, so its trace
//! never depends on thread interleaving.

/// A deterministic scatter/gather worker pool.
///
/// The pool is a lightweight handle: threads are scoped to each
/// [`WorkerPool::scatter_gather`] call (no idle thread park/unpark state
/// to leak between runs), which also lets task closures borrow from the
/// caller's stack.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A pool running `workers` tasks concurrently. `workers == 1` is the
    /// sequential reference path (no threads are spawned).
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "a pool needs at least one worker");
        WorkerPool { workers }
    }

    /// The sequential reference pool (1 worker, inline execution).
    pub fn sequential() -> Self {
        WorkerPool::new(1)
    }

    /// Worker count from the `OFPC_WORKERS` env var, falling back to the
    /// machine's available parallelism.
    pub fn from_env() -> Self {
        let workers = std::env::var("OFPC_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            });
        WorkerPool::new(workers)
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Execute `tasks` and return their results **in submission order**.
    ///
    /// `f(i, task)` receives the submission index so tasks can derive
    /// per-task seeds ([`crate::sweep::split_seed`]). With one worker (or
    /// fewer than two tasks) everything runs inline on the caller's
    /// thread — that is the sequential path the differential tests diff
    /// against.
    pub fn scatter_gather<T, R, F>(&self, tasks: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = tasks.len();
        let shard_count = self.workers.min(n.max(1));
        if shard_count <= 1 {
            return tasks
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect();
        }

        // Fixed round-robin sharding by submission index: the schedule is
        // decided before any thread runs.
        let mut shards: Vec<Vec<(usize, T)>> = (0..shard_count).map(|_| Vec::new()).collect();
        for (i, t) in tasks.into_iter().enumerate() {
            shards[i % shard_count].push((i, t));
        }

        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .map(|shard| {
                    let f = &f;
                    scope.spawn(move || {
                        shard
                            .into_iter()
                            .map(|(i, t)| (i, f(i, t)))
                            .collect::<Vec<(usize, R)>>()
                    })
                })
                .collect();
            for h in handles {
                for (i, r) in h.join().expect("pool worker panicked") {
                    slots[i] = Some(r);
                }
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("every submitted task must produce a result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::split_seed;

    fn squares(pool: &WorkerPool, n: usize) -> Vec<u64> {
        pool.scatter_gather((0..n as u64).collect(), |i, v| {
            assert_eq!(i as u64, v);
            v * v
        })
    }

    #[test]
    fn results_arrive_in_submission_order() {
        for workers in [1, 2, 3, 8] {
            let pool = WorkerPool::new(workers);
            let got = squares(&pool, 23);
            let want: Vec<u64> = (0..23).map(|v| v * v).collect();
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn worker_count_does_not_change_bytes() {
        // A seeded pseudo-noisy task: output depends only on the per-task
        // seed, never on which worker ran it.
        let run = |workers: usize| -> Vec<u64> {
            WorkerPool::new(workers).scatter_gather((0..64usize).collect(), |i, _| {
                let mut acc = split_seed(99, i as u64);
                for _ in 0..10 {
                    acc = split_seed(acc, 1);
                }
                acc
            })
        };
        let seq = run(1);
        assert_eq!(seq, run(2));
        assert_eq!(seq, run(8));
    }

    #[test]
    fn empty_and_single_task_inputs() {
        let pool = WorkerPool::new(4);
        let empty: Vec<u64> = pool.scatter_gather(Vec::<u64>::new(), |_, v| v);
        assert!(empty.is_empty());
        assert_eq!(pool.scatter_gather(vec![7u64], |_, v| v + 1), vec![8]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        WorkerPool::new(0);
    }

    #[test]
    fn from_env_honors_override() {
        // Serialized by cargo running tests in one process is not
        // guaranteed; use a unique var read path by setting and removing
        // around the call.
        std::env::set_var("OFPC_WORKERS", "3");
        assert_eq!(WorkerPool::from_env().workers(), 3);
        std::env::set_var("OFPC_WORKERS", "not-a-number");
        assert!(WorkerPool::from_env().workers() >= 1);
        std::env::remove_var("OFPC_WORKERS");
    }
}
