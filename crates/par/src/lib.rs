//! # ofpc-par — deterministic parallel execution
//!
//! Every hot path in the workspace — engine kernel batches, the serving
//! event loop, the experiment sweeps — is seeded and virtual-time, so
//! the results of a run are a pure function of its inputs. This crate
//! exploits that purity to buy wall-clock parallelism *without giving up
//! byte-identical outputs*:
//!
//! * [`pool::WorkerPool`] — a std-only scatter/gather pool. Tasks are
//!   sharded round-robin by submission index (task `i` → worker
//!   `i % workers`, a schedule independent of OS timing) and results are
//!   merged back in submission order, so the output vector is identical
//!   for 1, 2, or 64 workers. The differential tests in
//!   `tests/parallel.rs` pin this contract.
//! * [`sweep::split_seed`] — the seed-splitting rule: parallel task `i`
//!   derives its RNG stream from `split_seed(base, i)` (a SplitMix64
//!   finalizer), never from a shared sequential RNG, so noise streams
//!   are independent of execution order and worker count.
//!
//! No external dependencies; the pool uses `std::thread::scope` so
//! borrowed task closures need no `'static` bound.

pub mod pool;
pub mod sweep;

pub use pool::WorkerPool;
pub use sweep::split_seed;
