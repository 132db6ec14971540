//! Ordered batch execution of engine kernels over the worker pool.
//!
//! Serving and the experiment harnesses accumulate many independent
//! kernel invocations — per-wavelength MVM rows, correlator scans,
//! pattern-match probes — that the sequential path runs one after
//! another. [`BatchEngine`] scatters a batch across an
//! [`ofpc_par::WorkerPool`] and gathers outputs in submission order.
//!
//! Determinism comes from the seed-splitting rule (DESIGN.md §8): each
//! task builds its photonic unit from a **fresh** `SimRng` seeded with
//! `split_seed(base_seed, index)`, never from a stream shared with its
//! siblings. That makes task `i`'s output a pure function of
//! `(base_seed, i, spec)` — the same bytes whether the batch runs on 1
//! worker or 8, which is exactly what `tests/parallel.rs` diffs.

use ofpc_par::{split_seed, WorkerPool};
use ofpc_photonics::SimRng;

use crate::correlator::{CorrelationHit, Correlator};
use crate::dot::DotUnitConfig;
use crate::matcher::{MatchResult, MatcherConfig, PatternMatcher};
use crate::mvm::PhotonicMatVec;

/// One kernel invocation, fully described by value (so a task's output
/// is a pure function of its spec, index and seed).
#[derive(Debug, Clone)]
pub enum KernelSpec {
    /// `y = W·x`, signed entries in `[-1, 1]`, over `lanes` WDM lanes.
    MvmSigned {
        matrix: Vec<Vec<f64>>,
        x: Vec<f64>,
        lanes: usize,
    },
    /// `y = W·x`, entries in `[0, 1]`, over `lanes` WDM lanes.
    MvmNonneg {
        matrix: Vec<Vec<f64>>,
        x: Vec<f64>,
        lanes: usize,
    },
    /// Sliding-window signature scan over a bit stream.
    Correlate {
        signatures: Vec<Vec<bool>>,
        stream: Vec<bool>,
        tolerance: f64,
    },
    /// Single-block pattern match.
    MatchBlock { data: Vec<bool>, pattern: Vec<bool> },
}

/// The result of one [`KernelSpec`], mirroring its variant.
#[derive(Debug, Clone, serde::Serialize)]
pub enum KernelOutput {
    Vector(Vec<f64>),
    Hits(Vec<CorrelationHit>),
    Match(MatchResult),
}

/// A batch executor: fixed device configs + base seed, applied to any
/// number of kernel batches.
#[derive(Debug)]
pub struct BatchEngine {
    /// Root seed; task `i` runs from `split_seed(base_seed, i)`.
    pub(crate) base_seed: u64,
    /// P1 device config used by the MVM kernels.
    pub(crate) dot_config: DotUnitConfig,
    /// P2 device config used by the correlator/matcher kernels.
    pub(crate) matcher_config: MatcherConfig,
    /// Calibration symbols per freshly built unit.
    pub(crate) calibration_symbols: usize,
}

impl BatchEngine {
    /// Realistic device models (the serving configuration).
    pub fn realistic(base_seed: u64) -> Self {
        BatchEngine {
            base_seed,
            dot_config: DotUnitConfig::realistic(),
            matcher_config: MatcherConfig::realistic(),
            calibration_symbols: 128,
        }
    }

    /// Run every MVM kernel on the given
    /// [`KernelBackend`](crate::dot::KernelBackend). The default
    /// is `Scalar` (the byte-stable reference); `Vectorized` selects the
    /// fused power-domain kernels — same physics and energy accounting,
    /// deterministic per seed, different noise stream (DESIGN.md §12).
    pub fn with_backend(mut self, backend: crate::dot::KernelBackend) -> Self {
        self.dot_config.backend = backend;
        self
    }

    /// Execute `batch` across the pool, outputs in submission order.
    pub fn execute(&self, pool: &WorkerPool, batch: Vec<KernelSpec>) -> Vec<KernelOutput> {
        pool.scatter_gather(batch, |i, spec| self.run_one(i, spec))
    }

    /// Run task `i` from its split seed — the sequential reference the
    /// differential tests compare against is `execute` on a 1-worker
    /// pool, which calls exactly this, in order.
    fn run_one(&self, index: usize, spec: KernelSpec) -> KernelOutput {
        let mut rng = SimRng::seed_from_u64(split_seed(self.base_seed, index as u64));
        match spec {
            KernelSpec::MvmSigned { matrix, x, lanes } => {
                let mut engine = self.build_mvm(lanes, &mut rng);
                KernelOutput::Vector(engine.mat_vec_signed(&matrix, &x))
            }
            KernelSpec::MvmNonneg { matrix, x, lanes } => {
                let mut engine = self.build_mvm(lanes, &mut rng);
                KernelOutput::Vector(engine.mat_vec_nonneg(&matrix, &x))
            }
            KernelSpec::Correlate {
                signatures,
                stream,
                tolerance,
            } => {
                let mut correlator =
                    Correlator::new(self.matcher_config.clone(), signatures, tolerance, &mut rng);
                KernelOutput::Hits(correlator.scan(&stream))
            }
            KernelSpec::MatchBlock { data, pattern } => {
                let mut matcher = PatternMatcher::new(self.matcher_config.clone(), &mut rng);
                matcher.calibrate(self.calibration_symbols);
                KernelOutput::Match(matcher.match_block(&data, &pattern))
            }
        }
    }

    fn build_mvm(&self, lanes: usize, rng: &mut SimRng) -> PhotonicMatVec {
        let mut engine = PhotonicMatVec::new(self.dot_config.clone(), lanes, rng);
        engine.calibrate(self.calibration_symbols);
        engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_batch() -> Vec<KernelSpec> {
        let sig = vec![true, false, true, true, false, false, true, false];
        let mut stream = vec![false; 40];
        stream[16..24].copy_from_slice(&sig);
        vec![
            KernelSpec::MvmNonneg {
                matrix: vec![vec![0.5, 0.25], vec![1.0, 0.0]],
                x: vec![0.5, 1.0],
                lanes: 2,
            },
            KernelSpec::MvmSigned {
                matrix: vec![vec![0.5, -0.5]],
                x: vec![1.0, 0.5],
                lanes: 1,
            },
            KernelSpec::Correlate {
                signatures: vec![sig.clone()],
                stream,
                tolerance: 0.5,
            },
            KernelSpec::MatchBlock {
                data: sig.clone(),
                pattern: sig,
            },
        ]
    }

    fn output_bytes(engine: &BatchEngine, workers: usize) -> String {
        let pool = WorkerPool::new(workers);
        let out = engine.execute(&pool, mixed_batch());
        serde_json::to_string_pretty(&out).expect("serializes")
    }

    #[test]
    fn parallel_batch_matches_sequential_bytes() {
        let engine = BatchEngine::realistic(42);
        let seq = output_bytes(&engine, 1);
        assert_eq!(seq, output_bytes(&engine, 2));
        assert_eq!(seq, output_bytes(&engine, 8));
    }

    #[test]
    fn results_are_numerically_sane() {
        let engine = BatchEngine {
            base_seed: 7,
            dot_config: DotUnitConfig::ideal(),
            matcher_config: MatcherConfig::ideal(),
            calibration_symbols: 128,
        };
        let pool = WorkerPool::new(2);
        let out = engine.execute(&pool, mixed_batch());
        match &out[0] {
            KernelOutput::Vector(y) => {
                assert!((y[0] - 0.5).abs() < 0.02, "got {}", y[0]);
                assert!((y[1] - 0.5).abs() < 0.02, "got {}", y[1]);
            }
            other => panic!("expected vector, got {other:?}"),
        }
        match &out[2] {
            KernelOutput::Hits(hits) => {
                assert_eq!(hits.len(), 1);
                assert_eq!(hits[0].offset, 16);
            }
            other => panic!("expected hits, got {other:?}"),
        }
        match &out[3] {
            KernelOutput::Match(m) => assert!(m.matched),
            other => panic!("expected match, got {other:?}"),
        }
    }

    #[test]
    fn different_base_seeds_give_different_noise() {
        let a = output_bytes(&BatchEngine::realistic(1), 1);
        let b = output_bytes(&BatchEngine::realistic(2), 1);
        assert_ne!(a, b, "realistic noise must depend on the base seed");
    }
}
