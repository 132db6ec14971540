//! The kernel golden fixture and the first-divergence report every
//! fixture check prints.
//!
//! The golden fixtures under `results/golden/` are the registry's
//! `*_mini` entries ([`crate::REGISTRY`]): scaled-down versions of the
//! E12/E13/E14/E17/E18/E20/E21 scenarios plus `kernels_mini`. The
//! contract, enforced by `tests/golden.rs` against the pinned fixtures
//! and by `tests/parallel.rs` across worker counts:
//!
//! * the bytes are a pure function of the scenario — same fixture on
//!   every run, every machine, every `OFPC_WORKERS` setting;
//! * any behavioral drift in the serving/fault/telemetry stacks shows
//!   up as a fixture diff, reviewed like any other golden change
//!   (regenerate with `cargo run --release -p ofpc-bench --bin expt <id>`).

use ofpc_engine::batch::{BatchEngine, KernelOutput, KernelSpec};
use ofpc_engine::dot::KernelBackend;
use ofpc_par::WorkerPool;
use serde::Serialize;

/// The mixed kernel batch the `kernels_mini` fixture replays: signed
/// and non-negative MVMs (multi-lane WDM), a correlator scan, and a
/// pattern match — every [`KernelSpec`] variant, with operand values
/// chosen to hit the interesting code points (0, full scale, mid-rail,
/// sub-LSB).
fn kernels_batch() -> Vec<KernelSpec> {
    let sig = vec![true, true, false, true, false, false, true, true];
    let mut stream = vec![false; 48];
    stream[24..32].copy_from_slice(&sig);
    vec![
        KernelSpec::MvmNonneg {
            matrix: vec![
                vec![0.5, 0.25, 1.0, 0.0],
                vec![0.125, 0.75, 0.0001, 0.9999],
                vec![1.0, 1.0, 1.0, 1.0],
            ],
            x: vec![0.8, 0.0, 0.5, 1.0],
            lanes: 2,
        },
        KernelSpec::MvmSigned {
            matrix: vec![vec![0.5, -0.5, 0.25], vec![-1.0, 1.0, -0.125]],
            x: vec![1.0, 0.5, -0.75],
            lanes: 3,
        },
        KernelSpec::Correlate {
            signatures: vec![sig.clone()],
            stream,
            tolerance: 0.4,
        },
        KernelSpec::MatchBlock {
            data: sig.clone(),
            pattern: sig,
        },
    ]
}

#[derive(Debug, Serialize)]
struct KernelsMini {
    scalar: Vec<KernelOutput>,
    vectorized: Vec<KernelOutput>,
}

/// Mini kernel fixture: the mixed batch replayed on both kernel
/// backends from the same base seed, in one versioned document. Pins
/// the scalar bytes (any drift is a golden diff) *and* the vectorized
/// bytes (the fused kernels are deterministic per seed too — their own
/// noise stream, but a replay-stable one).
pub(crate) fn kernels_mini(pool: &WorkerPool) -> String {
    let scalar = BatchEngine::realistic(81).execute(pool, kernels_batch());
    let vectorized = BatchEngine::realistic(81)
        .with_backend(KernelBackend::Vectorized)
        .execute(pool, kernels_batch());
    crate::table::versioned_pretty(&KernelsMini { scalar, vectorized })
}

/// First-divergence diff between a fixture and a regenerated document:
/// `None` when identical, otherwise a readable report naming the first
/// differing line with two lines of context on each side.
pub fn first_divergence(name: &str, golden: &str, current: &str) -> Option<String> {
    if golden == current {
        return None;
    }
    let g: Vec<&str> = golden.lines().collect();
    let c: Vec<&str> = current.lines().collect();
    let mut line = 0;
    while line < g.len() && line < c.len() && g[line] == c[line] {
        line += 1;
    }
    let mut out = format!(
        "golden fixture {name:?} drifted at line {} ({} golden lines, {} current)\n",
        line + 1,
        g.len(),
        c.len()
    );
    let lo = line.saturating_sub(2);
    for (label, side) in [("golden ", &g), ("current", &c)] {
        for (i, text) in side.iter().enumerate().take(line + 3).skip(lo) {
            let marker = if i == line { ">" } else { " " };
            out.push_str(&format!("{marker} {label} {:>5} | {text}\n", i + 1));
        }
    }
    out.push_str(&format!(
        "regenerate with: cargo run --release -p ofpc-bench --bin expt {name}\n"
    ));
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divergence_reports_first_differing_line() {
        assert!(first_divergence("x", "a\nb\nc", "a\nb\nc").is_none());
        let diff = first_divergence("x", "a\nb\nc", "a\nB\nc").expect("differs");
        assert!(diff.contains("line 2"), "{diff}");
        assert!(diff.contains("--bin expt"), "{diff}");
    }
}
