//! Integration tests for the ofpc-dse design-space subsystem: the
//! parallel-sweep byte-identity contract, the E17 acceptance floor on
//! grid coverage, and the per-stage hardware-variant selection the
//! lowerer must demonstrate (ISSUE 6).

use ofpc_apps::digital::ComputeModel;
use ofpc_bench::dse::e17_mini;
use ofpc_dse::{hardware_variant, run_sweep, App, ConverterChoice, SweepSpec};
use ofpc_graph::lower::{lower, ErrorBudget, LowerConfig};
use ofpc_par::WorkerPool;

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// The full E17 sweep must serialize byte-identically at 1, 2, and 8
/// workers — same contract the serving sweeps pin in tests/parallel.rs.
#[test]
fn e17_sweep_is_byte_identical_across_worker_counts() {
    let spec = SweepSpec::e17();
    let reference =
        serde_json::to_string_pretty(&run_sweep(&WorkerPool::new(WORKER_COUNTS[0]), &spec))
            .expect("serializes");
    for &workers in &WORKER_COUNTS[1..] {
        let got = serde_json::to_string_pretty(&run_sweep(&WorkerPool::new(workers), &spec))
            .expect("serializes");
        assert_eq!(
            reference, got,
            "E17 sweep: {workers}-worker output diverged from the sequential reference"
        );
    }
}

/// Same contract for the golden miniature, envelope included.
#[test]
fn e17_mini_is_byte_identical_across_worker_counts() {
    let reference = e17_mini(&WorkerPool::new(WORKER_COUNTS[0]));
    for &workers in &WORKER_COUNTS[1..] {
        assert_eq!(
            reference,
            e17_mini(&WorkerPool::new(workers)),
            "E17 mini: {workers}-worker output diverged"
        );
    }
}

/// Acceptance: the frontier covers ≥3 converter variants × ≥3 core
/// sizes × ≥2 wavelength counts for every Table-1 app, and every app
/// keeps at least one non-dominated point.
#[test]
fn e17_grid_meets_the_coverage_floor() {
    fn distinct<F: Fn(&ofpc_dse::DesignPoint) -> String>(
        pts: &[&ofpc_dse::DesignPoint],
        f: F,
    ) -> usize {
        let mut v: Vec<String> = pts.iter().map(|p| f(p)).collect();
        v.sort();
        v.dedup();
        v.len()
    }
    let spec = SweepSpec::e17();
    let points = run_sweep(&WorkerPool::sequential(), &spec);
    for app in ["dnn", "correlation", "pattern-match"] {
        let app_points: Vec<_> = points.iter().filter(|p| p.app == app).collect();
        assert!(
            distinct(&app_points, |p| p.converter.clone()) >= 3,
            "{app}: converters"
        );
        assert!(
            distinct(&app_points, |p| p.core_size.to_string()) >= 3,
            "{app}: core sizes"
        );
        assert!(
            distinct(&app_points, |p| p.wavelengths.to_string()) >= 2,
            "{app}: wavelength counts"
        );
        assert!(app_points.iter().any(|p| p.pareto), "{app}: empty frontier");
    }
}

/// Acceptance: with the whole catalog as candidates, ErrorBudget
/// lowering binds different hardware variants to at least two stages of
/// the DNN plan, and the binding changes the priced energy/latency
/// relative to single-variant lowering.
#[test]
fn error_budget_selects_distinct_variants_per_stage() {
    let variants: Vec<_> = ConverterChoice::ALL
        .iter()
        .map(|&c| hardware_variant(c, 4))
        .collect();
    let graph = App::Dnn.build(16, 17);
    let cfg = LowerConfig {
        budget: ErrorBudget::realistic(),
        model: variants[0].model.clone(),
        digital: ComputeModel::edge_soc(),
        variants,
    };
    let plan = lower(&graph, &cfg).expect("lowers");
    let used = plan.variants_used();
    assert!(used.len() >= 2, "expected >=2 distinct variants: {used:?}");
    // Two concrete stages carry different bindings.
    assert_ne!(
        plan.stages.first().and_then(|s| s.variant.clone()),
        plan.stages.last().and_then(|s| s.variant.clone()),
        "first and last stages should bind different hardware"
    );

    // And the selection is load-bearing: single-variant lowerings price
    // differently on both axes.
    let single = |choice: ConverterChoice| {
        let v = hardware_variant(choice, 4);
        let mut c = cfg.clone();
        c.model = v.model.clone();
        c.variants = vec![v];
        lower(&graph, &c).expect("lowers")
    };
    let all12 = single(ConverterChoice::Cv12bFast);
    let all8 = single(ConverterChoice::Cv8bFast);
    assert!(plan.energy_per_request_j() < all12.energy_per_request_j());
    assert_ne!(plan.total_service_ps(), all8.total_service_ps());
}
