//! E17 — design-space exploration over the calibrated component
//! library.
//!
//! Two sub-experiments:
//!
//! * **E17a — Pareto sweep.** The full app × converter × core ×
//!   wavelength space (3 × 3 × 3 × 2 = 54 points) priced through the
//!   transponder-derived service model, run deterministically in
//!   parallel on `ofpc-par`, with the per-app non-dominated set marked
//!   on (energy/request, batch latency, effective bits). The full
//!   point set — frontier flags included — lands in
//!   `results/e17_dse.json` under the versioned envelope.
//! * **E17b — per-stage variant binding.** The DNN graph lowered with
//!   *all* catalog pairings as candidates: the error budget must bind
//!   the cheap 8-bit converters to the 3.5-bit hidden layers and
//!   escalate the 7.2-bit output layer to the 12-bit part, with each
//!   decision traced on the DSE telemetry track. The mixed plan must
//!   also price differently from either single-variant lowering — the
//!   selection is load-bearing, not cosmetic.

use crate::table::{versioned_pretty, Table};
use ofpc_apps::digital::ComputeModel;
use ofpc_dse::{hardware_variant, run_sweep, ConverterChoice, DesignPoint, SweepSpec};
use ofpc_graph::lower::{lower, lower_traced, ErrorBudget, LowerConfig, Stage};
use ofpc_graph::Target;
use ofpc_par::WorkerPool;
use ofpc_telemetry::{track, Telemetry};
use serde::Serialize;

const WDM_CHANNELS: usize = 4;

#[derive(Debug, Serialize)]
struct StageBinding {
    label: String,
    target: String,
    variant: Option<String>,
    predicted_bits: f64,
    service_ps: u64,
    energy_j: f64,
}

impl StageBinding {
    fn of(s: &Stage) -> Self {
        StageBinding {
            label: s.label.clone(),
            target: match s.target {
                Target::Photonic => "photonic".to_string(),
                Target::Digital => "digital".to_string(),
            },
            variant: s.variant.clone(),
            predicted_bits: s.predicted_bits,
            service_ps: s.service_ps,
            energy_j: s.energy_j,
        }
    }
}

#[derive(Debug, Serialize)]
struct E17Result {
    points: Vec<DesignPoint>,
    mixed_lowering: Vec<StageBinding>,
}

fn sweep(pool: &WorkerPool) -> Vec<DesignPoint> {
    let spec = SweepSpec::e17();
    assert!(
        spec.converters.len() >= 3
            && spec.core_sizes.len() >= 3
            && spec.wavelength_counts.len() >= 2,
        "E17 acceptance: >=3 converters x >=3 cores x >=2 wavelength counts"
    );
    let points = run_sweep(pool, &spec);

    let mut t = Table::new(
        "E17a — per-app Pareto frontier (energy/request, batch latency, effective bits)",
        &[
            "app",
            "converter",
            "core",
            "wl",
            "energy/req",
            "latency",
            "bits",
            "module",
            "fits",
        ],
    );
    for p in points.iter().filter(|p| p.pareto) {
        t.row(&[
            p.app.clone(),
            p.converter.clone(),
            p.core_size.to_string(),
            p.wavelengths.to_string(),
            format!("{:.1} pJ", p.energy_per_request_j * 1e12),
            format!("{:.2} us", p.latency_ps as f64 * 1e-6),
            format!("{:.2}", p.effective_bits),
            format!("{:.1} W / {:.1} mm2", p.module_power_w, p.module_area_mm2),
            p.fits_osfp.to_string(),
        ]);
    }
    t.print();

    for app in ["dnn", "correlation", "pattern-match"] {
        let frontier = points.iter().filter(|p| p.app == app && p.pareto).count();
        assert!(frontier >= 1, "E17a: empty frontier for {app}");
        // A healthy frontier shows a genuine trade-off: not every point
        // survives domination.
        let total = points.iter().filter(|p| p.app == app).count();
        assert!(
            frontier < total,
            "E17a: every {app} point is on the frontier — no trade-off priced"
        );
    }
    points
}

fn mixed_lowering() -> Vec<StageBinding> {
    let variants: Vec<_> = ConverterChoice::ALL
        .iter()
        .map(|&c| hardware_variant(c, WDM_CHANNELS))
        .collect();
    let graph = ofpc_dse::App::Dnn.build(16, 17);
    let cfg = LowerConfig {
        budget: ErrorBudget::realistic(),
        model: variants[0].model.clone(),
        digital: ComputeModel::edge_soc(),
        variants: variants.clone(),
    };
    let tel = Telemetry::enabled();
    let plan = lower_traced(&graph, &cfg, &tel).expect("DNN lowers");

    let mut t = Table::new(
        "E17b — per-stage hardware binding (DNN, hidden 3.5 b / output 7.2 b)",
        &["stage", "target", "variant", "bits", "service", "energy"],
    );
    for s in &plan.stages {
        t.row(&[
            s.label.clone(),
            format!("{:?}", s.target),
            s.variant.clone().unwrap_or_else(|| "-".to_string()),
            format!("{:.2}", s.predicted_bits),
            format!("{} ps", s.service_ps),
            format!("{:.2} pJ", s.energy_j * 1e12),
        ]);
    }
    t.print();

    // Acceptance: the lowerer binds >=2 distinct variants across stages.
    let used = plan.variants_used();
    assert!(
        used.len() >= 2,
        "E17b: expected >=2 distinct variants per plan, got {used:?}"
    );
    // Every decision left an audit instant on the DSE track.
    let dse_events = tel
        .trace_events()
        .iter()
        .filter(|e| e.pid == track::DSE)
        .count();
    assert_eq!(dse_events, plan.stages.len(), "one DSE instant per stage");

    // The mixed binding changes the priced plan vs either single-variant
    // lowering: cheaper than all-12-bit, finer than all-8-bit.
    let single = |choice: ConverterChoice| {
        let v = hardware_variant(choice, WDM_CHANNELS);
        let mut c = cfg.clone();
        c.model = v.model.clone();
        c.variants = vec![v];
        lower(&graph, &c).expect("DNN lowers")
    };
    let all12 = single(ConverterChoice::Cv12bFast);
    let all8 = single(ConverterChoice::Cv8bFast);
    assert!(
        plan.energy_per_request_j() < all12.energy_per_request_j(),
        "mixed plan must undercut the all-12-bit energy"
    );
    assert!(
        plan.photonic_stage_count() > all8.photonic_stage_count(),
        "mixed plan must keep more stages photonic than the 8-bit-only lowering"
    );

    plan.stages.iter().map(StageBinding::of).collect()
}

pub(crate) fn expt(pool: &WorkerPool) -> String {
    println!("E17: design-space exploration ({} workers)", pool.workers());
    let points = sweep(pool);
    let mixed = mixed_lowering();
    let doc = versioned_pretty(&E17Result {
        points,
        mixed_lowering: mixed,
    });
    println!("E17: wrote results/e17_dse.json");
    doc
}

/// Mini E17: the design-space sweep miniature — 2 apps × 3 converter
/// pairings × 2 core sizes × 2 wavelength counts with the per-app
/// Pareto frontier marked.
pub(crate) fn e17_mini(pool: &WorkerPool) -> String {
    versioned_pretty(&run_sweep(pool, &SweepSpec::mini()))
}
