//! The E17 sweep core: evaluate the app × converter × core ×
//! wavelength design space and mark the Pareto frontier.
//!
//! Each grid point builds its app graph at the given core size, lowers
//! it with the converter pairing's [`HardwareVariant`](ofpc_graph::lower::HardwareVariant) as the sole
//! candidate (ops the variant's resolution cannot clear fall back to
//! the co-located digital platform — the fallback is *part of the
//! price*), then closes the point with the batch makespan, per-request
//! energy, install charge, end-to-end effective bits, and the
//! form-factor budget of a module built from those parts. Evaluation is
//! closed-form arithmetic over the service model — no event loop — so
//! the whole space prices in milliseconds, and `ofpc-par` keeps the
//! result vector byte-identical for any worker count.

use crate::catalog::{hardware_variant, ConverterChoice};
use crate::pareto::{mark_pareto, DesignPoint};
use ofpc_apps::digital::ComputeModel;
use ofpc_graph::ir::{correlation_graph, pattern_match_graph};
use ofpc_graph::{dnn_graph, lower, ErrorBudget, LowerConfig, Target, WorkGraph};
use ofpc_par::sweep::run_scenarios;
use ofpc_par::WorkerPool;
use ofpc_photonics::SimRng;
use ofpc_transponder::energy::{check_budget, compute_blocks_with, FormFactor};

/// A Table-1 application family, parameterized by core size.
#[derive(Debug, Clone, Copy)]
pub enum App {
    /// MLP inference: hidden layers need 3.5 bits, the output layer
    /// 7.2 — the spread that forces per-stage variant escalation.
    Dnn,
    /// Sliding-window correlation detection at 4.0 bits.
    Correlation,
    /// Preamble-style pattern matching at 3.0 bits.
    PatternMatch,
}

impl App {
    pub(crate) fn name(self) -> &'static str {
        match self {
            App::Dnn => "dnn",
            App::Correlation => "correlation",
            App::PatternMatch => "pattern-match",
        }
    }

    /// Build the app's work graph at `core` (the MVM width / pattern
    /// scale unit). Graph *structure* is a pure function of `core`;
    /// `seed` only draws the DNN weights, which costing never reads.
    pub fn build(self, core: usize, seed: u64) -> WorkGraph {
        match self {
            App::Dnn => {
                let mut rng = SimRng::seed_from_u64(seed);
                let mlp = ofpc_engine::dnn::Mlp::new_random(
                    &[core, core, core, (core / 2).max(1)],
                    &mut rng,
                );
                dnn_graph(&mlp, 3.5, 7.2)
            }
            App::Correlation => correlation_graph(4 * core, core),
            App::PatternMatch => pattern_match_graph(8 * core),
        }
    }
}

/// The sweep grid and its fixed evaluation parameters.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    pub apps: Vec<App>,
    pub converters: Vec<ConverterChoice>,
    pub core_sizes: Vec<usize>,
    pub wavelength_counts: Vec<usize>,
    /// Requests per batch when computing the makespan axis.
    pub(crate) requests: usize,
    /// Base seed; per-point seeds are split deterministically.
    pub(crate) seed: u64,
}

impl SweepSpec {
    /// The full E17 space: 3 apps × 3 converters × 3 cores × 2
    /// wavelength counts = 54 points.
    pub fn e17() -> Self {
        SweepSpec {
            apps: vec![App::Dnn, App::Correlation, App::PatternMatch],
            converters: ConverterChoice::ALL.to_vec(),
            core_sizes: vec![8, 16, 32],
            wavelength_counts: vec![4, 8],
            requests: 32,
            seed: 17,
        }
    }

    /// The golden-fixture miniature: 2 apps × 3 converters × 2 cores ×
    /// 2 wavelength counts = 24 points at a smaller batch.
    pub fn mini() -> Self {
        SweepSpec {
            apps: vec![App::Dnn, App::Correlation],
            converters: ConverterChoice::ALL.to_vec(),
            core_sizes: vec![8, 16],
            wavelength_counts: vec![4, 8],
            requests: 8,
            seed: 17,
        }
    }

    /// The grid in canonical nested order (apps outermost, wavelengths
    /// innermost) — the order results come back in.
    pub(crate) fn grid(&self) -> Vec<(App, ConverterChoice, usize, usize)> {
        let mut g = Vec::new();
        for &app in &self.apps {
            for &conv in &self.converters {
                for &core in &self.core_sizes {
                    for &wl in &self.wavelength_counts {
                        g.push((app, conv, core, wl));
                    }
                }
            }
        }
        g
    }
}

/// Price one design point.
fn evaluate_point(
    app: App,
    conv: ConverterChoice,
    core: usize,
    wl: usize,
    requests: usize,
    seed: u64,
) -> DesignPoint {
    let variant = hardware_variant(conv, wl);
    let graph = app.build(core, seed);
    let cfg = LowerConfig {
        budget: ErrorBudget::realistic(),
        model: variant.model.clone(),
        digital: ComputeModel::edge_soc(),
        variants: vec![variant.clone()],
    };
    let plan = lower(&graph, &cfg).expect("sweep graphs are valid DAGs");

    // Batch makespan: photonic stages stream the batch with weights
    // pinned (install is charged separately); digital stages serialize.
    let mut latency_ps = 0u64;
    for s in &plan.stages {
        match s.class {
            Some(class) => {
                let (ps, _) = variant.model.batch_service(class, requests, Some(class));
                latency_ps += ps;
            }
            None => latency_ps += s.service_ps * requests as u64,
        }
    }

    let (dac, adc) = (conv.dac(), conv.adc());
    let blocks = compute_blocks_with((dac.power_w, dac.area_mm2), (adc.power_w, adc.area_mm2));
    let budget = check_budget(&blocks, FormFactor::Osfp);

    DesignPoint {
        app: app.name().to_string(),
        converter: conv.name().to_string(),
        core_size: core,
        wavelengths: wl,
        energy_per_request_j: plan.energy_per_request_j(),
        latency_ps,
        install_ps: plan.total_reconfig_ps(),
        effective_bits: plan.min_photonic_bits().unwrap_or(16.0),
        photonic_stages: plan.photonic_stage_count(),
        digital_stages: plan
            .stages
            .iter()
            .filter(|s| s.target == Target::Digital)
            .count(),
        variants_used: plan.variants_used(),
        module_power_w: budget.total_power_w,
        module_area_mm2: budget.total_area_mm2,
        fits_osfp: budget.fits,
        pareto: false,
    }
}

/// Run the sweep across `pool` and mark the per-app Pareto frontier.
/// Results come back in `SweepSpec::grid` order for every worker
/// count — the byte-identity contract `tests/dse.rs` pins.
pub fn run_sweep(pool: &WorkerPool, spec: &SweepSpec) -> Vec<DesignPoint> {
    let requests = spec.requests;
    let mut points = run_scenarios(
        pool,
        spec.seed,
        spec.grid(),
        |_, seed, (app, conv, core, wl)| evaluate_point(app, conv, core, wl, requests, seed),
    );
    mark_pareto(&mut points);
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mini_sweep_covers_its_grid() {
        let pts = run_sweep(&WorkerPool::sequential(), &SweepSpec::mini());
        assert_eq!(pts.len(), 24);
        // Grid order: first point is the first tuple of the nested loops.
        assert_eq!(pts[0].app, "dnn");
        assert_eq!(pts[0].converter, "cv-12b-fast");
        assert_eq!(pts[0].core_size, 8);
        assert_eq!(pts[0].wavelengths, 4);
    }

    #[test]
    fn e17_space_meets_the_acceptance_floor() {
        let spec = SweepSpec::e17();
        assert!(spec.converters.len() >= 3);
        assert!(spec.core_sizes.len() >= 3);
        assert!(spec.wavelength_counts.len() >= 2);
        assert_eq!(spec.grid().len(), 54);
    }

    #[test]
    fn every_app_keeps_a_nonempty_frontier() {
        let pts = run_sweep(&WorkerPool::sequential(), &SweepSpec::mini());
        for app in ["dnn", "correlation"] {
            assert!(
                pts.iter().any(|p| p.app == app && p.pareto),
                "no frontier point for {app}"
            );
        }
    }

    #[test]
    fn more_wavelengths_never_slow_the_batch() {
        let pts = run_sweep(&WorkerPool::sequential(), &SweepSpec::mini());
        for p4 in pts.iter().filter(|p| p.wavelengths == 4) {
            let p8 = pts
                .iter()
                .find(|p| {
                    p.wavelengths == 8
                        && p.app == p4.app
                        && p.converter == p4.converter
                        && p.core_size == p4.core_size
                })
                .expect("paired point");
            assert!(p8.latency_ps <= p4.latency_ps, "{p4:?} vs {p8:?}");
        }
    }

    #[test]
    fn twelve_bit_variant_buys_bits_for_energy_on_dnn() {
        let pts = run_sweep(&WorkerPool::sequential(), &SweepSpec::mini());
        let p12 = pts
            .iter()
            .find(|p| p.app == "dnn" && p.converter == "cv-12b-fast" && p.core_size == 16)
            .unwrap();
        let p8 = pts
            .iter()
            .find(|p| p.app == "dnn" && p.converter == "cv-8b-fast" && p.core_size == 16)
            .unwrap();
        assert!(p12.effective_bits > p8.effective_bits);
        // The 12-bit pairing keeps the whole DNN photonic; the 8-bit
        // pairing cannot clear the 7.2-bit output layer and pays a
        // digital fallback stage instead.
        assert_eq!(p12.variants_used, vec!["cv-12b-fast"]);
        assert_eq!(p12.digital_stages, 0);
        assert!(p8.digital_stages >= 1);
    }
}
