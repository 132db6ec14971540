//! E16 — graph compiler: compiled-pipelined execution vs a naive
//! sequential baseline, plus precision-driven partitioning and the
//! fault-injection re-lowering path.
//!
//! Four sub-experiments over the Fig. 1 WAN (A→D, compute sites at B
//! and C):
//!
//! * **E16a — pipelined vs sequential.** A seeded 3-layer DNN graph is
//!   compiled (partition → fuse → place → wavelength-assign) and driven
//!   as a closed batch both ways. Wavelength pipelining must deliver
//!   ≥ 1.5× the sequential throughput at *identical* per-request energy
//!   (same stages, same photons) and no worse mean latency.
//! * **E16b — Table-1 lowering.** Every Table-1 builder graph through
//!   the same lowering pass: stage counts, photonic share, and install
//!   charge, demonstrating the partition/fusion rules app by app.
//! * **E16c — error-budget partitioning.** The same DNN under the
//!   realistic vs degraded receiver budget: a starved budget must move
//!   precision-critical stages to the digital fallback and pay for it
//!   in energy.
//! * **E16d — fault-aware re-lowering.** An engine hard-fail at one
//!   placed site (delivered as an [`ofpc_faults::FaultPlan`]) must
//!   re-lower *only that site's stages* to digital; repair must restore
//!   the healthy plan byte-for-byte.

use crate::table::{versioned_pretty, Table};
use ofpc_engine::dnn::Mlp;
use ofpc_faults::{FaultEvent, FaultKind, FaultPlan};
use ofpc_graph::exec::{ExecConfig, ExecMode, ExecReport};
use ofpc_graph::ir::{self, WorkGraph};
use ofpc_graph::lower::{lower, ErrorBudget, LowerConfig};
use ofpc_graph::{compile, GraphExecutor};
use ofpc_net::{NodeId, Topology};
use ofpc_par::WorkerPool;
use ofpc_photonics::SimRng;
use serde::Serialize;

const SEED: u64 = 16;
const REQUESTS: usize = 64;
/// Gate: pipelined throughput must beat sequential by this factor.
const MIN_PIPELINE_GAIN: f64 = 1.5;
/// Compute transponder slots per Fig. 1 node (B and C are sites).
const SLOTS: [usize; 4] = [0, 2, 2, 0];
const WDM_CHANNELS: usize = 4;

fn dnn_graph() -> WorkGraph {
    let mut rng = SimRng::seed_from_u64(SEED);
    let mlp = Mlp::new_random(&[16, 16, 16, 8], &mut rng);
    ir::dnn_graph(&mlp, 4.0, 6.0)
}

fn compiled(budget: ErrorBudget) -> GraphExecutor {
    let mut cfg = LowerConfig::metro();
    cfg.budget = budget;
    compile(
        &dnn_graph(),
        &cfg,
        &Topology::fig1(),
        &SLOTS,
        NodeId(0),
        NodeId(3),
        WDM_CHANNELS,
    )
    .expect("DNN compiles onto fig1")
}

fn batch(mode: ExecMode) -> ExecConfig {
    ExecConfig {
        requests: REQUESTS,
        mode,
    }
}

// ---------------------------------------------------------------- E16a

#[derive(Debug, Serialize)]
struct PipelineRow {
    mode: String,
    throughput_rps: f64,
    mean_latency_us: f64,
    p99_latency_us: f64,
    energy_per_request_nj: f64,
}

fn row(r: &ExecReport) -> PipelineRow {
    PipelineRow {
        mode: r.mode.clone(),
        throughput_rps: r.throughput_rps,
        mean_latency_us: r.mean_latency_ps as f64 * 1e-6,
        p99_latency_us: r.p99_latency_ps as f64 * 1e-6,
        energy_per_request_nj: r.energy_per_request_j * 1e9,
    }
}

fn e16a_pipeline(ex: &GraphExecutor) -> (Vec<PipelineRow>, f64) {
    let pipe = ex.run(&batch(ExecMode::Pipelined));
    let seq = ex.run(&batch(ExecMode::Sequential));
    let gain = pipe.throughput_rps / seq.throughput_rps;

    let mut t = Table::new(
        &format!("E16a: pipelined vs sequential ({REQUESTS} requests, fig1 A->D)"),
        &[
            "mode",
            "thpt (req/s)",
            "mean lat (us)",
            "p99 lat (us)",
            "energy/req (nJ)",
        ],
    );
    for r in [&pipe, &seq] {
        t.row(&[
            r.mode.clone(),
            format!("{:.0}", r.throughput_rps),
            format!("{:.1}", r.mean_latency_ps as f64 * 1e-6),
            format!("{:.1}", r.p99_latency_ps as f64 * 1e-6),
            format!("{:.2}", r.energy_per_request_j * 1e9),
        ]);
    }
    t.print();
    println!("E16a: pipelining gain {gain:.1}x (gate {MIN_PIPELINE_GAIN}x)\n");

    assert!(
        gain >= MIN_PIPELINE_GAIN,
        "pipelined throughput gain {gain:.2}x below the {MIN_PIPELINE_GAIN}x gate"
    );
    assert!(
        pipe.energy_per_request_j <= seq.energy_per_request_j,
        "pipelining must not cost energy"
    );
    assert!(
        pipe.mean_latency_ps <= seq.mean_latency_ps,
        "pipelining must not worsen mean latency"
    );
    (vec![row(&pipe), row(&seq)], gain)
}

// ---------------------------------------------------------------- E16b

#[derive(Debug, Serialize)]
struct AppRow {
    app: String,
    ops: usize,
    stages: usize,
    photonic_stages: usize,
    stage_labels: Vec<String>,
    service_ns: f64,
    install_us: f64,
    energy_per_request_nj: f64,
}

fn e16b_table1_lowering() -> Vec<AppRow> {
    let apps = vec![
        dnn_graph(),
        ir::correlation_graph(64, 16, 4.0),
        ir::pattern_match_graph(32, 3.0),
    ];
    let cfg = LowerConfig::metro();
    let mut t = Table::new(
        "E16b: Table-1 apps through the lowering pass (realistic budget)",
        &[
            "app",
            "ops",
            "stages",
            "photonic",
            "service (ns)",
            "install (us)",
            "energy/req (nJ)",
        ],
    );
    let mut rows = Vec::new();
    for g in &apps {
        let plan = lower(g, &cfg).expect("lowers");
        let install_ps: u64 = plan.stages.iter().map(|s| s.reconfig_ps).sum();
        t.row(&[
            g.name.clone(),
            g.nodes.len().to_string(),
            plan.stages.len().to_string(),
            plan.photonic_stage_count().to_string(),
            format!("{:.1}", plan.total_service_ps() as f64 * 1e-3),
            format!("{:.2}", install_ps as f64 * 1e-6),
            format!("{:.2}", plan.energy_per_request_j() * 1e9),
        ]);
        rows.push(AppRow {
            app: g.name.clone(),
            ops: g.nodes.len(),
            stages: plan.stages.len(),
            photonic_stages: plan.photonic_stage_count(),
            stage_labels: plan.stages.iter().map(|s| s.label.clone()).collect(),
            service_ns: plan.total_service_ps() as f64 * 1e-3,
            install_us: install_ps as f64 * 1e-6,
            energy_per_request_nj: plan.energy_per_request_j() * 1e9,
        });
    }
    t.print();
    println!();
    // Fusion sanity: the DNN's hidden layers fused mvm+nonlinear.
    assert_eq!(rows[0].stage_labels[0], "mvm+nonlinear");
    // Every app keeps at least one photonic stage under the realistic budget.
    assert!(rows.iter().all(|r| r.photonic_stages >= 1));
    rows
}

// ---------------------------------------------------------------- E16c

#[derive(Debug, Serialize)]
struct BudgetRow {
    budget: String,
    pd_snr_db: f64,
    photonic_stages: usize,
    digital_stages: usize,
    energy_per_request_nj: f64,
}

fn e16c_budget_partitioning() -> Vec<BudgetRow> {
    // 6-bit output demand: the realistic receiver clears it (~7.3
    // effective bits at n=16), the degraded one (~4.4) cannot.
    let mut rng = SimRng::seed_from_u64(SEED);
    let mlp = Mlp::new_random(&[16, 16, 16, 8], &mut rng);
    let g = ir::dnn_graph(&mlp, 2.5, 6.0);
    let mut t = Table::new(
        "E16c: partitioning vs receiver error budget (DNN, 6-bit output demand)",
        &[
            "budget",
            "PD SNR (dB)",
            "photonic",
            "digital",
            "energy/req (nJ)",
        ],
    );
    let mut rows = Vec::new();
    for (name, budget) in [
        ("realistic", ErrorBudget::realistic()),
        ("degraded", ErrorBudget::degraded()),
    ] {
        let mut cfg = LowerConfig::metro();
        cfg.budget = budget;
        let plan = lower(&g, &cfg).expect("lowers");
        let photonic = plan.photonic_stage_count();
        let digital = plan.stages.len() - photonic;
        t.row(&[
            name.to_string(),
            format!("{:.0}", budget.pd_snr_db),
            photonic.to_string(),
            digital.to_string(),
            format!("{:.2}", plan.energy_per_request_j() * 1e9),
        ]);
        rows.push(BudgetRow {
            budget: name.to_string(),
            pd_snr_db: budget.pd_snr_db,
            photonic_stages: photonic,
            digital_stages: digital,
            energy_per_request_nj: plan.energy_per_request_j() * 1e9,
        });
    }
    t.print();
    println!();
    assert!(
        rows[1].photonic_stages < rows[0].photonic_stages,
        "degraded budget must push stages digital"
    );
    assert!(
        rows[1].energy_per_request_nj > rows[0].energy_per_request_nj,
        "digital fallback costs energy"
    );
    rows
}

// ---------------------------------------------------------------- E16d

#[derive(Debug, Serialize)]
struct FaultReport {
    victim_site: u32,
    relowered_stages: Vec<usize>,
    healthy: PipelineRow,
    faulted: PipelineRow,
    healed_matches_healthy: bool,
}

fn e16d_fault_relowering(ex: &GraphExecutor) -> FaultReport {
    let mut ex = ex.clone();
    let sites = ex.placed().photonic_sites();
    assert!(sites.len() >= 2, "fig1 placement spreads over two sites");
    let victim = sites[0];
    let healthy = ex.run(&batch(ExecMode::Pipelined));

    let plan = FaultPlan {
        events: vec![FaultEvent {
            at_ps: 1_000_000,
            kind: FaultKind::EngineFail { node: victim },
        }],
    };
    let changed = ex.apply_faults(&plan);
    let faulted = ex.run(&batch(ExecMode::Pipelined));

    // Only the victim's stages re-lowered; the rest stayed photonic.
    assert_eq!(faulted.relowered_stages.len(), changed);
    assert!(changed >= 1 && changed < faulted.stages);
    for &k in &faulted.relowered_stages {
        assert_eq!(ex.placed().bindings[k].node, victim);
    }
    assert!(
        faulted.energy_per_request_j > healthy.energy_per_request_j,
        "digital fallback costs energy"
    );

    ex.repair_site(victim);
    let healed = ex.run(&batch(ExecMode::Pipelined));
    let healed_matches_healthy = serde_json::to_string(&healed).expect("serializes")
        == serde_json::to_string(&healthy).expect("serializes");
    assert!(
        healed_matches_healthy,
        "repair must restore the healthy plan"
    );

    let mut t = Table::new(
        &format!(
            "E16d: engine fail at site {} -> partial digital fallback",
            victim.0
        ),
        &[
            "state",
            "thpt (req/s)",
            "mean lat (us)",
            "energy/req (nJ)",
            "digital stages",
        ],
    );
    for (state, r) in [
        ("healthy", &healthy),
        ("faulted", &faulted),
        ("healed", &healed),
    ] {
        t.row(&[
            state.to_string(),
            format!("{:.0}", r.throughput_rps),
            format!("{:.1}", r.mean_latency_ps as f64 * 1e-6),
            format!("{:.2}", r.energy_per_request_j * 1e9),
            r.digital_stages.to_string(),
        ]);
    }
    t.print();
    println!(
        "E16d: {} of {} stages re-lowered to digital, repair restored the plan\n",
        changed, faulted.stages
    );

    FaultReport {
        victim_site: victim.0,
        relowered_stages: faulted.relowered_stages.clone(),
        healthy: row(&healthy),
        faulted: row(&faulted),
        healed_matches_healthy,
    }
}

// ----------------------------------------------------------------- main

#[derive(Debug, Serialize)]
struct E16Report {
    seed: u64,
    requests: usize,
    pipeline: Vec<PipelineRow>,
    pipeline_gain: f64,
    table1_lowering: Vec<AppRow>,
    budget_partitioning: Vec<BudgetRow>,
    fault: FaultReport,
}

pub(crate) fn expt(_pool: &WorkerPool) -> String {
    println!("# E16: workload graph compiler (ofpc-graph)\n");
    let ex = compiled(ErrorBudget::realistic());
    let placed = ex.placed();
    println!(
        "compiled {}: {} stages on sites {:?}, direct path {:.1} us, detour +{:.1} us\n",
        placed.plan.graph_name,
        placed.plan.stages.len(),
        placed
            .photonic_sites()
            .iter()
            .map(|n| n.0)
            .collect::<Vec<_>>(),
        placed.direct_ps as f64 * 1e-6,
        placed.added_latency_ps as f64 * 1e-6,
    );

    let (pipeline, pipeline_gain) = e16a_pipeline(&ex);
    let table1_lowering = e16b_table1_lowering();
    let budget_partitioning = e16c_budget_partitioning();
    let fault = e16d_fault_relowering(&ex);

    let doc = versioned_pretty(&E16Report {
        seed: SEED,
        requests: REQUESTS,
        pipeline,
        pipeline_gain,
        table1_lowering,
        budget_partitioning,
        fault,
    });
    println!("expt_graph: all gates passed (results/e16_graph.json)");
    doc
}
