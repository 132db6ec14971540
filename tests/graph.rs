//! Cross-crate integration of the workload graph compiler: IR builders
//! over real engine models, lowering against serving-layer prices,
//! placement through the controller, pipelined execution with telemetry,
//! and fault-plan-driven re-lowering — the full `ofpc-graph` pipeline as
//! a user of the workspace's public APIs.

use ofpc_engine::dnn::Mlp;
use ofpc_faults::{FaultEvent, FaultKind, FaultPlan};
use ofpc_graph::exec::{ExecConfig, ExecMode};
use ofpc_graph::lower::{ErrorBudget, LowerConfig, Target};
use ofpc_graph::{compile, ir};
use ofpc_net::{NodeId, Topology};
use ofpc_photonics::SimRng;
use ofpc_telemetry::{track, validate_balanced, Telemetry};

const SEED: u64 = 16;
/// Fig. 1 compute slots: sites at B (node 1) and C (node 2).
const SLOTS: [usize; 4] = [0, 2, 2, 0];

fn dnn() -> ir::WorkGraph {
    let mut rng = SimRng::seed_from_u64(SEED);
    let mlp = Mlp::new_random(&[16, 16, 16, 8], &mut rng);
    ir::dnn_graph(&mlp, 4.0, 6.0)
}

fn batch(mode: ExecMode) -> ExecConfig {
    ExecConfig { requests: 32, mode }
}

#[test]
fn dnn_compiles_places_and_pipelines_on_fig1() {
    let ex = compile(
        &dnn(),
        &LowerConfig::metro(),
        &Topology::fig1(),
        &SLOTS,
        NodeId(0),
        NodeId(3),
        4,
    )
    .expect("compiles");

    // All three fused layers lowered photonically and landed on the
    // fig1 compute sites, on pairwise-distinct consecutive wavelengths.
    let placed = ex.placed();
    assert_eq!(placed.plan.stages.len(), 3);
    assert_eq!(placed.plan.photonic_stage_count(), 3);
    for site in placed.photonic_sites() {
        assert!(site == NodeId(1) || site == NodeId(2), "site {site:?}");
    }
    let wl: Vec<usize> = placed.bindings.iter().map(|b| b.wavelength).collect();
    assert!(wl.windows(2).all(|w| w[0] != w[1]), "wavelengths {wl:?}");

    // The compiled pipeline beats the naive sequential baseline by the
    // E16 gate at identical per-request energy.
    let pipe = ex.run(&batch(ExecMode::Pipelined));
    let seq = ex.run(&batch(ExecMode::Sequential));
    assert!(
        pipe.throughput_rps >= 1.5 * seq.throughput_rps,
        "pipelined {} req/s vs sequential {} req/s",
        pipe.throughput_rps,
        seq.throughput_rps
    );
    assert_eq!(pipe.energy_per_request_j, seq.energy_per_request_j);
    assert!(pipe.mean_latency_ps <= seq.mean_latency_ps);
}

#[test]
fn executor_emits_balanced_spans_on_the_graph_track() {
    let tel = Telemetry::enabled();
    let ex = compile(
        &dnn(),
        &LowerConfig::metro(),
        &Topology::fig1(),
        &SLOTS,
        NodeId(0),
        NodeId(3),
        4,
    )
    .expect("compiles")
    .with_telemetry(&tel);
    let cfg = ExecConfig {
        requests: 4,
        mode: ExecMode::Pipelined,
    };
    let report = ex.run(&cfg);
    let events = tel.trace_events();
    let spans = validate_balanced(&events).expect("balanced spans");
    assert_eq!(spans, report.stages * cfg.requests);
    assert!(events.iter().all(|e| e.pid == track::GRAPH));
}

#[test]
fn fault_plan_relowers_only_the_failed_site() {
    let mut ex = compile(
        &dnn(),
        &LowerConfig::metro(),
        &Topology::fig1(),
        &SLOTS,
        NodeId(0),
        NodeId(3),
        4,
    )
    .expect("compiles");
    let healthy = ex.run(&batch(ExecMode::Pipelined));
    assert_eq!(healthy.digital_stages, 0);

    let sites = ex.placed().photonic_sites();
    assert!(sites.len() >= 2);
    let victim = sites[0];
    let changed = ex.apply_faults(&FaultPlan {
        events: vec![FaultEvent {
            at_ps: 0,
            kind: FaultKind::EngineFail { node: victim },
        }],
    });
    assert!(changed >= 1);

    let faulted = ex.run(&batch(ExecMode::Pipelined));
    assert_eq!(faulted.relowered_stages.len(), changed);
    for &k in &faulted.relowered_stages {
        assert_eq!(ex.placed().bindings[k].node, victim);
    }
    // The surviving site's stages stayed photonic; fallback costs energy.
    assert!(faulted.digital_stages < faulted.stages);
    assert!(faulted.energy_per_request_j > healthy.energy_per_request_j);

    // Repair restores the healthy report byte-for-byte.
    ex.repair_site(victim);
    let healed = ex.run(&batch(ExecMode::Pipelined));
    assert_eq!(
        serde_json::to_string(&healed).expect("serializes"),
        serde_json::to_string(&healthy).expect("serializes")
    );
}

#[test]
fn degraded_budget_splits_the_plan_across_targets() {
    let mut rng = SimRng::seed_from_u64(SEED);
    let mlp = Mlp::new_random(&[16, 16, 16, 8], &mut rng);
    // 6-bit output demand: realistic clears it, degraded cannot.
    let graph = ir::dnn_graph(&mlp, 2.5, 6.0);
    let mut cfg = LowerConfig::metro();
    cfg.budget = ErrorBudget::degraded();
    let ex = compile(
        &graph,
        &cfg,
        &Topology::fig1(),
        &SLOTS,
        NodeId(0),
        NodeId(3),
        4,
    )
    .expect("compiles");
    let stages = &ex.placed().plan.stages;
    assert!(stages.iter().any(|s| s.target == Target::Photonic));
    let last = stages.last().expect("has stages");
    assert_eq!(last.target, Target::Digital, "output layer forced digital");
    // The digital stage executes wherever the chain already is — no
    // extra fiber hop for the fallback.
    let k = stages.len() - 1;
    assert_eq!(ex.placed().bindings[k].hop_in_ps, 0);
}
