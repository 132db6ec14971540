//! E1 — the paper's Fig. 1 end-to-end scenario.
//!
//! Two applications share the A–B–C–D WAN: packet classification (P2,
//! served at site B) and image recognition (P1, served at site C). We
//! measure end-to-end request latency for on-fiber execution and compare
//! against the baselines the paper's Table 1 lists as "current compute
//! locations": a cloud round trip (detour to a DC plus TPU inference)
//! and edge-device execution (no detour, slow SoC).
//!
//! Paper claim (§2.2/§4): on-fiber computing "improves application
//! latency by performing computation inside the network" — latency
//! should collapse to essentially one propagation delay.

use crate::table::{versioned_pretty, Table};
use ofpc_apps::digital::{ComputeModel, Placement, RequestModel};
use ofpc_core::metrics::SystemReport;
use ofpc_core::scenario::Fig1Scenario;
use ofpc_par::WorkerPool;
use ofpc_photonics::SimRng;
use serde::Serialize;

#[derive(Serialize)]
struct E1Result {
    on_fiber_mean_ms: f64,
    on_fiber_p99_ms: f64,
    cloud_ms: f64,
    edge_ms: f64,
    compute_coverage: f64,
    engine_energy_j: f64,
    speedup_vs_cloud: f64,
}

pub(crate) fn expt(_pool: &WorkerPool) -> String {
    println!("E1: Fig. 1 scenario — on-fiber vs cloud vs edge\n");

    // --- On-fiber: run the assembled scenario. ---
    let mut scenario = Fig1Scenario::build(42);
    let mut rng = SimRng::seed_from_u64(1);
    let requests = 200;
    scenario.inject_traffic(requests, 2_000_000, &mut rng);
    let (delivered, computed) = scenario.run();
    assert_eq!(delivered, 2 * requests);
    let report = SystemReport::from_network(&scenario.system.net);

    // --- Baselines: same path geometry (A→D is 1500 km), recognition
    // workload of 64 MACs/request at the in-network hop; the cloud model
    // runs the full model (64×16+16×4 MLP ≈ 1088 MACs) since it has the
    // full accelerator. Detour to the DC: 400 km each way.
    let recognize = RequestModel {
        macs: 1088,
        bytes: 600,
    };
    let cloud_ms =
        recognize.latency_s(&Placement::Cloud { detour_km: 400.0 }, &ComputeModel::tpu()) * 1e3;
    let edge_ms = recognize.latency_s(&Placement::EndDevice, &ComputeModel::edge_soc()) * 1e3;

    let mut t = Table::new(
        "Fig. 1 — request latency by compute placement",
        &["placement", "mean ms", "p99 ms", "notes"],
    );
    t.row(&[
        "on-fiber (B/C)".into(),
        format!("{:.3}", report.mean_latency_ms),
        format!("{:.3}", report.p99_latency_ms),
        format!("{}/{} computed in flight", computed, delivered),
    ]);
    t.row(&[
        "cloud (TPU, +400 km)".into(),
        format!("{cloud_ms:.3}"),
        format!("{cloud_ms:.3}"),
        "detour both ways".into(),
    ]);
    t.row(&[
        "edge device".into(),
        format!("{edge_ms:.3}"),
        format!("{edge_ms:.3}"),
        "no detour, slow SoC".into(),
    ]);
    t.print();

    let (at_b, at_c) = scenario.engine_executions();
    println!("engine executions: site B = {at_b}, site C = {at_c}");
    println!("{report}");

    let result = E1Result {
        on_fiber_mean_ms: report.mean_latency_ms,
        on_fiber_p99_ms: report.p99_latency_ms,
        cloud_ms,
        edge_ms,
        compute_coverage: report.compute_coverage(),
        engine_energy_j: report.engine_energy_j,
        speedup_vs_cloud: cloud_ms / report.mean_latency_ms,
    };
    println!(
        "\non-fiber vs cloud speedup: {:.2}× (propagation-bound floor)",
        result.speedup_vs_cloud
    );
    assert!(
        result.on_fiber_mean_ms < result.cloud_ms,
        "on-fiber must beat the cloud round trip"
    );
    assert!((result.compute_coverage - 1.0).abs() < 1e-9);
    versioned_pretty(&result)
}
