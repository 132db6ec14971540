//! E13 — fault injection & failure recovery: availability vs MTBF,
//! time-to-recovery after a fiber cut, and graceful digital fallback.
//!
//! Three sub-experiments over the Fig. 1 WAN and a metro serving
//! deployment:
//!
//! * **Availability sweep** — seeded random fault plans (fiber cuts and
//!   engine hard-fails from MTBF/MTTR renewal processes) replayed
//!   through the full recovery loop (reconverge → re-allocate →
//!   staged re-install). Availability must degrade monotonically as
//!   MTBF shrinks, and every recovery's TTR must respect the
//!   [`ttr_bound_ps`] bound.
//! * **Cut + protection switching** — a targeted fiber cut on the
//!   primary path; goodput (computed deliveries per injected packet)
//!   after recovery must reach ≥ 90% of the pre-fault level.
//! * **Digital fallback** — the serving runtime under an engine-outage
//!   schedule, with and without the digital fallback. The fallback
//!   answers displaced requests exactly (digital arithmetic carries no
//!   analog noise) at worse latency/energy, so the shed rate must drop
//!   below the no-fallback baseline while correctness stays 100%.

use crate::serving::{metro_runtime, mini_config};
use crate::table::{versioned_pretty, Table};
use ofpc_apps::digital::ComputeModel;
use ofpc_controller::demand::{Demand, TaskDag};
use ofpc_controller::protection::ttr_bound_ps;
use ofpc_core::{OnFiberNetwork, Solver};
use ofpc_engine::Primitive;
use ofpc_faults::{AvailabilityLedger, FaultKind, FaultPlan, Orchestrator};
use ofpc_net::packet::Packet;
use ofpc_net::pch::PchHeader;
use ofpc_net::sim::{Network, OpSpec};
use ofpc_net::{NodeId, Topology};
use ofpc_par::WorkerPool;
use ofpc_photonics::SimRng;
use ofpc_serve::{ArrivalSpec, BatchPolicy, ServeConfig, ServeReport, ServeRuntime, TenantSpec};
use serde::Serialize;

const SEED: u64 = 13;
const P1: Primitive = Primitive::VectorDotProduct;

/// The recovery loop: default recovery timing over the exact solver.
pub(crate) fn orchestrator() -> Orchestrator {
    Orchestrator::new(Solver::Exact {
        node_budget: 1_000_000,
    })
}

/// Fig. 1 WAN with compute sites at B and C and one A→D demand.
pub(crate) fn fig1_system() -> OnFiberNetwork {
    let mut sys = OnFiberNetwork::new(Topology::fig1(), SEED);
    sys.upgrade_site(NodeId(1), 1);
    sys.upgrade_site(NodeId(2), 1);
    sys.submit_demand(
        Demand::new(1, NodeId(0), NodeId(3), TaskDag::single(P1)),
        OpSpec::Dot {
            weights: vec![0.25; 8],
        },
    );
    sys
}

fn compute_packet(id: u32) -> Packet {
    Packet::compute(
        Network::node_addr(NodeId(0), 1),
        Network::node_addr(NodeId(3), 1),
        id,
        PchHeader::request(P1, 1, 8),
        Packet::encode_operands(&[0.5; 8]),
    )
}

// ---------------------------------------------------------------- E13a

#[derive(Debug, Serialize)]
struct AvailRow {
    mtbf_ms: f64,
    hard_faults: usize,
    availability: f64,
    downtime_ms: f64,
    p50_ttr_us: f64,
    p99_ttr_us: f64,
    ttr_bound_us: f64,
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx] as f64
}

/// Replay a random fault plan through the recovery loop, folding every
/// outage into the ledger. Returns (row, ttrs).
fn availability_run(mtbf_ps: u64, horizon_ps: u64) -> AvailRow {
    let mut sys = fig1_system();
    let orch = orchestrator();
    sys.allocate_and_apply(orch.solver);

    let mut rng = SimRng::seed_from_u64(SEED);
    // Engine faults on one site only: the survivor keeps the demand
    // satisfiable, so outages are bounded by recovery, not repair.
    let plan = FaultPlan::random(&sys.net.topo, &[NodeId(1)], horizon_ps, mtbf_ps, &mut rng);

    let mut ledger = AvailabilityLedger::new(horizon_ps);
    let mut ttrs: Vec<u64> = Vec::new();
    // When a fault leaves the demand unsatisfiable (e.g. overlapping
    // cuts disconnecting A from D), the outage stays open until a
    // repair brings service back.
    let mut down_since: Option<u64> = None;
    for ev in &plan.events {
        let out = match ev.kind {
            FaultKind::FiberCut { link } => {
                sys.net.set_link_up(link, false);
                let out = orch.recover_from_cut(&mut sys, ev.at_ps);
                ttrs.push(out.timeline.ttr_ps());
                out
            }
            FaultKind::LinkRestore { link } => {
                sys.net.set_link_up(link, true);
                orch.recover_from_cut(&mut sys, ev.at_ps)
            }
            FaultKind::EngineFail { node } => {
                let out = orch.recover_from_engine_fail(&mut sys, &[node], ev.at_ps);
                ttrs.push(out.timeline.ttr_ps());
                out
            }
            FaultKind::EngineRepair { node } => {
                sys.repair_site(node);
                orch.recover_from_cut(&mut sys, ev.at_ps)
            }
            FaultKind::NoiseStep { .. } => continue,
        };
        let serving = out.unsatisfied == 0 && out.fully_applied;
        let is_fault = matches!(
            ev.kind,
            FaultKind::FiberCut { .. } | FaultKind::EngineFail { .. }
        );
        match (serving, down_since) {
            (true, Some(since)) => {
                // Repair (or a parallel-path recovery) brought service
                // back: close the long outage at this re-install.
                ledger.record(since, out.timeline.installed_at_ps);
                down_since = None;
            }
            (true, None) if is_fault => ledger.record_recovery(&out.timeline),
            (false, None) => down_since = Some(ev.at_ps),
            _ => {}
        }
    }
    if let Some(since) = down_since {
        ledger.record(since, horizon_ps);
    }

    ttrs.sort_unstable();
    let bound = ttr_bound_ps(sys.net.topo.node_count());
    AvailRow {
        mtbf_ms: mtbf_ps as f64 / 1e9,
        hard_faults: plan.fault_count(),
        availability: ledger.availability(),
        downtime_ms: ledger.downtime_ps() as f64 / 1e9,
        p50_ttr_us: percentile(&ttrs, 0.50) / 1e6,
        p99_ttr_us: percentile(&ttrs, 0.99) / 1e6,
        ttr_bound_us: bound as f64 / 1e6,
    }
}

// ---------------------------------------------------------------- E13b

#[derive(Debug, Serialize)]
struct CutRow {
    injected_per_phase: u64,
    computed_before: u64,
    computed_after: u64,
    goodput_recovery: f64,
    ttr_us: f64,
    ttr_bound_us: f64,
    routers_updated: usize,
}

/// Cut the first link out of A (on the installed primary path).
pub(crate) fn cut_primary(sys: &mut OnFiberNetwork) {
    let a = sys.net.topo.find_node("A").unwrap();
    let (cut_link, _) = sys.net.topo.neighbors(a)[0];
    sys.net.set_link_up(cut_link, false);
}

/// Targeted cut on the A-side primary link: compare computed-delivery
/// goodput before the fault and after recovery.
fn cut_and_recover() -> CutRow {
    let mut sys = fig1_system();
    let orch = orchestrator();
    sys.allocate_and_apply(orch.solver);

    const N: u64 = 200;
    const GAP_PS: u64 = 1_000_000; // 1 µs spacing
    for i in 0..N {
        sys.net
            .inject(i * GAP_PS, NodeId(0), compute_packet(i as u32 + 1));
    }
    sys.net.run_to_idle();
    let computed_before = sys
        .net
        .stats
        .delivered
        .iter()
        .filter(|d| d.computed)
        .count() as u64;

    cut_primary(&mut sys);
    let fault_at = sys.net.now_ps(); // cut strikes once phase 1 quiesced
    let out = orch.recover_from_cut(&mut sys, fault_at);
    assert!(out.fully_applied, "recovery re-install must apply cleanly");
    assert_eq!(out.unsatisfied, 0, "survivor path must absorb the demand");

    let resume = out.timeline.installed_at_ps;
    for i in 0..N {
        sys.net.inject(
            resume + i * GAP_PS,
            NodeId(0),
            compute_packet((N + i) as u32 + 1),
        );
    }
    sys.net.run_to_idle();
    let computed_total = sys
        .net
        .stats
        .delivered
        .iter()
        .filter(|d| d.computed)
        .count() as u64;
    let computed_after = computed_total - computed_before;

    CutRow {
        injected_per_phase: N,
        computed_before,
        computed_after,
        goodput_recovery: computed_after as f64 / computed_before.max(1) as f64,
        ttr_us: out.timeline.ttr_ps() as f64 / 1e6,
        ttr_bound_us: ttr_bound_ps(sys.net.topo.node_count()) as f64 / 1e6,
        routers_updated: out.routers_updated,
    }
}

// ---------------------------------------------------------------- E13c

#[derive(Debug, Serialize)]
struct FallbackRow {
    fallback: bool,
    arrivals: u64,
    completed: u64,
    shed: u64,
    degraded: u64,
    shed_rate: f64,
    degraded_rate: f64,
    goodput_rps: f64,
    degraded_energy_j: f64,
    energy_total_j: f64,
    report: ServeReport,
}

/// A double-site outage window mid-run: node 1 fails first, node 2
/// joins (zero photonic capacity), then both repair in reverse order.
fn outage() -> FaultPlan {
    FaultPlan::new()
        .engine_outage(500_000_000, NodeId(1), 1_000_000_000)
        .engine_outage(800_000_000, NodeId(2), 400_000_000)
}

/// The outage window scaled to the minis' 100 µs horizon.
pub(crate) fn mini_outage() -> FaultPlan {
    FaultPlan::new()
        .engine_outage(25_000_000, NodeId(1), 50_000_000)
        .engine_outage(40_000_000, NodeId(2), 20_000_000)
}

/// `config` on the metro deployment under `outage`, answering
/// displaced requests on the CPU when `fallback` is set.
pub(crate) fn under_outage(
    config: ServeConfig,
    outage: &FaultPlan,
    fallback: bool,
) -> ServeRuntime {
    let rt = metro_runtime(config).with_storm(outage);
    if fallback {
        rt.with_digital_fallback(ComputeModel::cpu())
    } else {
        rt
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        seed: SEED,
        horizon_ps: 2_000_000_000,
        drain_grace_ps: 1_000_000_000,
        batch: BatchPolicy {
            max_batch: 8,
            max_wait_ps: 5_000_000,
        },
        tenants: vec![TenantSpec {
            name: "steady".to_string(),
            weight: 1,
            queue_capacity: 96,
            arrivals: ArrivalSpec::Poisson { rate_rps: 6e6 },
            primitive: P1,
            operand_len: 2048,
            deadline_ps: 2_000_000_000,
        }],
        verify_every: 256,
    }
}

/// The E13c serving run under the outage window.
pub(crate) fn fallback_runtime(fallback: bool) -> ServeRuntime {
    under_outage(serve_config(), &outage(), fallback)
}

/// E13: availability vs MTBF, cut recovery and the digital fallback.
pub(crate) fn expt(pool: &WorkerPool) -> String {
    // --- E13a: availability vs MTBF ---
    // Each MTBF point replays its own seeded fault plan against its own
    // copy of the system: independent scenarios, scattered across the
    // pool with rows gathered in sweep order.
    let horizon_ps = 2_000_000_000_000; // 2 s of virtual time
    let mtbf_ms = [20.0_f64, 80.0, 320.0, 1_280.0];
    let avail: Vec<AvailRow> = pool.scatter_gather(mtbf_ms.to_vec(), |_, m| {
        availability_run((m * 1e9) as u64, horizon_ps)
    });

    let mut t = Table::new(
        "E13a — availability vs MTBF (2 s horizon, MTTR 20 ms)",
        &[
            "MTBF ms",
            "faults",
            "availability",
            "downtime ms",
            "p50 TTR µs",
            "p99 TTR µs",
            "bound µs",
        ],
    );
    for r in &avail {
        t.row(&[
            format!("{:.0}", r.mtbf_ms),
            format!("{}", r.hard_faults),
            format!("{:.5}", r.availability),
            format!("{:.2}", r.downtime_ms),
            format!("{:.0}", r.p50_ttr_us),
            format!("{:.0}", r.p99_ttr_us),
            format!("{:.0}", r.ttr_bound_us),
        ]);
    }
    t.print();

    for w in avail.windows(2) {
        assert!(
            w[0].availability <= w[1].availability + 1e-12,
            "availability must degrade as MTBF shrinks: {} ms → {:.5}, {} ms → {:.5}",
            w[0].mtbf_ms,
            w[0].availability,
            w[1].mtbf_ms,
            w[1].availability
        );
    }
    for r in &avail {
        assert!(
            r.p99_ttr_us <= r.ttr_bound_us,
            "p99 TTR {} µs exceeds the staged-install bound {} µs",
            r.p99_ttr_us,
            r.ttr_bound_us
        );
    }

    // --- E13b: fiber cut + protection switching ---
    let cut = cut_and_recover();
    let mut t = Table::new(
        "E13b — fiber cut, protection switching",
        &[
            "injected",
            "computed pre",
            "computed post",
            "recovery",
            "TTR µs",
            "bound µs",
            "routers",
        ],
    );
    t.row(&[
        format!("{}", cut.injected_per_phase),
        format!("{}", cut.computed_before),
        format!("{}", cut.computed_after),
        format!("{:.1}%", cut.goodput_recovery * 100.0),
        format!("{:.0}", cut.ttr_us),
        format!("{:.0}", cut.ttr_bound_us),
        format!("{}", cut.routers_updated),
    ]);
    t.print();
    assert!(
        cut.goodput_recovery >= 0.9,
        "post-recovery goodput {:.2} must reach 90% of pre-fault",
        cut.goodput_recovery
    );
    assert!(cut.ttr_us <= cut.ttr_bound_us, "TTR exceeds bound");

    // --- E13c: graceful digital fallback ---
    let rows: Vec<FallbackRow> = pool.scatter_gather(vec![false, true], |_, fb| {
        let report = fallback_runtime(fb).run();
        FallbackRow {
            fallback: fb,
            arrivals: report.arrivals,
            completed: report.completed,
            shed: report.shed,
            degraded: report.degraded,
            shed_rate: report.shed_rate,
            degraded_rate: report.degraded_rate,
            goodput_rps: report.goodput_rps,
            degraded_energy_j: report.degraded_energy_j,
            energy_total_j: report.energy_total_j,
            report,
        }
    });

    let mut t = Table::new(
        "E13c — engine outage: digital fallback vs shedding",
        &[
            "fallback",
            "arrivals",
            "completed",
            "shed",
            "degraded",
            "shed %",
            "goodput Mrps",
            "energy mJ",
        ],
    );
    for r in &rows {
        t.row(&[
            format!("{}", r.fallback),
            format!("{}", r.arrivals),
            format!("{}", r.completed),
            format!("{}", r.shed),
            format!("{}", r.degraded),
            format!("{:.1}", r.shed_rate * 100.0),
            format!("{:.2}", r.goodput_rps / 1e6),
            format!("{:.2}", r.energy_total_j * 1e3),
        ]);
    }
    t.print();

    let (no_fb, fb) = (&rows[0], &rows[1]);
    assert!(
        no_fb.shed > 0,
        "the outage window must displace work in the baseline"
    );
    assert!(fb.degraded > 0, "fallback must absorb displaced requests");
    assert!(
        fb.shed_rate < no_fb.shed_rate,
        "fallback shed rate {:.4} must undercut the baseline {:.4}",
        fb.shed_rate,
        no_fb.shed_rate
    );
    // Every degraded answer is exact (digital arithmetic), so answered
    // fraction strictly improves with fallback on.
    assert!(
        fb.completed + fb.degraded > no_fb.completed,
        "fallback must answer more requests than the shedding baseline"
    );
    // Determinism: the fault scenario replays byte-identical.
    let replay = serde_json::to_string(&fallback_runtime(true).run()).unwrap();
    let first = serde_json::to_string(&fb.report).unwrap();
    assert_eq!(first, replay, "same seed + same fault plan ⇒ same report");

    println!(
        "fallback answered {} displaced requests exactly ({} shed avoided), \
         at {:.1} nJ/degraded-request of digital energy",
        fb.degraded,
        no_fb.shed - fb.shed,
        fb.degraded_energy_j * 1e9 / fb.degraded.max(1) as f64
    );

    #[derive(Serialize)]
    struct E13 {
        availability: Vec<AvailRow>,
        cut_recovery: CutRow,
        fallback: Vec<FallbackRow>,
    }
    versioned_pretty(&E13 {
        availability: avail,
        cut_recovery: cut,
        fallback: rows,
    })
}

/// Mini E13: the engine-outage window replayed with and without the
/// digital fallback, verifying on the scalar kernels.
pub(crate) fn e13_mini(pool: &WorkerPool) -> String {
    let reports = pool.scatter_gather(vec![false, true], |_, fallback| {
        under_outage(mini_config(13, 6e6, true), &mini_outage(), fallback).run()
    });
    versioned_pretty(&reports)
}
