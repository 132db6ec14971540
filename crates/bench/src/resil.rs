//! E18 — proactive multipath resilience under fault storms.
//!
//! The question this harness answers: when a seeded storm of correlated
//! fiber cuts sweeps a serving plant, what does proactive redundancy
//! actually buy, and what does it cost? Three configurations run under
//! the **byte-identical** storm and arrival processes:
//!
//! * `unprotected` — the PR-2 reactive baseline: a cut loses in-flight
//!   work, displaced requests retry on capped backoff, and whatever
//!   cannot meet its deadline is shed.
//! * `replica` — every batch is cloned onto two link-disjoint paths;
//!   first valid delivery wins, the duplicate is cancelled.
//! * `parity` — each batch splits into `k` data groups plus one XOR
//!   parity group across `k + 1` disjoint paths; a single lost group is
//!   reconstructed digitally from the survivors.
//!
//! The plant is a hub-and-spoke metro: one front-end, `spokes` compute
//! sites each on its own short span, so every site route is
//! link-disjoint by construction and a single cut severs exactly one
//! path. Storm bursts cut one link at a time (`cuts_per_burst: 1`) and
//! splice it before the next burst: the single-fault-at-a-time regime
//! the redundancy modes are *designed* to absorb with zero lost work —
//! the gates in `tests/resil.rs` and `expt_resil` hold them to exactly
//! that, while the same storm forces deadline misses on the baseline.
//!
//! Traffic is deliberately bursty (MMPP-2 with burst rates above plant
//! capacity): batches fill during bursts, which is what keeps the
//! parity overhead near its coding-rate floor of `(k + 1) / k` instead
//! of degenerating to per-request replication.
//!
//! Deadlines are tuned against the span propagation delay: a request
//! served first-try makes it comfortably; a request whose results were
//! lost mid-flight pays the elapsed flight plus backoff plus a full
//! second pass, which overruns the deadline unless the cut struck very
//! early. That asymmetry — not an artificially hostile deadline — is
//! what separates the protected and unprotected availability curves.

use crate::table::{versioned_pretty, Table};
use ofpc_faults::{generate_storm, FaultKind, FaultPlan, StormSpec};
use ofpc_net::{NodeId, Topology};
use ofpc_par::WorkerPool;
use ofpc_photonics::SimRng;
use ofpc_resil::{MultipathPlan, RedundancyMode};
use ofpc_serve::{
    ArrivalSpec, BatchPolicy, ResilSummary, RetryPolicy, ServeConfig, ServeReport, ServeRuntime,
    ServiceModel, SiteSpec, TenantSpec,
};
use ofpc_transponder::compute::ComputeTransponderConfig;
use serde::Serialize;

/// Full parameterization of one E18 run set.
#[derive(Debug, Clone, Serialize)]
pub struct E18Config {
    pub seed: u64,
    /// Arrivals are generated in `[0, horizon_ps)`.
    pub horizon_ps: u64,
    pub drain_grace_ps: u64,
    /// Compute sites, each on its own span from the front-end.
    pub spokes: usize,
    pub span_km: f64,
    pub slots_per_site: usize,
    pub wdm_channels: usize,
    /// Per-tenant MMPP base rate (two tenants; see [`E18Config::serve_config`]).
    pub tenant_rps: f64,
    pub operand_len: usize,
    pub deadline_ps: u64,
    /// XOR-parity data groups (`k`); the coding-rate floor is `(k+1)/k`.
    pub data_groups: u8,
    pub storm: StormSpec,
}

impl E18Config {
    /// The full E18 scenario: 5 spokes, 4 ms of arrivals, 8 single-cut
    /// storm bursts.
    pub fn full() -> Self {
        E18Config {
            seed: 18,
            horizon_ps: 4_000_000_000,
            drain_grace_ps: 1_000_000_000,
            spokes: 5,
            span_km: 10.0,
            slots_per_site: 1,
            wdm_channels: 1,
            tenant_rps: 1.0e6,
            operand_len: 2048,
            deadline_ps: 200_000_000, // 200 µs against a ~98 µs two-way span delay
            data_groups: 4,
            storm: StormSpec {
                bursts: 8,
                cuts_per_burst: 1,
                burst_jitter_ps: 30_000_000,
                cut_down_ps: 150_000_000,
                engines_per_burst: 0,
                engine_down_ps: 0,
                drift_sigmas: Vec::new(),
            },
        }
    }

    /// The golden-fixture miniature: same plant and rates, a 1 ms
    /// horizon with 2 storm bursts (the full run's cut density).
    pub fn mini() -> Self {
        E18Config {
            horizon_ps: 1_000_000_000,
            drain_grace_ps: 400_000_000,
            storm: StormSpec {
                bursts: 2,
                ..Self::full().storm
            },
            ..Self::full()
        }
    }

    /// The serving config shared verbatim by all three runs: two bursty
    /// MMPP tenants whose burst rate exceeds plant capacity (full
    /// batches during bursts) over a calm trickle.
    pub fn serve_config(&self) -> ServeConfig {
        let tenant = |name: &str| TenantSpec {
            name: name.to_string(),
            weight: 1,
            queue_capacity: 1024,
            arrivals: ArrivalSpec::Mmpp {
                calm_rps: self.tenant_rps * 0.02,
                burst_rps: self.tenant_rps * 10.0,
                mean_calm_s: 80e-6,
                mean_burst_s: 8e-6,
            },
            primitive: ofpc_engine::Primitive::VectorDotProduct,
            operand_len: self.operand_len,
            deadline_ps: self.deadline_ps,
        };
        ServeConfig {
            seed: self.seed,
            horizon_ps: self.horizon_ps,
            drain_grace_ps: self.drain_grace_ps,
            batch: BatchPolicy {
                max_batch: 8,
                max_wait_ps: 20_000_000,
            },
            tenants: vec![tenant("burst-a"), tenant("burst-b")],
            verify_every: 0,
        }
    }

    /// Build the hub-and-spoke plant: the topology, the link-disjoint
    /// route plan from the front-end, and the site list with access
    /// latency taken from each planned route's propagation delay.
    pub fn plant(&self) -> (MultipathPlan, Vec<SiteSpec>) {
        let mut topo = Topology::new();
        let fe = topo.add_node("fe");
        let mut nodes = Vec::new();
        for i in 0..self.spokes {
            let s = topo.add_node(format!("s{i}"));
            topo.add_link(fe, s, self.span_km);
            nodes.push(s);
        }
        let plan = MultipathPlan::plan(&topo, fe, &nodes);
        let sites = plan
            .routes
            .iter()
            .map(|r| SiteSpec {
                node: r.node,
                slots: self.slots_per_site,
                access_ps: r.route.delay_ps,
            })
            .collect();
        (plan, sites)
    }

    /// The seeded storm all three runs replay byte-identically.
    pub fn storm_plan(&self, plan: &MultipathPlan) -> FaultPlan {
        let links: Vec<_> = plan
            .routes
            .iter()
            .flat_map(|r| r.route.links.iter().copied())
            .collect();
        let sites: Vec<NodeId> = plan.routes.iter().map(|r| r.node).collect();
        let mut rng = SimRng::seed_from_u64(self.seed).derive("e18-storm");
        generate_storm(&links, &sites, self.horizon_ps, &self.storm, &mut rng)
    }
}

/// One protection mode's outcome under the shared storm.
#[derive(Debug, Clone, Serialize)]
pub struct E18Run {
    pub mode: String,
    /// Requests that did not complete photonically on time:
    /// shed + degraded + unfinished.
    pub failed: u64,
    /// completed / arrivals.
    pub availability: f64,
    pub goodput_rps: f64,
    pub p99_latency_us: Option<f64>,
    pub energy_per_completed_j: f64,
    /// `energy_per_completed_j` relative to the unprotected run.
    pub energy_overhead: f64,
    pub report: ServeReport,
    pub resil: ResilSummary,
}

/// The E18 comparison document (serialized into `results/e18_resil.json`
/// by the E18 entry, and — in mini form — pinned as a golden fixture).
#[derive(Debug, Clone, Serialize)]
pub struct E18Report {
    pub config: E18Config,
    pub storm_events: usize,
    pub link_cuts: usize,
    pub runs: Vec<E18Run>,
}

/// Run the three protection modes under the byte-identical storm.
pub fn run_e18(pool: &WorkerPool, cfg: &E18Config) -> E18Report {
    let (plan, sites) = cfg.plant();
    let storm = cfg.storm_plan(&plan);
    let link_cuts = storm
        .events
        .iter()
        .filter(|e| matches!(e.kind, FaultKind::FiberCut { .. }))
        .count();
    let serve_cfg = cfg.serve_config();
    let modes: Vec<(String, RedundancyMode)> = vec![
        ("unprotected".to_string(), RedundancyMode::Unprotected),
        ("replica".to_string(), RedundancyMode::Replica),
        (
            "parity".to_string(),
            RedundancyMode::XorParity {
                data_groups: cfg.data_groups,
            },
        ),
    ];
    let runs = pool.scatter_gather("e18-resil", modes, |_, (mode, policy)| {
        let model =
            ServiceModel::from_transponder(&ComputeTransponderConfig::ideal(), cfg.wdm_channels);
        let policies = vec![policy; serve_cfg.tenants.len()];
        // The reactive baseline pays fault detection plus controller
        // reconvergence before it can re-dispatch displaced work; 100 µs
        // is charitable next to PR-2's measured time-to-recover. The
        // proactive modes never touch this path on a single-cut storm.
        let retry = RetryPolicy {
            base_ps: 100_000_000,
            max_backoff_ps: 1_000_000_000,
            max_retries: 4,
        };
        let (report, resil) = ServeRuntime::new(serve_cfg.clone(), model, sites.clone())
            .with_redundancy(&policies, plan.clone())
            .with_storm(&storm)
            .with_retry_policy(retry)
            .run_with_resil();
        assert_eq!(
            report.arrivals,
            report.completed + report.shed + report.degraded + report.unfinished,
            "request conservation violated in E18 {mode} run"
        );
        (mode, report, resil)
    });
    let baseline_j = runs[0].1.joules_per_completed;
    let runs = runs
        .into_iter()
        .map(|(mode, report, resil)| E18Run {
            mode,
            failed: report.shed + report.degraded + report.unfinished,
            availability: if report.arrivals > 0 {
                report.completed as f64 / report.arrivals as f64
            } else {
                1.0
            },
            goodput_rps: report.goodput_rps,
            p99_latency_us: report.p99_latency_us,
            energy_per_completed_j: report.joules_per_completed,
            energy_overhead: if baseline_j > 0.0 {
                report.joules_per_completed / baseline_j
            } else {
                1.0
            },
            report,
            resil,
        })
        .collect();
    E18Report {
        config: cfg.clone(),
        storm_events: storm.events.len(),
        link_cuts,
        runs,
    }
}

/// E18: the full storm (eight single-cut bursts over 4 ms) against
/// all three protection modes. Acceptance gates:
///
/// * the storm forces failures on the unprotected baseline;
/// * both protected modes finish with **zero** failed requests and
///   every redundancy-set member accounted for;
/// * replica ≤ 2.1× and parity ≤ 1.5× of the baseline's joules per
///   completed request.
pub fn expt(pool: &WorkerPool) -> String {
    let cfg = E18Config::full();
    println!(
        "E18: resilience under a {}-burst storm ({} workers)",
        cfg.storm.bursts,
        pool.workers()
    );
    let rep = run_e18(pool, &cfg);

    let mut t = Table::new(
        "E18 — availability and energy under one byte-identical storm",
        &[
            "mode",
            "arrivals",
            "completed",
            "failed",
            "availability",
            "goodput",
            "p99",
            "energy/req",
            "overhead",
        ],
    );
    for r in &rep.runs {
        t.row(&[
            r.mode.clone(),
            r.report.arrivals.to_string(),
            r.report.completed.to_string(),
            r.failed.to_string(),
            format!("{:.4}", r.availability),
            format!("{:.2} Mrps", r.goodput_rps / 1e6),
            r.p99_latency_us
                .map(|v| format!("{v:.1} us"))
                .unwrap_or_else(|| "-".to_string()),
            format!("{:.2} nJ", r.energy_per_completed_j * 1e9),
            format!("{:.3}x", r.energy_overhead),
        ]);
    }
    t.print();

    let base = &rep.runs[0];
    assert!(base.failed > 0, "E18: the storm must hurt the baseline");
    assert!(
        rep.link_cuts >= cfg.storm.bursts,
        "E18: expected at least one cut per burst"
    );
    for r in &rep.runs[1..] {
        assert_eq!(
            r.failed, 0,
            "E18: {} must ride out the storm with zero lost work",
            r.mode
        );
        assert_eq!(r.report.arrivals, r.report.completed);
        assert_eq!(r.resil.unsettled_sets, 0, "E18: unaccounted member");
        assert!(r.resil.link_cuts_seen as usize >= cfg.storm.bursts);
    }
    let replica = &rep.runs[1];
    let parity = &rep.runs[2];
    assert!(replica.resil.replica_sets > 0 && replica.resil.losses_absorbed > 0);
    assert!(parity.resil.parity_sets > 0 && parity.resil.reconstructions > 0);
    assert!(
        replica.energy_overhead <= 2.1,
        "E18: replica overhead {:.3} above the 2.1x gate",
        replica.energy_overhead
    );
    assert!(
        parity.energy_overhead <= 1.5,
        "E18: parity overhead {:.3} above the 1.5x gate",
        parity.energy_overhead
    );
    assert!(
        parity.energy_overhead < replica.energy_overhead,
        "E18: coding must beat full replication on energy"
    );

    let doc = versioned_pretty(&rep);
    println!("E18: wrote results/e18_resil.json");
    doc
}

/// Mini E18 for the golden-replay suite: the full comparison document,
/// versioned and pretty-printed.
pub fn e18_mini(pool: &WorkerPool) -> String {
    versioned_pretty(&run_e18(pool, &E18Config::mini()))
}
