//! E20 harness core: churn + fault-storm event streams driven through
//! the sharded incremental controller (ofpc-shard).
//!
//! The full experiment (`expt`) sustains ≥10⁵ admitted
//! requests on a ≥100-site multi-region WAN; `e20_mini` is the same
//! machinery on a 12-site toy, pinned as a golden fixture and replayed
//! across worker counts by the differential tests. Both share one
//! runner, [`run_e20`], whose report contains no wall-clock material —
//! the bytes are a pure function of the spec, on any `OFPC_WORKERS`.

use std::collections::VecDeque;
use std::time::Instant;

use crate::table::{versioned_pretty, Table};
use ofpc_controller::build_plan_from_placements;
use ofpc_controller::demand::{Demand, TaskDag};
use ofpc_core::topo::{multi_region, MultiRegionSpec};
use ofpc_engine::Primitive;
use ofpc_faults::storm::{generate_storm, StormSpec};
use ofpc_net::{LinkId, NodeId};
use ofpc_par::WorkerPool;
use ofpc_photonics::SimRng;
use ofpc_shard::{RegionMap, ShardEvent, ShardedController};
use serde::Serialize;

/// One virtual tick per arrival — the storm's time axis.
const TICK_PS: u64 = 1_000;

/// Slots at every third node of an E20 WAN (the paper's
/// partial-upgrade story).
const SLOTS_PER_SITE: usize = 4;

/// Placement options the E20 controller enumerates per demand.
const MAX_OPTIONS: usize = 8;

/// Scenario parameters for an E20 run.
#[derive(Debug, Clone)]
pub struct E20Spec {
    pub(crate) seed: u64,
    pub(crate) regions: usize,
    pub(crate) sites_per_region: usize,
    /// Total arrivals; departures trail FIFO once `max_live` is reached.
    pub(crate) arrivals: usize,
    pub max_live: usize,
    /// Fraction of demands whose dst is in another region (boundary).
    pub(crate) cross_region_pct: f64,
    /// Correlated fault storm over the run.
    pub(crate) storm: StormSpec,
    /// Differential checkpoint cadence (clone + from-scratch re-solve +
    /// placement equality assert); 0 disables.
    pub(crate) check_every: usize,
}

impl E20Spec {
    /// The headline instance: 120 sites in 12 regions (30× fig1),
    /// 115k arrivals under an 8-burst fault storm.
    pub(crate) fn full() -> Self {
        E20Spec {
            seed: 20,
            regions: 12,
            sites_per_region: 10,
            arrivals: 115_000,
            max_live: 100,
            cross_region_pct: 0.25,
            storm: StormSpec {
                bursts: 8,
                cuts_per_burst: 3,
                burst_jitter_ps: 0,
                cut_down_ps: 4_000 * TICK_PS,
                engines_per_burst: 1,
                engine_down_ps: 6_000 * TICK_PS,
                drift_sigmas: Vec::new(),
            },
            check_every: 20_000,
        }
    }

    /// The golden-fixture miniature: 12 sites in 3 regions, 240
    /// arrivals, a 2-burst storm, differential checks every 60 events.
    pub fn mini() -> Self {
        E20Spec {
            seed: 20,
            regions: 3,
            sites_per_region: 4,
            arrivals: 240,
            max_live: 12,
            cross_region_pct: 0.3,
            storm: StormSpec {
                bursts: 2,
                cuts_per_burst: 2,
                burst_jitter_ps: 0,
                cut_down_ps: 40 * TICK_PS,
                engines_per_burst: 1,
                engine_down_ps: 60 * TICK_PS,
                drift_sigmas: Vec::new(),
            },
            check_every: 60,
        }
    }

    pub(crate) fn node_count(&self) -> usize {
        self.regions * self.sites_per_region
    }
}

/// Deterministic E20 results — everything a golden fixture may pin.
#[derive(Debug, Serialize)]
pub struct E20Report {
    pub(crate) nodes: usize,
    pub(crate) regions: usize,
    pub(crate) slots_total: usize,
    pub arrivals: usize,
    pub admitted: usize,
    pub rejected: usize,
    pub(crate) displaced: usize,
    pub(crate) revived: usize,
    pub(crate) replanned: usize,
    pub(crate) fault_events: usize,
    pub(crate) fault_batches: usize,
    pub(crate) shard_resolves: usize,
    pub(crate) boundary_reruns: usize,
    pub(crate) boundary_demands_seen: usize,
    pub final_live: usize,
    pub final_satisfied: usize,
    pub(crate) final_objective: f64,
    pub(crate) te_installs: usize,
    pub(crate) te_overrides: usize,
    pub(crate) te_unsatisfied: usize,
    pub differential_checks: usize,
}

/// Run an E20 scenario. Returns the deterministic report plus the
/// per-`apply_batch` wall-clock latencies (ns) — timing stays out of
/// the report so its bytes are worker-count- and machine-independent.
pub fn run_e20(spec: &E20Spec, pool: &WorkerPool) -> (E20Report, Vec<u64>) {
    let mut rng = SimRng::seed_from_u64(spec.seed);
    let wan = multi_region(
        &MultiRegionSpec::new(spec.regions, spec.sites_per_region),
        &mut rng.derive("topo"),
    );
    let n = wan.topo.node_count();
    let capacity: Vec<usize> = (0..n)
        .map(|i| if i % 3 == 0 { SLOTS_PER_SITE } else { 0 })
        .collect();
    let slots_total: usize = capacity.iter().sum();
    let sites: Vec<NodeId> = (0..n)
        .filter(|&i| capacity[i] > 0)
        .map(|i| NodeId(i as u32))
        .collect();
    let links: Vec<LinkId> = (0..wan.topo.link_count())
        .map(|i| LinkId(i as u32))
        .collect();

    // Storm → a time-sorted queue of shard events (via the typed
    // fault-plan views), drained into batches between arrivals.
    let mut faults: Vec<(u64, ShardEvent)> = Vec::new();
    let horizon = (spec.arrivals as u64 + 1) * TICK_PS;
    let plan = generate_storm(
        &links,
        &sites,
        horizon,
        &spec.storm,
        &mut rng.derive("storm"),
    );
    for (t, l, up) in plan.link_events() {
        let ev = if up {
            ShardEvent::RepairLink(l)
        } else {
            ShardEvent::CutLink(l)
        };
        faults.push((t, ev));
    }
    for (t, node, up) in plan.engine_events() {
        let ev = if up {
            ShardEvent::RepairSite(node)
        } else {
            ShardEvent::FailSite(node)
        };
        faults.push((t, ev));
    }
    faults.sort_by_key(|&(t, _)| t);

    let region_map = RegionMap::from_assignment(wan.region_of.clone());
    let mut ctl = ShardedController::new(wan.topo.clone(), region_map, capacity, MAX_OPTIONS)
        .with_pool(pool.clone());

    let prims = [
        Primitive::VectorDotProduct,
        Primitive::PatternMatching,
        Primitive::NonlinearFunction,
    ];
    let mut drng = rng.derive("demands");
    let mut fifo: VecDeque<u32> = VecDeque::new();
    let mut next_fault = 0usize;
    let mut decision_ns: Vec<u64> = Vec::with_capacity(spec.arrivals);
    let mut report = E20Report {
        nodes: n,
        regions: spec.regions,
        slots_total,
        arrivals: spec.arrivals,
        admitted: 0,
        rejected: 0,
        displaced: 0,
        revived: 0,
        replanned: 0,
        fault_events: 0,
        fault_batches: 0,
        shard_resolves: 0,
        boundary_reruns: 0,
        boundary_demands_seen: 0,
        final_live: 0,
        final_satisfied: 0,
        final_objective: 0.0,
        te_installs: 0,
        te_overrides: 0,
        te_unsatisfied: 0,
        differential_checks: 0,
    };
    let tally = |report: &mut E20Report, out: &ofpc_shard::EventOutcome| {
        report.displaced += out.displaced.len();
        report.revived += out.revived.len();
        report.replanned += out.replanned.len();
        report.shard_resolves += out.resolved_shards.len();
        report.boundary_reruns += usize::from(out.boundary_rerun);
    };

    for i in 0..spec.arrivals {
        let now = (i as u64 + 1) * TICK_PS;

        // Correlated fault burst due before this arrival → one batch.
        let mut burst: Vec<ShardEvent> = Vec::new();
        while next_fault < faults.len() && faults[next_fault].0 <= now {
            burst.push(faults[next_fault].1.clone());
            next_fault += 1;
        }
        if !burst.is_empty() {
            report.fault_events += burst.len();
            report.fault_batches += 1;
            let start = Instant::now();
            let out = ctl.apply_batch(burst);
            decision_ns.push(start.elapsed().as_nanos() as u64);
            tally(&mut report, &out);
        }

        // Arrival (+ the FIFO departure keeping `max_live` bounded).
        let src = NodeId(drng.below(n) as u32);
        let cross = drng.chance(spec.cross_region_pct);
        let dst = loop {
            let d = NodeId(drng.below(n) as u32);
            let same = wan.region_of[d.0 as usize] == wan.region_of[src.0 as usize];
            if d != src && same != cross {
                break d;
            }
        };
        if cross {
            report.boundary_demands_seen += 1;
        }
        // 80% single-task, 20% two-task chains.
        let dag = if drng.chance(0.2) {
            TaskDag::chain(vec![prims[drng.below(3)], prims[drng.below(3)]])
        } else {
            TaskDag::single(prims[drng.below(3)])
        };
        let mut batch = vec![ShardEvent::Arrive(Demand::new(i as u32, src, dst, dag))];
        if fifo.len() >= spec.max_live {
            batch.push(ShardEvent::Depart(fifo.pop_front().unwrap()));
        }
        fifo.push_back(i as u32);
        let start = Instant::now();
        let out = ctl.apply_batch(batch);
        decision_ns.push(start.elapsed().as_nanos() as u64);
        report.admitted += out.admitted.len();
        report.rejected += out.rejected.len();
        tally(&mut report, &out);

        // Differential checkpoint: the incremental state must equal a
        // from-scratch re-solve, byte for byte.
        if spec.check_every > 0 && (i + 1) % spec.check_every == 0 {
            let mut scratch = ctl.clone();
            scratch.full_resolve();
            assert_eq!(
                ctl.placements(),
                scratch.placements(),
                "incremental state drifted from scratch re-solve after event {i}"
            );
            ctl.check_invariants()
                .unwrap_or_else(|e| panic!("invariant violated after event {i}: {e}"));
            report.differential_checks += 1;
        }
    }

    report.final_live = ctl.live_count();
    report.final_satisfied = ctl.satisfied_count();
    report.final_objective = ctl.objective();

    // Exercise the TE-update seam: the final placements, pushed through
    // the same plan builder the monolithic controller uses.
    let demands = ctl.live_demands();
    let placements: Vec<Option<Vec<NodeId>>> = ctl.placements().into_values().collect();
    let plan = build_plan_from_placements(&demands, &placements);
    report.te_installs = plan.installs.len();
    report.te_overrides = plan.overrides.len();
    report.te_unsatisfied = plan.unsatisfied.len();

    (report, decision_ns)
}

/// E20: a 120-site, 12-region WAN (30× fig1) absorbing 115k arrivals,
/// trailing FIFO departures, and an 8-burst correlated fault storm.
/// Claims checked here, beyond the differential suite in
/// `tests/shard.rs`:
///
/// * ≥10⁵ admitted requests over the run on a ≥100-site topology;
/// * bounded per-decision latency (p99 / max asserted in release);
/// * periodic clone + from-scratch re-solves agree with the
///   incremental state exactly ([`E20Spec::check_every`]).
pub(crate) fn expt(pool: &WorkerPool) -> String {
    let spec = E20Spec::full();
    println!(
        "E20: sharded incremental controller — {} sites / {} regions, {} arrivals, {} workers\n",
        spec.node_count(),
        spec.regions,
        spec.arrivals,
        pool.workers()
    );

    let (report, mut decision_ns) = run_e20(&spec, pool);
    let (p50, p99, max) = latency_us(&mut decision_ns);

    let mut t = Table::new("E20 run summary", &["metric", "value"]);
    for (k, v) in [
        ("sites", report.nodes.to_string()),
        ("slots installed", report.slots_total.to_string()),
        ("arrivals", report.arrivals.to_string()),
        ("admitted", report.admitted.to_string()),
        ("rejected at arrival", report.rejected.to_string()),
        ("displaced by faults", report.displaced.to_string()),
        ("revived", report.revived.to_string()),
        ("fault events", report.fault_events.to_string()),
        ("shard re-solves", report.shard_resolves.to_string()),
        ("boundary reruns", report.boundary_reruns.to_string()),
        (
            "differential checks",
            report.differential_checks.to_string(),
        ),
        ("decision p50 µs", format!("{p50:.1}")),
        ("decision p99 µs", format!("{p99:.1}")),
        ("decision max µs", format!("{max:.1}")),
    ] {
        t.row(&[k.to_string(), v]);
    }
    t.print();

    let decisions = report.arrivals + report.fault_batches;
    println!(
        "\n{} decisions; boundary sweep ran on {:.1}% of them (skipped when provably unchanged)",
        decisions,
        100.0 * report.boundary_reruns as f64 / decisions as f64
    );

    assert!(report.differential_checks > 0, "checkpoints must run");
    // The headline E20 acceptance numbers.
    assert!(report.nodes >= 100, "E20 must run on a >=100-site topology");
    assert!(
        report.admitted >= 100_000,
        "E20 must admit >=1e5 requests, got {}",
        report.admitted
    );
    // Latency bounds only mean something in release builds.
    if !cfg!(debug_assertions) {
        assert!(p99 < 5_000.0, "p99 decision latency {p99:.0}µs >= 5ms");
        assert!(max < 250_000.0, "max decision latency {max:.0}µs >= 250ms");
    }
    versioned_pretty(&report)
}

/// Mini E20: the golden-fixture miniature (see [`E20Spec::mini`]).
pub(crate) fn e20_mini(pool: &WorkerPool) -> String {
    let (report, _) = run_e20(&E20Spec::mini(), pool);
    versioned_pretty(&report)
}

/// Latency percentiles over a decision-latency series, in microseconds.
pub(crate) fn latency_us(decision_ns: &mut [u64]) -> (f64, f64, f64) {
    assert!(!decision_ns.is_empty());
    decision_ns.sort_unstable();
    let pick = |q: f64| decision_ns[((decision_ns.len() - 1) as f64 * q) as usize] as f64 / 1e3;
    (pick(0.5), pick(0.99), pick(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mini_run_is_reproducible_and_admits() {
        let pool = WorkerPool::sequential();
        let (report, lat) = run_e20(&E20Spec::mini(), &pool);
        assert_eq!(report.arrivals, 240);
        assert!(report.admitted > 120, "admitted {}", report.admitted);
        assert!(report.rejected > 0, "mini should exercise rejections");
        assert!(report.differential_checks >= 4);
        assert!(report.fault_events > 0);
        assert!(!lat.is_empty());
        let again = e20_mini(&pool);
        assert_eq!(e20_mini(&pool), again);
    }
}
