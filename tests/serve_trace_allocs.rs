//! Allocation gate for serving: a fault-storm serving run with
//! telemetry off may make at most 3.6 heap allocations per arrival, and
//! the same run with telemetry on at most 10 more per arrival.
//!
//! With telemetry off, the serving pump's scratch allocates nothing
//! per wake-up: the batcher, scheduler and admission fill buffers the
//! runtime lends them, a dispatched batch's requests move into its
//! pending entry, and a pass books its energy into a fixed array. What
//! remains per arrival is the work itself: open batches' request
//! vectors, pending-batch map nodes, redundancy-set members and their
//! pin lists, and event-queue and ledger growth. Trace events
//! borrow their names, categories and argument keys, so what tracing
//! adds per request is its argument values and the runtime's
//! per-request trace state, not a string per event. This test binary
//! installs its own counting global allocator. The count is kept per
//! thread, so allocations the test harness makes on other threads stay
//! out of it, and the file holds one test because the allocator serves
//! the whole binary.

use ofpc_faults::{generate_storm, StormSpec};
use ofpc_net::{NodeId, Topology};
use ofpc_photonics::SimRng;
use ofpc_resil::{MultipathPlan, RedundancyMode};
use ofpc_serve::{
    ArrivalSpec, BatchPolicy, RetryPolicy, ServeConfig, ServeReport, ServeRuntime, ServiceModel,
    SiteSpec, TenantSpec,
};
use ofpc_telemetry::Telemetry;
use ofpc_transponder::compute::ComputeTransponderConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls (alloc, alloc_zeroed, realloc) on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread that is tearing down may still allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System` upholds the `GlobalAlloc` contract; the
// bookkeeping touches only a `const` thread-local without a destructor,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller guarantees `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller guarantees `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller guarantees `ptr` came
        // from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller guarantees `ptr`,
        // `layout` and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const HORIZON_PS: u64 = 1_000_000_000;

/// A hub-and-spoke metro (three compute sites, each on its own 10 km
/// span) serving two bursty tenants with XOR-parity protection while a
/// seeded storm cuts one span every 250 µs: every trace call the
/// serving runtime makes (request trees, batch spans, fault and
/// resilience instants) fires.
fn storm_runtime(tel: Option<&Telemetry>) -> ServeRuntime {
    let mut topo = Topology::new();
    let fe = topo.add_node("fe");
    let nodes: Vec<NodeId> = (0..3)
        .map(|i| {
            let s = topo.add_node(format!("s{i}"));
            topo.add_link(fe, s, 10.0);
            s
        })
        .collect();
    let plan = MultipathPlan::plan(&topo, fe, &nodes);
    let sites: Vec<SiteSpec> = plan
        .routes
        .iter()
        .map(|r| SiteSpec {
            node: r.node,
            slots: 1,
            access_ps: r.route.delay_ps,
        })
        .collect();
    let links: Vec<_> = plan
        .routes
        .iter()
        .flat_map(|r| r.route.links.iter().copied())
        .collect();
    let spec = StormSpec {
        bursts: 4,
        cuts_per_burst: 1,
        burst_jitter_ps: 30_000_000,
        cut_down_ps: 150_000_000,
        engines_per_burst: 0,
        engine_down_ps: 0,
        drift_sigmas: Vec::new(),
    };
    let mut rng = SimRng::seed_from_u64(32).derive("storm");
    let storm = generate_storm(&links, &nodes, HORIZON_PS, &spec, &mut rng);
    let tenant = |i: usize| TenantSpec {
        name: format!("burst-{i}"),
        weight: 1,
        queue_capacity: 1024,
        arrivals: ArrivalSpec::Mmpp {
            calm_rps: 1.0e4,
            burst_rps: 5.0e6,
            mean_calm_s: 20e-6,
            mean_burst_s: 2e-6,
        },
        primitive: ofpc_engine::Primitive::VectorDotProduct,
        operand_len: 2048,
        deadline_ps: 200_000_000,
    };
    let config = ServeConfig {
        seed: 32,
        horizon_ps: HORIZON_PS,
        drain_grace_ps: 1_000_000_000,
        batch: BatchPolicy {
            max_batch: 8,
            max_wait_ps: 20_000_000,
        },
        tenants: (0..2).map(tenant).collect(),
        verify_every: 0,
    };
    let model = ServiceModel::from_transponder(&ComputeTransponderConfig::ideal(), 1);
    let policies = vec![RedundancyMode::XorParity { data_groups: 2 }; 2];
    let rt = ServeRuntime::new(config, model, sites)
        .with_redundancy(&policies, plan)
        .with_storm(&storm)
        .with_retry_policy(RetryPolicy {
            base_ps: 100_000_000,
            max_backoff_ps: 1_000_000_000,
            max_retries: 4,
        });
    match tel {
        Some(tel) => rt.with_telemetry(tel),
        None => rt,
    }
}

/// Allocations made on this thread building and running the scenario.
fn counted_run(tel: Option<&Telemetry>) -> (u64, ServeReport) {
    let before = ALLOCS.with(Cell::get);
    let (report, _) = storm_runtime(tel).run_with_resil();
    (ALLOCS.with(Cell::get) - before, report)
}

#[test]
fn traced_serving_allocates_at_most_ten_more_times_per_arrival() {
    let (bare, report) = counted_run(None);
    let tel = Telemetry::enabled();
    let (traced, traced_report) = counted_run(Some(&tel));
    assert_eq!(
        serde_json::to_string(&report).expect("report serializes"),
        serde_json::to_string(&traced_report).expect("report serializes"),
        "telemetry must not perturb the run"
    );
    assert!(report.arrivals > 0, "the scenario offered no work");
    assert!(
        tel.trace_events().len() as u64 > 10 * report.arrivals,
        "the run must be traced end to end"
    );
    let untraced = bare as f64 / report.arrivals as f64;
    assert!(
        untraced <= 3.6,
        "{bare} untraced allocations over {} arrivals: {untraced:.2} per arrival",
        report.arrivals
    );
    let extra = traced.saturating_sub(bare) as f64 / report.arrivals as f64;
    assert!(
        extra <= 10.0,
        "{traced} traced against {bare} untraced allocations over {} arrivals: \
         {extra:.2} extra per arrival",
        report.arrivals
    );
}
