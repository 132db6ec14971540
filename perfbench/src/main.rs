//! Repository benchmark: three seeded workloads, each driving one
//! subsystem of the workspace end to end through its public API.
//!
//! * `ingest` — the sharded million-tenant front end (`ofpc-ingest`):
//!   zero-copy frame parsing, bounded admission with DRR, WDM batching,
//!   EDF dispatch and the epoch rebalance barrier.
//! * `storm` — the serving runtime (`ofpc-serve` + `ofpc-resil`) under
//!   a seeded fault storm, once per protection mode (unprotected,
//!   replica, XOR parity).
//! * `churn` — the sharded incremental controller (`ofpc-shard`) under
//!   arrival/departure churn with fault bursts folded in.
//!
//! ```text
//! perfbench --workload <ingest|storm|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats one scenario, built from `--seed`, for `--seconds`.
//! Each iteration is cut into four spans around calls into the program:
//! `inputs` (seeded input generation), `build` (constructing the system
//! under test), `drive` (the simulation itself) and `check` (verifying
//! its outputs). The first iteration is a warm-up on a two-worker pool;
//! its report is the reference every timed (sequential) iteration must
//! reproduce byte for byte, which checks replay determinism and
//! worker-count identity at once.
//!
//! `--trace 0` prints the end-to-end metrics, program telemetry off:
//! `items_per_s` (simulated items per second of the fastest `drive`),
//! `peak_heap_mb` (median over iterations of the live-heap peak) and
//! `setup_s` (fastest `inputs` + `build`). `--trace 1` attaches an
//! enabled `Telemetry` handle to the program and prints the per-layer
//! metrics: the fastest time of each span, allocations, and the layers'
//! own counters. Times are fastest-of-run because the program is
//! deterministic: every iteration repeats the same work, so slower
//! iterations measure contention from the rest of the host.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; `attempted` counts
//! timed iterations and `failed` those whose outputs failed a check.

mod alloc;
mod churn;
mod ingest;
mod storm;

use std::time::Instant;

use ofpc_par::WorkerPool;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Wall time and allocation calls of one benchmark span.
#[derive(Clone, Copy)]
pub struct Span {
    pub secs: f64,
    pub allocs: u64,
}

/// One scenario iteration as the benchmark saw it.
pub struct Sample {
    pub inputs: Span,
    pub build: Span,
    pub drive: Span,
    pub check: Span,
    /// Simulated work items the drive span processed (frames,
    /// requests or controller events).
    pub items: u64,
    /// Every output check passed.
    pub ok: bool,
    /// Layer counters for this iteration, by `per_layer` metric name.
    /// Deterministic for a given seed.
    pub counts: Vec<(&'static str, f64)>,
}

/// A seeded scenario the benchmark can repeat.
pub trait Workload {
    /// Run one iteration: generate inputs, build, drive, check.
    /// `traced` attaches program telemetry to the build.
    fn iterate(&mut self, pool: &WorkerPool, traced: bool) -> Sample;
}

/// Time one call and count its allocations.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Span) {
    let a0 = alloc::allocs();
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    (
        out,
        Span {
            secs,
            allocs: alloc::allocs() - a0,
        },
    )
}

/// Compare a report digest against the first one this workload saw.
pub fn matches_reference(reference: &mut Option<String>, digest: String) -> bool {
    match reference {
        Some(r) => *r == digest,
        None => {
            *reference = Some(digest);
            true
        }
    }
}

/// Every per-layer counter any workload reports. A workload that does
/// not exercise a layer reports 0 for its counters.
const LAYER_COUNTS: &[(&str, &str)] = &[
    ("ingest_frames", "count"),
    ("ingest_frames_rejected", "count"),
    ("ingest_completed", "count"),
    ("ingest_shed", "count"),
    ("ingest_batch_mean", "req/batch"),
    ("ingest_migrations", "count"),
    ("ingest_slot_moves", "count"),
    ("ingest_tenant_state", "count"),
    ("serve_arrivals", "count"),
    ("serve_completed", "count"),
    ("serve_failed", "count"),
    ("serve_events", "count"),
    ("serve_dispatches", "count"),
    ("serve_batch_occupancy", "ratio"),
    ("resil_sets", "count"),
    ("resil_losses_absorbed", "count"),
    ("resil_reconstructions", "count"),
    ("resil_requeued", "count"),
    ("resil_link_cuts", "count"),
    ("ctl_decisions", "count"),
    ("ctl_admitted", "count"),
    ("ctl_rejected", "count"),
    ("ctl_displaced", "count"),
    ("ctl_revived", "count"),
    ("ctl_replanned", "count"),
    ("ctl_shard_resolves", "count"),
    ("ctl_boundary_reruns", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| bad(&e))? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The fastest iteration's value of a span time. The program is
/// deterministic, so iterations of one run repeat the same work; on a
/// shared host the slow ones measure contention, not the program.
fn best(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    samples.iter().map(f).fold(f64::INFINITY, f64::min)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "ingest" => Box::new(ingest::Ingest::new(args.seed)),
        "storm" => Box::new(storm::Storm::new(args.seed)),
        "churn" => Box::new(churn::Churn::new(args.seed)),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (ingest, storm, churn)");
            std::process::exit(2);
        }
    };

    // Warm-up on two workers: fills caches, finishes lazy set-up, and
    // pins the reference report the timed iterations must reproduce.
    let warm = workload.iterate(&WorkerPool::new(2), args.trace);
    let pool = WorkerPool::sequential();
    let t0 = Instant::now();
    let mut samples = Vec::new();
    let mut peaks = Vec::new();
    while samples.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        alloc::reset_peak();
        samples.push(workload.iterate(&pool, args.trace));
        peaks.push(alloc::peak() as f64);
    }

    let attempted = samples.len();
    let failed = samples.iter().filter(|s| !s.ok).count();
    let items = samples[0].items as f64;
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        metrics.push(("inputs_ms", best(&samples, |s| s.inputs.secs) * 1e3, "ms"));
        metrics.push(("build_ms", best(&samples, |s| s.build.secs) * 1e3, "ms"));
        metrics.push(("drive_ms", best(&samples, |s| s.drive.secs) * 1e3, "ms"));
        metrics.push(("check_ms", best(&samples, |s| s.check.secs) * 1e3, "ms"));
        metrics.push(("build_allocs", samples[0].build.allocs as f64, "count"));
        metrics.push((
            "drive_allocs_per_item",
            samples[0].drive.allocs as f64 / items.max(1.0),
            "count",
        ));
        let last = samples.last().expect("at least one sample");
        for &(name, unit) in LAYER_COUNTS {
            let value = last
                .counts
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            metrics.push((name, value, unit));
        }
    } else {
        let drive = best(&samples, |s| s.drive.secs);
        metrics.push(("items_per_s", items / drive, "1/s"));
        metrics.push(("peak_heap_mb", median(peaks) / (1024.0 * 1024.0), "MB"));
        metrics.push((
            "setup_s",
            best(&samples, |s| s.inputs.secs + s.build.secs),
            "s",
        ));
    }

    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = warm.ok && failed == 0 && finite;
    eprintln!(
        "perfbench: workload={} seed={} iterations={attempted} failed={failed} items/iter={items} \
         median drive {:.3} ms, median setup {:.6} s",
        args.workload,
        args.seed,
        median(samples.iter().map(|s| s.drive.secs * 1e3).collect()),
        median(
            samples
                .iter()
                .map(|s| s.inputs.secs + s.build.secs)
                .collect()
        ),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
