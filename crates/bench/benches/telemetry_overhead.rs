//! Bench: cost of the *disabled* telemetry handle on the
//! serving hot path.
//!
//! The whole point of `ofpc_telemetry::Telemetry` being an
//! `Option<Arc<_>>` is that a disconnected handle costs one branch per
//! hook — a serving run with telemetry disabled must be
//! indistinguishable from one that never heard of telemetry. Besides
//! printing per-variant times, this bench self-measures and **fails**
//! if disabled telemetry costs real time.
//!
//! # The gate (and why it is shaped this way)
//!
//! The old gate compared one pass of medians against `base·1.02 + IQR`
//! and flaked: on a busy 1-core CI box a single noisy window skews both
//! the median and the IQR of the same pass, and an absolute time band
//! derived from that one pass has no defense against it. The current
//! gate is a **ratio of medians over [`REPS`] independent
//! repetitions**:
//!
//! 1. each repetition interleaves [`TRIALS_PER_REP`] trials of both
//!    variants (alternating order, so slow clock drift cancels) and
//!    reduces each variant to its within-repetition median;
//! 2. the repetition's score is the dimensionless ratio
//!    `median(disabled) / median(baseline)`;
//! 3. the gate fires only if the **median of the repetition ratios**
//!    exceeds [`MAX_RATIO`].
//!
//! A transient stall now has to corrupt a majority of repetitions —
//! each separated by full scheduling quanta — before the gate misfires,
//! while a genuine per-hook cost shifts every repetition's ratio the
//! same way and is still caught. The 5% headroom is far above the
//! per-hook branch cost observed on an idle machine (<0.5%).

use ofpc_bench::gate::{per_call, report};
use ofpc_engine::Primitive;
use ofpc_net::NodeId;
use ofpc_serve::{
    ArrivalSpec, BatchPolicy, ServeConfig, ServeRuntime, ServiceModel, SiteSpec, TenantSpec,
};
use ofpc_telemetry::Telemetry;
use ofpc_transponder::compute::ComputeTransponderConfig;
use std::hint::black_box;
use std::time::Instant;

const HORIZON_PS: u64 = 500_000_000; // 0.5 ms of virtual time
const RATE_RPS: f64 = 8_000_000.0;
/// Independent repetitions; the gate takes the median of their ratios.
const REPS: usize = 5;
/// Interleaved trials per variant within one repetition.
const TRIALS_PER_REP: usize = 5;
/// Fail if the median over repetitions of
/// `median(disabled) / median(baseline)` exceeds this.
const MAX_RATIO: f64 = 1.05;

fn config() -> ServeConfig {
    ServeConfig {
        seed: 14,
        horizon_ps: HORIZON_PS,
        drain_grace_ps: 200_000_000,
        batch: BatchPolicy {
            max_batch: 8,
            max_wait_ps: 5_000_000,
        },
        tenants: vec![
            TenantSpec {
                name: "steady".to_string(),
                weight: 3,
                queue_capacity: 96,
                arrivals: ArrivalSpec::Poisson {
                    rate_rps: RATE_RPS / 2.0,
                },
                primitive: Primitive::VectorDotProduct,
                operand_len: 2048,
                deadline_ps: 1_000_000_000,
            },
            TenantSpec {
                name: "bursty".to_string(),
                weight: 1,
                queue_capacity: 32,
                arrivals: ArrivalSpec::Poisson {
                    rate_rps: RATE_RPS / 2.0,
                },
                primitive: Primitive::VectorDotProduct,
                operand_len: 2048,
                deadline_ps: 1_000_000_000,
            },
        ],
        verify_every: 0,
    }
}

/// `telemetry: None` builds the runtime bare; `Some(tel)` threads the
/// handle through every hook (a disabled handle must cost ~nothing).
fn runtime(telemetry: Option<&Telemetry>) -> ServeRuntime {
    let model = ServiceModel::from_transponder(&ComputeTransponderConfig::ideal(), 4);
    let sites = vec![
        SiteSpec {
            node: NodeId(1),
            slots: 1,
            access_ps: 100_000,
        },
        SiteSpec {
            node: NodeId(2),
            slots: 1,
            access_ps: 200_000,
        },
    ];
    let rt = ServeRuntime::new(config(), model, sites);
    match telemetry {
        Some(tel) => rt.with_telemetry(tel),
        None => rt,
    }
}

fn time_run(telemetry: Option<&Telemetry>) -> f64 {
    let rt = runtime(telemetry);
    let t0 = Instant::now();
    black_box(rt.run());
    t0.elapsed().as_secs_f64()
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// One repetition: interleave [`TRIALS_PER_REP`] trials of each variant
/// and return `median(disabled) / median(baseline)`.
fn overhead_ratio(disabled: &Telemetry) -> f64 {
    let mut base = Vec::with_capacity(TRIALS_PER_REP);
    let mut dis = Vec::with_capacity(TRIALS_PER_REP);
    for trial in 0..TRIALS_PER_REP {
        // Alternate order so slow-drift bias cancels.
        if trial % 2 == 0 {
            base.push(time_run(None));
            dis.push(time_run(Some(disabled)));
        } else {
            dis.push(time_run(Some(disabled)));
            base.push(time_run(None));
        }
    }
    median(&mut dis) / median(&mut base)
}

/// The asserting half: median over [`REPS`] repetitions of the
/// per-repetition ratio of medians (see the module header for why).
fn assert_disabled_telemetry_is_free() {
    let disabled = Telemetry::disabled();
    // Warm both paths (first run pays allocator and page-cache costs).
    time_run(None);
    time_run(Some(&disabled));
    let mut ratios: Vec<f64> = (0..REPS).map(|_| overhead_ratio(&disabled)).collect();
    let m = median(&mut ratios);
    println!(
        "telemetry_overhead: per-repetition ratios {:?} -> median {m:.4} (gate {MAX_RATIO})",
        ratios
            .iter()
            .map(|r| (r * 1e4).round() / 1e4)
            .collect::<Vec<_>>(),
    );
    assert!(
        m <= MAX_RATIO,
        "disabled telemetry must be within {:.0}% of the bare serve path: \
         median ratio {m:.4} over {REPS} repetitions",
        (MAX_RATIO - 1.0) * 100.0,
    );
}

fn main() {
    let arrivals = runtime(None).run().arrivals;
    let disabled = Telemetry::disabled();
    let baseline = per_call(|| {
        black_box(runtime(None).run());
    });
    report(
        "telemetry_overhead/serve/baseline",
        baseline,
        Some(arrivals),
    );
    let off = per_call(|| {
        black_box(runtime(Some(&disabled)).run());
    });
    report("telemetry_overhead/serve/disabled", off, Some(arrivals));
    // Enabled telemetry is allowed to cost (it records every request's
    // trace tree); measured here so the overhead stays visible. A fresh
    // handle per run keeps the trace buffer from compounding across
    // iterations.
    let on = per_call(|| {
        let enabled = Telemetry::enabled();
        black_box(runtime(Some(&enabled)).run());
    });
    report("telemetry_overhead/serve/enabled", on, Some(arrivals));
    assert_disabled_telemetry_is_free();
}
