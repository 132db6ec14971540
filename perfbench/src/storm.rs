//! `storm`: the serving runtime under a seeded storm of fiber cuts.
//!
//! A hub-and-spoke metro (one front end, five compute sites, each on
//! its own 10 km span) serves four bursty MMPP tenants whose bursts
//! exceed plant capacity. A storm cuts one span per burst and splices
//! it before the next. The same storm and arrivals are served three
//! times: unprotected (the reactive retry path), replicated across two
//! disjoint paths, and XOR-parity coded over five paths. Single-cut
//! storms are what the protected modes are built to absorb, so both
//! must finish every request photonically.

use ofpc_faults::{generate_storm, FaultPlan, StormSpec};
use ofpc_net::{NodeId, Topology};
use ofpc_par::WorkerPool;
use ofpc_photonics::SimRng;
use ofpc_resil::{MultipathPlan, RedundancyMode};
use ofpc_serve::{
    ArrivalSpec, BatchPolicy, ResilSummary, RetryPolicy, ServeConfig, ServeReport, ServeRuntime,
    ServiceModel, SiteSpec, TenantSpec,
};
use ofpc_telemetry::Telemetry;
use ofpc_transponder::compute::ComputeTransponderConfig;

use crate::{matches_reference, timed, Sample, Workload};

/// Arrivals are generated over this horizon (simulated).
const HORIZON_PS: u64 = 8_000_000_000;
/// One storm burst per this much simulated time.
const BURST_EVERY_PS: u64 = 500_000_000;
const SPOKES: usize = 5;
/// Independent bursty tenants; many short bursts keep the offered work
/// per iteration nearly the same from seed to seed.
const TENANTS: usize = 4;
/// 200 µs against a ~98 µs two-way span delay: first-try service makes
/// it, a second pass after a mid-flight loss does not.
const DEADLINE_PS: u64 = 200_000_000;

const MODES: [RedundancyMode; 3] = [
    RedundancyMode::Unprotected,
    RedundancyMode::Replica,
    RedundancyMode::XorParity { data_groups: 4 },
];

pub struct Storm {
    seed: u64,
    reference: Option<String>,
}

/// Everything one iteration serves, generated from the seed.
struct Inputs {
    config: ServeConfig,
    plan: MultipathPlan,
    sites: Vec<SiteSpec>,
    storm: FaultPlan,
}

impl Storm {
    pub fn new(seed: u64) -> Self {
        Storm {
            seed: ofpc_par::split_seed(seed, 0x5702A),
            reference: None,
        }
    }

    fn inputs(&self) -> Inputs {
        let mut topo = Topology::new();
        let fe = topo.add_node("fe");
        let nodes: Vec<NodeId> = (0..SPOKES)
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
            bursts: (HORIZON_PS / BURST_EVERY_PS) as usize,
            cuts_per_burst: 1,
            burst_jitter_ps: 30_000_000,
            cut_down_ps: 150_000_000,
            engines_per_burst: 0,
            engine_down_ps: 0,
            drift_sigmas: Vec::new(),
        };
        let mut rng = SimRng::seed_from_u64(self.seed).derive("storm");
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
            deadline_ps: DEADLINE_PS,
        };
        let config = ServeConfig {
            seed: self.seed,
            horizon_ps: HORIZON_PS,
            drain_grace_ps: 1_000_000_000,
            batch: BatchPolicy {
                max_batch: 8,
                max_wait_ps: 20_000_000,
            },
            tenants: (0..TENANTS).map(tenant).collect(),
            verify_every: 0,
        };
        Inputs {
            config,
            plan,
            sites,
            storm,
        }
    }
}

fn failed(r: &ServeReport) -> u64 {
    r.shed + r.degraded + r.unfinished
}

/// Conservation and settlement for every mode; zero lost work for the
/// protected ones.
fn holds(mode: &RedundancyMode, r: &ServeReport, s: &ResilSummary) -> bool {
    let conserved = r.arrivals == r.completed + failed(r);
    let protected = !mode.is_protected() || (failed(r) == 0 && s.link_cuts_seen > 0);
    r.arrivals > 0 && conserved && s.unsettled_sets == 0 && protected
}

impl Workload for Storm {
    fn iterate(&mut self, _pool: &WorkerPool, traced: bool) -> Sample {
        let (inputs, inputs_span) = timed(|| self.inputs());
        // One registry per mode when traced, read back for the counters.
        let tels: Vec<Telemetry> = if traced {
            MODES.iter().map(|_| Telemetry::enabled()).collect()
        } else {
            Vec::new()
        };
        let (runtimes, build) = timed(|| {
            let model = ServiceModel::from_transponder(&ComputeTransponderConfig::ideal(), 1);
            let retry = RetryPolicy {
                base_ps: 100_000_000,
                max_backoff_ps: 1_000_000_000,
                max_retries: 4,
            };
            MODES
                .iter()
                .enumerate()
                .map(|(i, mode)| {
                    let policies = vec![*mode; inputs.config.tenants.len()];
                    let rt = ServeRuntime::new(
                        inputs.config.clone(),
                        model.clone(),
                        inputs.sites.clone(),
                    )
                    .with_redundancy(&policies, inputs.plan.clone())
                    .with_storm(&inputs.storm)
                    .with_retry_policy(retry);
                    match tels.get(i) {
                        Some(tel) => rt.with_telemetry(tel),
                        None => rt,
                    }
                })
                .collect::<Vec<_>>()
        });
        let (runs, drive) = timed(|| {
            runtimes
                .into_iter()
                .map(ServeRuntime::run_with_resil)
                .collect::<Vec<_>>()
        });
        let (ok, check) = timed(|| {
            let all_hold = MODES
                .iter()
                .zip(&runs)
                .all(|(mode, (r, s))| holds(mode, r, s));
            let digest = serde_json::to_string(&runs).expect("serve reports serialize");
            all_hold & matches_reference(&mut self.reference, digest)
        });

        let sum = |f: &dyn Fn(&ServeReport, &ResilSummary) -> u64| -> f64 {
            runs.iter().map(|(r, s)| f(r, s)).sum::<u64>() as f64
        };
        let counter = |name: &str| -> f64 {
            tels.iter()
                .filter_map(|t| t.snapshot().counter(name, &Vec::new()))
                .sum::<u64>() as f64
        };
        let batches = sum(&|r, _| r.batches);
        let occupancy: f64 = runs
            .iter()
            .map(|(r, _)| r.mean_batch_occupancy * r.batches as f64)
            .sum();
        Sample {
            inputs: inputs_span,
            build,
            drive,
            check,
            items: sum(&|r, _| r.arrivals) as u64,
            ok,
            counts: vec![
                ("serve_arrivals", sum(&|r, _| r.arrivals)),
                ("serve_completed", sum(&|r, _| r.completed)),
                ("serve_failed", sum(&|r, _| failed(r))),
                ("serve_events", counter("serve_events_total")),
                ("serve_dispatches", counter("serve_dispatches_total")),
                ("serve_batch_occupancy", occupancy / batches.max(1.0)),
                ("resil_sets", sum(&|_, s| s.replica_sets + s.parity_sets)),
                ("resil_losses_absorbed", sum(&|_, s| s.losses_absorbed)),
                ("resil_reconstructions", sum(&|_, s| s.reconstructions)),
                ("resil_requeued", sum(&|_, s| s.requeued_requests)),
                ("resil_link_cuts", sum(&|_, s| s.link_cuts_seen)),
            ],
        }
    }
}
