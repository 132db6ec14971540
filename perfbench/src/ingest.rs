//! `ingest`: the sharded front end fronting 1,000,064 tenants.
//!
//! Three tenant classes (64 whales, 50k steady subscribers, 950k
//! long-tail users) offer ≈1.02M req/s across 8 shards against 8
//! transponder slots, so the run is overloaded: bounded queues shed and
//! DRR keeps the shedding on the whale class. Every 997th frame is
//! corrupted to keep the typed-error path of the parser hot, and a
//! rebalance barrier runs between epochs.

use ofpc_engine::Primitive;
use ofpc_ingest::{IngestConfig, IngestFrontEnd, IngestReport, RebalanceConfig, TenantClass};
use ofpc_net::NodeId;
use ofpc_par::WorkerPool;
use ofpc_serve::{BatchPolicy, ServiceModel, SiteSpec};
use ofpc_telemetry::Telemetry;

use crate::{matches_reference, timed, Sample, Workload};

/// Epochs per scenario; a rebalance pass runs between each pair.
const EPOCHS: u32 = 3;
/// Epoch length: 10 ms of simulated time (≈10k frames per epoch).
const EPOCH_PS: u64 = 10_000_000_000;
/// Total transponder slots across both sites.
const SLOTS: usize = 8;

pub struct Ingest {
    seed: u64,
    reference: Option<String>,
}

impl Ingest {
    pub fn new(seed: u64) -> Self {
        Ingest {
            seed: ofpc_par::split_seed(seed, 0x1A6E57),
            reference: None,
        }
    }

    fn config(&self) -> IngestConfig {
        let class = |name: &str, population, weight, queue_capacity, rate, primitive, len| {
            TenantClass {
                name: name.into(),
                population,
                weight,
                queue_capacity,
                mean_rate_rps: rate,
                primitive,
                operand_len: len,
                // Deadlines far past the horizon: every shed is
                // bounded-queue backpressure, the mechanism under test.
                deadline_ps: 1_000_000_000_000,
            }
        };
        IngestConfig {
            seed: self.seed,
            shards: 8,
            classes: vec![
                class(
                    "whale",
                    64,
                    8,
                    32,
                    4_000.0,
                    Primitive::VectorDotProduct,
                    1024,
                ),
                class(
                    "steady",
                    50_000,
                    2,
                    16,
                    12.0,
                    Primitive::PatternMatching,
                    512,
                ),
                class(
                    "tail",
                    950_000,
                    1,
                    8,
                    0.17,
                    Primitive::NonlinearFunction,
                    256,
                ),
            ],
            sites: vec![
                SiteSpec {
                    node: NodeId(1),
                    slots: 5,
                    access_ps: 25_000,
                },
                SiteSpec {
                    node: NodeId(2),
                    slots: SLOTS - 5,
                    access_ps: 100_000,
                },
            ],
            model: ServiceModel {
                line_rate_bps: 100e9,
                wdm_channels: 8,
                engine_settle_ps: 100_000_000,
                reconfig_fixed_ps: 2_000_000,
                reconfig_per_element_ps: 10_000,
                readout_per_request_ps: 800,
                laser_w: 0.05,
                dac_sample_j: 1e-12,
                mac_j: 1e-14,
                adc_result_j: 1e-12,
            },
            batch: BatchPolicy {
                max_batch: 8,
                max_wait_ps: 50_000_000,
            },
            epoch_ps: EPOCH_PS,
            epochs: EPOCHS,
            rebalance: RebalanceConfig {
                every_epochs: 1,
                max_migrations: 16,
            },
            corrupt_every: 997,
            drain_quantum: 256,
        }
    }
}

/// The invariants every report must satisfy, whatever the seed.
fn report_holds(r: &IngestReport) -> bool {
    let f = &r.frames;
    let typed = f.rejected_truncated
        + f.rejected_bad_proto
        + f.rejected_not_compute
        + f.rejected_bad_primitive
        + f.rejected_operand_overrun;
    let slots: usize = r.shard_reports.iter().map(|s| s.slots).sum();
    let moved_in: u64 = r.shard_reports.iter().map(|s| s.migrations_in).sum();
    // Fairness: the overload lands on the class that overdrives its
    // queues; steady and tail users shed nothing.
    let fair = r
        .classes
        .iter()
        .all(|c| c.name == "whale" || c.shed_queue_full == 0);
    r.tenants == 1_000_064
        && r.parsed == r.completed + r.shed + r.unfinished
        && r.completed > 0
        && r.shed > 0
        && f.rejected_total == typed
        && f.rejected_total > 0
        && fair
        && slots == SLOTS
        && r.rebalance.passes == u64::from(EPOCHS - 1)
        && moved_in == r.rebalance.migrations
}

impl Workload for Ingest {
    fn iterate(&mut self, pool: &WorkerPool, traced: bool) -> Sample {
        let (config, inputs) = timed(|| self.config());
        let (front_end, build) = timed(|| {
            let fe = IngestFrontEnd::new(config);
            if traced {
                fe.with_telemetry(&Telemetry::enabled())
            } else {
                fe
            }
        });
        let (report, drive) = timed(|| front_end.run(pool));
        let (ok, check) = timed(|| {
            let digest = serde_json::to_string(&report).expect("ingest report serializes");
            report_holds(&report) & matches_reference(&mut self.reference, digest)
        });
        let batch_sum: f64 = report
            .classes
            .iter()
            .map(|c| c.mean_batch_size * c.completed as f64)
            .sum();
        Sample {
            inputs,
            build,
            drive,
            check,
            items: report.parsed + report.frames.rejected_total,
            ok,
            counts: vec![
                (
                    "ingest_frames",
                    (report.parsed + report.frames.rejected_total) as f64,
                ),
                (
                    "ingest_frames_rejected",
                    report.frames.rejected_total as f64,
                ),
                ("ingest_completed", report.completed as f64),
                ("ingest_shed", report.shed as f64),
                (
                    "ingest_batch_mean",
                    batch_sum / report.completed.max(1) as f64,
                ),
                ("ingest_migrations", report.rebalance.migrations as f64),
                ("ingest_slot_moves", report.rebalance.slot_moves as f64),
                (
                    "ingest_tenant_state",
                    report
                        .shard_reports
                        .iter()
                        .map(|s| s.active_tenant_state as f64)
                        .sum(),
                ),
            ],
        }
    }
}
