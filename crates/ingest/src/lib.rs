//! # ofpc-ingest — a sharded, deterministic million-tenant front-end
//!
//! `ofpc-serve` answers how to serve multi-tenant photonic compute; this
//! crate answers how to *front* it at population scale. A million
//! tenants cannot each own an arrival process, a queue allocation, and a
//! metrics vector — so the ingest path is built from three ideas:
//!
//! 1. **Tenants by class, state by backlog** ([`tenant::TenantClass`],
//!    `ofpc_serve::SparseAdmission`): tenants are contiguous id blocks
//!    over a handful of behavioral templates, and per-tenant state
//!    exists only while a tenant has work queued.
//! 2. **Shards as owned values** (`shard::ShardState`): tenants are
//!    hash-partitioned into shards; each shard runs its own event loop
//!    (aggregate-Poisson arrivals, zero-copy PCH frame parsing, bounded
//!    admission with DRR fair drain, WDM batching, EDF dispatch) with no
//!    shared state. Epochs run through
//!    `ofpc_par::WorkerPool::scatter_gather`, whose ordered gather makes
//!    the whole run **byte-identical at any worker count**.
//! 3. **A sequential rebalance barrier** ([`rebalance`]): between
//!    epochs the driver migrates hot tenants (queued work travels with
//!    them) and re-splits each site's transponder slots between shard
//!    schedulers in proportion to measured load.
//!
//! The report ([`IngestReport`]) carries per-class fairness, typed
//! frame-rejection counts, and conservation (`parsed = completed + shed
//! + unfinished`), all pinned by golden fixtures.

pub mod rebalance;
pub mod shard;
pub mod tenant;

pub use rebalance::RebalanceConfig;
pub use tenant::TenantClass;

use ofpc_par::WorkerPool;
use ofpc_serve::{BatchPolicy, ServiceModel, SiteSpec};
use ofpc_telemetry::{track, LogHistogram, Telemetry};
use rebalance::RebalanceOutcome;
use serde::Serialize;
use shard::{ClassStats, FrameStats, ShardState};
use tenant::TenantDirectory;

/// Everything that defines one ingest run.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    pub seed: u64,
    pub shards: u32,
    pub classes: Vec<TenantClass>,
    /// Physical compute sites whose slots the shards divide.
    pub sites: Vec<SiteSpec>,
    pub model: ServiceModel,
    pub batch: BatchPolicy,
    /// Epoch length, ps. One epoch = one parallel step between
    /// rebalance barriers.
    pub epoch_ps: u64,
    pub epochs: u32,
    pub rebalance: RebalanceConfig,
    /// Corrupt every Nth synthesized frame (0 = never) to keep the
    /// typed-error path hot.
    pub corrupt_every: u64,
    /// Max requests a shard pulls from admission per pump: the
    /// `max_drain` cap of `ofpc_serve::Batcher::fill`.
    pub drain_quantum: usize,
}

/// Per-class slice of the final report.
#[derive(Debug, Clone, Serialize)]
pub struct ClassReport {
    pub name: String,
    pub tenants: u32,
    pub(crate) weight: u32,
    pub arrivals: u64,
    pub completed: u64,
    pub shed_queue_full: u64,
    pub shed_expired_queued: u64,
    pub shed_expired_serving: u64,
    pub shed_engine_failed: u64,
    pub goodput_rps: f64,
    /// Completed goodput per unit of DRR weight×population — equal
    /// values across saturated classes is what "fair" means here.
    pub goodput_per_weight: f64,
    pub p50_latency_us: Option<f64>,
    pub(crate) p99_latency_us: Option<f64>,
    pub mean_batch_size: f64,
    pub(crate) energy_j: f64,
    pub(crate) joules_per_request: f64,
}

/// Per-shard slice of the final report.
#[derive(Debug, Clone, Serialize)]
pub struct ShardReport {
    pub shard: u32,
    pub completed: u64,
    pub slots: usize,
    /// Tenants holding admission state at the horizon — the memory
    /// bound the sparse design is about.
    pub active_tenant_state: usize,
    pub migrations_in: u64,
    pub(crate) migrations_out: u64,
}

/// Frame-parser tallies (typed rejections, never panics).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FrameReport {
    pub(crate) parsed: u64,
    pub rejected_truncated: u64,
    pub rejected_bad_proto: u64,
    pub rejected_not_compute: u64,
    pub rejected_bad_primitive: u64,
    pub rejected_operand_overrun: u64,
    pub rejected_total: u64,
}

#[derive(Debug, Clone, Copy, Serialize)]
pub struct RebalanceReport {
    pub passes: u64,
    pub migrations: u64,
    pub slot_moves: u64,
    /// Tenants living away from their hash home at the horizon.
    pub displaced: u64,
}

/// The deterministic run summary (serialized into golden fixtures).
#[derive(Debug, Clone, Serialize)]
pub struct IngestReport {
    pub shards: u32,
    pub tenants: u32,
    pub(crate) horizon_ps: u64,
    pub(crate) epochs: u32,
    pub offered_rps: f64,
    pub parsed: u64,
    pub completed: u64,
    pub shed: u64,
    pub unfinished: u64,
    pub goodput_rps: f64,
    /// Distinct tenants that sent ≥1 admitted request.
    pub distinct_active_tenants: u64,
    pub p50_latency_us: Option<f64>,
    pub p99_latency_us: Option<f64>,
    pub energy_total_j: f64,
    pub frames: FrameReport,
    pub rebalance: RebalanceReport,
    pub classes: Vec<ClassReport>,
    pub shard_reports: Vec<ShardReport>,
}

/// The driver: owns the shards between epochs, runs the epoch fan-out,
/// and applies the rebalance barrier.
pub struct IngestFrontEnd {
    config: IngestConfig,
    directory: TenantDirectory,
    shards: Vec<ShardState>,
    tel: Telemetry,
    rebalance_totals: RebalanceOutcome,
    rebalance_passes: u64,
}

impl IngestFrontEnd {
    pub fn new(config: IngestConfig) -> Self {
        assert!(config.shards >= 1, "need at least one shard");
        assert!(config.epochs >= 1 && config.epoch_ps > 0, "empty horizon");
        assert!(!config.sites.is_empty(), "need at least one compute site");
        let directory = TenantDirectory::new(&config.classes, config.shards);
        let total = directory.total_tenants();

        // Partition the universe: member lists per shard per class.
        // Tenant ids ascend, so each list comes out sorted.
        let mut members: Vec<Vec<Vec<u32>>> =
            vec![vec![Vec::new(); config.classes.len()]; config.shards as usize];
        for t in 0..total {
            let s = directory.home_shard(t) as usize;
            members[s][directory.class_of(t)].push(t);
        }

        // Initial slot split: equal shares (no load signal yet), with
        // the same ≥1-slot-per-shard guarantee the rebalancer applies.
        let even_loads = vec![1u64; config.shards as usize];
        let grants = rebalance::split_slots(&config.sites, &even_loads);
        let shards: Vec<ShardState> = members
            .into_iter()
            .enumerate()
            .map(|(i, m)| {
                let mut s = ShardState::new(
                    i as u32,
                    ofpc_par::split_seed(config.seed, i as u64),
                    config.classes.clone(),
                    m,
                    total,
                    config.model.clone(),
                    &config.sites,
                    config.batch,
                    config.corrupt_every,
                    config.drain_quantum,
                );
                for (site_idx, site) in config.sites.iter().enumerate() {
                    s.set_site_slots(site.node, grants[site_idx][i]);
                }
                s
            })
            .collect();

        IngestFrontEnd {
            config,
            directory,
            shards,
            tel: Telemetry::disabled(),
            rebalance_totals: RebalanceOutcome::default(),
            rebalance_passes: 0,
        }
    }

    /// Mirror epoch spans and rebalance instants onto the `INGEST`
    /// trace track. Emission happens post-gather in shard order, so an
    /// attached telemetry handle never perturbs determinism.
    pub fn with_telemetry(mut self, tel: &Telemetry) -> Self {
        self.tel = tel.clone();
        self
    }

    /// Run all epochs on `pool` and produce the report. The report is a
    /// pure function of the config — worker count only changes how fast
    /// it arrives.
    pub fn run(mut self, pool: &WorkerPool) -> IngestReport {
        let epochs = self.config.epochs;
        for epoch in 0..epochs {
            let start_ps = u64::from(epoch) * self.config.epoch_ps;
            let end_ps = start_ps + self.config.epoch_ps;
            let shards = std::mem::take(&mut self.shards);
            self.shards = pool.scatter_gather(shards, |_i, mut s| {
                s.run_until(end_ps);
                s
            });
            for s in &self.shards {
                self.tel.span(
                    track::INGEST,
                    u64::from(s.id),
                    "ingest",
                    "epoch",
                    start_ps,
                    end_ps,
                );
            }
            let due = self.config.rebalance.every_epochs > 0
                && (epoch + 1) % self.config.rebalance.every_epochs == 0
                && epoch + 1 < epochs;
            if due {
                let directory = &mut self.directory;
                let outcome = rebalance::rebalance(
                    &mut self.shards,
                    &self.config.sites,
                    self.config.rebalance,
                    |tenant, to| directory.migrate(tenant, to),
                );
                self.rebalance_totals.migrations += outcome.migrations;
                self.rebalance_totals.slot_moves += outcome.slot_moves;
                self.rebalance_passes += 1;
                self.tel
                    .instant(track::INGEST, 0, "ingest", "rebalance", end_ps, Vec::new());
            }
            for s in &mut self.shards {
                s.end_epoch();
            }
        }
        self.report()
    }

    fn report(&self) -> IngestReport {
        let horizon_ps = u64::from(self.config.epochs) * self.config.epoch_ps;
        let duration_s = horizon_ps as f64 * 1e-12;

        // Per-class aggregation across shards, in shard order.
        let mut class_stats = vec![ClassStats::default(); self.config.classes.len()];
        let mut frames = FrameStats::default();
        let mut unfinished = 0u64;
        for s in &self.shards {
            for (acc, part) in class_stats.iter_mut().zip(s.stats.iter()) {
                acc.merge(part);
            }
            frames.merge(&s.frames);
            unfinished += s.unfinished();
        }

        let parsed: u64 = class_stats.iter().map(|c| c.arrivals).sum();
        let completed: u64 = class_stats.iter().map(|c| c.completed).sum();
        let shed: u64 = class_stats.iter().map(|c| c.shed_total()).sum();
        assert_eq!(
            parsed,
            completed + shed + unfinished,
            "request conservation violated"
        );

        // Distinct active tenants: OR the shard bitmaps (shard order).
        let words = self.shards.first().map_or(0, |s| s.active_bitmap.len());
        let mut distinct = 0u64;
        for w in 0..words {
            let mut or = 0u64;
            for s in &self.shards {
                or |= s.active_bitmap[w];
            }
            distinct += u64::from(or.count_ones());
        }

        let mut all_lat = LogHistogram::new();
        for c in &class_stats {
            all_lat.merge(&c.lat);
        }

        let classes: Vec<ClassReport> = self
            .config
            .classes
            .iter()
            .zip(class_stats.iter())
            .map(|(c, s)| {
                let goodput = s.completed as f64 / duration_s;
                ClassReport {
                    name: c.name.clone(),
                    tenants: c.population,
                    weight: c.weight,
                    arrivals: s.arrivals,
                    completed: s.completed,
                    shed_queue_full: s.shed_queue_full,
                    shed_expired_queued: s.shed_expired_queued,
                    shed_expired_serving: s.shed_expired_serving,
                    shed_engine_failed: s.shed_engine_failed,
                    goodput_rps: goodput,
                    goodput_per_weight: goodput / (f64::from(c.weight) * f64::from(c.population)),
                    p50_latency_us: s.lat.percentile(0.50).map(|v| v as f64 / 1e6),
                    p99_latency_us: s.lat.percentile(0.99).map(|v| v as f64 / 1e6),
                    mean_batch_size: if s.completed > 0 {
                        s.batch_size_sum as f64 / s.completed as f64
                    } else {
                        0.0
                    },
                    energy_j: s.energy_j,
                    joules_per_request: if s.completed > 0 {
                        s.energy_j / s.completed as f64
                    } else {
                        0.0
                    },
                }
            })
            .collect();

        let shard_reports: Vec<ShardReport> = self
            .shards
            .iter()
            .map(|s| ShardReport {
                shard: s.id,
                completed: s.stats.iter().map(|c| c.completed).sum(),
                slots: s.slots_at(),
                active_tenant_state: s.active_tenant_state(),
                migrations_in: s.migrations_in,
                migrations_out: s.migrations_out,
            })
            .collect();

        IngestReport {
            shards: self.config.shards,
            tenants: self.directory.total_tenants(),
            horizon_ps,
            epochs: self.config.epochs,
            offered_rps: parsed as f64 / duration_s,
            parsed,
            completed,
            shed,
            unfinished,
            goodput_rps: completed as f64 / duration_s,
            distinct_active_tenants: distinct,
            p50_latency_us: all_lat.percentile(0.50).map(|v| v as f64 / 1e6),
            p99_latency_us: all_lat.percentile(0.99).map(|v| v as f64 / 1e6),
            energy_total_j: class_stats.iter().map(|c| c.energy_j).sum(),
            frames: FrameReport {
                parsed: frames.parsed,
                rejected_truncated: frames.rejected_truncated,
                rejected_bad_proto: frames.rejected_bad_proto,
                rejected_not_compute: frames.rejected_not_compute,
                rejected_bad_primitive: frames.rejected_bad_primitive,
                rejected_operand_overrun: frames.rejected_operand_overrun,
                rejected_total: frames.rejected_total(),
            },
            rebalance: RebalanceReport {
                passes: self.rebalance_passes,
                migrations: self.rebalance_totals.migrations,
                slot_moves: self.rebalance_totals.slot_moves,
                displaced: self.directory.displaced() as u64,
            },
            classes,
            shard_reports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofpc_engine::Primitive;
    use ofpc_net::NodeId;

    fn model() -> ServiceModel {
        ServiceModel {
            line_rate_bps: 100e9,
            wdm_channels: 4,
            engine_settle_ps: 10_000,
            reconfig_fixed_ps: 2_000_000,
            reconfig_per_element_ps: 10_000,
            readout_per_request_ps: 800,
            laser_w: 0.05,
            dac_sample_j: 1e-12,
            mac_j: 1e-14,
            adc_result_j: 1e-12,
        }
    }

    fn config(shards: u32) -> IngestConfig {
        IngestConfig {
            seed: 2121,
            shards,
            classes: vec![
                TenantClass {
                    name: "heavy".into(),
                    population: 8,
                    weight: 4,
                    queue_capacity: 64,
                    mean_rate_rps: 20_000.0,
                    primitive: Primitive::VectorDotProduct,
                    operand_len: 256,
                    deadline_ps: 50_000_000,
                },
                TenantClass {
                    name: "tail".into(),
                    population: 2_000,
                    weight: 1,
                    queue_capacity: 8,
                    mean_rate_rps: 50.0,
                    primitive: Primitive::PatternMatching,
                    operand_len: 64,
                    deadline_ps: 80_000_000,
                },
            ],
            sites: vec![
                SiteSpec {
                    node: NodeId(1),
                    slots: 8,
                    access_ps: 50_000,
                },
                SiteSpec {
                    node: NodeId(2),
                    slots: 4,
                    access_ps: 150_000,
                },
            ],
            model: model(),
            batch: BatchPolicy {
                max_batch: 4,
                max_wait_ps: 5_000_000,
            },
            epoch_ps: 200_000_000,
            epochs: 3,
            rebalance: RebalanceConfig::default(),
            corrupt_every: 7,
            drain_quantum: 64,
        }
    }

    fn run_json(workers: usize) -> String {
        let pool = if workers <= 1 {
            WorkerPool::sequential()
        } else {
            WorkerPool::new(workers)
        };
        let report = IngestFrontEnd::new(config(4)).run(&pool);
        serde_json::to_string_pretty(&report).expect("report serializes")
    }

    #[test]
    fn report_is_byte_identical_across_worker_counts() {
        let one = run_json(1);
        assert_eq!(one, run_json(2));
        assert_eq!(one, run_json(8));
    }

    #[test]
    fn conservation_holds_and_corruption_is_typed() {
        let report = IngestFrontEnd::new(config(4)).run(&WorkerPool::sequential());
        // report() asserts parsed == completed + shed + unfinished.
        assert!(report.parsed > 0, "no traffic generated");
        assert!(report.completed > 0, "nothing served");
        assert!(
            report.frames.rejected_total > 0,
            "corrupt_every should exercise the typed-error path"
        );
        assert_eq!(
            report.frames.rejected_total,
            report.frames.rejected_truncated
                + report.frames.rejected_bad_proto
                + report.frames.rejected_not_compute
                + report.frames.rejected_bad_primitive
                + report.frames.rejected_operand_overrun
        );
        assert!(report.distinct_active_tenants > 0);
        // The memory bound: state held is for backlogged tenants only,
        // a sliver of the 2008-tenant universe.
        let held: usize = report
            .shard_reports
            .iter()
            .map(|s| s.active_tenant_state)
            .sum();
        assert!(
            held as u64 <= report.unfinished + report.shards as u64,
            "admission state ({held}) outgrew the backlog ({})",
            report.unfinished
        );
    }

    #[test]
    fn rebalance_migrates_and_conserves_slots() {
        let report = IngestFrontEnd::new(config(4)).run(&WorkerPool::sequential());
        assert_eq!(report.rebalance.passes, 2, "one pass between each epoch");
        assert!(report.rebalance.migrations > 0, "skew never corrected");
        let total_slots: usize = report.shard_reports.iter().map(|s| s.slots).sum();
        assert_eq!(total_slots, 12, "slot re-split must conserve inventory");
        let migrations_in: u64 = report.shard_reports.iter().map(|s| s.migrations_in).sum();
        let migrations_out: u64 = report.shard_reports.iter().map(|s| s.migrations_out).sum();
        assert_eq!(migrations_in, report.rebalance.migrations);
        assert_eq!(migrations_out, report.rebalance.migrations);
        // A tenant can migrate back home (override dropped), so the
        // displaced set is bounded by — not equal to — the move count.
        assert!(report.rebalance.displaced <= report.rebalance.migrations);
    }

    #[test]
    fn single_shard_run_needs_no_rebalance() {
        let mut c = config(1);
        c.epochs = 2;
        let report = IngestFrontEnd::new(c).run(&WorkerPool::sequential());
        assert_eq!(report.rebalance.migrations, 0);
        assert_eq!(report.shard_reports.len(), 1);
        assert_eq!(report.shard_reports[0].slots, 12);
    }
}
