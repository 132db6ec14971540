//! E21 harness core: the sharded million-tenant ingest front-end
//! (ofpc-ingest) driven at population scale.
//!
//! The full experiment ([`expt`]) fronts **1,000,064 tenants**
//! offering ≥10⁶ req/s at a deliberately under-provisioned transponder
//! fleet, and checks that the overload lands where the paper's serving
//! story says it must: bounded queues shed the abusive heavy-hitter
//! class while DRR keeps completed goodput per unit weight level across
//! saturated classes. [`e21_mini`] is the same machinery on a
//! 5,008-tenant toy, pinned as a golden fixture and replayed across
//! worker counts by the differential tests. Both share one config
//! family; the report bytes are a pure function of it on any
//! `OFPC_WORKERS`.

use crate::table::{versioned_pretty, Table};
use ofpc_engine::Primitive;
use ofpc_ingest::{IngestConfig, IngestFrontEnd, IngestReport, RebalanceConfig, TenantClass};
use ofpc_net::NodeId;
use ofpc_par::WorkerPool;
use ofpc_serve::{BatchClass, BatchPolicy, ServiceModel, SiteSpec};

/// The service model both E21 instances share: a 100 Gbps line with 8
/// WDM channels per transponder slot. The thermo-optic engine settle
/// (100 µs per batch) dominates service time, which is what makes the
/// fleet a scarce resource at millions of offered req/s — and what
/// makes WDM batching worth it, since a full batch amortizes one settle
/// over `max_batch` requests.
fn model() -> ServiceModel {
    ServiceModel {
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
    }
}

/// The headline instance: 1,000,064 tenants in three classes —
/// 64 whales, 50k steady subscribers, 950k long-tail users — offering
/// ≈1.02M req/s against 8 transponder slots. Deadlines are 1 s, far
/// past the 100 ms horizon, so every shed is bounded-queue backpressure
/// rather than deadline expiry: exactly the fairness mechanism under
/// test.
pub fn full_config() -> IngestConfig {
    IngestConfig {
        seed: 21,
        shards: 8,
        classes: vec![
            TenantClass {
                name: "whale".into(),
                population: 64,
                weight: 8,
                queue_capacity: 128,
                mean_rate_rps: 4_000.0,
                primitive: Primitive::VectorDotProduct,
                operand_len: 1024,
                deadline_ps: 1_000_000_000_000,
            },
            TenantClass {
                name: "steady".into(),
                population: 50_000,
                weight: 2,
                queue_capacity: 16,
                mean_rate_rps: 12.0,
                primitive: Primitive::PatternMatching,
                operand_len: 512,
                deadline_ps: 1_000_000_000_000,
            },
            TenantClass {
                name: "tail".into(),
                population: 950_000,
                weight: 1,
                queue_capacity: 8,
                mean_rate_rps: 0.17,
                primitive: Primitive::NonlinearFunction,
                operand_len: 256,
                deadline_ps: 1_000_000_000_000,
            },
        ],
        sites: vec![
            SiteSpec {
                node: NodeId(1),
                slots: 5,
                access_ps: 25_000,
            },
            SiteSpec {
                node: NodeId(2),
                slots: 3,
                access_ps: 100_000,
            },
        ],
        model: model(),
        batch: BatchPolicy {
            max_batch: 8,
            max_wait_ps: 50_000_000,
        },
        epoch_ps: 20_000_000_000,
        epochs: 5,
        rebalance: RebalanceConfig {
            every_epochs: 1,
            max_migrations: 16,
        },
        corrupt_every: 997,
        drain_quantum: 256,
    }
}

/// The golden-fixture miniature: 5,008 tenants over 4 shards and 5
/// slots, 6 ms horizon, same class shape (whale / steady / tail) so the
/// fixture pins the identical code paths — overload shedding, typed
/// frame rejections, and two rebalance passes.
pub fn mini_config() -> IngestConfig {
    IngestConfig {
        seed: 21,
        shards: 4,
        classes: vec![
            TenantClass {
                name: "whale".into(),
                population: 8,
                weight: 8,
                queue_capacity: 64,
                mean_rate_rps: 50_000.0,
                primitive: Primitive::VectorDotProduct,
                operand_len: 256,
                deadline_ps: 20_000_000_000,
            },
            TenantClass {
                name: "steady".into(),
                population: 1_000,
                weight: 2,
                queue_capacity: 16,
                mean_rate_rps: 150.0,
                primitive: Primitive::PatternMatching,
                operand_len: 128,
                deadline_ps: 20_000_000_000,
            },
            TenantClass {
                name: "tail".into(),
                population: 4_000,
                weight: 1,
                queue_capacity: 8,
                mean_rate_rps: 25.0,
                primitive: Primitive::NonlinearFunction,
                operand_len: 64,
                deadline_ps: 20_000_000_000,
            },
        ],
        sites: vec![
            SiteSpec {
                node: NodeId(1),
                slots: 3,
                access_ps: 25_000,
            },
            SiteSpec {
                node: NodeId(2),
                slots: 2,
                access_ps: 100_000,
            },
        ],
        model: model(),
        batch: BatchPolicy {
            max_batch: 4,
            max_wait_ps: 50_000_000,
        },
        epoch_ps: 2_000_000_000,
        epochs: 3,
        rebalance: RebalanceConfig {
            every_epochs: 1,
            max_migrations: 8,
        },
        corrupt_every: 53,
        drain_quantum: 64,
    }
}

/// The fleet's goodput ceiling, req/s: every slot serving full batches
/// of the fastest class with its weights already loaded.
pub fn slot_capacity_rps(config: &IngestConfig) -> f64 {
    let slots: usize = config.sites.iter().map(|s| s.slots).sum();
    let n = config.batch.max_batch;
    let service_ps = config
        .classes
        .iter()
        .map(|c| {
            let class = BatchClass {
                primitive: c.primitive,
                operand_len: u32::from(c.operand_len),
            };
            config.model.batch_service(class, n, Some(class)).0
        })
        .min()
        .expect("at least one tenant class");
    (slots * n) as f64 / (service_ps as f64 * 1e-12)
}

/// Run an E21 instance. The report is a deterministic function of the
/// config; `pool` only changes how fast it arrives.
pub fn run_e21(config: IngestConfig, pool: &WorkerPool) -> IngestReport {
    IngestFrontEnd::new(config).run(pool)
}

/// E21: the full million-tenant run. Claims checked here, beyond the
/// differential suite in `tests/ingest.rs`:
///
/// * ≥10⁶ tenants and ≥10⁶ req/s offered over the run;
/// * overload lands entirely on the abusive class: every shed is a
///   whale bounded-queue rejection, steady/tail shed nothing;
/// * weighted fairness: whale goodput-per-weight stays ≥ steady's
///   while whale *completion ratio* stays below steady's;
/// * per-tenant admission state stays bounded by the backlog, not the
///   population;
/// * the fleet stays busy: goodput is at least 90% of
///   [`slot_capacity_rps`].
pub fn expt(pool: &WorkerPool) -> String {
    let config = full_config();
    let capacity = slot_capacity_rps(&config);
    let tenants: u32 = config.classes.iter().map(|c| c.population).sum();
    println!(
        "E21: sharded ingest front-end — {} tenants / {} shards, {} epochs x {} ms, {} workers\n",
        tenants,
        config.shards,
        config.epochs,
        config.epoch_ps / 1_000_000_000,
        pool.workers()
    );

    let report = run_e21(config, pool);

    let mut t = Table::new("E21 run summary", &["metric", "value"]);
    for (k, v) in [
        ("tenants", report.tenants.to_string()),
        ("shards", report.shards.to_string()),
        ("offered req/s", format!("{:.0}", report.offered_rps)),
        ("frames parsed", report.parsed.to_string()),
        (
            "frames rejected (typed)",
            report.frames.rejected_total.to_string(),
        ),
        ("completed", report.completed.to_string()),
        ("shed", report.shed.to_string()),
        ("unfinished at horizon", report.unfinished.to_string()),
        ("goodput req/s", format!("{:.0}", report.goodput_rps)),
        ("slot capacity req/s", format!("{capacity:.0}")),
        (
            "distinct active tenants",
            report.distinct_active_tenants.to_string(),
        ),
        (
            "p50 latency µs",
            format!("{:.1}", report.p50_latency_us.unwrap_or(0.0)),
        ),
        (
            "p99 latency µs",
            format!("{:.1}", report.p99_latency_us.unwrap_or(0.0)),
        ),
        ("energy J", format!("{:.4}", report.energy_total_j)),
        ("rebalance passes", report.rebalance.passes.to_string()),
        ("tenant migrations", report.rebalance.migrations.to_string()),
        ("slot moves", report.rebalance.slot_moves.to_string()),
    ] {
        t.row(&[k.to_string(), v]);
    }
    t.print();

    let mut ct = Table::new(
        "E21 per-class fairness",
        &[
            "class",
            "tenants",
            "arrivals",
            "completed",
            "shed",
            "goodput/s",
            "per-weight",
            "p50 µs",
        ],
    );
    for c in &report.classes {
        ct.row(&[
            c.name.clone(),
            c.tenants.to_string(),
            c.arrivals.to_string(),
            c.completed.to_string(),
            (c.shed_queue_full
                + c.shed_expired_queued
                + c.shed_expired_serving
                + c.shed_engine_failed)
                .to_string(),
            format!("{:.0}", c.goodput_rps),
            format!("{:.2}", c.goodput_per_weight),
            format!("{:.1}", c.p50_latency_us.unwrap_or(0.0)),
        ]);
    }
    ct.print();

    let class = |name: &str| {
        report
            .classes
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("missing class {name}"))
    };
    let whale = class("whale");
    let steady = class("steady");
    let tail = class("tail");
    let completion = |c: &ofpc_ingest::ClassReport| c.completed as f64 / c.arrivals as f64;

    assert!(report.shed > 0, "E21 must be overloaded enough to shed");
    assert!(
        report.frames.rejected_total > 0,
        "corrupt frames must exercise the typed-error path"
    );
    // Backpressure lands on the class that overdrives its queues…
    assert_eq!(
        whale.shed_queue_full, report.shed,
        "all shedding should be whale bounded-queue backpressure"
    );
    assert_eq!(steady.shed_queue_full, 0, "steady class must not shed");
    assert_eq!(tail.shed_queue_full, 0, "tail class must not shed");
    assert!(
        completion(whale) < completion(steady),
        "the abusive class must bear the overload"
    );
    // …while weighted DRR still grants the heavy class its share.
    assert!(
        whale.goodput_per_weight >= steady.goodput_per_weight,
        "whales should retain at least their weight share of goodput"
    );
    // Sparse admission state is bounded by backlog, not population.
    let held: u64 = report
        .shard_reports
        .iter()
        .map(|s| s.active_tenant_state as u64)
        .sum();
    assert!(
        held <= report.unfinished + u64::from(report.shards),
        "admission state ({held}) outgrew the backlog ({})",
        report.unfinished
    );

    // Overload must not idle the fleet: the drain keeps every free slot
    // fed with full batches.
    assert!(
        report.goodput_rps >= 0.9 * capacity,
        "goodput {:.0} req/s is under 90% of the {capacity:.0} req/s slot capacity",
        report.goodput_rps
    );

    // The headline E21 acceptance numbers.
    assert!(
        report.tenants >= 1_000_000,
        "E21 must front >=1e6 tenants, got {}",
        report.tenants
    );
    assert!(
        report.offered_rps >= 1e6,
        "E21 must offer >=1e6 req/s, got {:.0}",
        report.offered_rps
    );
    assert!(
        report.distinct_active_tenants >= 50_000,
        "traffic should touch a broad slice of the population, got {}",
        report.distinct_active_tenants
    );
    assert!(report.rebalance.migrations > 0, "rebalance never engaged");
    versioned_pretty(&report)
}

/// Mini E21: the golden-fixture miniature (see [`mini_config`]).
pub fn e21_mini(pool: &WorkerPool) -> String {
    let report = run_e21(mini_config(), pool);
    versioned_pretty(&report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mini_run_sheds_rejects_and_rebalances() {
        let pool = WorkerPool::sequential();
        let report = run_e21(mini_config(), &pool);
        assert_eq!(report.tenants, 5_008);
        assert!(report.parsed > 1_000, "mini should see real traffic");
        assert!(report.completed > 0);
        assert!(report.shed > 0, "mini must be overloaded enough to shed");
        assert!(
            report.frames.rejected_total > 0,
            "corrupt_every must exercise the typed-error path"
        );
        assert_eq!(report.rebalance.passes, 2);
        let again = e21_mini(&pool);
        assert_eq!(e21_mini(&pool), again);
    }
}
