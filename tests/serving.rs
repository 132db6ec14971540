//! Serving-layer integration tests: weighted fairness under overload,
//! explicit (never silent) load shedding, and the batching win the E12
//! experiment demonstrates — enforced here so regressions fail CI, not
//! just skew a table.

use ofpc_engine::Primitive;
use ofpc_net::{NodeId, Topology};
use ofpc_serve::{ArrivalSpec, BatchPolicy, ServeConfig, ServeReport, ServeRuntime, TenantSpec};

/// ~15.5M req/s of slot capacity with this deployment/model (two slots,
/// four WDM channels, 2048-element batches of 8).
const CAPACITY_RPS: f64 = 15.5e6;

fn run(per_tenant_rps: f64, weights: (u32, u32), batching: bool) -> ServeReport {
    let mut sys = ofpc_core::OnFiberNetwork::new(Topology::line(3, 10.0), 9);
    sys.upgrade_site(NodeId(1), 1);
    sys.upgrade_site(NodeId(2), 1);
    let tenant = |name: &str, weight: u32| TenantSpec {
        name: name.to_string(),
        weight,
        queue_capacity: 96,
        arrivals: ArrivalSpec::Poisson {
            rate_rps: per_tenant_rps,
        },
        primitive: Primitive::VectorDotProduct,
        operand_len: 2048,
        deadline_ps: 2_000_000_000,
    };
    let config = ServeConfig {
        seed: 9,
        horizon_ps: 2_000_000_000, // 2 ms
        drain_grace_ps: 1_000_000_000,
        batch: if batching {
            BatchPolicy {
                max_batch: 8,
                max_wait_ps: 5_000_000,
            }
        } else {
            BatchPolicy::disabled()
        },
        tenants: vec![tenant("t0", weights.0), tenant("t1", weights.1)],
        verify_every: 0,
    };
    ServeRuntime::over_network(&sys, NodeId(0), 4, config).run()
}

#[test]
fn overload_fairness_follows_weights() {
    // 2× overload, weights 3:1, identical offered load per tenant: each
    // tenant's share of total goodput must be at least its weighted fair
    // share minus tolerance.
    let report = run(CAPACITY_RPS, (3, 1), true);
    assert!(
        report.shed > 0,
        "2x overload must shed (shed {})",
        report.shed
    );
    let total: f64 = report.tenants.iter().map(|t| t.goodput_rps).sum();
    let share0 = report.tenants[0].goodput_rps / total;
    let share1 = report.tenants[1].goodput_rps / total;
    let tolerance = 0.10;
    assert!(
        share0 >= 0.75 - tolerance,
        "tenant 0 (weight 3) got {share0:.3} of goodput, expected ≥ {:.3}",
        0.75 - tolerance
    );
    assert!(
        share1 >= 0.25 - tolerance,
        "tenant 1 (weight 1) got {share1:.3} of goodput, expected ≥ {:.3}",
        0.25 - tolerance
    );
}

#[test]
fn equal_weights_split_evenly_under_overload() {
    let report = run(CAPACITY_RPS, (1, 1), true);
    assert!(report.shed > 0);
    let total: f64 = report.tenants.iter().map(|t| t.goodput_rps).sum();
    for t in &report.tenants {
        let share = t.goodput_rps / total;
        assert!(
            (share - 0.5).abs() < 0.08,
            "tenant {:?} share {share:.3}, expected ~0.5",
            t.tenant
        );
    }
}

#[test]
fn shedding_is_never_silent() {
    // Conservation at 2× overload: every arrival is completed, shed with
    // a recorded reason, or still queued at the horizon — and the shed
    // total equals the sum of per-reason counters.
    let report = run(CAPACITY_RPS, (3, 1), true);
    assert_eq!(
        report.arrivals,
        report.completed + report.shed + report.unfinished,
        "requests lost without an outcome"
    );
    let by_reason: u64 = report
        .tenants
        .iter()
        .map(|t| t.shed_queue_full + t.shed_expired_queued + t.shed_expired_serving)
        .sum();
    assert_eq!(report.shed, by_reason, "shed without a reason");
    assert!(by_reason > 0);
}

#[test]
fn batching_beats_unbatched_goodput_at_high_load() {
    let batched = run(CAPACITY_RPS, (1, 1), true);
    let unbatched = run(CAPACITY_RPS, (1, 1), false);
    assert!(
        batched.goodput_rps > unbatched.goodput_rps * 1.5,
        "batched {:.2e} vs unbatched {:.2e}",
        batched.goodput_rps,
        unbatched.goodput_rps
    );
    // Amortization also shows up as energy per request.
    assert!(batched.joules_per_completed < unbatched.joules_per_completed);
}

#[test]
fn light_load_sheds_nothing() {
    let report = run(0.05 * CAPACITY_RPS, (3, 1), true);
    assert_eq!(report.shed, 0);
    assert_eq!(report.unfinished, 0);
    assert_eq!(report.completed, report.arrivals);
}
