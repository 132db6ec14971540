//! Serving walkthrough: stand up the serving runtime over a metro
//! deployment and watch two tenants share the photonic substrate.
//!
//! Run with: `cargo run --example serving`

use ofpc_core::OnFiberNetwork;
use ofpc_engine::Primitive;
use ofpc_net::{NodeId, Topology};
use ofpc_serve::{ArrivalSpec, BatchPolicy, ServeConfig, ServeRuntime, TenantSpec};

fn main() {
    // 1. A three-site metro line with 10 km spans; photonic compute
    //    transponders plugged into the two downstream sites.
    let mut system = OnFiberNetwork::new(Topology::line(3, 10.0), 42);
    system.upgrade_site(NodeId(1), 1);
    system.upgrade_site(NodeId(2), 1);

    // 2. Two tenants share the substrate: a steady inference service
    //    (weight 3) and a bursty analytics job (weight 1). Arrivals are
    //    open-loop — they come whether or not the system keeps up.
    let config = ServeConfig {
        seed: 42,
        horizon_ps: 2_000_000_000, // 2 ms of arrivals
        drain_grace_ps: 1_000_000_000,
        batch: BatchPolicy {
            max_batch: 8,
            max_wait_ps: 5_000_000, // close partial batches after 5 µs
        },
        tenants: vec![
            TenantSpec {
                name: "inference".to_string(),
                weight: 3,
                queue_capacity: 96,
                arrivals: ArrivalSpec::Poisson { rate_rps: 8e6 },
                primitive: Primitive::VectorDotProduct,
                operand_len: 2048,
                deadline_ps: 2_000_000_000,
            },
            TenantSpec {
                name: "analytics".to_string(),
                weight: 1,
                queue_capacity: 32,
                arrivals: ArrivalSpec::Mmpp {
                    calm_rps: 2e6,
                    burst_rps: 18e6,
                    mean_calm_s: 200e-6,
                    mean_burst_s: 50e-6,
                },
                primitive: Primitive::VectorDotProduct,
                operand_len: 2048,
                deadline_ps: 2_000_000_000,
            },
        ],
        verify_every: 64,
    };

    // 3. The runtime derives compute sites and access delays from the
    //    deployed network, batches compatible requests onto WDM
    //    channels, dispatches earliest-deadline-first, and sheds
    //    explicitly when overloaded.
    let runtime = ServeRuntime::over_network(
        &system,
        NodeId(0),
        4, // WDM channels per batch pass
        config,
    );
    let report = runtime.run();

    println!(
        "offered {:.2} M req/s  goodput {:.2} M req/s  shed {:.1}%",
        report.offered_rps / 1e6,
        report.goodput_rps / 1e6,
        report.shed_rate * 100.0
    );
    println!(
        "latency p50/p99/p999: {:.0}/{:.0}/{:.0} µs   batches {} (occupancy {:.2})",
        report.p50_latency_us.unwrap_or(f64::NAN),
        report.p99_latency_us.unwrap_or(f64::NAN),
        report.p999_latency_us.unwrap_or(f64::NAN),
        report.batches,
        report.mean_batch_occupancy
    );
    println!(
        "energy {:.2} nJ/request   engine cross-checks: {} (mean |err| {:.3})",
        report.joules_per_completed * 1e9,
        report.verified_samples,
        report.verify_mean_abs_error
    );
    for t in &report.tenants {
        println!(
            "tenant {:?}: {} arrivals, {} completed ({:.2} M req/s), {} shed",
            t.tenant,
            t.arrivals,
            t.completed,
            t.goodput_rps / 1e6,
            t.shed_queue_full + t.shed_expired_queued + t.shed_expired_serving
        );
    }

    // Conservation: every arrival ends somewhere.
    assert_eq!(
        report.arrivals,
        report.completed + report.shed + report.unfinished
    );
}
