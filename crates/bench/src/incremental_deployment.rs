//! E9 — §1/§2.2: backward-compatible incremental deployment.
//!
//! "On-fiber computing does not require replacing router ASICs, thus
//! making it backward compatible for incremental deployment." We sweep
//! the fraction of Abilene sites upgraded with compute transponders
//! (hubs first) and report the satisfied-demand fraction and the mean
//! detour penalty — the curve an operator would use to plan a rollout.

use crate::table::{versioned_pretty, Table};
use ofpc_controller::demand::{Demand, TaskDag};
use ofpc_core::deployment::{deployment_sweep, upgrade_order_by_degree};
use ofpc_engine::Primitive;
use ofpc_net::{NodeId, Topology};
use ofpc_par::WorkerPool;
use ofpc_photonics::SimRng;

pub(crate) fn expt(_pool: &WorkerPool) -> String {
    println!("E9: incremental deployment on Abilene (hubs first)\n");
    let topo = Topology::abilene();
    let mut rng = SimRng::seed_from_u64(9);
    let prims = [
        Primitive::VectorDotProduct,
        Primitive::PatternMatching,
        Primitive::NonlinearFunction,
    ];
    let demands: Vec<Demand> = (0..24)
        .map(|i| {
            let src = NodeId(rng.below(topo.node_count()) as u32);
            let mut dst = src;
            while dst == src {
                dst = NodeId(rng.below(topo.node_count()) as u32);
            }
            Demand::new(i, src, dst, TaskDag::single(prims[rng.below(3)]))
        })
        .collect();
    let order = upgrade_order_by_degree(&topo);
    let points = deployment_sweep(&topo, &order, &demands);

    let mut t = Table::new(
        "coverage vs upgraded fraction",
        &["sites", "fraction", "satisfied", "mean added ms"],
    );
    for p in &points {
        t.row(&[
            p.upgraded_sites.to_string(),
            format!("{:.2}", p.fraction),
            format!("{}/{}", p.satisfied, p.total_demands),
            format!("{:.3}", p.mean_added_latency_ms),
        ]);
    }
    t.print();

    // Shape assertions: monotone coverage; early hubs carry most demand;
    // detours shrink as deployment densifies.
    for w in points.windows(2) {
        assert!(w[1].satisfied >= w[0].satisfied);
    }
    let quarter = &points[3]; // ~27% of sites
    assert!(
        quarter.satisfied as f64 / quarter.total_demands as f64 >= 0.8,
        "3 hub sites should already cover ≥80%: {quarter:?}"
    );
    let full = points.last().unwrap();
    assert_eq!(full.satisfied, full.total_demands);
    let first_full = points
        .iter()
        .find(|p| p.satisfied == p.total_demands)
        .unwrap();
    assert!(full.mean_added_latency_ms <= first_full.mean_added_latency_ms + 1e-9);
    println!(
        "\nfirst full coverage at {} / {} sites; detour penalty falls from {:.3} to {:.3} ms",
        first_full.upgraded_sites,
        points.len() - 1,
        first_full.mean_added_latency_ms,
        full.mean_added_latency_ms
    );
    versioned_pretty(&points)
}
