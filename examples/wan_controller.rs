//! The centralized controller at WAN scale: 24 compute demands over the
//! Abilene backbone, solved three ways (exact / LP-rounding / greedy),
//! then an incremental-deployment sweep — the operational view of the
//! paper's §3 controller and §5 scalability discussion.
//!
//! Run with: `cargo run --release --example wan_controller`

use ofpc_controller::demand::{Demand, TaskDag};
use ofpc_core::deployment::{deployment_sweep, upgrade_order_by_degree};
use ofpc_core::{OnFiberNetwork, Solver};
use ofpc_engine::Primitive;
use ofpc_net::sim::OpSpec;
use ofpc_net::{NodeId, Topology};
use ofpc_photonics::SimRng;

fn demands(topo: &Topology, n: usize, seed: u64) -> Vec<Demand> {
    let mut rng = SimRng::seed_from_u64(seed);
    let prims = [
        Primitive::VectorDotProduct,
        Primitive::PatternMatching,
        Primitive::NonlinearFunction,
    ];
    (0..n)
        .map(|i| {
            let src = NodeId(rng.below(topo.node_count()) as u32);
            let mut dst = src;
            while dst == src {
                dst = NodeId(rng.below(topo.node_count()) as u32);
            }
            Demand::new(i as u32, src, dst, TaskDag::single(prims[rng.below(3)]))
        })
        .collect()
}

fn op_spec(_op: u16, prim: Primitive) -> OpSpec {
    match prim {
        Primitive::VectorDotProduct => OpSpec::Dot {
            weights: vec![0.5; 16],
        },
        Primitive::PatternMatching => OpSpec::Match {
            pattern: vec![true; 16],
        },
        Primitive::NonlinearFunction => OpSpec::Nonlinear,
    }
}

fn main() {
    let topo = Topology::abilene();
    println!(
        "Abilene: {} sites, {} fiber links\n",
        topo.node_count(),
        topo.link_count()
    );

    // Solve the same 24-demand workload with each solver.
    for (name, solver) in [
        (
            "exact B&B",
            Solver::Exact {
                node_budget: 2_000_000,
            },
        ),
        ("LP + rounding", Solver::LpRounding { trials: 20 }),
        ("greedy", Solver::Greedy),
    ] {
        let mut system = OnFiberNetwork::new(Topology::abilene(), 1);
        // Upgrade the four highest-degree hubs with 4 transponders each.
        let order = upgrade_order_by_degree(&system.net.topo);
        for &site in &order[..4] {
            system.upgrade_site(site, 4);
        }
        for d in demands(&system.net.topo, 24, 5) {
            let prim = d.dag.linearize().unwrap()[0];
            system.submit_demand(d, op_spec(0, prim));
        }
        let plan = system.allocate_and_apply(solver);
        println!(
            "{name:>14}: {} / 24 demands satisfied, {} installs, {} route overrides",
            24 - plan.unsatisfied.len(),
            plan.installs.len(),
            plan.overrides.len()
        );
    }

    // Incremental deployment: how coverage grows as sites are upgraded.
    println!("\nincremental deployment (hubs first, 8 slots/site):");
    let order = upgrade_order_by_degree(&topo);
    let sweep = deployment_sweep(&topo, &order, &demands(&topo, 24, 5));
    for p in sweep.iter().step_by(2) {
        let bar = "#".repeat(p.satisfied);
        println!(
            "  {:>2} sites ({:>3.0}%): {:<24} {} / {}  (+{:.2} ms detour)",
            p.upgraded_sites,
            100.0 * p.fraction,
            bar,
            p.satisfied,
            p.total_demands,
            p.mean_added_latency_ms
        );
    }
}
