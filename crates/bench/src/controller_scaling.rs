//! E6 — §3/§5: controller allocation quality and the integer-program
//! scalability wall.
//!
//! The paper: "The optimization formulation is fundamentally an integer
//! problem because it needs to decide which photonic computing
//! transponder to use." We sweep WAN size and demand count, solving each
//! instance three ways — exact branch & bound, LP relaxation +
//! randomized rounding, and greedy — and report satisfied demands,
//! optimality gap (vs the LP upper bound), and solver work. The exact
//! solver's search-node count should blow up with scale while LP/greedy
//! stay flat: that is the §5 scalability discussion, measured.

use crate::table::{versioned_pretty, Table};
use ofpc_controller::demand::{Demand, TaskDag};
use ofpc_controller::greedy::solve_greedy;
use ofpc_controller::ilp::solve_exact;
use ofpc_controller::lp::{round_lp, solve_lp};
use ofpc_controller::options::enumerate_options;
use ofpc_controller::{is_feasible, score};
use ofpc_core::topo::{multi_region, MultiRegionSpec};
use ofpc_engine::Primitive;
use ofpc_net::{NodeId, Topology};
use ofpc_par::WorkerPool;
use ofpc_photonics::SimRng;
use ofpc_shard::{RegionMap, ShardEvent, ShardedController};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct E6Row {
    nodes: usize,
    demands: usize,
    exact_satisfied: usize,
    exact_nodes_expanded: u64,
    exact_proven: bool,
    exact_ms: f64,
    lp_satisfied: usize,
    lp_gap_pct: f64,
    lp_ms: f64,
    greedy_satisfied: usize,
    greedy_gap_pct: f64,
    greedy_ms: f64,
}

/// One row of the incremental-vs-scratch comparison (the E6 ↔ E20
/// seam): mean per-event latency of the sharded controller's dirty-set
/// re-plan vs a from-scratch re-solve of the same state.
#[derive(Serialize)]
struct E6IncrementalRow {
    nodes: usize,
    regions: usize,
    live_demands: usize,
    incremental_us: f64,
    scratch_us: f64,
    speedup: f64,
}

/// Drive churn through a sharded controller at `regions × 6` sites and
/// time incremental events against from-scratch re-solves.
fn incremental_vs_scratch(regions: usize, rng: &mut SimRng) -> E6IncrementalRow {
    let wan = multi_region(&MultiRegionSpec::new(regions, 6), rng);
    let n = wan.topo.node_count();
    let capacity: Vec<usize> = (0..n).map(|i| if i % 3 == 0 { 2 } else { 0 }).collect();
    let map = RegionMap::from_assignment(wan.region_of.clone());
    let mut ctl = ShardedController::new(wan.topo.clone(), map, capacity, 8);
    let max_live = 4 * regions;
    let make_demand = |id: u32, rng: &mut SimRng| {
        let src = NodeId(rng.below(n) as u32);
        let mut dst = src;
        while dst == src {
            dst = NodeId(rng.below(n) as u32);
        }
        Demand::new(id, src, dst, TaskDag::single(Primitive::VectorDotProduct))
    };
    // Warm up to a steady live population.
    let warmup = 4 * max_live;
    for i in 0..warmup {
        let mut batch = vec![ShardEvent::Arrive(make_demand(i as u32, rng))];
        if i >= max_live {
            batch.push(ShardEvent::Depart((i - max_live) as u32));
        }
        ctl.apply_batch(batch);
    }
    // Measure: per-event incremental apply vs full re-solve of a clone.
    let events = 60;
    let mut inc_ns = 0u64;
    let mut scratch_ns = 0u64;
    for i in warmup..warmup + events {
        let batch = vec![
            ShardEvent::Arrive(make_demand(i as u32, rng)),
            ShardEvent::Depart((i - max_live) as u32),
        ];
        let start = Instant::now();
        ctl.apply_batch(batch);
        inc_ns += start.elapsed().as_nanos() as u64;

        let mut scratch = ctl.clone();
        let start = Instant::now();
        scratch.full_resolve();
        scratch_ns += start.elapsed().as_nanos() as u64;
        assert_eq!(ctl.placements(), scratch.placements());
    }
    let incremental_us = inc_ns as f64 / events as f64 / 1e3;
    let scratch_us = scratch_ns as f64 / events as f64 / 1e3;
    E6IncrementalRow {
        nodes: n,
        regions,
        live_demands: ctl.live_count(),
        incremental_us,
        scratch_us,
        speedup: scratch_us / incremental_us,
    }
}

fn random_demands(topo: &Topology, n: usize, rng: &mut SimRng) -> Vec<Demand> {
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
            // 70% single-task, 30% two-task chains.
            let dag = if rng.chance(0.3) {
                TaskDag::chain(vec![prims[rng.below(3)], prims[rng.below(3)]])
            } else {
                TaskDag::single(prims[rng.below(3)])
            };
            Demand::new(i as u32, src, dst, dag)
        })
        .collect()
}

pub(crate) fn expt(_pool: &WorkerPool) -> String {
    println!("E6: controller allocation — exact vs LP-rounding vs greedy\n");
    let mut t = Table::new(
        "solver scaling (capacity: 2 slots at 1/3 of sites)",
        &[
            "nodes",
            "demands",
            "exact sat",
            "b&b nodes",
            "proven",
            "exact ms",
            "lp sat",
            "lp gap%",
            "greedy sat",
            "greedy gap%",
        ],
    );
    let mut rows = Vec::new();
    for &(n_nodes, n_demands) in &[
        (8usize, 6usize),
        (12, 10),
        (16, 14),
        (24, 20),
        (32, 28),
        (48, 40),
    ] {
        let mut rng = SimRng::seed_from_u64(6000 + n_nodes as u64);
        let topo = Topology::random_geometric(n_nodes, 2000.0, 700.0, &mut rng);
        // A third of sites upgraded, 2 slots each.
        let slots: Vec<usize> = (0..n_nodes)
            .map(|i| if i % 3 == 0 { 2 } else { 0 })
            .collect();
        let demands = random_demands(&topo, n_demands, &mut rng);
        let instance = enumerate_options(&topo, &slots, &demands, 8);

        let start = Instant::now();
        let exact = solve_exact(&instance, 2_000_000);
        let exact_ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(is_feasible(&instance, &exact.allocation));

        let start = Instant::now();
        let lp = solve_lp(&instance);
        let mut lp_rng = SimRng::seed_from_u64(1);
        let rounded = round_lp(&instance, &lp, 20, &mut lp_rng);
        let lp_ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(is_feasible(&instance, &rounded));

        let start = Instant::now();
        let greedy = solve_greedy(&instance);
        let greedy_ms = start.elapsed().as_secs_f64() * 1e3;

        let exact_score = score(&instance, &exact.allocation);
        let lp_score = score(&instance, &rounded);
        let greedy_score = greedy.score;
        // Gaps vs the LP upper bound (valid even when B&B is truncated).
        let ub = lp.upper_bound.max(exact_score);
        let gap = |s: f64| 100.0 * (ub - s) / ub.max(1e-9);

        let row = E6Row {
            nodes: n_nodes,
            demands: n_demands,
            exact_satisfied: exact.allocation.satisfied_count(),
            exact_nodes_expanded: exact.nodes_expanded,
            exact_proven: exact.proven_optimal,
            exact_ms,
            lp_satisfied: rounded.satisfied_count(),
            lp_gap_pct: gap(lp_score),
            lp_ms,
            greedy_satisfied: greedy.allocation.satisfied_count(),
            greedy_gap_pct: gap(greedy_score),
            greedy_ms,
        };
        t.row(&[
            row.nodes.to_string(),
            row.demands.to_string(),
            row.exact_satisfied.to_string(),
            row.exact_nodes_expanded.to_string(),
            row.exact_proven.to_string(),
            format!("{:.1}", row.exact_ms),
            row.lp_satisfied.to_string(),
            format!("{:.2}", row.lp_gap_pct),
            row.greedy_satisfied.to_string(),
            format!("{:.2}", row.greedy_gap_pct),
        ]);
        // Sanity: exact is never worse than the heuristics it bounds.
        assert!(exact_score >= greedy_score - 1e-6);
        rows.push(row);
    }
    t.print();

    // The §5 wall: B&B work must grow sharply with instance size.
    let first = rows.first().unwrap().exact_nodes_expanded;
    let last = rows.last().unwrap().exact_nodes_expanded;
    println!(
        "branch-and-bound nodes grew {first} → {last} ({:.0}×) across the sweep",
        last as f64 / first.max(1) as f64
    );
    assert!(last > 10 * first, "expected the integer-program wall");

    // The way past the wall: sharded incremental re-planning (E20).
    // Same churn, two costs — dirty-set apply vs from-scratch re-solve.
    let mut it = Table::new(
        "incremental vs scratch re-solve (sharded controller)",
        &[
            "nodes",
            "regions",
            "live",
            "inc µs",
            "scratch µs",
            "speedup",
        ],
    );
    let mut inc_rows = Vec::new();
    for &regions in &[2usize, 4, 8] {
        let mut rng = SimRng::seed_from_u64(6200 + regions as u64);
        let row = incremental_vs_scratch(regions, &mut rng);
        it.row(&[
            row.nodes.to_string(),
            row.regions.to_string(),
            row.live_demands.to_string(),
            format!("{:.1}", row.incremental_us),
            format!("{:.1}", row.scratch_us),
            format!("{:.1}×", row.speedup),
        ]);
        inc_rows.push(row);
    }
    it.print();
    let last = inc_rows.last().unwrap();
    println!(
        "incremental re-plan is {:.1}× faster than scratch at {} nodes",
        last.speedup, last.nodes
    );
    if !cfg!(debug_assertions) {
        assert!(
            last.speedup > 1.5,
            "incremental must beat scratch at scale, got {:.2}×",
            last.speedup
        );
    }

    #[derive(Serialize)]
    struct E6Dump {
        solver_rows: Vec<E6Row>,
        incremental_rows: Vec<E6IncrementalRow>,
    }
    versioned_pretty(&E6Dump {
        solver_rows: rows,
        incremental_rows: inc_rows,
    })
}
