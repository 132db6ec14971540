//! Bench gate: parallel scaling and sequential-throughput regression.
//!
//! Three checks, run as a plain `harness = false` binary so it can fail
//! CI with a nonzero exit:
//!
//! 1. **Determinism** — the mini-E12 sweep at 4 workers must be
//!    byte-identical to the 1-worker run (always checked, on any
//!    machine; threads exist even when cores do not).
//! 2. **Scaling** — on a machine with ≥ 4 cores, the 4-worker sweep
//!    must finish at least [`MIN_SPEEDUP`]× faster than the 1-worker
//!    run (best of [`TIMING_REPS`] trials each). On narrower machines —
//!    e.g. 1-core CI containers — the check prints a notice and skips:
//!    a speedup gate without cores would only measure scheduler noise.
//! 3. **Sequential regression** — the single-threaded dot-product and
//!    network-sim kernels must stay within [`MAX_REGRESSION`] (+10%) of
//!    the timings pinned in `BENCH_BASELINE.json` at the repo root.
//!    Timings are the **best of [`TIMING_REPS`] trials**. The figures
//!    carry the core count they were taken on (`cores`); on a
//!    different machine shape (or with `OFPC_BENCH_RECORD=1`, or when
//!    they are missing) the gate re-records its own keys through
//!    [`ofpc_bench::gate`] instead of comparing, leaving the other
//!    gates' keys in the shared file untouched.

use ofpc_bench::gate::{best_time, cores, Baseline};
use ofpc_bench::serving;
use ofpc_engine::dot::{DotProductUnit, DotUnitConfig};
use ofpc_engine::Primitive;
use ofpc_net::packet::Packet;
use ofpc_net::pch::PchHeader;
use ofpc_net::sim::{Network, OpSpec};
use ofpc_net::{NodeId, Topology};
use ofpc_par::WorkerPool;
use ofpc_photonics::SimRng;
use std::hint::black_box;

/// Gate: 4 workers must beat 1 worker by at least this factor.
const MIN_SPEEDUP: f64 = 2.0;
/// Gate: sequential kernels may regress at most this much vs baseline.
const MAX_REGRESSION: f64 = 1.10;
/// Trials per timing; the best (minimum) is the reported figure.
const TIMING_REPS: usize = 5;

// ------------------------------------------------------- sequential kernels

/// The P1 dot-product hot loop: realistic calibrated unit, 200
/// length-256 MVM rows.
fn dot_product_kernel() {
    let mut rng = SimRng::seed_from_u64(1);
    let mut unit = DotProductUnit::new(DotUnitConfig::realistic(), &mut rng);
    unit.calibrate(256);
    let a = vec![0.5; 256];
    let w = vec![0.25; 256];
    for _ in 0..200 {
        black_box(unit.dot_nonneg(black_box(&a), black_box(&w)));
    }
}

/// The discrete-event simulator hot loop: fig-1 WAN with an in-network
/// compute detour, 200 compute packets to idle.
fn network_sim_kernel() {
    let mut net = Network::new(Topology::fig1(), SimRng::seed_from_u64(0));
    net.install_shortest_path_routes();
    let last = NodeId(net.topo.node_count() as u32 - 1);
    net.add_engine(
        NodeId(1),
        1,
        OpSpec::Dot {
            weights: vec![0.5; 16],
        },
        0.0,
    );
    net.install_compute_detour(Primitive::VectorDotProduct, NodeId(1));
    for i in 0..200usize {
        let pch = PchHeader::request(Primitive::VectorDotProduct, 1, 16);
        let p = Packet::compute(
            Network::node_addr(NodeId(0), 1),
            Network::node_addr(last, 1),
            i as u32,
            pch,
            Packet::encode_operands(&[0.5; 16]),
        );
        net.inject(i as u64 * 10_000, NodeId(0), p);
    }
    net.run_to_idle();
    black_box(net.stats.delivered_count());
}

// ------------------------------------------------------------------- checks

fn check_determinism() {
    let reference = serving::e12_mini(&WorkerPool::new(1));
    let wide = serving::e12_mini(&WorkerPool::new(4));
    assert!(
        reference == wide,
        "par_scaling: 4-worker mini-E12 sweep diverged from the 1-worker bytes"
    );
    println!(
        "par_scaling: determinism OK (1-worker and 4-worker sweeps byte-identical, {} bytes)",
        reference.len()
    );
}

fn check_speedup() {
    let n = cores();
    if n < 4 {
        println!(
            "par_scaling: speedup gate skipped — {n} core(s) available, \
             need 4 for a meaningful {MIN_SPEEDUP}x check"
        );
        return;
    }
    let seq = best_time(TIMING_REPS, || {
        black_box(serving::e12_mini(&WorkerPool::new(1)));
    });
    let par = best_time(TIMING_REPS, || {
        black_box(serving::e12_mini(&WorkerPool::new(4)));
    });
    let speedup = seq / par;
    println!(
        "par_scaling: mini-E12 sweep {:.1} ms @1 worker, {:.1} ms @4 workers -> {speedup:.2}x",
        seq * 1e3,
        par * 1e3,
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "par_scaling: speedup at 4 workers is {speedup:.2}x, gate requires {MIN_SPEEDUP}x"
    );
}

fn check_sequential_regression() {
    // Warm-up pass (allocator, page cache, branch predictors).
    dot_product_kernel();
    network_sim_kernel();
    let dot_product_ms = best_time(TIMING_REPS, dot_product_kernel) * 1e3;
    let network_sim_ms = best_time(TIMING_REPS, network_sim_kernel) * 1e3;
    let mut base = Baseline::load();
    match base.pinned(
        "par_scaling",
        "cores",
        &["dot_product_ms", "network_sim_ms"],
    ) {
        Ok(pinned) => {
            for ((name, got), want) in [
                ("dot_product", dot_product_ms),
                ("network_sim", network_sim_ms),
            ]
            .into_iter()
            .zip(pinned)
            {
                println!(
                    "par_scaling: {name} {got:.2} ms vs baseline {want:.2} ms \
                     (gate {:.2} ms)",
                    want * MAX_REGRESSION
                );
                assert!(
                    got <= want * MAX_REGRESSION,
                    "par_scaling: sequential {name} kernel regressed: \
                     {got:.2} ms vs baseline {want:.2} ms (+{:.0}% allowed); \
                     if intentional, re-pin with OFPC_BENCH_RECORD=1",
                    (MAX_REGRESSION - 1.0) * 100.0,
                );
            }
        }
        Err(reason) => {
            base.record(
                "cores",
                &[
                    ("dot_product_ms", dot_product_ms),
                    ("network_sim_ms", network_sim_ms),
                ],
            );
            println!(
                "par_scaling: recorded new baseline ({reason}): \
                 dot_product {dot_product_ms:.2} ms, network_sim {network_sim_ms:.2} ms on {} core(s)",
                cores()
            );
        }
    }
}

fn main() {
    check_determinism();
    check_speedup();
    check_sequential_regression();
    println!("par_scaling: all gates passed");
}
