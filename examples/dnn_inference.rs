//! Compile a multi-stage DNN inference workload onto the on-fiber
//! substrate with the `ofpc-graph` workload compiler: build the
//! dataflow IR from a trained-shape MLP, lower it under a precision
//! budget, place its stages on engine sites along the Fig.-1 WAN,
//! pipeline requests across WDM wavelengths, and survive an engine
//! failure with partial digital fallback.
//!
//! Run with: `cargo run --example dnn_inference`

use ofpc_engine::dnn::Mlp;
use ofpc_faults::{FaultEvent, FaultKind, FaultPlan};
use ofpc_graph::exec::{ExecConfig, ExecMode};
use ofpc_graph::lower::LowerConfig;
use ofpc_graph::{compile, ir};
use ofpc_net::{NodeId, Topology};
use ofpc_photonics::SimRng;

fn main() {
    // 1. The workload: a 3-layer MLP, expressed as a dataflow graph.
    //    Hidden layers tolerate 4 effective bits, the output layer
    //    (where classification margins live) demands 6.
    let mut rng = SimRng::seed_from_u64(16);
    let mlp = Mlp::new_random(&[16, 16, 16, 8], &mut rng);
    let graph = ir::dnn_graph(&mlp, 4.0, 6.0);
    println!(
        "IR: {} ops, {} MACs per request",
        graph.nodes.len(),
        graph.total_macs()
    );

    // 2. Compile: precision-driven partitioning, stage fusion,
    //    controller placement on the Fig.-1 WAN (compute sites at B and
    //    C), and WDM wavelength assignment. `metro()` is the realistic
    //    deployment: 40 dB receiver budget, realistic transponder
    //    prices, an edge-SoC DSP as the digital fallback.
    let executor = compile(
        &graph,
        &LowerConfig::metro(),
        &Topology::fig1(),
        &[0, 2, 2, 0],
        NodeId(0),
        NodeId(3),
        4,
    )
    .expect("DNN compiles onto fig1");
    let placed = executor.placed();
    for b in &placed.bindings {
        let s = &placed.plan.stages[b.stage];
        println!(
            "stage {}: {:<14} on node {} wavelength {} ({:.1} ns service)",
            b.stage,
            s.label,
            b.node.0,
            b.wavelength,
            s.service_ps as f64 * 1e-3,
        );
    }

    // 3. Execute 64 back-to-back requests both ways. Pipelined, stage
    //    k+1 of request i overlaps stage k of request i+1 on a
    //    different wavelength of the same fiber.
    let run = |mode| executor.run(&ExecConfig { requests: 64, mode });
    let pipe = run(ExecMode::Pipelined);
    let seq = run(ExecMode::Sequential);
    println!(
        "pipelined:  {:>6.0} req/s, {:.1} ms mean latency, {:.2} nJ/req",
        pipe.throughput_rps,
        pipe.mean_latency_ps as f64 * 1e-9,
        pipe.energy_per_request_j * 1e9,
    );
    println!(
        "sequential: {:>6.0} req/s, {:.1} ms mean latency, {:.2} nJ/req",
        seq.throughput_rps,
        seq.mean_latency_ps as f64 * 1e-9,
        seq.energy_per_request_j * 1e9,
    );
    println!(
        "pipelining gain: {:.1}x at equal energy",
        pipe.throughput_rps / seq.throughput_rps
    );

    // 4. Fault-aware re-lowering: an engine hard-fail at one placed
    //    site sends only that site's stages to the digital fallback.
    let mut faulty = executor.clone();
    let victim = faulty.placed().photonic_sites()[0];
    faulty.apply_faults(&FaultPlan {
        events: vec![FaultEvent {
            at_ps: 0,
            kind: FaultKind::EngineFail { node: victim },
        }],
    });
    let degraded = faulty.run(&ExecConfig {
        requests: 64,
        mode: ExecMode::Pipelined,
    });
    println!(
        "after engine fail at node {}: {} of {} stages digital, {:.2} nJ/req",
        victim.0,
        degraded.digital_stages,
        degraded.stages,
        degraded.energy_per_request_j * 1e9,
    );
}
