//! # ofpc-bench — experiments, golden fixtures and bench gates
//!
//! Every paper artifact (see DESIGN.md's experiment index) and every
//! golden fixture is a library module here, listed once in
//! [`REGISTRY`] and run by the `expt` binary:
//!
//! ```text
//! cargo run --release -p ofpc-bench --bin expt [ID...]
//! ```
//!
//! The rest is shared plumbing: result tables and versioned JSON
//! documents ([`table`]), the first-divergence fixture diff
//! ([`golden`]), and the bench gates' timer and baseline file
//! ([`gate`]).

use ofpc_par::WorkerPool;

pub mod bandwidth_sharing;
pub mod controller_scaling;
pub mod dse;
pub mod energy_speed;
pub mod extensions;
pub mod faults;
pub mod fig1_scenario;
pub mod fig2_primitives;
pub mod fig34_transponder;
pub mod gate;
pub mod golden;
pub mod graph;
pub mod incremental_deployment;
pub mod ingest;
pub mod noise_ablation;
pub mod protocol_overhead;
pub mod resil;
pub mod serving;
pub mod shard;
pub mod table;
pub mod table1_usecases;
pub mod telemetry;

/// One experiment or golden fixture.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// What `expt` is given to run it.
    pub id: &'static str,
    /// The document it writes, relative to the repo root.
    pub path: &'static str,
    /// Prints the experiment's tables, asserts its claims and returns
    /// its document. Golden fixtures print nothing.
    pub run: fn(&WorkerPool) -> String,
}

const fn entry(id: &'static str, path: &'static str, run: fn(&WorkerPool) -> String) -> Entry {
    Entry { id, path, run }
}

/// Every experiment, then every golden fixture, in run order.
#[rustfmt::skip]
pub const REGISTRY: &[Entry] = &[
    entry("e1",           "results/e1_fig1_scenario.json",          fig1_scenario::expt),
    entry("e2",           "results/e2_primitives.json",             fig2_primitives::expt),
    entry("e3",           "results/e3_transponder.json",            fig34_transponder::expt),
    entry("e4",           "results/e4_table1_usecases.json",        table1_usecases::expt),
    entry("e5",           "results/e5_energy_speed.json",           energy_speed::expt),
    entry("e6",           "results/e6_controller_scaling.json",     controller_scaling::expt),
    entry("e7",           "results/e7_protocol.json",               protocol_overhead::expt),
    entry("e8",           "results/e8_bandwidth_sharing.json",      bandwidth_sharing::expt),
    entry("e9",           "results/e9_incremental_deployment.json", incremental_deployment::expt),
    entry("e10",          "results/e10_noise_ablation.json",        noise_ablation::expt),
    entry("e11",          "results/e11_extensions.json",            extensions::expt),
    entry("e12",          "results/expt_serving.json",              serving::expt),
    entry("e13",          "results/e13_faults.json",                faults::expt),
    entry("e14",          "results/e14_telemetry.json",             telemetry::expt),
    entry("e16",          "results/e16_graph.json",                 graph::expt),
    entry("e17",          "results/e17_dse.json",                   dse::expt),
    entry("e18",          "results/e18_resil.json",                 resil::expt),
    entry("e20",          "results/e20_controller_shard.json",      shard::expt),
    entry("e21",          "results/e21_ingest.json",                ingest::expt),
    entry("e12_mini",     "results/golden/e12_mini.json",           serving::e12_mini),
    entry("e13_mini",     "results/golden/e13_mini.json",           faults::e13_mini),
    entry("e14_mini",     "results/golden/e14_mini.json",           telemetry::e14_mini),
    entry("e17_mini",     "results/golden/e17_mini.json",           dse::e17_mini),
    entry("e18_mini",     "results/golden/e18_mini.json",           resil::e18_mini),
    entry("e20_mini",     "results/golden/e20_mini.json",           shard::e20_mini),
    entry("e21_mini",     "results/golden/e21_mini.json",           ingest::e21_mini),
    entry("kernels_mini", "results/golden/kernels_mini.json",       golden::kernels_mini),
];

/// The golden fixtures: the entries that write under `results/golden/`.
pub fn fixtures() -> impl Iterator<Item = &'static Entry> {
    REGISTRY
        .iter()
        .filter(|e| e.path.starts_with("results/golden/"))
}
