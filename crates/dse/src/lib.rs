//! # ofpc-dse — component library and design-space exploration
//!
//! The paper's evaluation fixes one transponder design point, but its
//! central claims — energy per inference, latency per request, module
//! form-factor fit — all hinge on which converters, modulator, and
//! laser the engine is built from. This crate makes that choice
//! explicit and searchable:
//!
//! 1. [`catalog`] — calibrated converter parts transcribed from
//!    published area/power/precision/sample-rate tables (each entry
//!    carries its provenance), packaged behind the
//!    `ofpc_photonics::parts` traits so the transponder and serving
//!    models accept them wherever they previously hard-coded numbers.
//!    [`catalog::hardware_variant`] turns a converter pairing into the
//!    [`ofpc_graph::HardwareVariant`] the lowerer binds per stage.
//! 2. [`pareto`] — the design-point record and non-dominated-set
//!    marking over (energy, latency, effective bits), grouped per app.
//! 3. [`sweep`] — the E17 harness core: the cartesian sweep over
//!    app × converter × core size × wavelength count, each point lowered
//!    with its variant and priced through the transponder-derived
//!    service model, run deterministically in parallel on `ofpc-par`
//!    (byte-identical results for any worker count).

pub mod catalog;
pub mod pareto;
pub mod sweep;

pub use catalog::{hardware_variant, ConverterChoice};
pub use pareto::DesignPoint;
pub use sweep::{run_sweep, App, SweepSpec};
