//! # ofpc-dse — component library and design-space exploration
//!
//! The paper's evaluation fixes one transponder design point, but its
//! central claims — energy per inference, latency per request, module
//! form-factor fit — all hinge on which converters, modulator, and
//! laser the engine is built from. This crate makes the converter
//! choice explicit and searchable (the modulator and laser stay the
//! realistic defaults):
//!
//! 1. [`catalog`] — calibrated converter rows (bits, sample rate,
//!    power, area) transcribed from published survey tables, each
//!    citing its source row. [`catalog::hardware_variant`] turns a
//!    converter pairing into the [`ofpc_graph::HardwareVariant`] the
//!    lowerer binds per stage: the realistic transponder's service
//!    model with its converter energies and rates re-priced from the
//!    rows. The sweep's form-factor budget swaps the same rows' power
//!    and area into the Fig.-4 block set.
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
