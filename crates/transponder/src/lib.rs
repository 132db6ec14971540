//! # ofpc-transponder — optical transponder models
//!
//! The data-plane hardware of the paper's §3: the commodity transponder of
//! Fig. 3 as its two paths, [`txpath`] (laser, modulator, DAC) and
//! [`rxpath`] (photodetector, slicer), and the proposed photonic compute
//! transponder of Fig. 4, whose receive path gains a **photonic engine**
//! that operates on the incoming light *before* detection — preamble
//! detection, the configured P1/P2/P3 computation, and result insertion
//! into a reserved frame field.
//!
//! Everything is accounted: per-stage energy ([`energy`]), added latency,
//! bit errors ([`ber`]), and form-factor power/area budgets (§5).
//! Experiment E3 compares [`compute::PhotonicComputeTransponder`]'s own
//! energy ledger with a conventional accelerator's DAC/ADC costs,
//! computed from constants.

pub mod ber;
pub mod coherent;
pub mod compute;
pub mod energy;
pub mod frame;
pub mod rxpath;
pub mod txpath;
