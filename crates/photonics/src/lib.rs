//! # ofpc-photonics — analog optics substrate
//!
//! Numeric models of the photonic devices that the paper's computing
//! primitives are built from (Fig. 2 and Fig. 3 of *On-Fiber Photonic
//! Computing*, HotNets '23): lasers, Mach-Zehnder and phase modulators,
//! photodetectors, DACs/ADCs, couplers, fiber spans, and the WDM channel
//! grid.
//!
//! Every device is a pure transfer function over [`signal`] types plus a
//! calibrated noise process drawn from a caller-supplied seeded RNG, so the
//! whole substrate is deterministic and replayable. Physical constants and
//! unit conversions live in [`units`]; noise physics (shot, thermal, RIN)
//! in [`noise`]; per-device energy accounting in [`energy`].
//!
//! The substrate is *sans-IO*: nothing here touches the OS. Higher layers
//! (`ofpc-engine`, `ofpc-transponder`) compose these devices into the
//! paper's P1/P2/P3 computing primitives and into transponder TX/RX paths.

pub mod complex;
pub mod converter;
pub mod coupler;
pub mod energy;
pub mod fiber;
pub mod iq;
pub mod laser;
pub mod modulator;
pub mod noise;
pub mod photodetector;
pub mod rng;
pub mod signal;
pub mod simd;
pub mod units;
pub mod wdm;

pub use complex::Complex;
pub use rng::SimRng;
