//! Vectorized photonics kernels.
//!
//! The scalar device models walk one `Complex` sample at a time and pay
//! for physics nobody downstream observes: the P1 dot-product chain is
//! *power-domain end to end* (MZM transmission is a real scale, the
//! photodetector is square-law), yet the scalar path synthesizes phase
//! walks, discarded DAC waveforms, and per-stage `OpticalField` clones
//! for every sample. The vectorized kernels therefore run on flat power
//! buffers (`Laser::emit_power_block`,
//! `MachZehnderModulator::fused_amplitude_constants`,
//! `Photodetector::detect_power_block`), and this module holds what they
//! share:
//!
//! - [`gauss`] — a 256-layer ziggurat Gaussian sampler over [`SimRng`]
//!   (several times cheaper per draw than the Box–Muller path in
//!   `SimRng::standard_normal`), used by the fused block kernels;
//! - [`KernelBackend`] — the selection contract between the scalar
//!   reference implementations and the vectorized kernels.
//!
//! # Backend contract (DESIGN.md §12)
//!
//! `Scalar` is the reference implementation and the default everywhere:
//! its RNG draw sequence and arithmetic are pinned by the golden-replay
//! fixtures and must never change. `Vectorized` computes the *same
//! physics* — identical deterministic-per-seed noise distributions,
//! identical energy accounting — but draws its noise from a different
//! (still seeded, still replay-stable) stream and fuses transfer
//! functions, so its outputs agree with the scalar path exactly in
//! noiseless configs (to converter quantization) and statistically in
//! noisy ones. The differential suite in `tests/kernels.rs` enforces
//! both bounds forever.
//!
//! [`SimRng`]: crate::SimRng

pub mod gauss;

/// Which kernel implementation a photonic unit runs.
///
/// The scalar path is the bit-stable reference: every golden fixture is
/// pinned against it. The vectorized path is opt-in, deterministic per
/// seed, and differentially tested against the scalar path (see the
/// module docs for the exact equivalence contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelBackend {
    /// Per-sample reference implementation; byte-stable RNG streams.
    #[default]
    Scalar,
    /// Fused power-domain kernels; same physics, own noise stream.
    Vectorized,
}
