//! # ofpc-faults — fault injection and failure recovery
//!
//! The robustness question the paper leaves open: computing *in* the
//! network means inheriting the network's failure modes. A WAN loses
//! fibers to backhoes, amplifiers drift, lasers droop, photodetectors
//! degrade — and unlike a datacenter accelerator, a photonic engine
//! spliced into a live route cannot simply be rebooted out of the data
//! path. This crate closes the loop the §3 controller sketches
//! ("continuously track the status of all photonic compute
//! transponders"): inject faults, detect them, and recover.
//!
//! * [`plan`] — [`plan::FaultPlan`]: a deterministic, seedable schedule
//!   of timed fault events (fiber cuts, link flaps, engine hard-fails,
//!   analog noise steps), including Poisson MTBF/MTTR generation. Slow
//!   analog drift enters only as the noise-step staircases of a storm's
//!   [`storm::StormSpec::drift_sigmas`].
//! * [`mod@inject`] — threads a plan into `ofpc-net`'s discrete-event
//!   simulator as scheduled events, so faults interleave with packets
//!   in one deterministic timeline; noise steps set the engines' noise.
//! * [`orchestrator`] — the recovery loop: charge a fixed detection
//!   delay, reconverge routes, re-run the allocator excluding failed
//!   sites, re-install the plan, and account time-to-recovery ([`ofpc_controller::RecoveryTimeline`]) and
//!   availability.
//! * [`storm`] — seeded fault *storms*: bursts of correlated fiber cuts
//!   with engine fails and analog drift riding along, the adversarial
//!   input the proactive multipath layer (`ofpc-resil`) is gated
//!   against.

pub mod inject;
pub mod orchestrator;
pub mod plan;
pub mod storm;

pub use inject::inject;
pub use orchestrator::{trace_recovery, AvailabilityLedger, Orchestrator};
pub use plan::{FaultEvent, FaultKind, FaultPlan};
pub use storm::{generate_storm, StormSpec};
