//! # ofpc-resil — proactive multipath resilience
//!
//! PR 2's fault story is *reactive*: detect a fiber cut, reconverge,
//! re-allocate — and every cut still loses the work that was in flight,
//! surfacing as `degraded`/`shed` outcomes. This crate moves the story
//! to *proactive*: place redundant copies of a request's computation
//! across link-disjoint fiber paths **before** any fault, so a cut
//! loses a copy, never the work.
//!
//! * [`mode`] — the per-tenant [`RedundancyMode`] policy (full replica
//!   vs XOR-parity erasure coding over WDM sub-batches) and the
//!   [`ResilTag`] that pins a redundant batch to its path and set.
//! * [`multipath`] — the placement planner: greedy pairwise
//!   link-disjoint routes from the serving front-end to the compute
//!   sites (built on `ofpc_net::routing::k_disjoint_paths` /
//!   `ofpc_controller::protection`), with graceful degradation when the
//!   topology is a tree ([`multipath::MultipathPlan::protection_mode`]).
//! * [`parity`] — the byte-level XOR codec: one parity group over k
//!   data groups reconstructs any single lost group digitally.
//! * [`ledger`] — the deterministic in-flight work ledger: first valid
//!   replica wins, the late duplicate is cancelled, single lost parity
//!   groups reconstruct at the k-th delivery, double losses requeue —
//!   every transition a pure state-machine step, so the whole recovery
//!   dance replays byte-identically on the `ofpc-par` worker pool.
//! * [`overhead`] — the digital reconstruction cost model; redundant
//!   members themselves are priced by the serving layer's
//!   transponder-derived `ServiceModel`, like primary work.

pub mod ledger;
pub mod mode;
pub mod multipath;
pub mod overhead;
pub mod parity;

pub use ledger::{DoneAction, LostAction, SetKind, WorkLedger};
pub use mode::{RedundancyMode, ResilTag};
pub use multipath::{MultipathPlan, SiteRoute};
pub use overhead::ReconstructModel;
pub use parity::{encode_parity, quantize_bytes, reconstruct_group, split_groups};
