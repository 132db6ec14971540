//! # ofpc-bench — experiment harnesses and Criterion benches
//!
//! One binary per paper artifact (see DESIGN.md's experiment index) plus
//! Criterion benches over the hot paths. The library part holds shared
//! harness plumbing: result tables, JSON dumps, parallel sweeps,
//! and the bench gates' shared baseline file ([`gate`]).

pub mod gate;
pub mod golden;
pub mod ingest;
pub mod resil;
pub mod shard;
pub mod table;

pub use table::Table;
