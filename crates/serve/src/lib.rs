//! # ofpc-serve — a request-serving runtime for on-fiber photonic compute
//!
//! The rest of the workspace models the substrate: photonic primitives
//! (`ofpc-engine`), the Fig.-4 compute transponder (`ofpc-transponder`),
//! the WAN and its controller (`ofpc-net`, `ofpc-controller`,
//! `ofpc-core`). This crate asks the systems question the paper leaves
//! open: **what does it take to *serve* multi-tenant compute requests on
//! that substrate at datacenter rates?**
//!
//! The pipeline, front to back:
//!
//! 1. [`arrivals`] — seeded open-loop request generators (Poisson and
//!    bursty MMPP-2), one per tenant. Open-loop means arrival times do
//!    not react to service: the honest way to measure saturation.
//! 2. [`admission`] — bounded per-tenant queues with deficit-round-robin
//!    weighted fair dequeue. Overload backs up here and is shed
//!    *explicitly*, never silently.
//! 3. [`batcher`] — dynamic batching by [`request::BatchClass`]
//!    (primitive × operand length), closed on size or timeout. Batches
//!    amortize the photonic fixed costs (weight reconfiguration, engine
//!    settling) across WDM-parallel operand streams.
//! 4. [`scheduler`] — earliest-deadline-first dispatch onto compute
//!    transponder slots, with a hardware-derived latency/energy service
//!    model and pre-service deadline shedding.
//! 5. [`metrics`] — per-tenant p50/p99/p999, goodput, shed rate, batch
//!    occupancy, joules/request; serialized deterministically.
//!
//! Everything is sans-IO and virtual-time ([`runtime::ServeRuntime`]):
//! a fixed seed yields a byte-identical report, which the workspace
//! replay tests pin.

pub mod admission;
pub mod arrivals;
pub mod batcher;
pub mod metrics;
pub mod request;
pub mod runtime;
pub mod scheduler;

pub use admission::{SparseAdmission, TenantShape};
pub use arrivals::ArrivalSpec;
pub use batcher::{BatchPolicy, Batcher};
pub use metrics::ServeReport;
pub use request::{BatchClass, ComputeRequest, RequestId, ShedReason, TenantId};
pub use runtime::{ResilSummary, RetryPolicy, ServeConfig, ServeRuntime, TenantSpec};
pub use scheduler::{Dispatch, Scheduler, ServiceModel, SiteSpec};
