//! ofpc-graph — the workload graph compiler.
//!
//! The paper's Table-1 workloads (DNN inference, correlation, pattern
//! matching) are multi-stage dataflow programs, but a serving stack that
//! dispatches single opaque ops cannot decide *which* stages run
//! photonically, *where* along the fiber path, or *how* stages pipeline
//! across wavelengths. This crate is that missing layer, end to end:
//!
//! 1. [`ir`] — a small dataflow IR: typed ops (MVM, nonlinear,
//!    correlate, match, compare, digital) with tensor shapes and
//!    precision requirements; edges carry data volumes. Builders for
//!    the Table-1 apps, starting with [`ir::dnn_graph`] over
//!    [`ofpc_engine::dnn::Mlp`].
//! 2. [`mod@lower`] — photonic/digital partitioning driven by
//!    `engine::precision` error budgets, stage fusion, and per-stage
//!    latency/energy estimates from the transponder-derived
//!    [`ofpc_serve::ServiceModel`].
//! 3. [`mod@place`] — site binding via the controller's option
//!    enumeration + greedy solver, and WDM wavelength assignment so
//!    consecutive stages ride distinct channels.
//! 4. [`exec`] — a deterministic pipelined executor with per-stage
//!    telemetry spans and fault-aware re-lowering: a failed site sends
//!    *its* stages to digital fallback, nothing else.
//!
//! The compile→place→execute path in one call chain:
//!
//! ```
//! use ofpc_graph::{compile, exec::{ExecConfig, ExecMode}, lower::LowerConfig, ir};
//! use ofpc_photonics::SimRng;
//!
//! let mut rng = SimRng::seed_from_u64(7);
//! let mlp = ofpc_engine::dnn::Mlp::new_random(&[16, 16, 8], &mut rng);
//! let graph = ir::dnn_graph(&mlp, 4.0, 6.0);
//! let topo = ofpc_net::Topology::fig1();
//! let executor = compile(
//!     &graph,
//!     &LowerConfig::metro(),
//!     &topo,
//!     &[0, 2, 2, 0],
//!     ofpc_net::NodeId(0),
//!     ofpc_net::NodeId(3),
//!     4,
//! )
//! .expect("compiles");
//! let report = executor.run(&ExecConfig {
//!     requests: 8,
//!     mode: ExecMode::Pipelined,
//! });
//! assert_eq!(report.requests, 8);
//! ```

pub mod exec;
pub mod ir;
pub mod lower;
pub mod place;

pub use exec::GraphExecutor;
pub use ir::{dnn_graph, WorkGraph};
pub use lower::{lower, ErrorBudget, HardwareVariant, LowerConfig, Target};
pub(crate) use place::place;

use ofpc_net::{NodeId, Topology};

/// Errors from the full compile pipeline.
#[derive(Debug, Clone)]
pub enum CompileError {
    Lower(ir::GraphError),
    Place(place::PlaceError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Lower(e) => write!(f, "lowering failed: {e}"),
            CompileError::Place(e) => write!(f, "placement failed: {e}"),
        }
    }
}

impl LowerConfig {
    /// The default metro deployment: realistic transponder hardware at
    /// 4 WDM serving channels, a realistic error budget, and an edge-SoC
    /// class DSP as the co-located digital platform.
    pub fn metro() -> Self {
        LowerConfig {
            budget: ErrorBudget::realistic(),
            model: ofpc_serve::ServiceModel::from_transponder(
                &ofpc_transponder::compute::ComputeTransponderConfig::realistic(),
                4,
            ),
            digital: ofpc_apps::digital::ComputeModel::edge_soc(),
            variants: Vec::new(),
        }
    }
}

/// Lower, place, and wrap `graph` into an executor in one call. The
/// digital platform of `cfg` doubles as the fault-fallback model.
pub fn compile(
    graph: &WorkGraph,
    cfg: &LowerConfig,
    topo: &Topology,
    node_slots: &[usize],
    src: NodeId,
    dst: NodeId,
    wdm_channels: usize,
) -> Result<GraphExecutor, CompileError> {
    let plan = lower(graph, cfg).map_err(CompileError::Lower)?;
    let placed =
        place(&plan, topo, node_slots, src, dst, wdm_channels).map_err(CompileError::Place)?;
    Ok(GraphExecutor::new(placed, cfg.digital.clone()))
}
