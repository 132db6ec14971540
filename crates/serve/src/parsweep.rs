//! Scenario-level fan-out of serving runs over the worker pool.
//!
//! A serving run's event loop is inherently sequential — virtual time
//! advances one event at a time — but experiment harnesses (E12's load
//! sweep, E13's MTBF sweep, E14's overhead comparison) run many
//! *independent* runs, each a pure function of its [`SweepScenario`].
//! [`run_sweep`] scatters those runs across an [`ofpc_par::WorkerPool`]
//! and gathers the reports in scenario order, so the harness's tables
//! and dumped JSON stay byte-identical to the sequential loop at any
//! worker count.
//!
//! Every scenario carries its own seeds (the network seed and
//! `config.seed`); nothing is drawn from a shared stream, which is the
//! seed-splitting contract of DESIGN.md §8 in its simplest form.

use ofpc_core::OnFiberNetwork;
use ofpc_net::{NodeId, Topology};
use ofpc_par::WorkerPool;
use ofpc_transponder::compute::ComputeTransponderConfig;

use crate::metrics::ServeReport;
use crate::runtime::{EngineFaultEvent, ServeConfig, ServeRuntime};

/// A complete, by-value description of one serving run: line topology,
/// site upgrades, transponder inventory, serving config, and optional
/// fault schedule. Built in code; the sweep writes only the reports.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepScenario {
    /// Free-form tag carried through to diagnostics.
    pub label: String,
    /// Line-topology node count.
    pub nodes: usize,
    /// Span length between adjacent nodes, km.
    pub span_km: f64,
    /// Seed for the network's device noise streams.
    pub net_seed: u64,
    /// `(node, engine_slots)` site upgrades applied in order.
    pub upgrades: Vec<(u32, usize)>,
    /// Node hosting the serving front-end.
    pub front_end: u32,
    /// WDM channels per compute transponder.
    pub wdm_channels: usize,
    /// `true` → realistic transponder devices, `false` → ideal.
    pub realistic_transponder: bool,
    /// The serving configuration (tenants, batching, horizon, seed).
    pub config: ServeConfig,
    /// Scheduled engine-site fault transitions.
    pub engine_faults: Vec<EngineFaultEvent>,
    /// Arm the digital CPU fallback path for faulted requests.
    pub digital_fallback: bool,
    /// Kernel backend for the runtime's verification engine. `Scalar`
    /// leaves the runtime byte-identical to historical fixtures;
    /// `Vectorized` runs verification on the fused kernels.
    pub verify_backend: ofpc_engine::dot::KernelBackend,
}

impl SweepScenario {
    /// The harnesses' standard metro deployment: a three-node line with
    /// 10 km spans and one engine slot at each downstream site.
    pub fn metro(label: &str, net_seed: u64, wdm_channels: usize, config: ServeConfig) -> Self {
        SweepScenario {
            label: label.to_string(),
            nodes: 3,
            span_km: 10.0,
            net_seed,
            upgrades: vec![(1, 1), (2, 1)],
            front_end: 0,
            wdm_channels,
            realistic_transponder: true,
            config,
            engine_faults: Vec::new(),
            digital_fallback: false,
            verify_backend: ofpc_engine::dot::KernelBackend::Scalar,
        }
    }

    /// Build and run the scenario to completion. Pure: same scenario →
    /// same report bytes, on any thread.
    pub fn run(&self) -> ServeReport {
        self.build().run()
    }

    /// Run with an observability handle attached (telemetry never
    /// perturbs the simulation, so the report matches [`Self::run`]).
    pub fn run_with_telemetry(&self, tel: &ofpc_telemetry::Telemetry) -> ServeReport {
        self.build().with_telemetry(tel).run()
    }

    fn build(&self) -> ServeRuntime {
        let mut sys = OnFiberNetwork::new(Topology::line(self.nodes, self.span_km), self.net_seed);
        for &(node, slots) in &self.upgrades {
            sys.upgrade_site(NodeId(node), slots);
        }
        let transponder = if self.realistic_transponder {
            ComputeTransponderConfig::realistic()
        } else {
            ComputeTransponderConfig::ideal()
        };
        let mut runtime = ServeRuntime::over_network(
            &sys,
            NodeId(self.front_end),
            &transponder,
            self.wdm_channels,
            self.config.clone(),
        )
        .with_engine_faults(&self.engine_faults)
        .with_verify_backend(self.verify_backend);
        if self.digital_fallback {
            runtime = runtime.with_digital_fallback(ofpc_apps::digital::ComputeModel::cpu());
        }
        runtime
    }
}

/// Run every scenario across the pool, reports in scenario order.
pub fn run_sweep(pool: &WorkerPool, scenarios: Vec<SweepScenario>) -> Vec<ServeReport> {
    pool.scatter_gather("serve-sweep", scenarios, |_, s| s.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalSpec;
    use crate::batcher::BatchPolicy;
    use crate::runtime::TenantSpec;
    use ofpc_engine::Primitive;

    fn tiny_config(seed: u64, rate_rps: f64) -> ServeConfig {
        ServeConfig {
            seed,
            horizon_ps: 50_000_000, // 50 µs
            drain_grace_ps: 50_000_000,
            batch: BatchPolicy {
                max_batch: 4,
                max_wait_ps: 2_000_000,
            },
            tenants: vec![TenantSpec {
                name: "t0".to_string(),
                weight: 1,
                queue_capacity: 16,
                arrivals: ArrivalSpec::Poisson { rate_rps },
                primitive: Primitive::VectorDotProduct,
                operand_len: 256,
                deadline_ps: 10_000_000_000,
            }],
            verify_every: 64,
        }
    }

    fn grid() -> Vec<SweepScenario> {
        (0..5)
            .map(|i| {
                SweepScenario::metro(
                    &format!("load-{i}"),
                    7,
                    2,
                    tiny_config(7, 50_000.0 * (i + 1) as f64),
                )
            })
            .collect()
    }

    #[test]
    fn sweep_reports_are_byte_identical_across_worker_counts() {
        let bytes = |workers: usize| {
            let reports = run_sweep(&WorkerPool::new(workers), grid());
            serde_json::to_string_pretty(&reports).expect("serializes")
        };
        let seq = bytes(1);
        assert_eq!(seq, bytes(2));
        assert_eq!(seq, bytes(8));
    }

    #[test]
    fn sweep_order_follows_grid_order() {
        let pool = WorkerPool::new(4);
        let reports = run_sweep(&pool, grid());
        assert_eq!(reports.len(), 5);
        // Offered load rises across the grid; arrival counts must not
        // decrease with it on this short horizon.
        let arrivals: Vec<u64> = reports.iter().map(|r| r.arrivals).collect();
        for w in arrivals.windows(2) {
            assert!(w[1] >= w[0], "arrival counts out of order: {arrivals:?}");
        }
    }
}
