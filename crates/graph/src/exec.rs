//! The plan executor: drive a placed plan as a stream of multi-hop
//! requests, pipelined across wavelengths, with per-stage telemetry
//! spans and fault-aware re-lowering.
//!
//! Execution is a deterministic closed-form recurrence over integer
//! picoseconds, priced by the same serving-layer [`ServiceModel`]
//! numbers the lowering pass baked into each stage:
//!
//! * **Pipelined** (the compiled plan): each stage is a resource keyed
//!   by `(site, wavelength)` — distinct stages on distinct wavelengths
//!   never contend, so stage *k+1* of request *i* overlaps stage *k* of
//!   request *i+1* and steady-state throughput approaches
//!   `1 / max(stage service)`.
//! * **Sequential** (the naive baseline): one request owns the whole
//!   chain end to end; the next request starts only after the previous
//!   one delivers. Throughput is `1 / (Σ services + path)`.
//!
//! A failed engine site re-lowers *only its own stages* to the local
//! digital fallback (`crate::lower::relower_stage_digital`); healthy
//! sites keep their photonic costing. Fault schedules arrive as
//! [`ofpc_faults::FaultPlan`] events, the same currency the recovery
//! orchestrator uses.
//!
//! [`ServiceModel`]: ofpc_serve::ServiceModel

use crate::lower::{relower_stage_digital, Stage, Target};
use crate::place::PlacedPlan;
use ofpc_apps::digital::ComputeModel;
use ofpc_faults::{FaultKind, FaultPlan};
use ofpc_net::NodeId;
use ofpc_telemetry::{track, Telemetry};
use serde::Serialize;
use std::collections::BTreeSet;

/// How the request stream is driven through the plan.
#[derive(Debug, Clone, Copy)]
pub enum ExecMode {
    /// Wavelength-pipelined: stages are independent resources.
    Pipelined,
    /// Naive sequential: a request owns the whole chain exclusively.
    Sequential,
}

impl ExecMode {
    pub(crate) fn label(&self) -> &'static str {
        match self {
            ExecMode::Pipelined => "pipelined",
            ExecMode::Sequential => "sequential",
        }
    }
}

/// One execution run's shape: a closed batch of `requests`, all
/// arriving at time 0.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    pub requests: usize,
    pub mode: ExecMode,
}

/// Deterministic results of one run.
#[derive(Debug, Clone, Serialize)]
pub struct ExecReport {
    pub mode: String,
    pub requests: usize,
    pub stages: usize,
    /// Stages executing digitally (never-photonic plus re-lowered).
    pub digital_stages: usize,
    /// Stage indices re-lowered to digital by site faults.
    pub relowered_stages: Vec<usize>,
    /// One-time plan-install charge (weight/pattern loads), ps.
    pub(crate) install_ps: u64,
    /// First arrival to last delivery, ps.
    pub(crate) makespan_ps: u64,
    /// Delivered requests per second of makespan.
    pub throughput_rps: f64,
    pub mean_latency_ps: u64,
    pub p99_latency_ps: u64,
    pub energy_per_request_j: f64,
    /// Service time accumulated per stage across the run, ps.
    pub(crate) stage_busy_ps: Vec<u64>,
}

/// Executes a placed plan; owns the fault state and telemetry handle.
#[derive(Debug, Clone)]
pub struct GraphExecutor {
    placed: PlacedPlan,
    fallback: ComputeModel,
    failed: BTreeSet<u32>,
    tel: Telemetry,
}

impl GraphExecutor {
    /// `fallback` is the digital platform co-located at engine sites
    /// that absorbs re-lowered stages.
    pub(crate) fn new(placed: PlacedPlan, fallback: ComputeModel) -> Self {
        GraphExecutor {
            placed,
            fallback,
            failed: BTreeSet::new(),
            tel: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry handle: per-stage spans land on
    /// [`track::GRAPH`] (`tid` = request index), re-lowering instants on
    /// [`track::RECOVERY`].
    pub fn with_telemetry(mut self, tel: &Telemetry) -> Self {
        self.tel = tel.clone();
        self
    }

    pub fn placed(&self) -> &PlacedPlan {
        &self.placed
    }

    /// Mark `node` failed and re-lower its photonic stages to the
    /// digital fallback. Returns how many stages changed; idempotent.
    pub(crate) fn fail_site(&mut self, node: NodeId) -> usize {
        if !self.failed.insert(node.0) {
            return 0;
        }
        let changed = self.stages_bound_to(node);
        for &k in &changed {
            self.tel.instant(
                track::RECOVERY,
                u64::from(node.0),
                "graph",
                "graph.relower",
                0,
                vec![
                    ("stage", k.to_string()),
                    ("node", node.0.to_string()),
                    ("to", "digital".to_string()),
                ],
            );
        }
        changed.len()
    }

    /// Repair `node`: its stages return to photonic execution.
    pub fn repair_site(&mut self, node: NodeId) -> usize {
        if !self.failed.remove(&node.0) {
            return 0;
        }
        self.stages_bound_to(node).len()
    }

    /// Apply every engine fail/repair event of a fault plan (fiber and
    /// noise events are the serving stack's concern, not the plan's).
    /// Returns the number of stage re-lowerings applied.
    pub fn apply_faults(&mut self, plan: &FaultPlan) -> usize {
        let mut relowered = 0;
        for ev in &plan.events {
            match ev.kind {
                FaultKind::EngineFail { node } => relowered += self.fail_site(node),
                FaultKind::EngineRepair { node } => {
                    self.repair_site(node);
                }
                _ => {}
            }
        }
        relowered
    }

    /// Photonic stage indices bound to `node`.
    fn stages_bound_to(&self, node: NodeId) -> Vec<usize> {
        self.placed
            .bindings
            .iter()
            .filter(|b| {
                b.node == node && self.placed.plan.stages[b.stage].target == Target::Photonic
            })
            .map(|b| b.stage)
            .collect()
    }

    /// The stage chain with fault re-lowering applied.
    fn effective_stages(&self) -> (Vec<Stage>, Vec<usize>) {
        let mut relowered = Vec::new();
        let stages = self
            .placed
            .plan
            .stages
            .iter()
            .enumerate()
            .map(|(k, s)| {
                let node = self.placed.bindings[k].node;
                if s.target == Target::Photonic && self.failed.contains(&node.0) {
                    relowered.push(k);
                    relower_stage_digital(s, &self.fallback)
                } else {
                    s.clone()
                }
            })
            .collect();
        (stages, relowered)
    }

    /// Run `cfg.requests` requests through the plan. Pure integer
    /// arithmetic over the compiled costs — byte-deterministic.
    pub fn run(&self, cfg: &ExecConfig) -> ExecReport {
        assert!(cfg.requests >= 1, "need at least one request");
        let (stages, relowered) = self.effective_stages();
        let bindings = &self.placed.bindings;
        let n_stages = stages.len();

        // Pipelined contention model: photonic stages contend iff they
        // share a (site, wavelength) pair; digital stages are their own
        // resource (the site DSP is not wavelength-limited here).
        let mut resource_of = Vec::with_capacity(n_stages);
        {
            let mut keys: Vec<(u32, usize, bool)> = Vec::new();
            for (k, s) in stages.iter().enumerate() {
                let key = match s.target {
                    Target::Photonic => (bindings[k].node.0, bindings[k].wavelength, true),
                    Target::Digital => (k as u32, 0, false),
                };
                let idx = keys.iter().position(|&x| x == key).unwrap_or_else(|| {
                    keys.push(key);
                    keys.len() - 1
                });
                resource_of.push(idx);
            }
        }
        let n_resources = resource_of.iter().map(|&r| r + 1).max().unwrap_or(0);

        let install_ps: u64 = stages.iter().map(|s| s.reconfig_ps).sum();
        let energy_per_request_j: f64 = stages.iter().map(|s| s.energy_j).sum();

        let mut free = vec![0u64; n_resources];
        let mut busy = vec![0u64; n_stages];
        let mut seq_free = 0u64;
        let mut latencies = Vec::with_capacity(cfg.requests);
        let mut last_delivery = 0u64;
        for i in 0..cfg.requests {
            let mut t = match cfg.mode {
                ExecMode::Pipelined => 0,
                ExecMode::Sequential => seq_free,
            };
            for k in 0..n_stages {
                t += bindings[k].hop_in_ps;
                let start = t.max(free[resource_of[k]]);
                let done = start + stages[k].service_ps;
                free[resource_of[k]] = done;
                busy[k] += stages[k].service_ps;
                if self.tel.is_enabled() {
                    let name = format!("stage{k}.{}", stages[k].label);
                    self.tel
                        .span(track::GRAPH, i as u64, "graph", name, start, done);
                }
                t = done;
            }
            t += self.placed.hop_out_ps;
            seq_free = t;
            last_delivery = t;
            latencies.push(t);
        }

        let makespan_ps = last_delivery.max(1);
        let mut sorted = latencies.clone();
        sorted.sort_unstable();
        let p99_idx = ((cfg.requests as f64 * 0.99).ceil() as usize).clamp(1, cfg.requests) - 1;
        ExecReport {
            mode: cfg.mode.label().to_string(),
            requests: cfg.requests,
            stages: n_stages,
            digital_stages: stages
                .iter()
                .filter(|s| s.target == Target::Digital)
                .count(),
            relowered_stages: relowered,
            install_ps,
            makespan_ps,
            throughput_rps: cfg.requests as f64 / (makespan_ps as f64 * 1e-12),
            mean_latency_ps: latencies.iter().sum::<u64>() / cfg.requests as u64,
            p99_latency_ps: sorted[p99_idx],
            energy_per_request_j,
            stage_busy_ps: busy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::dnn_graph;
    use crate::lower::{lower, ErrorBudget, LowerConfig};
    use crate::place::place;
    use ofpc_engine::dnn::Mlp;
    use ofpc_net::Topology;
    use ofpc_photonics::SimRng;
    use ofpc_serve::ServiceModel;
    use ofpc_transponder::compute::ComputeTransponderConfig;

    fn executor() -> GraphExecutor {
        let mut rng = SimRng::seed_from_u64(16);
        let mlp = Mlp::new_random(&[16, 16, 16, 8], &mut rng);
        let g = dnn_graph(&mlp, 4.0, 6.0);
        let cfg = LowerConfig {
            budget: ErrorBudget::realistic(),
            model: ServiceModel::from_transponder(&ComputeTransponderConfig::realistic(), 4),
            digital: ComputeModel::edge_soc(),
            variants: Vec::new(),
        };
        let plan = lower(&g, &cfg).expect("lowers");
        let placed = place(
            &plan,
            &Topology::fig1(),
            &[0, 2, 2, 0],
            NodeId(0),
            NodeId(3),
            4,
        )
        .expect("places");
        GraphExecutor::new(placed, ComputeModel::edge_soc())
    }

    fn closed_batch(mode: ExecMode) -> ExecConfig {
        ExecConfig { requests: 64, mode }
    }

    #[test]
    fn pipelined_beats_sequential_throughput() {
        let ex = executor();
        let pipe = ex.run(&closed_batch(ExecMode::Pipelined));
        let seq = ex.run(&closed_batch(ExecMode::Sequential));
        assert!(
            pipe.throughput_rps > 1.5 * seq.throughput_rps,
            "pipelined {} vs sequential {}",
            pipe.throughput_rps,
            seq.throughput_rps
        );
        // Same work, same energy per request.
        assert_eq!(pipe.energy_per_request_j, seq.energy_per_request_j);
        // Per-request latency is never better sequentially.
        assert!(pipe.mean_latency_ps <= seq.mean_latency_ps);
    }

    #[test]
    fn runs_are_deterministic() {
        let ex = executor();
        let a = ex.run(&closed_batch(ExecMode::Pipelined));
        let b = ex.run(&closed_batch(ExecMode::Pipelined));
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn failed_site_relowers_only_its_stages() {
        let mut ex = executor();
        let sites = ex.placed().photonic_sites();
        assert!(sites.len() >= 2, "fig1 spreads stages over two sites");
        let victim = sites[0];
        let changed = ex.fail_site(victim);
        assert!(changed >= 1);
        let report = ex.run(&closed_batch(ExecMode::Pipelined));
        assert_eq!(report.relowered_stages.len(), changed);
        // Stages on the surviving site stayed photonic.
        assert!(report.digital_stages < report.stages);
        // Repair restores the all-photonic plan.
        assert_eq!(ex.repair_site(victim), changed);
        let healed = ex.run(&closed_batch(ExecMode::Pipelined));
        assert!(healed.relowered_stages.is_empty());
        assert!(healed.energy_per_request_j < report.energy_per_request_j);
    }

    #[test]
    fn fault_plan_events_drive_relowering() {
        let mut ex = executor();
        let victim = ex.placed().photonic_sites()[0];
        let plan = FaultPlan {
            events: vec![ofpc_faults::FaultEvent {
                at_ps: 1_000,
                kind: FaultKind::EngineFail { node: victim },
            }],
        };
        assert!(ex.apply_faults(&plan) >= 1);
        // Idempotent: re-applying the same plan changes nothing.
        assert_eq!(ex.apply_faults(&plan), 0);
    }

    #[test]
    fn telemetry_spans_cover_every_stage_and_request() {
        let tel = Telemetry::enabled();
        let ex = executor().with_telemetry(&tel);
        let cfg = ExecConfig {
            requests: 4,
            mode: ExecMode::Pipelined,
        };
        let report = ex.run(&cfg);
        let events = tel.trace_events();
        let spans = ofpc_telemetry::validate_balanced(&events).expect("balanced");
        assert_eq!(spans, report.stages * cfg.requests);
        assert!(events.iter().all(|e| e.pid == track::GRAPH));
    }

    #[test]
    fn telemetry_does_not_perturb_results() {
        let tel = Telemetry::enabled();
        let bare = executor().run(&closed_batch(ExecMode::Pipelined));
        let traced = executor()
            .with_telemetry(&tel)
            .run(&closed_batch(ExecMode::Pipelined));
        assert_eq!(
            serde_json::to_string(&bare).unwrap(),
            serde_json::to_string(&traced).unwrap()
        );
    }
}
