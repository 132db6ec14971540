//! Lowering: partition ops onto photonic or digital execution, fuse
//! adjacent stages, and attach per-stage latency/energy estimates.
//!
//! Partitioning is precision-driven: an op runs photonically only when
//! the [`ErrorBudget`] — the receiver SNR fed through
//! [`ofpc_engine::precision::predicted_effective_bits`] minus a safety
//! margin — predicts at least the op's `min_bits` at its operand
//! length. Everything else (and everything with no photonic form) runs
//! on the site's digital compute model.
//!
//! Fusion rules:
//! * a photonic MVM followed by a photonic activation of matching width
//!   fuses into one all-optical stage (the Bandyopadhyay DNN layer: the
//!   P3 unit gates the MVM's light in-line, no O/E conversion between
//!   them, so the activation adds no transport time);
//! * adjacent digital ops merge (one DSP invocation).
//!
//! Cost estimates come from the serving-layer [`ServiceModel`] (itself
//! derived from the transponder hardware config): photonic stages pay
//! the steady-state per-request streaming/readout price, with their
//! weight-reconfiguration charge accounted separately as a one-time
//! plan-install cost; digital stages pay the platform's
//! [`ComputeModel`] MAC time and energy.

use crate::ir::{GraphError, OpId, OpKind, WorkGraph};
use ofpc_apps::digital::ComputeModel;
use ofpc_engine::precision::predicted_effective_bits;
use ofpc_serve::{BatchClass, ServiceModel};
use ofpc_telemetry::{track, Telemetry};

/// A concrete hardware design point the lowerer may bind a stage to:
/// a named converter pairing with the [`ServiceModel`] priced from it
/// (see the `ofpc-dse` catalog). The converters bound what the link
/// SNR alone cannot: the operand DAC caps encoding resolution outright,
/// the result ADC caps readout resolution (recovering `½·log2(n)` bits
/// of integration gain over an `n`-element accumulation).
#[derive(Debug, Clone)]
pub struct HardwareVariant {
    /// Catalog name, e.g. `"cv-12b-fast"`.
    pub name: String,
    /// Operand DAC resolution, bits.
    pub dac_bits: f64,
    /// Result ADC resolution, bits.
    pub adc_bits: f64,
    /// Per-stage pricing derived from this variant's transponder.
    pub model: ServiceModel,
}

/// The analog error budget driving photonic/digital partitioning.
#[derive(Debug, Clone, Copy)]
pub struct ErrorBudget {
    /// Photodetector SNR at the operating optical power, dB.
    pub pd_snr_db: f64,
    /// Safety margin subtracted from the prediction, bits (DAC
    /// quantization, calibration residue, aging headroom).
    pub(crate) margin_bits: f64,
}

impl ErrorBudget {
    /// A realistic metro deployment: 40 dB receiver SNR, one bit of
    /// margin.
    pub fn realistic() -> Self {
        ErrorBudget {
            pd_snr_db: 40.0,
            margin_bits: 1.0,
        }
    }

    /// A degraded link (low received power): photonics only clears
    /// low-precision ops, pushing precision-critical stages digital.
    pub fn degraded() -> Self {
        ErrorBudget {
            pd_snr_db: 22.0,
            margin_bits: 1.0,
        }
    }

    /// Effective bits the budget affords an op of `n` operands.
    pub fn effective_bits(&self, n: usize) -> f64 {
        predicted_effective_bits(self.pd_snr_db, n) - self.margin_bits
    }

    /// Whether an op fits the budget photonically.
    pub(crate) fn admits(&self, kind: &OpKind, min_bits: f64) -> bool {
        kind.primitive().is_some() && self.effective_bits(kind.input_elems()) >= min_bits
    }

    /// Effective bits through a concrete hardware variant: the link
    /// prediction capped by the operand DAC resolution and by the
    /// result ADC resolution plus the `½·log2(n)` integration gain of
    /// accumulating `n` operands, minus the safety margin.
    pub(crate) fn effective_bits_with(&self, n: usize, v: &HardwareVariant) -> f64 {
        let link = predicted_effective_bits(self.pd_snr_db, n);
        let adc = v.adc_bits + 0.5 * (n.max(1) as f64).log2();
        link.min(v.dac_bits).min(adc) - self.margin_bits
    }

    /// Whether an op fits the budget on a specific hardware variant.
    pub(crate) fn admits_with(&self, kind: &OpKind, min_bits: f64, v: &HardwareVariant) -> bool {
        kind.primitive().is_some() && self.effective_bits_with(kind.input_elems(), v) >= min_bits
    }

    /// Select the hardware variant for one op: among the variants that
    /// clear `min_bits` at the op's operand length, the cheapest by
    /// per-request energy, then service time, then name (a total,
    /// deterministic order). `None` when no variant admits the op —
    /// the stage goes digital.
    pub(crate) fn select_variant(
        &self,
        kind: &OpKind,
        min_bits: f64,
        variants: &[HardwareVariant],
    ) -> Option<usize> {
        let primitive = kind.primitive()?;
        let class = BatchClass {
            primitive,
            operand_len: kind.input_elems() as u32,
        };
        let mut best: Option<(f64, u64, usize)> = None;
        for (vi, v) in variants.iter().enumerate() {
            if !self.admits_with(kind, min_bits, v) {
                continue;
            }
            let (service_ps, ledger) = v.model.request_service(class);
            let energy_j = ledger.total_j();
            let better = match best {
                None => true,
                Some((be, bs, bi)) => {
                    (energy_j, service_ps, v.name.as_str()) < (be, bs, variants[bi].name.as_str())
                }
            };
            if better {
                best = Some((energy_j, service_ps, vi));
            }
        }
        best.map(|(_, _, vi)| vi)
    }
}

/// Where a fused stage executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Target {
    Photonic,
    Digital,
}

/// One fused, costed stage of a compiled plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// IR ops fused into this stage, in execution order.
    pub(crate) ops: Vec<OpId>,
    /// Human-readable label, e.g. `"mvm+nonlinear"`.
    pub label: String,
    pub target: Target,
    /// The batch class a photonic stage occupies on a transponder slot.
    pub class: Option<BatchClass>,
    /// Operand stream length entering the stage, elements.
    pub(crate) operand_len: u32,
    /// MACs executed per request.
    pub(crate) macs: u64,
    /// Steady-state per-request service time, ps (weights pinned).
    pub service_ps: u64,
    /// Per-request energy, J.
    pub energy_j: f64,
    /// One-time weight/pattern install charge, ps (photonic stages).
    pub reconfig_ps: u64,
    /// One-time install energy, J.
    pub(crate) reconfig_j: f64,
    /// Effective bits the budget predicts for this stage (`∞` for
    /// digital stages — they are exact at the modeled precision).
    pub predicted_bits: f64,
    /// The hardware variant the lowerer bound this stage to (`None` for
    /// digital stages and for legacy single-model lowering).
    pub variant: Option<String>,
}

/// A lowered plan: the fused stage chain with cost estimates, ready for
/// placement.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPlan {
    pub graph_name: String,
    pub stages: Vec<Stage>,
}

impl CompiledPlan {
    pub fn photonic_stage_count(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| s.target == Target::Photonic)
            .count()
    }

    /// Sum of steady-state stage services, ps (the sequential service
    /// floor, excluding propagation).
    pub fn total_service_ps(&self) -> u64 {
        self.stages.iter().map(|s| s.service_ps).sum()
    }

    /// Per-request energy across all stages, J.
    pub fn energy_per_request_j(&self) -> f64 {
        self.stages.iter().map(|s| s.energy_j).sum()
    }

    /// One-time plan-install charge across all stages, ps.
    pub fn total_reconfig_ps(&self) -> u64 {
        self.stages.iter().map(|s| s.reconfig_ps).sum()
    }

    /// The weakest photonic stage's predicted bits — the plan's
    /// end-to-end effective resolution. `None` for all-digital plans.
    pub fn min_photonic_bits(&self) -> Option<f64> {
        self.stages
            .iter()
            .filter(|s| s.target == Target::Photonic)
            .map(|s| s.predicted_bits)
            .fold(None, |acc: Option<f64>, b| {
                Some(acc.map_or(b, |a| a.min(b)))
            })
    }

    /// Distinct hardware variants bound across photonic stages, in
    /// first-use order.
    pub fn variants_used(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for s in &self.stages {
            if let Some(v) = &s.variant {
                if !seen.contains(v) {
                    seen.push(v.clone());
                }
            }
        }
        seen
    }
}

/// Everything lowering needs to know about the deployment.
#[derive(Debug, Clone)]
pub struct LowerConfig {
    pub budget: ErrorBudget,
    /// Photonic per-stage pricing (from the transponder hardware) —
    /// the single-design-point model used when `variants` is empty.
    pub model: ServiceModel,
    /// The digital platform co-located at engine sites (fallback DSP).
    pub digital: ComputeModel,
    /// Candidate hardware variants from the component library. Empty =
    /// legacy behavior: every photonic stage priced by `model`. Non-empty
    /// = per-stage selection via `ErrorBudget::select_variant`; ops no
    /// variant admits go digital.
    pub variants: Vec<HardwareVariant>,
}

/// Lower a validated graph to a costed stage chain.
pub fn lower(graph: &WorkGraph, cfg: &LowerConfig) -> Result<CompiledPlan, GraphError> {
    graph.validate()?;
    let order = graph.topo_order().ok_or(GraphError::Cyclic)?;

    // Partition, then fuse in topological order.
    #[derive(Clone)]
    struct Pending {
        ops: Vec<OpId>,
        labels: Vec<&'static str>,
        target: Target,
        head_kind: OpKind,
        macs: u64,
        /// Index into `cfg.variants` (variant-mode photonic stages only).
        variant: Option<usize>,
    }
    let mut fused: Vec<Pending> = Vec::new();
    for &i in &order {
        let node = &graph.nodes[i];
        let (photonic, variant) = if cfg.variants.is_empty() {
            (cfg.budget.admits(&node.kind, node.min_bits), None)
        } else {
            let v = cfg
                .budget
                .select_variant(&node.kind, node.min_bits, &cfg.variants);
            (v.is_some(), v)
        };
        let target = if photonic {
            Target::Photonic
        } else {
            Target::Digital
        };
        let can_fuse = match fused.last() {
            Some(prev) if prev.target != target => false,
            Some(prev) => match (target, &prev.head_kind, &node.kind) {
                // Digital neighbors always merge.
                (Target::Digital, _, _) => true,
                // MVM + matching-width activation: one all-optical pass
                // — but only on the same hardware variant; distinct
                // parts mean an O/E boundary between them.
                (Target::Photonic, OpKind::Mvm { rows, .. }, OpKind::Nonlinear { width }) => {
                    prev.ops.len() == 1 && rows == width && prev.variant == variant
                }
                (Target::Photonic, _, _) => false,
            },
            None => false,
        };
        if can_fuse {
            let prev = fused.last_mut().expect("checked above");
            prev.ops.push(node.id);
            prev.labels.push(node.kind.label());
            prev.macs += node.kind.macs();
        } else {
            fused.push(Pending {
                ops: vec![node.id],
                labels: vec![node.kind.label()],
                target,
                head_kind: node.kind,
                macs: node.kind.macs(),
                variant,
            });
        }
    }

    // Cost each fused stage.
    let mut stages = Vec::with_capacity(fused.len());
    for p in fused {
        let operand_len = p.head_kind.input_elems() as u32;
        let stage = match p.target {
            Target::Photonic => {
                let class = BatchClass {
                    primitive: p.head_kind.primitive().expect("photonic op has primitive"),
                    operand_len,
                };
                // Variant-mode stages are priced by their selected
                // hardware's model; legacy stages by the deployment's.
                let (model, predicted_bits, variant) = match p.variant {
                    Some(vi) => {
                        let v = &cfg.variants[vi];
                        (
                            &v.model,
                            cfg.budget.effective_bits_with(operand_len as usize, v),
                            Some(v.name.clone()),
                        )
                    }
                    None => (
                        &cfg.model,
                        cfg.budget.effective_bits(operand_len as usize),
                        None,
                    ),
                };
                let (service_ps, ledger) = model.request_service(class);
                // The streaming pass pays one MAC per operand element;
                // wider engines (an MVM's rows) burn proportionally more
                // photonic MACs in the same pass.
                let extra_macs = p.macs.saturating_sub(u64::from(operand_len));
                let energy_j = ledger.total_j() + extra_macs as f64 * model.mac_j;
                let (reconfig_ps, reconfig_ledger) = model.reconfig_charge(class);
                Stage {
                    ops: p.ops,
                    label: p.labels.join("+"),
                    target: Target::Photonic,
                    class: Some(class),
                    operand_len,
                    macs: p.macs,
                    service_ps,
                    energy_j,
                    reconfig_ps,
                    reconfig_j: reconfig_ledger.total_j(),
                    predicted_bits,
                    variant,
                }
            }
            Target::Digital => Stage {
                ops: p.ops,
                label: p.labels.join("+"),
                target: Target::Digital,
                class: None,
                operand_len,
                macs: p.macs,
                service_ps: (cfg.digital.time_for_macs(p.macs) * 1e12) as u64,
                energy_j: cfg.digital.energy_for_macs(p.macs),
                reconfig_ps: 0,
                reconfig_j: 0.0,
                predicted_bits: f64::INFINITY,
                variant: None,
            },
        };
        stages.push(stage);
    }
    Ok(CompiledPlan {
        graph_name: graph.name.clone(),
        stages,
    })
}

/// Re-cost one photonic stage for digital execution on `digital` — the
/// fault-recovery path: only the failed site's stages change target,
/// everything else keeps its photonic costing.
pub(crate) fn relower_stage_digital(stage: &Stage, digital: &ComputeModel) -> Stage {
    Stage {
        ops: stage.ops.clone(),
        label: format!("{}@digital", stage.label),
        target: Target::Digital,
        class: None,
        operand_len: stage.operand_len,
        macs: stage.macs,
        service_ps: (digital.time_for_macs(stage.macs) * 1e12) as u64,
        energy_j: digital.energy_for_macs(stage.macs),
        reconfig_ps: 0,
        reconfig_j: 0.0,
        predicted_bits: f64::INFINITY,
        variant: None,
    }
}

/// [`lower`] with the selection decisions traced: one instant per stage
/// on the DSE telemetry track (`tid` = stage index) recording the
/// target, the bound hardware variant, and the predicted bits — the
/// audit trail a design-space sweep leaves behind.
pub fn lower_traced(
    graph: &WorkGraph,
    cfg: &LowerConfig,
    tel: &Telemetry,
) -> Result<CompiledPlan, GraphError> {
    let plan = lower(graph, cfg)?;
    for (k, s) in plan.stages.iter().enumerate() {
        tel.instant(
            track::DSE,
            k as u64,
            "dse",
            "dse.select",
            0,
            vec![
                ("stage", s.label.clone()),
                (
                    "target",
                    match s.target {
                        Target::Photonic => "photonic".to_string(),
                        Target::Digital => "digital".to_string(),
                    },
                ),
                (
                    "variant",
                    s.variant.clone().unwrap_or_else(|| "-".to_string()),
                ),
                ("bits", format!("{:.2}", s.predicted_bits)),
            ],
        );
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{correlation_graph, dnn_graph};
    use ofpc_engine::dnn::Mlp;
    use ofpc_photonics::SimRng;
    use ofpc_transponder::compute::ComputeTransponderConfig;

    fn test_cfg(budget: ErrorBudget) -> LowerConfig {
        LowerConfig {
            budget,
            model: ServiceModel::from_transponder(&ComputeTransponderConfig::realistic(), 4),
            digital: ComputeModel::edge_soc(),
            variants: Vec::new(),
        }
    }

    /// A test variant: the realistic transponder model with the operand
    /// DAC energy overridden so variants have distinct prices.
    fn variant(name: &str, dac_bits: f64, adc_bits: f64, dac_sample_j: f64) -> HardwareVariant {
        let mut model = ServiceModel::from_transponder(&ComputeTransponderConfig::realistic(), 4);
        model.dac_sample_j = dac_sample_j;
        HardwareVariant {
            name: name.to_string(),
            dac_bits,
            adc_bits,
            model,
        }
    }

    fn two_variants() -> Vec<HardwareVariant> {
        vec![
            variant("cv-8b", 8.0, 8.0, 1e-12),
            variant("cv-12b", 12.0, 8.0, 12e-12),
        ]
    }

    fn mlp() -> Mlp {
        let mut rng = SimRng::seed_from_u64(16);
        Mlp::new_random(&[16, 16, 16, 8], &mut rng)
    }

    #[test]
    fn dnn_lowers_all_photonic_and_fuses_layers() {
        let g = dnn_graph(&mlp(), 4.0, 6.0);
        let plan = lower(&g, &test_cfg(ErrorBudget::realistic())).expect("lowers");
        // Three layers: mvm+nonlinear, mvm+nonlinear, mvm.
        assert_eq!(plan.stages.len(), 3);
        assert_eq!(plan.photonic_stage_count(), 3);
        assert_eq!(plan.stages[0].label, "mvm+nonlinear");
        assert_eq!(plan.stages[2].label, "mvm");
        for s in &plan.stages {
            assert!(s.service_ps > 0 && s.energy_j > 0.0, "{s:?}");
            assert!(s.reconfig_ps > s.service_ps, "reconfig dominates: {s:?}");
        }
    }

    #[test]
    fn degraded_budget_pushes_precise_stages_digital() {
        let g = dnn_graph(&mlp(), 2.5, 8.0);
        let budget = ErrorBudget::degraded();
        // Sanity: the budget clears 2.5 bits at n=16 but not 8 bits.
        assert!(budget.effective_bits(16) > 2.5);
        assert!(budget.effective_bits(16) < 8.0);
        let plan = lower(&g, &test_cfg(budget)).expect("lowers");
        let last = plan.stages.last().expect("has stages");
        assert_eq!(last.target, Target::Digital, "output layer goes digital");
        assert!(
            plan.photonic_stage_count() >= 1,
            "hidden layers stay photonic"
        );
    }

    #[test]
    fn width_mismatch_blocks_fusion() {
        // mvm(6x4) → nonlinear(6) fuses; a lone nonlinear(6) after an
        // mvm(3x6) does not (width 3 ≠ 6 would be a shape error anyway;
        // use two nonlinears to exercise the photonic no-fuse arm).
        let g = crate::ir::WorkGraph::chain(
            "nn",
            &[
                (OpKind::Nonlinear { width: 8 }, 2.0),
                (OpKind::Nonlinear { width: 8 }, 2.0),
            ],
        );
        let plan = lower(&g, &test_cfg(ErrorBudget::realistic())).expect("lowers");
        assert_eq!(plan.stages.len(), 2, "photonic non-MVM ops do not fuse");
    }

    #[test]
    fn digital_neighbors_merge() {
        // The correlation shape at 30 bits: nothing photonic.
        let g = WorkGraph::chain(
            "correlation-detect",
            &[
                (
                    OpKind::Digital {
                        input_len: 64,
                        output_len: 64,
                        macs: 64,
                    },
                    30.0,
                ),
                (
                    OpKind::Correlate {
                        pattern_len: 16,
                        window: 64,
                    },
                    30.0,
                ),
                (OpKind::Compare { width: 49 }, 30.0),
            ],
        );
        let plan = lower(&g, &test_cfg(ErrorBudget::realistic())).expect("lowers");
        assert_eq!(plan.stages.len(), 1, "all-digital chain collapses");
        assert_eq!(plan.stages[0].target, Target::Digital);
        assert_eq!(plan.stages[0].macs, g.total_macs());
    }

    #[test]
    fn correlation_mixes_targets() {
        let g = correlation_graph(64, 16);
        let plan = lower(&g, &test_cfg(ErrorBudget::realistic())).expect("lowers");
        assert_eq!(plan.stages.len(), 3);
        assert_eq!(plan.stages[0].target, Target::Digital);
        assert_eq!(plan.stages[1].target, Target::Photonic);
        assert_eq!(plan.stages[2].target, Target::Photonic);
    }

    #[test]
    fn relowered_stage_keeps_work_changes_cost() {
        let g = dnn_graph(&mlp(), 4.0, 6.0);
        let plan = lower(&g, &test_cfg(ErrorBudget::realistic())).expect("lowers");
        let s = &plan.stages[0];
        let d = relower_stage_digital(s, &ComputeModel::edge_soc());
        assert_eq!(d.target, Target::Digital);
        assert_eq!(d.macs, s.macs);
        assert_eq!(d.ops, s.ops);
        assert!(d.label.ends_with("@digital"));
        assert!(d.service_ps > 0);
    }

    #[test]
    fn variant_lowering_binds_distinct_parts_per_stage() {
        // Hidden layers need 3.5 bits; the output layer needs 7.2. At
        // n=16 on a 40 dB link, the 8-bit DAC caps effective bits at
        // 8 − 1 = 7.0 — enough for hidden layers, short of the output —
        // so the lowerer must bind cheap 8-bit parts to the hidden
        // stages and escalate the output stage to the 12-bit variant.
        let g = dnn_graph(&mlp(), 3.5, 7.2);
        let mut cfg = test_cfg(ErrorBudget::realistic());
        cfg.variants = two_variants();
        let plan = lower(&g, &cfg).expect("lowers");
        assert_eq!(plan.stages.len(), 3);
        assert_eq!(plan.stages[0].variant.as_deref(), Some("cv-8b"));
        assert_eq!(plan.stages[1].variant.as_deref(), Some("cv-8b"));
        assert_eq!(plan.stages[2].variant.as_deref(), Some("cv-12b"));
        assert_eq!(plan.variants_used(), vec!["cv-8b", "cv-12b"]);
        // The binding changes the priced energy: the same graph lowered
        // with only the 12-bit variant is strictly more expensive.
        let mut expensive = cfg.clone();
        expensive.variants = vec![variant("cv-12b", 12.0, 8.0, 12e-12)];
        let plan12 = lower(&g, &expensive).expect("lowers");
        assert!(
            plan.energy_per_request_j() < plan12.energy_per_request_j(),
            "mixed {} !< all-12b {}",
            plan.energy_per_request_j(),
            plan12.energy_per_request_j()
        );
    }

    #[test]
    fn variant_caps_tighten_effective_bits() {
        let b = ErrorBudget::realistic();
        let v8 = variant("cv-8b", 8.0, 8.0, 1e-12);
        // DAC cap binds: 8 − 1 margin = 7.0, below the 7.35 link bits.
        assert!((b.effective_bits_with(16, &v8) - 7.0).abs() < 1e-9);
        assert!(b.effective_bits(16) > b.effective_bits_with(16, &v8));
        // A generous variant leaves the link prediction untouched.
        let v16 = variant("cv-16b", 16.0, 16.0, 1e-12);
        assert!((b.effective_bits_with(16, &v16) - b.effective_bits(16)).abs() < 1e-9);
    }

    #[test]
    fn no_admissible_variant_goes_digital() {
        let g = dnn_graph(&mlp(), 3.5, 7.2);
        let mut cfg = test_cfg(ErrorBudget::realistic());
        // 4-bit parts clear nothing here: every stage falls back digital.
        cfg.variants = vec![variant("cv-4b", 4.0, 4.0, 1e-12)];
        let plan = lower(&g, &cfg).expect("lowers");
        assert!(plan
            .stages
            .iter()
            .all(|s| s.target == Target::Digital && s.variant.is_none()));
        assert!(plan.variants_used().is_empty());
        assert!(plan.min_photonic_bits().is_none());
    }

    #[test]
    fn variant_mismatch_blocks_fusion() {
        // MVM at 3.5 bits binds cv-8b; the matching-width activation at
        // 7.2 bits needs cv-12b — different parts, so no all-optical
        // fusion across the O/E boundary between them.
        let g = crate::ir::WorkGraph::chain(
            "nn",
            &[
                (OpKind::Mvm { rows: 16, cols: 16 }, 3.5),
                (OpKind::Nonlinear { width: 16 }, 7.2),
            ],
        );
        let mut cfg = test_cfg(ErrorBudget::realistic());
        cfg.variants = two_variants();
        let plan = lower(&g, &cfg).expect("lowers");
        assert_eq!(plan.stages.len(), 2, "split stages: {plan:?}");
        assert_eq!(plan.stages[0].variant.as_deref(), Some("cv-8b"));
        assert_eq!(plan.stages[1].variant.as_deref(), Some("cv-12b"));
    }

    #[test]
    fn empty_variants_is_legacy_lowering() {
        let g = dnn_graph(&mlp(), 4.0, 6.0);
        let plan = lower(&g, &test_cfg(ErrorBudget::realistic())).expect("lowers");
        assert!(plan.stages.iter().all(|s| s.variant.is_none()));
        assert!(plan.variants_used().is_empty());
    }

    #[test]
    fn lower_traced_emits_one_dse_instant_per_stage() {
        let g = dnn_graph(&mlp(), 3.5, 7.2);
        let mut cfg = test_cfg(ErrorBudget::realistic());
        cfg.variants = two_variants();
        let tel = ofpc_telemetry::Telemetry::enabled();
        let plan = lower_traced(&g, &cfg, &tel).expect("lowers");
        let events = tel.trace_events();
        let dse: Vec<_> = events.iter().filter(|e| e.pid == track::DSE).collect();
        assert_eq!(dse.len(), plan.stages.len());
        assert!(dse.iter().all(|e| e.name == "dse.select"));
        let variants: Vec<_> = dse
            .iter()
            .flat_map(|e| e.args.iter())
            .filter(|(k, _)| *k == "variant")
            .map(|(_, v)| v.as_str())
            .collect();
        assert!(variants.contains(&"cv-8b") && variants.contains(&"cv-12b"));
    }

    #[test]
    fn cyclic_graph_fails_lowering() {
        let mut g = crate::ir::WorkGraph::new("cyc");
        let a = g.add_op(OpKind::Nonlinear { width: 4 }, 2.0);
        let b = g.add_op(OpKind::Nonlinear { width: 4 }, 2.0);
        g.connect(a, b);
        g.connect(b, a);
        assert!(lower(&g, &test_cfg(ErrorBudget::realistic())).is_err());
    }
}
