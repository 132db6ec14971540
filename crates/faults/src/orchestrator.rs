//! The recovery loop: detection → protection switching → re-allocation
//! → staged re-install, with time-to-recovery and availability
//! accounting.
//!
//! This is the controller's fault-handling half, composed from pieces
//! the other crates provide: `ofpc-net` reconverges routes around downed
//! links, `ofpc-core` re-runs the allocator with failed sites excluded
//! ([`ofpc_core::OnFiberNetwork::reallocate_excluding`]), and
//! `ofpc-controller`'s [`RecoveryTimeline`] prices the detection /
//! re-allocation / staged-install stages. The [`AvailabilityLedger`] folds the resulting
//! outage windows into the availability number experiment E13 sweeps
//! against MTBF.

use ofpc_controller::teupdate::UpdatePlan;
use ofpc_controller::RecoveryTimeline;
use ofpc_core::{OnFiberNetwork, Solver};
use ofpc_net::NodeId;
use ofpc_telemetry::{labels, track, Telemetry};
use std::collections::BTreeSet;

/// What one recovery pass did and how long it took.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    pub timeline: RecoveryTimeline,
    /// Distinct routers the re-install touched (staged, one at a time).
    pub routers_updated: usize,
    /// Engine installs in the new plan.
    pub(crate) installs: usize,
    /// Demands the post-fault allocation could not satisfy.
    pub unsatisfied: usize,
    /// Whether every command of the new plan applied cleanly.
    pub fully_applied: bool,
}

/// The recovery driver: owns the solver choice, operates on an
/// [`OnFiberNetwork`].
#[derive(Debug, Clone, Copy)]
pub struct Orchestrator {
    pub solver: Solver,
}

/// Distinct routers an update plan touches (install sites + override
/// routers) — the staged-install count that sets the last recovery
/// stage's duration.
pub(crate) fn routers_touched(plan: &UpdatePlan) -> usize {
    let mut nodes: BTreeSet<NodeId> = BTreeSet::new();
    for i in &plan.installs {
        nodes.insert(i.node);
    }
    for o in &plan.overrides {
        nodes.insert(o.router);
    }
    nodes.len()
}

impl Orchestrator {
    pub fn new(solver: Solver) -> Self {
        Orchestrator { solver }
    }

    /// Recover from a fiber cut first noticed (loss of light) at
    /// `fault_at_ps`: reconverge routing around the downed links, re-run
    /// the allocator (surviving sites only — none failed here, but
    /// placements may need to move off severed paths), and re-install.
    pub fn recover_from_cut(&self, sys: &mut OnFiberNetwork, fault_at_ps: u64) -> RecoveryOutcome {
        sys.net.reconverge_routes();
        let plan = sys.allocate_and_apply(self.solver).clone();
        self.outcome(sys, &plan, fault_at_ps)
    }

    /// Recover from engine hard-fails at `failed` sites detected at
    /// `fault_at_ps`: mark the sites out, re-run the allocator over the
    /// survivors, re-install.
    pub fn recover_from_engine_fail(
        &self,
        sys: &mut OnFiberNetwork,
        failed: &[NodeId],
        fault_at_ps: u64,
    ) -> RecoveryOutcome {
        let plan = sys.reallocate_excluding(failed, self.solver).clone();
        self.outcome(sys, &plan, fault_at_ps)
    }

    fn outcome(
        &self,
        sys: &OnFiberNetwork,
        plan: &UpdatePlan,
        fault_at_ps: u64,
    ) -> RecoveryOutcome {
        let routers = routers_touched(plan);
        RecoveryOutcome {
            timeline: RecoveryTimeline::new(fault_at_ps, routers),
            routers_updated: routers,
            installs: plan.installs.len(),
            unsatisfied: plan.unsatisfied.len(),
            fully_applied: sys.last_apply.as_ref().is_some_and(|r| r.fully_applied()),
        }
    }
}

/// The fault kind every traced recovery answers.
const KIND: &str = "fiber-cut";

/// Emit one fiber-cut recovery pass as structured trace events on
/// [`track::RECOVERY`] and bump the `recoveries_total{kind}` counter.
///
/// Each recovery gets its own trace lane (`tid = fault_at_ps`, unique in
/// a deterministic schedule), carrying an instant `fault.fiber-cut`
/// marker at the fault instant, one span per [`RecoveryTimeline::stages`]
/// stage, and a closing `recovery.complete` instant with the outcome
/// counts. [`Orchestrator`] stays `Copy`; callers thread the handle
/// explicitly.
pub fn trace_recovery(tel: &Telemetry, outcome: &RecoveryOutcome) {
    tel.counter("recoveries_total", &labels(&[("kind", KIND)]))
        .inc();
    if !tel.is_enabled() {
        return;
    }
    let tl = &outcome.timeline;
    let tid = tl.fault_at_ps;
    tel.instant(
        track::RECOVERY,
        tid,
        "fault",
        "fault.fiber-cut",
        tl.fault_at_ps,
        vec![("kind", KIND.into())],
    );
    for (name, start, end) in tl.stages() {
        tel.span(track::RECOVERY, tid, "recovery", name, start, end);
    }
    tel.instant(
        track::RECOVERY,
        tid,
        "fault",
        "recovery.complete",
        tl.installed_at_ps,
        vec![
            ("kind", KIND.into()),
            ("routers_updated", outcome.routers_updated.to_string()),
            ("installs", outcome.installs.to_string()),
            ("unsatisfied", outcome.unsatisfied.to_string()),
            ("fully_applied", outcome.fully_applied.to_string()),
            ("ttr_ps", tl.ttr_ps().to_string()),
        ],
    );
}

/// Downtime bookkeeping over a fixed horizon: outage windows are
/// recorded as they happen (overlaps and duplicates welcome), merged at
/// read time, and folded into an availability fraction.
#[derive(Debug, Clone, Default)]
pub struct AvailabilityLedger {
    pub(crate) horizon_ps: u64,
    outages: Vec<(u64, u64)>,
}

impl AvailabilityLedger {
    pub fn new(horizon_ps: u64) -> Self {
        assert!(horizon_ps > 0, "horizon must be positive");
        AvailabilityLedger {
            horizon_ps,
            outages: Vec::new(),
        }
    }

    /// Record an outage `[start_ps, end_ps)`, clamped to the horizon.
    pub fn record(&mut self, start_ps: u64, end_ps: u64) {
        let start = start_ps.min(self.horizon_ps);
        let end = end_ps.min(self.horizon_ps);
        if end > start {
            self.outages.push((start, end));
        }
    }

    /// Record the outage implied by one recovery: fault to full
    /// re-install.
    pub fn record_recovery(&mut self, t: &RecoveryTimeline) {
        self.record(t.fault_at_ps, t.installed_at_ps);
    }

    /// Total downtime with overlapping windows merged, ps.
    pub fn downtime_ps(&self) -> u64 {
        let mut sorted = self.outages.clone();
        sorted.sort_unstable();
        let mut total = 0;
        let mut cur: Option<(u64, u64)> = None;
        for (s, e) in sorted {
            match cur {
                Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    total += ce - cs;
                    cur = Some((s, e));
                }
                None => cur = Some((s, e)),
            }
        }
        if let Some((cs, ce)) = cur {
            total += ce - cs;
        }
        total
    }

    /// Fraction of the horizon the substrate was up.
    pub fn availability(&self) -> f64 {
        1.0 - self.downtime_ps() as f64 / self.horizon_ps as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofpc_controller::demand::{Demand, TaskDag};
    use ofpc_engine::Primitive;
    use ofpc_net::packet::Packet;
    use ofpc_net::pch::PchHeader;
    use ofpc_net::sim::{Network, OpSpec};
    use ofpc_net::Topology;

    const P1: Primitive = Primitive::VectorDotProduct;

    fn fig1_system() -> OnFiberNetwork {
        let mut sys = OnFiberNetwork::new(Topology::fig1(), 7);
        sys.upgrade_site(NodeId(1), 1);
        sys.upgrade_site(NodeId(2), 1);
        sys.submit_demand(
            Demand::new(1, NodeId(0), NodeId(3), TaskDag::single(P1)),
            OpSpec::Dot {
                weights: vec![0.25; 8],
            },
        );
        sys
    }

    fn orch() -> Orchestrator {
        Orchestrator::new(Solver::Exact {
            node_budget: 1_000_000,
        })
    }

    fn drive_packet(sys: &mut OnFiberNetwork, at_ps: u64) {
        let pch = PchHeader::request(P1, 1, 8);
        let p = Packet::compute(
            Network::node_addr(NodeId(0), 1),
            Network::node_addr(NodeId(3), 1),
            1,
            pch,
            Packet::encode_operands(&[0.5; 8]),
        );
        sys.net.inject(at_ps, NodeId(0), p);
        sys.net.run_to_idle();
    }

    #[test]
    fn cut_recovery_restores_computed_delivery_within_bound() {
        let mut sys = fig1_system();
        let o = orch();
        sys.allocate_and_apply(o.solver);
        // Cut the first link on A's side of the primary path.
        let a = sys.net.topo.find_node("A").unwrap();
        let (cut_link, _) = sys.net.topo.neighbors(a)[0];
        sys.net.set_link_up(cut_link, false);

        let fault_at = 1_000_000;
        let out = o.recover_from_cut(&mut sys, fault_at);
        assert!(out.fully_applied, "re-install must apply cleanly");
        assert_eq!(out.unsatisfied, 0);
        assert!(out.routers_updated >= 1);
        let bound = ofpc_controller::ttr_bound_ps(sys.net.topo.node_count());
        assert!(
            out.timeline.ttr_ps() <= bound,
            "ttr {} exceeds bound {bound}",
            out.timeline.ttr_ps()
        );
        // Service restored: traffic injected after recovery computes.
        drive_packet(&mut sys, out.timeline.installed_at_ps);
        assert_eq!(sys.net.stats.delivered_count(), 1);
        assert!(sys.net.stats.delivered[0].computed);
    }

    #[test]
    fn engine_fail_recovery_moves_compute_to_survivor() {
        let mut sys = fig1_system();
        let o = orch();
        let first = sys.allocate_and_apply(o.solver).clone();
        let failed = first.installs[0].node;
        let out = o.recover_from_engine_fail(&mut sys, &[failed], 500_000);
        assert_eq!(out.unsatisfied, 0, "survivor absorbs the demand");
        assert_eq!(out.installs, 1);
        assert!(out.fully_applied);
        let moved = sys.last_plan.as_ref().unwrap().installs[0].node;
        assert_ne!(moved, failed);
        drive_packet(&mut sys, out.timeline.installed_at_ps);
        assert_eq!(sys.net.stats.delivered_count(), 1);
        assert!(sys.net.stats.delivered[0].computed);
    }

    #[test]
    fn ledger_merges_overlapping_outages() {
        let mut l = AvailabilityLedger::new(1_000);
        l.record(100, 300);
        l.record(200, 400); // overlaps the first
        l.record(400, 450); // touches: still one merged window
        l.record(900, 2_000); // clamped at the horizon
        assert_eq!(l.outages.len(), 4);
        assert_eq!(l.downtime_ps(), (450 - 100) + (1_000 - 900));
        assert!((l.availability() - 0.55).abs() < 1e-12);
    }

    #[test]
    fn empty_ledger_is_fully_available() {
        let l = AvailabilityLedger::new(1_000);
        assert_eq!(l.downtime_ps(), 0);
        assert_eq!(l.availability(), 1.0);
    }
}
