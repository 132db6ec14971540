//! Fault plans: deterministic schedules of timed fault events.
//!
//! A [`FaultPlan`] is data, not behavior — the same plan injected into
//! the same seeded network yields the same packet-level timeline, which
//! is what makes fault scenarios replayable (the workspace replay tests
//! pin this). Plans are built by hand for targeted scenarios (cut *this*
//! fiber at *this* time) or generated from MTBF/MTTR statistics with a
//! seeded RNG for availability sweeps.

use ofpc_net::{LinkId, NodeId, Topology};
use ofpc_photonics::SimRng;

/// One kind of fault (or repair) the substrate can suffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Fiber cut: the link drops, queued and in-flight packets are lost
    /// as loss-of-light.
    FiberCut { link: LinkId },
    /// The cut fiber is spliced (or the flap ends): link restored.
    LinkRestore { link: LinkId },
    /// Every engine slot at the site hard-fails; packets pass through
    /// tagged `EngineUnhealthy` instead of carrying garbage results.
    EngineFail { node: NodeId },
    /// The failed site is repaired.
    EngineRepair { node: NodeId },
    /// Analog noise at the site steps to `sigma` — one rung of a slow
    /// drift ramp (EDFA gain wander, laser droop, PD degradation).
    NoiseStep { node: NodeId, sigma: f64 },
}

/// A fault at a point in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    pub at_ps: u64,
    pub kind: FaultKind,
}

/// A schedule of fault events, kept sorted by time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    pub events: Vec<FaultEvent>,
}

/// Mean-time-between-failures statistics for random plan generation.
/// All times in picoseconds of virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MtbfSpec {
    /// Mean time between fiber cuts, per link (exponential inter-fault
    /// times). `None` disables link faults.
    pub link_mtbf_ps: Option<u64>,
    /// Mean time between engine hard-fails, per compute site. `None`
    /// disables engine faults.
    pub engine_mtbf_ps: Option<u64>,
    /// Mean time to repair, applied to both fault classes.
    pub mttr_ps: u64,
}

impl FaultPlan {
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add one event, keeping the schedule time-sorted (stable: events
    /// at the same instant keep insertion order).
    pub fn push(&mut self, ev: FaultEvent) {
        let idx = self.events.partition_point(|e| e.at_ps <= ev.at_ps);
        self.events.insert(idx, ev);
    }

    /// Cut `link` at `at_ps`, permanently.
    pub fn cut(mut self, at_ps: u64, link: LinkId) -> Self {
        self.push(FaultEvent {
            at_ps,
            kind: FaultKind::FiberCut { link },
        });
        self
    }

    /// Flap `link`: down at `at_ps`, back up `down_ps` later.
    pub fn flap(mut self, at_ps: u64, link: LinkId, down_ps: u64) -> Self {
        self.push(FaultEvent {
            at_ps,
            kind: FaultKind::FiberCut { link },
        });
        self.push(FaultEvent {
            at_ps: at_ps + down_ps,
            kind: FaultKind::LinkRestore { link },
        });
        self
    }

    /// Hard-fail the engines at `node` at `at_ps`, permanently.
    pub fn engine_fail(mut self, at_ps: u64, node: NodeId) -> Self {
        self.push(FaultEvent {
            at_ps,
            kind: FaultKind::EngineFail { node },
        });
        self
    }

    /// Hard-fail then repair the engines at `node`.
    pub fn engine_outage(mut self, at_ps: u64, node: NodeId, down_ps: u64) -> Self {
        self.push(FaultEvent {
            at_ps,
            kind: FaultKind::EngineFail { node },
        });
        self.push(FaultEvent {
            at_ps: at_ps + down_ps,
            kind: FaultKind::EngineRepair { node },
        });
        self
    }

    /// A staircase noise ramp at `node`: `steps` rungs starting at
    /// `start_ps`, spaced `step_ps`, with sigma given per rung — how a
    /// slow analog drift enters the packet simulator.
    pub fn noise_ramp(mut self, node: NodeId, start_ps: u64, step_ps: u64, sigmas: &[f64]) -> Self {
        for (i, &sigma) in sigmas.iter().enumerate() {
            self.push(FaultEvent {
                at_ps: start_ps + i as u64 * step_ps,
                kind: FaultKind::NoiseStep { node, sigma },
            });
        }
        self
    }

    /// Link up/down transitions as `(at_ps, link, up)` tuples, time
    /// order preserved — the topology-level view a controller (rather
    /// than the packet simulator) consumes: the sharded allocator maps
    /// these to shard-local re-plans on cut and repair.
    pub fn link_events(&self) -> Vec<(u64, LinkId, bool)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::FiberCut { link } => Some((e.at_ps, link, false)),
                FaultKind::LinkRestore { link } => Some((e.at_ps, link, true)),
                _ => None,
            })
            .collect()
    }

    /// Engine-site up/down transitions as `(at_ps, node, up)` tuples,
    /// time order preserved — the compute-capacity view: a site going
    /// down must shed its live allocations (shard-local re-plan), a
    /// repair returns its slots to the pool.
    pub fn engine_events(&self) -> Vec<(u64, NodeId, bool)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::EngineFail { node } => Some((e.at_ps, node, false)),
                FaultKind::EngineRepair { node } => Some((e.at_ps, node, true)),
                _ => None,
            })
            .collect()
    }

    /// Generate a random plan over `[0, horizon_ps)` from MTBF/MTTR
    /// statistics: every link and every listed compute site runs an
    /// independent fail/repair renewal process with exponential
    /// inter-fault times. Deterministic for a given RNG state.
    pub fn random(
        topo: &Topology,
        sites: &[NodeId],
        horizon_ps: u64,
        spec: MtbfSpec,
        rng: &mut SimRng,
    ) -> Self {
        let mut plan = FaultPlan::new();
        let draw = |rng: &mut SimRng, mean_ps: u64| -> u64 {
            rng.exponential(1.0 / mean_ps as f64).round() as u64
        };
        if let Some(mtbf) = spec.link_mtbf_ps {
            for link_idx in 0..topo.link_count() {
                let link = LinkId(link_idx as u32);
                let mut t = draw(rng, mtbf);
                while t < horizon_ps {
                    plan.push(FaultEvent {
                        at_ps: t,
                        kind: FaultKind::FiberCut { link },
                    });
                    let up = t.saturating_add(spec.mttr_ps);
                    plan.push(FaultEvent {
                        at_ps: up,
                        kind: FaultKind::LinkRestore { link },
                    });
                    t = up.saturating_add(draw(rng, mtbf));
                }
            }
        }
        if let Some(mtbf) = spec.engine_mtbf_ps {
            for &node in sites {
                let mut t = draw(rng, mtbf);
                while t < horizon_ps {
                    plan.push(FaultEvent {
                        at_ps: t,
                        kind: FaultKind::EngineFail { node },
                    });
                    let up = t.saturating_add(spec.mttr_ps);
                    plan.push(FaultEvent {
                        at_ps: up,
                        kind: FaultKind::EngineRepair { node },
                    });
                    t = up.saturating_add(draw(rng, mtbf));
                }
            }
        }
        plan
    }

    /// Events in `[from_ps, to_ps)`.
    pub fn window(&self, from_ps: u64, to_ps: u64) -> impl Iterator<Item = &FaultEvent> {
        self.events
            .iter()
            .filter(move |e| e.at_ps >= from_ps && e.at_ps < to_ps)
    }

    /// Count of hard faults (cuts + engine fails; repairs and noise
    /// steps excluded).
    pub fn fault_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    FaultKind::FiberCut { .. } | FaultKind::EngineFail { .. }
                )
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_keeps_time_order() {
        let plan = FaultPlan::new()
            .cut(500, LinkId(1))
            .engine_fail(100, NodeId(2))
            .flap(300, LinkId(0), 50);
        let times: Vec<u64> = plan.events.iter().map(|e| e.at_ps).collect();
        assert_eq!(times, vec![100, 300, 350, 500]);
    }

    #[test]
    fn typed_event_views_split_by_kind() {
        let plan = FaultPlan::new()
            .flap(300, LinkId(0), 50)
            .engine_outage(100, NodeId(2), 400)
            .noise_ramp(NodeId(1), 200, 100, &[0.01]);
        assert_eq!(
            plan.link_events(),
            vec![(300, LinkId(0), false), (350, LinkId(0), true)]
        );
        assert_eq!(
            plan.engine_events(),
            vec![(100, NodeId(2), false), (500, NodeId(2), true)]
        );
    }

    #[test]
    fn flap_and_outage_pair_fail_with_repair() {
        let plan =
            FaultPlan::new()
                .flap(1_000, LinkId(3), 200)
                .engine_outage(2_000, NodeId(1), 500);
        assert_eq!(plan.events.len(), 4);
        assert_eq!(plan.fault_count(), 2);
        assert_eq!(
            plan.events[1].kind,
            FaultKind::LinkRestore { link: LinkId(3) }
        );
        assert_eq!(plan.events[1].at_ps, 1_200);
        assert_eq!(
            plan.events[3].kind,
            FaultKind::EngineRepair { node: NodeId(1) }
        );
    }

    #[test]
    fn noise_ramp_is_a_staircase() {
        let plan = FaultPlan::new().noise_ramp(NodeId(0), 100, 10, &[0.01, 0.02, 0.03]);
        assert_eq!(plan.events.len(), 3);
        assert_eq!(plan.events[2].at_ps, 120);
        assert!(matches!(plan.events[2].kind, FaultKind::NoiseStep { sigma, .. } if sigma == 0.03));
    }

    #[test]
    fn random_plan_is_deterministic_and_scales_with_mtbf() {
        let topo = Topology::fig1();
        let sites = [NodeId(1), NodeId(2)];
        let spec_short = MtbfSpec {
            link_mtbf_ps: Some(1_000_000),
            engine_mtbf_ps: Some(1_000_000),
            mttr_ps: 100_000,
        };
        let horizon = 100_000_000;
        let mut rng_a = SimRng::seed_from_u64(9);
        let mut rng_b = SimRng::seed_from_u64(9);
        let a = FaultPlan::random(&topo, &sites, horizon, spec_short, &mut rng_a);
        let b = FaultPlan::random(&topo, &sites, horizon, spec_short, &mut rng_b);
        assert_eq!(a, b, "same seed, same plan");
        assert!(a.fault_count() > 0);
        // Longer MTBF ⇒ fewer faults.
        let spec_long = MtbfSpec {
            link_mtbf_ps: Some(50_000_000),
            engine_mtbf_ps: Some(50_000_000),
            mttr_ps: 100_000,
        };
        let mut rng_c = SimRng::seed_from_u64(9);
        let c = FaultPlan::random(&topo, &sites, horizon, spec_long, &mut rng_c);
        assert!(
            c.fault_count() < a.fault_count(),
            "long {} vs short {}",
            c.fault_count(),
            a.fault_count()
        );
        // Times sorted and inside the repair-extended horizon.
        assert!(a.events.windows(2).all(|w| w[0].at_ps <= w[1].at_ps));
    }

    #[test]
    fn window_filters_by_time() {
        let plan = FaultPlan::new().cut(10, LinkId(0)).cut(20, LinkId(1));
        assert_eq!(plan.window(0, 15).count(), 1);
        assert_eq!(plan.window(0, 25).count(), 2);
        assert_eq!(plan.window(15, 18).count(), 0);
    }
}
