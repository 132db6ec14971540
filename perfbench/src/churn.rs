//! `churn`: the sharded incremental controller under demand churn.
//!
//! A fixed generated 12-region × 10-site WAN with transponder slots at
//! every third site takes a stream of seeded arrivals (25% cross-region, 20%
//! two-task chains) against a FIFO live window, so every arrival past
//! the window also departs the oldest demand. A fault storm of fiber
//! cuts and engine outages is folded into the stream as batches. Each
//! batch is one controller decision.

use std::collections::{BTreeMap, VecDeque};

use ofpc_controller::demand::{Demand, TaskDag};
use ofpc_core::topo::{multi_region, MultiRegionSpec, MultiRegionWan};
use ofpc_engine::Primitive;
use ofpc_faults::{generate_storm, StormSpec};
use ofpc_net::{LinkId, NodeId};
use ofpc_par::WorkerPool;
use ofpc_photonics::SimRng;
use ofpc_shard::{RegionMap, ShardEvent, ShardedController};
use ofpc_telemetry::Telemetry;

use crate::{matches_reference, timed, Sample, Workload};

const REGIONS: usize = 12;
const SITES_PER_REGION: usize = 10;
const SLOTS_PER_SITE: usize = 4;
const ARRIVALS: usize = 2_000;
const MAX_LIVE: usize = 100;
/// Every 4th demand crosses regions and every 5th is a two-task chain:
/// fixed shares, so the mix (and the boundary work it causes) does not
/// swing from seed to seed; the seed draws endpoints and primitives.
const CROSS_REGION_EVERY: usize = 4;
const CHAIN_EVERY: usize = 5;
const MAX_OPTIONS: usize = 8;
const TOPOLOGY_SEED: u64 = 20;
/// One virtual tick per arrival: the storm's time axis.
const TICK_PS: u64 = 1_000;

pub struct Churn {
    seed: u64,
    reference: Option<String>,
}

/// The seeded event stream and the plant it runs on.
struct Inputs {
    wan: MultiRegionWan,
    capacity: Vec<usize>,
    /// Controller decisions in order, each one `apply_batch` call.
    batches: Vec<Vec<ShardEvent>>,
}

impl Churn {
    pub fn new(seed: u64) -> Self {
        Churn {
            seed: ofpc_par::split_seed(seed, 0xC4A2),
            reference: None,
        }
    }

    fn inputs(&self) -> Inputs {
        // The plant is fixed; the seed draws the demands and the storm.
        let wan = multi_region(
            &MultiRegionSpec::new(REGIONS, SITES_PER_REGION),
            &mut SimRng::seed_from_u64(TOPOLOGY_SEED),
        );
        let mut rng = SimRng::seed_from_u64(self.seed);
        let n = wan.topo.node_count();
        let capacity: Vec<usize> = (0..n)
            .map(|i| if i % 3 == 0 { SLOTS_PER_SITE } else { 0 })
            .collect();
        let sites: Vec<NodeId> = (0..n)
            .filter(|&i| capacity[i] > 0)
            .map(|i| NodeId(i as u32))
            .collect();
        let links: Vec<LinkId> = (0..wan.topo.link_count())
            .map(|i| LinkId(i as u32))
            .collect();

        let horizon = (ARRIVALS as u64 + 1) * TICK_PS;
        let storm = StormSpec {
            bursts: 6,
            cuts_per_burst: 1,
            burst_jitter_ps: 0,
            cut_down_ps: horizon / 40,
            engines_per_burst: 1,
            engine_down_ps: horizon / 40,
            drift_sigmas: Vec::new(),
        };
        let plan = generate_storm(&links, &sites, horizon, &storm, &mut rng.derive("storm"));
        let mut faults: Vec<(u64, ShardEvent)> = plan
            .link_events()
            .into_iter()
            .map(|(t, l, up)| {
                let ev = if up {
                    ShardEvent::RepairLink(l)
                } else {
                    ShardEvent::CutLink(l)
                };
                (t, ev)
            })
            .chain(plan.engine_events().into_iter().map(|(t, node, up)| {
                let ev = if up {
                    ShardEvent::RepairSite(node)
                } else {
                    ShardEvent::FailSite(node)
                };
                (t, ev)
            }))
            .collect();
        faults.sort_by_key(|&(t, _)| t);

        let prims = [
            Primitive::VectorDotProduct,
            Primitive::PatternMatching,
            Primitive::NonlinearFunction,
        ];
        let mut drng = rng.derive("demands");
        let mut live: VecDeque<u32> = VecDeque::new();
        let mut faults = faults.into_iter().peekable();
        let mut batches = Vec::new();
        for i in 0..ARRIVALS {
            let now = (i as u64 + 1) * TICK_PS;
            let mut burst = Vec::new();
            while let Some((_, ev)) = faults.next_if(|&(t, _)| t <= now) {
                burst.push(ev);
            }
            if !burst.is_empty() {
                batches.push(burst);
            }
            let src = NodeId(drng.below(n) as u32);
            let cross = i % CROSS_REGION_EVERY == 0;
            let dst = loop {
                let d = NodeId(drng.below(n) as u32);
                let same = wan.region_of[d.0 as usize] == wan.region_of[src.0 as usize];
                if d != src && same != cross {
                    break d;
                }
            };
            let dag = if i % CHAIN_EVERY == 0 {
                TaskDag::chain(vec![prims[drng.below(3)], prims[drng.below(3)]])
            } else {
                TaskDag::single(prims[drng.below(3)])
            };
            let mut batch = vec![ShardEvent::Arrive(Demand::new(i as u32, src, dst, dag))];
            if live.len() >= MAX_LIVE {
                let oldest = live.pop_front().expect("live window is non-empty");
                batch.push(ShardEvent::Depart(oldest));
            }
            live.push_back(i as u32);
            batches.push(batch);
        }
        Inputs {
            wan,
            capacity,
            batches,
        }
    }
}

#[derive(Default)]
struct Tally {
    decisions: u64,
    admitted: u64,
    rejected: u64,
    displaced: u64,
    revived: u64,
    replanned: u64,
    shard_resolves: u64,
    boundary_reruns: u64,
}

impl Workload for Churn {
    fn iterate(&mut self, pool: &WorkerPool, traced: bool) -> Sample {
        let (inputs, inputs_span) = timed(|| self.inputs());
        let Inputs {
            wan,
            capacity,
            batches,
        } = inputs;
        let (mut ctl, build) = timed(|| {
            let regions = RegionMap::from_assignment(wan.region_of.clone());
            let ctl = ShardedController::new(wan.topo.clone(), regions, capacity, MAX_OPTIONS)
                .with_pool(pool.clone());
            if traced {
                ctl.with_telemetry(&Telemetry::enabled())
            } else {
                ctl
            }
        });
        let (tally, drive) = timed(|| {
            let mut t = Tally::default();
            for batch in batches {
                let out = ctl.apply_batch(batch);
                t.decisions += 1;
                t.admitted += out.admitted.len() as u64;
                t.rejected += out.rejected.len() as u64;
                t.displaced += out.displaced.len() as u64;
                t.revived += out.revived.len() as u64;
                t.replanned += out.replanned.len() as u64;
                t.shard_resolves += out.resolved_shards.len() as u64;
                t.boundary_reruns += u64::from(out.boundary_rerun);
            }
            t
        });
        let (ok, check) = timed(|| {
            // Incrementality is a pure optimization: a from-scratch
            // re-solve must land on the same placements.
            let placements: BTreeMap<u32, Option<Vec<NodeId>>> = ctl.placements();
            let mut scratch = ctl.clone();
            scratch.full_resolve();
            let differential = scratch.placements() == placements;
            let decided = tally.admitted + tally.rejected == ARRIVALS as u64;
            let digest = format!("{placements:?} {}", ctl.satisfied_count());
            ctl.check_invariants().is_ok()
                & differential
                & decided
                & (tally.admitted > 0)
                & matches_reference(&mut self.reference, digest)
        });
        Sample {
            inputs: inputs_span,
            build,
            drive,
            check,
            items: tally.decisions,
            ok,
            counts: vec![
                ("ctl_decisions", tally.decisions as f64),
                ("ctl_admitted", tally.admitted as f64),
                ("ctl_rejected", tally.rejected as f64),
                ("ctl_displaced", tally.displaced as f64),
                ("ctl_revived", tally.revived as f64),
                ("ctl_replanned", tally.replanned as f64),
                ("ctl_shard_resolves", tally.shard_resolves as f64),
                ("ctl_boundary_reruns", tally.boundary_reruns as f64),
            ],
        }
    }
}
