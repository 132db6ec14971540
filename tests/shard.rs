//! Differential correctness suite for the sharded incremental
//! controller (ofpc-shard).
//!
//! The crate's contract: incrementality is a pure optimization. After
//! **every** event — arrival, departure, fiber cut, splice, site fail,
//! repair — the incremental state must equal a from-scratch
//! `full_resolve`, slot for slot; and the E20 report bytes must not
//! depend on the worker count. This suite drives seeded random event
//! streams over 5–20-site topologies checking exactly that, plus a
//! 10k-event churn property test over the structural invariants, and
//! an objective-quality bound against the monolithic solver.

use ofpc_bench::shard::{e20_mini, run_e20, E20Spec};
use ofpc_controller::demand::{Demand, TaskDag};
use ofpc_controller::options::enumerate_options;
use ofpc_core::topo::{multi_region, MultiRegionSpec};
use ofpc_engine::Primitive;
use ofpc_net::{LinkId, NodeId, Topology};
use ofpc_par::WorkerPool;
use ofpc_photonics::SimRng;
use ofpc_shard::{EventOutcome, RegionMap, ShardEvent, ShardedController};
use std::collections::{BTreeMap, BTreeSet};

const PRIMS: [Primitive; 3] = [
    Primitive::VectorDotProduct,
    Primitive::PatternMatching,
    Primitive::NonlinearFunction,
];

fn random_demand(id: u32, nodes: usize, rng: &mut SimRng) -> Demand {
    let src = NodeId(rng.below(nodes) as u32);
    let mut dst = src;
    while dst == src {
        dst = NodeId(rng.below(nodes) as u32);
    }
    let dag = if rng.chance(0.25) {
        TaskDag::chain(vec![PRIMS[rng.below(3)], PRIMS[rng.below(3)]])
    } else {
        TaskDag::single(PRIMS[rng.below(3)])
    };
    Demand::new(id, src, dst, dag)
}

type Placements = BTreeMap<u32, Option<Vec<NodeId>>>;

/// The outcome lists an event must report, read off placement snapshots
/// taken before and after it: the ground truth for the controller's
/// snapshot-free bookkeeping. `arrival` is the id the event admitted or
/// rejected, if it was an arrival.
fn snapshot_diff(before: &Placements, after: &Placements, arrival: Option<u32>) -> EventOutcome {
    let mut out = EventOutcome::default();
    for (&id, now) in after {
        if Some(id) == arrival {
            if now.is_some() {
                out.admitted.push(id);
            } else {
                out.rejected.push(id);
            }
            continue;
        }
        match (before.get(&id).and_then(|p| p.as_deref()), now.as_deref()) {
            (Some(_), None) => out.displaced.push(id),
            (None, Some(_)) => out.revived.push(id),
            (Some(a), Some(b)) if a != b => out.replanned.push(id),
            _ => {}
        }
    }
    out
}

/// Drive `steps` random events through `ctl`, comparing against a
/// from-scratch re-solve after every single event, and the reported
/// outcome against the diff of the placements around it.
fn differential_stream(
    mut ctl: ShardedController,
    links: usize,
    nodes: usize,
    steps: usize,
    seed: u64,
) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut live: Vec<u32> = Vec::new();
    let mut next_id = 0u32;
    for step in 0..steps {
        let roll = rng.uniform();
        let event = if roll < 0.45 || live.is_empty() {
            let d = random_demand(next_id, nodes, &mut rng);
            live.push(next_id);
            next_id += 1;
            ShardEvent::Arrive(d)
        } else if roll < 0.65 {
            let idx = rng.below(live.len());
            ShardEvent::Depart(live.swap_remove(idx))
        } else if roll < 0.75 {
            ShardEvent::CutLink(LinkId(rng.below(links) as u32))
        } else if roll < 0.85 {
            ShardEvent::RepairLink(LinkId(rng.below(links) as u32))
        } else if roll < 0.93 {
            ShardEvent::FailSite(NodeId(rng.below(nodes) as u32))
        } else {
            ShardEvent::RepairSite(NodeId(rng.below(nodes) as u32))
        };
        let before = ctl.placements();
        let arrival = match &event {
            ShardEvent::Arrive(d) => Some(d.id.0),
            _ => None,
        };
        let out = ctl.apply(event.clone());
        ctl.check_invariants()
            .unwrap_or_else(|e| panic!("invariant after step {step} ({event:?}): {e}"));
        let after = ctl.placements();
        assert_eq!(
            out,
            EventOutcome {
                resolved_shards: out.resolved_shards.clone(),
                boundary_rerun: out.boundary_rerun,
                ..snapshot_diff(&before, &after, arrival)
            },
            "outcome disagrees with the placement diff at step {step} ({event:?}, seed {seed})"
        );
        let mut scratch = ctl.clone();
        scratch.full_resolve();
        assert_eq!(
            after,
            scratch.placements(),
            "incremental drifted from scratch at step {step} ({event:?}, seed {seed})"
        );
    }
}

#[test]
fn differential_five_site_two_regions() {
    // The smallest interesting split: a 5-node line, 3 + 2.
    let topo = Topology::line(5, 80.0);
    let links = topo.link_count();
    let regions = RegionMap::from_assignment(vec![0, 0, 0, 1, 1]);
    let capacity = vec![2, 0, 1, 0, 2];
    let ctl = ShardedController::new(topo, regions, capacity, 6);
    differential_stream(ctl, links, 5, 160, 501);
}

#[test]
fn differential_ring_three_regions() {
    // A 9-node ring cut into three arcs: every region borders two
    // others, so cross-region demands route both ways.
    let topo = Topology::ring(9, 120.0);
    let links = topo.link_count();
    let regions = RegionMap::from_assignment(vec![0, 0, 0, 1, 1, 1, 2, 2, 2]);
    let capacity: Vec<usize> = (0..9).map(|i| if i % 2 == 0 { 2 } else { 0 }).collect();
    let ctl = ShardedController::new(topo, regions, capacity, 6);
    differential_stream(ctl, links, 9, 160, 902);
}

#[test]
fn differential_eighteen_site_multi_region() {
    // The generated multi-region shape E20 uses, scaled to 3×6 = 18
    // sites — the top of the ISSUE's 5–20-site differential band.
    let mut rng = SimRng::seed_from_u64(1803);
    let wan = multi_region(&MultiRegionSpec::new(3, 6), &mut rng);
    let nodes = wan.topo.node_count();
    let links = wan.topo.link_count();
    let capacity: Vec<usize> = (0..nodes).map(|i| if i % 3 == 0 { 2 } else { 0 }).collect();
    let regions = RegionMap::from_assignment(wan.region_of.clone());
    let ctl = ShardedController::new(wan.topo, regions, capacity, 8);
    differential_stream(ctl, links, nodes, 140, 1804);
}

#[test]
fn single_region_matches_monolithic_ordered_greedy() {
    // With one region and every demand local, the sharded controller
    // must reproduce the monolithic id-ordered greedy exactly.
    let mut rng = SimRng::seed_from_u64(77);
    let topo = Topology::random_geometric(10, 1500.0, 600.0, &mut rng);
    let slots: Vec<usize> = (0..10).map(|i| if i % 2 == 0 { 2 } else { 0 }).collect();
    let demands: Vec<Demand> = (0..14).map(|i| random_demand(i, 10, &mut rng)).collect();

    let mut ctl = ShardedController::new(topo.clone(), RegionMap::single(10), slots.clone(), 8);
    for d in &demands {
        ctl.apply(ShardEvent::Arrive(d.clone()));
    }

    let instance = enumerate_options(&topo, &slots, &demands, 8);
    let mono = ofpc_controller::greedy::solve_greedy_ordered(&instance);
    for (i, choice) in mono.allocation.choices.iter().enumerate() {
        let expected = choice.map(|o| instance.options[i][o].placement.clone());
        assert_eq!(
            ctl.placements()[&(i as u32)],
            expected,
            "demand {i} diverged from the monolithic ordered greedy"
        );
    }
}

#[test]
fn sharded_quality_stays_near_monolithic_greedy() {
    // Sharding trades a little allocation quality for incrementality
    // (locals get strict priority; cross-shard demands see residual
    // capacity only). Bound the gap against the monolithic best-first
    // greedy on small multi-region instances.
    for seed in [11u64, 12, 13] {
        let mut rng = SimRng::seed_from_u64(seed);
        let wan = multi_region(&MultiRegionSpec::new(3, 4), &mut rng);
        let nodes = wan.topo.node_count();
        let slots: Vec<usize> = (0..nodes).map(|i| if i % 3 == 0 { 2 } else { 0 }).collect();
        let demands: Vec<Demand> = (0..10).map(|i| random_demand(i, nodes, &mut rng)).collect();

        let regions = RegionMap::from_assignment(wan.region_of.clone());
        let mut ctl = ShardedController::new(wan.topo.clone(), regions, slots.clone(), 8);
        for d in &demands {
            ctl.apply(ShardEvent::Arrive(d.clone()));
        }

        let instance = enumerate_options(&wan.topo, &slots, &demands, 8);
        let mono = ofpc_controller::greedy::solve_greedy(&instance);
        let mono_satisfied = mono.allocation.satisfied_count();
        let sharded_satisfied = ctl.satisfied_count();
        assert!(
            (sharded_satisfied as f64) >= 0.8 * mono_satisfied as f64,
            "seed {seed}: sharded satisfied {sharded_satisfied} < 80% of monolithic \
             {mono_satisfied}"
        );
    }
}

#[test]
fn churn_property_10k_events() {
    // 10k seeded random events over the 12-site WAN. After every batch:
    // no slot double-booked, failed sites hold no live allocations, the
    // dirty set is drained, and every live demand is either placed or
    // explicitly tracked as rejected — never silently dropped. A
    // from-scratch differential runs every 250 events.
    let mut rng = SimRng::seed_from_u64(10_000);
    let wan = multi_region(&MultiRegionSpec::new(3, 4), &mut rng);
    let nodes = wan.topo.node_count();
    let links = wan.topo.link_count();
    let capacity: Vec<usize> = (0..nodes).map(|i| if i % 3 == 0 { 2 } else { 0 }).collect();
    let regions = RegionMap::from_assignment(wan.region_of.clone());
    let mut ctl = ShardedController::new(wan.topo, regions, capacity, 8);

    let mut live: BTreeSet<u32> = BTreeSet::new();
    let mut next_id = 0u32;
    for step in 0..10_000 {
        let roll = rng.uniform();
        let event = if roll < 0.40 || live.is_empty() {
            let d = random_demand(next_id, nodes, &mut rng);
            live.insert(next_id);
            next_id += 1;
            ShardEvent::Arrive(d)
        } else if roll < 0.70 {
            let idx = rng.below(live.len());
            let id = *live.iter().nth(idx).unwrap();
            live.remove(&id);
            ShardEvent::Depart(id)
        } else if roll < 0.78 {
            ShardEvent::CutLink(LinkId(rng.below(links) as u32))
        } else if roll < 0.86 {
            ShardEvent::RepairLink(LinkId(rng.below(links) as u32))
        } else if roll < 0.93 {
            ShardEvent::FailSite(NodeId(rng.below(nodes) as u32))
        } else {
            ShardEvent::RepairSite(NodeId(rng.below(nodes) as u32))
        };
        ctl.apply(event);
        ctl.check_invariants()
            .unwrap_or_else(|e| panic!("invariant violated at step {step}: {e}"));
        // Never drop a demand: the live book and the controller's view
        // must agree exactly, including rejected (unplaced) demands.
        let tracked: BTreeSet<u32> = ctl.placements().into_keys().collect();
        assert_eq!(tracked, live, "demand book diverged at step {step}");
        if (step + 1) % 250 == 0 {
            let mut scratch = ctl.clone();
            scratch.full_resolve();
            assert_eq!(
                ctl.placements(),
                scratch.placements(),
                "incremental drifted at step {step}"
            );
        }
    }
    assert!(next_id > 3_000, "stream should be arrival-heavy");
}

#[test]
fn e20_report_is_byte_identical_across_worker_counts() {
    let reference = e20_mini(&WorkerPool::new(1));
    for workers in [2, 8] {
        let wide = e20_mini(&WorkerPool::new(workers));
        assert!(
            reference == wide,
            "E20 report diverged between 1 and {workers} workers"
        );
    }
}

#[test]
fn e20_outcome_accounting_balances() {
    // Every arrival is either admitted or rejected at arrival; the
    // final live population is the FIFO window.
    let (report, _) = run_e20(&E20Spec::mini(), &WorkerPool::sequential());
    assert_eq!(report.admitted + report.rejected, report.arrivals);
    assert_eq!(report.final_live, E20Spec::mini().max_live);
    assert!(report.final_satisfied <= report.final_live);
    assert!(report.differential_checks > 0);
}
