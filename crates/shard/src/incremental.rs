//! The sharded incremental controller.
//!
//! ## Allocation model
//!
//! Demands are **id-ordered**: demand `i`'s placement depends only on
//! demands with smaller ids (first-fit over its cost-sorted option
//! list, like [`ofpc_controller::greedy::solve_greedy_ordered`]). That
//! discipline is what makes incrementality provable — an arrival (the
//! highest id so far) is a pure append, and a departure invalidates
//! only the id-suffix after it.
//!
//! A demand whose src and dst share a region is **local**: its options
//! route over intra-region links only and place on in-region compute
//! sites, so each region's locals form an independent subproblem over
//! a disjoint node set — solved in parallel on the ofpc-par pool.
//! Cross-region demands are **boundary**: they route over the full
//! up-graph, place anywhere, and allocate from the *residual* capacity
//! after the local passes, in one sequential id-ordered sweep (locals
//! have strict priority).
//!
//! ## Caches and their invalidation
//!
//! | cache | recomputed when |
//! |---|---|
//! | shard distance matrix | an intra-region link of that shard flips |
//! | shard compute-site set | a site of that shard flips |
//! | global distance matrix | any link flips |
//! | global compute-site set | any site flips |
//! | a demand's option list | its matrix or site set was recomputed |
//!
//! `Full` shard work recomputes matrix, sites, options *and* all local
//! placements unconditionally, so the incremental state after any event
//! batch is definitionally equal to a from-scratch [`ShardedController::full_resolve`]
//! — the property `tests/shard.rs` checks differentially at every step.

use std::collections::{BTreeMap, BTreeSet};

use ofpc_controller::{options_from_matrix, AllocOption, Demand};
use ofpc_net::routing::{distance_matrix, distance_rows};
use ofpc_net::{LinkId, NodeId, Topology};
use ofpc_par::WorkerPool;
use ofpc_telemetry::{track, Telemetry};

use crate::region::RegionMap;

type Matrix = Vec<Vec<Option<u64>>>;

/// A state-change event the controller re-plans around.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardEvent {
    /// A new demand arrives. Ids must be strictly increasing across the
    /// controller's lifetime (the id-ordered discipline needs arrivals
    /// to be appends).
    Arrive(Demand),
    /// A live demand leaves and releases its slots.
    Depart(u32),
    CutLink(LinkId),
    RepairLink(LinkId),
    FailSite(NodeId),
    RepairSite(NodeId),
}

/// What one `apply_batch` did, as a diff of demand placements. Every
/// id list is ascending.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventOutcome {
    /// Arrivals in this batch that got a placement.
    pub admitted: Vec<u32>,
    /// Arrivals explicitly rejected (tracked, retried on later events).
    pub rejected: Vec<u32>,
    /// Pre-existing demands that lost their placement (Some → None).
    pub displaced: Vec<u32>,
    /// Pre-existing demands moved to a different placement.
    pub replanned: Vec<u32>,
    /// Previously rejected demands that now fit (None → Some).
    pub revived: Vec<u32>,
    /// Shards that re-solved (region ids, ascending).
    pub resolved_shards: Vec<u32>,
    /// Whether the boundary reconciliation sweep reran.
    pub boundary_rerun: bool,
}

/// Per-shard re-plan scope, merged across a batch (`Full` wins; two
/// suffixes merge to the smaller start id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Work {
    /// Re-place demands with id ≥ the given id; caches stay valid.
    From(u32),
    /// Recompute matrix, sites, options, and all placements.
    Full,
}

fn merge_work(a: Option<Work>, b: Work) -> Work {
    match (a, b) {
        (None, w) => w,
        (Some(Work::Full), _) | (_, Work::Full) => Work::Full,
        (Some(Work::From(x)), Work::From(y)) => Work::From(x.min(y)),
    }
}

#[derive(Debug, Clone)]
struct DemandEntry {
    demand: Demand,
    /// Cost-sorted candidate placements (cache; see module table).
    options: Vec<AllocOption>,
    /// Chosen option index, or `None` when rejected.
    choice: Option<usize>,
    /// `Some(region)` for a local demand, `None` for boundary.
    shard: Option<u32>,
}

impl DemandEntry {
    fn placement(&self) -> Option<&[NodeId]> {
        self.choice.map(|o| self.options[o].placement.as_slice())
    }
}

#[derive(Debug, Clone, Default)]
struct Shard {
    /// Intra-region distance matrix: rows populated for region nodes
    /// only (other rows are empty), routes restricted to up links with
    /// both endpoints inside.
    dist: Option<Matrix>,
    /// In-region compute sites that are up and have slots installed.
    sites: Vec<NodeId>,
}

/// Dirty-set accumulated by events, drained by the settle pass.
#[derive(Debug, Clone, Default)]
struct DirtySet {
    shards: BTreeMap<u32, Work>,
    /// Re-enumerate every boundary option list and rerun the sweep.
    boundary_full: bool,
    /// Rerun the boundary sweep from this id (placed departures and
    /// arrivals); subsumed by `boundary_full`.
    boundary_from: Option<u32>,
    global_dist: bool,
    global_sites: bool,
}

impl DirtySet {
    fn is_clean(&self) -> bool {
        self.shards.is_empty()
            && !self.boundary_full
            && self.boundary_from.is_none()
            && !self.global_dist
            && !self.global_sites
    }
}

/// Result one worker returns for one dirty shard.
struct ShardResult {
    region: u32,
    dist: Option<Matrix>,
    sites: Option<Vec<NodeId>>,
    options: Vec<(u32, Vec<AllocOption>)>,
    choices: Vec<(u32, Option<usize>)>,
}

/// The sharded incremental controller (see module docs).
#[derive(Debug, Clone)]
pub struct ShardedController {
    topo: Topology,
    regions: RegionMap,
    /// Installed compute transponder slots per node.
    capacity: Vec<usize>,
    link_up: Vec<bool>,
    site_up: Vec<bool>,
    max_options: usize,
    demands: BTreeMap<u32, DemandEntry>,
    shards: Vec<Shard>,
    global_dist: Option<Matrix>,
    global_sites: Vec<NodeId>,
    dirty: DirtySet,
    /// Smallest id the next arrival may carry.
    next_id_min: u32,
    pool: WorkerPool,
    tel: Telemetry,
    /// Decision sequence number, the time axis of SHARD-track spans.
    seq: u64,
}

impl ShardedController {
    pub fn new(
        topo: Topology,
        regions: RegionMap,
        capacity: Vec<usize>,
        max_options: usize,
    ) -> Self {
        assert_eq!(regions.node_count(), topo.node_count());
        assert_eq!(capacity.len(), topo.node_count());
        let n = topo.node_count();
        let links = topo.link_count();
        let shard_count = regions.region_count();
        let mut ctl = ShardedController {
            topo,
            regions,
            capacity,
            link_up: vec![true; links],
            site_up: vec![true; n],
            max_options,
            demands: BTreeMap::new(),
            shards: vec![Shard::default(); shard_count],
            global_dist: None,
            global_sites: Vec::new(),
            dirty: DirtySet::default(),
            next_id_min: 0,
            pool: WorkerPool::sequential(),
            tel: Telemetry::disabled(),
            seq: 0,
        };
        for r in 0..shard_count as u32 {
            ctl.shards[r as usize].sites = ctl.shard_sites(r);
        }
        ctl.global_sites = ctl.up_sites();
        ctl
    }

    pub fn with_pool(mut self, pool: WorkerPool) -> Self {
        self.pool = pool;
        self
    }

    pub fn with_telemetry(mut self, tel: &Telemetry) -> Self {
        self.tel = tel.clone();
        self
    }

    // ----- read-side accessors ------------------------------------------

    /// Current placement of every live demand (None = rejected).
    pub fn placements(&self) -> BTreeMap<u32, Option<Vec<NodeId>>> {
        self.demands
            .iter()
            .map(|(&id, e)| (id, e.placement().map(|p| p.to_vec())))
            .collect()
    }

    pub fn live_count(&self) -> usize {
        self.demands.len()
    }

    /// Live demands in id order (for TE-plan generation and audits).
    pub fn live_demands(&self) -> Vec<Demand> {
        self.demands.values().map(|e| e.demand.clone()).collect()
    }

    pub fn satisfied_count(&self) -> usize {
        self.demands.values().filter(|e| e.choice.is_some()).count()
    }

    /// Same packing as [`ofpc_controller::score`]: satisfied demands
    /// dominate, cheaper placements break ties.
    pub fn objective(&self) -> f64 {
        let mut score = 0.0;
        for e in self.demands.values() {
            if let Some(o) = e.choice {
                score += 1e9 - e.options[o].cost;
            }
        }
        score
    }

    /// True for a cross-region demand.
    pub fn is_boundary(&self, id: u32) -> Option<bool> {
        self.demands.get(&id).map(|e| e.shard.is_none())
    }

    pub fn region_map(&self) -> &RegionMap {
        &self.regions
    }

    // ----- internal pure helpers ----------------------------------------

    fn eff_capacity(&self) -> Vec<usize> {
        (0..self.capacity.len())
            .map(|n| if self.site_up[n] { self.capacity[n] } else { 0 })
            .collect()
    }

    fn shard_sites(&self, region: u32) -> Vec<NodeId> {
        self.regions
            .nodes(region)
            .iter()
            .copied()
            .filter(|n| self.site_up[n.0 as usize] && self.capacity[n.0 as usize] > 0)
            .collect()
    }

    fn up_sites(&self) -> Vec<NodeId> {
        (0..self.capacity.len())
            .filter(|&n| self.site_up[n] && self.capacity[n] > 0)
            .map(|n| NodeId(n as u32))
            .collect()
    }

    /// Local slot usage per node, from current local placements.
    fn local_used(&self) -> Vec<usize> {
        let mut used = vec![0usize; self.capacity.len()];
        for e in self.demands.values() {
            if e.shard.is_some() {
                if let Some(p) = e.placement() {
                    for n in p {
                        used[n.0 as usize] += 1;
                    }
                }
            }
        }
        used
    }

    /// Ids of one shard's local demands, ascending.
    fn local_ids(&self, region: u32) -> Vec<u32> {
        self.demands
            .iter()
            .filter(|(_, e)| e.shard == Some(region))
            .map(|(&id, _)| id)
            .collect()
    }

    fn boundary_ids(&self) -> Vec<u32> {
        self.demands
            .iter()
            .filter(|(_, e)| e.shard.is_none())
            .map(|(&id, _)| id)
            .collect()
    }

    // ----- event intake -------------------------------------------------

    /// Apply one event; equivalent to a singleton [`Self::apply_batch`].
    pub fn apply(&mut self, event: ShardEvent) -> EventOutcome {
        self.apply_batch(vec![event])
    }

    /// Apply a batch of events, then settle: re-solve exactly the dirty
    /// shards (in parallel) and reconcile the boundary sweep. Batching
    /// lets a correlated fault burst dirty several shards and pay one
    /// parallel settle instead of many sequential ones.
    pub fn apply_batch(&mut self, events: Vec<ShardEvent>) -> EventOutcome {
        let pre_local_used = self.local_used();
        let mut arrivals: Vec<u32> = Vec::new();

        for event in events {
            match event {
                ShardEvent::Arrive(demand) => {
                    let id = demand.id.0;
                    assert!(
                        id >= self.next_id_min,
                        "arrival ids must be strictly increasing (got {id}, expected >= {})",
                        self.next_id_min
                    );
                    self.next_id_min = id + 1;
                    let shard = self.regions.demand_region(demand.src, demand.dst);
                    self.demands.insert(
                        id,
                        DemandEntry {
                            demand,
                            options: Vec::new(), // enumerated at settle
                            choice: None,
                            shard,
                        },
                    );
                    arrivals.push(id);
                    match shard {
                        Some(r) => {
                            let w = merge_work(self.dirty.shards.get(&r).copied(), Work::From(id));
                            self.dirty.shards.insert(r, w);
                        }
                        None => {
                            self.dirty.boundary_from =
                                Some(self.dirty.boundary_from.map_or(id, |x| x.min(id)));
                        }
                    }
                }
                ShardEvent::Depart(id) => {
                    let entry = self
                        .demands
                        .remove(&id)
                        .unwrap_or_else(|| panic!("departure of unknown demand {id}"));
                    // An unplaced demand consumed nothing; removing it
                    // cannot change any other id-ordered decision.
                    if entry.choice.is_none() {
                        continue;
                    }
                    match entry.shard {
                        Some(r) => {
                            let w = merge_work(self.dirty.shards.get(&r).copied(), Work::From(id));
                            self.dirty.shards.insert(r, w);
                        }
                        None => {
                            self.dirty.boundary_from =
                                Some(self.dirty.boundary_from.map_or(id, |x| x.min(id)));
                        }
                    }
                }
                ShardEvent::CutLink(l) => self.flip_link(l, false),
                ShardEvent::RepairLink(l) => self.flip_link(l, true),
                ShardEvent::FailSite(n) => self.flip_site(n, false),
                ShardEvent::RepairSite(n) => self.flip_site(n, true),
            }
        }

        self.settle(&arrivals, &pre_local_used)
    }

    fn flip_link(&mut self, l: LinkId, up: bool) {
        if self.link_up[l.0 as usize] == up {
            return; // no-op flip
        }
        self.link_up[l.0 as usize] = up;
        let link = &self.topo.links[l.0 as usize];
        let (ra, rb) = (
            self.regions.region_of(link.a),
            self.regions.region_of(link.b),
        );
        if ra == rb {
            self.dirty.shards.insert(ra, Work::Full);
        }
        // Any link flip can reroute cross-region paths.
        self.dirty.global_dist = true;
        self.dirty.boundary_full = true;
    }

    fn flip_site(&mut self, n: NodeId, up: bool) {
        if self.site_up[n.0 as usize] == up {
            return;
        }
        self.site_up[n.0 as usize] = up;
        self.dirty
            .shards
            .insert(self.regions.region_of(n), Work::Full);
        self.dirty.global_sites = true;
        self.dirty.boundary_full = true;
    }

    /// Recompute every cache and every placement from scratch. The
    /// incremental path must land on exactly this state after any
    /// event batch — the differential tests' ground truth.
    pub fn full_resolve(&mut self) {
        for r in 0..self.regions.region_count() as u32 {
            self.dirty.shards.insert(r, Work::Full);
        }
        self.dirty.boundary_full = true;
        self.dirty.global_dist = true;
        self.dirty.global_sites = true;
        let pre_local_used = self.local_used();
        self.settle(&[], &pre_local_used);
    }

    // ----- the settle pass ----------------------------------------------

    /// Drain the dirty set: parallel per-shard local re-solves, then the
    /// sequential boundary reconciliation. Every placement changes here
    /// and nowhere else, and each live demand is rewritten at most once
    /// (by its shard or by the boundary sweep), so the outcome is read
    /// off the rewrites themselves instead of a before/after snapshot.
    fn settle(&mut self, arrivals: &[u32], pre_local_used: &[usize]) -> EventOutcome {
        let eff_cap = self.eff_capacity();
        let new_ids: BTreeSet<u32> = arrivals.iter().copied().collect();
        let mut out = EventOutcome::default();

        // Phase 1: dirty shards in parallel. Workers read shared state
        // and return replacement caches + choices; merging is ordered.
        let tasks: Vec<(u32, Work, Vec<u32>)> = self
            .dirty
            .shards
            .iter()
            .map(|(&r, &w)| (r, w, self.local_ids(r)))
            .collect();
        let resolved_shards: Vec<u32> = tasks.iter().map(|t| t.0).collect();
        let results: Vec<ShardResult> = {
            let this = &*self;
            let eff_cap = &eff_cap;
            let new_ids = &new_ids;
            this.pool
                .scatter_gather("shard_settle", tasks, move |_, (region, work, ids)| {
                    this.solve_shard(region, work, &ids, new_ids, eff_cap)
                })
        };
        for res in results {
            let shard = &mut self.shards[res.region as usize];
            if let Some(dist) = res.dist {
                shard.dist = Some(dist);
            }
            if let Some(sites) = res.sites {
                shard.sites = sites;
            }
            self.install(res.choices, res.options, &new_ids, &mut out);
        }
        self.dirty.shards.clear();

        // Phase 2: boundary reconciliation. The sweep's inputs are the
        // residual capacity vector and the boundary option lists; rerun
        // iff either could have changed, else append new arrivals.
        let post_local_used = self.local_used();
        let boundary_ids = self.boundary_ids();
        let residual_changed = post_local_used != *pre_local_used;
        let boundary_full = self.dirty.boundary_full;
        let boundary_from = self.dirty.boundary_from;
        let rerun_full = boundary_full || residual_changed;
        // Refresh global caches regardless of whether the sweep runs —
        // a later settle may consult them without another flip event.
        if self.dirty.global_sites {
            self.global_sites = self.up_sites();
            self.dirty.global_sites = false;
        }
        if self.dirty.global_dist {
            self.global_dist = None;
            self.dirty.global_dist = false;
        }
        self.dirty.boundary_full = false;
        self.dirty.boundary_from = None;
        let run = if !boundary_ids.is_empty() && (rerun_full || boundary_from.is_some()) {
            if self.global_dist.is_none() {
                let up = self.link_up.clone();
                self.global_dist = Some(distance_matrix(&self.topo, &|l: LinkId| up[l.0 as usize]));
            }
            let dist = self.global_dist.as_ref().unwrap();
            let mut fresh: Vec<(u32, Vec<AllocOption>)> = Vec::new();
            for &id in &boundary_ids {
                let e = &self.demands[&id];
                if boundary_full || new_ids.contains(&id) {
                    fresh.push((
                        id,
                        options_from_matrix(&e.demand, dist, &self.global_sites, self.max_options),
                    ));
                }
            }
            let from = if rerun_full { None } else { boundary_from };
            let mut used = post_local_used;
            let seq = self.placement_seq(&boundary_ids, &fresh);
            let choices = place_suffix(&seq, from, &eff_cap, &mut used);
            self.install(choices, fresh, &new_ids, &mut out);
            true
        } else {
            false
        };
        debug_assert!(self.dirty.is_clean());

        self.emit_spans(&resolved_shards, run);
        for &id in arrivals {
            if let Some(e) = self.demands.get(&id) {
                if e.choice.is_some() {
                    out.admitted.push(id);
                } else {
                    out.rejected.push(id);
                }
            }
        }
        // Shards report in region order; the lists read in id order.
        out.displaced.sort_unstable();
        out.revived.sort_unstable();
        out.replanned.sort_unstable();
        out.resolved_shards = resolved_shards;
        out.boundary_rerun = run;
        out
    }

    /// The id-ordered `(id, options, previous choice)` sequence
    /// [`place_suffix`] walks. `fresh` holds re-enumerated option lists
    /// for a subsequence of `ids` and overrides the cached ones.
    fn placement_seq<'a>(
        &'a self,
        ids: &[u32],
        fresh: &'a [(u32, Vec<AllocOption>)],
    ) -> Vec<(u32, &'a [AllocOption], Option<usize>)> {
        let mut fresh = fresh.iter().peekable();
        ids.iter()
            .map(|&id| {
                let e = &self.demands[&id];
                let options = fresh
                    .next_if(|(f, _)| *f == id)
                    .map_or(e.options.as_slice(), |(_, o)| o.as_slice());
                (id, options, e.choice)
            })
            .collect()
    }

    /// Install re-solved `choices` (ascending id) together with the
    /// re-enumerated option lists in `fresh` (a subsequence of the same
    /// ids), and book how each demand that predates the batch moved.
    fn install(
        &mut self,
        choices: Vec<(u32, Option<usize>)>,
        fresh: Vec<(u32, Vec<AllocOption>)>,
        new_ids: &BTreeSet<u32>,
        out: &mut EventOutcome,
    ) {
        let mut fresh = fresh.into_iter().peekable();
        for (id, choice) in choices {
            let e = self.demands.get_mut(&id).expect("settled demands are live");
            let retired = fresh
                .next_if(|(f, _)| *f == id)
                .map(|(_, o)| std::mem::replace(&mut e.options, o));
            let old = retired.as_ref().unwrap_or(&e.options);
            let before = e.choice.map(|c| old[c].placement.as_slice());
            let after = choice.map(|c| e.options[c].placement.as_slice());
            let moved = match (before, after) {
                // Arrivals are booked as admitted or rejected instead.
                _ if new_ids.contains(&id) => None,
                (Some(_), None) => Some(&mut out.displaced),
                (None, Some(_)) => Some(&mut out.revived),
                (Some(a), Some(b)) if a != b => Some(&mut out.replanned),
                _ => None,
            };
            if let Some(list) = moved {
                list.push(id);
            }
            e.choice = choice;
        }
    }

    /// One shard's settle work — a pure function of shared state, safe
    /// to run on any worker.
    fn solve_shard(
        &self,
        region: u32,
        work: Work,
        ids: &[u32],
        new_ids: &BTreeSet<u32>,
        eff_cap: &[usize],
    ) -> ShardResult {
        let shard = &self.shards[region as usize];
        let full = work == Work::Full;
        let need_matrix = full || shard.dist.is_none();
        let dist = if need_matrix {
            Some(self.shard_matrix(region))
        } else {
            None
        };
        let dist_ref = dist.as_ref().or(shard.dist.as_ref()).unwrap();
        let sites = if full {
            Some(self.shard_sites(region))
        } else {
            None
        };
        let sites_ref = sites.as_deref().unwrap_or(&shard.sites);

        // Option lists: everything on Full, arrivals always.
        let mut options: Vec<(u32, Vec<AllocOption>)> = Vec::new();
        for &id in ids {
            if full || new_ids.contains(&id) {
                let e = &self.demands[&id];
                options.push((
                    id,
                    options_from_matrix(&e.demand, dist_ref, sites_ref, self.max_options),
                ));
            }
        }
        let seq = self.placement_seq(ids, &options);
        let from = match work {
            Work::Full => None,
            Work::From(id) => Some(id),
        };
        let mut used = vec![0usize; eff_cap.len()];
        let choices = place_suffix(&seq, from, eff_cap, &mut used);
        ShardResult {
            region,
            dist,
            sites,
            options,
            choices,
        }
    }

    /// Intra-region distance matrix: rows for region nodes, routes over
    /// up links with both endpoints inside the region. The other rows
    /// stay empty: a local demand's legs all start inside its region.
    fn shard_matrix(&self, region: u32) -> Matrix {
        let link_ok = |l: LinkId| {
            let link = &self.topo.links[l.0 as usize];
            self.link_up[l.0 as usize] && self.regions.link_in_region(link.a, link.b, region)
        };
        let nodes = self.regions.nodes(region);
        let mut dist = vec![Vec::new(); self.topo.node_count()];
        for (&n, row) in nodes.iter().zip(distance_rows(&self.topo, nodes, &link_ok)) {
            dist[n.0 as usize] = row;
        }
        dist
    }

    fn emit_spans(&mut self, resolved: &[u32], boundary_rerun: bool) {
        if !self.tel.is_enabled() {
            return;
        }
        for &r in resolved {
            self.tel.span(
                track::SHARD,
                u64::from(r),
                "shard",
                &format!("replan r{r}"),
                self.seq,
                self.seq + 1,
            );
            self.seq += 1;
        }
        if boundary_rerun {
            self.tel.instant(
                track::SHARD,
                u64::from(self.regions.region_count() as u32),
                "shard",
                "boundary_reconcile",
                self.seq,
                Vec::new(),
            );
            self.seq += 1;
        }
    }

    // ----- invariant checking -------------------------------------------

    /// Structural invariants the churn property test leans on. Returns
    /// the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut used = vec![0usize; self.capacity.len()];
        for (&id, entry) in &self.demands {
            if let Some(p) = entry.placement() {
                for node in p {
                    let n = node.0 as usize;
                    if !self.site_up[n] {
                        return Err(format!("demand {id} holds a slot on failed site {n}"));
                    }
                    used[n] += 1;
                    if used[n] > self.capacity[n] {
                        return Err(format!("slot double-booked on node {n}"));
                    }
                }
            }
        }
        if !self.dirty.is_clean() {
            return Err("dirty set not cleared after settle".to_string());
        }
        Ok(())
    }
}

/// Id-ordered first-fit over `seq` (ascending by id). Entries before
/// `from` keep their choice and only charge usage; the rest re-place
/// greedily against `cap − used`. `from = None` re-places everything.
fn place_suffix(
    seq: &[(u32, &[AllocOption], Option<usize>)],
    from: Option<u32>,
    cap: &[usize],
    used: &mut [usize],
) -> Vec<(u32, Option<usize>)> {
    let mut out = Vec::with_capacity(seq.len());
    for &(id, options, prev) in seq {
        if from.is_some_and(|f| id < f) {
            if let Some(o) = prev {
                for n in &options[o].placement {
                    used[n.0 as usize] += 1;
                }
            }
            out.push((id, prev));
            continue;
        }
        let mut chosen = None;
        for (o, option) in options.iter().enumerate() {
            if try_place(&option.placement, cap, used) {
                chosen = Some(o);
                break;
            }
        }
        out.push((id, chosen));
    }
    out
}

/// Check a placement against residual capacity (with per-node
/// multiplicity — chains may revisit a site) and commit it if it fits.
/// Slots are taken one task at a time and handed back if any node
/// overflows, so a refused placement leaves `used` as it was.
fn try_place(placement: &[NodeId], cap: &[usize], used: &mut [usize]) -> bool {
    for (i, n) in placement.iter().enumerate() {
        let n = n.0 as usize;
        used[n] += 1;
        if used[n] > cap[n] {
            for taken in &placement[..=i] {
                used[taken.0 as usize] -= 1;
            }
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofpc_controller::TaskDag;
    use ofpc_engine::Primitive;

    fn demand(id: u32, src: u32, dst: u32) -> Demand {
        Demand::new(
            id,
            NodeId(src),
            NodeId(dst),
            TaskDag::single(Primitive::VectorDotProduct),
        )
    }

    /// Two 3-node regions joined 2–3; compute sites at 1 and 4.
    fn two_region_ctl() -> ShardedController {
        let topo = Topology::line(6, 100.0);
        let regions = RegionMap::from_assignment(vec![0, 0, 0, 1, 1, 1]);
        let capacity = vec![0, 2, 0, 0, 2, 0];
        ShardedController::new(topo, regions, capacity, 8)
    }

    #[test]
    fn local_arrival_places_in_region() {
        let mut ctl = two_region_ctl();
        let out = ctl.apply(ShardEvent::Arrive(demand(0, 0, 2)));
        assert_eq!(out.admitted, vec![0]);
        assert_eq!(out.resolved_shards, vec![0]);
        assert!(!out.boundary_rerun);
        assert_eq!(
            ctl.placements().get(&0).unwrap().as_deref(),
            Some(&[NodeId(1)][..])
        );
        ctl.check_invariants().unwrap();
    }

    #[test]
    fn boundary_arrival_uses_residual_capacity() {
        let mut ctl = two_region_ctl();
        ctl.apply(ShardEvent::Arrive(demand(0, 0, 2)));
        let out = ctl.apply(ShardEvent::Arrive(demand(1, 0, 5)));
        assert_eq!(out.admitted, vec![1]);
        assert!(out.boundary_rerun);
        assert_eq!(ctl.is_boundary(1), Some(true));
        ctl.check_invariants().unwrap();
    }

    #[test]
    fn departure_revives_rejected_demand() {
        let mut ctl = two_region_ctl();
        // Fill region 0's two slots, then oversubscribe.
        ctl.apply(ShardEvent::Arrive(demand(0, 0, 2)));
        ctl.apply(ShardEvent::Arrive(demand(1, 0, 2)));
        let out = ctl.apply(ShardEvent::Arrive(demand(2, 0, 2)));
        assert_eq!(out.rejected, vec![2]);
        let out = ctl.apply(ShardEvent::Depart(0));
        assert_eq!(out.revived, vec![2]);
        ctl.check_invariants().unwrap();
    }

    #[test]
    fn site_failure_displaces_and_repair_revives() {
        let mut ctl = two_region_ctl();
        ctl.apply(ShardEvent::Arrive(demand(0, 3, 5)));
        let out = ctl.apply(ShardEvent::FailSite(NodeId(4)));
        assert_eq!(out.displaced, vec![0]);
        ctl.check_invariants().unwrap();
        let out = ctl.apply(ShardEvent::RepairSite(NodeId(4)));
        assert_eq!(out.revived, vec![0]);
        ctl.check_invariants().unwrap();
    }

    #[test]
    fn incremental_matches_full_resolve() {
        let mut ctl = two_region_ctl();
        let events = vec![
            ShardEvent::Arrive(demand(0, 0, 2)),
            ShardEvent::Arrive(demand(1, 0, 5)),
            ShardEvent::Arrive(demand(2, 3, 5)),
            ShardEvent::CutLink(LinkId(1)),
            ShardEvent::Arrive(demand(3, 1, 2)),
            ShardEvent::Depart(1),
            ShardEvent::RepairLink(LinkId(1)),
        ];
        for ev in events {
            ctl.apply(ev);
            let mut scratch = ctl.clone();
            scratch.full_resolve();
            assert_eq!(ctl.placements(), scratch.placements());
            ctl.check_invariants().unwrap();
        }
    }

    #[test]
    fn batch_equals_event_at_a_time_state() {
        let events = vec![
            ShardEvent::Arrive(demand(0, 0, 2)),
            ShardEvent::Arrive(demand(1, 3, 5)),
            ShardEvent::CutLink(LinkId(4)),
            ShardEvent::Arrive(demand(2, 0, 4)),
        ];
        let mut batched = two_region_ctl();
        batched.apply_batch(events.clone());
        let mut seq = two_region_ctl();
        for ev in events {
            seq.apply(ev);
        }
        assert_eq!(batched.placements(), seq.placements());
    }

    #[test]
    fn worker_count_does_not_change_placements() {
        let events: Vec<ShardEvent> = (0..12)
            .map(|i| ShardEvent::Arrive(demand(i, (i % 3) * 3 % 6, (i % 3) * 3 % 6 + 2)))
            .collect();
        let run = |workers: usize| {
            let mut ctl = two_region_ctl().with_pool(WorkerPool::new(workers));
            for ev in events.clone() {
                ctl.apply(ev);
            }
            ctl.placements()
        };
        assert_eq!(run(1), run(2));
        assert_eq!(run(1), run(8));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn out_of_order_arrival_panics() {
        let mut ctl = two_region_ctl();
        ctl.apply(ShardEvent::Arrive(demand(5, 0, 2)));
        ctl.apply(ShardEvent::Arrive(demand(3, 0, 2)));
    }
}
