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
//! ## Caches and their upkeep
//!
//! A decision costs what its batch changed: no cache is rebuilt, and
//! the demand book is not rescanned, unless an event changed its
//! inputs.
//!
//! | cache | brought up to date when |
//! |---|---|
//! | shard distance matrix | an intra-region link of that shard flips (recomputed) |
//! | shard compute-site set | a site of that shard flips (recomputed) |
//! | global distance matrix | it is next read after link flips: only the rows a flipped link can move rerun Dijkstra ([`refresh_distance_rows`]) |
//! | global compute-site set | any site flips (recomputed) |
//! | a demand's option list | its matrix or site set was recomputed (re-enumerated) |
//! | each shard's local ids, the boundary ids, local slot use per node | a demand arrives, departs or has a choice installed |
//! | effective capacity per node | a site flips |
//!
//! `Full` shard work recomputes matrix, sites, options *and* all local
//! placements unconditionally, and [`ShardedController::full_resolve`]
//! also recounts the id lists and slot use from the placements and
//! rebuilds the global matrix from scratch, so it inherits nothing the
//! incremental path maintains. The incremental state after any event
//! batch must equal it — the property `tests/shard.rs` checks
//! differentially at every step — and
//! [`ShardedController::check_invariants`] compares every maintained
//! list, count and matrix against a recount.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::mem;

use ofpc_controller::{options_from_matrix, AllocOption, Demand};
use ofpc_net::routing::{distance_matrix, distance_rows, refresh_distance_rows};
use ofpc_net::{LinkId, NodeId, Topology};
use ofpc_par::WorkerPool;
use ofpc_telemetry::{track, Telemetry};

use crate::region::RegionMap;

type Matrix = Vec<Vec<Option<u64>>>;

/// A state-change event the controller re-plans around.
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// Id lists and slot use over the demand book, kept up to date as
/// demands arrive, depart and move, so that no decision rescans the
/// book. [`ShardedController::recount`] rebuilds it from the book.
#[derive(Debug, Clone, PartialEq)]
struct Book {
    /// Each shard's local demand ids, ascending.
    local_ids: Vec<Vec<u32>>,
    /// Boundary demand ids, ascending.
    boundary_ids: Vec<u32>,
    /// Slots held by local placements, per node.
    local_used: Vec<usize>,
}

/// Re-solve buffers, lent to whichever worker solves a shard (or the
/// boundary sweep) and handed back with the result.
#[derive(Debug, Clone, Default)]
struct Buffers {
    used: Vec<usize>,
    /// Re-enumerated option lists, ascending by id.
    fresh: Vec<(u32, Vec<AllocOption>)>,
    choices: Vec<(u32, Option<usize>)>,
}

#[derive(Debug, Clone, Default)]
struct Shard {
    /// Intra-region distance matrix: rows populated for region nodes
    /// only (other rows are empty), routes restricted to up links with
    /// both endpoints inside.
    dist: Option<Matrix>,
    /// In-region compute sites that are up and have slots installed.
    sites: Vec<NodeId>,
    buffers: Buffers,
}

/// Dirty-set accumulated by events, drained by the settle pass.
#[derive(Debug, Clone)]
struct DirtySet {
    /// Re-plan scope per shard, indexed by region.
    shards: Vec<Option<Work>>,
    /// Re-enumerate every boundary option list and rerun the sweep.
    boundary_full: bool,
    /// Rerun the boundary sweep from this id (placed departures and
    /// arrivals); subsumed by `boundary_full`.
    boundary_from: Option<u32>,
    global_sites: bool,
}

impl DirtySet {
    fn mark(&mut self, region: u32, work: Work) {
        let slot = &mut self.shards[region as usize];
        *slot = Some(merge_work(*slot, work));
    }

    fn mark_boundary_from(&mut self, id: u32) {
        self.boundary_from = Some(self.boundary_from.map_or(id, |x| x.min(id)));
    }

    fn is_clean(&self) -> bool {
        self.shards.iter().all(Option::is_none)
            && !self.boundary_full
            && self.boundary_from.is_none()
            && !self.global_sites
    }
}

/// Result one worker returns for one dirty shard.
struct ShardResult {
    region: u32,
    dist: Option<Matrix>,
    sites: Option<Vec<NodeId>>,
    buffers: Buffers,
}

/// Buffers one decision fills and the next reuses.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Local slot use when the batch began.
    pre_used: Vec<usize>,
    /// The batch's arrival ids, ascending.
    arrivals: Vec<u32>,
    boundary: Buffers,
}

/// The sharded incremental controller (see module docs).
#[derive(Debug, Clone)]
pub struct ShardedController {
    topo: Topology,
    regions: RegionMap,
    /// Installed compute transponder slots per node.
    capacity: Vec<usize>,
    /// `capacity` with failed sites at zero: what placements may take.
    eff_cap: Vec<usize>,
    link_up: Vec<bool>,
    site_up: Vec<bool>,
    max_options: usize,
    demands: BTreeMap<u32, DemandEntry>,
    book: Book,
    shards: Vec<Shard>,
    global_dist: Option<Matrix>,
    /// Links flipped since `global_dist` was last brought up to date.
    global_flips: Vec<LinkId>,
    global_sites: Vec<NodeId>,
    dirty: DirtySet,
    scratch: Scratch,
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
            eff_cap: capacity.clone(),
            capacity,
            link_up: vec![true; links],
            site_up: vec![true; n],
            max_options,
            demands: BTreeMap::new(),
            book: Book {
                local_ids: vec![Vec::new(); shard_count],
                boundary_ids: Vec::new(),
                local_used: vec![0; n],
            },
            shards: vec![Shard::default(); shard_count],
            global_dist: None,
            global_flips: Vec::new(),
            global_sites: Vec::new(),
            dirty: DirtySet {
                shards: vec![None; shard_count],
                boundary_full: false,
                boundary_from: None,
                global_sites: false,
            },
            scratch: Scratch::default(),
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

    // ----- internal pure helpers ----------------------------------------

    /// Effective capacity derived afresh from the site states.
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

    /// The [`Book`] read off the demand book and its placements, which
    /// is what the maintained one must always equal.
    fn recount(&self) -> Book {
        let mut book = Book {
            local_ids: vec![Vec::new(); self.regions.region_count()],
            boundary_ids: Vec::new(),
            local_used: vec![0; self.capacity.len()],
        };
        for (&id, e) in &self.demands {
            match e.shard {
                Some(r) => {
                    book.local_ids[r as usize].push(id);
                    for n in e.placement().unwrap_or_default() {
                        book.local_used[n.0 as usize] += 1;
                    }
                }
                None => book.boundary_ids.push(id),
            }
        }
        book
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
        self.scratch.pre_used.clone_from(&self.book.local_used);
        let mut arrivals = mem::take(&mut self.scratch.arrivals);
        arrivals.clear();

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
                    // Ids only grow, so a push keeps each list ascending.
                    match shard {
                        Some(r) => {
                            self.book.local_ids[r as usize].push(id);
                            self.dirty.mark(r, Work::From(id));
                        }
                        None => {
                            self.book.boundary_ids.push(id);
                            self.dirty.mark_boundary_from(id);
                        }
                    }
                }
                ShardEvent::Depart(id) => {
                    let entry = self
                        .demands
                        .remove(&id)
                        .unwrap_or_else(|| panic!("departure of unknown demand {id}"));
                    let ids = match entry.shard {
                        Some(r) => &mut self.book.local_ids[r as usize],
                        None => &mut self.book.boundary_ids,
                    };
                    let at = ids.binary_search(&id).expect("a live demand is listed");
                    ids.remove(at);
                    // An unplaced demand consumed nothing; removing it
                    // cannot change any other id-ordered decision.
                    let Some(placement) = entry.placement() else {
                        continue;
                    };
                    match entry.shard {
                        Some(r) => {
                            for n in placement {
                                self.book.local_used[n.0 as usize] -= 1;
                            }
                            self.dirty.mark(r, Work::From(id));
                        }
                        None => self.dirty.mark_boundary_from(id),
                    }
                }
                ShardEvent::CutLink(l) => self.flip_link(l, false),
                ShardEvent::RepairLink(l) => self.flip_link(l, true),
                ShardEvent::FailSite(n) => self.flip_site(n, false),
                ShardEvent::RepairSite(n) => self.flip_site(n, true),
            }
        }

        let out = self.settle(&arrivals);
        self.scratch.arrivals = arrivals;
        out
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
            self.dirty.mark(ra, Work::Full);
        }
        // Any link flip can reroute cross-region paths.
        if self.global_dist.is_some() {
            self.global_flips.push(l);
        }
        self.dirty.boundary_full = true;
    }

    fn flip_site(&mut self, n: NodeId, up: bool) {
        let i = n.0 as usize;
        if self.site_up[i] == up {
            return;
        }
        self.site_up[i] = up;
        self.eff_cap[i] = if up { self.capacity[i] } else { 0 };
        self.dirty.mark(self.regions.region_of(n), Work::Full);
        self.dirty.global_sites = true;
        self.dirty.boundary_full = true;
    }

    /// Recompute every cache and every placement from scratch. The
    /// incremental path must land on exactly this state after any
    /// event batch — the differential tests' ground truth — so nothing
    /// it maintains is inherited: id lists, slot use and effective
    /// capacity are recounted and the global matrix is rebuilt.
    pub fn full_resolve(&mut self) {
        for r in 0..self.regions.region_count() as u32 {
            self.dirty.mark(r, Work::Full);
        }
        self.dirty.boundary_full = true;
        self.dirty.global_sites = true;
        self.book = self.recount();
        self.eff_cap = self.eff_capacity();
        self.global_dist = None;
        self.global_flips.clear();
        self.settle(&[]);
    }

    // ----- the settle pass ----------------------------------------------

    /// Drain the dirty set: parallel per-shard local re-solves, then the
    /// sequential boundary reconciliation. Every placement changes here
    /// and nowhere else, and each live demand is rewritten at most once
    /// (by its shard or by the boundary sweep), so the outcome is read
    /// off the rewrites themselves instead of a before/after snapshot.
    /// `arrivals` lists the batch's new ids, ascending.
    fn settle(&mut self, arrivals: &[u32]) -> EventOutcome {
        let mut out = EventOutcome::default();

        // Phase 1: dirty shards in parallel. Workers read shared state
        // and return replacement caches + choices; merging is ordered.
        let tasks: Vec<(u32, Work, Buffers)> = self
            .dirty
            .shards
            .iter_mut()
            .enumerate()
            .filter_map(|(r, work)| {
                let work = work.take()?;
                Some((r as u32, work, mem::take(&mut self.shards[r].buffers)))
            })
            .collect();
        let resolved_shards: Vec<u32> = tasks.iter().map(|t| t.0).collect();
        let results: Vec<ShardResult> = {
            let this = &*self;
            this.pool
                .scatter_gather(tasks, move |_, (region, work, buffers)| {
                    this.solve_shard(region, work, buffers, arrivals)
                })
        };
        for mut res in results {
            let shard = &mut self.shards[res.region as usize];
            if let Some(dist) = res.dist {
                shard.dist = Some(dist);
            }
            if let Some(sites) = res.sites {
                shard.sites = sites;
            }
            self.install(
                &res.buffers.choices,
                &mut res.buffers.fresh,
                arrivals,
                &mut out,
            );
            self.shards[res.region as usize].buffers = res.buffers;
        }

        // Phase 2: boundary reconciliation. The sweep's inputs are the
        // residual capacity vector and the boundary option lists; rerun
        // iff either could have changed, else append new arrivals.
        let residual_changed = self.book.local_used != self.scratch.pre_used;
        let boundary_full = mem::take(&mut self.dirty.boundary_full);
        let boundary_from = self.dirty.boundary_from.take();
        let rerun_full = boundary_full || residual_changed;
        // Refresh the site set regardless of whether the sweep runs — a
        // later settle may consult it without another flip event.
        if mem::take(&mut self.dirty.global_sites) {
            self.global_sites = self.up_sites();
        }
        let run = !self.book.boundary_ids.is_empty() && (rerun_full || boundary_from.is_some());
        if run {
            self.refresh_global_dist();
            let dist = self.global_dist.as_ref().expect("refreshed above");
            let mut buffers = mem::take(&mut self.scratch.boundary);
            for &id in &self.book.boundary_ids {
                if boundary_full || arrivals.binary_search(&id).is_ok() {
                    let demand = &self.demands[&id].demand;
                    buffers.fresh.push((
                        id,
                        options_from_matrix(demand, dist, &self.global_sites, self.max_options),
                    ));
                }
            }
            buffers.used.clone_from(&self.book.local_used);
            let from = if rerun_full { None } else { boundary_from };
            place_suffix(
                self.placement_seq(&self.book.boundary_ids, &buffers.fresh),
                from,
                &self.eff_cap,
                &mut buffers.used,
                &mut buffers.choices,
            );
            self.install(&buffers.choices, &mut buffers.fresh, arrivals, &mut out);
            self.scratch.boundary = buffers;
        }
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

    /// Build the global matrix on its first read; after that, rerun
    /// only the rows the links flipped since can move.
    fn refresh_global_dist(&mut self) {
        let up = &self.link_up;
        let link_ok = |l: LinkId| up[l.0 as usize];
        match self.global_dist.as_mut() {
            Some(dist) => refresh_distance_rows(&self.topo, dist, &self.global_flips, &link_ok),
            None => self.global_dist = Some(distance_matrix(&self.topo, &link_ok)),
        }
        self.global_flips.clear();
    }

    /// The id-ordered `(id, options, previous choice)` sequence
    /// [`place_suffix`] walks. `fresh` holds re-enumerated option lists
    /// for a subsequence of `ids` and overrides the cached ones.
    fn placement_seq<'a>(
        &'a self,
        ids: &'a [u32],
        fresh: &'a [(u32, Vec<AllocOption>)],
    ) -> impl Iterator<Item = (u32, &'a [AllocOption], Option<usize>)> + 'a {
        let mut fresh = fresh.iter().peekable();
        ids.iter().map(move |&id| {
            let e = &self.demands[&id];
            let options = fresh
                .next_if(|(f, _)| *f == id)
                .map_or(e.options.as_slice(), |(_, o)| o.as_slice());
            (id, options, e.choice)
        })
    }

    /// Install re-solved `choices` (ascending id) together with the
    /// re-enumerated option lists in `fresh` (a subsequence of the same
    /// ids, drained), book how each demand that predates the batch
    /// moved, and move local slot use with each local placement.
    fn install(
        &mut self,
        choices: &[(u32, Option<usize>)],
        fresh: &mut Vec<(u32, Vec<AllocOption>)>,
        arrivals: &[u32],
        out: &mut EventOutcome,
    ) {
        let mut fresh = fresh.drain(..).peekable();
        for &(id, choice) in choices {
            let e = self.demands.get_mut(&id).expect("settled demands are live");
            let retired = fresh
                .next_if(|(f, _)| *f == id)
                .map(|(_, o)| mem::replace(&mut e.options, o));
            let old = retired.as_ref().unwrap_or(&e.options);
            let before = e.choice.map(|c| old[c].placement.as_slice());
            let after = choice.map(|c| e.options[c].placement.as_slice());
            if before != after {
                let moved = match (before, after) {
                    // Arrivals are booked as admitted or rejected instead.
                    _ if arrivals.binary_search(&id).is_ok() => None,
                    (Some(_), None) => Some(&mut out.displaced),
                    (None, Some(_)) => Some(&mut out.revived),
                    _ => Some(&mut out.replanned),
                };
                if let Some(list) = moved {
                    list.push(id);
                }
                if e.shard.is_some() {
                    for n in before.unwrap_or_default() {
                        self.book.local_used[n.0 as usize] -= 1;
                    }
                    for n in after.unwrap_or_default() {
                        self.book.local_used[n.0 as usize] += 1;
                    }
                }
            }
            e.choice = choice;
        }
    }

    /// One shard's settle work — a pure function of shared state, safe
    /// to run on any worker. It fills the shard's lent `buffers`.
    fn solve_shard(
        &self,
        region: u32,
        work: Work,
        mut buffers: Buffers,
        arrivals: &[u32],
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
        let ids = &self.book.local_ids[region as usize];

        // Option lists: everything on Full, arrivals always.
        for &id in ids {
            if full || arrivals.binary_search(&id).is_ok() {
                let demand = &self.demands[&id].demand;
                buffers.fresh.push((
                    id,
                    options_from_matrix(demand, dist_ref, sites_ref, self.max_options),
                ));
            }
        }
        let from = match work {
            Work::Full => None,
            Work::From(id) => Some(id),
        };
        buffers.used.clear();
        buffers.used.resize(self.eff_cap.len(), 0);
        place_suffix(
            self.placement_seq(ids, &buffers.fresh),
            from,
            &self.eff_cap,
            &mut buffers.used,
            &mut buffers.choices,
        );
        ShardResult {
            region,
            dist,
            sites,
            buffers,
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
                format!("replan r{r}"),
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

    /// Structural invariants the churn property test leans on, and the
    /// agreement of every maintained list, count and matrix with one
    /// recounted from scratch. Returns the first violation found.
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
        if self.book != self.recount() {
            return Err("maintained id lists or local slot use differ from a recount".to_string());
        }
        if self.eff_cap != self.eff_capacity() {
            return Err("maintained effective capacity differs from the site states".to_string());
        }
        if let Some(cached) = &self.global_dist {
            let up = &self.link_up;
            let link_ok = |l: LinkId| up[l.0 as usize];
            let mut cached = Cow::Borrowed(cached);
            if !self.global_flips.is_empty() {
                refresh_distance_rows(&self.topo, cached.to_mut(), &self.global_flips, &link_ok);
            }
            // Row by row, so the check holds one fresh row at a time.
            for (s, row) in cached.iter().enumerate() {
                if distance_rows(&self.topo, &[NodeId(s as u32)], &link_ok)[0] != *row {
                    return Err(format!(
                        "cached global distance row {s} differs from a fresh one"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Id-ordered first-fit over `seq` (ascending by id), written to `out`.
/// Entries before `from` keep their choice and only charge usage; the
/// rest re-place greedily against `cap − used`. `from = None`
/// re-places everything.
fn place_suffix<'a>(
    seq: impl Iterator<Item = (u32, &'a [AllocOption], Option<usize>)>,
    from: Option<u32>,
    cap: &[usize],
    used: &mut [usize],
    out: &mut Vec<(u32, Option<usize>)>,
) {
    out.clear();
    for (id, options, prev) in seq {
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
        assert!(ctl.demands[&1].shard.is_none(), "demand 1 crosses regions");
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
    fn check_invariants_catches_drifted_maintained_state() {
        let mut ctl = two_region_ctl();
        ctl.apply(ShardEvent::Arrive(demand(0, 0, 2)));
        ctl.apply(ShardEvent::Arrive(demand(1, 0, 5)));
        ctl.apply(ShardEvent::CutLink(LinkId(4)));
        ctl.check_invariants().unwrap();
        let drifted = |drift: &dyn Fn(&mut ShardedController)| {
            let mut c = ctl.clone();
            drift(&mut c);
            c.check_invariants().unwrap_err()
        };
        assert!(drifted(&|c| c.book.local_used[1] += 1).contains("recount"));
        assert!(drifted(&|c| c.book.local_ids[1].push(7)).contains("recount"));
        assert!(drifted(&|c| c.book.boundary_ids.clear()).contains("recount"));
        assert!(drifted(&|c| c.eff_cap[4] = 0).contains("effective capacity"));
        let matrix = |c: &mut ShardedController| c.global_dist.as_mut().unwrap()[0][5] = Some(1);
        assert!(drifted(&matrix).contains("distance row 0"));

        // With no boundary demand live, flips wait for the next read of
        // the global matrix; the check applies them to a copy.
        ctl.apply(ShardEvent::Depart(1));
        ctl.apply(ShardEvent::RepairLink(LinkId(4)));
        ctl.apply(ShardEvent::CutLink(LinkId(2)));
        assert_eq!(ctl.global_flips, vec![LinkId(4), LinkId(2)]);
        ctl.check_invariants().unwrap();
        ctl.apply(ShardEvent::Arrive(demand(2, 1, 4)));
        assert!(ctl.global_flips.is_empty());
        let mut scratch = ctl.clone();
        scratch.full_resolve();
        assert_eq!(ctl.placements(), scratch.placements());
        ctl.check_invariants().unwrap();
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
