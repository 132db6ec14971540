//! The serving runtime: a deterministic, sans-IO event loop driving
//! arrivals → admission → batching → scheduling → completion.
//!
//! Time is virtual (integer picoseconds) and every data structure
//! iterates in a fixed order, so two runs with the same [`ServeConfig`]
//! produce byte-identical metrics JSON — the serving replay test pins
//! this. The loop is event-driven: after every event (arrival, batch
//! timeout, slot release, fault, delivery, retry) the pipeline runs once
//! — the shared drain-and-batch rule ([`Batcher::fill`]), then the
//! redundancy expansion and EDF dispatch. Each run reuses the runtime's
//! closed-batch, dispatch and shed buffers, and a dispatched batch's
//! requests move into its pending entry.
//!
//! Completions are recorded at their computed delivery time when the
//! batch is dispatched; after the arrival horizon the loop keeps running
//! through a drain grace window so in-flight work finishes. Whatever is
//! still queued at the end is reported as `unfinished` — conservation
//! (`arrivals = completed + shed + unfinished`) is asserted in the
//! report.

use crate::admission::{SparseAdmission, TenantShape};
use crate::arrivals::{ArrivalProcess, ArrivalSpec};
use crate::batcher::{Batch, BatchPolicy, Batcher};
use crate::metrics::{MetricsSink, ServeReport};
use crate::request::{ComputeRequest, Outcome, RequestId, ShedReason, TenantId};
use crate::scheduler::{Dispatch, Scheduler, ServiceModel, SiteSpec};
use ofpc_apps::digital::ComputeModel;
use ofpc_core::OnFiberNetwork;
use ofpc_engine::dot::{DotProductUnit, DotUnitConfig};
use ofpc_engine::Primitive;
use ofpc_faults::{FaultKind, FaultPlan};
use ofpc_net::events::EventQueue;
use ofpc_net::routing::shortest_paths;
use ofpc_net::{LinkId, NodeId};
use ofpc_photonics::SimRng;
use ofpc_resil::{
    reconstruct_cost, split_groups, DoneAction, LostAction, MultipathPlan, RedundancyMode,
    ResilTag, SetKind, WorkLedger,
};
use ofpc_telemetry::{track, Telemetry};
use ofpc_transponder::compute::ComputeTransponderConfig;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// One tenant's serving contract.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    pub name: String,
    /// Relative fair-share weight (> 0).
    pub weight: u32,
    /// Admission queue capacity (> 0); beyond it arrivals shed.
    pub queue_capacity: usize,
    pub arrivals: ArrivalSpec,
    pub primitive: Primitive,
    /// Operand vector length per request.
    pub operand_len: usize,
    /// Completion deadline relative to arrival, ps.
    pub deadline_ps: u64,
}

/// Full configuration of a serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    pub seed: u64,
    /// Arrivals are generated in `[0, horizon_ps)`.
    pub horizon_ps: u64,
    /// Extra time after the horizon to drain in-flight work, ps.
    pub drain_grace_ps: u64,
    pub batch: BatchPolicy,
    pub tenants: Vec<TenantSpec>,
    /// Cross-check every Nth dispatched batch against the real photonic
    /// engine (0 disables verification sampling).
    pub verify_every: u64,
}

/// Capped exponential backoff for requests displaced by engine faults.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// First-retry backoff, ps.
    pub base_ps: u64,
    /// Backoff ceiling, ps.
    pub max_backoff_ps: u64,
    /// Retries before the request falls back (or sheds).
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_ps: 10_000_000,           // 10 µs
            max_backoff_ps: 1_000_000_000, // 1 ms
            max_retries: 4,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (0-based), ps.
    pub(crate) fn backoff_ps(&self, attempt: u32) -> u64 {
        self.base_ps
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.max_backoff_ps)
    }
}

/// A dispatched batch whose results have not reached the requesters yet.
/// Completion is only recorded at delivery time, so an engine fault in
/// `(dispatch, done)` can still abort it.
#[derive(Debug, Clone)]
struct PendingBatch {
    node: NodeId,
    /// When the slot finishes computing (site-local), ps. A fault before
    /// this loses the batch; after it, the results are light in the
    /// fiber and survive.
    done_ps: u64,
    delivered_ps: u64,
    batch_size: u32,
    per_request_j: f64,
    requests: Vec<ComputeRequest>,
    /// Trace-tree timestamps (meaningful only when telemetry is on).
    closed_ps: u64,
    dispatched_ps: u64,
    start_ps: u64,
    /// Redundancy-set membership, when this batch is a set member.
    resil: Option<ResilTag>,
}

/// Event kinds; the queue pops them in (time, insertion) order.
#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival {
        tenant: u32,
    },
    BatchDue,
    /// A slot's busy window ended; re-run the pipeline.
    SlotFree,
    /// Engine site hard-fail / repair (the injected fault plan).
    SiteFault {
        node: NodeId,
        up: bool,
    },
    /// Fiber cut / splice on one link (the injected storm plan).
    LinkFault {
        link: LinkId,
        up: bool,
    },
    /// Results of pending batch `key` reach the requesters.
    Deliver {
        key: u64,
    },
    /// Backoff expired for parked request `key`; try again.
    Retry {
        key: u64,
    },
}

/// What the redundancy layer did during a run, reported alongside the
/// [`ServeReport`] by [`ServeRuntime::run_with_resil`]. All counters
/// are deterministic functions of (config, storm, policies).
#[derive(Debug, Clone, Default, Serialize)]
pub struct ResilSummary {
    /// Redundancy sets formed, by kind.
    pub replica_sets: u64,
    pub parity_sets: u64,
    /// Sets formed with only one usable entry path (serialized
    /// same-path fallback: survives engine faults, not a severed span).
    pub serialized_fallback_sets: u64,
    /// Protected batches admitted with *no* usable planned path — run
    /// unprotected, with a telemetry warning.
    pub unprotected_downgrades: u64,
    /// Late duplicates cancelled before launch (free) / mid-flight
    /// (energy already burned).
    pub(crate) duplicates_cancelled_prelaunch: u64,
    pub(crate) duplicates_cancelled_inflight: u64,
    /// Deliveries of already-complete sets, suppressed without effect.
    pub(crate) duplicate_deliveries_suppressed: u64,
    /// Member losses redundancy absorbed with zero client impact.
    pub losses_absorbed: u64,
    /// Parity reconstructions performed / requests recovered by them.
    pub reconstructions: u64,
    pub reconstructed_requests: u64,
    /// Sets that lost more members than redundancy covers; their
    /// requests re-entered admission.
    pub sets_lost: u64,
    pub requeued_requests: u64,
    /// Digital XOR-reconstruction energy, J.
    pub reconstruct_energy_j: f64,
    /// Fiber cuts the runtime observed (distinct cut events).
    pub link_cuts_seen: u64,
    /// Sets with a member unaccounted for at end of run (must be 0).
    pub unsettled_sets: u64,
}

/// The assembled serving runtime.
pub struct ServeRuntime {
    config: ServeConfig,
    admission: SparseAdmission,
    /// Each tenant's admission shape, indexed by tenant.
    shapes: Vec<TenantShape>,
    /// Each tenant's resilience contract, indexed by tenant (default
    /// [`RedundancyMode::Unprotected`]; see
    /// [`ServeRuntime::with_redundancy`]).
    redundancy: Vec<RedundancyMode>,
    batcher: Batcher,
    scheduler: Scheduler,
    metrics: MetricsSink,
    arrivals: Vec<ArrivalProcess>,
    events: EventQueue<Event>,
    next_request_id: u64,
    now_ps: u64,
    /// Real photonic engine for sampled cross-checks; built only when
    /// `verify_every > 0`.
    verify_unit: Option<DotProductUnit>,
    /// Backoff policy for fault-displaced requests.
    retry: RetryPolicy,
    /// Digital baseline that absorbs requests when photonic capacity is
    /// exhausted; `None` sheds them as `EngineFailed` instead.
    fallback: Option<ComputeModel>,
    /// Dispatched batches awaiting delivery, keyed by dispatch id.
    in_service: BTreeMap<u64, PendingBatch>,
    next_pending: u64,
    /// Requests parked on a retry backoff, keyed by park id.
    parked: BTreeMap<u64, ComputeRequest>,
    next_parked: u64,
    /// Retry attempts consumed per displaced request.
    attempts: BTreeMap<RequestId, u32>,
    /// Observability handle; disabled by default (one branch per emit
    /// site — see [`ServeRuntime::with_telemetry`]).
    tel: Telemetry,
    /// When each in-flight request left its admission queue (request id
    /// → ps); populated only while telemetry is enabled, feeds the
    /// per-request trace tree emitted at delivery.
    drained_ps: BTreeMap<u64, u64>,
    /// Link-disjoint route plan for proactive redundancy (None = the
    /// legacy reactive-only path).
    site_plan: Option<MultipathPlan>,
    /// Planned route per site (first plan entry wins), for in-flight
    /// loss attribution and reachability tracking.
    site_routes: BTreeMap<NodeId, Vec<LinkId>>,
    /// Links currently cut.
    link_down: BTreeSet<LinkId>,
    /// Deterministic arbiter of redundancy-set completions/losses.
    ledger: WorkLedger,
    next_set: u64,
    /// Lost members' requests, parked for parity reconstruction or
    /// requeue, keyed by (set, member).
    stash: BTreeMap<(u64, u8), Vec<ComputeRequest>>,
    /// Requests already given a terminal outcome through the redundancy
    /// divert path; late sibling deliveries must skip them.
    finalized: BTreeSet<RequestId>,
    resil_stats: ResilSummary,
    /// Buffers each pipeline run lends the batcher, the scheduler and
    /// admission, kept empty between runs to reuse their allocations:
    /// closed batches, dispatches and shed records.
    closed: Vec<Batch>,
    dispatches: Vec<Dispatch>,
    shed: Vec<(ComputeRequest, ShedReason)>,
}

impl ServeRuntime {
    /// Build over an explicit site list and service model (pure sans-IO
    /// construction; see [`ServeRuntime::over_network`] for the wired
    /// path).
    pub fn new(config: ServeConfig, model: ServiceModel, sites: Vec<SiteSpec>) -> Self {
        assert!(!config.tenants.is_empty(), "need at least one tenant");
        assert!(config.horizon_ps > 0, "horizon must be positive");
        // DRR grants credit per weight unit per round: a zero-weight
        // tenant would bank nothing forever and starve while holding a
        // live queue, so construction refuses the config outright. The
        // registry labels every `serve_*` series by tenant name, so two
        // tenants sharing a name would merge there; that is refused too.
        let shapes: Vec<TenantShape> = config
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                assert!(
                    t.queue_capacity > 0,
                    "tenant queue capacity must be positive"
                );
                assert!(t.weight > 0, "tenant weight must be positive");
                assert!(
                    config.tenants[..i].iter().all(|u| u.name != t.name),
                    "tenant name {:?} is used twice",
                    t.name
                );
                TenantShape {
                    capacity: t.queue_capacity,
                    weight: t.weight,
                }
            })
            .collect();
        let mut rng = SimRng::seed_from_u64(config.seed);
        let arrivals: Vec<ArrivalProcess> = config
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| ArrivalProcess::new(t.arrivals, rng.derive(&format!("tenant-{i}"))))
            .collect();
        let verify_unit = (config.verify_every > 0).then(|| {
            let mut verify_rng = rng.derive("verify-engine");
            let mut unit = DotProductUnit::new(DotUnitConfig::realistic(), &mut verify_rng);
            unit.calibrate(256);
            unit
        });
        let tenant_count = config.tenants.len();
        let mut rt = ServeRuntime {
            admission: SparseAdmission::new(),
            shapes,
            redundancy: vec![RedundancyMode::Unprotected; tenant_count],
            batcher: Batcher::new(config.batch),
            scheduler: Scheduler::new(model, sites),
            metrics: MetricsSink::new(tenant_count),
            arrivals,
            events: EventQueue::new(),
            next_request_id: 0,
            now_ps: 0,
            verify_unit,
            retry: RetryPolicy::default(),
            fallback: None,
            in_service: BTreeMap::new(),
            next_pending: 0,
            parked: BTreeMap::new(),
            next_parked: 0,
            attempts: BTreeMap::new(),
            tel: Telemetry::disabled(),
            drained_ps: BTreeMap::new(),
            site_plan: None,
            site_routes: BTreeMap::new(),
            link_down: BTreeSet::new(),
            ledger: WorkLedger::new(),
            next_set: 0,
            stash: BTreeMap::new(),
            finalized: BTreeSet::new(),
            resil_stats: ResilSummary::default(),
            closed: Vec::new(),
            dispatches: Vec::new(),
            shed: Vec::new(),
            config,
        };
        // Seed the first arrival of every tenant.
        for i in 0..tenant_count {
            rt.schedule_next_arrival(i as u32);
        }
        rt
    }

    /// Build over a deployed [`OnFiberNetwork`]: every upgraded site
    /// becomes a compute site, with access delay taken from shortest
    /// propagation paths out of `front_end`, and the service model
    /// priced from the realistic compute transponder (the ideal one
    /// prices the same: both run at the 32 Gb/s line rate, and the
    /// result ADC is charged at least `ADC_SAMPLE_J`).
    pub fn over_network(
        sys: &OnFiberNetwork,
        front_end: NodeId,
        wdm_channels: usize,
        config: ServeConfig,
    ) -> Self {
        let dist = shortest_paths(&sys.net.topo, front_end);
        let sites: Vec<SiteSpec> = sys
            .compute_sites()
            .into_iter()
            .map(|(node, slots)| {
                let (access_ps, _) = *dist
                    .get(&node)
                    .unwrap_or_else(|| panic!("site {node:?} unreachable from {front_end:?}"));
                SiteSpec {
                    node,
                    slots,
                    access_ps,
                }
            })
            .collect();
        assert!(
            !sites.is_empty(),
            "no upgraded compute sites; call upgrade_site first"
        );
        let model =
            ServiceModel::from_transponder(&ComputeTransponderConfig::realistic(), wdm_channels);
        ServeRuntime::new(config, model, sites)
    }

    /// Inject an `ofpc-faults` plan — a generated storm or a hand-built
    /// schedule such as [`FaultPlan::engine_outage`]: fiber cuts and
    /// splices become link-fault events, engine fails/repairs become
    /// site faults, analog noise steps are out of the serving loop's
    /// scope and are ignored. Events enter in plan order, so same plan
    /// + same seed ⇒ byte-identical report.
    pub fn with_storm(mut self, plan: &FaultPlan) -> Self {
        for ev in &plan.events {
            match ev.kind {
                FaultKind::FiberCut { link } => {
                    self.push_event(ev.at_ps, Event::LinkFault { link, up: false });
                }
                FaultKind::LinkRestore { link } => {
                    self.push_event(ev.at_ps, Event::LinkFault { link, up: true });
                }
                FaultKind::EngineFail { node } => {
                    self.push_event(ev.at_ps, Event::SiteFault { node, up: false });
                }
                FaultKind::EngineRepair { node } => {
                    self.push_event(ev.at_ps, Event::SiteFault { node, up: true });
                }
                FaultKind::NoiseStep { .. } => {}
            }
        }
        self
    }

    /// Install per-tenant redundancy policies over a link-disjoint
    /// route plan. Protected tenants' batches expand into replica or
    /// parity sets pinned to disjoint entry paths; batches of
    /// `Unprotected` tenants (and all batches when no plan is
    /// installed) keep the legacy reactive path. Requires one policy
    /// per configured tenant.
    pub fn with_redundancy(mut self, policies: &[RedundancyMode], plan: MultipathPlan) -> Self {
        assert_eq!(
            policies.len(),
            self.config.tenants.len(),
            "one redundancy policy per tenant"
        );
        self.redundancy = policies.to_vec();
        for r in &plan.routes {
            self.site_routes
                .entry(r.node)
                .or_insert_with(|| r.route.links.clone());
        }
        self.site_plan = Some(plan);
        self
    }

    /// Attach an observability handle. With an enabled handle the
    /// runtime emits sim-time trace spans (one tree per completed
    /// request — queue → batch → sched → fiber → engine → fiber — on the
    /// request track, per-slot service spans on the site track, and
    /// instant events for sheds, faults, and fallbacks), and at the end
    /// of the run publishes its metrics collectors onto the shared
    /// registry (`serve_*` series, see `MetricsSink::publish`)
    /// together with the event-loop count `serve_events_total` and the
    /// dispatch count `serve_dispatches_total`. Call before
    /// [`ServeRuntime::run`]; a disabled handle (the default) costs one
    /// branch per emit site.
    pub fn with_telemetry(mut self, tel: &Telemetry) -> Self {
        self.tel = tel.clone();
        self
    }

    /// Override the fault-retry backoff policy.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Run the per-request verification engine on the given
    /// [`KernelBackend`](ofpc_engine::dot::KernelBackend). `Scalar`
    /// (the default) is a strict no-op —
    /// the verify unit keeps the exact state `new` built, so historical
    /// runs stay byte-identical. `Vectorized` rebuilds the calibration
    /// on the fused kernels: same physics, own noise stream, so verify
    /// error statistics stay equivalent while the sweep runs several
    /// times faster (DESIGN.md §12). Without verification sampling
    /// (`verify_every == 0`) there is no unit and this does nothing.
    pub fn with_verify_backend(mut self, backend: ofpc_engine::dot::KernelBackend) -> Self {
        if let Some(unit) = &mut self.verify_unit {
            if backend != unit.config.backend {
                unit.config.backend = backend;
                unit.calibrate(256);
            }
        }
        self
    }

    /// Enable graceful degradation: when photonic capacity is exhausted
    /// by faults, requests are answered by this digital baseline —
    /// correct results at worse latency and energy — instead of shedding.
    pub fn with_digital_fallback(mut self, model: ComputeModel) -> Self {
        self.fallback = Some(model);
        self
    }

    fn push_event(&mut self, t_ps: u64, ev: Event) {
        self.events.schedule_at(t_ps, ev);
    }

    fn schedule_next_arrival(&mut self, tenant: u32) {
        let t = self.arrivals[tenant as usize].next_arrival_ps();
        if t < self.config.horizon_ps {
            self.push_event(t, Event::Arrival { tenant });
        }
    }

    fn handle_arrival(&mut self, tenant: u32) {
        let spec = &self.config.tenants[tenant as usize];
        let id = self.next_request_id;
        self.next_request_id += 1;
        let req = ComputeRequest {
            id: RequestId(id),
            tenant: TenantId(tenant),
            primitive: spec.primitive,
            operand_len: spec.operand_len as u32,
            arrival_ps: self.now_ps,
            deadline_ps: self.now_ps.saturating_add(spec.deadline_ps),
        };
        self.metrics.on_arrival(TenantId(tenant));
        self.admission.offer(req, self.shapes[tenant as usize]);
        self.schedule_next_arrival(tenant);
    }

    /// Move work through admission → batcher → scheduler once: the
    /// shared drain-and-batch rule ([`Batcher::fill`], capped so the
    /// downstream stays bounded), then redundancy expansion, EDF
    /// dispatch and the batch-timeout alarm.
    fn run_pipeline(&mut self) {
        let now = self.now_ps;
        // Every photonic slot hard-failed: with a fallback configured,
        // divert queued work to the digital baseline instead of letting
        // it expire in queues it can never leave.
        if self.fallback.is_some() && self.scheduler.healthy_slots() == 0 {
            self.divert_all_to_fallback(now);
            return;
        }
        // Bound open + ready work: a cut-off site's slots still count as
        // idle, and a cut under load must back up into the tenant queues
        // (DRR weights, QueueFull), not into batches nothing dispatches.
        let cap = 2 * self.scheduler.total_slots() * self.config.batch.max_batch;
        let downstream = self.batcher.open_len() + self.scheduler.backlog_requests();
        let tracing = self.tel.is_enabled();
        let mut closed = std::mem::take(&mut self.closed);
        self.batcher.fill(
            &mut self.admission,
            &self.scheduler,
            now,
            cap.saturating_sub(downstream),
            |req| {
                if tracing {
                    self.drained_ps.insert(req.id.0, now);
                }
                self.redundancy[req.tenant.0 as usize].rank()
            },
            &mut closed,
        );
        for batch in closed.drain(..) {
            self.metrics.on_batch(batch.len() as u32);
            self.enqueue_with_redundancy(batch);
        }
        self.closed = closed;
        let mut dispatches = std::mem::take(&mut self.dispatches);
        self.scheduler.try_dispatch(now, &mut dispatches);
        for d in dispatches.drain(..) {
            for (req, reason) in &d.shed {
                self.note_shed(req, *reason);
                self.metrics
                    .on_outcome(req.tenant, &Outcome::Shed { reason: *reason });
            }
            if d.batch.is_empty() && d.batch.resil.is_none() {
                continue;
            }
            if tracing {
                let tid = u64::from(d.node.0) * 64 + d.slot as u64;
                let args = vec![
                    ("size", d.batch.len().to_string()),
                    ("node", d.node.0.to_string()),
                    ("slot", d.slot.to_string()),
                ];
                self.tel
                    .begin(track::SITES, tid, "serve", "engine.batch", d.start_ps, args);
                self.tel
                    .end(track::SITES, tid, "serve", "engine.batch", d.done_ps);
            }
            self.push_event(d.free_ps, Event::SlotFree);
            let n = d.batch.len() as u32;
            // A requestless parity member has n = 0; its energy was
            // still burned and is booked by stage below.
            let per_request_j = if n == 0 {
                0.0
            } else {
                d.energy.total_j() / f64::from(n)
            };
            // Stage energy is burned at dispatch whether or not the batch
            // survives to delivery; per-request completion is recorded at
            // delivery time so an engine fault mid-service can abort it.
            self.metrics.add_pass_energy(d.energy);
            // Sampled ground-truth pass through the real photonic engine,
            // before the requests move into the pending batch.
            if let Some(unit) = &mut self.verify_unit {
                if self
                    .scheduler
                    .batches_dispatched
                    .is_multiple_of(self.config.verify_every)
                    && d.batch.class.primitive == Primitive::VectorDotProduct
                    && !d.batch.requests.is_empty()
                {
                    let operands = d.batch.requests[0].operands();
                    let weights = vec![0.5; operands.len()];
                    let photonic = unit.dot_nonneg(&operands, &weights);
                    let digital: f64 = operands.iter().zip(&weights).map(|(a, w)| a * w).sum();
                    self.metrics
                        .verify_abs_errors
                        .push((photonic - digital).abs());
                }
            }
            let key = self.next_pending;
            self.next_pending += 1;
            self.in_service.insert(
                key,
                PendingBatch {
                    node: d.node,
                    done_ps: d.done_ps,
                    delivered_ps: d.delivered_ps,
                    batch_size: n,
                    per_request_j,
                    closed_ps: d.batch.closed_ps,
                    dispatched_ps: now,
                    start_ps: d.start_ps,
                    requests: d.batch.requests,
                    resil: d.batch.resil,
                },
            );
            self.push_event(d.delivered_ps, Event::Deliver { key });
        }
        self.dispatches = dispatches;
        self.book_admission_sheds();
        // Arm the batch-timeout alarm for the oldest open batch.
        if let Some(t) = self.batcher.next_timeout_ps() {
            self.push_event(t.max(now), Event::BatchDue);
        }
    }

    /// Book the shed records accumulated inside admission this instant.
    fn book_admission_sheds(&mut self) {
        let mut shed = std::mem::take(&mut self.shed);
        self.admission.take_shed(&mut shed);
        for (req, reason) in shed.drain(..) {
            self.note_shed(&req, reason);
            self.metrics
                .on_outcome(req.tenant, &Outcome::Shed { reason });
        }
        self.shed = shed;
    }

    /// Expand a closed batch into its tenant's redundancy set — or pass
    /// it straight through for unprotected tenants / no installed plan.
    ///
    /// Set members pin to link-disjoint entry paths that are currently
    /// usable (links up, site slots healthy). With only one usable path
    /// the set degrades to serialized same-path replication (announced
    /// via telemetry); with none, the batch runs declared-unprotected.
    fn enqueue_with_redundancy(&mut self, batch: Batch) {
        if batch.is_empty() {
            return;
        }
        let mode = self.redundancy[batch.requests[0].tenant.0 as usize];
        let Some(plan) = self.site_plan.as_ref() else {
            self.scheduler.enqueue(batch);
            return;
        };
        if !mode.is_protected() {
            self.scheduler.enqueue(batch);
            return;
        }
        let pins: Vec<NodeId> = plan
            .routes
            .iter()
            .filter(|r| {
                r.disjoint
                    && !r.route.links.iter().any(|l| self.link_down.contains(l))
                    && self.scheduler.site_healthy(r.node)
            })
            .map(|r| r.node)
            .collect();
        if pins.is_empty() {
            // Graceful degradation floor: no usable planned path at
            // all. Run the batch unprotected rather than stranding it,
            // and say so.
            self.resil_stats.unprotected_downgrades += 1;
            if self.tel.is_enabled() {
                self.tel.instant(
                    track::RESIL,
                    self.next_set,
                    "resil",
                    "downgrade.unprotected",
                    self.now_ps,
                    vec![("size", batch.len().to_string())],
                );
            }
            self.scheduler.enqueue(batch);
            return;
        }
        if pins.len() == 1 {
            // One usable path: both members ride it serialized. Engine
            // faults and transient cuts are still survivable; a severed
            // shared span is not — warn, don't pretend.
            self.resil_stats.serialized_fallback_sets += 1;
            if self.tel.is_enabled() {
                self.tel.instant(
                    track::RESIL,
                    self.next_set,
                    "resil",
                    "fallback.serialized",
                    self.now_ps,
                    vec![("pin", pins[0].0.to_string())],
                );
            }
        }
        let set = self.next_set;
        self.next_set += 1;
        let deadline_ps = batch.deadline_ps();
        // Rotate the pin assignment by set id so successive sets spread
        // across every disjoint route instead of always loading the
        // first `members` routes of the plan.
        let spread = set as usize;
        match mode {
            RedundancyMode::Replica => {
                self.ledger.register(set, SetKind::Replica);
                self.resil_stats.replica_sets += 1;
                for member in 0..2u8 {
                    let mut b = batch.clone();
                    b.resil = Some(ResilTag {
                        set,
                        member,
                        pin: pins[(spread + member as usize) % pins.len()],
                        phantom: 0,
                        deadline_ps,
                    });
                    self.scheduler.enqueue(b);
                }
            }
            RedundancyMode::XorParity { data_groups } => {
                let sizes = split_groups(batch.len(), data_groups as usize);
                let k = sizes.len() as u8;
                self.ledger
                    .register(set, SetKind::Parity { data_members: k });
                self.resil_stats.parity_sets += 1;
                let mut offset = 0usize;
                for (m, &sz) in sizes.iter().enumerate() {
                    let b = Batch {
                        class: batch.class,
                        requests: batch.requests[offset..offset + sz].to_vec(),
                        closed_ps: batch.closed_ps,
                        resil: Some(ResilTag {
                            set,
                            member: m as u8,
                            pin: pins[(spread + m) % pins.len()],
                            phantom: 0,
                            deadline_ps,
                        }),
                    };
                    offset += sz;
                    self.scheduler.enqueue(b);
                }
                // The parity group: XOR of the data groups, phantom-
                // sized like the widest one so its wavelength time and
                // energy are priced honestly.
                let phantom = sizes.iter().copied().max().unwrap_or(0) as u32;
                self.scheduler.enqueue(Batch {
                    class: batch.class,
                    requests: Vec::new(),
                    closed_ps: batch.closed_ps,
                    resil: Some(ResilTag {
                        set,
                        member: k,
                        pin: pins[(spread + k as usize) % pins.len()],
                        phantom,
                        deadline_ps,
                    }),
                });
            }
            RedundancyMode::Unprotected => unreachable!("filtered above"),
        }
    }

    /// Results of pending batch `key` reach the requesters: record the
    /// completions. Aborted batches were already removed from the table,
    /// so their stale delivery events are no-ops. Redundancy-set
    /// members route through the work ledger, which arbitrates
    /// first-home-wins, duplicate suppression, and reconstruction
    /// deterministically.
    fn handle_deliver(&mut self, key: u64) {
        let Some(p) = self.in_service.remove(&key) else {
            return;
        };
        let Some(tag) = p.resil else {
            self.complete_batch_requests(&p);
            return;
        };
        match self.ledger.on_member_done(tag.set, tag.member) {
            DoneAction::Complete { cancel } => {
                self.complete_batch_requests(&p);
                for m in cancel {
                    self.cancel_set_member(tag.set, m);
                }
                self.drop_set_stash(tag.set);
            }
            DoneAction::Duplicate => {
                self.resil_stats.duplicate_deliveries_suppressed += 1;
            }
            DoneAction::Record => {
                self.complete_batch_requests(&p);
            }
            DoneAction::RecordAndReconstruct { member } => {
                self.complete_batch_requests(&p);
                self.reconstruct_member(tag.set, member);
            }
        }
    }

    /// Record a completion outcome for every request of a delivered
    /// batch (skipping any the divert path already finalized).
    fn complete_batch_requests(&mut self, p: &PendingBatch) {
        for req in &p.requests {
            if self.finalized.contains(&req.id) {
                continue;
            }
            self.attempts.remove(&req.id);
            if self.tel.is_enabled() {
                self.trace_request(req, p);
            }
            self.metrics.on_outcome(
                req.tenant,
                &Outcome::Completed {
                    latency_ps: p.delivered_ps - req.arrival_ps,
                    batch_size: p.batch_size,
                    energy_j: p.per_request_j,
                },
            );
        }
    }

    /// Cancel a still-pending redundancy-set member: free if it has not
    /// launched, a write-off of already-spent energy if it is in
    /// flight. Members already terminal are left to the ledger.
    fn cancel_set_member(&mut self, set: u64, member: u8) {
        if self.scheduler.cancel_member(set, member) {
            self.resil_stats.duplicates_cancelled_prelaunch += 1;
            return;
        }
        let key = self
            .in_service
            .iter()
            .find(|(_, p)| p.resil.is_some_and(|t| t.set == set && t.member == member))
            .map(|(&k, _)| k);
        if let Some(k) = key {
            self.in_service.remove(&k);
            self.resil_stats.duplicates_cancelled_inflight += 1;
        }
    }

    /// Drop every stashed request list of `set`.
    fn drop_set_stash(&mut self, set: u64) {
        let keys: Vec<(u64, u8)> = self
            .stash
            .range((set, 0)..=(set, u8::MAX))
            .map(|(&k, _)| k)
            .collect();
        for k in keys {
            self.stash.remove(&k);
        }
    }

    /// Digitally reconstruct a lost data group from its k surviving
    /// siblings + parity: XOR is byte-wise, so cost scales with the
    /// group's operand bytes times the groups read.
    fn reconstruct_member(&mut self, set: u64, member: u8) {
        let Some(reqs) = self.stash.remove(&(set, member)) else {
            return;
        };
        let k = match self.ledger.kind(set) {
            Some(SetKind::Parity { data_members }) => u64::from(data_members),
            _ => 1,
        };
        let bytes = reqs.iter().map(|r| r.operand_len as usize).sum::<usize>() * k as usize;
        let (recon_ps, recon_j) = reconstruct_cost(bytes);
        self.metrics.add_stage_energy("parity-reconstruct", recon_j);
        self.resil_stats.reconstructions += 1;
        self.resil_stats.reconstructed_requests += reqs.len() as u64;
        self.resil_stats.reconstruct_energy_j += recon_j;
        if self.tel.is_enabled() {
            self.tel.instant(
                track::RESIL,
                set,
                "resil",
                "parity.reconstruct",
                self.now_ps,
                vec![
                    ("member", member.to_string()),
                    ("requests", reqs.len().to_string()),
                ],
            );
        }
        let delivered = self.now_ps + recon_ps;
        let per_j = if reqs.is_empty() {
            0.0
        } else {
            recon_j / reqs.len() as f64
        };
        for req in &reqs {
            if self.finalized.contains(&req.id) {
                continue;
            }
            self.attempts.remove(&req.id);
            self.metrics.on_outcome(
                req.tenant,
                &Outcome::Completed {
                    latency_ps: delivered - req.arrival_ps,
                    batch_size: reqs.len().max(1) as u32,
                    energy_j: per_j,
                },
            );
        }
    }

    /// An in-flight batch was lost to a fault. Unprotected batches take
    /// the legacy reactive path (retry backoff → fallback); set members
    /// are stashed and arbitrated by the ledger — one loss per set is
    /// absorbed outright, beyond that the lost work re-enters admission.
    fn lose_member(&mut self, resil: Option<ResilTag>, requests: Vec<ComputeRequest>) {
        let Some(tag) = resil else {
            for req in requests {
                self.requeue_or_fallback(req);
            }
            return;
        };
        self.stash.insert((tag.set, tag.member), requests);
        match self.ledger.on_member_lost(tag.set, tag.member) {
            LostAction::Absorbed => {
                self.resil_stats.losses_absorbed += 1;
                if self.tel.is_enabled() {
                    self.tel.instant(
                        track::RESIL,
                        tag.set,
                        "resil",
                        "loss.absorbed",
                        self.now_ps,
                        vec![("member", tag.member.to_string())],
                    );
                }
            }
            LostAction::Reconstruct { member } => {
                self.resil_stats.losses_absorbed += 1;
                self.reconstruct_member(tag.set, member);
            }
            LostAction::AlreadyResolved => {
                self.stash.remove(&(tag.set, tag.member));
            }
            LostAction::Requeue { members } => {
                self.resil_stats.sets_lost += 1;
                let kind = self.ledger.kind(tag.set);
                let mut work: Vec<ComputeRequest> = Vec::new();
                let mut seen: BTreeSet<RequestId> = BTreeSet::new();
                for m in members {
                    if let Some(reqs) = self.stash.remove(&(tag.set, m)) {
                        for r in reqs {
                            if seen.insert(r.id) {
                                work.push(r);
                            }
                        }
                    }
                }
                // Replica copies carry identical requests: drop the
                // sibling stashes so nothing requeues twice.
                if matches!(kind, Some(SetKind::Replica)) {
                    self.drop_set_stash(tag.set);
                }
                if self.tel.is_enabled() {
                    self.tel.instant(
                        track::RESIL,
                        tag.set,
                        "resil",
                        "set.lost",
                        self.now_ps,
                        vec![("requeued", work.len().to_string())],
                    );
                }
                for req in work {
                    self.resil_stats.requeued_requests += 1;
                    self.requeue_or_fallback(req);
                }
            }
        }
    }

    /// A fiber cut or splice fires. Cuts sever every planned route
    /// riding the link: affected sites become unreachable for new
    /// dispatches, and in-flight batches on the link — operands out or
    /// results back — are lost as loss-of-light.
    fn handle_link_fault(&mut self, link: LinkId, up: bool) {
        if self.tel.is_enabled() {
            self.tel.instant(
                track::NET,
                u64::from(link.0),
                "fault",
                if up { "link.splice" } else { "link.cut" },
                self.now_ps,
                vec![("link", link.0.to_string())],
            );
        }
        if up {
            self.link_down.remove(&link);
        } else if self.link_down.insert(link) {
            self.resil_stats.link_cuts_seen += 1;
        }
        let reach: Vec<(NodeId, bool)> = self
            .site_routes
            .iter()
            .map(|(&n, links)| (n, !links.iter().any(|l| self.link_down.contains(l))))
            .collect();
        for (n, ok) in reach {
            self.scheduler.set_reachable(n, ok);
        }
        if up {
            return;
        }
        // A batch rides its site's planned route (none without a plan):
        // a cut on any of its links before delivery loses the batch.
        let lost: Vec<u64> = self
            .in_service
            .iter()
            .filter(|(_, p)| {
                p.delivered_ps > self.now_ps
                    && self
                        .site_routes
                        .get(&p.node)
                        .is_some_and(|route| route.contains(&link))
            })
            .map(|(&k, _)| k)
            .collect();
        for key in lost {
            let p = self.in_service.remove(&key).expect("just listed");
            if self.tel.is_enabled() {
                self.tel.instant(
                    track::NET,
                    u64::from(link.0),
                    "fault",
                    "batch.lost",
                    self.now_ps,
                    vec![("size", p.batch_size.to_string())],
                );
            }
            self.lose_member(p.resil, p.requests);
        }
    }

    /// Emit one completed request's life as a trace tree: all
    /// timestamps are known at delivery time, so the whole nest —
    /// queue, batch-forming, scheduler wait, outbound fiber, engine
    /// service, return fiber — is emitted at once on the request's own
    /// track.
    fn trace_request(&mut self, req: &ComputeRequest, p: &PendingBatch) {
        let tid = req.id.0;
        let drained = self
            .drained_ps
            .remove(&tid)
            .unwrap_or(req.arrival_ps)
            .min(p.closed_ps);
        self.tel.begin(
            track::REQUESTS,
            tid,
            "serve",
            "request",
            req.arrival_ps,
            vec![("tenant", req.tenant.0.to_string())],
        );
        let stages = [
            ("serve.queue", req.arrival_ps, drained),
            ("serve.batch", drained, p.closed_ps),
            ("serve.sched", p.closed_ps, p.dispatched_ps),
            ("fiber.out", p.dispatched_ps, p.start_ps),
            ("engine.mvm", p.start_ps, p.done_ps),
            ("fiber.ret", p.done_ps, p.delivered_ps),
        ];
        for (name, start, end) in stages {
            self.tel
                .span(track::REQUESTS, tid, "serve", name, start, end);
        }
        self.tel
            .end(track::REQUESTS, tid, "serve", "request", p.delivered_ps);
    }

    /// Telemetry-only record of a shed: drop the request's trace state
    /// and mark the shed as an instant event on its track.
    fn note_shed(&mut self, req: &ComputeRequest, reason: ShedReason) {
        if self.tel.is_enabled() {
            self.drained_ps.remove(&req.id.0);
            self.tel.instant(
                track::REQUESTS,
                req.id.0,
                "serve",
                "shed",
                self.now_ps,
                vec![
                    ("reason", format!("{reason:?}")),
                    ("tenant", req.tenant.0.to_string()),
                ],
            );
        }
    }

    /// An injected engine fault transition fires.
    fn handle_site_fault(&mut self, node: NodeId, up: bool) {
        if self.tel.is_enabled() {
            self.tel.instant(
                track::NET,
                u64::from(node.0),
                "fault",
                if up { "site.repair" } else { "site.fail" },
                self.now_ps,
                vec![("node", node.0.to_string())],
            );
        }
        if up {
            self.scheduler.recover_site(node);
            return;
        }
        self.scheduler.fail_site(node);
        // Batches the site was still computing are lost; results already
        // past `done_ps` are light in the fiber and survive.
        let lost: Vec<u64> = self
            .in_service
            .iter()
            .filter(|(_, p)| p.node == node && p.done_ps > self.now_ps)
            .map(|(&k, _)| k)
            .collect();
        for key in lost {
            let p = self.in_service.remove(&key).expect("just listed");
            if self.tel.is_enabled() {
                self.tel.instant(
                    track::NET,
                    u64::from(node.0),
                    "fault",
                    "batch.abort",
                    self.now_ps,
                    vec![("size", p.batch_size.to_string())],
                );
            }
            self.lose_member(p.resil, p.requests);
        }
    }

    /// A parked request's backoff expired.
    fn handle_retry(&mut self, key: u64) {
        let Some(req) = self.parked.remove(&key) else {
            return;
        };
        if self.scheduler.healthy_slots() == 0
            || (self.fallback.is_some() && req.expired(self.now_ps))
        {
            self.attempts.remove(&req.id);
            self.finish_degraded(req);
        } else {
            // Back through admission: the retry competes fairly with new
            // arrivals for the surviving slots (no second arrival count —
            // the request was counted once).
            let shape = self.shapes[req.tenant.0 as usize];
            self.admission.offer(req, shape);
        }
    }

    /// Route a fault-displaced request: park it for a capped-exponential
    /// backoff retry while budget remains and survivors exist, else hand
    /// it to the terminal degraded/shed path.
    fn requeue_or_fallback(&mut self, req: ComputeRequest) {
        let attempt = {
            let a = self.attempts.entry(req.id).or_insert(0);
            *a += 1;
            *a
        };
        let at = self
            .now_ps
            .saturating_add(self.retry.backoff_ps(attempt - 1));
        // The capped backoff must never park a request past its own
        // deadline: it would wake only to expire. Hand it to the
        // terminal path now instead of wasting the wait.
        if attempt > self.retry.max_retries
            || self.scheduler.healthy_slots() == 0
            || at > req.deadline_ps
        {
            self.attempts.remove(&req.id);
            self.finish_degraded(req);
            return;
        }
        let key = self.next_parked;
        self.next_parked += 1;
        self.parked.insert(key, req);
        self.push_event(at, Event::Retry { key });
    }

    /// Terminal path for a request photonics cannot serve: the digital
    /// baseline computes it (correct answer, worse latency and energy),
    /// or — with no fallback configured — it sheds as `EngineFailed`.
    fn finish_degraded(&mut self, req: ComputeRequest) {
        if self.tel.is_enabled() {
            self.drained_ps.remove(&req.id.0);
            self.tel.instant(
                track::REQUESTS,
                req.id.0,
                "fault",
                if self.fallback.is_some() {
                    "fallback.digital"
                } else {
                    "shed"
                },
                self.now_ps,
                vec![("tenant", req.tenant.0.to_string())],
            );
        }
        match &self.fallback {
            Some(model) => {
                let macs = u64::from(req.operand_len);
                let compute_ps = (model.time_for_macs(macs) * 1e12) as u64;
                let energy_j = model.energy_for_macs(macs);
                self.metrics.add_stage_energy("digital-fallback", energy_j);
                self.metrics.on_outcome(
                    req.tenant,
                    &Outcome::DegradedDigital {
                        latency_ps: self.now_ps + compute_ps - req.arrival_ps,
                        energy_j,
                    },
                );
            }
            None => {
                self.metrics.on_outcome(
                    req.tenant,
                    &Outcome::Shed {
                        reason: ShedReason::EngineFailed,
                    },
                );
            }
        }
    }

    /// Photonic capacity is gone: push everything queued anywhere to the
    /// digital fallback. Requests still in admission whose deadline has
    /// already passed are shed (`DeadlineExpiredQueued`) by the drain
    /// instead; everything in open or ready batches degrades, late or
    /// not.
    fn divert_all_to_fallback(&mut self, now: u64) {
        let mut drained = Vec::new();
        self.admission
            .drain_fair(self.admission.queued(), now, &mut drained);
        for req in drained {
            self.finish_degraded(req);
        }
        self.batcher.flush_all(now);
        let mut closed = std::mem::take(&mut self.closed);
        self.batcher.take_closed(&mut closed);
        for batch in closed.drain(..) {
            for req in batch.requests {
                self.finish_degraded(req);
            }
        }
        self.closed = closed;
        for batch in self.scheduler.drain_ready() {
            if let Some(tag) = batch.resil {
                // Blackout divert: every member of the set is headed
                // the same way, so degrade each request exactly once
                // (replica copies share ids) and settle the ledger.
                if let LostAction::Requeue { members } =
                    self.ledger.on_member_lost(tag.set, tag.member)
                {
                    for m in members {
                        if let Some(reqs) = self.stash.remove(&(tag.set, m)) {
                            for req in reqs {
                                if self.finalized.insert(req.id) {
                                    self.finish_degraded(req);
                                }
                            }
                        }
                    }
                }
                for req in batch.requests {
                    if self.finalized.insert(req.id) {
                        self.finish_degraded(req);
                    }
                }
            } else {
                for req in batch.requests {
                    self.finish_degraded(req);
                }
            }
        }
        // Sheds recorded at offer time and by the drain above surface.
        self.book_admission_sheds();
    }

    /// Requests with no terminal outcome at end of run. Redundancy-set
    /// copies are deduplicated by request id (two stranded replica
    /// members are one unfinished request, not two), and requests the
    /// divert path already finalized are excluded.
    fn unfinished_requests(&self) -> u64 {
        let plain: usize = self.admission.queued()
            + self.batcher.open_len()
            + self.parked.len()
            + self
                .scheduler
                .ready_batches()
                .iter()
                .filter(|b| b.resil.is_none())
                .map(Batch::len)
                .sum::<usize>();
        let mut grouped: BTreeSet<RequestId> = BTreeSet::new();
        for b in self.scheduler.ready_batches() {
            if b.resil.is_some() {
                for r in &b.requests {
                    grouped.insert(r.id);
                }
            }
        }
        for reqs in self.stash.values() {
            for r in reqs {
                grouped.insert(r.id);
            }
        }
        let grouped = grouped
            .iter()
            .filter(|id| !self.finalized.contains(id))
            .count();
        (plain + grouped) as u64
    }

    /// Run to completion and produce the final report.
    pub fn run(self) -> ServeReport {
        self.run_with_resil().0
    }

    /// Handle the next event, then run the pipeline once. Returns
    /// `false` when no event is left.
    fn step(&mut self) -> bool {
        let Some((t, ev)) = self.events.pop() else {
            return false;
        };
        if t > self.config.horizon_ps + self.config.drain_grace_ps {
            // Past the drain window no new work starts, but results
            // already dispatched are light in the fiber — their
            // deliveries still count.
            if let Event::Deliver { key } = ev {
                self.now_ps = t;
                self.handle_deliver(key);
            }
            return true;
        }
        self.now_ps = t;
        match ev {
            Event::Arrival { tenant } => self.handle_arrival(tenant),
            // The pipeline below re-checks timeouts and idle slots.
            Event::BatchDue | Event::SlotFree => {}
            Event::SiteFault { node, up } => self.handle_site_fault(node, up),
            Event::LinkFault { link, up } => self.handle_link_fault(link, up),
            Event::Deliver { key } => self.handle_deliver(key),
            Event::Retry { key } => self.handle_retry(key),
        }
        self.run_pipeline();
        true
    }

    /// Run to completion, returning the report plus the redundancy
    /// layer's summary (all-zero when no redundancy was configured).
    pub fn run_with_resil(mut self) -> (ServeReport, ResilSummary) {
        while self.step() {}
        assert!(self.in_service.is_empty(), "all dispatches delivered");
        let names = self.config.tenants.iter().map(|t| t.name.as_str());
        self.metrics.publish(&self.tel, names);
        self.tel
            .counter("serve_events_total", &Vec::new())
            .add(self.events.events_processed);
        self.tel
            .counter("serve_dispatches_total", &Vec::new())
            .add(self.scheduler.batches_dispatched);
        let unfinished = self.unfinished_requests();
        let duration_s = self.config.horizon_ps as f64 / 1e12;
        let mut summary = self.resil_stats.clone();
        summary.unsettled_sets = self.ledger.unsettled_sets().len() as u64;
        let report = self
            .metrics
            .report(duration_s, unfinished, self.config.batch.max_batch);
        (report, summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofpc_net::Topology;
    use ofpc_telemetry::Phase;

    fn tenant(i: usize, rate_rps: f64, weight: u32) -> TenantSpec {
        TenantSpec {
            name: format!("t{i}-w{weight}"),
            weight,
            queue_capacity: 64,
            arrivals: ArrivalSpec::Poisson { rate_rps },
            primitive: Primitive::VectorDotProduct,
            operand_len: 2048,
            deadline_ps: 200_000_000, // 200 µs
        }
    }

    fn small_config(rate_rps: f64) -> ServeConfig {
        ServeConfig {
            seed: 42,
            horizon_ps: 2_000_000_000, // 2 ms
            drain_grace_ps: 500_000_000,
            batch: BatchPolicy {
                max_batch: 8,
                max_wait_ps: 20_000_000,
            },
            tenants: vec![tenant(0, rate_rps, 1), tenant(1, rate_rps, 1)],
            verify_every: 0,
        }
    }

    // Two slots, four WDM channels, 2048-element requests: per-slot
    // capacity ≈ 7.8M req/s, so test overload is reachable at tens of
    // millions of requests per second.
    fn runtime(config: ServeConfig) -> ServeRuntime {
        let model = ServiceModel::from_transponder(&ComputeTransponderConfig::ideal(), 4);
        let sites = vec![SiteSpec {
            node: NodeId(1),
            slots: 2,
            access_ps: 100_000,
        }];
        ServeRuntime::new(config, model, sites)
    }

    #[test]
    fn light_load_completes_everything() {
        let report = runtime(small_config(20_000.0)).run();
        assert!(report.arrivals > 30, "arrivals {}", report.arrivals);
        assert_eq!(report.shed, 0, "no shedding at light load");
        assert_eq!(report.unfinished, 0);
        assert_eq!(report.completed, report.arrivals);
        assert!(report.p99_latency_us.unwrap() < 1_000.0);
    }

    #[test]
    #[should_panic(expected = "tenant weight must be positive")]
    fn zero_weight_tenant_is_rejected_at_construction() {
        // DRR grants credit per weight unit per round: a zero-weight
        // tenant would bank nothing forever and starve while holding a
        // live queue. Construction refuses the config outright rather
        // than letting the scheduler discover the black hole at runtime.
        let mut cfg = small_config(20_000.0);
        cfg.tenants[1].weight = 0;
        let _ = runtime(cfg);
    }

    #[test]
    #[should_panic(expected = "tenant name \"same\" is used twice")]
    fn duplicate_tenant_names_are_rejected_at_construction() {
        // The registry labels every `serve_*` series by tenant name: two
        // tenants sharing one would merge into one series while the
        // report keeps them apart.
        let mut cfg = small_config(20_000.0);
        for t in &mut cfg.tenants {
            t.name = "same".to_string();
        }
        let _ = runtime(cfg);
    }

    #[test]
    fn overload_sheds_but_conserves() {
        // 2 × 16M req/s offered against ~15.5M req/s of slot capacity.
        let report = runtime(small_config(16_000_000.0)).run();
        assert!(report.shed > 0, "overload must shed");
        assert_eq!(
            report.arrivals,
            report.completed + report.shed + report.unfinished
        );
        // Goodput saturates well below offered load.
        assert!(report.goodput_rps < report.offered_rps * 0.9);
    }

    #[test]
    fn same_seed_same_report() {
        let a = runtime(small_config(500_000.0)).run();
        let b = runtime(small_config(500_000.0)).run();
        assert_eq!(
            serde_json::to_string_pretty(&a).unwrap(),
            serde_json::to_string_pretty(&b).unwrap()
        );
    }

    #[test]
    fn over_network_derives_sites_from_upgrades() {
        let mut sys = OnFiberNetwork::new(Topology::fig1(), 7);
        sys.upgrade_site(NodeId(1), 2);
        sys.upgrade_site(NodeId(2), 1);
        // fig1 spans are 600–900 km, so the operand/result round trip
        // alone is ~8 ms — deadlines must be WAN-scale.
        let mut cfg = small_config(100_000.0);
        for t in &mut cfg.tenants {
            t.deadline_ps = 20_000_000_000; // 20 ms
        }
        let rt = ServeRuntime::over_network(&sys, NodeId(0), 8, cfg);
        assert_eq!(rt.scheduler.total_slots(), 3);
        let report = rt.run();
        assert!(report.completed > 0);
    }

    // A fault plan that takes the only site down mid-run and never
    // repairs it.
    fn outage(at_ps: u64) -> FaultPlan {
        FaultPlan::new().engine_fail(at_ps, NodeId(1))
    }

    #[test]
    fn engine_fault_without_fallback_sheds_displaced_work() {
        let report = runtime(small_config(500_000.0))
            .with_storm(&outage(1_000_000_000))
            .run();
        assert!(report.completed > 0, "pre-fault work completes");
        assert_eq!(report.degraded, 0, "no fallback configured");
        // Everything after the outage is shed or stranded, never lost.
        assert!(report.shed + report.unfinished > 0);
        assert_eq!(
            report.arrivals,
            report.completed + report.shed + report.degraded + report.unfinished
        );
    }

    #[test]
    fn digital_fallback_converts_shed_into_degraded() {
        let cfg = small_config(500_000.0);
        let without = runtime(cfg.clone())
            .with_storm(&outage(1_000_000_000))
            .run();
        let with = runtime(cfg)
            .with_storm(&outage(1_000_000_000))
            .with_digital_fallback(ofpc_apps::digital::ComputeModel::edge_soc())
            .run();
        assert!(with.degraded > 0, "outage work goes digital");
        assert!(
            with.shed + with.unfinished < without.shed + without.unfinished,
            "fallback must beat shedding: {} vs {}",
            with.shed + with.unfinished,
            without.shed + without.unfinished
        );
        assert_eq!(
            with.arrivals,
            with.completed + with.shed + with.degraded + with.unfinished
        );
        // Degradation is visible in the ledger: digital joules appear.
        assert!(with.degraded_energy_j > 0.0);
        assert!(with.energy_stages_j.contains_key("digital-fallback"));
    }

    #[test]
    fn service_resumes_after_repair() {
        let faults = FaultPlan::new().engine_outage(500_000_000, NodeId(1), 500_000_000);
        let report = runtime(small_config(500_000.0))
            .with_storm(&faults)
            .with_digital_fallback(ofpc_apps::digital::ComputeModel::edge_soc())
            .run();
        // The outage degrades, the repair restores photonic service: both
        // populations must be present.
        assert!(report.degraded > 0, "outage window degrades");
        assert!(report.completed > 0, "photonic service resumes");
        assert_eq!(
            report.arrivals,
            report.completed + report.shed + report.degraded + report.unfinished
        );
    }

    #[test]
    fn mid_flight_fault_aborts_computing_batches_but_spares_egressed_results() {
        // Two sites so the displaced work still has survivors to retry
        // on; the fault hits site 1 while three batches are pending.
        let model = ServiceModel::from_transponder(&ComputeTransponderConfig::ideal(), 4);
        let sites = vec![
            SiteSpec {
                node: NodeId(1),
                slots: 2,
                access_ps: 100_000,
            },
            SiteSpec {
                node: NodeId(2),
                slots: 2,
                access_ps: 100_000,
            },
        ];
        let mut rt = ServeRuntime::new(small_config(500_000.0), model, sites);
        rt.now_ps = 1_000_000;
        let req = |id: u64| ComputeRequest {
            id: RequestId(id),
            tenant: TenantId(0),
            primitive: Primitive::VectorDotProduct,
            operand_len: 2048,
            arrival_ps: 0,
            deadline_ps: u64::MAX,
        };
        let pending = |node: NodeId, done_ps: u64, ids: &[u64]| PendingBatch {
            node,
            done_ps,
            delivered_ps: done_ps + 100_000,
            batch_size: ids.len() as u32,
            per_request_j: 0.0,
            requests: ids.iter().map(|&i| req(i)).collect(),
            closed_ps: 0,
            dispatched_ps: 0,
            start_ps: 0,
            resil: None,
        };
        // Batch 0 finished computing before the fault: its results
        // already egressed and are light in the return fiber. Batch 1 is
        // still on the failing engine; batch 2 runs at the other site.
        rt.in_service
            .insert(0, pending(NodeId(1), 900_000, &[1, 2]));
        rt.in_service.insert(1, pending(NodeId(1), 1_500_000, &[3]));
        rt.in_service.insert(2, pending(NodeId(2), 1_500_000, &[4]));
        rt.handle_site_fault(NodeId(1), false);
        assert!(
            rt.in_service.contains_key(&0),
            "egressed results must survive the engine fault"
        );
        assert!(
            !rt.in_service.contains_key(&1),
            "batch still computing at the fault must abort"
        );
        assert!(
            rt.in_service.contains_key(&2),
            "batches at healthy sites are untouched"
        );
        // The aborted batch's member is parked for a retry on the
        // surviving site, never silently dropped.
        assert_eq!(rt.parked.len(), 1);
        assert_eq!(rt.parked.values().next().unwrap().id, RequestId(3));
        // The surviving results still deliver after the site died.
        rt.now_ps = 1_000_000;
        rt.handle_deliver(0);
        assert!(!rt.in_service.contains_key(&0));
    }

    // Hub-and-spoke serving plant: front-end 0, `n` sites each on its
    // own 10 km span — every route link-disjoint by construction.
    fn star_plant(n: usize) -> (Vec<SiteSpec>, ofpc_resil::MultipathPlan) {
        let mut topo = Topology::new();
        let fe = topo.add_node("fe");
        let mut nodes = Vec::new();
        let mut sites = Vec::new();
        for i in 0..n {
            let s = topo.add_node(format!("s{i}"));
            topo.add_link(fe, s, 10.0);
            nodes.push(s);
            sites.push(SiteSpec {
                node: s,
                slots: 2,
                access_ps: 100_000,
            });
        }
        let plan = ofpc_resil::MultipathPlan::plan(&topo, fe, &nodes);
        (sites, plan)
    }

    fn storm_cut(link: ofpc_net::LinkId, at_ps: u64, restore_ps: u64) -> FaultPlan {
        FaultPlan {
            events: vec![
                ofpc_faults::FaultEvent {
                    at_ps,
                    kind: FaultKind::FiberCut { link },
                },
                ofpc_faults::FaultEvent {
                    at_ps: restore_ps,
                    kind: FaultKind::LinkRestore { link },
                },
            ],
        }
    }

    #[test]
    fn replica_tenants_survive_a_fiber_cut_with_zero_failed_requests() {
        let (sites, plan) = star_plant(2);
        let cut = plan.routes[0].route.links[0];
        let model = ServiceModel::from_transponder(&ComputeTransponderConfig::ideal(), 4);
        let (report, resil) = ServeRuntime::new(small_config(500_000.0), model, sites)
            .with_redundancy(&[RedundancyMode::Replica, RedundancyMode::Replica], plan)
            .with_storm(&storm_cut(cut, 800_000_000, 1_300_000_000))
            .run_with_resil();
        assert!(report.completed > 0);
        assert_eq!(report.shed, 0, "protected tenants never shed");
        assert_eq!(report.degraded, 0);
        assert_eq!(report.unfinished, 0);
        assert_eq!(report.arrivals, report.completed, "zero lost work");
        assert!(resil.replica_sets > 0);
        assert_eq!(resil.link_cuts_seen, 1);
        assert_eq!(resil.unsettled_sets, 0, "every member accounted for");
        // First-home-wins visibly arbitrates: duplicates are cancelled
        // or suppressed, never double-counted.
        assert!(
            resil.duplicates_cancelled_prelaunch
                + resil.duplicates_cancelled_inflight
                + resil.duplicate_deliveries_suppressed
                > 0
        );
    }

    #[test]
    fn parity_tenants_survive_a_fiber_cut_with_zero_failed_requests() {
        let (sites, plan) = star_plant(4);
        let cut = plan.routes[1].route.links[0];
        let model = ServiceModel::from_transponder(&ComputeTransponderConfig::ideal(), 4);
        let mode = RedundancyMode::XorParity { data_groups: 3 };
        let (report, resil) = ServeRuntime::new(small_config(500_000.0), model, sites)
            .with_redundancy(&[mode, mode], plan)
            .with_storm(&storm_cut(cut, 800_000_000, 1_300_000_000))
            .run_with_resil();
        assert_eq!(report.shed, 0, "coded tenants never shed");
        assert_eq!(report.degraded, 0);
        assert_eq!(report.arrivals, report.completed + report.unfinished);
        assert_eq!(report.unfinished, 0);
        assert!(resil.parity_sets > 0);
        assert_eq!(resil.unsettled_sets, 0);
    }

    #[test]
    fn dispatch_counter_matches_the_engine_spans_under_a_cut() {
        // Replica members and requestless parity members both occupy a
        // slot; the end-of-run counter must count each exactly once.
        let (sites, plan) = star_plant(4);
        let cut = plan.routes[1].route.links[0];
        let model = ServiceModel::from_transponder(&ComputeTransponderConfig::ideal(), 4);
        let tel = Telemetry::enabled();
        let modes = [
            RedundancyMode::Replica,
            RedundancyMode::XorParity { data_groups: 3 },
        ];
        let (_, resil) = ServeRuntime::new(small_config(500_000.0), model, sites)
            .with_redundancy(&modes, plan)
            .with_storm(&storm_cut(cut, 800_000_000, 1_300_000_000))
            .with_telemetry(&tel)
            .run_with_resil();
        assert!(resil.replica_sets > 0 && resil.parity_sets > 0);
        assert_eq!(resil.link_cuts_seen, 1);
        let spans = tel
            .trace_events()
            .iter()
            .filter(|e| e.pid == track::SITES && e.name == "engine.batch" && e.phase == Phase::B)
            .count() as u64;
        assert!(spans > 0);
        let counted = tel
            .snapshot()
            .counter("serve_dispatches_total", &Vec::new());
        assert_eq!(counted, Some(spans));
    }

    #[test]
    fn parity_loss_then_final_delivery_reconstructs_digitally() {
        let mut rt = runtime(small_config(500_000.0));
        rt.now_ps = 1_000_000;
        let req = |id: u64| ComputeRequest {
            id: RequestId(id),
            tenant: TenantId(0),
            primitive: Primitive::VectorDotProduct,
            operand_len: 64,
            arrival_ps: 0,
            deadline_ps: u64::MAX,
        };
        let tag = |member: u8, phantom: u32| ResilTag {
            set: 0,
            member,
            pin: NodeId(1),
            phantom,
            deadline_ps: u64::MAX,
        };
        let pending = |resil: Option<ResilTag>, ids: &[u64]| PendingBatch {
            node: NodeId(1),
            done_ps: 900_000,
            delivered_ps: 1_000_000,
            batch_size: ids.len() as u32,
            per_request_j: 0.0,
            requests: ids.iter().map(|&i| req(i)).collect(),
            closed_ps: 0,
            dispatched_ps: 0,
            start_ps: 0,
            resil,
        };
        rt.ledger.register(0, SetKind::Parity { data_members: 2 });
        rt.in_service.insert(0, pending(Some(tag(0, 0)), &[1, 2]));
        rt.in_service.insert(2, pending(Some(tag(2, 2)), &[]));
        // Data group 0 delivers, group 1 dies mid-flight (absorbed),
        // and the parity group's delivery triggers reconstruction.
        rt.handle_deliver(0);
        rt.lose_member(Some(tag(1, 0)), vec![req(3), req(4)]);
        assert_eq!(rt.resil_stats.losses_absorbed, 1);
        assert_eq!(rt.stash.len(), 1);
        rt.handle_deliver(2);
        assert_eq!(rt.resil_stats.reconstructions, 1);
        assert_eq!(rt.resil_stats.reconstructed_requests, 2);
        assert!(rt.resil_stats.reconstruct_energy_j > 0.0);
        assert!(rt.stash.is_empty(), "reconstructed stash is consumed");
        assert!(rt.ledger.unsettled_sets().is_empty());
    }

    #[test]
    fn replica_first_home_cancels_the_in_flight_duplicate() {
        let mut rt = runtime(small_config(500_000.0));
        rt.now_ps = 1_000_000;
        let req = |id: u64| ComputeRequest {
            id: RequestId(id),
            tenant: TenantId(0),
            primitive: Primitive::VectorDotProduct,
            operand_len: 64,
            arrival_ps: 0,
            deadline_ps: u64::MAX,
        };
        let member = |m: u8| PendingBatch {
            node: NodeId(1),
            done_ps: 900_000 + u64::from(m),
            delivered_ps: 1_000_000 + u64::from(m),
            batch_size: 1,
            per_request_j: 0.0,
            requests: vec![req(1)],
            closed_ps: 0,
            dispatched_ps: 0,
            start_ps: 0,
            resil: Some(ResilTag {
                set: 0,
                member: m,
                pin: NodeId(1),
                phantom: 0,
                deadline_ps: u64::MAX,
            }),
        };
        rt.ledger.register(0, SetKind::Replica);
        rt.in_service.insert(0, member(0));
        rt.in_service.insert(1, member(1));
        rt.handle_deliver(0);
        assert_eq!(rt.resil_stats.duplicates_cancelled_inflight, 1);
        assert!(
            rt.in_service.is_empty(),
            "losing copy is cancelled mid-flight"
        );
        // The cancelled copy's stale delivery event is a no-op.
        rt.handle_deliver(1);
        assert_eq!(rt.resil_stats.duplicate_deliveries_suppressed, 0);
        assert!(rt.ledger.unsettled_sets().is_empty());
    }

    #[test]
    fn retry_backoff_never_parks_a_request_past_its_deadline() {
        let mut rt = runtime(small_config(500_000.0));
        rt.now_ps = 1_000_000;
        let req = |id: u64, deadline_ps: u64| ComputeRequest {
            id: RequestId(id),
            tenant: TenantId(0),
            primitive: Primitive::VectorDotProduct,
            operand_len: 64,
            arrival_ps: 0,
            deadline_ps,
        };
        // First backoff is 10 µs; this deadline is 5 µs out, so parking
        // would only wake the request to expire. It must go terminal
        // now (no fallback configured ⇒ explicit shed).
        rt.requeue_or_fallback(req(1, rt.now_ps + 5_000_000));
        assert!(rt.parked.is_empty(), "hopeless retry must not park");
        // A deadline past the backoff parks as before.
        rt.requeue_or_fallback(req(2, rt.now_ps + 50_000_000));
        assert_eq!(rt.parked.len(), 1);
        // Deadline-free requests are unaffected by the guard.
        rt.requeue_or_fallback(req(3, u64::MAX));
        assert_eq!(rt.parked.len(), 2);
    }

    #[test]
    fn tree_topology_degrades_to_serialized_same_path_replication() {
        // Line 0 — 1 — 2: site 2 sits behind site 1's span, so only one
        // disjoint route exists. Replica sets must still form —
        // serialized onto the one path — and be announced as such.
        let mut topo = Topology::line(3, 10.0);
        let _ = &mut topo;
        let plan = ofpc_resil::MultipathPlan::plan(&topo, NodeId(0), &[NodeId(1), NodeId(2)]);
        assert_eq!(plan.diversity(), 1);
        let sites = vec![
            SiteSpec {
                node: NodeId(1),
                slots: 2,
                access_ps: 100_000,
            },
            SiteSpec {
                node: NodeId(2),
                slots: 2,
                access_ps: 200_000,
            },
        ];
        let model = ServiceModel::from_transponder(&ComputeTransponderConfig::ideal(), 4);
        let (report, resil) = ServeRuntime::new(small_config(200_000.0), model, sites)
            .with_redundancy(&[RedundancyMode::Replica, RedundancyMode::Replica], plan)
            .run_with_resil();
        assert!(
            resil.serialized_fallback_sets > 0,
            "degradation is declared"
        );
        assert_eq!(resil.serialized_fallback_sets, resil.replica_sets);
        assert_eq!(report.arrivals, report.completed);
        assert_eq!(resil.unsettled_sets, 0);
    }

    #[test]
    fn no_usable_path_downgrades_to_declared_unprotected() {
        let (sites, plan) = star_plant(1);
        let only_link = plan.routes[0].route.links[0];
        let model = ServiceModel::from_transponder(&ComputeTransponderConfig::ideal(), 4);
        // The sole span is dark from before the first arrival until
        // 300 µs: every protected batch formed in that window has no
        // usable path and must run declared-unprotected instead of
        // stranding.
        let (report, resil) = ServeRuntime::new(small_config(500_000.0), model, sites)
            .with_redundancy(&[RedundancyMode::Replica, RedundancyMode::Replica], plan)
            .with_storm(&storm_cut(only_link, 0, 300_000_000))
            .run_with_resil();
        assert!(resil.unprotected_downgrades > 0);
        assert!(resil.replica_sets > 0, "protection resumes after splice");
        assert_eq!(
            report.arrivals,
            report.completed + report.shed + report.unfinished
        );
    }

    #[test]
    fn a_cut_under_overload_backs_up_into_the_tenant_queues() {
        // The only span is dark for 1.5 ms at about twice the slot
        // capacity. The dark site's slots still count as idle, so only
        // the drain cap keeps open + ready work bounded: the excess must
        // wait in admission, where DRR weights and QueueFull apply.
        let (sites, plan) = star_plant(1);
        let only_link = plan.routes[0].route.links[0];
        let model = ServiceModel::from_transponder(&ComputeTransponderConfig::ideal(), 4);
        let cfg = small_config(16_000_000.0);
        let cap = 2 * 2 * cfg.batch.max_batch;
        let queue_bound: usize = cfg.tenants.iter().map(|t| t.queue_capacity).sum();
        let mut rt = ServeRuntime::new(cfg, model, sites)
            .with_redundancy(&[RedundancyMode::Unprotected; 2], plan)
            .with_storm(&storm_cut(only_link, 200_000_000, 1_700_000_000));
        let mut peak_queued_in_cut = 0;
        while rt.step() {
            let downstream = rt.batcher.open_len() + rt.scheduler.backlog_requests();
            assert!(
                downstream <= cap,
                "open + ready {downstream} > {cap} at {} ps",
                rt.now_ps
            );
            if rt.link_down.contains(&only_link) {
                peak_queued_in_cut = peak_queued_in_cut.max(rt.admission.queued());
            }
        }
        assert_eq!(
            peak_queued_in_cut, queue_bound,
            "the cut backs up into admission"
        );
        let report = rt.run();
        assert!(report.tenants.iter().all(|t| t.shed_queue_full > 0));
        assert_eq!(
            report.arrivals,
            report.completed + report.shed + report.unfinished
        );
    }

    #[test]
    fn same_seed_same_storm_same_resil_summary() {
        let build = || {
            let (sites, plan) = star_plant(3);
            let cut = plan.routes[2].route.links[0];
            let model = ServiceModel::from_transponder(&ComputeTransponderConfig::ideal(), 4);
            let (report, resil) = ServeRuntime::new(small_config(500_000.0), model, sites)
                .with_redundancy(
                    &[
                        RedundancyMode::Replica,
                        RedundancyMode::XorParity { data_groups: 3 },
                    ],
                    plan,
                )
                .with_storm(&storm_cut(cut, 600_000_000, 1_100_000_000))
                .run_with_resil();
            (
                serde_json::to_string_pretty(&report).unwrap(),
                serde_json::to_string_pretty(&resil).unwrap(),
            )
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn analog_drift_rungs_leave_serving_byte_identical() {
        // Serving models no analog noise: a storm's drift staircase must
        // change neither the report nor the resilience summary.
        let build = |drift_sigmas: Vec<f64>| {
            let (sites, plan) = star_plant(3);
            let links: Vec<LinkId> = plan
                .routes
                .iter()
                .flat_map(|r| r.route.links.clone())
                .collect();
            let nodes: Vec<NodeId> = sites.iter().map(|s| s.node).collect();
            let spec = ofpc_faults::StormSpec {
                drift_sigmas,
                ..ofpc_faults::StormSpec::serving_default()
            };
            let mut rng = SimRng::seed_from_u64(9);
            let storm = ofpc_faults::generate_storm(&links, &nodes, 2_000_000_000, &spec, &mut rng);
            let noise_steps = storm
                .events
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::NoiseStep { .. }))
                .count();
            let model = ServiceModel::from_transponder(&ComputeTransponderConfig::ideal(), 4);
            let (report, resil) = ServeRuntime::new(small_config(500_000.0), model, sites)
                .with_redundancy(
                    &[
                        RedundancyMode::Replica,
                        RedundancyMode::XorParity { data_groups: 2 },
                    ],
                    plan,
                )
                .with_storm(&storm)
                .run_with_resil();
            (
                noise_steps,
                serde_json::to_string_pretty(&report).unwrap(),
                serde_json::to_string_pretty(&resil).unwrap(),
            )
        };
        let (steps, report, resil) = build(vec![0.002, 0.005, 0.01]);
        let (no_steps, plain_report, plain_resil) = build(Vec::new());
        assert_eq!(
            (steps, no_steps),
            (9, 0),
            "three rungs at each of three sites"
        );
        assert_eq!(report, plain_report);
        assert_eq!(resil, plain_resil);
    }

    #[test]
    fn same_seed_same_fault_plan_same_report() {
        let build = || {
            runtime(small_config(500_000.0))
                .with_storm(&outage(700_000_000))
                .with_digital_fallback(ofpc_apps::digital::ComputeModel::edge_soc())
                .with_retry_policy(RetryPolicy::default())
                .run()
        };
        assert_eq!(
            serde_json::to_string_pretty(&build()).unwrap(),
            serde_json::to_string_pretty(&build()).unwrap()
        );
    }

    #[test]
    fn backoff_caps_and_grows() {
        let r = RetryPolicy {
            base_ps: 100,
            max_backoff_ps: 1_000,
            max_retries: 8,
        };
        assert_eq!(r.backoff_ps(0), 100);
        assert_eq!(r.backoff_ps(1), 200);
        assert_eq!(r.backoff_ps(2), 400);
        assert_eq!(r.backoff_ps(5), 1_000, "capped");
        assert_eq!(r.backoff_ps(63), 1_000, "shift-safe far past the cap");
    }

    #[test]
    fn verification_sampling_runs_the_real_engine() {
        let mut cfg = small_config(100_000.0);
        cfg.verify_every = 4;
        // Keep verification vectors small: the analog engine's absolute
        // error grows with vector length.
        for t in &mut cfg.tenants {
            t.operand_len = 64;
        }
        let report = runtime(cfg).run();
        assert!(report.verified_samples > 0);
        // The realistic photonic engine tracks the digital result.
        assert!(
            report.verify_mean_abs_error < 1.0,
            "error {}",
            report.verify_mean_abs_error
        );
    }
}
