//! One ingest shard: a self-contained, deterministic event loop over a
//! partition of the tenant universe.
//!
//! A shard owns everything its tenants touch — arrival sampling, frame
//! parsing, sparse admission, batching, and a private EDF scheduler over
//! the transponder slots the rebalancer has granted it — so an epoch of
//! shard time runs with **no shared state**: the driver moves whole
//! `ShardState` values through `ofpc_par::WorkerPool::scatter_gather`
//! and gets them back in shard order, which is what makes the report
//! byte-identical at any worker count.
//!
//! Arrivals are sampled from one aggregate Poisson process per shard
//! (rate = Σ members × class rate) rather than a process per tenant: the
//! arrival stream of a million mostly-idle tenants is statistically the
//! thinned superposition, and the aggregate keeps per-tenant cost at
//! zero until a request actually lands. Each arrival synthesizes a real
//! wire frame and parses it through the zero-copy
//! [`ofpc_net::PchFrame`] view — the hot path exercises the exact bytes
//! a deployment would see, and malformed frames surface as typed
//! counts, never panics.

use crate::tenant::TenantClass;
use bytes::Bytes;
use ofpc_net::events::EventQueue;
use ofpc_net::{Addr, FrameError, NodeId, Packet, PchFrame, PchHeader};
use ofpc_photonics::SimRng;
use ofpc_serve::{
    BatchPolicy, Batcher, ComputeRequest, Dispatch, RequestId, Scheduler, ServiceModel, ShedReason,
    SiteSpec, SparseAdmission, TenantId, TenantShape,
};
use ofpc_telemetry::LogHistogram;
use std::collections::BTreeMap;

/// Shard-local events. Same-tick events pop in the order they were
/// scheduled (the queue breaks time ties by insertion sequence).
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Next aggregate-Poisson arrival on this shard.
    Arrival,
    /// A batch timeout may be due.
    BatchTick,
    /// A transponder slot's busy window ended; try dispatching again.
    SlotFree,
    /// A dispatched batch's results reach the requesters.
    Deliver { seq: u64 },
}

/// Per-class aggregates on one shard. Memory is O(classes), however
/// many requests flow: latencies go into a fixed-size log-linear
/// histogram (≤ ±3.2% on percentiles), never a per-sample store.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClassStats {
    pub(crate) arrivals: u64,
    pub(crate) completed: u64,
    pub(crate) shed_queue_full: u64,
    pub(crate) shed_expired_queued: u64,
    pub(crate) shed_expired_serving: u64,
    pub(crate) shed_engine_failed: u64,
    pub(crate) energy_j: f64,
    pub(crate) batch_size_sum: u64,
    pub(crate) lat: LogHistogram,
}

impl ClassStats {
    pub(crate) fn shed_total(&self) -> u64 {
        self.shed_queue_full
            + self.shed_expired_queued
            + self.shed_expired_serving
            + self.shed_engine_failed
    }

    pub(crate) fn merge(&mut self, other: &ClassStats) {
        self.arrivals += other.arrivals;
        self.completed += other.completed;
        self.shed_queue_full += other.shed_queue_full;
        self.shed_expired_queued += other.shed_expired_queued;
        self.shed_expired_serving += other.shed_expired_serving;
        self.shed_engine_failed += other.shed_engine_failed;
        self.energy_j += other.energy_j;
        self.batch_size_sum += other.batch_size_sum;
        self.lat.merge(&other.lat);
    }
}

/// Typed tallies of frames the parser refused. The ingest path must
/// never panic on wire bytes; every rejection lands here.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FrameStats {
    pub(crate) parsed: u64,
    pub(crate) rejected_truncated: u64,
    pub(crate) rejected_bad_proto: u64,
    pub(crate) rejected_not_compute: u64,
    pub(crate) rejected_bad_primitive: u64,
    pub(crate) rejected_operand_overrun: u64,
}

impl FrameStats {
    pub(crate) fn rejected_total(&self) -> u64 {
        self.rejected_truncated
            + self.rejected_bad_proto
            + self.rejected_not_compute
            + self.rejected_bad_primitive
            + self.rejected_operand_overrun
    }

    fn count(&mut self, err: &FrameError) {
        match err {
            FrameError::Truncated { .. } => self.rejected_truncated += 1,
            FrameError::BadProto(_) => self.rejected_bad_proto += 1,
            FrameError::NotCompute => self.rejected_not_compute += 1,
            FrameError::BadPrimitive(_) => self.rejected_bad_primitive += 1,
            FrameError::OperandOverrun { .. } => self.rejected_operand_overrun += 1,
        }
    }

    pub(crate) fn merge(&mut self, o: &FrameStats) {
        self.parsed += o.parsed;
        self.rejected_truncated += o.rejected_truncated;
        self.rejected_bad_proto += o.rejected_bad_proto;
        self.rejected_not_compute += o.rejected_not_compute;
        self.rejected_bad_primitive += o.rejected_bad_primitive;
        self.rejected_operand_overrun += o.rejected_operand_overrun;
    }
}

/// A dispatched batch awaiting its delivery event.
#[derive(Debug, Clone)]
struct Flight {
    requests: Vec<ComputeRequest>,
    energy_j: f64,
    batch_size: u32,
}

/// The moving parts of one shard. Owned, `Send`, and mutated only by
/// the worker running its epoch — message passing by value, no locks.
#[derive(Debug)]
pub(crate) struct ShardState {
    pub(crate) id: u32,
    now_ps: u64,
    rng: SimRng,
    classes: Vec<TenantClass>,
    /// Class-block prefix sums (mirror of the directory's layout).
    class_start: Vec<u32>,
    /// Member tenant ids per class, sorted — the sampling universe.
    members: Vec<Vec<u32>>,
    /// Prebuilt operand payload per class (`Bytes` clones are
    /// refcounted, so every synthesized frame shares one allocation).
    payloads: Vec<Bytes>,
    admission: SparseAdmission,
    batcher: Batcher,
    scheduler: Scheduler,
    events: EventQueue<Ev>,
    in_flight: BTreeMap<u64, Flight>,
    next_flight: u64,
    req_counter: u64,
    /// Synthesize-then-corrupt every Nth frame (0 = never): keeps the
    /// typed-error path continuously exercised in the same run.
    corrupt_every: u64,
    frames_seen: u64,
    /// Max requests pulled from admission per pump.
    drain_quantum: usize,
    pub(crate) stats: Vec<ClassStats>,
    pub(crate) frames: FrameStats,
    /// Bitmap over the whole tenant universe: ever admitted here.
    pub(crate) active_bitmap: Vec<u64>,
    /// Arrivals this epoch (rebalance load signal; driver clears).
    pub(crate) epoch_arrivals: u64,
    /// Per-tenant arrivals this epoch — only tenants that actually
    /// arrived, so the map is bounded by epoch traffic, not population.
    pub(crate) epoch_heat: BTreeMap<u32, u32>,
    /// Migrations applied to this shard (in, out) over the run.
    pub(crate) migrations_in: u64,
    pub(crate) migrations_out: u64,
}

impl ShardState {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: u32,
        seed: u64,
        classes: Vec<TenantClass>,
        members: Vec<Vec<u32>>,
        total_tenants: u32,
        model: ServiceModel,
        sites: &[SiteSpec],
        batch: BatchPolicy,
        corrupt_every: u64,
        drain_quantum: usize,
    ) -> Self {
        assert_eq!(members.len(), classes.len());
        let mut class_start = Vec::with_capacity(classes.len() + 1);
        let mut acc = 0u32;
        class_start.push(0);
        for c in &classes {
            acc += c.population;
            class_start.push(acc);
        }
        let payloads: Vec<Bytes> = classes
            .iter()
            .map(|c| {
                Bytes::from(
                    (0..c.operand_len as usize)
                        .map(|i| (i % 251) as u8)
                        .collect::<Vec<u8>>(),
                )
            })
            .collect();
        // The scheduler insists every site starts with ≥1 slot; the
        // driver resizes to the real (possibly zero) grant right after.
        let seed_sites: Vec<SiteSpec> = sites.iter().map(|s| SiteSpec { slots: 1, ..*s }).collect();
        let stats = vec![ClassStats::default(); classes.len()];
        let mut shard = ShardState {
            id,
            now_ps: 0,
            rng: SimRng::seed_from_u64(seed),
            classes,
            class_start,
            members,
            payloads,
            admission: SparseAdmission::default(),
            batcher: Batcher::new(batch),
            scheduler: Scheduler::new(model, seed_sites),
            events: EventQueue::new(),
            in_flight: BTreeMap::new(),
            next_flight: 0,
            req_counter: 0,
            corrupt_every,
            frames_seen: 0,
            drain_quantum: drain_quantum.max(1),
            stats,
            frames: FrameStats::default(),
            active_bitmap: vec![0u64; (total_tenants as usize).div_ceil(64)],
            epoch_arrivals: 0,
            epoch_heat: BTreeMap::new(),
            migrations_in: 0,
            migrations_out: 0,
        };
        shard.schedule_next_arrival();
        shard
    }

    fn class_of(&self, tenant: u32) -> usize {
        self.class_start.partition_point(|&s| s <= tenant) - 1
    }

    fn shape_of(&self, class: usize) -> TenantShape {
        TenantShape {
            capacity: self.classes[class].queue_capacity,
            weight: self.classes[class].weight,
        }
    }

    /// Aggregate arrival rate of this shard, requests per picosecond.
    fn rate_per_ps(&self) -> f64 {
        let per_sec: f64 = self
            .classes
            .iter()
            .zip(&self.members)
            .map(|(c, m)| c.mean_rate_rps * m.len() as f64)
            .sum();
        per_sec * 1e-12
    }

    fn schedule_next_arrival(&mut self) {
        let rate = self.rate_per_ps();
        if rate <= 0.0 {
            return; // an empty shard generates nothing
        }
        let gap = self.rng.exponential(rate).ceil() as u64;
        self.events
            .schedule_at(self.now_ps + gap.max(1), Ev::Arrival);
    }

    /// Run the shard forward until `end_ps` (exclusive). Events at or
    /// beyond the boundary stay queued for the next epoch, which is
    /// what lets the driver interleave a global rebalance between
    /// epochs without tearing any in-progress event.
    pub(crate) fn run_until(&mut self, end_ps: u64) {
        while let Some(t) = self.events.peek_time_ps() {
            if t >= end_ps {
                break;
            }
            let (t, ev) = self.events.pop().expect("peeked above");
            self.now_ps = t;
            self.on_event(ev);
        }
        self.now_ps = end_ps;
    }

    fn on_event(&mut self, ev: Ev) {
        match ev {
            Ev::Arrival => {
                self.spawn_arrival();
                self.schedule_next_arrival();
                self.pump();
            }
            Ev::BatchTick | Ev::SlotFree => self.pump(),
            Ev::Deliver { seq } => self.settle(seq),
        }
    }

    /// Sample which tenant fires, synthesize its wire frame, and admit
    /// it through the zero-copy parser.
    fn spawn_arrival(&mut self) {
        // Class by rate share, then a uniform member of the class.
        let total: f64 = self
            .classes
            .iter()
            .zip(&self.members)
            .map(|(c, m)| c.mean_rate_rps * m.len() as f64)
            .sum();
        if total <= 0.0 {
            return;
        }
        let mut pick = self.rng.uniform() * total;
        let mut class = self.classes.len() - 1;
        for (i, (c, m)) in self.classes.iter().zip(&self.members).enumerate() {
            let w = c.mean_rate_rps * m.len() as f64;
            if pick < w {
                class = i;
                break;
            }
            pick -= w;
        }
        if self.members[class].is_empty() {
            return; // all members migrated away between samples
        }
        let member = self.rng.below(self.members[class].len());
        let tenant = self.members[class][member];

        self.frames_seen += 1;
        let wire = self.synthesize_frame(tenant, class);
        match PchFrame::parse(wire) {
            Ok(frame) => {
                self.frames.parsed += 1;
                self.stats[class].arrivals += 1;
                self.epoch_arrivals += 1;
                *self.epoch_heat.entry(tenant).or_insert(0) += 1;
                self.active_bitmap[tenant as usize / 64] |= 1 << (tenant % 64);
                let deadline = self.now_ps + self.classes[class].deadline_ps;
                let req = ComputeRequest {
                    id: RequestId((u64::from(self.id) << 40) | self.req_counter),
                    tenant: TenantId(tenant),
                    // Shape comes from the parsed view, not the class
                    // table: the admitted request is exactly what the
                    // wire said.
                    primitive: frame.primitive(),
                    operand_len: u32::from(frame.operand_len()),
                    arrival_ps: self.now_ps,
                    deadline_ps: deadline,
                };
                self.req_counter += 1;
                self.admission.offer(req, self.shape_of(class));
            }
            Err(e) => self.frames.count(&e),
        }
    }

    /// Build the tenant's request as real wire bytes, optionally
    /// corrupted on a fixed cadence.
    fn synthesize_frame(&mut self, tenant: u32, class: usize) -> Bytes {
        let c = &self.classes[class];
        let pch = PchHeader {
            primitive: c.primitive,
            flags: 0,
            op_id: (self.req_counter % u64::from(u16::MAX)) as u16,
            result_q88: 0,
            operand_len: c.operand_len,
        };
        let pkt = Packet::compute(
            Addr(tenant),
            Addr::new(10, 0, 0, 1),
            self.req_counter as u32,
            pch,
            self.payloads[class].clone(),
        );
        let wire = pkt.to_wire();
        if self.corrupt_every == 0 || !self.frames_seen.is_multiple_of(self.corrupt_every) {
            return wire;
        }
        // Deterministic damage, cycling through the failure families.
        let mut raw = wire.to_vec();
        match (self.frames_seen / self.corrupt_every) % 3 {
            0 => raw.truncate((self.frames_seen % wire.len() as u64) as usize),
            1 => raw[15] = 0x7F, // unknown protocol
            2 => {
                // Operand count beyond the payload (big-endian u16 at
                // the PCH tail).
                let claim = (self.payloads[class].len() + 1) as u16;
                raw[22] = (claim >> 8) as u8;
                raw[23] = (claim & 0xFF) as u8;
            }
            _ => unreachable!(),
        }
        Bytes::from(raw)
    }

    /// Move admitted work as far toward the fiber as capacity allows:
    /// the shared drain-and-batch rule ([`Batcher::fill`], capped by the
    /// drain quantum), then EDF dispatch and the batch-timeout alarm.
    fn pump(&mut self) {
        let now = self.now_ps;
        let closed = self.batcher.fill(
            &mut self.admission,
            &self.scheduler,
            now,
            self.drain_quantum,
            |_| 0,
        );
        for b in closed {
            self.scheduler.enqueue(b);
        }
        for d in self.scheduler.try_dispatch(now) {
            self.on_dispatch(d);
        }
        if let Some(t) = self.batcher.next_timeout_ps() {
            self.events.schedule_at(t.max(now), Ev::BatchTick);
        }
        for (req, reason) in self.admission.take_shed() {
            self.record_shed(&req, reason);
        }
    }

    fn on_dispatch(&mut self, d: Dispatch) {
        for (req, reason) in d.shed {
            self.record_shed(&req, reason);
        }
        if d.batch.is_empty() {
            return;
        }
        // Wake the pump when dispatching to this slot becomes useful
        // again; without it a lull in arrivals would strand ready work.
        self.events.schedule_at(d.free_ps, Ev::SlotFree);
        let seq = self.next_flight;
        self.next_flight += 1;
        let n = d.batch.len() as u32;
        self.in_flight.insert(
            seq,
            Flight {
                requests: d.batch.requests,
                energy_j: d.energy.total_j(),
                batch_size: n,
            },
        );
        self.events.schedule_at(d.delivered_ps, Ev::Deliver { seq });
    }

    fn settle(&mut self, seq: u64) {
        let flight = self.in_flight.remove(&seq).expect("unknown flight");
        let per_req = flight.energy_j / flight.requests.len() as f64;
        for req in &flight.requests {
            let class = self.class_of(req.tenant.0);
            let s = &mut self.stats[class];
            s.completed += 1;
            s.energy_j += per_req;
            s.batch_size_sum += u64::from(flight.batch_size);
            s.lat.record(self.now_ps.saturating_sub(req.arrival_ps));
        }
        self.pump();
    }

    fn record_shed(&mut self, req: &ComputeRequest, reason: ShedReason) {
        let class = self.class_of(req.tenant.0);
        let s = &mut self.stats[class];
        match reason {
            ShedReason::QueueFull => s.shed_queue_full += 1,
            ShedReason::DeadlineExpiredQueued => s.shed_expired_queued += 1,
            ShedReason::DeadlineExpiredServing => s.shed_expired_serving += 1,
            ShedReason::EngineFailed => s.shed_engine_failed += 1,
        }
    }

    // ---- rebalance seams (driver-side, between epochs) -----------------

    /// Outbound migration: forget the tenant and hand back its queue.
    pub(crate) fn evict_tenant(&mut self, tenant: u32) -> Vec<ComputeRequest> {
        let class = self.class_of(tenant);
        if let Ok(pos) = self.members[class].binary_search(&tenant) {
            self.members[class].remove(pos);
        }
        self.migrations_out += 1;
        self.admission.remove_tenant(TenantId(tenant))
    }

    /// Inbound migration: adopt the tenant and its queued work.
    pub(crate) fn adopt_tenant(&mut self, tenant: u32, queued: Vec<ComputeRequest>) {
        let class = self.class_of(tenant);
        if let Err(pos) = self.members[class].binary_search(&tenant) {
            self.members[class].insert(pos, tenant);
        }
        self.migrations_in += 1;
        let shape = self.shape_of(class);
        self.admission.adopt(queued, shape);
    }

    /// Slot re-split: the rebalancer's grant for one physical site.
    pub(crate) fn set_site_slots(&mut self, node: NodeId, slots: usize) {
        self.scheduler.resize_site(node, slots);
    }

    pub(crate) fn slots_at(&self) -> usize {
        self.scheduler.total_slots()
    }

    /// Requests the shard still holds (admission + open batches +
    /// ready batches + in flight) — the conservation remainder.
    pub(crate) fn unfinished(&self) -> u64 {
        (self.admission.queued()
            + self.batcher.open_len()
            + self.scheduler.backlog_requests()
            + self
                .in_flight
                .values()
                .map(|f| f.requests.len())
                .sum::<usize>()) as u64
    }

    pub(crate) fn active_tenant_state(&self) -> usize {
        self.admission.active_tenants()
    }

    /// Hot tenants this epoch by arrival count (desc), ties by id.
    pub(crate) fn hottest_this_epoch(&self, limit: usize) -> Vec<(u32, u32)> {
        let mut v: Vec<(u32, u32)> = self.epoch_heat.iter().map(|(&t, &n)| (t, n)).collect();
        v.sort_by_key(|&(t, n)| (std::cmp::Reverse(n), t));
        v.truncate(limit);
        v
    }

    pub(crate) fn end_epoch(&mut self) {
        self.epoch_arrivals = 0;
        self.epoch_heat.clear();
    }
}
