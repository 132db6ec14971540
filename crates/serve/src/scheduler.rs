//! Deadline-aware batch scheduling onto compute transponder slots.
//!
//! Closed batches queue here and are dispatched earliest-deadline-first
//! (EDF) onto idle photonic compute transponder slots. The service
//! model prices a batch the way the Fig.-4 hardware does:
//!
//! * a **reconfiguration** charge when the slot's loaded weights/pattern
//!   differ from the batch's class (DAC writes, fixed + per-element),
//! * the **engine settling** latency (analog pipeline fill),
//! * **streaming** passes: operand vectors ride parallel WDM channels,
//!   `ceil(batch / channels)` serial passes of `len × 8 bits` each,
//! * a serialized per-request **result readout** (single readout ADC).
//!
//! Batching wins exactly because the first two terms are per-pass, not
//! per-request. Requests whose deadline cannot survive the projected
//! completion are shed *before* burning wavelength time on them. A
//! pass's energy is a [`PassEnergy`], its five hardware stages in a
//! fixed array.
//!
//! The scheduler keeps its slots in one flat table ordered by
//! `(node, slot)`, each slot carrying its site's access delay, and
//! reuses its EDF order buffer across rounds; dispatches go into a
//! buffer the caller lends, so a dispatch round allocates nothing.

use crate::batcher::Batch;
use crate::request::{BatchClass, ComputeRequest, ShedReason};
use ofpc_net::NodeId;
use ofpc_photonics::energy::constants;
use ofpc_transponder::compute::ComputeTransponderConfig;

/// The energy one wavelength pass books, by hardware stage. A pass can
/// book only these five stages, so they sit in a fixed array in label
/// order; a stage the pass did not charge stays `None` and is left out
/// of the total and of every written document.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassEnergy {
    joules: [Option<f64>; 5],
}

impl PassEnergy {
    /// The stage labels, in label order.
    pub(crate) const STAGES: [&'static str; 5] = [
        "laser-supply",
        "operand-dac",
        "photonic-mac",
        "reconfig-dac",
        "result-adc",
    ];
    const LASER_SUPPLY: usize = 0;
    const OPERAND_DAC: usize = 1;
    const PHOTONIC_MAC: usize = 2;
    const RECONFIG_DAC: usize = 3;
    const RESULT_ADC: usize = 4;

    /// Add `joules` to stage `STAGES[stage]`. Energy is spent, never
    /// refunded, so a negative or non-finite charge is a bug.
    fn book(&mut self, stage: usize, joules: f64) {
        assert!(
            joules >= 0.0 && joules.is_finite(),
            "energy contribution must be finite and non-negative, got {joules} for {}",
            Self::STAGES[stage]
        );
        self.joules[stage] = Some(self.joules[stage].unwrap_or(0.0) + joules);
    }

    /// Add every stage `other` booked.
    pub(crate) fn add(&mut self, other: PassEnergy) {
        for (stage, j) in other.joules.into_iter().enumerate() {
            if let Some(j) = j {
                self.book(stage, j);
            }
        }
    }

    /// The booked stages as `(label, joules)`, in label order.
    pub(crate) fn stages(self) -> impl Iterator<Item = (&'static str, f64)> {
        Self::STAGES
            .into_iter()
            .zip(self.joules)
            .filter_map(|(stage, j)| j.map(|j| (stage, j)))
    }

    /// Total joules over the booked stages, summed in label order.
    pub fn total_j(&self) -> f64 {
        self.stages().map(|(_, j)| j).sum()
    }
}

/// Latency/energy model for one wavelength pass over a compute slot.
#[derive(Debug, Clone)]
pub struct ServiceModel {
    /// Serial line rate per WDM channel, bit/s.
    pub line_rate_bps: f64,
    /// WDM channels a batch may occupy in parallel.
    pub wdm_channels: usize,
    /// Analog engine settling per pass, ps.
    pub engine_settle_ps: u64,
    /// Fixed weight/pattern reconfiguration cost, ps.
    pub reconfig_fixed_ps: u64,
    /// Per-element reconfiguration cost (weight DAC writes), ps.
    pub reconfig_per_element_ps: u64,
    /// Serialized result readout per request, ps.
    pub readout_per_request_ps: u64,
    /// Continuous optical supply power while a pass runs, W.
    pub laser_w: f64,
    /// Energy per operand DAC sample, J.
    pub dac_sample_j: f64,
    /// Energy per photonic MAC, J.
    pub mac_j: f64,
    /// Energy per result ADC readout, J.
    pub adc_result_j: f64,
}

impl ServiceModel {
    /// Derive from a transponder hardware config plus the WDM width the
    /// deployment lights for serving.
    pub fn from_transponder(cfg: &ComputeTransponderConfig, wdm_channels: usize) -> Self {
        assert!(wdm_channels >= 1, "need at least one WDM channel");
        let line_rate_bps = cfg.tx.line_rate_bps;
        ServiceModel {
            line_rate_bps,
            wdm_channels,
            engine_settle_ps: (constants::ENGINE_LATENCY_S * 1e12) as u64,
            // Weight loading is a control-plane DAC write per element on
            // top of a fixed settling window — orders of magnitude slower
            // than streaming, which is what makes batching matter.
            reconfig_fixed_ps: 2_000_000,    // 2 µs
            reconfig_per_element_ps: 10_000, // 10 ns/element
            readout_per_request_ps: (1e12 / constants::PHOTONIC_LANE_HZ) as u64 * 8,
            laser_w: 0.05,
            dac_sample_j: constants::DAC_SAMPLE_J,
            mac_j: constants::PHOTONIC_MAC_J,
            adc_result_j: cfg.result_adc_energy_j.max(constants::ADC_SAMPLE_J),
        }
    }

    /// Streaming time for one pass of `operand_len` elements, ps.
    fn pass_stream_ps(&self, operand_len: u32) -> u64 {
        let bits = operand_len as f64 * 8.0;
        ((bits / self.line_rate_bps) * 1e12).ceil() as u64
    }

    /// Service time (ps) and pass energy for a batch of `n` requests of
    /// class `class`, given what the slot currently has loaded.
    pub fn batch_service(
        &self,
        class: BatchClass,
        n: usize,
        loaded: Option<BatchClass>,
    ) -> (u64, PassEnergy) {
        let mut energy = PassEnergy::default();
        let needs_reconfig = loaded != Some(class);
        let reconfig_ps = if needs_reconfig {
            self.reconfig_fixed_ps + self.reconfig_per_element_ps * u64::from(class.operand_len)
        } else {
            0
        };
        let passes = n.div_ceil(self.wdm_channels) as u64;
        let stream_ps = passes * self.pass_stream_ps(class.operand_len);
        let readout_ps = self.readout_per_request_ps * n as u64;
        let service_ps = reconfig_ps + self.engine_settle_ps + stream_ps + readout_ps;

        if needs_reconfig {
            energy.book(
                PassEnergy::RECONFIG_DAC,
                class.operand_len as f64 * self.dac_sample_j,
            );
        }
        energy.book(
            PassEnergy::OPERAND_DAC,
            n as f64 * class.operand_len as f64 * self.dac_sample_j,
        );
        energy.book(
            PassEnergy::PHOTONIC_MAC,
            n as f64 * class.operand_len as f64 * self.mac_j,
        );
        energy.book(PassEnergy::RESULT_ADC, n as f64 * self.adc_result_j);
        energy.book(
            PassEnergy::LASER_SUPPLY,
            self.laser_w * service_ps as f64 * 1e-12,
        );
        (service_ps, energy)
    }

    /// Steady-state service of a single request whose class is already
    /// loaded on the slot — the per-request cost a compiled multi-stage
    /// plan pays once its weights are pinned (graph stages reconfigure at
    /// install time, not per request).
    pub fn request_service(&self, class: BatchClass) -> (u64, PassEnergy) {
        self.batch_service(class, 1, Some(class))
    }

    /// One-time charge for installing `class` on a cold slot: the
    /// reconfiguration latency (fixed + per-element DAC writes) and the
    /// weight-write energy, with no streaming or readout.
    pub fn reconfig_charge(&self, class: BatchClass) -> (u64, PassEnergy) {
        let mut energy = PassEnergy::default();
        let reconfig_ps =
            self.reconfig_fixed_ps + self.reconfig_per_element_ps * u64::from(class.operand_len);
        energy.book(
            PassEnergy::RECONFIG_DAC,
            class.operand_len as f64 * self.dac_sample_j,
        );
        (reconfig_ps, energy)
    }
}

/// A compute site visible to the serving runtime.
#[derive(Debug, Clone, Copy)]
pub struct SiteSpec {
    pub node: NodeId,
    /// Installed compute transponder slots at the site.
    pub slots: usize,
    /// One-way propagation delay between the serving front-end and the
    /// site, ps (operands ride out, results ride back).
    pub access_ps: u64,
}

/// One transponder slot of the scheduler's flat slot table, carrying
/// its site's index and access delay so dispatch never looks the site
/// up. `busy_until_ps` is in *site-local* time: the fiber between the
/// front-end and the site is a pipe, so a batch dispatched at `t`
/// occupies the slot only over `[t + access, t + access + service]` —
/// operands in flight never hold the transponder, and several batches
/// can ride the span at once.
#[derive(Debug, Clone, Copy)]
struct SlotState {
    node: NodeId,
    slot: usize,
    /// Index of the slot's site in `Scheduler::sites`.
    site: usize,
    /// The site's one-way access delay, ps.
    access_ps: u64,
    busy_until_ps: u64,
    loaded: Option<BatchClass>,
    /// Hard-failed slots never dispatch until the site recovers.
    healthy: bool,
}

impl SlotState {
    /// Slot `slot` of `sites[site]`, idle and unloaded.
    fn idle(sites: &[SiteSpec], site: usize, slot: usize) -> Self {
        SlotState {
            node: sites[site].node,
            slot,
            site,
            access_ps: sites[site].access_ps,
            busy_until_ps: 0,
            loaded: None,
            healthy: true,
        }
    }
}

/// One dispatched batch: where it ran and what it cost.
#[derive(Debug, Clone)]
pub struct Dispatch {
    pub batch: Batch,
    pub(crate) node: NodeId,
    pub(crate) slot: usize,
    pub(crate) start_ps: u64,
    /// When the slot finishes the batch (site-local), ps.
    pub(crate) done_ps: u64,
    /// When the front-end can usefully dispatch to this slot again
    /// (`done - access`: new operands launched then arrive just as the
    /// slot frees), ps.
    pub free_ps: u64,
    /// When results reach the requesters, ps.
    pub delivered_ps: u64,
    pub energy: PassEnergy,
    /// Members shed pre-service because they could not make their
    /// deadline.
    pub shed: Vec<(ComputeRequest, ShedReason)>,
}

/// EDF scheduler over the compute transponder slots.
#[derive(Debug)]
pub struct Scheduler {
    model: ServiceModel,
    sites: Vec<SiteSpec>,
    /// Per site, indexed like `sites`: its fiber route from the
    /// front-end is currently severed, so its slots may be healthy but
    /// operands cannot reach them.
    cut: Vec<bool>,
    /// Every slot, ascending by `(node, slot)`; a site's slots are
    /// `0..site.slots` and sit next to each other.
    slots: Vec<SlotState>,
    /// Closed batches awaiting dispatch.
    ready: Vec<Batch>,
    /// Each dispatch round's EDF order, kept to reuse its buffer.
    order: Vec<(u64, u64, usize)>,
    /// Completed-batch counter (for occupancy metrics).
    pub(crate) batches_dispatched: u64,
}

impl Scheduler {
    pub fn new(model: ServiceModel, sites: Vec<SiteSpec>) -> Self {
        assert!(
            model.wdm_channels > 0,
            "ServiceModel::wdm_channels must be at least 1"
        );
        assert!(
            model.line_rate_bps.is_finite() && model.line_rate_bps > 0.0,
            "ServiceModel::line_rate_bps must be finite and positive, got {}",
            model.line_rate_bps
        );
        assert!(!sites.is_empty(), "need at least one compute site");
        let mut slots = Vec::new();
        for (i, site) in sites.iter().enumerate() {
            assert!(site.slots > 0, "site {:?} has no slots", site.node);
            assert!(
                sites[..i].iter().all(|s| s.node != site.node),
                "site {:?} is listed twice",
                site.node
            );
            slots.extend((0..site.slots).map(|s| SlotState::idle(&sites, i, s)));
        }
        slots.sort_unstable_by_key(|s| (s.node, s.slot));
        Scheduler {
            model,
            cut: vec![false; sites.len()],
            sites,
            slots,
            ready: Vec::new(),
            order: Vec::new(),
            batches_dispatched: 0,
        }
    }

    pub fn total_slots(&self) -> usize {
        self.slots.len()
    }

    /// Slots that have not hard-failed (photonic serving capacity).
    pub(crate) fn healthy_slots(&self) -> usize {
        self.slots.iter().filter(|s| s.healthy).count()
    }

    /// True when at least one slot at `node` is healthy.
    pub(crate) fn site_healthy(&self, node: NodeId) -> bool {
        self.slots.iter().any(|s| s.node == node && s.healthy)
    }

    /// Mark `node` (un)reachable over the fiber plant. Unreachable
    /// sites keep their slot state but never dispatch: operands cannot
    /// get there while the route is severed. A node that is no site
    /// has no slots to cut off.
    pub(crate) fn set_reachable(&mut self, node: NodeId, reachable: bool) {
        if let Some(i) = self.sites.iter().position(|s| s.node == node) {
            self.cut[i] = !reachable;
        }
    }

    /// The queued batches awaiting dispatch (for group-aware
    /// end-of-run accounting).
    pub(crate) fn ready_batches(&self) -> &[Batch] {
        &self.ready
    }

    /// Remove a still-queued redundancy-set member (its sibling already
    /// delivered). Returns true when the member was found pre-launch —
    /// a cancellation that costs no slot time and no energy.
    pub(crate) fn cancel_member(&mut self, set: u64, member: u8) -> bool {
        let idx = self
            .ready
            .iter()
            .position(|b| b.resil.is_some_and(|t| t.set == set && t.member == member));
        match idx {
            Some(i) => {
                self.ready.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Hard-fail every slot at `node`: nothing dispatches there until
    /// `Scheduler::recover_site`. In-service state is wiped — the
    /// engine restarts cold (weights must reload) — and the runtime
    /// aborts whatever the site was computing. Returns the number of
    /// slots taken down.
    pub(crate) fn fail_site(&mut self, node: NodeId) -> usize {
        let mut n = 0;
        for s in self.slots.iter_mut() {
            if s.node == node && s.healthy {
                s.healthy = false;
                s.busy_until_ps = 0;
                s.loaded = None;
                n += 1;
            }
        }
        n
    }

    /// Repair every slot at `node`; they come back idle and unloaded.
    pub(crate) fn recover_site(&mut self, node: NodeId) -> usize {
        let mut n = 0;
        for s in self.slots.iter_mut() {
            if s.node == node && !s.healthy {
                s.healthy = true;
                n += 1;
            }
        }
        n
    }

    /// Slots that could start a batch dispatched *now* without waiting:
    /// work dispatched at `now` reaches a slot at `now + access`, so a
    /// slot is usable once its site-local busy window ends by then.
    pub(crate) fn idle_slots(&self, now_ps: u64) -> usize {
        self.slots
            .iter()
            .filter(|s| s.healthy && s.busy_until_ps <= now_ps + s.access_ps)
            .count()
    }

    /// Requests queued in closed batches not yet dispatched.
    pub fn backlog_requests(&self) -> usize {
        self.ready.iter().map(Batch::len).sum()
    }

    /// The part of [`Scheduler::backlog_requests`] queued in
    /// redundancy-set members: pinned to one site, they can wait behind
    /// it while other slots sit idle.
    pub(crate) fn set_backlog_requests(&self) -> usize {
        self.ready
            .iter()
            .filter(|b| b.resil.is_some())
            .map(Batch::len)
            .sum()
    }

    pub fn enqueue(&mut self, batch: Batch) {
        // A requestless batch is only meaningful as a redundancy-set
        // member (the parity group): it must queue, dispatch, and
        // deliver so the set settles. Plain empty batches are dropped.
        if !batch.is_empty() || batch.resil.is_some() {
            self.ready.push(batch);
        }
    }

    /// Pull every queued batch back out, in queue order — the runtime
    /// diverts them to the digital fallback when no photonic capacity
    /// remains.
    pub(crate) fn drain_ready(&mut self) -> Vec<Batch> {
        std::mem::take(&mut self.ready)
    }

    /// Whether `slot` could take work dispatched at `now_ps`, whatever
    /// the batch: it has not failed, its site is reachable, and it
    /// frees by the time the work would arrive (the fiber pipelines
    /// in-flight batches).
    fn usable(&self, slot: &SlotState, now_ps: u64) -> bool {
        slot.healthy && !self.cut[slot.site] && slot.busy_until_ps <= now_ps + slot.access_ps
    }

    /// Dispatch as many ready batches as idle slots allow, EDF first,
    /// appending the dispatches made to `out` (nothing when blocked).
    ///
    /// A batch pinned to a site by its redundancy tag only considers
    /// that site's slots; when the pin is busy, the scheduler *skips*
    /// to the next-earliest-deadline batch rather than head-of-line
    /// blocking the whole queue behind one occupied site. For unpinned
    /// batches the slot filter is batch-independent, so the skip loop
    /// dispatches in exactly the legacy EDF order. With no usable slot
    /// at all, no batch can go, so the EDF order is never built.
    pub fn try_dispatch(&mut self, now_ps: u64, out: &mut Vec<Dispatch>) {
        'outer: loop {
            if self.ready.is_empty() || !self.slots.iter().any(|s| self.usable(s, now_ps)) {
                break;
            }
            // EDF candidate order: earliest min-member deadline; ties
            // broken by close time, then by position in `ready` for
            // determinism. The position is not insertion order:
            // `swap_remove` here and in `cancel_member` permutes it.
            // Each key is computed once per round and is unique.
            self.order.clear();
            self.order.extend(
                self.ready
                    .iter()
                    .enumerate()
                    .map(|(i, b)| (b.deadline_ps(), b.closed_ps, i)),
            );
            self.order.sort_unstable();
            for k in 0..self.order.len() {
                let best_idx = self.order[k].2;
                let class = self.ready[best_idx].class;
                let pin = self.ready[best_idx].resil.map(|t| t.pin);
                // Best usable slot: prefer one already loaded with this
                // class (skips reconfiguration), then nearest, then
                // lowest id. A redundancy-set member only uses slots at
                // its planned site.
                let best_slot = self
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| {
                        (pin.is_none() || pin == Some(s.node)) && self.usable(s, now_ps)
                    })
                    .min_by_key(|(_, s)| (s.loaded != Some(class), s.access_ps, s.node, s.slot))
                    .map(|(i, _)| i);
                let Some(slot_idx) = best_slot else {
                    continue; // this candidate has nowhere to go yet
                };
                let mut batch = self.ready.swap_remove(best_idx);
                let SlotState {
                    node,
                    slot,
                    access_ps: access,
                    loaded,
                    ..
                } = self.slots[slot_idx];
                // A parity member streams `phantom` coded operand
                // vectors besides its real requests; price the pass by
                // the full wavelength occupancy, not just live members.
                let phantom = batch.resil.map_or(0, |t| t.phantom as usize);

                // Project completion, shed members that cannot make it,
                // and re-price only if some were shed. Redundancy-set
                // members are exempt from pre-shedding: their loss
                // accounting belongs to the work ledger, which must see
                // every member launch or be cancelled — never silently
                // shed here.
                let (est_service, est_energy) =
                    self.model
                        .batch_service(class, batch.len() + phantom, loaded);
                let est_delivered = now_ps + access + est_service + access;
                let mut shed = Vec::new();
                if batch.resil.is_none() {
                    batch.requests.retain_mut(|r| {
                        if r.deadline_ps < est_delivered {
                            shed.push((r.clone(), ShedReason::DeadlineExpiredServing));
                            false
                        } else {
                            true
                        }
                    });
                }
                let eff_len = batch.len() + phantom;
                if eff_len == 0 {
                    out.push(Dispatch {
                        batch,
                        node,
                        slot,
                        start_ps: now_ps,
                        done_ps: now_ps,
                        free_ps: now_ps,
                        delivered_ps: now_ps,
                        energy: PassEnergy::default(),
                        shed,
                    });
                    continue 'outer;
                }
                let (service_ps, energy) = if shed.is_empty() {
                    (est_service, est_energy)
                } else {
                    self.model.batch_service(class, eff_len, loaded)
                };
                let start_ps = now_ps + access;
                let done_ps = start_ps + service_ps;
                let delivered_ps = done_ps + access;
                let free_ps = done_ps.saturating_sub(access).max(now_ps);

                let state = &mut self.slots[slot_idx];
                state.busy_until_ps = done_ps;
                state.loaded = Some(class);
                self.batches_dispatched += 1;
                out.push(Dispatch {
                    batch,
                    node,
                    slot,
                    start_ps,
                    done_ps,
                    free_ps,
                    delivered_ps,
                    energy,
                    shed,
                });
                continue 'outer;
            }
            break; // no candidate could dispatch this round
        }
    }

    /// Re-split seam: set the number of slots this scheduler owns at
    /// `node`, returning how many slots moved. Growth adds fresh idle,
    /// unloaded slots; shrink retires the highest-indexed slots
    /// immediately — a batch in flight on a retired slot still
    /// completes (its delivery event is the runtime's, not the slot's).
    ///
    /// This is what lets a global rebalancer repartition one physical
    /// site's transponders between shard-local schedulers without
    /// touching in-flight work. Shrinking to zero is allowed: the site
    /// stays known (access delay and all) but dispatches nothing until
    /// slots are granted back.
    pub fn resize_site(&mut self, node: NodeId, slots: usize) -> usize {
        let site = self
            .sites
            .iter()
            .position(|s| s.node == node)
            .expect("resize of unknown site");
        let old = std::mem::replace(&mut self.sites[site].slots, slots);
        // The site's slots `0..old` start where `node` sorts.
        let start = self.slots.partition_point(|s| s.node < node);
        if slots > old {
            let grown = (old..slots).map(|s| SlotState::idle(&self.sites, site, s));
            self.slots.splice(start + old..start + old, grown);
        } else {
            self.slots.drain(start + slots..start + old);
        }
        old.abs_diff(slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{RequestId, TenantId};
    use ofpc_engine::Primitive;
    use ofpc_photonics::energy::EnergyLedger;

    fn model() -> ServiceModel {
        ServiceModel::from_transponder(&ComputeTransponderConfig::ideal(), 8)
    }

    fn batch(ids: &[u64], deadline: u64, closed: u64) -> Batch {
        let requests: Vec<ComputeRequest> = ids
            .iter()
            .map(|&id| ComputeRequest {
                id: RequestId(id),
                tenant: TenantId(0),
                primitive: Primitive::VectorDotProduct,
                operand_len: 64,
                arrival_ps: 0,
                deadline_ps: deadline,
            })
            .collect();
        Batch {
            class: requests[0].batch_class(),
            requests,
            closed_ps: closed,
            resil: None,
        }
    }

    /// The dispatches one `try_dispatch` call makes.
    fn dispatched(s: &mut Scheduler, now_ps: u64) -> Vec<Dispatch> {
        let mut out = Vec::new();
        s.try_dispatch(now_ps, &mut out);
        out
    }

    fn one_site() -> Vec<SiteSpec> {
        vec![SiteSpec {
            node: NodeId(1),
            slots: 1,
            access_ps: 1_000,
        }]
    }

    #[test]
    #[should_panic(expected = "ServiceModel::wdm_channels must be at least 1")]
    fn rejects_zero_wdm_channels() {
        let m = ServiceModel {
            wdm_channels: 0,
            ..model()
        };
        Scheduler::new(m, one_site());
    }

    #[test]
    #[should_panic(expected = "is listed twice")]
    fn rejects_a_site_listed_twice() {
        // Two listings of one node would give it two slot sets and two
        // access delays; the flat slot table keys slots by node.
        let mut sites = one_site();
        sites.push(SiteSpec {
            access_ps: 2_000,
            ..sites[0]
        });
        Scheduler::new(model(), sites);
    }

    #[test]
    #[should_panic(expected = "ServiceModel::line_rate_bps must be finite and positive")]
    fn rejects_a_zero_line_rate() {
        let m = ServiceModel {
            line_rate_bps: 0.0,
            ..model()
        };
        Scheduler::new(m, one_site());
    }

    #[test]
    fn batching_amortizes_fixed_overhead() {
        let m = model();
        let class = BatchClass {
            primitive: Primitive::VectorDotProduct,
            operand_len: 64,
        };
        let (t1, e1) = m.batch_service(class, 1, None);
        let (t8, e8) = m.batch_service(class, 8, None);
        // 8 requests in one batch cost far less than 8 separate passes.
        assert!(t8 < 8 * t1, "t8 {t8} vs 8*t1 {}", 8 * t1);
        assert!(e8.total_j() < 8.0 * e1.total_j());
        // Affinity: already-loaded class skips reconfiguration.
        let (t_hot, _) = m.batch_service(class, 1, Some(class));
        assert!(t_hot < t1);
    }

    /// The pricing the fixed stage array replaced, kept as the oracle:
    /// the same charges booked into a labelled `EnergyLedger` map.
    fn reference_ledger(
        m: &ServiceModel,
        class: BatchClass,
        n: usize,
        loaded: Option<BatchClass>,
    ) -> EnergyLedger {
        let (service_ps, _) = m.batch_service(class, n, loaded);
        let len = class.operand_len as f64;
        let mut ledger = EnergyLedger::new();
        if loaded != Some(class) {
            ledger.add("reconfig-dac", len * m.dac_sample_j);
        }
        ledger.add("operand-dac", n as f64 * len * m.dac_sample_j);
        ledger.add("photonic-mac", n as f64 * len * m.mac_j);
        ledger.add("result-adc", n as f64 * m.adc_result_j);
        ledger.add("laser-supply", m.laser_w * service_ps as f64 * 1e-12);
        ledger
    }

    #[test]
    fn pass_energy_matches_the_labelled_ledger_bit_for_bit() {
        let m = model();
        let bits = |stages: Vec<(&'static str, f64)>| -> Vec<(&'static str, u64)> {
            stages.into_iter().map(|(s, j)| (s, j.to_bits())).collect()
        };
        for operand_len in [1, 64, 2048] {
            let class = BatchClass {
                primitive: Primitive::VectorDotProduct,
                operand_len,
            };
            for n in [1, 3, 8, 9] {
                for loaded in [None, Some(class)] {
                    let (_, pass) = m.batch_service(class, n, loaded);
                    let ledger = reference_ledger(&m, class, n, loaded);
                    assert_eq!(bits(pass.stages().collect()), bits(ledger.iter().collect()));
                    assert_eq!(pass.total_j().to_bits(), ledger.total_j().to_bits());
                }
            }
            let (_, install) = m.reconfig_charge(class);
            let mut ledger = EnergyLedger::new();
            ledger.add("reconfig-dac", f64::from(operand_len) * m.dac_sample_j);
            assert_eq!(
                bits(install.stages().collect()),
                bits(ledger.iter().collect())
            );
        }
        // A pass that books nothing totals the empty sum.
        let empty = PassEnergy::default();
        assert_eq!(empty.stages().count(), 0);
        assert_eq!(
            empty.total_j().to_bits(),
            EnergyLedger::new().total_j().to_bits()
        );
    }

    #[test]
    fn edf_order_and_slot_release() {
        let mut s = Scheduler::new(model(), one_site());
        s.enqueue(batch(&[1], u64::MAX, 0));
        s.enqueue(batch(&[2], 50_000_000, 0)); // tighter deadline
        let d = dispatched(&mut s, 0);
        assert_eq!(d.len(), 1, "one slot, one dispatch");
        assert_eq!(d[0].batch.requests[0].id, RequestId(2));
        assert_eq!(s.backlog_requests(), 1);
        // Slot busy: nothing dispatches until its service ends.
        assert!(dispatched(&mut s, 1).is_empty());
        let free = d[0].done_ps;
        let d2 = dispatched(&mut s, free);
        assert_eq!(d2.len(), 1);
        assert_eq!(d2[0].batch.requests[0].id, RequestId(1));
    }

    #[test]
    fn hopeless_members_are_shed_before_service() {
        let mut s = Scheduler::new(model(), one_site());
        // Deadline tighter than even the access delay.
        s.enqueue(batch(&[1], 500, 0));
        let d = dispatched(&mut s, 0);
        assert_eq!(d.len(), 1);
        assert!(d[0].batch.is_empty());
        assert_eq!(d[0].shed.len(), 1);
        assert_eq!(d[0].shed[0].1, ShedReason::DeadlineExpiredServing);
        // Slot was not burned on the hopeless batch.
        assert_eq!(s.idle_slots(0), 1);
    }

    #[test]
    fn edf_dispatch_with_every_deadline_expired_sheds_everything() {
        let mut s = Scheduler::new(model(), one_site());
        // Three queued batches whose members have all missed their
        // deadlines by dispatch time. EDF must still drain them — in
        // deadline order — as explicit sheds, never burning a slot or a
        // joule on work that cannot be delivered in time.
        s.enqueue(batch(&[1, 2], 5_000, 0));
        s.enqueue(batch(&[3], 2_000, 0));
        s.enqueue(batch(&[4, 5, 6], 8_000, 0));
        let now = 10_000;
        let d = dispatched(&mut s, now);
        assert_eq!(d.len(), 3, "each batch yields a (hopeless) dispatch");
        assert!(
            d[0].shed.iter().any(|(r, _)| r.id == RequestId(3)),
            "earliest deadline drains first even when hopeless"
        );
        for disp in &d {
            assert!(disp.batch.is_empty(), "no expired request may run");
            assert_eq!(disp.done_ps, disp.start_ps);
            assert_eq!(disp.energy.total_j(), 0.0);
            assert!(disp
                .shed
                .iter()
                .all(|(_, reason)| *reason == ShedReason::DeadlineExpiredServing));
        }
        let shed: usize = d.iter().map(|x| x.shed.len()).sum();
        assert_eq!(shed, 6, "every member accounted for");
        assert_eq!(s.backlog_requests(), 0);
        // Nothing actually ran: the slot is still idle and the dispatch
        // counters did not move.
        assert_eq!(s.idle_slots(now), 1);
        assert_eq!(s.batches_dispatched, 0);
    }

    #[test]
    fn failed_site_never_dispatches_until_recovered() {
        let mut s = Scheduler::new(model(), one_site());
        assert_eq!(s.fail_site(NodeId(1)), 1);
        assert_eq!(s.healthy_slots(), 0);
        assert_eq!(s.idle_slots(0), 0);
        s.enqueue(batch(&[1], u64::MAX, 0));
        assert!(
            dispatched(&mut s, 0).is_empty(),
            "failed site must not serve"
        );
        assert_eq!(s.backlog_requests(), 1);
        // Double-fail is a no-op; repair restores exactly what failed.
        assert_eq!(s.fail_site(NodeId(1)), 0);
        assert_eq!(s.recover_site(NodeId(1)), 1);
        assert_eq!(s.healthy_slots(), 1);
        let d = dispatched(&mut s, 0);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].batch.len(), 1);
    }

    fn two_sites() -> Vec<SiteSpec> {
        vec![
            SiteSpec {
                node: NodeId(1),
                slots: 1,
                access_ps: 1_000,
            },
            SiteSpec {
                node: NodeId(2),
                slots: 1,
                access_ps: 2_000,
            },
        ]
    }

    fn pinned(mut b: Batch, set: u64, member: u8, pin: NodeId, phantom: u32) -> Batch {
        let deadline_ps = b.deadline_ps();
        b.resil = Some(ofpc_resil::ResilTag {
            set,
            member,
            pin,
            phantom,
            deadline_ps,
        });
        b
    }

    #[test]
    fn pinned_member_waits_for_its_site_instead_of_straying() {
        let mut s = Scheduler::new(model(), two_sites());
        // Occupy the pin site with an unpinned batch.
        s.enqueue(pinned(batch(&[1], 10_000_000, 0), 7, 0, NodeId(1), 0));
        s.enqueue(pinned(batch(&[2], 10_000_000, 0), 7, 1, NodeId(2), 0));
        let d = dispatched(&mut s, 0);
        assert_eq!(d.len(), 2);
        let to1 = d.iter().find(|x| x.node == NodeId(1)).expect("member at 1");
        let to2 = d.iter().find(|x| x.node == NodeId(2)).expect("member at 2");
        assert_eq!(to1.batch.requests[0].id, RequestId(1));
        assert_eq!(to2.batch.requests[0].id, RequestId(2));
        // Pin site busy: the member queues rather than straying to the
        // idle sibling site (disjointness is the whole point).
        s.enqueue(pinned(batch(&[3], 10_000_000, 0), 8, 0, NodeId(1), 0));
        assert!(dispatched(&mut s, 1).is_empty());
        assert_eq!(s.backlog_requests(), 1);
    }

    #[test]
    fn busy_pin_does_not_head_of_line_block_later_batches() {
        let mut s = Scheduler::new(model(), two_sites());
        s.enqueue(pinned(batch(&[1], 1_000_000, 0), 1, 0, NodeId(1), 0));
        assert_eq!(dispatched(&mut s, 0).len(), 1);
        // Earliest-deadline batch is pinned to the busy site; the later
        // unpinned batch must still flow to the idle one.
        s.enqueue(pinned(batch(&[2], 2_000_000, 0), 2, 0, NodeId(1), 0));
        s.enqueue(batch(&[3], 50_000_000, 1));
        let d = dispatched(&mut s, 1);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].batch.requests[0].id, RequestId(3));
        assert_eq!(d[0].node, NodeId(2));
        assert_eq!(s.backlog_requests(), 1, "pinned member still queued");
    }

    #[test]
    fn dispatch_stops_early_only_when_no_slot_is_usable() {
        // A slot that frees exactly when work dispatched now would reach
        // it is usable; one picosecond earlier it is not.
        let mut s = Scheduler::new(model(), one_site());
        s.enqueue(batch(&[1], u64::MAX, 0));
        let free = dispatched(&mut s, 0)[0].free_ps;
        s.enqueue(batch(&[2], u64::MAX, 1));
        assert!(dispatched(&mut s, free - 1).is_empty());
        assert_eq!(dispatched(&mut s, free).len(), 1);

        // Site 3 busy, site 1 failed, site 2 cut off: nothing
        // dispatches, and the ready queue keeps its contents and order.
        let mut three = two_sites();
        three.push(SiteSpec {
            node: NodeId(3),
            slots: 1,
            access_ps: 3_000,
        });
        let mut s = Scheduler::new(model(), three);
        s.fail_site(NodeId(1));
        s.set_reachable(NodeId(2), false);
        s.enqueue(batch(&[1], u64::MAX, 0));
        assert_eq!(dispatched(&mut s, 0)[0].node, NodeId(3));
        s.enqueue(batch(&[2], 9_000_000, 1));
        s.enqueue(pinned(batch(&[3], 1_000_000, 2), 4, 0, NodeId(3), 0));
        s.enqueue(batch(&[4], 5_000_000, 3));
        let before = s.ready_batches().to_vec();
        assert!(dispatched(&mut s, 1).is_empty());
        assert_eq!(s.ready_batches(), &before[..]);

        // Site 1 back: the EDF head is pinned to the busy site 3, yet
        // the next batch still reaches the one usable slot.
        s.recover_site(NodeId(1));
        let d = dispatched(&mut s, 1);
        assert_eq!(d.len(), 1);
        assert_eq!(
            (d[0].node, d[0].batch.requests[0].id),
            (NodeId(1), RequestId(4))
        );
        assert_eq!(
            s.backlog_requests(),
            2,
            "the pinned member and batch 2 wait"
        );
    }

    #[test]
    fn unreachable_site_is_skipped_until_route_restored() {
        let mut s = Scheduler::new(model(), two_sites());
        s.set_reachable(NodeId(1), false);
        s.enqueue(batch(&[1], u64::MAX, 0));
        let d = dispatched(&mut s, 0);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].node, NodeId(2), "severed site must not serve");
        assert!(s.site_healthy(NodeId(1)), "slots themselves are fine");
        s.set_reachable(NodeId(1), true);
        s.enqueue(batch(&[2], u64::MAX, 1));
        let d2 = dispatched(&mut s, 1);
        assert_eq!(d2[0].node, NodeId(1));
    }

    #[test]
    fn cancel_member_removes_only_the_tagged_batch() {
        let mut s = Scheduler::new(model(), one_site());
        s.enqueue(batch(&[1], u64::MAX, 0));
        s.enqueue(pinned(batch(&[2], u64::MAX, 0), 5, 1, NodeId(1), 0));
        assert!(!s.cancel_member(5, 0), "member 0 was never queued");
        assert!(s.cancel_member(5, 1));
        assert!(!s.cancel_member(5, 1), "second cancel is a no-op");
        assert_eq!(s.backlog_requests(), 1);
        let d = dispatched(&mut s, 0);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].batch.requests[0].id, RequestId(1));
    }

    #[test]
    fn phantom_members_price_the_full_coded_pass() {
        let mut s = Scheduler::new(model(), one_site());
        s.enqueue(pinned(batch(&[1], u64::MAX, 0), 1, 0, NodeId(1), 3));
        let d = dispatched(&mut s, 0);
        assert_eq!(d.len(), 1);
        let m = model();
        let class = d[0].batch.class;
        let (t4, e4) = m.batch_service(class, 4, None);
        assert_eq!(
            d[0].done_ps - d[0].start_ps,
            t4,
            "1 live + 3 phantom = 4-wide pass"
        );
        assert_eq!(d[0].energy.total_j(), e4.total_j());
        // The dispatched batch still carries only its one real request.
        assert_eq!(d[0].batch.len(), 1);
    }

    #[test]
    fn resil_members_bypass_pre_shedding() {
        let mut s = Scheduler::new(model(), one_site());
        // Deadline tighter than the access delay: an unprotected batch
        // would be shed pre-service, but a set member must launch so the
        // ledger sees a deterministic outcome for it.
        s.enqueue(pinned(batch(&[1], 500, 0), 9, 0, NodeId(1), 0));
        let d = dispatched(&mut s, 0);
        assert_eq!(d.len(), 1);
        assert!(d[0].shed.is_empty());
        assert_eq!(d[0].batch.len(), 1);
        assert!(d[0].done_ps > d[0].start_ps);
    }

    #[test]
    fn resize_site_grows_and_retires_without_breaking_flight() {
        let mut s = Scheduler::new(model(), one_site());
        assert_eq!(s.resize_site(NodeId(1), 3), 2);
        assert_eq!(s.total_slots(), 3);
        assert_eq!(s.idle_slots(0), 3);
        // Occupy slot 0, then retire everything down to one slot while
        // the batch is in flight.
        s.enqueue(batch(&[1], u64::MAX, 0));
        let d = dispatched(&mut s, 0);
        assert_eq!(d.len(), 1);
        assert_eq!(s.resize_site(NodeId(1), 1), 2);
        assert_eq!(s.total_slots(), 1);
        // The surviving slot keeps working.
        s.enqueue(batch(&[2], u64::MAX, 2));
        let d2 = dispatched(&mut s, d[0].done_ps);
        assert_eq!(d2.len(), 1);
        // Shrink to zero parks the site without forgetting it.
        assert_eq!(s.resize_site(NodeId(1), 0), 1);
        s.enqueue(batch(&[3], u64::MAX, 3));
        assert!(dispatched(&mut s, d2[0].done_ps).is_empty());
        assert_eq!(s.resize_site(NodeId(1), 1), 1);
        assert_eq!(dispatched(&mut s, d2[0].done_ps).len(), 1);
    }

    #[test]
    fn delivered_accounts_for_propagation_both_ways() {
        let mut s = Scheduler::new(model(), one_site());
        s.enqueue(batch(&[1], u64::MAX, 0));
        let d = dispatched(&mut s, 0);
        assert_eq!(d[0].start_ps, 1_000);
        assert_eq!(d[0].delivered_ps, d[0].done_ps + 1_000);
        // The fiber pipelines: the front-end can launch the next batch
        // one access delay before the slot frees.
        assert_eq!(d[0].free_ps, d[0].done_ps - 1_000);
    }
}
