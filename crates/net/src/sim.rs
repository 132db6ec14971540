//! The WAN discrete-event simulator.
//!
//! Packet-level simulation of Fig. 1's network: routers with per-link
//! egress queues and store-and-forward transmission, fiber propagation at
//! the speed of light in glass, dual-field forwarding
//! ([`crate::routing::RoutingTable`]), and **photonic engine slots** at
//! compute-capable sites that execute a packet's operation in-flight.
//!
//! Engine execution here uses the digitally-equivalent operation
//! semantics with a configurable analog noise term and the paper's
//! photonic energy constants; the *physical* fidelity of those semantics
//! is established separately by `ofpc-transponder`'s optical-field tests
//! (same math, device-level). This split keeps network-scale experiments
//! fast while staying calibrated to the physics.

use crate::addr::{Addr, Prefix};
use crate::events::EventQueue;
use crate::packet::Packet;
use crate::pch::ResultStatus;
use crate::queue::DropTailQueue;
use crate::routing::{shortest_paths_filtered, RouteEntry, RoutingTable};
use crate::stats::{DeliveryRecord, DropReason, StatsCollector};
use crate::topology::{LinkId, NodeId, Topology};
use ofpc_engine::Primitive;
use ofpc_photonics::energy::constants;
use ofpc_photonics::SimRng;
use ofpc_telemetry::{labels, track, Counter, Telemetry};
use std::collections::HashMap;

/// Default router egress queue capacity, bytes (1 MB class).
pub(crate) const DEFAULT_QUEUE_BYTES: usize = 1 << 20;

/// Fixed analog pipeline latency per in-flight operation, ps.
const ENGINE_LATENCY_PS: u64 = (constants::ENGINE_LATENCY_S * 1e12) as u64;

/// Latency of one in-flight operation over `n` operand symbols, ps: the
/// engine's fixed pipeline latency plus `n` symbols at the lane rate.
fn engine_latency_ps(n: usize) -> u64 {
    let symbol_ps = (n as f64 / constants::PHOTONIC_LANE_HZ * 1e12).round() as u64;
    ENGINE_LATENCY_PS + symbol_ps
}

/// The operation semantics installed in an engine slot.
#[derive(Debug, Clone, PartialEq)]
pub enum OpSpec {
    /// P1: dot product against stored weights.
    Dot { weights: Vec<f64> },
    /// P2: Hamming match against a stored bit pattern (operands ≥ 0.5
    /// read as 1).
    Match { pattern: Vec<bool> },
    /// P3: element-wise nonlinear activation (result = element count).
    Nonlinear,
    /// Distributed P1 (§5 extension): one *part* of a dot product that
    /// is split across several transponders along the path. The part
    /// multiplies `weights` against `operands[offset..offset+len]`,
    /// accumulates into the PCH result field, and — unless this is the
    /// final part — retargets the header at `next_op` so op-granular
    /// routing hands the packet to the next part's site.
    DotPartial {
        weights: Vec<f64>,
        offset: usize,
        next_op: Option<u16>,
    },
}

impl OpSpec {
    pub fn primitive(&self) -> Primitive {
        match self {
            OpSpec::Dot { .. } | OpSpec::DotPartial { .. } => Primitive::VectorDotProduct,
            OpSpec::Match { .. } => Primitive::PatternMatching,
            OpSpec::Nonlinear => Primitive::NonlinearFunction,
        }
    }
}

/// One photonic engine slot at a node.
#[derive(Debug, Clone)]
pub struct EngineSlot {
    pub op_id: u16,
    pub spec: OpSpec,
    /// Additive Gaussian noise on analog results (0 = ideal).
    pub noise_sigma: f64,
    /// Whether this engine is trustworthy: an injected hard-fail clears
    /// it and the repair sets it again. Unhealthy slots skip execution (packets pass through tagged
    /// [`ResultStatus::EngineUnhealthy`]) instead of emitting garbage.
    pub(crate) healthy: bool,
    pub executions: u64,
    pub macs: u64,
    pub energy_j: f64,
}

/// Simulator events.
#[derive(Debug)]
enum Ev {
    /// A packet enters the network at `node`.
    Inject { node: NodeId, packet: Packet },
    /// A packet arrives at `node` from link `via`. If the link was cut
    /// while the packet was in flight, the light is lost and the packet
    /// dropped.
    Arrive {
        node: NodeId,
        packet: Packet,
        via: LinkId,
    },
    /// The engine at `node` finished computing on `packet`.
    EngineDone { node: NodeId, packet: Packet },
    /// A link direction finished serializing its current packet.
    TxDone { dir: usize },
    /// Fault injection: a fiber is cut (`up = false`) or spliced back.
    LinkState { link: LinkId, up: bool },
    /// Fault injection: all engine slots at `node` change health.
    EngineHealth { node: NodeId, healthy: bool },
    /// Fault injection: analog drift moved the effective noise at `node`
    /// (EDFA gain drift, laser droop, PD responsivity degradation all
    /// land here as an effective sigma).
    EngineNoise { node: NodeId, sigma: f64 },
}

/// Per-direction link state.
#[derive(Debug)]
struct LinkDir {
    queue: DropTailQueue,
    busy: bool,
}

/// The network simulator.
#[derive(Debug)]
pub struct Network {
    pub topo: Topology,
    tables: Vec<RoutingTable>,
    dirs: Vec<LinkDir>,
    engines: HashMap<NodeId, Vec<EngineSlot>>,
    events: EventQueue<Ev>,
    pub stats: StatsCollector,
    rng: SimRng,
    /// Per-packet bookkeeping: creation time and hop count.
    meta: HashMap<u32, (u64, u32)>,
    /// Per-link up/down state (fiber cuts). Indexed by `LinkId`.
    link_up: Vec<bool>,
    /// Observability handle (disabled by default; see
    /// [`Network::set_telemetry`]).
    tel: Telemetry,
    series: NetSeries,
}

/// Pre-registered registry series mirroring [`StatsCollector`]'s
/// counters plus event-loop and engine profiling hooks. All handles are
/// no-ops until [`Network::set_telemetry`] installs live ones, so the
/// hot path pays one branch per sample when telemetry is off.
#[derive(Debug, Clone, Default)]
struct NetSeries {
    /// Events handled by the loop, labeled by kind (profiling hook).
    events: [Counter; 7],
    injected: Counter,
    delivered: Counter,
    drops: [Counter; 4],
    engine_execs: Counter,
    engine_macs: Counter,
}

const EV_KINDS: [&str; 7] = [
    "inject",
    "arrive",
    "engine-done",
    "tx-done",
    "link-state",
    "engine-health",
    "engine-noise",
];

fn ev_kind(ev: &Ev) -> usize {
    match ev {
        Ev::Inject { .. } => 0,
        Ev::Arrive { .. } => 1,
        Ev::EngineDone { .. } => 2,
        Ev::TxDone { .. } => 3,
        Ev::LinkState { .. } => 4,
        Ev::EngineHealth { .. } => 5,
        Ev::EngineNoise { .. } => 6,
    }
}

fn drop_idx(reason: DropReason) -> usize {
    match reason {
        DropReason::QueueFull => 0,
        DropReason::TtlExpired => 1,
        DropReason::NoRoute => 2,
        DropReason::LinkDown => 3,
    }
}

const DROP_KINDS: [&str; 4] = ["queue-full", "ttl-expired", "no-route", "link-down"];

impl Network {
    /// Build a simulator over `topo` with default queue sizes.
    pub fn new(topo: Topology, rng: SimRng) -> Self {
        Self::with_queue_capacity(topo, rng, DEFAULT_QUEUE_BYTES)
    }

    pub fn with_queue_capacity(topo: Topology, rng: SimRng, queue_bytes: usize) -> Self {
        let tables = vec![RoutingTable::new(); topo.node_count()];
        let dirs = (0..topo.link_count() * 2)
            .map(|_| LinkDir {
                queue: DropTailQueue::new(queue_bytes),
                busy: false,
            })
            .collect();
        let link_up = vec![true; topo.link_count()];
        Network {
            topo,
            tables,
            dirs,
            engines: HashMap::new(),
            events: EventQueue::new(),
            stats: StatsCollector::new(),
            rng,
            meta: HashMap::new(),
            link_up,
            tel: Telemetry::disabled(),
            series: NetSeries::default(),
        }
    }

    /// Attach an observability handle: mirrors the [`StatsCollector`]
    /// counters onto the shared registry as `net_*` series, counts
    /// event-loop iterations by kind, tracks engine executions/MACs,
    /// emits per-op engine spans, and records fault transitions
    /// (link/engine state flips) as structured instant trace events.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = tel.clone();
        self.series = NetSeries {
            events: std::array::from_fn(|i| {
                tel.counter("net_events_total", &labels(&[("kind", EV_KINDS[i])]))
            }),
            injected: tel.counter("net_injected_total", &Vec::new()),
            delivered: tel.counter("net_delivered_total", &Vec::new()),
            drops: std::array::from_fn(|i| {
                tel.counter("net_drops_total", &labels(&[("reason", DROP_KINDS[i])]))
            }),
            engine_execs: tel.counter("net_engine_executions_total", &Vec::new()),
            engine_macs: tel.counter("net_engine_macs_total", &Vec::new()),
        };
    }

    /// Record a drop in both the exact collector and the registry.
    fn note_drop(&mut self, reason: DropReason) {
        self.stats.record_drop(reason);
        self.series.drops[drop_idx(reason)].inc();
    }

    /// The /24 prefix owned by a node (site addressing `10.<site>.0/24`).
    pub fn node_prefix(node: NodeId) -> Prefix {
        Prefix::new(Addr::site_host(node.0 as u16, 0), 24)
    }

    /// Host address `host` at `node`.
    pub fn node_addr(node: NodeId, host: u8) -> Addr {
        Addr::site_host(node.0 as u16, host)
    }

    /// The node that owns `addr`, if any.
    pub(crate) fn addr_node(&self, addr: Addr) -> Option<NodeId> {
        let o = addr.octets();
        if o[0] != 10 {
            return None;
        }
        let site = ((o[1] as u32) << 8) | o[2] as u32;
        if (site as usize) < self.topo.node_count() {
            Some(NodeId(site))
        } else {
            None
        }
    }

    /// Install delay-shortest-path routes for every (node, destination)
    /// pair — the plain-IP baseline the controller's compute overrides
    /// layer on top of. Downed links are excluded, so calling this again
    /// after a fiber cut reconverges the plain routing plane (see
    /// [`Network::reconverge_routes`]). Destinations unreachable over the
    /// surviving links get a null next hop (packets for them drop with
    /// `NoRoute` rather than chasing a stale path).
    pub fn install_shortest_path_routes(&mut self) {
        let up = self.link_up.clone();
        let ok = move |l: LinkId| up[l.0 as usize];
        for n in 0..self.topo.node_count() {
            let src = NodeId(n as u32);
            let paths = shortest_paths_filtered(&self.topo, src, &ok);
            for d in 0..self.topo.node_count() {
                let dst = NodeId(d as u32);
                let next_hop = if dst == src {
                    None
                } else {
                    paths.get(&dst).and_then(|&(_, link)| link)
                };
                self.tables[n].install(
                    Self::node_prefix(dst),
                    RouteEntry {
                        next_hop,
                        ..Default::default()
                    },
                );
            }
        }
    }

    /// Re-run plain-route installation over the surviving links. This
    /// *replaces* each prefix entry, wiping stale compute overrides that
    /// may point at failed sites — the controller re-applies its plan
    /// after reconvergence (protection switching).
    pub fn reconverge_routes(&mut self) {
        self.install_shortest_path_routes();
    }

    /// Install compute-detour overrides: packets still awaiting
    /// `primitive` are steered toward `via` (where a matching engine
    /// lives) at every node, for every destination prefix. At `via`
    /// itself no override is installed — after computing, packets follow
    /// plain routes. This is the §3 controller's job; the controller
    /// crate calls this.
    pub fn install_compute_detour(&mut self, primitive: Primitive, via: NodeId) {
        let up = self.link_up.clone();
        let ok = move |l: LinkId| up[l.0 as usize];
        for n in 0..self.topo.node_count() {
            let here = NodeId(n as u32);
            if here == via {
                continue;
            }
            let paths = shortest_paths_filtered(&self.topo, here, &ok);
            let Some(&(_, Some(first_link))) = paths.get(&via) else {
                continue; // via unreachable from here
            };
            for d in 0..self.topo.node_count() {
                let dst = NodeId(d as u32);
                if dst == here {
                    continue;
                }
                self.tables[n].install_compute_override(
                    Self::node_prefix(dst),
                    primitive,
                    first_link,
                );
            }
        }
    }

    /// Direct access to a node's routing table (controller interface).
    pub fn routing_table_mut(&mut self, node: NodeId) -> &mut RoutingTable {
        &mut self.tables[node.0 as usize]
    }

    /// Install a photonic engine slot at `node`.
    pub fn add_engine(&mut self, node: NodeId, op_id: u16, spec: OpSpec, noise_sigma: f64) {
        assert!((node.0 as usize) < self.topo.node_count(), "unknown node");
        self.engines.entry(node).or_default().push(EngineSlot {
            op_id,
            spec,
            noise_sigma: noise_sigma.max(0.0),
            healthy: true,
            executions: 0,
            macs: 0,
            energy_j: 0.0,
        });
    }

    /// Engine slots at a node (read-only view).
    pub fn engines_at(&self, node: NodeId) -> &[EngineSlot] {
        self.engines.get(&node).map_or(&[], |v| v.as_slice())
    }

    /// Inject a packet into the network at `node` at absolute `at_ps`.
    pub fn inject(&mut self, at_ps: u64, node: NodeId, packet: Packet) {
        self.events.schedule_at(at_ps, Ev::Inject { node, packet });
    }

    // ------------------------------------------------------------------
    // Fault injection (the `ofpc-faults` crate drives these).
    // ------------------------------------------------------------------

    /// Whether a link currently carries light.
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.link_up[link.0 as usize]
    }

    /// Immediately cut (`up = false`) or restore a fiber. Cutting drains
    /// both egress queues — those photons are lost, counted as
    /// [`DropReason::LinkDown`]. Routes are *not* reconverged here;
    /// detection and protection switching are the controller's job.
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        let idx = link.0 as usize;
        assert!(idx < self.topo.link_count(), "unknown link");
        let was_up = self.link_up[idx];
        self.link_up[idx] = up;
        if up {
            if !was_up {
                for a_to_b in [true, false] {
                    self.try_transmit(Self::dir_index(link, a_to_b));
                }
            }
            return;
        }
        for a_to_b in [true, false] {
            let dir = Self::dir_index(link, a_to_b);
            while let Some(p) = self.dirs[dir].queue.pop() {
                self.meta.remove(&p.id);
                self.note_drop(DropReason::LinkDown);
            }
        }
    }

    /// Schedule a fiber cut at absolute `at_ps`.
    pub fn schedule_link_down(&mut self, at_ps: u64, link: LinkId) {
        self.events
            .schedule_at(at_ps, Ev::LinkState { link, up: false });
    }

    /// Schedule a fiber repair at absolute `at_ps`.
    pub fn schedule_link_up(&mut self, at_ps: u64, link: LinkId) {
        self.events
            .schedule_at(at_ps, Ev::LinkState { link, up: true });
    }

    /// Immediately set the health of every engine slot at `node`.
    pub fn set_engine_health(&mut self, node: NodeId, healthy: bool) {
        if let Some(slots) = self.engines.get_mut(&node) {
            for s in slots {
                s.healthy = healthy;
            }
        }
    }

    /// Schedule an engine hard-fail (`healthy = false`) or repair.
    pub fn schedule_engine_health(&mut self, at_ps: u64, node: NodeId, healthy: bool) {
        self.events
            .schedule_at(at_ps, Ev::EngineHealth { node, healthy });
    }

    /// Immediately set the effective analog noise sigma of every engine
    /// slot at `node` (each rung of an injected drift staircase lands
    /// here).
    pub(crate) fn set_engine_noise(&mut self, node: NodeId, sigma: f64) {
        if let Some(slots) = self.engines.get_mut(&node) {
            for s in slots {
                s.noise_sigma = sigma.max(0.0);
            }
        }
    }

    /// Schedule a drift step: at `at_ps` the engines at `node` run with
    /// `sigma` effective noise.
    pub fn schedule_engine_noise(&mut self, at_ps: u64, node: NodeId, sigma: f64) {
        self.events
            .schedule_at(at_ps, Ev::EngineNoise { node, sigma });
    }

    /// Packets currently inside the simulator (injected, neither
    /// delivered nor dropped) — the in-flight term of conservation.
    pub fn in_flight_count(&self) -> usize {
        self.meta.len()
    }

    /// Current simulation time.
    pub fn now_ps(&self) -> u64 {
        self.events.now_ps()
    }

    /// Queue occupancy of `link`'s A→B direction in `[0,1]` — the analog
    /// the load balancer reads.
    pub fn queue_occupancy(&self, link: LinkId) -> f64 {
        self.dirs[Self::dir_index(link, true)].queue.occupancy()
    }

    fn dir_index(link: LinkId, a_to_b: bool) -> usize {
        link.0 as usize * 2 + if a_to_b { 0 } else { 1 }
    }

    /// Run until no events remain or `max_events` have fired. Returns
    /// events processed in this call.
    pub(crate) fn run(&mut self, max_events: u64) -> u64 {
        let start = self.events.events_processed;
        while self.events.events_processed - start < max_events {
            let Some((_, ev)) = self.events.pop() else {
                break;
            };
            self.dispatch(ev);
        }
        self.events.events_processed - start
    }

    /// Process every event with a timestamp ≤ `t_ps`, leaving later
    /// events queued. Lets callers interleave control decisions (e.g.
    /// load-balancer occupancy reads) with simulated time.
    pub fn run_until(&mut self, t_ps: u64) {
        while let Some(next) = self.events.peek_time_ps() {
            if next > t_ps {
                break;
            }
            let Some((_, ev)) = self.events.pop() else {
                break;
            };
            self.dispatch(ev);
        }
    }

    /// Run to completion (panics if the event count explodes past the
    /// safety cap — a routing loop would do that).
    pub fn run_to_idle(&mut self) {
        let cap = 100_000_000;
        let ran = self.run(cap);
        assert!(
            ran < cap,
            "simulation did not converge: possible routing loop"
        );
    }

    fn dispatch(&mut self, ev: Ev) {
        self.series.events[ev_kind(&ev)].inc();
        match ev {
            Ev::Inject { node, packet } => {
                self.stats.injected += 1;
                self.series.injected.inc();
                self.meta.insert(packet.id, (self.events.now_ps(), 0));
                self.handle_at_node(node, packet);
            }
            Ev::Arrive { node, packet, via } => {
                // A cut mid-propagation loses the light: the packet never
                // makes it to the far end.
                if !self.link_up[via.0 as usize] {
                    self.meta.remove(&packet.id);
                    self.note_drop(DropReason::LinkDown);
                    return;
                }
                if let Some(m) = self.meta.get_mut(&packet.id) {
                    m.1 += 1;
                }
                self.handle_at_node(node, packet);
            }
            Ev::EngineDone { node, packet } => {
                self.forward(node, packet);
            }
            Ev::TxDone { dir } => {
                self.dirs[dir].busy = false;
                self.try_transmit(dir);
            }
            Ev::LinkState { link, up } => {
                self.tel.instant(
                    track::NET,
                    u64::from(link.0),
                    "fault",
                    if up { "link.up" } else { "link.down" },
                    self.events.now_ps(),
                    vec![("link", link.0.to_string())],
                );
                self.set_link_up(link, up);
            }
            Ev::EngineHealth { node, healthy } => {
                self.tel.instant(
                    track::NET,
                    u64::from(node.0),
                    "fault",
                    if healthy {
                        "engine.repair"
                    } else {
                        "engine.fail"
                    },
                    self.events.now_ps(),
                    vec![("node", node.0.to_string())],
                );
                self.set_engine_health(node, healthy);
            }
            Ev::EngineNoise { node, sigma } => {
                self.tel.instant(
                    track::NET,
                    u64::from(node.0),
                    "fault",
                    "engine.drift",
                    self.events.now_ps(),
                    vec![
                        ("node", node.0.to_string()),
                        ("sigma", format!("{sigma:e}")),
                    ],
                );
                self.set_engine_noise(node, sigma);
            }
        }
    }

    /// Whether `packet` still awaits computation; returns the primitive
    /// and the op id for op-granular routing.
    fn pending_primitive(packet: &Packet) -> Option<(Primitive, u16)> {
        packet
            .pch
            .as_ref()
            .filter(|pch| !pch.is_computed())
            .map(|pch| (pch.primitive, pch.op_id))
    }

    fn handle_at_node(&mut self, node: NodeId, mut packet: Packet) {
        // In-flight photonic computation happens before any local
        // delivery or forwarding decision (the engine sits on the
        // incoming light, Fig. 4).
        if let Some((pending, _)) = Self::pending_primitive(&packet) {
            if let Some(latency_ps) = self.try_execute(node, pending, &mut packet) {
                self.series.engine_execs.inc();
                self.series.engine_macs.add(packet.operands().len() as u64);
                // One span per in-flight op on the packet's own track:
                // packets can overlap at a node, requests never overlap
                // on their own id.
                if self.tel.is_enabled() {
                    let (tid, now) = (u64::from(packet.id), self.events.now_ps());
                    let args = vec![("node", node.0.to_string())];
                    self.tel
                        .begin(track::SITES, tid, "net", "engine.op", now, args);
                    self.tel
                        .end(track::SITES, tid, "net", "engine.op", now + latency_ps);
                }
                self.events
                    .schedule_in(latency_ps, Ev::EngineDone { node, packet });
                return;
            }
        }
        self.forward(node, packet);
    }

    /// Attempt to execute the packet's pending op at `node`; on success
    /// marks the PCH computed and returns the engine latency.
    fn try_execute(
        &mut self,
        node: NodeId,
        pending: Primitive,
        packet: &mut Packet,
    ) -> Option<u64> {
        let pch = packet.pch.as_ref()?;
        let op_id = pch.op_id;
        let slots = self.engines.get_mut(&node)?;
        let idx = slots
            .iter()
            .position(|s| s.op_id == op_id && s.spec.primitive() == pending)?;
        if !slots[idx].healthy {
            // A matching engine exists but has hard-failed: skip the op
            // and tag the header so the receiver can tell this from a
            // valid analog result.
            packet
                .pch
                .as_mut()
                .expect("checked above")
                .set_status(ResultStatus::EngineUnhealthy);
            return None;
        }
        let slot = &mut slots[idx];
        let operands = packet.operands();
        let n = operands.len();
        let noise = if slot.noise_sigma > 0.0 {
            self.rng.normal(slot.noise_sigma)
        } else {
            0.0
        };
        // Distributed parts accumulate instead of finishing; handle them
        // before the scalar-result ops.
        if let OpSpec::DotPartial {
            weights,
            offset,
            next_op,
        } = &slot.spec
        {
            let (offset, next_op) = (*offset, *next_op);
            if offset + weights.len() > n {
                return None; // part out of range: skip
            }
            let partial = operands[offset..offset + weights.len()]
                .iter()
                .zip(weights)
                .map(|(a, w)| a * w)
                .sum::<f64>()
                + noise;
            let part_len = weights.len();
            slot.executions += 1;
            slot.macs += part_len as u64;
            slot.energy_j += part_len as f64 * constants::PHOTONIC_MAC_J + constants::ADC_SAMPLE_J;
            let pch = packet.pch.as_mut().expect("checked above");
            match next_op {
                Some(next) => {
                    pch.add_partial(partial);
                    pch.retarget(next);
                }
                None => pch.finish_partial(partial),
            }
            return Some(engine_latency_ps(part_len));
        }
        let result = match &slot.spec {
            OpSpec::Dot { weights } => {
                if weights.len() != n {
                    return None; // operand shape mismatch: skip
                }
                operands
                    .iter()
                    .zip(weights)
                    .map(|(a, w)| a * w)
                    .sum::<f64>()
                    + noise
            }
            OpSpec::Match { pattern } => {
                if pattern.len() != n {
                    return None;
                }
                let dist = operands
                    .iter()
                    .zip(pattern)
                    .filter(|(v, &p)| (**v >= 0.5) != p)
                    .count() as f64;
                (dist + noise).max(0.0)
            }
            OpSpec::Nonlinear => n as f64,
            OpSpec::DotPartial { .. } => unreachable!("handled above"),
        };
        slot.executions += 1;
        slot.macs += n as u64;
        slot.energy_j += n as f64 * constants::PHOTONIC_MAC_J + constants::ADC_SAMPLE_J;
        packet
            .pch
            .as_mut()
            .expect("checked above")
            .mark_computed(result);
        Some(engine_latency_ps(n))
    }

    fn forward(&mut self, node: NodeId, mut packet: Packet) {
        // Local delivery?
        if self.addr_node(packet.dst) == Some(node) {
            let (created, hops) = self.meta.remove(&packet.id).unwrap_or((0, 0));
            self.series.delivered.inc();
            self.stats.record_delivery(DeliveryRecord {
                packet_id: packet.id,
                created_ps: created,
                delivered_ps: self.events.now_ps(),
                hops,
                computed: packet.pch.map(|p| p.is_computed()).unwrap_or(false),
                status: packet
                    .pch
                    .map(|p| p.status())
                    .unwrap_or(crate::pch::ResultStatus::Ok),
                wire_bytes: packet.wire_bytes(),
            });
            return;
        }
        if !packet.decrement_ttl() {
            self.note_drop(DropReason::TtlExpired);
            self.meta.remove(&packet.id);
            return;
        }
        let pending = Self::pending_primitive(&packet);
        let Some(link) = self.tables[node.0 as usize]
            .lookup_op(packet.dst, pending.map(|(p, op)| (p, Some(op))))
        else {
            self.note_drop(DropReason::NoRoute);
            self.meta.remove(&packet.id);
            return;
        };
        if !self.link_up[link.0 as usize] {
            // Loss of light: the route still points at a cut fiber
            // (detection + protection switching have not reconverged it
            // yet).
            self.note_drop(DropReason::LinkDown);
            self.meta.remove(&packet.id);
            return;
        }
        let a_to_b = self.topo.link(link).a == node;
        debug_assert!(
            a_to_b || self.topo.link(link).b == node,
            "routing table points at a non-incident link"
        );
        let dir = Self::dir_index(link, a_to_b);
        let packet_id = packet.id;
        if !self.dirs[dir].queue.push(packet) {
            self.note_drop(DropReason::QueueFull);
            self.meta.remove(&packet_id);
            return;
        }
        self.try_transmit(dir);
    }

    fn try_transmit(&mut self, dir: usize) {
        if self.dirs[dir].busy {
            return;
        }
        let link = LinkId((dir / 2) as u32);
        if !self.link_up[link.0 as usize] {
            return;
        }
        let Some(packet) = self.dirs[dir].queue.pop() else {
            return;
        };
        self.dirs[dir].busy = true;
        let a_to_b = dir.is_multiple_of(2);
        let l = self.topo.link(link);
        let target = if a_to_b { l.b } else { l.a };
        let ser_ps = (packet.wire_bytes() as f64 * 8.0 / l.capacity_bps * 1e12).round() as u64;
        let prop_ps = l.delay_ps();
        self.events.schedule_in(ser_ps, Ev::TxDone { dir });
        self.events.schedule_in(
            ser_ps + prop_ps,
            Ev::Arrive {
                node: target,
                packet,
                via: link,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pch::PchHeader;

    fn fig1_net() -> Network {
        let mut net = Network::new(Topology::fig1(), SimRng::seed_from_u64(0));
        net.install_shortest_path_routes();
        net
    }

    fn a_d(net: &Network) -> (NodeId, NodeId) {
        (
            net.topo.find_node("A").unwrap(),
            net.topo.find_node("D").unwrap(),
        )
    }

    #[test]
    fn plain_packet_crosses_fig1() {
        let mut net = fig1_net();
        let (a, d) = a_d(&net);
        let p = Packet::data(
            Network::node_addr(a, 1),
            Network::node_addr(d, 1),
            1,
            vec![0u8; 100],
        );
        net.inject(0, a, p);
        net.run_to_idle();
        assert_eq!(net.stats.delivered_count(), 1);
        let rec = &net.stats.delivered[0];
        assert_eq!(rec.hops, 2); // A → B|C → D
                                 // 1500 km of fiber ≈ 7.3 ms.
        let ms = rec.latency_ms();
        assert!(ms > 7.0 && ms < 7.7, "latency {ms} ms");
        assert!(!rec.computed);
    }

    #[test]
    fn local_delivery_is_instant() {
        let mut net = fig1_net();
        let (a, _) = a_d(&net);
        let p = Packet::data(
            Network::node_addr(a, 1),
            Network::node_addr(a, 2),
            1,
            vec![],
        );
        net.inject(100, a, p);
        net.run_to_idle();
        assert_eq!(net.stats.delivered_count(), 1);
        assert_eq!(net.stats.delivered[0].latency_ps(), 0);
        assert_eq!(net.stats.delivered[0].hops, 0);
    }

    #[test]
    fn compute_packet_detours_and_computes() {
        let mut net = fig1_net();
        let (a, d) = a_d(&net);
        let b = net.topo.find_node("B").unwrap();
        let weights = vec![0.5, 0.5, 1.0, 0.25];
        net.add_engine(
            b,
            7,
            OpSpec::Dot {
                weights: weights.clone(),
            },
            0.0,
        );
        net.install_compute_detour(Primitive::VectorDotProduct, b);
        let operands = vec![1.0, 0.5, 0.25, 1.0];
        let pch = PchHeader::request(Primitive::VectorDotProduct, 7, 4);
        let p = Packet::compute(
            Network::node_addr(a, 1),
            Network::node_addr(d, 1),
            1,
            pch,
            Packet::encode_operands(&operands),
        );
        net.inject(0, a, p);
        net.run_to_idle();
        assert_eq!(net.stats.delivered_count(), 1);
        let rec = &net.stats.delivered[0];
        assert!(rec.computed);
        assert_eq!(net.engines_at(b)[0].executions, 1);
        assert_eq!(net.engines_at(b)[0].macs, 4);
        assert!(net.engines_at(b)[0].energy_j > 0.0);
    }

    #[test]
    fn compute_result_is_correct_en_route() {
        // Deliver to the compute node itself so we can inspect the PCH.
        let mut net = fig1_net();
        let (a, _) = a_d(&net);
        let b = net.topo.find_node("B").unwrap();
        net.add_engine(
            b,
            1,
            OpSpec::Dot {
                weights: vec![1.0, 1.0],
            },
            0.0,
        );
        let pch = PchHeader::request(Primitive::VectorDotProduct, 1, 2);
        let p = Packet::compute(
            Network::node_addr(a, 1),
            Network::node_addr(b, 1),
            1,
            pch,
            Packet::encode_operands(&[0.5, 0.25]),
        );
        net.inject(0, a, p);
        net.run_to_idle();
        assert_eq!(net.stats.delivered_count(), 1);
        assert!(net.stats.delivered[0].computed);
        // Engine saw ~0.75 (quantized operands).
        let slot = &net.engines_at(b)[0];
        assert_eq!(slot.executions, 1);
    }

    #[test]
    fn plain_traffic_ignores_compute_detours() {
        let mut net = fig1_net();
        let (a, d) = a_d(&net);
        let c = net.topo.find_node("C").unwrap();
        net.add_engine(c, 1, OpSpec::Nonlinear, 0.0);
        net.install_compute_detour(Primitive::NonlinearFunction, c);
        // Plain packet: must take the default shortest path, and no
        // engine executes.
        let p = Packet::data(
            Network::node_addr(a, 1),
            Network::node_addr(d, 1),
            1,
            vec![0; 10],
        );
        net.inject(0, a, p);
        net.run_to_idle();
        assert_eq!(net.stats.delivered_count(), 1);
        assert_eq!(net.engines_at(c)[0].executions, 0);
    }

    #[test]
    fn computed_packets_route_normally_after_engine() {
        // Engine at B; destination D. After computing at B the packet
        // follows plain routes B→D rather than looping.
        let mut net = fig1_net();
        let (a, d) = a_d(&net);
        let b = net.topo.find_node("B").unwrap();
        net.add_engine(
            b,
            2,
            OpSpec::Match {
                pattern: vec![true, false],
            },
            0.0,
        );
        net.install_compute_detour(Primitive::PatternMatching, b);
        let pch = PchHeader::request(Primitive::PatternMatching, 2, 2);
        let p = Packet::compute(
            Network::node_addr(a, 1),
            Network::node_addr(d, 1),
            1,
            pch,
            Packet::encode_operands(&[1.0, 0.0]),
        );
        net.inject(0, a, p);
        net.run_to_idle();
        assert_eq!(net.stats.delivered_count(), 1);
        assert!(net.stats.delivered[0].computed);
        assert_eq!(net.stats.delivered[0].hops, 2);
    }

    #[test]
    fn mismatched_op_id_passes_through_uncomputed() {
        let mut net = fig1_net();
        let (a, d) = a_d(&net);
        let b = net.topo.find_node("B").unwrap();
        net.add_engine(b, 1, OpSpec::Dot { weights: vec![1.0] }, 0.0);
        net.install_compute_detour(Primitive::VectorDotProduct, b);
        // Request op 99, engine has op 1.
        let pch = PchHeader::request(Primitive::VectorDotProduct, 99, 1);
        let p = Packet::compute(
            Network::node_addr(a, 1),
            Network::node_addr(d, 1),
            1,
            pch,
            Packet::encode_operands(&[1.0]),
        );
        net.inject(0, a, p);
        net.run_to_idle();
        assert_eq!(net.stats.delivered_count(), 1);
        assert!(!net.stats.delivered[0].computed);
        assert_eq!(net.engines_at(b)[0].executions, 0);
    }

    /// Send one 8-operand dot-product request from n0 to n3 of a 4-node
    /// line whose engines are `engines` (node, op id, spec), tagged with
    /// `op_id`; return whether it was computed and its latency, ps.
    fn line_delivery(engines: &[(u32, u16, OpSpec)], op_id: u16) -> (bool, u64) {
        let mut net = Network::new(Topology::line(4, 100.0), SimRng::seed_from_u64(0));
        net.install_shortest_path_routes();
        for (node, op, spec) in engines {
            net.add_engine(NodeId(*node), *op, spec.clone(), 0.0);
        }
        let pch = PchHeader::request(Primitive::VectorDotProduct, op_id, 8);
        let p = Packet::compute(
            Network::node_addr(NodeId(0), 1),
            Network::node_addr(NodeId(3), 1),
            1,
            pch,
            Packet::encode_operands(&[0.5; 8]),
        );
        net.inject(0, NodeId(0), p);
        net.run_to_idle();
        assert_eq!(net.stats.delivered_count(), 1);
        let rec = &net.stats.delivered[0];
        (rec.computed, rec.latency_ps())
    }

    /// The engine's fixed latency plus `n` symbols at the lane rate, ps.
    fn engine_hop_ps(n: usize) -> u64 {
        (constants::ENGINE_LATENCY_S * 1e12) as u64
            + (n as f64 / constants::PHOTONIC_LANE_HZ * 1e12).round() as u64
    }

    #[test]
    fn engine_hop_adds_fixed_latency_plus_operand_symbols() {
        // A whole dot product at n1; op 99 matches no engine and passes
        // through the same path uncomputed.
        let dot = [(
            1,
            1,
            OpSpec::Dot {
                weights: vec![1.0; 8],
            },
        )];
        let (computed, with_engine) = line_delivery(&dot, 1);
        let (skipped, pass_through) = line_delivery(&dot, 99);
        assert!(computed && !skipped);
        assert_eq!(with_engine - pass_through, engine_hop_ps(8));

        // A two-part chain: 3 operands at n1, then 5 at n2. Each part pays
        // the fixed latency and its own symbols (94 ps and 156 ps round
        // differently from 250 ps for all 8).
        let chain = [
            (
                1,
                1,
                OpSpec::DotPartial {
                    weights: vec![1.0; 3],
                    offset: 0,
                    next_op: Some(2),
                },
            ),
            (
                2,
                2,
                OpSpec::DotPartial {
                    weights: vec![1.0; 5],
                    offset: 3,
                    next_op: None,
                },
            ),
        ];
        let (computed, with_engines) = line_delivery(&chain, 1);
        let (skipped, pass_through) = line_delivery(&chain, 99);
        assert!(computed && !skipped);
        assert_eq!(
            with_engines - pass_through,
            engine_hop_ps(3) + engine_hop_ps(5)
        );
    }

    #[test]
    fn no_route_counts_drops() {
        let mut net = Network::new(Topology::fig1(), SimRng::seed_from_u64(0));
        // No routes installed at all.
        let (a, d) = a_d(&net);
        let p = Packet::data(
            Network::node_addr(a, 1),
            Network::node_addr(d, 1),
            1,
            vec![],
        );
        net.inject(0, a, p);
        net.run_to_idle();
        assert_eq!(net.stats.delivered_count(), 0);
        assert_eq!(net.stats.drops_no_route, 1);
    }

    #[test]
    fn queue_contention_serializes_packets() {
        let mut net = fig1_net();
        let (a, d) = a_d(&net);
        // Two packets injected at the same instant share the A→B link:
        // the second is delayed by the first's serialization time.
        for id in 0..2 {
            let p = Packet::data(
                Network::node_addr(a, 1),
                Network::node_addr(d, 1),
                id,
                vec![0u8; 10_000],
            );
            net.inject(0, a, p);
        }
        net.run_to_idle();
        assert_eq!(net.stats.delivered_count(), 2);
        let l0 = net.stats.delivered[0].latency_ps();
        let l1 = net.stats.delivered[1].latency_ps();
        let ser_ps = ((10_000 + 16) as f64 * 8.0 / 800e9 * 1e12).round() as u64;
        assert_eq!(l1 - l0, ser_ps, "second packet delayed by serialization");
    }

    #[test]
    fn tiny_queue_drops_bursts() {
        let mut net = Network::with_queue_capacity(
            Topology::fig1(),
            SimRng::seed_from_u64(0),
            2_000, // fits one 1016-byte packet only
        );
        net.install_shortest_path_routes();
        let (a, d) = a_d(&net);
        for id in 0..5 {
            let p = Packet::data(
                Network::node_addr(a, 1),
                Network::node_addr(d, 1),
                id,
                vec![0u8; 1_000],
            );
            net.inject(0, a, p);
        }
        net.run_to_idle();
        assert!(net.stats.drops_queue > 0);
        assert!(net.stats.delivered_count() < 5);
        assert_eq!(
            net.stats.delivered_count() as u64 + net.stats.drops_queue,
            5
        );
        // Conservation survives queue drops (no meta-map leak).
        assert_eq!(net.in_flight_count(), 0);
        assert!(net.stats.conservation_holds(0));
    }

    #[test]
    fn ttl_expiry_on_unroutable_loop() {
        // Two-node topology with deliberately looping routes.
        let mut t = Topology::new();
        let x = t.add_node("x");
        let y = t.add_node("y");
        t.add_link(x, y, 10.0);
        let mut net = Network::new(t, SimRng::seed_from_u64(0));
        // Both nodes point at the same link for a foreign prefix.
        let foreign: Prefix = "10.0.99.0/24".parse().unwrap();
        for n in [x, y] {
            net.routing_table_mut(n).install(
                foreign,
                RouteEntry {
                    next_hop: Some(LinkId(0)),
                    ..Default::default()
                },
            );
        }
        let p = Packet::data(
            Network::node_addr(x, 1),
            "10.0.99.1".parse().unwrap(),
            1,
            vec![],
        );
        net.inject(0, x, p);
        net.run_to_idle();
        assert_eq!(net.stats.drops_ttl, 1);
        assert_eq!(net.stats.delivered_count(), 0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let run = || {
            let mut net = fig1_net();
            let (a, d) = a_d(&net);
            let b = net.topo.find_node("B").unwrap();
            net.add_engine(
                b,
                1,
                OpSpec::Dot {
                    weights: vec![0.5; 8],
                },
                0.01,
            );
            net.install_compute_detour(Primitive::VectorDotProduct, b);
            for id in 0..20 {
                let pch = PchHeader::request(Primitive::VectorDotProduct, 1, 8);
                let p = Packet::compute(
                    Network::node_addr(a, 1),
                    Network::node_addr(d, 1),
                    id,
                    pch,
                    Packet::encode_operands(&[0.5; 8]),
                );
                net.inject(id as u64 * 1000, a, p);
            }
            net.run_to_idle();
            net.stats
                .delivered
                .iter()
                .map(|r| (r.packet_id, r.delivered_ps))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fiber_cut_loses_light_and_conserves_packets() {
        let mut net = fig1_net();
        let (a, d) = a_d(&net);
        let b = net.topo.find_node("B").unwrap();
        let ab = net
            .topo
            .neighbors(a)
            .into_iter()
            .find(|&(_, n)| n == b)
            .map(|(l, _)| l)
            .unwrap();
        // Steady stream A→D; shortest path may use A–B. Cut A–B mid-run.
        for id in 0..40 {
            let p = Packet::data(
                Network::node_addr(a, 1),
                Network::node_addr(d, 1),
                id,
                vec![0u8; 1_000],
            );
            net.inject(id as u64 * 100_000, a, p);
        }
        net.schedule_link_down(1_500_000, ab);
        net.run_to_idle();
        assert!(!net.link_is_up(ab));
        // If the default path used A–B, packets after the cut are lost to
        // loss-of-light; either way nothing leaks.
        assert_eq!(net.in_flight_count(), 0);
        assert!(
            net.stats.conservation_holds(0),
            "injected {} delivered {} drops {}",
            net.stats.injected,
            net.stats.delivered_count(),
            net.stats.total_drops()
        );
        if net.stats.drops_link_down > 0 {
            assert!(net.stats.delivered_count() < 40);
        }
    }

    #[test]
    fn reconvergence_restores_delivery_after_cut() {
        let mut net = fig1_net();
        let (a, d) = a_d(&net);
        let b = net.topo.find_node("B").unwrap();
        // Cut every link incident to B, reconverge, and traffic A→D
        // must flow via C.
        let b_links: Vec<LinkId> = net.topo.neighbors(b).into_iter().map(|(l, _)| l).collect();
        for l in &b_links {
            net.set_link_up(*l, false);
        }
        net.reconverge_routes();
        let p = Packet::data(
            Network::node_addr(a, 1),
            Network::node_addr(d, 1),
            1,
            vec![0u8; 100],
        );
        net.inject(0, a, p);
        net.run_to_idle();
        assert_eq!(net.stats.delivered_count(), 1, "{:?}", net.stats);
        assert_eq!(net.stats.delivered[0].hops, 2); // A → C → D
        assert!(net.stats.conservation_holds(0));
    }

    #[test]
    fn unhealthy_engine_skips_and_tags_packets() {
        use crate::pch::ResultStatus;
        let mut net = fig1_net();
        let (a, d) = a_d(&net);
        let b = net.topo.find_node("B").unwrap();
        net.add_engine(b, 1, OpSpec::Dot { weights: vec![1.0] }, 0.0);
        net.install_compute_detour(Primitive::VectorDotProduct, b);
        net.set_engine_health(b, false);
        let pch = PchHeader::request(Primitive::VectorDotProduct, 1, 1);
        let p = Packet::compute(
            Network::node_addr(a, 1),
            Network::node_addr(d, 1),
            1,
            pch,
            Packet::encode_operands(&[1.0]),
        );
        net.inject(0, a, p);
        net.run_to_idle();
        assert_eq!(net.stats.delivered_count(), 1);
        let rec = &net.stats.delivered[0];
        assert!(!rec.computed, "unhealthy engine must not execute");
        assert_eq!(rec.status, ResultStatus::EngineUnhealthy);
        assert_eq!(net.engines_at(b)[0].executions, 0);
        // Repair and retry: healthy engine computes and clears nothing —
        // a fresh request carries Ok status.
        net.schedule_engine_health(net.now_ps() + 1, b, true);
        let pch = PchHeader::request(Primitive::VectorDotProduct, 1, 1);
        let p = Packet::compute(
            Network::node_addr(a, 1),
            Network::node_addr(d, 1),
            2,
            pch,
            Packet::encode_operands(&[1.0]),
        );
        let at = net.now_ps() + 2;
        net.inject(at, a, p);
        net.run_to_idle();
        assert_eq!(net.stats.delivered_count(), 2);
        let rec = &net.stats.delivered[1];
        assert!(rec.computed);
        assert_eq!(rec.status, ResultStatus::Ok);
    }

    #[test]
    fn scheduled_noise_drift_raises_engine_sigma() {
        let mut net = fig1_net();
        let b = net.topo.find_node("B").unwrap();
        net.add_engine(b, 1, OpSpec::Nonlinear, 0.0);
        // Three drift steps, as a ramp sampler would schedule them.
        net.schedule_engine_noise(10, b, 0.01);
        net.schedule_engine_noise(20, b, 0.05);
        net.schedule_engine_noise(30, b, 0.2);
        net.run_to_idle();
        assert!((net.engines_at(b)[0].noise_sigma - 0.2).abs() < 1e-12);
        // Negative sigma is clamped.
        net.set_engine_noise(b, -1.0);
        assert_eq!(net.engines_at(b)[0].noise_sigma, 0.0);
    }

    #[test]
    fn link_flap_drains_queue_and_recovers() {
        let mut net = fig1_net();
        let (a, d) = a_d(&net);
        let first_hop = net
            .routing_table_mut(a)
            .lookup_op(Network::node_addr(d, 1), None)
            .unwrap();
        // Burst so the egress queue holds packets, then cut: queued
        // packets are lost as LinkDown, and after repair traffic flows.
        for id in 0..10 {
            let p = Packet::data(
                Network::node_addr(a, 1),
                Network::node_addr(d, 1),
                id,
                vec![0u8; 10_000],
            );
            net.inject(0, a, p);
        }
        net.schedule_link_down(100, first_hop);
        net.schedule_link_up(60_000_000, first_hop);
        let p = Packet::data(
            Network::node_addr(a, 1),
            Network::node_addr(d, 1),
            99,
            vec![0u8; 100],
        );
        net.inject(70_000_000, a, p);
        net.run_to_idle();
        assert!(net.stats.drops_link_down > 0, "{:?}", net.stats);
        // The post-repair packet made it.
        assert!(net.stats.delivered.iter().any(|r| r.packet_id == 99));
        assert!(net.stats.conservation_holds(net.in_flight_count()));
        assert_eq!(net.in_flight_count(), 0);
    }

    #[test]
    fn addr_node_mapping() {
        let net = fig1_net();
        assert_eq!(
            net.addr_node(Network::node_addr(NodeId(2), 5)),
            Some(NodeId(2))
        );
        assert_eq!(net.addr_node("11.0.0.1".parse().unwrap()), None);
        assert_eq!(net.addr_node("10.0.99.1".parse().unwrap()), None);
    }
}
