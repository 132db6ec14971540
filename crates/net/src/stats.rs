//! Measurement collectors.
//!
//! Per-packet delivery records, latency percentiles, throughput, and a
//! tiny histogram type the experiment harnesses print. All pure data —
//! the simulator feeds records in, experiments read summaries out.

use crate::pch::ResultStatus;

/// One delivered packet's record.
#[derive(Debug, Clone, Copy)]
pub struct DeliveryRecord {
    pub packet_id: u32,
    pub(crate) created_ps: u64,
    pub delivered_ps: u64,
    pub hops: u32,
    /// Whether a photonic engine executed this packet's operation.
    pub computed: bool,
    /// Result status from the PCH flags (`Ok` for plain traffic) — lets
    /// the receiver tell a skipped-by-unhealthy-engine pass-through from
    /// a valid result.
    pub status: ResultStatus,
    pub(crate) wire_bytes: usize,
}

impl DeliveryRecord {
    pub(crate) fn latency_ps(&self) -> u64 {
        self.delivered_ps.saturating_sub(self.created_ps)
    }

    pub fn latency_ms(&self) -> f64 {
        self.latency_ps() as f64 / 1e9
    }
}

/// Why the simulator dropped a packet. Every drop is attributed to
/// exactly one reason so packet conservation
/// (`injected = delivered + dropped + in-flight`) is checkable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Egress queue was full (drop-tail).
    QueueFull,
    /// TTL reached zero (routing loop or path too long).
    TtlExpired,
    /// No forwarding entry (or a null next hop) for the destination.
    NoRoute,
    /// The packet hit a downed link — loss of light on a cut fiber.
    LinkDown,
}

/// Collected simulation statistics.
#[derive(Debug, Clone, Default)]
pub struct StatsCollector {
    pub delivered: Vec<DeliveryRecord>,
    /// Packets handed to the simulator via `inject` (the conservation
    /// baseline).
    pub injected: u64,
    pub(crate) drops_queue: u64,
    pub(crate) drops_ttl: u64,
    pub(crate) drops_no_route: u64,
    /// Packets lost to a cut fiber (queued on, in flight over, or routed
    /// at a downed link).
    pub(crate) drops_link_down: u64,
}

impl StatsCollector {
    pub(crate) fn new() -> Self {
        StatsCollector::default()
    }

    /// Attribute one drop to `reason`.
    pub(crate) fn record_drop(&mut self, reason: DropReason) {
        match reason {
            DropReason::QueueFull => self.drops_queue += 1,
            DropReason::TtlExpired => self.drops_ttl += 1,
            DropReason::NoRoute => self.drops_no_route += 1,
            DropReason::LinkDown => self.drops_link_down += 1,
        }
    }

    /// Drop count for one reason.
    pub fn drop_count(&self, reason: DropReason) -> u64 {
        match reason {
            DropReason::QueueFull => self.drops_queue,
            DropReason::TtlExpired => self.drops_ttl,
            DropReason::NoRoute => self.drops_no_route,
            DropReason::LinkDown => self.drops_link_down,
        }
    }

    /// Packet conservation: every injected packet is delivered, dropped
    /// (with a reason), or still in flight. `in_flight` comes from the
    /// simulator's live bookkeeping.
    pub fn conservation_holds(&self, in_flight: usize) -> bool {
        self.injected == self.delivered.len() as u64 + self.total_drops() + in_flight as u64
    }

    pub(crate) fn record_delivery(&mut self, record: DeliveryRecord) {
        self.delivered.push(record);
    }

    pub fn delivered_count(&self) -> usize {
        self.delivered.len()
    }

    pub fn computed_count(&self) -> usize {
        self.delivered.iter().filter(|r| r.computed).count()
    }

    /// Latency percentile in milliseconds over delivered packets.
    /// `q` in `[0, 1]`. Returns `None` when nothing was delivered.
    pub fn latency_percentile_ms(&self, q: f64) -> Option<f64> {
        percentile(self.delivered.iter().map(|r| r.latency_ms()).collect(), q)
    }

    pub fn mean_latency_ms(&self) -> Option<f64> {
        if self.delivered.is_empty() {
            return None;
        }
        Some(
            self.delivered.iter().map(|r| r.latency_ms()).sum::<f64>()
                / self.delivered.len() as f64,
        )
    }

    /// Delivered goodput over the interval spanned by deliveries, bits/s.
    pub fn goodput_bps(&self) -> f64 {
        if self.delivered.len() < 2 {
            return 0.0;
        }
        let first = self.delivered.iter().map(|r| r.created_ps).min().unwrap();
        let last = self.delivered.iter().map(|r| r.delivered_ps).max().unwrap();
        let seconds = (last - first) as f64 / 1e12;
        if seconds <= 0.0 {
            return 0.0;
        }
        let bits: usize = self.delivered.iter().map(|r| r.wire_bytes * 8).sum();
        bits as f64 / seconds
    }

    pub fn total_drops(&self) -> u64 {
        self.drops_queue + self.drops_ttl + self.drops_no_route + self.drops_link_down
    }
}

/// Percentile of a sample set (linear interpolation between ranks).
pub fn percentile(mut values: Vec<f64>, q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    assert!((0.0..=1.0).contains(&q), "percentile q must be in [0,1]");
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(values[lo])
    } else {
        let t = pos - lo as f64;
        Some(values[lo] * (1.0 - t) + values[hi] * t)
    }
}

/// Jain's fairness index over per-flow allocations: `(Σx)² / (n·Σx²)`.
/// 1.0 = perfectly fair. Used by the bandwidth-sharing experiment E8.
pub fn jain_fairness(allocations: &[f64]) -> f64 {
    if allocations.is_empty() {
        return 1.0;
    }
    let sum: f64 = allocations.iter().sum();
    let sum_sq: f64 = allocations.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (allocations.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, created: u64, delivered: u64) -> DeliveryRecord {
        DeliveryRecord {
            packet_id: id,
            created_ps: created,
            delivered_ps: delivered,
            hops: 2,
            computed: id.is_multiple_of(2),
            status: ResultStatus::Ok,
            wire_bytes: 100,
        }
    }

    #[test]
    fn latency_math() {
        let r = rec(1, 1_000_000, 3_000_000);
        assert_eq!(r.latency_ps(), 2_000_000);
        assert!((r.latency_ms() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn percentiles() {
        let values = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(values.clone(), 0.0), Some(1.0));
        assert_eq!(percentile(values.clone(), 1.0), Some(5.0));
        assert_eq!(percentile(values.clone(), 0.5), Some(3.0));
        assert_eq!(percentile(values, 0.25), Some(2.0));
        assert_eq!(percentile(vec![], 0.5), None);
    }

    #[test]
    #[should_panic(expected = "in [0,1]")]
    fn bad_percentile_panics() {
        percentile(vec![1.0], 1.5);
    }

    #[test]
    fn collector_summaries() {
        let mut c = StatsCollector::new();
        for i in 0..10u32 {
            c.record_delivery(rec(i, 0, (i as u64 + 1) * 1_000_000_000));
        }
        assert_eq!(c.delivered_count(), 10);
        assert_eq!(c.computed_count(), 5);
        assert!(c.mean_latency_ms().unwrap() > 0.0);
        assert!(c.latency_percentile_ms(0.99).unwrap() >= c.latency_percentile_ms(0.5).unwrap());
        assert!(c.goodput_bps() > 0.0);
        assert_eq!(c.total_drops(), 0);
    }

    #[test]
    fn empty_collector_is_well_behaved() {
        let c = StatsCollector::new();
        assert_eq!(c.mean_latency_ms(), None);
        assert_eq!(c.latency_percentile_ms(0.5), None);
        assert_eq!(c.goodput_bps(), 0.0);
    }

    #[test]
    fn drop_reasons_are_attributed_and_conserved() {
        let mut c = StatsCollector::new();
        c.injected = 7;
        c.record_delivery(rec(0, 0, 10));
        c.record_delivery(rec(1, 0, 20));
        c.record_drop(DropReason::QueueFull);
        c.record_drop(DropReason::TtlExpired);
        c.record_drop(DropReason::NoRoute);
        c.record_drop(DropReason::LinkDown);
        for r in [
            DropReason::QueueFull,
            DropReason::TtlExpired,
            DropReason::NoRoute,
            DropReason::LinkDown,
        ] {
            assert_eq!(c.drop_count(r), 1, "{r:?}");
        }
        assert_eq!(c.total_drops(), 4);
        // 7 injected = 2 delivered + 4 dropped + 1 in flight.
        assert!(c.conservation_holds(1));
        assert!(!c.conservation_holds(0));
    }

    #[test]
    fn jain_index_extremes() {
        assert!((jain_fairness(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        // One user hogging everything among n: index = 1/n.
        let idx = jain_fairness(&[1.0, 0.0, 0.0, 0.0]);
        assert!((idx - 0.25).abs() < 1e-12);
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
    }
}
