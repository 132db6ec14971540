//! Serving metrics: what makes a photonic accelerator comparable to a
//! digital inference stack.
//!
//! Collectors are exact (latencies kept as integer picoseconds, sorted at
//! report time) and the report serializes deterministically — a fixed
//! seed must yield byte-identical JSON, which the replay tests enforce.
//! Conservation is checked structurally: every arrival is completed,
//! shed (with a reason), or still in flight at the horizon; nothing is
//! silently dropped.

use crate::request::{Outcome, ShedReason, TenantId};
use crate::scheduler::PassEnergy;
use ofpc_telemetry::{labels, nearest_rank, Telemetry};
use serde::Serialize;
use std::collections::BTreeMap;

/// Per-tenant running counters.
#[derive(Debug, Clone, Default)]
pub(crate) struct TenantCollector {
    pub(crate) arrivals: u64,
    pub(crate) completed: u64,
    pub(crate) shed_queue_full: u64,
    pub(crate) shed_expired_queued: u64,
    pub(crate) shed_expired_serving: u64,
    pub(crate) shed_engine_failed: u64,
    /// Requests answered by the digital fallback (correct, degraded).
    pub(crate) degraded: u64,
    pub(crate) degraded_energy_j: f64,
    /// Completed-request latencies, ps, in completion order.
    latencies: Vec<u64>,
    /// Degraded (digital-fallback) latencies, ps.
    degraded_latencies: Vec<u64>,
    pub(crate) energy_j: f64,
    batch_size_sum: u64,
}

impl TenantCollector {
    fn record(&mut self, outcome: &Outcome) {
        match *outcome {
            Outcome::Completed {
                latency_ps,
                batch_size,
                energy_j,
            } => {
                self.completed += 1;
                self.latencies.push(latency_ps);
                self.energy_j += energy_j;
                self.batch_size_sum += u64::from(batch_size);
            }
            Outcome::Shed { reason } => match reason {
                ShedReason::QueueFull => self.shed_queue_full += 1,
                ShedReason::DeadlineExpiredQueued => self.shed_expired_queued += 1,
                ShedReason::DeadlineExpiredServing => self.shed_expired_serving += 1,
                ShedReason::EngineFailed => self.shed_engine_failed += 1,
            },
            Outcome::DegradedDigital {
                latency_ps,
                energy_j,
            } => {
                self.degraded += 1;
                self.degraded_latencies.push(latency_ps);
                self.degraded_energy_j += energy_j;
            }
        }
    }

    pub(crate) fn shed_total(&self) -> u64 {
        self.shed_queue_full
            + self.shed_expired_queued
            + self.shed_expired_serving
            + self.shed_engine_failed
    }
}

/// Exact percentile over integer latencies (nearest-rank).
fn percentile_ps(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(q, sorted.len() as u64) as usize - 1])
}

/// p50/p99/p999 of `samples` in µs, sorting them once.
fn latency_quantiles_us(mut samples: Vec<u64>) -> [Option<f64>; 3] {
    samples.sort_unstable();
    [0.50, 0.99, 0.999].map(|q| percentile_ps(&samples, q).map(|v| v as f64 / 1e6))
}

/// The metrics sink the runtime feeds: the one place a serving run
/// books its samples.
///
/// The collectors are exact (integer-ps latency vectors, per-stage
/// energy) and back [`MetricsSink::report`]. The registry view is
/// derived from them once, at the end of a run, by
/// [`MetricsSink::publish`] — so the JSON exporter sees the same counts
/// the report does without a second booking per sample.
#[derive(Debug)]
pub(crate) struct MetricsSink {
    tenants: Vec<TenantCollector>,
    /// Dispatched batch sizes (occupancy numerator/denominator).
    batch_sizes: Vec<u32>,
    /// Energy of the photonic passes, in the five fixed pass stages.
    pass_energy: PassEnergy,
    /// Energy of the stages outside a pass (parity reconstruction,
    /// digital fallback); never a pass stage, so merging the two never
    /// shadows one.
    energy_stages: BTreeMap<&'static str, f64>,
    /// Sampled verification results: |photonic − digital| per sample.
    pub(crate) verify_abs_errors: Vec<f64>,
}

impl MetricsSink {
    pub(crate) fn new(tenant_count: usize) -> Self {
        MetricsSink {
            tenants: vec![TenantCollector::default(); tenant_count],
            batch_sizes: Vec::new(),
            pass_energy: PassEnergy::default(),
            energy_stages: BTreeMap::new(),
            verify_abs_errors: Vec::new(),
        }
    }

    /// Publish the collectors onto `tel`'s registry as `serve_*`
    /// series: per tenant (labeled by `tenant_names`) the arrival,
    /// completion, per-reason shed and degraded counters, the
    /// completed-latency histogram and the energy gauge; run-wide the
    /// batch-size histogram and one energy gauge per stage. Samples are
    /// replayed in the order they were booked. No-op when `tel` is
    /// disabled.
    pub(crate) fn publish<'a>(
        &self,
        tel: &Telemetry,
        tenant_names: impl IntoIterator<Item = &'a str>,
    ) {
        if !tel.is_enabled() {
            return;
        }
        for (t, name) in self.tenants.iter().zip(tenant_names) {
            let l = labels(&[("tenant", name)]);
            tel.counter("serve_arrivals_total", &l).add(t.arrivals);
            tel.counter("serve_completed_total", &l).add(t.completed);
            for (reason, n) in [
                ("queue-full", t.shed_queue_full),
                ("expired-queued", t.shed_expired_queued),
                ("expired-serving", t.shed_expired_serving),
                ("engine-failed", t.shed_engine_failed),
            ] {
                tel.counter(
                    "serve_shed_total",
                    &labels(&[("tenant", name), ("reason", reason)]),
                )
                .add(n);
            }
            tel.counter("serve_degraded_total", &l).add(t.degraded);
            tel.record_histogram("serve_latency_ps", &l, t.latencies.iter().copied());
            tel.add_gauge("serve_energy_joules", &l, t.energy_j);
        }
        tel.record_histogram(
            "serve_batch_size",
            &Vec::new(),
            self.batch_sizes.iter().map(|&s| u64::from(s)),
        );
        for (stage, j) in self.stage_energy() {
            tel.add_gauge("serve_stage_energy_joules", &labels(&[("stage", stage)]), j);
        }
    }

    pub(crate) fn on_arrival(&mut self, tenant: TenantId) {
        self.tenants[tenant.0 as usize].arrivals += 1;
    }

    pub(crate) fn on_outcome(&mut self, tenant: TenantId, outcome: &Outcome) {
        self.tenants[tenant.0 as usize].record(outcome);
    }

    pub(crate) fn on_batch(&mut self, size: u32) {
        self.batch_sizes.push(size);
    }

    /// Book the energy a photonic pass burned.
    pub(crate) fn add_pass_energy(&mut self, energy: PassEnergy) {
        self.pass_energy.add(energy);
    }

    /// Book energy spent outside a photonic pass under `stage`.
    pub(crate) fn add_stage_energy(&mut self, stage: &'static str, joules: f64) {
        assert!(
            !PassEnergy::STAGES.contains(&stage),
            "{stage} is a pass stage; book it with add_pass_energy"
        );
        *self.energy_stages.entry(stage).or_insert(0.0) += joules;
    }

    /// Energy by stage, pass stages and the rest merged in label order.
    fn stage_energy(&self) -> BTreeMap<&'static str, f64> {
        let mut stages = self.energy_stages.clone();
        stages.extend(self.pass_energy.stages());
        stages
    }

    /// Build the final report. `unfinished` are requests still queued or
    /// in flight at the horizon; they must make conservation hold.
    pub(crate) fn report(&self, duration_s: f64, unfinished: u64, max_batch: usize) -> ServeReport {
        let mut tenants = Vec::new();
        for (i, t) in self.tenants.iter().enumerate() {
            let [p50, p99, p999] = latency_quantiles_us(t.latencies.clone());
            tenants.push(TenantReport {
                tenant: TenantId(i as u32),
                arrivals: t.arrivals,
                completed: t.completed,
                shed_queue_full: t.shed_queue_full,
                shed_expired_queued: t.shed_expired_queued,
                shed_expired_serving: t.shed_expired_serving,
                shed_engine_failed: t.shed_engine_failed,
                degraded: t.degraded,
                degraded_energy_j: t.degraded_energy_j,
                goodput_rps: t.completed as f64 / duration_s,
                p50_latency_us: p50,
                p99_latency_us: p99,
                p999_latency_us: p999,
                mean_batch_size: if t.completed > 0 {
                    t.batch_size_sum as f64 / t.completed as f64
                } else {
                    0.0
                },
                energy_j: t.energy_j,
                joules_per_request: if t.completed > 0 {
                    t.energy_j / t.completed as f64
                } else {
                    0.0
                },
            });
        }
        let total = |f: fn(&TenantCollector) -> u64| self.tenants.iter().map(f).sum::<u64>();
        let arrivals = total(|t| t.arrivals);
        let completed = total(|t| t.completed);
        let shed = total(TenantCollector::shed_total);
        let degraded = total(|t| t.degraded);
        assert_eq!(
            arrivals,
            completed + shed + degraded + unfinished,
            "request conservation violated"
        );
        let occupancy = if self.batch_sizes.is_empty() {
            0.0
        } else {
            self.batch_sizes.iter().map(|&s| s as f64).sum::<f64>()
                / (self.batch_sizes.len() * max_batch) as f64
        };
        let stages = self.stage_energy();
        let energy_total: f64 = stages.values().sum();
        let all_lat = self
            .tenants
            .iter()
            .flat_map(|t| t.latencies.iter().copied());
        let [p50, p99, p999] = latency_quantiles_us(all_lat.collect());
        let degraded_lat = self
            .tenants
            .iter()
            .flat_map(|t| t.degraded_latencies.iter().copied());
        let [_, degraded_p99, _] = latency_quantiles_us(degraded_lat.collect());
        ServeReport {
            duration_s,
            arrivals,
            completed,
            shed,
            degraded,
            unfinished,
            offered_rps: arrivals as f64 / duration_s,
            goodput_rps: completed as f64 / duration_s,
            shed_rate: if arrivals > 0 {
                shed as f64 / arrivals as f64
            } else {
                0.0
            },
            degraded_rate: if arrivals > 0 {
                degraded as f64 / arrivals as f64
            } else {
                0.0
            },
            degraded_p99_latency_us: degraded_p99,
            degraded_energy_j: self.tenants.iter().map(|t| t.degraded_energy_j).sum(),
            p50_latency_us: p50,
            p99_latency_us: p99,
            p999_latency_us: p999,
            batches: self.batch_sizes.len() as u64,
            mean_batch_occupancy: occupancy,
            energy_total_j: energy_total,
            joules_per_completed: if completed > 0 {
                energy_total / completed as f64
            } else {
                0.0
            },
            energy_stages_j: stages
                .into_iter()
                .map(|(stage, j)| (stage.to_string(), j))
                .collect(),
            verified_samples: self.verify_abs_errors.len() as u64,
            verify_mean_abs_error: if self.verify_abs_errors.is_empty() {
                0.0
            } else {
                self.verify_abs_errors.iter().sum::<f64>() / self.verify_abs_errors.len() as f64
            },
            tenants,
        }
    }
}

/// Per-tenant slice of the final report.
#[derive(Debug, Clone, Serialize)]
pub struct TenantReport {
    pub tenant: TenantId,
    pub arrivals: u64,
    pub completed: u64,
    pub shed_queue_full: u64,
    pub shed_expired_queued: u64,
    pub shed_expired_serving: u64,
    pub shed_engine_failed: u64,
    pub degraded: u64,
    pub(crate) degraded_energy_j: f64,
    pub goodput_rps: f64,
    pub p50_latency_us: Option<f64>,
    pub p99_latency_us: Option<f64>,
    pub p999_latency_us: Option<f64>,
    pub(crate) mean_batch_size: f64,
    pub energy_j: f64,
    pub(crate) joules_per_request: f64,
}

/// One serving run's summary, serialized for the bench harness.
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    pub(crate) duration_s: f64,
    pub arrivals: u64,
    pub completed: u64,
    pub shed: u64,
    /// Requests answered correctly by the digital fallback.
    pub degraded: u64,
    pub unfinished: u64,
    pub offered_rps: f64,
    pub goodput_rps: f64,
    pub shed_rate: f64,
    pub degraded_rate: f64,
    pub(crate) degraded_p99_latency_us: Option<f64>,
    pub degraded_energy_j: f64,
    pub p50_latency_us: Option<f64>,
    pub p99_latency_us: Option<f64>,
    pub p999_latency_us: Option<f64>,
    pub batches: u64,
    pub mean_batch_occupancy: f64,
    pub energy_total_j: f64,
    pub joules_per_completed: f64,
    pub energy_stages_j: BTreeMap<String, f64>,
    pub verified_samples: u64,
    pub verify_mean_abs_error: f64,
    pub tenants: Vec<TenantReport>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::BatchClass;
    use crate::scheduler::ServiceModel;
    use ofpc_engine::Primitive;
    use ofpc_transponder::compute::ComputeTransponderConfig;

    /// The energy of one `n`-request pass, cold (reconfiguring) or hot.
    fn pass(n: usize, cold: bool) -> PassEnergy {
        let model = ServiceModel::from_transponder(&ComputeTransponderConfig::ideal(), 4);
        let class = BatchClass {
            primitive: Primitive::VectorDotProduct,
            operand_len: 64,
        };
        model.batch_service(class, n, (!cold).then_some(class)).1
    }

    #[test]
    fn percentiles_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ps(&v, 0.50), Some(50));
        assert_eq!(percentile_ps(&v, 0.99), Some(99));
        assert_eq!(percentile_ps(&v, 0.999), Some(100));
        assert_eq!(percentile_ps(&[], 0.5), None);
        assert_eq!(percentile_ps(&[7], 0.999), Some(7));
    }

    #[test]
    fn conservation_and_rates() {
        let mut m = MetricsSink::new(2);
        for _ in 0..10 {
            m.on_arrival(TenantId(0));
        }
        for _ in 0..5 {
            m.on_arrival(TenantId(1));
        }
        for i in 0..8 {
            m.on_outcome(
                TenantId(0),
                &Outcome::Completed {
                    latency_ps: 1_000_000 * (i + 1),
                    batch_size: 4,
                    energy_j: 1e-9,
                },
            );
        }
        for _ in 0..2 {
            m.on_outcome(
                TenantId(0),
                &Outcome::Shed {
                    reason: ShedReason::QueueFull,
                },
            );
        }
        for _ in 0..5 {
            m.on_outcome(
                TenantId(1),
                &Outcome::Shed {
                    reason: ShedReason::DeadlineExpiredQueued,
                },
            );
        }
        m.on_batch(4);
        m.on_batch(2);
        m.add_pass_energy(pass(4, true));
        let r = m.report(1.0, 0, 4);
        assert_eq!(r.arrivals, 15);
        assert_eq!(r.completed, 8);
        assert_eq!(r.shed, 7);
        assert!((r.shed_rate - 7.0 / 15.0).abs() < 1e-12);
        assert_eq!(r.batches, 2);
        assert!((r.mean_batch_occupancy - 6.0 / 8.0).abs() < 1e-12);
        assert_eq!(r.tenants.len(), 2);
        assert_eq!(r.tenants[0].completed, 8);
        assert_eq!(r.tenants[1].shed_expired_queued, 5);
        assert!(r.tenants[0].p50_latency_us.is_some());
        assert!(r.tenants[1].p50_latency_us.is_none());
    }

    #[test]
    fn report_percentiles_are_exact_nearest_rank() {
        let mut m = MetricsSink::new(1);
        for i in 0..10_000u64 {
            m.on_arrival(TenantId(0));
            m.on_outcome(
                TenantId(0),
                &Outcome::Completed {
                    latency_ps: 10_000 - i,
                    batch_size: 1,
                    energy_j: 0.0,
                },
            );
        }
        let r = m.report(1.0, 0, 8);
        // Nearest-rank over 1..=10_000.
        assert_eq!(r.p50_latency_us, Some(5_000.0 / 1e6));
        assert_eq!(r.p99_latency_us, Some(9_900.0 / 1e6));
    }

    #[test]
    fn report_serializes_deterministically() {
        let build = || {
            let mut m = MetricsSink::new(1);
            m.on_arrival(TenantId(0));
            m.on_outcome(
                TenantId(0),
                &Outcome::Completed {
                    latency_ps: 123_456,
                    batch_size: 1,
                    energy_j: 3.25e-10,
                },
            );
            m.add_pass_energy(pass(1, false));
            m.add_stage_energy("digital-fallback", 2e-10);
            serde_json::to_string_pretty(&m.report(0.5, 0, 8)).unwrap()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn pass_stages_and_other_stages_merge_in_label_order() {
        let mut m = MetricsSink::new(1);
        let (cold, hot) = (pass(3, true), pass(2, false));
        m.add_pass_energy(cold);
        m.add_pass_energy(hot);
        m.add_stage_energy("parity-reconstruct", 1e-12);
        m.add_stage_energy("digital-fallback", 2e-12);
        m.add_stage_energy("digital-fallback", 3e-12);
        let r = m.report(1.0, 0, 4);
        let stages: Vec<(&str, f64)> = r
            .energy_stages_j
            .iter()
            .map(|(s, &j)| (s.as_str(), j))
            .collect();
        let booked = |stage: &str, e: PassEnergy| {
            e.stages()
                .find(|&(s, _)| s == stage)
                .map_or(0.0, |(_, j)| 0.0 + j)
        };
        let both = |stage: &str| booked(stage, cold) + booked(stage, hot);
        assert_eq!(
            stages,
            [
                ("digital-fallback", 0.0 + 2e-12 + 3e-12),
                ("laser-supply", both("laser-supply")),
                ("operand-dac", both("operand-dac")),
                ("parity-reconstruct", 1e-12),
                ("photonic-mac", both("photonic-mac")),
                // Only the cold pass reconfigured.
                ("reconfig-dac", booked("reconfig-dac", cold)),
                ("result-adc", both("result-adc")),
            ]
        );
        let label_order: f64 = stages.iter().map(|&(_, j)| j).sum();
        assert_eq!(r.energy_total_j.to_bits(), label_order.to_bits());
    }

    #[test]
    #[should_panic(expected = "photonic-mac is a pass stage")]
    fn a_pass_stage_is_never_booked_outside_a_pass() {
        MetricsSink::new(1).add_stage_energy("photonic-mac", 1e-12);
    }
}
