//! # ofpc-telemetry — the observability layer
//!
//! One handle, three facilities:
//!
//! * a metrics registry of counters, gauges, and log-linear histograms
//!   (p50/p99/p999), labeled by tenant/site/link/stage, with a JSON
//!   exporter;
//! * sim-time **tracing spans** recording enter/exit in virtual
//!   picoseconds, so one request's life — admission → queue → batch →
//!   fiber → engine → result — reconstructs as a trace tree, dumpable
//!   in Chrome `trace_event` JSON;
//! * **profiling hooks** in the layers a run attaches the handle to:
//!   the net-sim event loop, the serving runtime, the fault
//!   orchestrator, graph lowering and execution, the ingest front end
//!   and the sharded controller, all behind the zero-cost-when-disabled
//!   [`Telemetry`] handle.
//!
//! ## The handle
//!
//! [`Telemetry`] is a cheap `Clone` wrapper around
//! `Option<Arc<…>>`. [`Telemetry::disabled`] (also `Default`) carries
//! `None`: every operation is one branch on the option and no
//! allocation, so threading a disabled handle through the serve/net hot
//! paths leaves benches unaffected. [`Telemetry::enabled`] carries the
//! registry plus a trace buffer, each behind its own mutex. Each write
//! path matches its traffic: a per-event count goes through a
//! pre-registered [`Counter`] (a lock-free atomic; the no-op variant is
//! one branch), a gauge or histogram is written once per series when a
//! run publishes its totals ([`Telemetry::add_gauge`],
//! [`Telemetry::record_histogram`]), and each trace call pushes its
//! events straight into the buffer, borrowing their literal names.
//!
//! Everything exported is deterministic: series are sorted by
//! `(name, labels)`, trace events by `(pid, tid, ts)` with stable
//! emission order, so a seeded run reproduces its trace and snapshot
//! byte-for-byte.

pub mod registry;
pub mod trace;

pub use registry::{labels, nearest_rank, Counter, LogHistogram, MetricsSnapshot};
pub use trace::{chrome_trace_json, track, validate_balanced, Phase};

use registry::{Labels, Registry};
use std::borrow::Cow;
use std::sync::{Arc, Mutex};
use trace::TraceEvent;

/// A lock is poisoned only when an earlier write panicked halfway, so
/// nothing the handle holds can be trusted afterwards.
const POISONED: &str = "a telemetry write panicked while holding the lock";

#[derive(Debug, Default)]
struct TelemetryInner {
    registry: Mutex<Registry>,
    trace: Mutex<Vec<TraceEvent>>,
}

/// The one handle the rest of the stack carries. Disabled by default;
/// every emit site guards on the inner `Option`, so the disabled cost
/// is a branch.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
}

impl Telemetry {
    /// A disconnected handle: every operation is a no-op.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A live handle with a fresh registry and trace buffer. Clones
    /// share both.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::default()),
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    // -- metrics ----------------------------------------------------------

    /// Register (or look up) a counter; a no-op handle when disabled.
    pub fn counter(&self, name: &str, labels: &Labels) -> Counter {
        match &self.inner {
            Some(i) => i.registry.lock().expect(POISONED).counter(name, labels),
            None => Counter::noop(),
        }
    }

    /// Add `dv` to a gauge series, created at 0.0 on first write.
    pub fn add_gauge(&self, name: &str, labels: &Labels, dv: f64) {
        if let Some(i) = &self.inner {
            i.registry
                .lock()
                .expect(POISONED)
                .add_gauge(name, labels, dv);
        }
    }

    /// Record `samples`, in order, into a histogram series. The series
    /// exists once written, even with no samples.
    pub fn record_histogram(
        &self,
        name: &str,
        labels: &Labels,
        samples: impl IntoIterator<Item = u64>,
    ) {
        if let Some(i) = &self.inner {
            i.registry
                .lock()
                .expect(POISONED)
                .record_histogram(name, labels, samples);
        }
    }

    /// Deterministic snapshot of every registered series (empty when
    /// disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(i) => i.registry.lock().expect(POISONED).snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// JSON form of [`Telemetry::snapshot`].
    pub fn metrics_json(&self) -> String {
        serde_json::to_string_pretty(&self.snapshot()).expect("snapshot serializes")
    }

    // -- tracing ----------------------------------------------------------

    /// Append the event `make` builds; it is built only when the handle
    /// is enabled.
    #[inline]
    fn push(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(i) = &self.inner {
            i.trace.lock().expect(POISONED).push(make());
        }
    }

    /// Emit a complete `[start_ps, end_ps]` span as a `B`/`E` pair
    /// (`end_ps` clamped up to `start_ps`).
    #[inline]
    pub fn span(
        &self,
        pid: u32,
        tid: u64,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        start_ps: u64,
        end_ps: u64,
    ) {
        if self.is_enabled() {
            let name = name.into();
            self.begin(pid, tid, cat, name.clone(), start_ps, Vec::new());
            self.end(pid, tid, cat, name, end_ps.max(start_ps));
        }
    }

    /// Open a span carrying `key=value` annotations. The matching
    /// [`Telemetry::end`] must be emitted after every child event that
    /// shares its end timestamp, so same-tick ties sort child-closes
    /// before the parent's close.
    #[inline]
    pub fn begin(
        &self,
        pid: u32,
        tid: u64,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        ts_ps: u64,
        args: Vec<(&'static str, String)>,
    ) {
        self.push(|| TraceEvent {
            name: name.into(),
            cat,
            phase: Phase::B,
            ts_ps,
            pid,
            tid,
            args,
        });
    }

    /// Close the most recent open span of `name` on the track.
    #[inline]
    pub fn end(
        &self,
        pid: u32,
        tid: u64,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        ts_ps: u64,
    ) {
        self.push(|| TraceEvent {
            name: name.into(),
            cat,
            phase: Phase::E,
            ts_ps,
            pid,
            tid,
            args: Vec::new(),
        });
    }

    /// Emit an instant event (faults, sheds, state flips).
    #[inline]
    pub fn instant(
        &self,
        pid: u32,
        tid: u64,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        ts_ps: u64,
        args: Vec<(&'static str, String)>,
    ) {
        self.push(|| TraceEvent {
            name: name.into(),
            cat,
            phase: Phase::I,
            ts_ps,
            pid,
            tid,
            args,
        });
    }

    /// The trace in export order (empty when disabled): sorted by
    /// `(pid, tid, ts)`, stably, so same-tick events keep emission
    /// order and a zero-length span keeps its `B` before its `E`.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        let Some(i) = &self.inner else {
            return Vec::new();
        };
        let mut events = i.trace.lock().expect(POISONED).clone();
        events.sort_by_key(|e| (e.pid, e.tid, e.ts_ps));
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.counter("x_total", &Labels::new()).inc();
        tel.add_gauge("e_joules", &Labels::new(), 1.0);
        tel.record_histogram("lat", &Labels::new(), [1, 2, 3]);
        tel.span(track::REQUESTS, 1, "serve", "request", 0, 10);
        assert!(tel.trace_events().is_empty());
        assert_eq!(tel.snapshot(), MetricsSnapshot::default());
        assert_eq!(chrome_trace_json(&tel.trace_events()), "[\n]");
    }

    #[test]
    fn clones_share_state() {
        let tel = Telemetry::enabled();
        let c = tel.counter("x_total", &Labels::new());
        let tel2 = tel.clone();
        tel2.counter("x_total", &Labels::new()).add(5);
        c.inc();
        assert_eq!(tel.snapshot().counter("x_total", &Labels::new()), Some(6));
        tel2.span(track::NET, 3, "span", "tx.dac", 100, 200);
        assert_eq!(tel.trace_events().len(), 2);
        assert!(validate_balanced(&tel.trace_events()).is_ok());
    }

    #[test]
    fn begin_args_annotate_only_the_begin_event() {
        let tel = Telemetry::enabled();
        let args = vec![("size", 4.to_string()), ("tenant", 1.to_string())];
        tel.begin(track::SITES, 9, "span", "serve.batch", 10, args);
        tel.end(track::SITES, 9, "span", "serve.batch", 20);
        let evs = tel.trace_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].args.len(), 2);
        assert!(evs[1].args.is_empty());
    }

    #[test]
    fn a_run_time_name_is_owned_and_a_literal_is_borrowed() {
        let tel = Telemetry::enabled();
        tel.span(track::SHARD, 0, "shard", format!("replan r{}", 3), 0, 1);
        tel.instant(
            track::SHARD,
            0,
            "shard",
            "boundary_reconcile",
            1,
            Vec::new(),
        );
        let evs = tel.trace_events();
        assert!(evs[..2]
            .iter()
            .all(|e| matches!(&e.name, Cow::Owned(n) if n == "replan r3")));
        assert!(matches!(evs[2].name, Cow::Borrowed("boundary_reconcile")));
    }
}
