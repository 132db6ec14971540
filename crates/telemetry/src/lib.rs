//! # ofpc-telemetry — the observability layer
//!
//! One handle, three facilities:
//!
//! * a [`MetricsRegistry`] of typed counters, gauges, and log-linear
//!   histograms (p50/p99/p999), labeled by tenant/site/link/stage, with
//!   Prometheus-text and JSON exporters;
//! * sim-time **tracing spans** recording enter/exit in virtual
//!   picoseconds, so one request's life — admission → queue → batch →
//!   fiber → engine → result — reconstructs as a trace tree, dumpable
//!   in Chrome `trace_event` JSON;
//! * **profiling hooks** in the hot paths (net-sim event loop,
//!   transponder TX/RX, engine MVM, serve dispatch) behind the
//!   zero-cost-when-disabled [`Telemetry`] handle.
//!
//! ## The handle
//!
//! [`Telemetry`] is a cheap `Clone` wrapper around
//! `Option<Arc<…>>`. [`Telemetry::disabled`] (also `Default`) carries
//! `None`: every operation is one branch on the option and no
//! allocation, so threading a disabled handle through the serve/net hot
//! paths leaves benches unaffected. [`Telemetry::enabled`] carries the
//! registry plus a trace buffer. Subsystems either take the handle and
//! emit through it, or pre-register typed handles ([`Counter`],
//! [`Histogram`], …) at setup time — those are lock-free atomics on the
//! sample path, and their no-op variants are likewise a single branch.
//!
//! Everything exported is deterministic: series are sorted by
//! `(name, labels)`, trace events by `(pid, tid, ts)` with stable
//! emission order, so a seeded run reproduces its trace and snapshot
//! byte-for-byte.

pub mod registry;
pub mod trace;

pub use registry::{
    labels, nearest_rank, Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram,
    HistogramSnapshot, Labels, LogHistogram, MetricsRegistry, MetricsSnapshot,
};
pub use trace::{chrome_trace_json, track, validate_balanced, Phase, TraceBuffer, TraceEvent};

use std::sync::{Arc, Mutex};

#[derive(Debug)]
struct TelemetryInner {
    registry: MetricsRegistry,
    trace: Mutex<TraceBuffer>,
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
            inner: Some(Arc::new(TelemetryInner {
                registry: MetricsRegistry::new(),
                trace: Mutex::new(TraceBuffer::new()),
            })),
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
            Some(i) => i.registry.counter(name, labels),
            None => Counter::noop(),
        }
    }

    /// Register (or look up) a gauge; a no-op handle when disabled.
    pub fn gauge(&self, name: &str, labels: &Labels) -> Gauge {
        match &self.inner {
            Some(i) => i.registry.gauge(name, labels),
            None => Gauge::noop(),
        }
    }

    /// Register (or look up) a histogram; a no-op handle when disabled.
    pub fn histogram(&self, name: &str, labels: &Labels) -> Histogram {
        match &self.inner {
            Some(i) => i.registry.histogram(name, labels),
            None => Histogram::noop(),
        }
    }

    /// Deterministic snapshot of every registered series (empty when
    /// disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(i) => i.registry.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Prometheus text exposition (empty when disabled).
    pub fn prometheus_text(&self) -> String {
        match &self.inner {
            Some(i) => i.registry.prometheus_text(),
            None => String::new(),
        }
    }

    /// JSON form of [`Telemetry::snapshot`].
    pub fn metrics_json(&self) -> String {
        serde_json::to_string_pretty(&self.snapshot()).expect("snapshot serializes")
    }

    // -- tracing ----------------------------------------------------------

    /// Emit a complete `[start_ps, end_ps]` span as a `B`/`E` pair.
    #[inline]
    pub fn span(&self, pid: u32, tid: u64, cat: &str, name: &str, start_ps: u64, end_ps: u64) {
        if let Some(i) = &self.inner {
            i.trace
                .lock()
                .unwrap()
                .span(pid, tid, cat, name, start_ps, end_ps);
        }
    }

    /// [`Telemetry::span`] with `key=value` annotations on the begin
    /// event.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn span_args(
        &self,
        pid: u32,
        tid: u64,
        cat: &str,
        name: &str,
        start_ps: u64,
        end_ps: u64,
        args: Vec<(String, String)>,
    ) {
        if let Some(i) = &self.inner {
            i.trace
                .lock()
                .unwrap()
                .span_args(pid, tid, cat, name, start_ps, end_ps, args);
        }
    }

    /// Open a span whose end is emitted separately (see
    /// [`TraceBuffer::begin`] for the ordering contract).
    #[inline]
    pub fn begin(
        &self,
        pid: u32,
        tid: u64,
        cat: &str,
        name: &str,
        ts_ps: u64,
        args: Vec<(String, String)>,
    ) {
        if let Some(i) = &self.inner {
            i.trace
                .lock()
                .unwrap()
                .begin(pid, tid, cat, name, ts_ps, args);
        }
    }

    /// Close the most recent open span of `name` on the track.
    #[inline]
    pub fn end(&self, pid: u32, tid: u64, cat: &str, name: &str, ts_ps: u64) {
        if let Some(i) = &self.inner {
            i.trace.lock().unwrap().end(pid, tid, cat, name, ts_ps);
        }
    }

    /// Emit an instant event (faults, sheds, state flips).
    #[inline]
    pub fn instant(
        &self,
        pid: u32,
        tid: u64,
        cat: &str,
        name: &str,
        ts_ps: u64,
        args: Vec<(String, String)>,
    ) {
        if let Some(i) = &self.inner {
            i.trace
                .lock()
                .unwrap()
                .instant(pid, tid, cat, name, ts_ps, args);
        }
    }

    /// Number of buffered trace events.
    pub fn trace_len(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |i| i.trace.lock().unwrap().len())
    }

    /// Export-ordered copy of the trace buffer (empty when disabled).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.trace.lock().unwrap().sorted_events())
    }

    /// Chrome-trace JSON dump of [`Telemetry::trace_events`].
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_json(&self.trace_events())
    }
}

/// Emit a sim-time span through a [`Telemetry`] handle:
///
/// ```
/// use ofpc_telemetry::{span, track, Telemetry};
/// let tel = Telemetry::enabled();
/// span!(tel, track::SITES, 65, "tx.dac", 1_000, 2_000);
/// span!(tel, track::SITES, 65, "serve.batch", 2_000, 9_000; "size" => "4");
/// assert_eq!(tel.trace_len(), 4);
/// ```
#[macro_export]
macro_rules! span {
    ($tel:expr, $pid:expr, $tid:expr, $name:expr, $start:expr, $end:expr) => {
        $tel.span($pid, $tid, "span", $name, $start, $end)
    };
    ($tel:expr, $pid:expr, $tid:expr, $name:expr, $start:expr, $end:expr; $($k:expr => $v:expr),+) => {
        $tel.span_args(
            $pid,
            $tid,
            "span",
            $name,
            $start,
            $end,
            vec![$(($k.to_string(), $v.to_string())),+],
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.counter("x_total", &Labels::new()).inc();
        tel.span(track::REQUESTS, 1, "serve", "request", 0, 10);
        assert_eq!(tel.trace_len(), 0);
        assert_eq!(tel.snapshot(), MetricsSnapshot::default());
        assert_eq!(tel.prometheus_text(), "");
        assert_eq!(tel.chrome_trace_json(), "[\n]");
    }

    #[test]
    fn clones_share_state() {
        let tel = Telemetry::enabled();
        let c = tel.counter("x_total", &Labels::new());
        let tel2 = tel.clone();
        tel2.counter("x_total", &Labels::new()).add(5);
        c.inc();
        assert_eq!(tel.snapshot().counter("x_total", &Labels::new()), Some(6));
        span!(tel2, track::NET, 3, "tx.dac", 100, 200);
        assert_eq!(tel.trace_len(), 2);
        assert!(validate_balanced(&tel.trace_events()).is_ok());
    }

    #[test]
    fn span_macro_with_args_annotates_begin_event() {
        let tel = Telemetry::enabled();
        span!(tel, track::SITES, 9, "serve.batch", 10, 20; "size" => 4, "tenant" => 1);
        let evs = tel.trace_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].args.len(), 2);
        assert!(evs[1].args.is_empty());
    }
}
