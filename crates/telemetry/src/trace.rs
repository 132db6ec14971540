//! Sim-time tracing: begin/end spans and instant events recorded in
//! **virtual** picoseconds, dumped in Chrome Trace Event Format
//! (`chrome://tracing` / Perfetto "JSON Array Format").
//!
//! Because the simulator computes an event's end time rather than
//! waiting for it, spans are not RAII drop-guards: callers emit a
//! `B`/`E` pair explicitly (usually via `TraceBuffer::span`, which
//! pushes both at once from known start/end timestamps). Events carry a
//! `(pid, tid)` track: `pid` groups a subsystem (requests, sites, net,
//! recovery), `tid` an entity within it (request id, `node*64+slot`,
//! link id). The dump sorts by `(pid, tid, ts)` — stably, so same-tick
//! begin/end pairs keep emission order — which makes per-track `B`/`E`
//! nesting validatable ([`validate_balanced`]) and the file
//! byte-deterministic for a deterministic run.

use std::fmt::Write as _;

/// Track groups (`pid` in the Chrome trace). Every track is timed in
/// virtual picoseconds except [`track::SHARD`], the one ordinal track,
/// whose timestamps are decision sequence numbers. Ids are fixed; 5 is
/// unused.
pub mod track {
    /// Per-request lifecycle spans (`tid` = request id).
    pub const REQUESTS: u32 = 1;
    /// Per-engine-slot service spans (`tid` = node·64 + slot).
    pub const SITES: u32 = 2;
    /// Network / link / engine-health events (`tid` = link or node id).
    pub const NET: u32 = 3;
    /// Recovery-stage spans (`tid` = fault sequence number).
    pub const RECOVERY: u32 = 4;
    /// Compiled-graph stage execution spans (`tid` = request index).
    pub const GRAPH: u32 = 6;
    /// Design-space-exploration decisions: lowering's hardware-variant
    /// bindings and sweep-point evaluations (`tid` = stage or point
    /// index).
    pub const DSE: u32 = 7;
    /// Resilience decisions: redundancy-set lifecycle, duplicate
    /// cancellation, parity reconstruction, and protection-fallback
    /// warnings (`tid` = redundancy set id).
    pub const RESIL: u32 = 8;
    /// Sharded-controller solves: per-shard re-plan spans and boundary
    /// reconciliation instants (`tid` = shard/region id; timestamps are
    /// decision sequence numbers, not picoseconds — emitted post-solve
    /// in shard order, so the trace never depends on worker count).
    pub const SHARD: u32 = 9;
    /// Ingest front-end: per-shard epoch spans and rebalance instants
    /// (`tid` = ingest shard id; ps timestamps, emitted by the
    /// sequential driver after each epoch gather in shard order, so the
    /// trace never depends on worker count).
    pub const INGEST: u32 = 10;
}

/// Event phase: duration begin/end or instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Phase {
    B,
    E,
    I,
}

impl Phase {
    fn ph(self) -> char {
        match self {
            Phase::B => 'B',
            Phase::E => 'E',
            Phase::I => 'i',
        }
    }
}

/// One trace event in virtual time.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub name: String,
    pub(crate) cat: String,
    pub phase: Phase,
    pub(crate) ts_ps: u64,
    pub pid: u32,
    pub(crate) tid: u64,
    /// Free-form `key=value` annotations (serialized into `args`).
    pub args: Vec<(String, String)>,
}

/// Append-only event buffer behind the `Telemetry` handle's mutex.
#[derive(Debug, Default)]
pub(crate) struct TraceBuffer {
    events: Vec<TraceEvent>,
}

impl TraceBuffer {
    pub(crate) fn new() -> Self {
        TraceBuffer::default()
    }

    /// Emit a complete `[start_ps, end_ps]` span as a `B`/`E` pair.
    pub(crate) fn span(
        &mut self,
        pid: u32,
        tid: u64,
        cat: &str,
        name: &str,
        start_ps: u64,
        end_ps: u64,
    ) {
        self.span_args(pid, tid, cat, name, start_ps, end_ps, Vec::new());
    }

    /// [`TraceBuffer::span`] with annotations attached to the `B` event.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn span_args(
        &mut self,
        pid: u32,
        tid: u64,
        cat: &str,
        name: &str,
        start_ps: u64,
        end_ps: u64,
        args: Vec<(String, String)>,
    ) {
        let end_ps = end_ps.max(start_ps);
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            phase: Phase::B,
            ts_ps: start_ps,
            pid,
            tid,
            args,
        });
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            phase: Phase::E,
            ts_ps: end_ps,
            pid,
            tid,
            args: Vec::new(),
        });
    }

    /// Open a span. The matching [`TraceBuffer::end`] must be emitted
    /// after every child event that shares its end timestamp, so
    /// same-tick ties sort child-closes before the parent's close.
    pub(crate) fn begin(
        &mut self,
        pid: u32,
        tid: u64,
        cat: &str,
        name: &str,
        ts_ps: u64,
        args: Vec<(String, String)>,
    ) {
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            phase: Phase::B,
            ts_ps,
            pid,
            tid,
            args,
        });
    }

    /// Close the most recent open span of `name` on the track.
    pub(crate) fn end(&mut self, pid: u32, tid: u64, cat: &str, name: &str, ts_ps: u64) {
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            phase: Phase::E,
            ts_ps,
            pid,
            tid,
            args: Vec::new(),
        });
    }

    /// Emit an instant event.
    pub(crate) fn instant(
        &mut self,
        pid: u32,
        tid: u64,
        cat: &str,
        name: &str,
        ts_ps: u64,
        args: Vec<(String, String)>,
    ) {
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            phase: Phase::I,
            ts_ps,
            pid,
            tid,
            args,
        });
    }

    /// Events sorted for export: by `(pid, tid, ts)`, stable so that
    /// zero-length spans keep their `B` before their `E`.
    pub(crate) fn sorted_events(&self) -> Vec<TraceEvent> {
        let mut evs = self.events.clone();
        evs.sort_by_key(|a| (a.pid, a.tid, a.ts_ps));
        evs
    }
}

/// Render events as a Chrome-trace JSON array (`ts` in microseconds,
/// fractional; `chrome://tracing` and Perfetto load this directly).
pub(crate) fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("[\n");
    for (i, ev) in events.iter().enumerate() {
        let ts_us = ev.ts_ps as f64 / 1e6;
        let mut args = String::new();
        for (j, (k, v)) in ev.args.iter().enumerate() {
            if j > 0 {
                args.push(',');
            }
            let mut key = String::new();
            serde::escape_json(k, &mut key);
            let mut val = String::new();
            serde::escape_json(v, &mut val);
            let _ = write!(args, "\"{key}\":\"{val}\"");
        }
        let mut name = String::new();
        serde::escape_json(&ev.name, &mut name);
        let mut cat = String::new();
        serde::escape_json(&ev.cat, &mut cat);
        let _ = write!(
            out,
            "  {{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{},\"args\":{{{args}}}}}",
            ev.phase.ph(),
            serde::format_f64(ts_us),
            ev.pid,
            ev.tid,
        );
        out.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

/// Check that every track's `B`/`E` events nest properly (a stack
/// discipline: each `E` closes the most recent open `B` of the same
/// name, and nothing is left open). Returns the number of complete
/// spans, or a description of the first violation.
///
/// Expects events in export order (`TraceBuffer::sorted_events`).
pub fn validate_balanced(events: &[TraceEvent]) -> Result<usize, String> {
    let mut spans = 0usize;
    let mut stack: Vec<(&str, u32, u64)> = Vec::new();
    let mut cur: Option<(u32, u64)> = None;
    for ev in events {
        let track = (ev.pid, ev.tid);
        if cur != Some(track) {
            if let Some((name, pid, tid)) = stack.first() {
                return Err(format!("span '{name}' left open on track ({pid},{tid})"));
            }
            stack.clear();
            cur = Some(track);
        }
        match ev.phase {
            Phase::B => stack.push((&ev.name, ev.pid, ev.tid)),
            Phase::E => match stack.pop() {
                Some((name, _, _)) if name == ev.name => spans += 1,
                Some((name, _, _)) => {
                    return Err(format!(
                        "end '{}' does not match open span '{name}' on track ({},{}) at {} ps",
                        ev.name, ev.pid, ev.tid, ev.ts_ps
                    ));
                }
                None => {
                    return Err(format!(
                        "end '{}' with no open span on track ({},{}) at {} ps",
                        ev.name, ev.pid, ev.tid, ev.ts_ps
                    ));
                }
            },
            Phase::I => {}
        }
    }
    if let Some((name, pid, tid)) = stack.first() {
        return Err(format!("span '{name}' left open on track ({pid},{tid})"));
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_pairs_balance() {
        let mut buf = TraceBuffer::new();
        buf.span(track::REQUESTS, 7, "serve", "request", 100, 900);
        buf.span(track::REQUESTS, 7, "serve", "serve.queue", 100, 300);
        buf.span(track::REQUESTS, 7, "serve", "engine.mvm", 300, 800);
        buf.instant(track::NET, 1, "fault", "link.down", 500, Vec::new());
        let evs = buf.sorted_events();
        assert_eq!(validate_balanced(&evs), Ok(3));
    }

    #[test]
    fn mismatched_end_is_rejected() {
        let evs = vec![
            TraceEvent {
                name: "a".into(),
                cat: "c".into(),
                phase: Phase::B,
                ts_ps: 0,
                pid: 1,
                tid: 1,
                args: Vec::new(),
            },
            TraceEvent {
                name: "b".into(),
                cat: "c".into(),
                phase: Phase::E,
                ts_ps: 5,
                pid: 1,
                tid: 1,
                args: Vec::new(),
            },
        ];
        assert!(validate_balanced(&evs).is_err());
    }

    #[test]
    fn unclosed_span_is_rejected() {
        let evs = vec![TraceEvent {
            name: "a".into(),
            cat: "c".into(),
            phase: Phase::B,
            ts_ps: 0,
            pid: 1,
            tid: 1,
            args: Vec::new(),
        }];
        assert!(validate_balanced(&evs).is_err());
    }

    #[test]
    fn chrome_json_is_a_valid_array_with_us_timestamps() {
        let mut buf = TraceBuffer::new();
        buf.span_args(
            track::SITES,
            65,
            "serve",
            "engine.batch",
            2_000_000,
            3_500_000,
            vec![("size".into(), "4".into())],
        );
        let json = chrome_trace_json(&buf.sorted_events());
        let v = serde_json::from_str(&json).expect("parses");
        let arr = v.as_seq().expect("array");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("ph").unwrap().as_str(), Some("B"));
        assert_eq!(arr[0].get("ts").unwrap().as_f64(), Some(2.0));
        assert_eq!(arr[1].get("ph").unwrap().as_str(), Some("E"));
        assert_eq!(arr[1].get("ts").unwrap().as_f64(), Some(3.5));
        assert_eq!(
            arr[0].get("args").unwrap().get("size").unwrap().as_str(),
            Some("4")
        );
    }

    #[test]
    fn zero_length_span_keeps_b_before_e() {
        let mut buf = TraceBuffer::new();
        buf.span(track::REQUESTS, 1, "serve", "serve.queue", 50, 50);
        let evs = buf.sorted_events();
        assert_eq!(evs[0].phase, Phase::B);
        assert_eq!(evs[1].phase, Phase::E);
        assert_eq!(validate_balanced(&evs), Ok(1));
    }
}
