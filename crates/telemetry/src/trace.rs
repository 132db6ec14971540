//! Sim-time tracing: begin/end spans and instant events recorded in
//! **virtual** picoseconds, dumped in Chrome Trace Event Format
//! (`chrome://tracing` / Perfetto "JSON Array Format").
//!
//! Because the simulator computes an event's end time rather than
//! waiting for it, spans are not RAII drop-guards: callers emit a
//! `B`/`E` pair explicitly (usually via `Telemetry::span`, which
//! pushes both at once from known start/end timestamps). Events carry a
//! `(pid, tid)` track: `pid` groups a subsystem (requests, sites, net,
//! recovery), `tid` an entity within it (request id, `node*64+slot`,
//! link id). The dump sorts by `(pid, tid, ts)` — stably, so same-tick
//! begin/end pairs keep emission order — which makes per-track `B`/`E`
//! nesting validatable ([`validate_balanced`]) and the file
//! byte-deterministic for a deterministic run.
//!
//! An event borrows its category and argument keys, which are string
//! literals at every emit site, and its name, except where a caller
//! builds the name at run time (graph stage and shard re-plan spans).

use std::borrow::Cow;
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
    pub name: Cow<'static, str>,
    pub(crate) cat: &'static str,
    pub phase: Phase,
    pub(crate) ts_ps: u64,
    pub pid: u32,
    pub(crate) tid: u64,
    /// Free-form `key=value` annotations (serialized into `args`).
    pub args: Vec<(&'static str, String)>,
}

/// Render events (in export order, as `Telemetry::trace_events` returns
/// them) as a Chrome-trace JSON array (`ts` in microseconds,
/// fractional; `chrome://tracing` and Perfetto load this directly).
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
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
        serde::escape_json(ev.cat, &mut cat);
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
/// Expects events in export order (`Telemetry::trace_events`).
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
    use crate::Telemetry;

    fn event(name: &'static str, phase: Phase, ts_ps: u64) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            cat: "c",
            phase,
            ts_ps,
            pid: 1,
            tid: 1,
            args: Vec::new(),
        }
    }

    #[test]
    fn span_pairs_balance() {
        let tel = Telemetry::enabled();
        tel.span(track::REQUESTS, 7, "serve", "request", 100, 900);
        tel.span(track::REQUESTS, 7, "serve", "serve.queue", 100, 300);
        tel.span(track::REQUESTS, 7, "serve", "engine.mvm", 300, 800);
        tel.instant(track::NET, 1, "fault", "link.down", 500, Vec::new());
        assert_eq!(validate_balanced(&tel.trace_events()), Ok(3));
    }

    #[test]
    fn mismatched_end_is_rejected() {
        let evs = [event("a", Phase::B, 0), event("b", Phase::E, 5)];
        assert!(validate_balanced(&evs).is_err());
    }

    #[test]
    fn unclosed_span_is_rejected() {
        assert!(validate_balanced(&[event("a", Phase::B, 0)]).is_err());
    }

    #[test]
    fn chrome_json_is_a_valid_array_with_us_timestamps() {
        let tel = Telemetry::enabled();
        let args = vec![("size", "4".to_string())];
        tel.begin(track::SITES, 65, "serve", "engine.batch", 2_000_000, args);
        tel.end(track::SITES, 65, "serve", "engine.batch", 3_500_000);
        let json = chrome_trace_json(&tel.trace_events());
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
        let tel = Telemetry::enabled();
        tel.span(track::REQUESTS, 1, "serve", "serve.queue", 50, 50);
        let evs = tel.trace_events();
        assert_eq!(evs[0].phase, Phase::B);
        assert_eq!(evs[1].phase, Phase::E);
        assert_eq!(validate_balanced(&evs), Ok(1));
    }
}
