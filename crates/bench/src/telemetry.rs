//! E14 — telemetry: replay the E12 serving load point and the E13
//! fault scenarios with tracing and the metrics registry enabled, then
//! cross-check everything the telemetry layer reports against the
//! exact summaries the runtimes compute themselves.
//!
//! Three properties are enforced:
//!
//! * **The trace is well formed** — every `B` has a matching `E` on its
//!   (pid, tid) track (checked by `validate_balanced`) and the dump is
//!   valid Chrome-trace JSON (an array of trace_event objects a
//!   `chrome://tracing` / Perfetto load accepts).
//! * **The registry agrees with the reports** — per-tenant
//!   p50/p99/p999 latency from the log-linear histograms lands within
//!   the bucket quantization bound (±3.2% plus nearest-rank slack) of
//!   the exact percentiles in [`ServeReport`]; per-stage energy gauges
//!   and the arrival/completion/shed counters match exactly.
//! * **Telemetry preserves determinism** — the instrumented runs replay
//!   byte-identical (same seed ⇒ same trace JSON, same metrics JSON),
//!   and the report equals the un-instrumented baseline's.

use crate::faults::{self, mini_outage, under_outage};
use crate::serving::{self, mini_config};
use crate::table::{versioned_pretty, versioned_trace, write_result, Table};
use ofpc_engine::dot::KernelBackend;
use ofpc_faults::trace_recovery;
use ofpc_par::WorkerPool;
use ofpc_serve::{ServeReport, ServeRuntime};
use ofpc_telemetry::{labels, validate_balanced, Telemetry};
use serde::Serialize;

/// Worst-case relative error of a histogram percentile: ±3.2% bucket
/// quantization plus nearest-rank slack on small samples.
const PCTL_TOL: f64 = 0.08;

/// The Chrome-trace dumps written next to the summary document: the
/// E13 fallback + cut replay, then the E12 knee. Tens of MB, so they
/// are regenerated rather than committed.
pub const TRACE_DUMPS: [&str; 2] = [
    "results/e14_telemetry_trace.json",
    "results/e14_telemetry_trace_e12.json",
];

fn run(rt: ServeRuntime, tel: Option<&Telemetry>) -> ServeReport {
    match tel {
        Some(tel) => rt.with_telemetry(tel).run(),
        None => rt.run(),
    }
}

/// The E13b targeted fiber cut, with allocation and the recovery pass
/// traced.
fn run_e13_cut(tel: &Telemetry) -> u64 {
    let mut sys = faults::fig1_system();
    sys.set_telemetry(tel);
    let orch = faults::orchestrator();
    sys.allocate_and_apply(orch.solver);
    faults::cut_primary(&mut sys);
    let out = orch.recover_from_cut(&mut sys, 1_000_000);
    trace_recovery(tel, "fiber-cut", &out);
    assert!(out.fully_applied && out.unsatisfied == 0);
    out.timeline.ttr_ps()
}

// ------------------------------------------------------------- validation

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1e-12)
}

/// Registry percentiles and counters vs the report's exact numbers.
fn check_report_agreement(tel: &Telemetry, report: &ServeReport, tenants: &[&str]) {
    let snap = tel.snapshot();
    for (i, name) in tenants.iter().enumerate() {
        let t = &report.tenants[i];
        let l = labels(&[("tenant", name)]);
        assert_eq!(
            snap.counter("serve_arrivals_total", &l),
            Some(t.arrivals),
            "{name}: arrivals counter"
        );
        assert_eq!(
            snap.counter("serve_completed_total", &l),
            Some(t.completed),
            "{name}: completed counter"
        );
        assert_eq!(
            snap.counter("serve_degraded_total", &l),
            Some(t.degraded),
            "{name}: degraded counter"
        );
        let shed: u64 = [
            "queue-full",
            "expired-queued",
            "expired-serving",
            "engine-failed",
        ]
        .iter()
        .map(|r| {
            snap.counter(
                "serve_shed_total",
                &labels(&[("tenant", name), ("reason", r)]),
            )
            .unwrap_or(0)
        })
        .sum();
        assert_eq!(
            shed,
            t.shed_queue_full
                + t.shed_expired_queued
                + t.shed_expired_serving
                + t.shed_engine_failed,
            "{name}: shed counters"
        );
        let h = snap
            .histogram("serve_latency_ps", &l)
            .expect("latency histogram registered");
        assert_eq!(h.count, t.completed, "{name}: latency sample count");
        for (p, exact_us) in [
            (h.p50, t.p50_latency_us),
            (h.p99, t.p99_latency_us),
            (h.p999, t.p999_latency_us),
        ] {
            let Some(exact_us) = exact_us else { continue };
            let got_us = p as f64 / 1e6;
            assert!(
                close(got_us, exact_us, PCTL_TOL),
                "{name}: histogram percentile {got_us:.2} µs vs exact {exact_us:.2} µs"
            );
        }
        let e = snap
            .gauge("serve_energy_joules", &l)
            .expect("tenant energy gauge");
        assert!(close(e, t.energy_j, 1e-9), "{name}: energy gauge");
    }
    for (stage, &joules) in &report.energy_stages_j {
        let g = snap
            .gauge(
                "serve_stage_energy_joules",
                &labels(&[("stage", stage.as_str())]),
            )
            .unwrap_or_else(|| panic!("stage energy gauge for {stage}"));
        assert!(
            close(g, joules, 1e-9),
            "stage {stage}: gauge {g:.3e} vs report {joules:.3e}"
        );
    }
}

/// Parse the Chrome-trace dump back and sanity-check its shape: a JSON
/// array of objects each carrying name/cat/ph/ts/pid/tid.
fn check_chrome_json(json: &str) -> usize {
    let v: serde_json::Value = serde_json::from_str(json).expect("trace dump parses as JSON");
    let events = v.as_seq().expect("trace dump must be a JSON array");
    assert!(!events.is_empty(), "trace must not be empty");
    for ev in events {
        let o = ev.as_map().expect("every trace event must be an object");
        for key in ["name", "cat", "ph", "ts", "pid", "tid"] {
            assert!(
                o.iter().any(|(k, _)| k == key),
                "trace event missing {key:?}"
            );
        }
        let ph = o
            .iter()
            .find(|(k, _)| k == "ph")
            .and_then(|(_, v)| v.as_str())
            .expect("ph is a string");
        assert!(["B", "E", "i"].contains(&ph), "unexpected phase {ph:?}");
    }
    events.len()
}

#[derive(Debug, Serialize)]
struct E14Summary {
    e12_trace_events: usize,
    e12_spans: usize,
    e13_trace_events: usize,
    e13_spans: usize,
    e13_cut_ttr_us: f64,
    e12_report: ServeReport,
    e13_report: ServeReport,
    e12_metrics: ofpc_telemetry::MetricsSnapshot,
    e13_metrics: ofpc_telemetry::MetricsSnapshot,
}

/// E14: the E12 knee and the E13 fallback and cut, replayed with
/// telemetry on and cross-checked against the reports.
pub(crate) fn expt(pool: &WorkerPool) -> String {
    // --- E12 replay: instrumented twice (replay determinism) and once
    // bare (telemetry must not perturb the simulation). The three runs
    // are independent seeded scenarios, so they scatter across the pool;
    // validation happens on this thread from the gathered handles. ---
    let mut e12 = pool.scatter_gather(vec![true, true, false], |_, instrument| {
        let tel = instrument.then(Telemetry::enabled);
        let report = run(serving::runtime(serving::knee_rps(), true), tel.as_ref());
        (report, tel)
    });
    let (baseline, _) = e12.pop().expect("three E12 runs");
    let (report_b, tel_b) = e12.pop().expect("three E12 runs");
    let (report_a, tel_a) = e12.pop().expect("three E12 runs");
    let (tel_a, tel_b) = (
        tel_a.expect("first run instrumented"),
        tel_b.expect("second run instrumented"),
    );

    let trace_a = tel_a.chrome_trace_json();
    assert_eq!(
        trace_a,
        tel_b.chrome_trace_json(),
        "same seed ⇒ byte-identical trace"
    );
    assert_eq!(
        tel_a.metrics_json(),
        tel_b.metrics_json(),
        "same seed ⇒ byte-identical metrics"
    );
    assert_eq!(
        serde_json::to_string(&report_a).unwrap(),
        serde_json::to_string(&report_b).unwrap(),
        "instrumented replay must be deterministic"
    );
    assert_eq!(
        serde_json::to_string(&report_a).unwrap(),
        serde_json::to_string(&baseline).unwrap(),
        "telemetry must not perturb the simulation"
    );

    let e12_events = check_chrome_json(&trace_a);
    let e12_spans =
        validate_balanced(&tel_a.trace_events()).expect("E12 trace must balance B/E per track");
    check_report_agreement(&tel_a, &report_a, &["steady", "bursty"]);

    // --- E13 replay: the fallback scenario plus a traced recovery. ---
    let tel_f = Telemetry::enabled();
    let fallback = faults::fallback_runtime(true).with_verify_backend(KernelBackend::Vectorized);
    let report_f = run(fallback, Some(&tel_f));
    assert!(report_f.degraded > 0, "fallback must absorb displaced work");
    let ttr_ps = run_e13_cut(&tel_f);
    let trace_f = tel_f.chrome_trace_json();
    let e13_events = check_chrome_json(&trace_f);
    let e13_spans =
        validate_balanced(&tel_f.trace_events()).expect("E13 trace must balance B/E per track");
    check_report_agreement(&tel_f, &report_f, &["steady"]);
    let snap_f = tel_f.snapshot();
    assert_eq!(
        snap_f.counter("recoveries_total", &labels(&[("kind", "fiber-cut")])),
        Some(1),
        "the traced recovery must register"
    );
    // The fault instants made it into the trace as structured events.
    for name in [
        "site.fail",
        "site.repair",
        "fallback.digital",
        "fault.fiber-cut",
    ] {
        assert!(
            tel_f.trace_events().iter().any(|e| e.name == name),
            "trace must carry {name:?} events"
        );
    }

    let mut t = Table::new(
        "E14 — telemetry replay (E12 knee + E13 fallback/cut)",
        &["scenario", "trace events", "spans", "completed", "p99 µs"],
    );
    t.row(&[
        "E12 knee".into(),
        format!("{e12_events}"),
        format!("{e12_spans}"),
        format!("{}", report_a.completed),
        report_a
            .p99_latency_us
            .map_or("-".into(), |v| format!("{v:.1}")),
    ]);
    t.row(&[
        "E13 fallback+cut".into(),
        format!("{e13_events}"),
        format!("{e13_spans}"),
        format!("{}", report_f.completed),
        report_f
            .p99_latency_us
            .map_or("-".into(), |v| format!("{v:.1}")),
    ]);
    t.print();
    println!(
        "traced recovery TTR {:.0} µs; registry agrees with reports \
         (counters exact, percentiles within ±{:.0}%)",
        ttr_ps as f64 / 1e6,
        PCTL_TOL * 100.0
    );

    // --- Artifacts: the Chrome trace and the metrics snapshot. ---
    for (path, trace) in TRACE_DUMPS.into_iter().zip([&trace_f, &trace_a]) {
        write_result(path, &versioned_trace(trace))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    }
    let doc = versioned_pretty(&E14Summary {
        e12_trace_events: e12_events,
        e12_spans,
        e13_trace_events: e13_events,
        e13_spans,
        e13_cut_ttr_us: ttr_ps as f64 / 1e6,
        e12_report: report_a,
        e13_report: report_f,
        e12_metrics: tel_a.snapshot(),
        e13_metrics: snap_f,
    });
    println!(
        "\nwrote results/e14_telemetry{{_trace,_trace_e12}}.json and results/e14_telemetry.json"
    );
    doc
}

#[derive(Debug, Serialize)]
struct E14Mini {
    report: ServeReport,
    trace_events: usize,
    trace_spans: usize,
    metrics: ofpc_telemetry::MetricsSnapshot,
}

/// Mini E14: one instrumented replay of the mini fault scenario — the
/// report, the balanced-span count, and the full metrics snapshot.
/// Runs the scenario twice through the pool (instrumented + bare) and
/// asserts telemetry perturbed nothing before snapshotting. Verifies on
/// the production `Vectorized` backend, like the E12 mini.
pub(crate) fn e14_mini(pool: &WorkerPool) -> String {
    let runs = pool.scatter_gather(vec![true, false], |_, instrument| {
        let tel = instrument.then(Telemetry::enabled);
        let rt = under_outage(mini_config(14, 6e6, true), &mini_outage(), true)
            .with_verify_backend(KernelBackend::Vectorized);
        (run(rt, tel.as_ref()), tel)
    });
    let [(report, tel), (bare_report, _)] = <[_; 2]>::try_from(runs).expect("two runs");
    let tel = tel.expect("first run instrumented");
    assert_eq!(
        serde_json::to_string(&report).expect("report serializes"),
        serde_json::to_string(&bare_report).expect("report serializes"),
        "telemetry must not perturb the mini scenario"
    );
    let events = tel.trace_events();
    let spans = validate_balanced(&events).expect("mini trace must balance");
    versioned_pretty(&E14Mini {
        report,
        trace_events: events.len(),
        trace_spans: spans,
        metrics: tel.snapshot(),
    })
}
