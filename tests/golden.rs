//! Golden-replay regression suite: the mini experiment scenarios must
//! regenerate byte-identical to the fixtures pinned under
//! `results/golden/`. Any behavioral drift in the serving, fault, or
//! telemetry stacks fails here with a readable first-divergence diff;
//! intentional changes are re-pinned with
//! `cargo run --release -p ofpc-bench --bin expt <id>` and reviewed like
//! any other diff. The registry test below keeps the entry list and
//! the committed `results/` documents in one-to-one correspondence.

mod common;

use common::diff_fixture_across_workers;
use ofpc_bench::{fixtures, golden, serving, REGISTRY};
use ofpc_par::WorkerPool;

fn check(name: &str) {
    let entry = fixtures()
        .find(|e| e.id == name)
        .unwrap_or_else(|| panic!("unknown golden fixture {name:?}"));
    let fixture = std::fs::read_to_string(entry.path).unwrap_or_else(|e| {
        panic!(
            "cannot read fixture {}: {e}; run `cargo run --release -p ofpc-bench --bin expt {name}`",
            entry.path
        )
    });
    let current = (entry.run)(&WorkerPool::sequential());
    if let Some(diff) = golden::first_divergence(name, &fixture, &current) {
        panic!("{diff}");
    }
}

#[test]
fn e12_serving_knee_matches_golden() {
    check("e12_mini");
}

#[test]
fn e13_fault_replay_matches_golden() {
    check("e13_mini");
}

#[test]
fn e14_telemetry_snapshot_matches_golden() {
    check("e14_mini");
}

#[test]
fn e17_design_space_frontier_matches_golden() {
    check("e17_mini");
}

#[test]
fn e18_resilience_matches_golden() {
    check("e18_mini");
}

#[test]
fn e20_sharded_controller_matches_golden() {
    check("e20_mini");
}

#[test]
fn e21_ingest_front_end_matches_golden() {
    check("e21_mini");
}

#[test]
fn kernels_differential_matches_golden() {
    check("kernels_mini");
}

#[test]
fn kernels_replay_is_byte_identical_across_worker_counts() {
    diff_fixture_across_workers("kernels_mini");
}

#[test]
fn scalar_verify_differs_from_fixture_only_in_verify_stats() {
    // Swapping the verification backend must not perturb the simulation
    // itself: against the pinned vectorized fixture, the only lines
    // allowed to change under a scalar-verify replay are the
    // verify-error statistics. (E17/E18 carry no verify unit, so the
    // claim is scoped to the serving minis.)
    use ofpc_engine::dot::KernelBackend;
    let fixture = std::fs::read_to_string("results/golden/e12_mini.json").expect("fixture");
    let current = serving::e12_mini_with_backend(&WorkerPool::sequential(), KernelBackend::Scalar);
    let g: Vec<&str> = fixture.lines().collect();
    let c: Vec<&str> = current.lines().collect();
    assert_eq!(g.len(), c.len(), "line counts diverged");
    let mut changed = 0;
    for (i, (a, b)) in g.iter().zip(&c).enumerate() {
        if a != b {
            changed += 1;
            assert!(
                a.contains("verify_mean_abs_error"),
                "line {} changed outside the verify stats:\n  golden : {a}\n  current: {b}",
                i + 1
            );
        }
    }
    assert!(
        changed > 0,
        "scalar verify produced identical bytes — backend not applied"
    );
}

#[test]
fn e21_replay_is_byte_identical_across_worker_counts() {
    diff_fixture_across_workers("e21_mini");
}

#[test]
fn e18_replay_is_byte_identical_across_worker_counts() {
    diff_fixture_across_workers("e18_mini");
}

#[test]
fn fixtures_carry_the_report_schema_version() {
    for entry in fixtures() {
        let fixture = std::fs::read_to_string(entry.path)
            .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", entry.path));
        let expected = format!(
            "{{\n  \"schema_version\": {},\n  \"data\":",
            ofpc_bench::table::SCHEMA_VERSION
        );
        assert!(
            fixture.starts_with(&expected),
            "fixture {} missing the versioned envelope; \
             run `cargo run --release -p ofpc-bench --bin expt {}`",
            entry.id,
            entry.id
        );
    }
}

#[test]
fn fixtures_exist_for_every_case() {
    for entry in fixtures() {
        assert!(
            std::path::Path::new(entry.path).exists(),
            "missing fixture {}; run `cargo run --release -p ofpc-bench --bin expt {}`",
            entry.path,
            entry.id
        );
    }
}

#[test]
fn registry_writes_every_results_document_exactly_once() {
    let mut ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), REGISTRY.len(), "registry ids must be unique");
    let mut paths: Vec<&str> = REGISTRY.iter().map(|e| e.path).collect();
    paths.sort_unstable();
    paths.dedup();
    assert_eq!(paths.len(), REGISTRY.len(), "registry paths must be unique");

    // Every JSON document under results/ is some entry's output, apart
    // from E14's regenerated (gitignored) trace dumps.
    for dir in ["results", "results/golden"] {
        for file in std::fs::read_dir(dir).expect("results directory") {
            let path = format!(
                "{dir}/{}",
                file.expect("dir entry").file_name().to_string_lossy()
            );
            if !path.ends_with(".json")
                || ofpc_bench::telemetry::TRACE_DUMPS.contains(&path.as_str())
            {
                continue;
            }
            let writers = REGISTRY.iter().filter(|e| e.path == path).count();
            assert_eq!(
                writers, 1,
                "{path} is written by {writers} registry entries"
            );
        }
    }
    for entry in REGISTRY {
        assert!(
            std::path::Path::new(entry.path).exists(),
            "{} writes {}, which is not committed",
            entry.id,
            entry.path
        );
    }
}
