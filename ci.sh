#!/usr/bin/env bash
# CI gate: formatting, lints (warnings are errors), and the full test
# suite. Everything runs offline against the vendored deps.
set -euo pipefail
cd "$(dirname "$0")"

# `cargo test` does not promote warnings to errors on its own: run it
# under a tee and fail the gate if anything in the build or the test
# output itself warned (deprecations, dead code resurfacing in
# test-only cfgs, tests eprintln-ing "warning:" diagnostics).
run_no_warnings() {
    local log
    log="$(mktemp)"
    "$@" 2>&1 | tee "$log"
    if grep -E '(^|[[:space:]])[Ww]arning(:|\[)' "$log" > /dev/null; then
        echo "==> FAIL: warnings in output of: $*" >&2
        rm -f "$log"
        exit 1
    fi
    rm -f "$log"
}

echo "==> cargo fmt --check"
cargo fmt --check

# A bench target that no step below runs is dead weight: nothing
# asserts on it, so it only rots. Every [[bench]] must have a
# `--bench <name>` run in this script.
echo "==> every bench target is run by ci.sh"
unrun=0
for name in $(sed -n '/^\[\[bench\]\]/,/^name/s/^name *= *"\([^"]*\)".*/\1/p' crates/bench/Cargo.toml); do
    if ! grep -Eq -- "--bench ${name}( |\$)" ci.sh; then
        echo "==> FAIL: bench target '${name}' is not run by ci.sh" >&2
        unrun=1
    fi
done
[ "$unrun" -eq 0 ]

# The crate graph is what the code names. A dependency no source file
# mentions only adds build edges and hides the real layering: every
# [dependencies] key (hyphens read as underscores) must appear in the
# crate's src/, every [dev-dependencies] key in its src/, tests/,
# benches/ or examples/. Doc comments count as naming: an edge only an
# intra-doc link uses stays, and `cargo doc -D warnings` below fails if
# it is dropped.
echo "==> every dependency edge is named by its crate's code"
unnamed=0
for manifest in crates/*/Cargo.toml vendor/*/Cargo.toml; do
    dir="${manifest%/Cargo.toml}"
    for section in dependencies dev-dependencies; do
        roots=("$dir/src")
        if [ "$section" = dev-dependencies ]; then
            roots+=("$dir/tests" "$dir/benches" "$dir/examples")
        fi
        for key in $(sed -n "/^\[$section\]/,/^\[/s/^\([A-Za-z0-9_-]*\)[ .=].*/\1/p" "$manifest"); do
            # -s: a crate may have no tests/, benches/ or examples/.
            if ! grep -rqsw -- "${key//-/_}" "${roots[@]}"; then
                echo "==> FAIL: ${dir} [${section}] ${key} is never named by its code" >&2
                unnamed=1
            fi
        done
    done
done
[ "$unnamed" -eq 0 ]

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo test -q (debug, no warnings tolerated)"
run_no_warnings cargo test --offline --workspace -q

echo "==> cargo test -q --release (tier-1)"
run_no_warnings cargo test --offline --workspace -q --release

echo "==> cargo test --test faults (fault injection & recovery)"
run_no_warnings cargo test --offline --test faults -q

# Every experiment and golden fixture, through the one `expt` runner
# in release. The step fails when an experiment's own assert fails or
# when the run changes a committed document: anything under
# results/golden/, and every results/*.json except the eight that
# ROADMAP item 1 has yet to pin. E1, E3 and E5 drift in float format,
# E2, E4, E9 and E10 in value, and E6 carries wall-clock solver times.
# E14's two trace dumps are gitignored, not committed. results/ is
# copied aside first and restored right after the check, pass or fail.
echo "==> every experiment and golden fixture (expt, release; committed documents unchanged)"
unpinned=" e1_fig1_scenario e2_primitives e3_transponder e4_table1_usecases e5_energy_speed \
e6_controller_scaling e9_incremental_deployment e10_noise_ablation \
e14_telemetry_trace e14_telemetry_trace_e12 "
results_copy="$(mktemp -d)"
cp -a results/. "$results_copy"
set +e
(
    set -e
    run_no_warnings cargo run --offline --release -q -p ofpc-bench --bin expt
    changed=0
    for doc in results/*.json results/golden/*.json; do
        [[ "$unpinned" == *" $(basename "$doc" .json) "* ]] && continue
        if ! cmp -s "$doc" "$results_copy/${doc#results/}"; then
            echo "==> FAIL: expt changed $doc" >&2
            changed=1
        fi
    done
    [ "$changed" -eq 0 ]
)
expt_status=$?
set -e
rm -rf results
mkdir results
cp -a "$results_copy"/. results/
rm -rf "$results_copy"
[ "$expt_status" -eq 0 ]

echo "==> telemetry overhead gate (disabled handle within noise of baseline)"
run_no_warnings cargo bench --offline -q -p ofpc-bench --bench telemetry_overhead

echo "==> core kernel benches (dot product, network sim)"
run_no_warnings cargo bench --offline -q -p ofpc-bench --bench dot_product
run_no_warnings cargo bench --offline -q -p ofpc-bench --bench network_sim

echo "==> kernel differential suite (scalar vs vectorized backends, tests/kernels.rs)"
run_no_warnings cargo test --offline --test kernels -q

echo "==> vectorized kernel speedup gate (>=5x vs scalar, BENCH_BASELINE.json)"
run_no_warnings cargo bench --offline -q -p ofpc-bench --bench kernel_speedup

echo "==> parallel scaling & sequential regression gate (BENCH_BASELINE.json)"
run_no_warnings cargo bench --offline -q -p ofpc-bench --bench par_scaling

echo "==> graph compiler gate (pipelined >=1.5x sequential, deterministic)"
run_no_warnings cargo bench --offline -q -p ofpc-bench --bench graph_pipeline

echo "==> design-space sweep gate (deterministic, throughput vs BENCH_BASELINE.json)"
run_no_warnings cargo bench --offline -q -p ofpc-bench --bench dse_sweep

echo "==> resilience integration gate (tests/resil.rs)"
run_no_warnings cargo test --offline --test resil -q

echo "==> resilience overhead gate (deterministic, energy gates, throughput vs BENCH_BASELINE.json)"
run_no_warnings cargo bench --offline -q -p ofpc-bench --bench resil_overhead

echo "==> sharded-controller differential & churn suite (tests/shard.rs)"
run_no_warnings cargo test --offline --test shard -q

echo "==> shard scaling gate (determinism, >=2x @4w, decision latency vs BENCH_BASELINE.json)"
run_no_warnings cargo bench --offline -q -p ofpc-bench --bench shard_scaling

echo "==> ingest property suite (tests/ingest.rs)"
run_no_warnings cargo test --offline --test ingest -q

echo "==> serve scale gate (determinism, >=2x @4w, throughput/core vs BENCH_BASELINE.json)"
run_no_warnings cargo bench --offline -q -p ofpc-bench --bench serve_scale

# perfbench is its own workspace, so no step above compiles it: run
# every workload once, telemetry off and on, and fail unless each run
# reports correct output and no failed iteration. Building it rewrites
# perfbench/Cargo.lock, so the committed file is put back on exit.
echo "==> repository benchmark smoke (perfbench)"
perfbench_lock="$(mktemp)"
cp perfbench/Cargo.lock "$perfbench_lock"
trap 'cp "$perfbench_lock" perfbench/Cargo.lock; rm -f "$perfbench_lock"' EXIT
for workload in ingest storm churn; do
    for trace in 0 1; do
        summary="$(cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed 1 --seconds 1 --trace "$trace" | tail -n 1)"
        echo "perfbench $workload --trace $trace: ${summary:0:60}"
        if ! grep -q '"correct": true' <<< "$summary" || ! grep -q '"failed": 0,' <<< "$summary"; then
            echo "==> FAIL: perfbench --workload $workload --trace $trace: $summary" >&2
            exit 1
        fi
    done
done

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps -q

echo "CI green."
