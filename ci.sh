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

# rustc's dead_code lint cannot see a `pub` item: keep `pub` for what
# another crate names, so the compiler finds every orphan. A bare `pub`
# fn, method, const or static in a crate's non-test library code (above
# the file's #[cfg(test)]) must be named by a file outside the crate:
# other crates' src/, tests/, benches/ and examples/; this crate's
# src/bin/, tests/, benches/ and examples/; the root tests/, examples/
# and src/; and perfbench/src. A name that an outside file uses only on
# comment lines (doc comments and intra-doc links included) is no use:
# those lines are dropped before the words are collected. A bare `pub`
# type must be named outside too, or be exposed by its crate's public
# interface (rustc's private_interfaces lint keeps such a type `pub`).
# The awk below
# approximates that interface by line: bare `pub` lines other than the
# type's own definition and `pub use`, the rest of a multi-line `pub fn`
# signature, the bodies of bare `pub` enums and traits, and associated
# `type X =` lines. vendor/ is out of scope: its stubs mirror external
# APIs.
echo "==> every pub item in crates/*/src is named outside its crate"
unnamed_pub=0
outside_roots=()
for root in crates/*/src crates/*/tests crates/*/benches crates/*/examples \
    tests examples src perfbench/src; do
    [ -d "$root" ] && outside_roots+=("$root")
done
for dir in crates/*; do
    mapfile -t lib < <(find "$dir/src" -name '*.rs' -not -path '*/src/bin/*' | sort)
    mapfile -t outside < <(
        find "${outside_roots[@]}" -name '*.rs' | grep -v "^$dir/src/"
        find "$dir/src" -path '*/src/bin/*' -name '*.rs'
    )
    outside_words="$(grep -hvE '^[[:space:]]*//' "${outside[@]}" | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u)"
    interface="$(for f in "${lib[@]}"; do sed '/^[[:space:]]*#\[cfg(test)\]/,$d' "$f" | awk '
        BEGIN { body = -1 }
        {
            s = $0
            sub(/^[ \t]+/, "", s)
            if (s ~ /^\/\//) next
            take = s ~ /^pub[ \t]/ && s !~ /^pub[ \t]+use[ \t]/
            if (sig) {
                take = 1
                if (s ~ /^\{/ || s ~ /[{;][ \t]*$/) sig = 0
            } else if (s ~ /^pub([ \t]+(const|async|unsafe))*[ \t]+fn[ \t]/ && s !~ /[{;][ \t]*$/) {
                sig = 1
            }
            if (body >= 0 && depth > body) take = 1
            if (s ~ /^type[ \t]+[A-Za-z0-9_]+[ \t]*=/) take = 1
            if (s ~ /^pub[ \t]+(enum|trait)[ \t]/) body = depth
            depth += gsub(/\{/, "{") - gsub(/\}/, "}")
            if (body >= 0 && depth <= body && s ~ /\}/) body = -1
            if (take) print
        }'; done)"
    for file in "${lib[@]}"; do
        body="$(sed '/^[[:space:]]*#\[cfg(test)\]/,$d' "$file")"
        while read -r kind name; do
            [ -n "$name" ] || continue
            grep -qxF -- "$name" <<< "$outside_words" && continue
            if [ "$kind" = type ] && grep -qw -- "$name" <<< "$(
                grep -vE "^[[:space:]]*pub (struct|enum|trait|type|union) ${name}\b" <<< "$interface"
            )"; then
                continue
            fi
            echo "==> FAIL: ${file}: pub ${kind} ${name} is named by no file outside its crate" >&2
            unnamed_pub=1
        done < <(sed -nE \
            -e 's/^[[:space:]]*pub[[:space:]]+((const|async|unsafe|extern "C")[[:space:]]+)*fn[[:space:]]+([A-Za-z_][A-Za-z0-9_]*).*/fn \3/p' \
            -e 's/^[[:space:]]*pub[[:space:]]+(const|static)[[:space:]]+(mut[[:space:]]+)?([A-Za-z_][A-Za-z0-9_]*).*/\1 \3/p' \
            -e 's/^[[:space:]]*pub[[:space:]]+(struct|enum|trait|type|union)[[:space:]]+([A-Za-z_][A-Za-z0-9_]*).*/type \2/p' \
            <<< "$body")
    done
done
[ "$unnamed_pub" -eq 0 ]

# rustc's dead_code lint counts a compound assignment (`x.f += 1`) and a
# self-referencing store (`x.f = x.f.max(y)`) as reads, so a counter that
# only tests read compiles clean. A field declared in non-test
# crates/*/src code (above the file's #[cfg(test)]) must be read by
# non-test code: those files, crates/bench/benches and perfbench/src. A
# use of `.f` is a write when it is `.f += …`, `.f -= …` or `.f = …`
# (the right side's own `.f` included); every other use reads it. The
# match is by field name, so a read of a same-named field of any struct
# counts. Structs that derive Serialize are out of scope: the derived
# impl reads every field into the written document.
echo "==> every struct field in crates/*/src is read outside tests"
mapfile -t field_files < <(find crates/*/src -name '*.rs' | sort)
written_only="$(
    {
        for f in "${field_files[@]}"; do sed '/^[[:space:]]*#\[cfg(test)\]/,$d' "$f"; done
        find crates/bench/benches perfbench/src -name '*.rs' -exec cat {} +
    } | grep -vE '^[[:space:]]*//' | awk '
        {
            line = $0
            skip = ""
            while (match(line, /\.[a-z_][a-z0-9_]*/)) {
                name = substr(line, RSTART + 1, RLENGTH - 1)
                rest = substr(line, RSTART + RLENGTH)
                line = rest
                if (name == skip) continue
                if (rest ~ /^[ \t]*[-+]=/) {
                    written[name] = 1
                } else if (rest ~ /^[ \t]*=([^=]|$)/) {
                    written[name] = 1
                    skip = name
                } else {
                    read[name] = 1
                }
            }
        }
        END { for (n in written) if (!(n in read)) print n }'
)"
unread_fields=0
for f in "${field_files[@]}"; do
    while read -r line strukt name; do
        grep -qxF -- "$name" <<< "$written_only" || continue
        echo "==> FAIL: ${f}:${line}: field ${strukt}::${name} is only ever written outside tests" >&2
        unread_fields=1
    done < <(sed '/^[[:space:]]*#\[cfg(test)\]/,$d' "$f" | awk '
        {
            s = $0
            sub(/^[ \t]+/, "", s)
            if (s ~ /^\/\//) next
            if (!inside) {
                if (s ~ /^#\[/) { attrs = attrs " " s; next }
                if (s ~ /^(pub(\([a-z]+\))?[ \t]+)?struct[ \t]+[A-Za-z0-9_]+/ && s ~ /\{[ \t]*$/) {
                    match(s, /struct[ \t]+[A-Za-z0-9_]+/)
                    strukt = substr(s, RSTART, RLENGTH)
                    sub(/^struct[ \t]+/, "", strukt)
                    serial = attrs ~ /Serialize/
                    inside = 1
                    depth = 1
                }
                attrs = ""
                next
            }
            if (depth == 1 && !serial && s ~ /^(pub(\([a-z]+\))?[ \t]+)?[a-z_][a-z0-9_]*[ \t]*:/) {
                name = s
                sub(/^(pub(\([a-z]+\))?[ \t]+)?/, "", name)
                sub(/[ \t]*:.*/, "", name)
                print NR, strukt, name
            }
            depth += gsub(/\{/, "{") - gsub(/\}/, "}")
            if (depth <= 0) inside = 0
        }')
done
[ "$unread_fields" -eq 0 ]

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

# --no-fail-fast: one failing test binary must not hide the failures of
# the binaries after it; every suite runs and reports.
echo "==> cargo test -q (debug, no warnings tolerated)"
run_no_warnings cargo test --offline --workspace -q --no-fail-fast

echo "==> cargo test -q --release (tier-1)"
run_no_warnings cargo test --offline --workspace -q --release --no-fail-fast

# Every experiment and golden fixture, through the one `expt` runner
# in release. The step fails when an experiment's own assert fails or
# when the run changes a committed document: anything under
# results/golden/, and every results/*.json except the four that
# ROADMAP item 1 has yet to pin. E2, E9 and E10 drift in value, and
# E6 carries wall-clock solver times. E14's two trace dumps are
# gitignored, not committed. results/ is copied aside first and
# restored right after the check, pass or fail.
echo "==> every experiment and golden fixture (expt, release; committed documents unchanged)"
unpinned=" e2_primitives e6_controller_scaling e9_incremental_deployment e10_noise_ablation \
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

# Every check no test or expt assert runs: the timing table, the
# telemetry-overhead, kernel-speedup and 4-worker-speedup gates, and the
# figures pinned in BENCH_BASELINE.json (ofpc_bench::gate).
echo "==> bench gates (gates)"
run_no_warnings cargo bench --offline -q -p ofpc-bench --bench gates

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
