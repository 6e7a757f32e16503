#!/usr/bin/env bash
# The offline CI gate: proves the workspace builds, tests, and
# regenerates the Table 1 smoke run with zero registry access.
#
# Usage: ci/check.sh   (from anywhere; cds to the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== policy: no external dependencies in any manifest =="
if grep -rn 'rand\|proptest\|criterion\|crossbeam\|parking_lot\|serde' \
    Cargo.toml crates/*/Cargo.toml; then
    echo "ERROR: external dependency reference found in a manifest" >&2
    exit 1
fi
echo "ok"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo build --release --offline =="
cargo build --release --offline

echo "== cargo clippy --offline -D warnings =="
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "== cargo test -q --offline =="
cargo test -q --offline

echo "== crate tests: every workspace crate =="
# The root run above covers only the facade package (excluded here so
# it does not run twice). The wall-clock overhead claims live in
# `table1 --smoke` below (median of interleaved release-build pairs),
# not in these debug-build unit tests.
cargo test -q --offline --workspace --exclude sharc

echo "== table1 --smoke =="
cargo run --release --offline -p sharc-bench --bin table1 -- --smoke

echo "== high-thread smoke: sharded differential, tids past 63 =="
# The wide differential samples tids 1..=256 over its own 128 cases;
# this pins a fixed seed so CI exercises the multi-shard geometry
# deterministically. (SHARC_TEST_CASES would not apply: the
# checker_differential and elision_differential properties set their
# case counts in code.)
SHARC_TEST_SEED=0xC1 \
    cargo test -q --offline --release --test checker_differential -- \
    sharded_engines_agree_up_to_256_threads \
    cross_shard_ownership_transfer_is_exact

echo "== sequential judge: BitmapBackend vs bare step fold, fixed seed =="
# The replay judge's exclusive-owner fast path and dense thread
# tables must be invisible: per-event verdicts and every granule's
# shadow words equal a bare sharded::step/clear_thread fold, on one
# shard, five shards, and the adaptive-only geometry, with tids from
# 1 to 2^30-1. Fixed seed and reduced case count pin one known
# exploration.
SHARC_TEST_SEED=0x5E0F SHARC_TEST_CASES=48 \
    cargo test -q --offline --release --test checker_differential -- \
    bitmap_backend_equals_bare_step_fold

echo "== epoch geometry: region-vs-global differential, fixed seed =="
# The per-region epoch table must be verdict-invisible: the same
# trace through the R=1 (global) geometry, the default 64-region
# geometry, and the uncached engine agrees on every verdict. Pinned
# to a fixed seed so CI replays one known exploration.
SHARC_TEST_SEED=0xE9 \
    cargo test -q --offline --release --test checker_differential -- \
    region_epoch_engines_agree_with_global_epoch \
    cache_is_invisible_under_adversarial_clears

echo "== ranged checks: range-vs-fold differential, fixed seed =="
# A range verdict must equal the fold of per-granule verdicts on
# every engine (single-word, cached owned-run, adaptive, and the
# five-shard 256-tid geometry, with adversarial mid-range clears),
# and replay-lowering a ranged trace must be bit-identical for
# SharC, Eraser, and the vector-clock detector alike. Fixed seed
# pins one known exploration.
SHARC_TEST_SEED=0x4A6E \
    cargo test -q --offline --release --test checker_differential -- \
    range_checks_equal_per_granule_fold \
    ranged_sharded_checks_agree_up_to_256_threads \
    range_replay_lowering_is_bit_identical_for_every_backend

echo "== ranged casts & frees: clear-vs-fold differential, fixed seed =="
# The ranged hand-off must be verdict- and word-invisible: a
# clear_range / clear_thread_range (one word sweep, one epoch bump
# per covered region) leaves every engine bit-identical to the
# per-granule clear fold it replaced, under cached sweeps on the
# narrow, adaptive, and 256-tid sharded geometries. Fixed seed pins
# one known exploration.
SHARC_TEST_SEED=0xCA57 \
    cargo test -q --offline --release --test checker_differential -- \
    ranged_clears_equal_per_granule_clear_fold \
    wide_ranged_clears_equal_per_granule_clear_fold

echo "== streaming detection: stream-vs-replay differential, fixed seed =="
# The streaming pipeline's tentpole invariant: for every ring
# count, ring capacity, and drain interleaving, a StreamingSink's
# conflicts are bit-identical to the serialized replay fold on the
# same backend (SharC bitmap, Eraser, vector clocks), at narrow and
# cross-shard tid widths, with the accounting closed (recorded ==
# drained, peak resident <= ring budget). The fleet-width companion
# streams one >200-thread recorded stunnel execution through tiny
# rings and re-runs it live against the collector. Fixed seed pins
# one known exploration.
SHARC_TEST_SEED=0x51EA \
    cargo test -q --offline --release --test checker_differential -- \
    streaming_verdicts_equal_replay_fold_for_every_backend \
    stunnel_streaming_is_bit_identical_to_replay_at_fleet_width

echo "== check elision: differential + mutation, fixed seed =="
# The elision pass's soundness contract: on program shapes that are
# race-free by construction, the eliding build is bit-identical to
# the fully-checked build on every seed, and every race-inducing
# mutation (second spawn, escaping alias) forces the raced sites
# back to checked. Fixed seed pins one known exploration.
SHARC_TEST_SEED=0xE11DE \
    cargo test -q --offline --release --test elision_differential -- \
    elided_build_is_bit_identical_on_race_free_executions \
    racing_mutations_kill_elision \
    racy_mutant_still_reports_under_elision

echo "== elision exemplar: explanations + racy exit code =="
# The explanation format end to end: the exemplar's spawn-unique
# loop and lock-dominated region are elided with their reasons, and
# the escaping counterexample keeps its checks (the e2e test pins
# exact line numbers; this smokes the CLI surface). The racy
# exemplar must STILL exit nonzero under the default (eliding)
# build — elision may never hide a report.
explain=$(cargo run --release --offline --bin sharc -- \
    run examples/minic/elision.c --explain-elision)
echo "$explain" | grep -q "spawn-unique" || {
    echo "ERROR: --explain-elision lost the spawn-unique explanation" >&2
    exit 1
}
echo "$explain" | grep -q "lock-held" || {
    echo "ERROR: --explain-elision lost the lock-held explanation" >&2
    exit 1
}
racy_caught=0
for seed in 0 1 2 3; do
    if ! cargo run --release --offline --bin sharc -- \
        run examples/minic/counter_racy.c --seed "$seed" >/dev/null 2>&1; then
        racy_caught=1
    fi
done
if [ "$racy_caught" -ne 1 ]; then
    echo "ERROR: counter_racy.c exited 0 on every seed under elision" >&2
    exit 1
fi

echo "== sharded revalidation stress: barrier-aligned real races =="
# Real threads, barrier-aligned into the cross-shard conflict
# window: a racing conflict must be reported by at least one
# participant, and fenced clears must force cache revalidation
# without false reports. Fixed seed pins the jitter streams.
SHARC_TEST_SEED=0x57E5 \
    cargo test -q --offline --release -p sharc-runtime --test sharded_stress

echo "== native event spine: one execution, two verdicts =="
# SharC accepts the concurrent hand-off (exit 0); the lockset
# baseline must false-positive on the identical recorded execution
# (exit 1 — inverted below). pbzip2 runs the same split through a
# trace file: record once with --trace-out, then re-judge the saved
# trace offline with both engines.
cargo run --release --offline --bin sharc -- native handoff --detector sharc
if cargo run --release --offline --bin sharc -- native handoff --detector eraser; then
    echo "ERROR: eraser accepted the hand-off it should false-positive on" >&2
    exit 1
fi
trace_file="target/ci-pbzip2.trace"
cargo run --release --offline --bin sharc -- native pbzip2 --trace-out "$trace_file"
cargo run --release --offline --bin sharc -- replay "$trace_file" --detector sharc
if cargo run --release --offline --bin sharc -- replay "$trace_file" --detector eraser; then
    echo "ERROR: eraser accepted the pbzip2 hand-offs it should false-positive on" >&2
    exit 1
fi
# Version-lowering compatibility. The recorded trace must be v3 with
# ONE rcast/rfree line per block hand-off — a per-granule `cast`
# expansion leaking back in would be the O(granules) spine this PR
# removed. Its lowered twin (`trace convert --lower`: every range
# event expanded to per-granule lines, the v1 vocabulary — what the
# old awk hack hand-rolled) must replay to the identical exit code on
# both detectors. tests/trace_parity.rs pins the conflict sets; this
# smokes the CLI surface.
grep -q '^# sharc-trace v3$' "$trace_file" || {
    echo "ERROR: recorded pbzip2 trace is not v3" >&2
    exit 1
}
grep -q '^rcast ' "$trace_file" || {
    echo "ERROR: pbzip2 trace has no ranged casts" >&2
    exit 1
}
if grep -q '^cast ' "$trace_file"; then
    echo "ERROR: per-granule cast lines leaked into the pbzip2 trace" >&2
    exit 1
fi
trace_v1="target/ci-pbzip2-v1.trace"
cargo run --release --offline --bin sharc -- trace convert "$trace_file" "$trace_v1" --lower
if grep -q '^rcast \|^rfree \|^rread \|^rwrite ' "$trace_v1"; then
    echo "ERROR: trace convert --lower left range events behind" >&2
    exit 1
fi
cargo run --release --offline --bin sharc -- replay "$trace_v1" --detector sharc
if cargo run --release --offline --bin sharc -- replay "$trace_v1" --detector eraser; then
    echo "ERROR: eraser accepted the v1-lowered pbzip2 trace" >&2
    exit 1
fi
# aget on the spine: workers store whole chunks with ranged writes
# and exit before main's ranged verification sweep — clean under
# SharC's lifetime model (exit 0), a false positive under Eraser
# (no lock ever protects the shared buffer; exit 1, inverted).
cargo run --release --offline --bin sharc -- native aget --detector sharc
if cargo run --release --offline --bin sharc -- native aget --detector eraser; then
    echo "ERROR: eraser accepted the aget download it should false-positive on" >&2
    exit 1
fi

echo "== wide-tid stunnel smoke: 100+ threads, record -> replay =="
# The fleet run: 128 real worker threads (tids past the second shard
# boundary) recorded once, then the saved trace re-judged offline.
# SharC must stay clean at the wide geometry (exit 0); Eraser must
# false-positive on the session hand-offs (exit 1, inverted).
stunnel_trace="target/ci-stunnel.trace"
cargo run --release --offline --bin sharc -- native stunnel --trace-out "$stunnel_trace"
cargo run --release --offline --bin sharc -- replay "$stunnel_trace" --detector sharc
if cargo run --release --offline --bin sharc -- replay "$stunnel_trace" --detector eraser; then
    echo "ERROR: eraser accepted the stunnel hand-offs it should false-positive on" >&2
    exit 1
fi

echo "== binary trace smoke: record .sbt -> info -> parallel replay =="
# The same fleet recorded straight into the v5 binary container
# (--trace-out picks the format from the .sbt extension), summarized
# without judging, then re-judged with the region-sharded parallel
# engine: SharC clean (exit 0), Eraser false-positive (exit 1,
# inverted) on the SAME .sbt file — verdicts are format- and
# parallelism-independent.
stunnel_sbt="target/ci-stunnel.sbt"
cargo run --release --offline --bin sharc -- native stunnel --trace-out "$stunnel_sbt"
info=$(cargo run --release --offline --bin sharc -- trace info "$stunnel_sbt")
echo "$info"
echo "$info" | grep -q "binary v5" || {
    echo "ERROR: trace info does not identify the .sbt file as binary v5" >&2
    exit 1
}
cargo run --release --offline --bin sharc -- replay "$stunnel_sbt" --jobs 4 --detector sharc
if cargo run --release --offline --bin sharc -- replay "$stunnel_sbt" --jobs 4 --detector eraser; then
    echo "ERROR: eraser accepted the stunnel hand-offs from the binary trace" >&2
    exit 1
fi
# Convert round trip: .sbt -> text -> .sbt must be byte-identical
# (the binary encoding is deterministic), and the text twin must be
# meaningfully larger — the archive claim on a real recorded run.
roundtrip_txt="target/ci-stunnel-rt.trace"
roundtrip_sbt="target/ci-stunnel-rt.sbt"
cargo run --release --offline --bin sharc -- trace convert "$stunnel_sbt" "$roundtrip_txt"
cargo run --release --offline --bin sharc -- trace convert "$roundtrip_txt" "$roundtrip_sbt"
cmp "$stunnel_sbt" "$roundtrip_sbt" || {
    echo "ERROR: .sbt -> text -> .sbt convert round trip is not byte-identical" >&2
    exit 1
}
sbt_bytes=$(wc -c < "$stunnel_sbt")
txt_bytes=$(wc -c < "$roundtrip_txt")
if [ $((sbt_bytes * 4)) -gt "$txt_bytes" ]; then
    echo "ERROR: binary trace ($sbt_bytes B) is not <=1/4 of text ($txt_bytes B)" >&2
    exit 1
fi

echo "== parallel replay: region-sharded differential, fixed seed =="
# The --jobs engine's acceptance differential: merged conflicts
# bit-identical to the sequential fold for SharC, Eraser, and vector
# clocks at 256 tids over every worker count 1-5, plus the
# cross-version parity suite (text/binary archives, v1 lowering).
# Fixed seed pins one known exploration.
SHARC_TEST_SEED=0x9A12 \
    cargo test -q --offline --release --test checker_differential -- \
    parallel_replay_is_bit_identical_to_sequential_for_every_backend
cargo test -q --offline --release --test trace_parity

echo "== streaming online smoke: same verdicts, bounded memory =="
# The same fleet judged while it runs: the epoch-flip collector
# drains per-thread rings concurrently with the workload, so the
# exit code must match the record->replay path above on every
# detector — SharC clean (exit 0), Eraser false-positive (exit 1,
# inverted) — with peak resident events held inside the --ring-cap
# budget instead of the full recorded trace.
cargo run --release --offline --bin sharc -- native stunnel --detector sharc --online --ring-cap 256
if cargo run --release --offline --bin sharc -- native stunnel --detector eraser --online --ring-cap 256; then
    echo "ERROR: eraser accepted the stunnel hand-offs while streaming" >&2
    exit 1
fi
cargo run --release --offline --bin sharc -- native handoff --detector sharc --online
if cargo run --release --offline --bin sharc -- native handoff --detector eraser --online; then
    echo "ERROR: eraser accepted the hand-off while streaming" >&2
    exit 1
fi

echo "== checker bench --smoke (epoch-thrash + ranged gates) =="
# Asserts the perf claims in --smoke mode: the per-region epoch
# table is >=2x faster than the R=1 global geometry under
# clear-thrash and within noise on the private loop, the cached
# fast path stays competitive with the raw CAS protocol, and the
# ranged owned-4k sweep (one epoch-sum + run-slot compare per lap)
# beats the per-granule cached loop >=4x. Full rows — including the
# range/* family and the epoch-geom/r{R}-ws{WS} geometry sweep —
# plus deterministic flush/miss counters land in the repo-root
# BENCH_checker.json, the single canonical location (nothing is
# written under target/ anymore; also written by table1 --smoke
# above).
cargo bench --offline -p sharc-bench --bench checker -- --smoke
test -f BENCH_checker.json || {
    echo "ERROR: BENCH_checker.json missing at the repo root" >&2
    exit 1
}
# The stunnel fleet must be in the record: the headline timing rows
# (throughput pair + contention sweep, p50/p95 with every other row)
# and the derived messages-per-second figures.
for row in "stunnel/fleet-sharc" "stunnel/fleet-orig" "stunnel/sweep-c64-w16"; do
    grep -q "$row" BENCH_checker.json || {
        echo "ERROR: BENCH_checker.json is missing the $row row" >&2
        exit 1
    }
done
grep -q "msgs_per_sec" BENCH_checker.json || {
    echo "ERROR: BENCH_checker.json has no stunnel throughput records" >&2
    exit 1
}
# The streaming pipeline must be in the record too: timing rows for
# the streamed-vs-untraced pairs and the memory accounting (peak
# resident vs ring budget) the bench gate asserts.
for row in "online/stunnel-stream" "online/stunnel-orig" "online/pbzip2-stream"; do
    grep -q "$row" BENCH_checker.json || {
        echo "ERROR: BENCH_checker.json is missing the $row row" >&2
        exit 1
    }
done
grep -q "ring_budget" BENCH_checker.json || {
    echo "ERROR: BENCH_checker.json has no streaming memory accounting" >&2
    exit 1
}
# The ranged-cast rows: one-operation block hand-off vs the
# per-granule cast+clear loop at both block sizes (the >=4x win is
# asserted inside the bench by assert_ranged_cast_wins; this pins
# the rows into the machine-readable record).
for row in "cast/block-4k-ranged" "cast/block-4k-granule" \
    "cast/block-64k-ranged" "cast/block-64k-granule"; do
    grep -q "$row" BENCH_checker.json || {
        echo "ERROR: BENCH_checker.json is missing the $row row" >&2
        exit 1
    }
done
# The elision record: the three vm/private-loop rows (the elided row
# must have beaten checked+cached for the bench to have exited 0 —
# assert_elision_wins), plus per-workload static percentages with
# nonzero elision on the private-heavy ports.
for row in "vm/private-loop/elided" "vm/private-loop/cache-on" "vm/private-loop/cache-off"; do
    grep -q "$row" BENCH_checker.json || {
        echo "ERROR: BENCH_checker.json is missing the $row row" >&2
        exit 1
    }
done
grep -q "elided_pct" BENCH_checker.json || {
    echo "ERROR: BENCH_checker.json has no per-workload elision records" >&2
    exit 1
}
for w in pfscan stunnel dillo; do
    slots=$(grep -A2 "\"name\": \"$w\"," BENCH_checker.json \
        | grep '"elided_slots"' | grep -o '[0-9]\+' || true)
    if [ -z "$slots" ] || [ "$slots" -eq 0 ]; then
        echo "ERROR: $w must show nonzero static elision (got '${slots:-missing}')" >&2
        exit 1
    fi
done
# The binary-trace + parallel-replay record: codec rows for both
# formats and the seq/par replay pair (the byte and speed gates are
# asserted inside the bench by assert_trace_wins and
# assert_parallel_replay_wins; this pins the rows into the
# machine-readable record), plus the size comparison itself.
for row in "trace/encode-text" "trace/encode-binary" \
    "trace/decode-text" "trace/decode-binary" \
    "replay/seq" "replay/par-4"; do
    grep -q "$row" BENCH_checker.json || {
        echo "ERROR: BENCH_checker.json is missing the $row row" >&2
        exit 1
    }
done
grep -q "binary_bytes" BENCH_checker.json || {
    echo "ERROR: BENCH_checker.json has no trace size records" >&2
    exit 1
}

echo "All checks passed."
