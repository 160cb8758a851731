#!/usr/bin/env bash
# Local CI gate: formatting, lints, tests, and the conversation-space
# static-analysis pass over the committed artifacts.
#
# Advisory lints (clippy::unwrap_used, clippy::todo, clippy::dbg_macro)
# are configured at warn level through [workspace.lints] in Cargo.toml and
# show up in dev `cargo clippy --all-targets` runs; the gate here denies
# warnings on library and binary code.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test --workspace -q"
# --workspace: the root manifest is itself a package, so a bare
# `cargo test` would run only the facade crate's tests.
cargo test --workspace -q

echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
# Docs gate: every intra-doc link must resolve and every doctest-bearing
# crate must document cleanly.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> spacelint --deny-warnings over artifacts/*_space.json"
# Static gate over every committed conversation space (the built-in MDX
# domain and the data-driven library domain alike), in one pass: the
# OBCS0xx artifact lints and the OBCS1xx whole-space checks (dialogue-flow
# model checking, static query bind-checking, cross-artifact consistency).
for space in artifacts/*_space.json; do
  echo "    $space"
  cargo run -q --release -p obcs-lint --bin spacelint -- --deny-warnings "$space"
done

echo "==> repro export matches artifacts/"
# The committed artifacts are generated, never hand-edited: export them
# afresh into an emptied directory and fail on any byte difference, so a
# change that moves a template, the ontology or the KB envelope must
# regenerate artifacts/ in the same commit.
rm -rf target/artifacts_export
cargo run -q --release -p obcs-bench --bin repro -- export --dir target/artifacts_export > /dev/null
diff -r artifacts target/artifacts_export

echo "==> repro verify --quick"
# The same static pass exactly as the harness runs it (flow exploration
# with the quick state cap; truncation is reported, never silent). Fails
# on any error across every committed space.
cargo run -q --release -p obcs-bench --bin repro -- verify --quick > /dev/null

echo "==> repro perf --quick --check BENCH_perf.json"
# Perf smoke: re-measures the quick profile and fails on a malformed
# baseline, a stage missing from either side (a new stage must commit
# its baseline entry), or any stage >5x slower than the committed
# BENCH_perf.json.
# Stages with a committed speedup floor (min_speedup in the baseline:
# annotate, logreg_train, and the 15k scale stages) also
# fail the run if the shipped implementation stops delivering at least
# that factor over its unoptimised twin.
cargo run -q --release -p obcs-bench --bin repro -- perf --quick --check BENCH_perf.json

echo "==> repro scale --quick --check BENCH_perf.json"
# Indexed-execution gate: re-measures the latency-vs-KB-size curve
# (point lookup, FK join and the three served template shapes at
# 150/1.5k/15k drugs), asserts
# indexed results byte-identical to the scan twin's on every query, and
# enforces the committed 15k-point min_speedup floors (>=10x point
# lookup) plus the 5x regression ceiling against the scale_* subset of
# the baseline.
cargo run -q --release -p obcs-bench --bin repro -- scale --quick --check BENCH_perf.json

echo "==> repro serve --quick --check BENCH_perf.json"
# Serving gate: starts a real obcs-serve server on an ephemeral port,
# asserts served replies byte-identical to an in-process replay of the
# same script, drives the Table 5 intent mix from concurrent socket
# connections, and enforces the 5x regression ceiling on the serve_*
# stages (p50/p99 served-turn latency, run wall time) of the baseline.
cargo run -q --release -p obcs-bench --bin repro -- serve --quick --check BENCH_perf.json

echo "==> repro recover --quick --check BENCH_perf.json"
# Durability gate: seeds a snapshot + WAL directory, logs a mutation
# tail, kills the handle without a snapshot, tears the log tail with
# garbage bytes, and recovers — asserting the recovered KB is
# byte-identical to a live oracle (same JSON image, index count, and
# access paths) and that a server restarted over the
# recovered directory serves byte-identical replies. The committed
# min_speedup floor on recover_vs_rebuild fails the run if recovery
# becomes materially slower than regenerating the world; the 5x
# regression ceiling covers every recover_* stage, including the
# recover_compact timing of DurableKb::snapshot().
cargo run -q --release -p obcs-bench --bin repro -- recover --quick --check BENCH_perf.json

echo "==> protocol spec round-trip (docs/PROTOCOL.md vs serde types)"
# Doc-rot gate: every fenced json example in docs/PROTOCOL.md must parse
# as a protocol message and survive an encode/decode round trip.
cargo test -q -p obcs-serve --test protocol_doc > /dev/null

echo "==> servebench self-tests + clinic/deep_kb smokes"
# The served-conversation benchmark (BENCHMARK.json) is a workspace of
# its own with path deps on crates/*, so nothing above builds it: run
# its self-tests, then a one-second run of each workload. A run exits
# non-zero unless it is correct — served replies match the in-process
# replay digests — so this also fails on a crates/* API change that stops
# the benchmark from building.
cargo test -q --offline --manifest-path servebench/Cargo.toml > /dev/null
for workload in clinic deep_kb; do
  cargo run -q --release --offline --manifest-path servebench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 > /dev/null
done
# One per-layer run: it exits non-zero when the engine's named stages
# stop adding up to the `turn` span or when its passes disagree, so a
# span added, removed or renamed on the turn path fails here.
cargo run -q --release --offline --manifest-path servebench/Cargo.toml -- \
  --workload clinic --seed 1 --seconds 1 --trace 1 > /dev/null

echo "==> spacelint over a large-world export"
# Bind-checks the static-analysis chain at scale: export a 1000-drug
# world (auto-indexed KB included) to target/ and run the same OBCS0xx +
# OBCS1xx gate the committed artifacts get. Guards against the pass
# degrading on large KBs.
cargo run -q --release -p obcs-bench --bin repro -- export --drugs 1000 \
  --dir target/large_world > /dev/null
cargo run -q --release -p obcs-lint --bin spacelint -- --deny-warnings \
  target/large_world/mdx_space.json

echo "==> repro trace --quick"
# Observability smoke: traced replay of the quick profile; validates the
# emitted JSONL trace and fails on a malformed line (the trace itself is
# deterministic — tick timing — so this also exercises the merge path).
cargo run -q --release -p obcs-bench --bin repro -- trace --quick \
  --out target/trace_quick.jsonl > /dev/null

echo "==> repro chaos --quick"
# Robustness smoke: replays the quick profile under the seeded fault plan
# and fails on a panic, a nondeterministic trace/record sequence across
# parallelism, or any injected fault that was neither recovered by a
# retry nor surfaced as a degraded reply.
cargo run -q --release -p obcs-bench --bin repro -- chaos --quick > /dev/null

echo "CI gate passed."
