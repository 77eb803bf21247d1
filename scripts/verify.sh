#!/usr/bin/env bash
# Release build + tier-1 test suite + thread-count determinism check.
#
# Usage: scripts/verify.sh
# Run from the repository root (or anywhere inside it).

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --check

echo "== benchmark: rmpi_perf compiles against the libraries, wiring + BENCHMARK.json tests =="
cargo test -q -p rmpi-bench --bin rmpi_perf

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q (tier-1: root package) =="
cargo test -q

# 2 s is twice the shortest run in which all 16 rank queries are answered
# (the answer check's coverage floor); writes only under target/bench/
echo "== benchmark smoke: traced rank_cold — replay asserts, answer check, stage reconciliation =="
cargo run --release -q -p rmpi-bench --bin rmpi_perf -- \
  --workload rank_cold --seed 1 --seconds 2 --trace 1 >/dev/null

echo "== determinism: threads=1 vs threads=4 vs threads=0 =="
cargo test -q -p rmpi-core --test parallel_determinism

echo "== message-passing oracle: batched forward vs per-message reference, scores bit-identical =="
cargo test -q -p rmpi-core --test message_passing_oracle

echo "== extraction equivalence: CSR + dense-scratch path vs reference (proptest) =="
cargo test -q -p rmpi-subgraph --test proptests

echo "== relation-view oracle: implicit incoming() vs the materialised line graph, exact order (proptest) =="
cargo test -q -p rmpi-subgraph --test relview_oracle

echo "== zero-allocation steady state: counting allocator over warm extraction and the relation view =="
cargo test -q -p rmpi-subgraph --test zero_alloc

echo "== kernel micro-bench smoke: matmuls, reductions, scratch backward (10 ms window) =="
RMPI_BENCH_MS=10 cargo bench -q -p rmpi-bench --bench bench_kernels >/dev/null

echo "== store: tiny on-disk world, extraction equivalence (proptest), corruption rejection =="
cargo test -q -p rmpi-store
cargo test -q -p rmpi-core stream::
cargo test -q --test store_stack

echo "== store bench smoke: build + seek + scan + extract on a tiny world (10 ms scale) =="
SCRUB_DIR="$(mktemp -d)/world.store"
cargo run --release -q -p rmpi-bench --bin bench_store -- --smoke --dir "$SCRUB_DIR" >/dev/null

echo "== scrub smoke: integrity pass over the store the bench just built =="
cargo run --release -q -p rmpi-bench --bin rmpi_scrub -- "$SCRUB_DIR" >/dev/null
rm -rf "$(dirname "$SCRUB_DIR")"

echo "== worker pool: unit tests + fault-injected shards (own process) =="
cargo test -q -p rmpi-runtime

echo "== serving layer: bundle + engine + protocol + micro-batcher unit tests =="
cargo test -q -p rmpi-serve --lib

echo "== serve smoke test: ephemeral-port server, scripted query batch, offline parity =="
cargo test -q -p rmpi-serve --test serving

echo "== fault suite: divergence guards, worker panics, checkpoint write failures =="
cargo test -q -p rmpi-core --test fault_injection

echo "== crash-resume suite: kill mid-epoch, resume, bit-identical at every thread count =="
cargo test -q -p rmpi-core --test crash_resume

echo "== serve fault suite: hot reload atomicity, panic isolation, byte-offset diagnostics =="
cargo test -q -p rmpi-serve --test faults

echo "== bundle durability: single-bit flips never serve silently wrong scores (proptest) =="
cargo test -q -p rmpi-serve --test bitflip

echo "== protocol fuzz: garbage, binary, overlong lines, interleaved v1/v2 tagged pipelining =="
cargo test -q -p rmpi-serve --test fuzz_protocol

echo "== resilient client unit tests: sessions, retry classification, backoff, budget, breaker =="
cargo test -q -p rmpi-client --lib

echo "== chaos soak: faulty replicas, pipelined sessions, mid-pipeline cuts, zero wrong scores =="
cargo test -q -p rmpi-client --test soak

echo "== observability: instrumented train + serve + resilience counters, present and nonzero =="
cargo test -q --test observability

echo "== crash-recovery smoke: train -> SIGKILL mid-epoch -> resume -> metrics bit-identical =="
cargo run --release -q -p rmpi-bench --bin bench_resume

echo "== chaos smoke: availability under injected faults, failover to a healthy standby =="
cargo run --release -q -p rmpi-bench --bin bench_chaos -- --requests 30 --rates 0.0,0.25

echo "== disk-fault smoke: retried transients, checksum-caught bit flips, degraded mode =="
cargo run --release -q -p rmpi-bench --bin bench_diskfault -- --smoke >/dev/null

echo "== router: chaos (shard kill mid-rank -> bit-identical partial top-k, hedging), front-end conformance =="
cargo test -q -p rmpi-router

echo "== router smoke: availability + rank coverage vs single-shard fault rate, standby rescue =="
cargo run --release -q -p rmpi-bench --bin bench_router -- --smoke

echo "verify.sh: all checks passed"
