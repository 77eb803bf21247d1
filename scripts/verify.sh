#!/usr/bin/env bash
# Lints + release build + tier-1 test suite + the per-crate robustness suites,
# and a final check that the run changed no file git can see.
#
# Usage: scripts/verify.sh
# Run from the repository root (or anywhere inside it).

set -euo pipefail
cd "$(dirname "$0")/.."

# compared with the end state by the last step
tree_before="$(git status --porcelain)"

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --check

# prose and code that name a deleted item describe something that is gone
# (searched: code, scripts and the user-facing docs, not the history and
# plan documents);
# each name is listed with the change that deleted it (a commit, `knobs`
# for the change that turned one-value config fields into constants,
# `one-path` for the change that deleted the divergence policies and store
# manifest versions nothing but their own tests selected, `one-bundle`
# for the change that left one sealed bundle directory and one checksum
# algorithm, or `one-graph` for the change that gave the in-memory graph
# its CSR layout and retired the per-entity Vec layout); names
# that live code still uses, such as std's `connect_timeout`, cannot be
# listed
deleted_names() {
  cat <<'EOF'
with_weight_decay 2787769
get_or_create_with 2787769
regeneration_note 2787769
relation_cooccurrence 2787769
without_triples 2787769
read_triples_strict 2787769
histogram_with_bounds 2787769
open_with_registry 2787769
relevant_nodes 2787769
fmt_mean_std 2787769
fold_means 2787769
Resident 2787769
resident_fwd 2787769
resume_from_checkpoint 2787769
is_killed 2787769
field_str 2787769
is_manual 2787769
Sgd bee8a5e
train_model bee8a5e
train_streaming bee8a5e
ChaosFileStats bee8a5e
dropout_scale bee8a5e
CheckpointConfig knobs
every_epochs knobs
batch_max knobs
episode_mask_prob knobs
max_label_dist knobs
max_rules_per_head knobs
enclosing_empty knobs
beta1 knobs
beta2 knobs
RunSummary knobs
ClipAndWarn one-path
Rollback one-path
lr_decay one-path
sanitize_grads one-path
GradSanitized one-path
RolledBack one-path
restored_epoch one-path
sanitized_batches one-path
batches_sanitized one-path
track_rollback one-path
last_good one-path
MAGIC_V2 one-path
Fnv1a64 one-path
checksum_of_version one-path
PREAD_FAILPOINT one-path
rewrite_as_v2 one-path
save_bundle_file one-bundle
load_bundle_file one-bundle
save_bundle_dir one-bundle
load_bundle_dir one-bundle
scrub_bundle_dir one-bundle
DIR_MANIFEST_NAME one-bundle
DIR_MAGIC one-bundle
CountingReader one-bundle
params_checksum one-bundle
copy_hashed one-bundle
Fnv64 one-bundle
fnv64 one-bundle
checkpoint_at one-bundle
MAX_MANIFEST_LINE one-bundle
save_params_file one-bundle
load_params_file one-bundle
Vec-of-Vecs one-graph
EOF
}
echo "== no file names a deleted item =="
stale="$(deleted_names | awk '{ print $1 }' |
  git grep --untracked -nwF -f - -- crates src tests examples scripts \
    README.md DESIGN.md EXPERIMENTS.md ':!scripts/verify.sh' || true)"
if [ -n "$stale" ]; then
  echo "verify.sh: these lines name deleted items (see deleted_names in scripts/verify.sh):" >&2
  echo "$stale" >&2
  exit 1
fi

# the compiler decides the library surface: every public fn, type, const,
# module and named field is made crate-private on a copy of the tree (under
# target/) and `cargo check` restores `pub` where another crate, bin,
# example, bench or test needs it
echo "== no public item that no other compiled target needs =="
uncalled="$(scripts/uncalled_pub.sh)"
if [ -n "$uncalled" ]; then
  echo "verify.sh: public items that no compiled target outside their crate needs:" >&2
  echo "$uncalled" >&2
  exit 1
fi

# every intra-doc link resolves (a deleted or private item fails here); the
# vendored stand-ins for external crates are not ours to document
echo "== cargo doc -D warnings (rmpi crates) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps \
  --exclude proptest --exclude rand --exclude criterion -q

echo "== benchmark: rmpi_perf compiles against the libraries, wiring + BENCHMARK.json tests =="
cargo test -q -p rmpi-bench --bin rmpi_perf

echo "== cargo build --release =="
cargo build --release

# Table I and the structure report only run the generators (~0.2 s, no
# training); the rmpi-bench lib step below compares both, and one trained
# row, with the committed results/tables.txt
echo "== experiment tables: rmpi_tables table1_stats + dataset_report =="
cargo run --release -q -p rmpi-bench --bin rmpi_tables -- table1_stats >/dev/null
cargo run --release -q -p rmpi-bench --bin rmpi_tables -- dataset_report >/dev/null

echo "== cargo test -q (tier-1: root package) =="
cargo test -q

# tier-1 runs the root package only, and the steps below pick single suites,
# so without this step no gate runs these crates' unit tests and proptests
# (the relation view's and the pruning BFS's, the layers' gradcheck, ...)
echo "== unit tests + proptests: subgraph and core libraries, baselines, autograd, kg, eval =="
cargo test -q -p rmpi-subgraph -p rmpi-core --lib
cargo test -q -p rmpi-baselines -p rmpi-autograd -p rmpi-kg -p rmpi-eval

# the remaining suites no other step runs: the generators', the metrics
# registry's, the schema's and the test utilities' own tests, the bench
# harness's argument parsing and its check against results/tables.txt, and
# the model's proptests
echo "== unit tests + proptests: datasets, obs, schema, testutil, bench harness, core proptests =="
cargo test -q -p rmpi-datasets -p rmpi-obs -p rmpi-schema -p rmpi-testutil
cargo test -q -p rmpi-bench --lib
cargo test -q -p rmpi-core --test proptests

# 2 s is twice the shortest run in which all 16 rank queries are answered
# (the answer check's coverage floor); writes only under target/bench/
echo "== benchmark smoke: traced rank_cold — replay asserts, answer check, stage reconciliation =="
cargo run --release -q -p rmpi-bench --bin rmpi_perf -- \
  --workload rank_cold --seed 1 --seconds 2 --trace 1 >/dev/null

# the store-backed cold path end to end: pin on the worker's recycled view,
# sorted edge sweep, every answer checked against offline scoring; 2 s passes
# the sample floors, and the store it builds lives under target/bench/
echo "== benchmark smoke: traced store_cold — pin + extraction over the on-disk store, answer check =="
cargo run --release -q -p rmpi-bench --bin rmpi_perf -- \
  --workload store_cold --seed 1 --seconds 2 --trace 1 >/dev/null

# the routed rank on the caller's thread: session submissions, one reply
# channel per rank, merge; every answer checked against offline ranking.
# 0.2 s is the shortest run whose answer check passes on one core (all 8
# queries answered in both traced phases); 0.4 s doubles it. Writes only
# under target/bench/
echo "== benchmark smoke: traced router_rank — scatter-gather over three replicas, answer check =="
cargo run --release -q -p rmpi-bench --bin rmpi_perf -- \
  --workload router_rank --seed 1 --seconds 0.4 --trace 1 >/dev/null

echo "== determinism: threads=1 vs threads=4 vs threads=0, in-memory source and store source =="
cargo test -q -p rmpi-core --test parallel_determinism

echo "== message-passing oracle: batched forward vs per-message reference, scores bit-identical =="
cargo test -q -p rmpi-core --test message_passing_oracle

echo "== extraction equivalence: dense-scratch path over the CSR graph vs reference (proptest) =="
cargo test -q -p rmpi-subgraph --test proptests

echo "== relation-view oracle: counting build vs the sorted layout, implicit incoming() vs the materialised line graph, per-type order (proptest) =="
cargo test -q -p rmpi-subgraph --test relview_oracle

echo "== zero-allocation steady state: counting allocator over warm extraction and the relation view =="
cargo test -q -p rmpi-subgraph --test zero_alloc

echo "== zero-allocation forward: warm re-score allocates nothing, tape storage plateaus, training copies no parameter =="
cargo test -q -p rmpi-core --test zero_alloc

echo "== kernel micro-bench smoke: matmuls, reductions, scratch backward (10 ms window) =="
RMPI_BENCH_MS=10 cargo bench -q -p rmpi-bench --bench bench_kernels >/dev/null

echo "== relation-view micro-bench smoke: build, schedule, read, combined (10 ms window) =="
RMPI_BENCH_MS=10 cargo bench -q -p rmpi-bench --bench relview_transform >/dev/null

echo "== storage micro-bench smoke: in-memory adjacency scan, warm/recycled/cold pins, XXH64 per block (10 ms window) =="
RMPI_BENCH_MS=10 cargo bench -q -p rmpi-bench --bench graph_storage >/dev/null

echo "== store: tiny on-disk world, pin contract + extraction equivalence (proptest), warm pins allocate nothing, corruption rejection, scrub =="
cargo test -q -p rmpi-store
cargo test -q --test store_stack

echo "== one training loop: store source == memory source in record order (bit-identical), store source across thread counts, epoch permutation is a bijection =="
cargo test -q -p rmpi-core --lib -- store_source_trains_bit_identically stream::

echo "== worker pool: unit tests + fault-injected shards (own process) =="
cargo test -q -p rmpi-runtime

echo "== serving layer: bundle + engine (disk-fault floors) + protocol + micro-batcher unit tests =="
cargo test -q -p rmpi-serve --lib

echo "== serve smoke test: ephemeral-port server, scripted query batch, offline parity =="
cargo test -q -p rmpi-serve --test serving

echo "== fault suite: divergence guards (skip + abort on both sources), worker panics, store read faults, checkpoint write failures =="
cargo test -q -p rmpi-core --test fault_injection

echo "== crash-resume suite: panic mid-epoch on both sources and real SIGKILL, resume, bit-identical at every thread count =="
cargo test -q -p rmpi-core --test crash_resume

echo "== serve fault suite: hot reload atomicity, panic isolation, diagnostics naming file and line, cut re-saves =="
cargo test -q -p rmpi-serve --test faults

echo "== bundle durability: every bit flip of BUNDLE and params refused and reported, graph flips never served silently (proptest) =="
cargo test -q -p rmpi-serve --test bitflip

echo "== protocol fuzz: garbage, binary, overlong lines, interleaved v1/v2 tagged pipelining =="
cargo test -q -p rmpi-serve --test fuzz_protocol

echo "== resilient client unit tests: sessions, retry classification, backoff, budget, breaker, deadline-bounded connects and probes =="
cargo test -q -p rmpi-client --lib

echo "== chaos soak: faulty replicas, pipelined sessions, mid-pipeline cuts, zero wrong scores =="
cargo test -q -p rmpi-client --test soak

echo "== observability: instrumented train + serve + resilience counters, present and nonzero =="
cargo test -q --test observability

echo "== router: chaos (shard kill mid-rank -> bit-identical partial top-k, hedging), front-end conformance =="
cargo test -q -p rmpi-router

echo "== clean tree: the run left git status as it found it =="
tree_after="$(git status --porcelain)"
if [ "$tree_before" != "$tree_after" ]; then
  echo "verify.sh: the run changed what git sees (< before, > after):" >&2
  diff <(echo "$tree_before") <(echo "$tree_after") >&2 || true
  exit 1
fi

echo "verify.sh: all checks passed"
