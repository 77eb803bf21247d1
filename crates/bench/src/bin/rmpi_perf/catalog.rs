//! The benchmark's contract in one place: the workloads, the end-to-end
//! metrics with their regression bounds, and the per-layer metrics with the
//! end-to-end numbers each is expected to move. `BENCHMARK.json` at the
//! repository root is this module printed by `rmpi_perf manifest`.

/// What the model under test looks like.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModelKind {
    /// RMPI-NE-TA, dim 32, hop 2, 2 layers, 300-edge subgraph cap (§IV-B).
    Paper,
    /// dim 4, 1 layer, hop 1, 64-edge cap: a forward pass of a few µs, so
    /// everything around the model dominates.
    Tiny,
}

/// Which graph the workload runs against.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum World {
    /// `nell.v1` quick-scale test graph: 1723 triples, 208 entities, 191 targets.
    NellTest,
    /// `nell.v1` quick-scale training graph: 2264 triples, 283 validation triples.
    NellTrain,
    /// A streamed synthetic world of 20 000 entities (≈195 k triples), in RAM
    /// or written to an `rmpi-store` directory and read back through it.
    Stream { on_disk: bool },
}

/// How load is applied. Every loop is closed: a client sends its next
/// request only after the previous reply.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Drive {
    /// `Trainer` epochs; op = one training sample.
    Train,
    /// `SCORE`: two sessions pipelining `depth` requests each, then one
    /// session serially. `hot` repeats a cached set; otherwise every target
    /// is new. Op = one triple scored.
    Score { hot: bool, depth: usize },
    /// One session sending `RANK` serially, to one replica or through the
    /// router over three. Op = one candidate scored.
    Rank { routed: bool },
}

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: which layer does most of the work
    /// here and which does almost none.
    pub why: &'static str,
    pub world: World,
    pub model: ModelKind,
    pub cache_capacity: usize,
    pub drive: Drive,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "train_epoch",
        why: "Trainer epochs on the nell.v1 train graph: the only workload where backward, Adam, \
              train-mode extraction and validation do work",
        world: World::NellTrain,
        model: ModelKind::Paper,
        cache_capacity: 0,
        drive: Drive::Train,
    },
    Workload {
        name: "score_warm",
        why:
            "SCORE over a cached hot set, paper model: forward pass and cache-hit path are nearly \
              all the work, extraction does none",
        world: World::NellTest,
        model: ModelKind::Paper,
        cache_capacity: 4096,
        drive: Drive::Score { hot: true, depth: 16 },
    },
    Workload {
        name: "score_edge",
        why:
            "same traffic with a model of a few microseconds: protocol, batcher, session demux and \
              syscalls are the work; a forward-pass change must show nothing",
        world: World::NellTest,
        model: ModelKind::Tiny,
        cache_capacity: 4096,
        drive: Drive::Score { hot: true, depth: 16 },
    },
    Workload {
        name: "rank_cold",
        why:
            "serial RANK over all 208 entities, working set far beyond the cache: every candidate \
              re-extracts the same head's neighbourhood and the LRU evicts continuously",
        world: World::NellTest,
        model: ModelKind::Paper,
        cache_capacity: 1024,
        drive: Drive::Rank { routed: false },
    },
    Workload {
        name: "router_rank",
        why: "warm RANK of 96 candidates through the router over three replicas: scatter/gather, \
              shard sessions, deadlines and merge are the work",
        world: World::NellTest,
        model: ModelKind::Paper,
        cache_capacity: 65_536,
        drive: Drive::Rank { routed: true },
    },
    Workload {
        name: "score_cold",
        why:
            "distinct true triples of a 20k-entity world in RAM, every request a miss: extraction \
              and the relation view are most of the work, the forward pass least",
        world: World::Stream { on_disk: false },
        model: ModelKind::Paper,
        cache_capacity: 1024,
        drive: Drive::Score { hot: false, depth: 8 },
    },
    Workload {
        name: "store_cold",
        why: "score_cold's targets in the same order through the on-disk store: the difference is \
              the store's cost, and peak RSS here is the number the store exists for",
        world: World::Stream { on_disk: true },
        model: ModelKind::Paper,
        cache_capacity: 1024,
        drive: Drive::Score { hot: false, depth: 8 },
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How long one run measures; `--seconds` below this is a smoke run.
pub const RUN_SECONDS: u64 = 15;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every time metric is taken per slice of its phase and summed up by
/// [`crate::stats::fast_octile`]. The bounds are the 0.25 the driver allows:
/// the box is a shared two-core VM, and when its neighbours are busy, which
/// lasts for tens of minutes, even the fast octile moves by 10–15 % (see
/// `BASELINE.md`). Memory has the same bound because `rank_cold`'s peak RSS
/// (102–118 MiB: a 1024-entry cache filled from a dozen threads' arenas)
/// spreads by 8 % between seeds, and a bound should be three spreads wide.
///
/// `cpu_ms_per_op` is not here: it was, and the check that accepts this
/// benchmark saw its ten-seed quartile spread reach 29 % on `score_cold`; on
/// `router_rank` and `score_edge`, where an op costs 20–250 µs of CPU spread
/// over a dozen threads, it reached 25 % here. By the issue's rule (a metric
/// that needs more than 15 % is demoted) it is the per-layer metric
/// `harness.cpu_ms_per_op`. `fail_ratio` is not here because it is 0 on
/// every workload by design and a bound is a share of the parent's median:
/// failures are the `failed` count of the result line, and any failure makes
/// the run incorrect.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "throughput_per_s", unit: "ops/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "latency_p50_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "latency_p90_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric on which workload a change here should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

use Better::{Higher, Lower};

/// The layer of a metric is the crate named before the first dot.
pub const PER_LAYER: [PerLayer; 61] = [
    layer("datasets.build_ms", "ms", Lower, "setup_s everywhere"),
    layer("kg.csr_build_ms", "ms", Lower, "setup_s on serving workloads"),
    layer("store.build_ms", "ms", Lower, "setup_s on store_cold"),
    layer("store.pin_us", "us", Lower, "tp, p50 on store_cold only"),
    layer("store.segment_reads_per_op", "count", Lower, "tp, p50 on store_cold only"),
    layer("store.bytes_scanned_per_op", "B", Lower, "tp, p50 on store_cold only"),
    layer("store.index_hits_per_op", "count", Lower, "tp, p50 on store_cold only"),
    layer(
        "subgraph.extract_us",
        "us",
        Lower,
        "tp, p50, p90 on score_cold (most), store_cold, rank_cold, train_epoch; nothing on \
         score_warm, score_edge, router_rank",
    ),
    layer("subgraph.extract_edges_per_op", "count", Lower, "explains subgraph.extract_us"),
    layer("subgraph.extract_entities_per_op", "count", Lower, "explains subgraph.extract_us"),
    layer("subgraph.relview_us", "us", Lower, "as subgraph.extract_us"),
    layer("subgraph.relview_nodes_per_op", "count", Lower, "explains subgraph.relview_us"),
    layer("subgraph.relview_edges_per_op", "count", Lower, "explains subgraph.relview_us"),
    layer("subgraph.schedule_us", "us", Lower, "as subgraph.extract_us"),
    layer("subgraph.cache_hit_us", "us", Lower, "tp on score_warm, router_rank"),
    layer("subgraph.cache_hit_allocs_per_op", "count", Lower, "explains subgraph.cache_hit_us"),
    layer(
        "subgraph.cache_hit_ratio",
        "ratio",
        Higher,
        "validity: ~1 on score_warm, score_edge, router_rank; ~0 on rank_cold, score_cold, store_cold",
    ),
    layer("subgraph.cache_evictions_per_op", "count", Lower, "validity: 0 when hot, ~1 when cold"),
    layer("core.prepare_us", "us", Lower, "tp, p50 on score_cold, store_cold, rank_cold"),
    layer("core.prepare_self_us", "us", Lower, "as core.prepare_us"),
    layer("core.prepare_allocs_per_op", "count", Lower, "explains core.prepare_us"),
    layer(
        "core.forward_us",
        "us",
        Lower,
        "tp, p50 on score_warm (most); tp on router_rank, rank_cold, train_epoch; least on \
         score_cold; nothing on score_edge",
    ),
    layer("core.forward_tape_nodes", "count", Lower, "explains core.forward_us"),
    layer("core.forward_allocs_per_op", "count", Lower, "explains core.forward_us"),
    layer("core.train_prepare_us", "us", Lower, "tp, p50 on train_epoch only"),
    layer("core.train_forward_us", "us", Lower, "tp, p50 on train_epoch only"),
    layer("core.train_batch_us", "us", Lower, "tp, p50 on train_epoch only"),
    layer("autograd.forward_flops_per_op", "count", Lower, "explains core.forward_us; constant"),
    layer("autograd.forward_bytes_per_op", "B", Lower, "explains core.forward_us; constant"),
    layer("autograd.backward_us", "us", Lower, "tp, p50 on train_epoch only"),
    layer("autograd.optim_step_us", "us", Lower, "tp, p50 on train_epoch only"),
    layer(
        "runtime.pool_dispatch_us",
        "us",
        Lower,
        "p50 on score_warm, score_edge (one dispatch per flush); tp on train_epoch",
    ),
    layer("runtime.pool_busy_ratio", "ratio", Higher, "how much of the wall the one worker computes"),
    layer("serve.parse_us", "us", Lower, "tp on score_edge; nothing elsewhere"),
    layer("serve.format_us", "us", Lower, "tp on score_edge; nothing elsewhere"),
    layer("serve.engine_score_us", "us", Lower, "tp on score_warm, score_cold"),
    layer("serve.engine_self_us", "us", Lower, "tp on score_warm, score_edge"),
    layer("serve.engine_rank_us", "us", Lower, "tp, p50 on rank_cold"),
    layer("serve.engine_rank_self_us", "us", Lower, "tp on rank_cold"),
    layer(
        "serve.batcher_submit_us",
        "us",
        Lower,
        "p50, p90 of the serial phases of score_warm, score_edge, score_cold, store_cold",
    ),
    layer("serve.batcher_self_us", "us", Lower, "the batch window: floor under every serial p50"),
    layer(
        "serve.batch_size_mean",
        "count",
        Higher,
        "tp on score_edge, score_warm (larger batches, higher tp, longer serial latency)",
    ),
    layer("serve.rejected_per_op", "count", Lower, "failed; must stay 0"),
    layer("client.ping_rtt_us", "us", Lower, "tp, p50 on score_edge"),
    layer("client.score_rtt_us", "us", Lower, "p50 on score_warm, score_edge, score_cold"),
    layer("client.wire_self_us", "us", Lower, "tp, p50 on score_edge"),
    layer("client.pipelined_us_per_req", "us", Lower, "tp on score_edge, score_warm"),
    layer("client.rank_rtt_us", "us", Lower, "p50 on rank_cold"),
    layer("client.sessions_opened", "count", Lower, "must equal the client count"),
    layer("router.rank_us", "us", Lower, "tp, p50, p90 on router_rank only"),
    layer("router.front_rtt_us", "us", Lower, "tp, p50, p90 on router_rank only"),
    layer("router.front_self_us", "us", Lower, "tp, p50 on router_rank only"),
    layer("router.shard_call_us", "us", Lower, "p50 on router_rank: the slowest of three sets it"),
    layer(
        "router.overhead_ratio",
        "ratio",
        Lower,
        "routed RANK over one SCORE batch of the same triples to one replica; tp on router_rank",
    ),
    layer("router.merge_us", "us", Lower, "tp on router_rank only"),
    layer("router.hedges_per_op", "count", Lower, "must stay 0"),
    layer("router.shard_errors_per_op", "count", Lower, "must stay 0"),
    layer("harness.trace_overhead_ratio", "ratio", Higher, "traced over untraced throughput"),
    layer(
        "harness.cpu_ms_per_op",
        "ms",
        Lower,
        "process user+sys CPU over the traced phases per op: faster by burning the other core shows here",
    ),
    layer(
        "harness.generator_cpu_share",
        "ratio",
        Lower,
        "above 0.5 the workload measures the generator",
    ),
    layer(
        "harness.reconcile_worst_ratio",
        "ratio",
        Lower,
        "largest children-over-parent stage sum; above 1.25 the traced run fails",
    ),
];

/// Names of the metrics a run reports: per-layer when traced, end-to-end otherwise.
pub fn metric_names(trace: bool) -> Vec<&'static str> {
    if trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    }
}

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> &'static str {
    let units = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
    units.into_iter().find(|(n, _)| *n == name).map(|(_, unit)| unit).expect("a catalogued metric")
}

fn better_str(b: Better) -> &'static str {
    match b {
        Better::Higher => "higher",
        Better::Lower => "lower",
    }
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let manifest_dir = "crates/bench/src/bin/rmpi_perf";
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"-q\", \
         \"--manifest-path\", \"{manifest_dir}/Cargo.toml\", \"--\"],\n"
    ));
    s.push_str(&format!("  \"paths\": [\"{manifest_dir}\"],\n"));
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |items: Vec<String>| items.join(",\n");
    s.push_str("  \"workloads\": [\n");
    s.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    ));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    s.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    better_str(m.better),
                    m.bound
                )
            })
            .collect(),
    ));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    s.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    better_str(m.better)
                )
            })
            .collect(),
    ));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
    }

    #[test]
    fn catalogue_obeys_the_manifest_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for w in &WORKLOADS {
            let plain = !w.why.contains(['"', '\\', '\n']) && !w.why.contains("  ");
            assert!(w.why.len() <= 200 && plain, "{}: why is {} chars", w.name, w.why.len());
        }
        let unit_ok = |u: &str| {
            u.len() <= 16 && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(manifest_json().len() < 64 * 1024);
    }

    /// `BENCHMARK.json` is generated, never edited: `rmpi_perf manifest >
    /// BENCHMARK.json`. The file sits at the root of whichever package the
    /// test was built from — five levels up for the standalone package, two
    /// for `rmpi-bench`.
    #[test]
    fn benchmark_json_is_the_printed_catalogue() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find(|d| d.join("BENCHMARK.json").is_file())
            .expect("BENCHMARK.json above the package");
        let on_disk = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("read");
        assert_eq!(on_disk, manifest_json(), "regenerate with `rmpi_perf manifest`");
    }
}
