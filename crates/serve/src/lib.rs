//! `rmpi-serve` — model-bundle artifacts and a batched, subgraph-caching
//! inference service for trained RMPI models.
//!
//! Three layers, each usable on its own:
//!
//! - [`Bundle`]: the one model artifact, a directory (`rmpi-bundle v2`)
//!   whose sealed `BUNDLE` manifest holds a model's configuration, relation
//!   vocabulary and optional schema vectors beside an `rmpi-params v1`
//!   tensor file and, optionally, the graph store it serves, with bit-exact
//!   round-tripping ([`save_bundle`] / [`load_bundle`], [`scrub_bundle`]).
//! - [`Engine`]: an in-process engine that binds a loaded model to an
//!   immutable context graph and answers `score` / `score_batch` /
//!   `rank_tails` queries through a seeded LRU cache of extracted subgraphs,
//!   sharding batches across an `rmpi-runtime` thread pool. Served scores
//!   are bit-identical to offline `RmpiModel::score` with the same seed.
//! - [`serve_lines`]: the one dependency-free TCP connection loop, speaking a
//!   line-delimited protocol ([`protocol`]) on behalf of a [`Handler`]:
//!   bounded queue (backpressure via `ERR server overloaded`), per-request
//!   deadlines, prompt shutdown, per-line panic isolation and hardened
//!   connection handling — bounded request lines, `TCP_NODELAY`,
//!   read/write socket timeouts, idle-connection reaping and a
//!   concurrent-connection cap. [`serve`] instantiates it over an
//!   [`Engine`] behind the cross-connection micro-batcher ([`Batcher`]);
//!   `rmpi-router` instantiates it over its scatter-gather core.
//!
//! Throughput, latency and cache-hit metrics are registry-backed
//! ([`ServeStats`] holds `rmpi-obs` counter/histogram handles), and one
//! verb reads them: the full registry — counters, per-verb latency
//! percentiles, queue wait, cache gauges, the `store.degraded` gauge, plus
//! trainer/pool metrics when they share the process — dumps via
//! `Engine::metrics_json` / wire command `METRICS`.
//!
//! The service is self-healing: request panics are isolated per line
//! (`ERR internal`), `HEALTH` reports readiness, and `RELOAD <path>`
//! hot-swaps the served bundle with validation-before-swap and rollback —
//! see [`Engine::reload_from`]. Bundles are committed by their last write,
//! and a damaged one is refused naming its file and line
//! ([`ServeError::Manifest`], [`ServeError::Corrupt`]).

#![warn(missing_docs)]

pub(crate) mod batcher;
pub(crate) mod bundle;
pub(crate) mod engine;
pub(crate) mod error;
pub(crate) mod lineio;
pub(crate) mod lineserver;
pub mod protocol;
pub(crate) mod server;
pub(crate) mod stats;

pub use batcher::{BatchConfig, Batcher};
pub use bundle::{load_bundle, save_bundle, scrub_bundle, Bundle, BUNDLE_MANIFEST};
pub use engine::{
    rank_top_k, BatchItem, BatchOutcome, Engine, EngineConfig, GraphBackend, ModelSnapshot,
    SCORE_FAILPOINT,
};
pub use error::ServeError;
pub use lineserver::{
    serve_lines, Answer, Call, Handler, LineStats, Reply, ServerConfig, ServerHandle,
};
pub use protocol::{parse_request, parse_tagged, Request};
pub use server::serve;
pub use stats::ServeStats;
