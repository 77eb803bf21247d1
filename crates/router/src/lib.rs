//! `rmpi-router` — a scatter-gather front end for a fleet of `rmpi-serve`
//! replicas, speaking the same v1/v2 line protocol on both sides.
//!
//! A single replica ranks its whole candidate set per `RANK`; the router
//! splits that work across N shard replicas and merges the per-shard
//! results into a globally correct top-k. The engine's determinism contract
//! (served scores are bit-identical to offline scoring) is what makes the
//! split sound: scoring is entity-independent, so a candidate's score does
//! not depend on which replica computes it, and merging with the engine's
//! exact tie-break reproduces the single-machine ranking byte for byte.
//!
//! - [`shard_slices`] and [`merge_ranked`]: candidate sharding and the exact
//!   top-k merge (the correctness argument lives with them).
//! - [`Router`]: the scatter-gather core — per-shard sessions, breakers and
//!   rescue budgets (reusing `rmpi-client`), an end-to-end deadline budget
//!   that bounds each shard's connect and travels to each shard call as a
//!   `DEADLINE` hint, hedged duplicates to a standby that race a primary
//!   past its latency p99, and the `fail`/`partial` degradation policy. A
//!   rank runs on its caller's thread and starts none: shard calls are
//!   session submissions answered on one channel per rank.
//! - [`serve_router`]: the TCP front end — `RANK` scatter-gather, `SCORE`
//!   pass-through with failover, router-level `HEALTH`/`METRICS`
//!   (`router.shard_errors`, `router.hedges`, `router.partial_responses`,
//!   per-shard latency histograms), protocol v2 with `DEADLINE` hints.
//!
//! A partial response is tagged on the wire — `OK partial <covered>/<total>
//! tail:score ...` — and its merged top-k is bit-identical to ranking the
//! surviving candidate subset offline: no wrong entries, no duplicates.

#![warn(missing_docs)]

pub(crate) mod merge;
pub(crate) mod router;
pub(crate) mod server;

pub use merge::{merge_ranked, shard_slices};
pub use router::{PartialPolicy, RankOutcome, Router, RouterConfig, RouterError};
pub use server::{serve_router, RouterHandle};
