//! # RMPI — Relational Message Passing for Fully Inductive Knowledge Graph Completion
//!
//! A complete Rust reproduction of Geng et al., ICDE 2023. This facade crate
//! re-exports the whole workspace so downstream users depend on one crate:
//!
//! * [`kg`] — knowledge-graph storage, traversal, io and statistics;
//! * [`autograd`] — from-scratch tensors, reverse-mode autodiff, optimisers;
//! * [`subgraph`] — enclosing/disclosing extraction, relation-view transform,
//!   target-guided pruning, negative sampling;
//! * [`schema`] — ontological schema graphs and TransE embeddings;
//! * [`datasets`] — synthetic inductive KGC benchmark generators, including
//!   streaming chunked generation for million-entity worlds;
//! * [`store`] — the out-of-core graph store: sorted on-disk triple
//!   segments behind `GraphAccess`, for worlds too big for RAM;
//! * [`core`] — the RMPI model and trainer (in-memory and store-streaming);
//! * [`baselines`] — GraIL, TACT(-base), CoMPILE and MaKEr-lite;
//! * [`eval`] — metrics, protocols and the experiment runner;
//! * [`serve`] — model bundles and the batched, subgraph-caching inference
//!   service (in-process engine + TCP front end);
//! * [`client`] — the resilient serving client: pipelined multiplexing
//!   sessions (protocol v2 tagged responses) and one retrying client over
//!   them — timeouts, classified retryable-vs-fatal errors, seeded
//!   exponential backoff, retry budgets, and failover across one or more
//!   replicas behind per-endpoint circuit breakers;
//! * [`router`] — the scatter-gather fleet router: sharded `RANK` across
//!   replicas with bit-exact top-k merging, end-to-end deadline budgets,
//!   hedged requests to a standby, and graceful `partial` degradation when
//!   a shard is lost mid-rank;
//! * [`obs`] — the observability layer: the process-wide metrics registry
//!   (counters, gauges, latency histograms with percentiles) and the
//!   single-line JSON writer its dump uses;
//! * [`runtime`] — the scoped data-parallel thread pool.
//!
//! Two facade conveniences tie the workspace together:
//!
//! * [`prelude`] re-exports the everyday types (`use rmpi::prelude::*;`);
//! * [`Error`] unifies the per-crate error enums behind one `?`-friendly
//!   type with full `source()` chains.
//!
//! See `examples/quickstart.rs` for an end-to-end tour,
//! `examples/serving.rs` for the train → bundle → serve pipeline, and
//! `examples/resilient_client.rs` for retrying + failover against live
//! servers.

#![warn(missing_docs)]

pub(crate) mod error;
pub mod prelude;

pub use error::{Error, Result};

pub use rmpi_autograd as autograd;
pub use rmpi_baselines as baselines;
pub use rmpi_client as client;
pub use rmpi_core as core;
pub use rmpi_datasets as datasets;
pub use rmpi_eval as eval;
pub use rmpi_kg as kg;
pub use rmpi_obs as obs;
pub use rmpi_router as router;
pub use rmpi_runtime as runtime;
pub use rmpi_schema as schema;
pub use rmpi_serve as serve;
pub use rmpi_store as store;
pub use rmpi_subgraph as subgraph;
