//! The everyday-imports prelude: `use rmpi::prelude::*;` pulls in the types
//! that nearly every program touching RMPI needs — graph primitives, the
//! model and trainer, evaluation, benchmark construction, serving, and
//! observability — without reaching into individual sub-crates.
//!
//! ```no_run
//! use rmpi::prelude::*;
//!
//! let benchmark = build_benchmark("nell.v1", Scale::Quick);
//! let mut model = RmpiModel::new(RmpiConfig::default(), benchmark.num_relations(), 0);
//! let report = Trainer::new(TrainConfig { epochs: 1, ..Default::default() }).train(
//!     &mut model,
//!     &benchmark.train.graph,
//!     &benchmark.train.targets,
//!     &benchmark.train.valid,
//! );
//! let _ = report.best_accuracy();
//! ```

pub use crate::error::{Error, Result};

// graph primitives
pub use rmpi_kg::{EntityId, KnowledgeGraph, RelationId, Triple};

// model + training
pub use rmpi_core::{RmpiConfig, RmpiModel, ScoringModel, TrainConfig, TrainReport, Trainer};

// benchmarks
pub use rmpi_datasets::{build_benchmark, Benchmark, Scale, StreamingWorld};

// the out-of-core graph store (`Trainer::train_store` trains over it)
pub use rmpi_store::{build_from_sorted, NeighborhoodView, ReadMode, StoreConfig, StoreReader};

// evaluation
pub use rmpi_eval::protocol::evaluate;
pub use rmpi_eval::{EvalConfig, EvalMetrics};

// serving
pub use rmpi_serve::{
    load_bundle, save_bundle, Bundle, Engine, EngineConfig, GraphBackend, ServeStats,
};

// the resilient serving client: `FailoverClient` retries and fails over
// (over one endpoint or a replica set) and carries the verb methods;
// `Session` is the pipelined transport underneath it
pub use rmpi_client::{ClientConfig, ClientError, FailoverClient, FailoverConfig, Session};

// observability
/// The process-wide metrics registry (see [`rmpi_obs::global`]).
pub use rmpi_obs::global as metrics;
pub use rmpi_obs::MetricsRegistry;
