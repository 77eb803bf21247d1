//! The RMPI model (paper §III) and a generic subgraph-model trainer.
//!
//! RMPI scores a candidate triple by reasoning over the *relation view* of
//! its enclosing subgraph:
//!
//! 1. extract the K-hop enclosing subgraph, transform it to a relation-view
//!    graph with the target triple as node 0 ([`sample`]);
//! 2. initialise every relation node from either a learnable embedding table
//!    or a projection of schema TransE vectors (Eq. 10, [`encode`]);
//! 3. run K pruned relational message passing layers with per-edge-type
//!    transforms and optional target-aware attention (Eq. 6–9, [`layers`]);
//! 4. optionally aggregate the one-hop disclosing neighbourhood to rescue
//!    empty subgraphs (Eq. 13–14, the NE module, on with [`RmpiConfig::ne`]);
//! 5. score through a linear readout with SUM or CONC fusion
//!    (Eq. 11/15/16, inside [`RmpiModel`]).
//!
//! Everything trainable is expressed through [`rmpi_autograd`], so one
//! [`Trainer`] loop (margin ranking loss Eq. 12 + Adam) serves
//! RMPI and all baselines via the [`ScoringModel`] trait.

#![warn(missing_docs)]

pub(crate) mod checkpoint;
pub mod config;
pub mod encode;
pub mod layers;
pub mod loss;
pub(crate) mod model;
pub(crate) mod ne;
pub mod sample;
pub(crate) mod stream;
pub mod trainer;
pub(crate) mod traits;

// The integration suites' fixtures, shared with the unit tests; they name
// this crate as an outside caller would.
#[cfg(test)]
extern crate self as rmpi_core;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_common;

pub use checkpoint::{latest_checkpoint, load_checkpoint, save_checkpoint, TrainCheckpoint};
pub use config::{Fusion, RelationInit, RmpiConfig};
pub use model::{ModelAssemblyError, RmpiModel};
pub use sample::SampleInput;
pub use trainer::{DivergencePolicy, TrainConfig, TrainEvent, TrainReport, Trainer};
pub use traits::{Mode, ScoringModel};
