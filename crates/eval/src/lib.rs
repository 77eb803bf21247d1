//! Evaluation metrics, protocols and the multi-seed experiment runner
//! (paper §IV-B).
//!
//! * [`metrics`] — AUC-PR (average precision), MRR and Hits@n;
//! * [`protocol`] — triple classification (one sampled negative per
//!   positive) and entity prediction (rank the ground truth against 49
//!   sampled candidates, head and tail sides);
//! * [`runner`] — train-and-evaluate over multiple seeds, with threads, and
//!   mean/std aggregation;
//! * [`onto`] — schema TransE vectors packaged for model construction;
//! * [`stats`] — paired bootstrap / sign-flip significance tests over
//!   per-item scores from [`protocol::entity_prediction_paired`];
//! * [`report`] — plain-text table rendering for the experiment binaries;
//! * [`cases`] — the Fig. 4-style case-study extraction.

#![warn(missing_docs)]

pub mod cases;
pub mod metrics;
pub mod onto;
pub mod protocol;
pub mod report;
pub mod runner;
pub mod stats;

pub use metrics::{average_precision, hits_at, mean_reciprocal_rank};
pub use protocol::{entity_prediction, triple_classification, EvalConfig, EvalMetrics};
pub use runner::{run_experiment, ModelFactory};
