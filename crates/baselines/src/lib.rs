//! Baseline inductive KGC models the paper compares against (§IV-C).
//!
//! All baselines implement [`rmpi_core::ScoringModel`], so the same trainer
//! and evaluation protocols serve them and RMPI:
//!
//! * [`GrailModel`] — GraIL (Teru et al., ICML 2020): entity-view R-GCN over
//!   the enclosing subgraph with double-radius labels and relation-aware
//!   attention (paper Eq. 1–5). Requires all test relations seen.
//! * [`TactBaseModel`] — TACT's relational-correlation module alone: one-hop
//!   aggregation of the target relation's neighbours grouped by the six
//!   topological patterns. Supports unseen relations (and schema init).
//! * [`TactModel`] — full TACT: GraIL's entity GNN with the target-relation
//!   embedding replaced by the correlation-enriched representation.
//! * [`CompileModel`] — CoMPILE-style communicative message passing with
//!   joint node–edge state updates.
//! * [`MakerLiteModel`] — a MaKEr-style model: relation features fall back
//!   to structural estimates for unseen relations, trained with episodic
//!   relation masking that mimics MaKEr's meta-learning episodes.
//! * [`RuleNModel`] — a statistical rule-mining baseline (the rule-learning
//!   line of §V that the paper reports GraIL dominating).

#![warn(missing_docs)]

pub mod common;
pub(crate) mod compile;
pub(crate) mod grail;
pub(crate) mod maker;
pub mod rulen;
pub(crate) mod tact;

pub use compile::CompileModel;
pub use grail::GrailModel;
pub use maker::MakerLiteModel;
pub use rulen::{MinedRule, MiningConfig, RuleNModel};
pub use tact::{TactBaseModel, TactModel};
