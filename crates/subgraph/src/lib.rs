//! Subgraph machinery for subgraph-based inductive KG reasoning.
//!
//! Implements §III-B and §III-F of the RMPI paper plus the pieces the
//! baselines need:
//!
//! * [`enclosing_subgraph`] — the K-hop *enclosing* subgraph of a target
//!   triple: intersection of the endpoints' K-hop neighbourhoods, pruned of
//!   isolated / too-distant nodes;
//! * [`disclosing_subgraph`] — the K-hop *disclosing* subgraph: the union of
//!   the neighbourhoods (used to rescue empty enclosing subgraphs);
//! * [`double_radius_labels`] — GraIL's double-radius entity labelling;
//! * [`RelViewGraph`] — the relation-view (directed line-graph) transform
//!   with the six edge types of Fig. 3c;
//! * [`PruningSchedule`] — the target-relation-guided pruning of Algorithm 1;
//! * [`NegativeSampler`] — head/tail-corruption negative sampling;
//! * [`LruCache`] — cache-keyable extraction: [`SubgraphKey`] and an LRU cache
//!   the serving layer uses to amortise per-triple extraction cost.

#![warn(missing_docs)]

pub(crate) mod cache;
pub mod extraction;
pub(crate) mod labeling;
pub(crate) mod negative;
pub(crate) mod pruning;
pub mod relview;
pub(crate) mod scratch;
pub(crate) mod viz;

pub use cache::{LruCache, SubgraphKey};
pub use extraction::{
    disclosing_subgraph, disclosing_subgraph_into, enclosing_subgraph, enclosing_subgraph_into,
    with_thread_scratch, Subgraph,
};
pub use labeling::{double_radius_labels, NodeLabel};
pub use negative::NegativeSampler;
pub use pruning::PruningSchedule;
pub use relview::{RelEdgeType, RelNode, RelViewGraph};
pub use scratch::ExtractScratch;
pub use viz::{relview_to_dot, subgraph_to_dot};
