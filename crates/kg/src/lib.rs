//! Knowledge-graph substrate for the RMPI reproduction.
//!
//! This crate provides the storage and traversal layer every other crate in
//! the workspace builds on:
//!
//! * compact newtype identifiers for entities and relations ([`EntityId`],
//!   [`RelationId`]),
//! * a string interner and bidirectional vocabulary ([`Vocab`]),
//! * an indexed directed multigraph of triples ([`KnowledgeGraph`]) with
//!   out/in adjacency, relation-filtered edge access and O(1) membership,
//! * breadth-first K-hop neighbourhood computation ([`khop_distances`],
//!   [`khop_neighborhood`]),
//! * a line-oriented TSV codec for persisting graphs ([`io`]),
//! * summary statistics matching the paper's Table I columns ([`GraphStats`]),
//! * deterministic splitting utilities ([`split_triples`]).
//!
//! The design goal is the classic database trade-off: build the indexes once
//! (`KnowledgeGraph::from_triples` is O(|T|)), then answer the traversal
//! queries that subgraph extraction hammers on (out-edges, in-edges,
//! contains) without hashing entire triples on the hot path.
//!
//! ```
//! use rmpi_kg::{khop_distances, KnowledgeGraph, Triple, EntityId};
//!
//! let g = KnowledgeGraph::from_triples(vec![
//!     Triple::new(0u32, 0u32, 1u32), // e0 --r0--> e1
//!     Triple::new(1u32, 1u32, 2u32), // e1 --r1--> e2
//! ]);
//! assert!(g.contains(&Triple::new(0u32, 0u32, 1u32)));
//! assert_eq!(g.out_edges(EntityId(1)).len(), 1);
//! let reach = khop_distances(&g, EntityId(0), 2, None);
//! assert_eq!(reach[&EntityId(2)], 2); // two undirected hops away
//! ```

#![warn(missing_docs)]

pub(crate) mod access;
pub mod analysis;
pub(crate) mod csr;
pub(crate) mod error;
pub(crate) mod graph;
pub(crate) mod ids;
pub(crate) mod interner;
pub mod io;
pub(crate) mod neighborhood;
pub(crate) mod split;
pub(crate) mod stats;
pub(crate) mod triple;

pub use access::GraphAccess;
pub use csr::CsrGraph;
pub use error::KgError;
pub use graph::{Edge, KnowledgeGraph};
pub use ids::{EntityId, RelationId};
pub use interner::{Interner, Vocab};
pub use neighborhood::{khop_distances, khop_neighborhood};
pub use split::{split_triples, TripleSplit};
pub use stats::GraphStats;
pub use triple::Triple;
