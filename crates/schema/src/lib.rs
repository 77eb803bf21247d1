//! Ontological schema graphs and schema embeddings (paper §III-D.2).
//!
//! A KG's RDFS ontology relates its relations through four vocabularies —
//! `rdfs:subPropertyOf`, `rdfs:domain`, `rdfs:range`, `rdfs:subClassOf` —
//! forming a *schema graph* whose nodes are KG relations and entity classes.
//! RMPI pre-trains TransE on this graph and injects the resulting relation
//! vectors as initial node features of the relation-view subgraph, which is
//! what lets it say something meaningful about *unseen* relations: they are
//! connected to seen relations through shared classes.
//!
//! * [`SchemaGraph`] — the schema graph, stored as a [`rmpi_kg::KnowledgeGraph`]
//!   over a dedicated node id space (KG relations first, then classes);
//! * [`SchemaBuilder`] — incremental construction from vocabulary assertions;
//! * [`TransEModel`] — a from-scratch TransE trainer (closed-form gradients, no
//!   autograd needed) producing the semantic vectors `h^onto`.

#![warn(missing_docs)]

pub(crate) mod ontology;
pub(crate) mod transe;

pub use ontology::{ClassId, SchemaBuilder, SchemaGraph, SchemaVocab};
pub use transe::{TransEConfig, TransEModel};
