//! Synthetic inductive KGC benchmarks.
//!
//! The paper evaluates on inductive splits of WN18RR, FB15k-237 and NELL-995
//! (GraIL's 12 benchmarks), four recombined fully-inductive datasets
//! (`XXX.vi.vj`), and MaKEr's FB-Ext / NELL-Ext. Those raw files are not
//! available offline, so this crate generates *worlds* with the property the
//! benchmarks actually test: entity-independent relational regularities that
//! transfer to disjoint entity sets.
//!
//! A [`World`] plants logical rules over typed entities — compositions
//! (`r1(x,y) ∧ r2(y,z) → r3(x,z)`), confusable long chains (two conclusions
//! sharing first/last premises, distinguishable only at hop 2), inversions,
//! symmetry and subsumption — and derives each graph's triples by sampling
//! base facts and closing over the rules. The same world's type system
//! yields the ontological [`rmpi_schema::SchemaGraph`]: domains, ranges,
//! relation and class hierarchies, with relations of the same rule role
//! sharing abstract schema parents so that *unseen* relations are connected
//! to seen ones exactly as in NELL's ontology.
//!
//! Builders:
//! * [`benchmark::partial_benchmark`] — GraIL-style partially inductive
//!   splits (disjoint entities, shared relations);
//! * `fully::fully_inductive_benchmark` — `XXX.vi.vj` recombination with
//!   `TE(semi)` and `TE(fully)` testing graphs;
//! * `ext::ext_benchmark` — MaKEr-style splits with `u_ent` / `u_rel` /
//!   `u_both` target buckets;
//! * [`registry`] — the named dataset catalogue with fixed seeds and the
//!   paper-vs-generated statistics used by Table I.

#![warn(missing_docs)]

pub mod benchmark;
pub(crate) mod ext;
pub(crate) mod fully;
pub mod io;
pub mod registry;
pub(crate) mod rules;
pub(crate) mod stream;
pub mod world;

pub use benchmark::{Benchmark, TestSet, TrainSet};
pub use registry::{build_benchmark, registry_names, Scale};
pub use rules::{GroupKind, Role, Rule, RuleGroup};
pub use stream::StreamingWorld;
pub use world::{World, WorldConfig};
