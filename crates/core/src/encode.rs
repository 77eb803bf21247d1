//! Initial relation features `h_r^0`: learnable embeddings or schema
//! projections (Eq. 10).

use crate::config::RmpiConfig;
use rand::rngs::StdRng;
use rmpi_autograd::{init, ParamId, ParamStore, Tape, Tensor, Var};
use rmpi_kg::RelationId;

/// Produces the initial relation features of a sample on a tape.
#[derive(Clone, Debug)]
pub enum RelationEncoder {
    /// Rows of a learnable `(num_relations, dim)` table.
    Random {
        /// The embedding table parameter.
        emb: ParamId,
    },
    /// `h^0 = W1 (W2 h^onto)` over fixed schema TransE vectors.
    Schema {
        /// Fixed `(num_relations, onto_dim)` semantic vectors.
        onto: Tensor,
        /// Outer projection `(dim, hidden)`.
        w1: ParamId,
        /// Inner projection `(hidden, onto_dim)`.
        w2: ParamId,
    },
}

impl RelationEncoder {
    /// Create the random-table encoder, registering its parameter.
    pub fn new_random(
        store: &mut ParamStore,
        num_relations: usize,
        dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        let emb = store.create("rel_emb", init::xavier_uniform(&[num_relations.max(1), dim], rng));
        RelationEncoder::Random { emb }
    }

    /// Create the schema-projection encoder (Eq. 10). `onto` must have one
    /// row per relation in the id space.
    pub fn new_schema(
        store: &mut ParamStore,
        onto: Tensor,
        cfg: &RmpiConfig,
        rng: &mut StdRng,
    ) -> Self {
        let hidden = cfg.schema_hidden_dim();
        let onto_dim = onto.cols();
        let w2 = store.create("onto_w2", init::xavier_uniform(&[hidden, onto_dim], rng));
        let w1 = store.create("onto_w1", init::xavier_uniform(&[cfg.dim, hidden], rng));
        RelationEncoder::Schema { onto, w1, w2 }
    }

    /// The fixed schema TransE vectors, when this is the schema encoder.
    pub(crate) fn schema_vectors(&self) -> Option<&Tensor> {
        match self {
            RelationEncoder::Random { .. } => None,
            RelationEncoder::Schema { onto, .. } => Some(onto),
        }
    }

    /// Record the initial-feature table of one sample: one `h^0` row per
    /// *distinct* relation in `rels`, so relation nodes that share a label
    /// share a row. `rels` is sorted and deduplicated in place and becomes
    /// the table's row order (the table hands its storage back for the next
    /// sample). Random init gathers the rows of the
    /// embedding parameter; schema init projects the gathered schema vectors
    /// through `sem · W2ᵀ · W1ᵀ` (Eq. 10) — per row the same chunked dots as
    /// `W1 (W2 sem)`, so the features are bit-identical to projecting each
    /// relation on its own.
    pub fn encode_table(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        mut rels: Vec<RelationId>,
    ) -> RelationTable {
        rels.sort_unstable();
        rels.dedup();
        let h0 = match self {
            RelationEncoder::Random { emb } => {
                let table = tape.param(store, *emb);
                rmpi_runtime::with_scratch(|rows: &mut TableRows| {
                    rows.0.clear();
                    rows.0.extend(rels.iter().map(|r| r.index()));
                    tape.gather(table, &rows.0)
                })
            }
            RelationEncoder::Schema { onto, w1, w2 } => {
                let sem = tape.constant_with(&[rels.len(), onto.cols()], |sem| {
                    for r in &rels {
                        sem.extend_from_slice(onto.row(r.index()));
                    }
                });
                let w2v = tape.param(store, *w2);
                let hidden = tape.matmul_nt(sem, w2v);
                let w1v = tape.param(store, *w1);
                tape.matmul_nt(hidden, w1v)
            }
        };
        RelationTable { h0, rels }
    }
}

/// The embedding-table rows one [`RelationEncoder::encode_table`] gathers,
/// kept per thread.
#[derive(Default)]
struct TableRows(Vec<usize>);

/// The `(distinct relations, dim)` initial-feature matrix of one sample, with
/// the relation → row lookup.
#[derive(Clone, Debug)]
pub struct RelationTable {
    /// The table itself: row `i` is `h^0` of the `i`-th distinct relation.
    pub h0: Var,
    /// The distinct relations, ascending — row order of `h0`.
    rels: Vec<RelationId>,
}

impl RelationTable {
    /// Row of `rel` in [`RelationTable::h0`]. Panics if `rel` was not among
    /// the relations the table was encoded for.
    pub fn row(&self, rel: RelationId) -> usize {
        self.rels.binary_search(&rel).expect("relation was not encoded into this table")
    }

    /// Number of rows (distinct relations).
    pub fn len(&self) -> usize {
        self.rels.len()
    }

    /// `true` when no relation was encoded.
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }

    /// The row list, for its storage to be reused by the next
    /// [`RelationEncoder::encode_table`].
    pub(crate) fn into_rels(self) -> Vec<RelationId> {
        self.rels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn random_encoder_returns_table_rows() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let enc = RelationEncoder::new_random(&mut store, 5, 8, &mut rng);
        let mut tape = Tape::new();
        let t =
            enc.encode_table(&mut tape, &store, vec![RelationId(2), RelationId(2), RelationId(0)]);
        assert_eq!(t.len(), 2);
        assert_eq!(tape.value(t.h0).shape(), &[2, 8]);
        let emb = store.get("rel_emb").unwrap();
        assert_eq!(store.value(emb).rows(), 5);
        for r in [0u32, 2] {
            assert_eq!(
                tape.value(t.h0).row(t.row(RelationId(r))),
                store.value(emb).row(r as usize)
            );
        }
    }

    #[test]
    fn schema_encoder_projects_to_model_dim() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let onto = Tensor::matrix(3, 10, (0..30).map(|i| i as f32 * 0.1).collect());
        let cfg = RmpiConfig { dim: 4, ..Default::default() };
        let enc = RelationEncoder::new_schema(&mut store, onto.clone(), &cfg, &mut rng);
        let mut tape = Tape::new();
        let t = enc.encode_table(&mut tape, &store, vec![RelationId(1), RelationId(2)]);
        assert_eq!(tape.value(t.h0).shape(), &[2, 4]);
        // each row is bit-identical to projecting that relation on its own
        let w1 = tape.param(&store, store.get("onto_w1").unwrap());
        let w2 = tape.param(&store, store.get("onto_w2").unwrap());
        for r in [1usize, 2] {
            let sem = tape.constant(Tensor::vector(onto.row(r).to_vec()));
            let hidden = tape.matvec(w2, sem);
            let alone = tape.matvec(w1, hidden);
            let row = tape.value(t.h0).row(t.row(RelationId(r as u32))).to_vec();
            assert_eq!(row, tape.value(alone).data(), "relation {r}");
        }
    }

    #[test]
    fn schema_projection_is_trainable() {
        // gradient should reach w1/w2 through the projection
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let onto = Tensor::matrix(2, 6, vec![0.3; 12]);
        let cfg = RmpiConfig { dim: 3, ..Default::default() };
        let enc = RelationEncoder::new_schema(&mut store, onto, &cfg, &mut rng);
        let mut tape = Tape::new();
        let t = enc.encode_table(&mut tape, &store, vec![RelationId(0)]);
        let loss = tape.sum(t.h0);
        tape.backward(loss, &mut store);
        let g1 = store.grad(store.get("onto_w1").unwrap()).norm();
        let g2 = store.grad(store.get("onto_w2").unwrap()).norm();
        assert!(g1 > 0.0 && g2 > 0.0, "projection grads: {g1}, {g2}");
    }

    #[test]
    fn distinct_relations_have_distinct_rows() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let enc = RelationEncoder::new_random(&mut store, 4, 16, &mut rng);
        let mut tape = Tape::new();
        let t = enc.encode_table(&mut tape, &store, vec![RelationId(1), RelationId(0)]);
        let (r0, r1) = (t.row(RelationId(0)), t.row(RelationId(1)));
        assert_ne!(r0, r1);
        assert_ne!(tape.value(t.h0).row(r0), tape.value(t.h0).row(r1));
    }
}
