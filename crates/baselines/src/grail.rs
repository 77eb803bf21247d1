//! GraIL (Teru et al., 2020) — entity-view subgraph GNN (paper Eq. 1–5).
//!
//! Entities are initialised with one-hot double-radius labels; K R-GCN
//! layers with per-relation transforms and a relation-aware attention gate
//! update them; the triple is scored from the mean-pooled subgraph
//! representation, the endpoint embeddings and the target relation's
//! embedding (Eq. 4). The encoder half is exposed so TACT can reuse it.

use crate::common::{prepare_entity_sample, BaselineConfig, EntitySample, MAX_LABEL_DIST};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rmpi_autograd::{init, ParamId, ParamStore, Tape, Tensor, Var};
use rmpi_core::{Mode, ScoringModel};
use rmpi_kg::{GraphAccess, Triple};

/// The parameters of GraIL's entity encoder (Eq. 1–3), reusable by TACT.
#[derive(Clone, Debug)]
pub(crate) struct GrailEncoderWeights {
    /// `w_rel[k][r]`: per-layer, per-relation transform.
    pub(crate) w_rel: Vec<Vec<ParamId>>,
    /// `w_self[k]`: per-layer self transform.
    pub(crate) w_self: Vec<ParamId>,
    /// Attention MLP inner matrix per layer (`A_2^k`).
    pub(crate) att_a2: Vec<ParamId>,
    /// Attention MLP inner bias per layer (`b_2^k`).
    pub(crate) att_b2: Vec<ParamId>,
    /// Attention readout vector per layer (`A_1^k`).
    pub(crate) att_a1: Vec<ParamId>,
    /// Attention readout bias per layer (`b_1^k`).
    pub(crate) att_b1: Vec<ParamId>,
    /// Attention embeddings `r^a` for every relation.
    pub(crate) att_emb: ParamId,
}

impl GrailEncoderWeights {
    /// Register all encoder parameters under `prefix`.
    pub(crate) fn new(
        store: &mut ParamStore,
        prefix: &str,
        cfg: &BaselineConfig,
        num_relations: usize,
        rng: &mut StdRng,
    ) -> Self {
        let in_dim = |k: usize| if k == 0 { cfg.label_dim() } else { cfg.dim };
        let mut w_rel = Vec::new();
        let mut w_self = Vec::new();
        let mut att_a2 = Vec::new();
        let mut att_b2 = Vec::new();
        let mut att_a1 = Vec::new();
        let mut att_b1 = Vec::new();
        for k in 0..cfg.num_layers {
            let d_in = in_dim(k);
            w_rel.push(
                (0..num_relations.max(1))
                    .map(|r| {
                        store.create(
                            &format!("{prefix}_l{k}_r{r}"),
                            init::xavier_uniform(&[cfg.dim, d_in], rng),
                        )
                    })
                    .collect(),
            );
            w_self.push(store.create(
                &format!("{prefix}_l{k}_self"),
                init::xavier_uniform(&[cfg.dim, d_in], rng),
            ));
            // s = ReLU(A2 [h_i ⊕ h_j ⊕ r_t^a ⊕ r^a] + b2); α = σ(A1·s + b1)
            att_a2.push(store.create(
                &format!("{prefix}_l{k}_a2"),
                init::xavier_uniform(&[cfg.dim, 2 * d_in + 2 * cfg.dim], rng),
            ));
            att_b2.push(store.create(&format!("{prefix}_l{k}_b2"), Tensor::zeros(&[cfg.dim])));
            att_a1.push(
                store.create(&format!("{prefix}_l{k}_a1"), init::xavier_uniform(&[cfg.dim], rng)),
            );
            att_b1.push(store.create(&format!("{prefix}_l{k}_b1"), Tensor::zeros(&[1])));
        }
        let att_emb = store.create(
            &format!("{prefix}_att_emb"),
            init::xavier_uniform(&[num_relations.max(1), cfg.dim], rng),
        );
        GrailEncoderWeights { w_rel, w_self, att_a2, att_b2, att_a1, att_b1, att_emb }
    }
}

/// Output of the GraIL encoder: pooled subgraph and endpoint representations.
pub(crate) struct GrailEncoding {
    /// Mean-pooled subgraph representation (Eq. 5).
    pub(crate) h_graph: Var,
    /// Target head representation after K layers.
    pub(crate) h_u: Var,
    /// Target tail representation after K layers.
    pub(crate) h_v: Var,
}

/// Run the GraIL encoder (Eq. 1–3, 5) over a prepared entity sample.
pub(crate) fn grail_encode(
    tape: &mut Tape,
    store: &ParamStore,
    weights: &GrailEncoderWeights,
    cfg: &BaselineConfig,
    sample: &EntitySample,
) -> GrailEncoding {
    let att_table = tape.param(store, weights.att_emb);
    let rt = sample.sg.target.relation;
    let rt_att = tape.row(att_table, rt.index());

    // initial features: one-hot double-radius labels
    let mut h: Vec<Var> = sample
        .entities
        .iter()
        .map(|e| tape.constant(Tensor::vector(sample.labels[e].one_hot(MAX_LABEL_DIST))))
        .collect();

    for k in 0..cfg.num_layers {
        let w_self = tape.param(store, weights.w_self[k]);
        let a2 = tape.param(store, weights.att_a2[k]);
        let b2 = tape.param(store, weights.att_b2[k]);
        let a1 = tape.param(store, weights.att_a1[k]);
        let b1 = tape.param(store, weights.att_b1[k]);
        // per-relation transforms materialised lazily
        let mut w_rel_vars: Vec<Option<Var>> = vec![None; weights.w_rel[k].len()];
        let mut next: Vec<Var> = Vec::with_capacity(h.len());
        for (idx, &e) in sample.entities.iter().enumerate() {
            let mut acc = tape.matvec(w_self, h[idx]);
            for t in sample.sg.triples.iter().filter(|t| t.tail == e) {
                let j = sample.entity_index[&t.head];
                let r = t.relation;
                let w_r = *w_rel_vars[r.index()]
                    .get_or_insert_with(|| tape.param(store, weights.w_rel[k][r.index()]));
                let msg = tape.matvec(w_r, h[j]);
                // attention gate α_ij (Eq. 2–3)
                let r_att = tape.row(att_table, r.index());
                let cat = tape.concat(&[h[idx], h[j], rt_att, r_att]);
                let lin = tape.matvec(a2, cat);
                let biased = tape.add(lin, b2);
                let s = tape.relu(biased);
                let logit = tape.dot(a1, s);
                let logit_b = tape.add(logit, b1);
                let alpha = tape.sigmoid(logit_b);
                let gated = tape.mul(alpha, msg);
                acc = tape.add(acc, gated);
            }
            next.push(tape.relu(acc));
        }
        h = next;
    }

    let stacked = tape.stack(&h);
    let pool_w = tape.constant(Tensor::full(&[h.len()], 1.0 / h.len() as f32));
    let h_graph = tape.vecmat(pool_w, stacked);
    let h_u = h[sample.entity_index[&sample.sg.target.head]];
    let h_v = h[sample.entity_index[&sample.sg.target.tail]];
    GrailEncoding { h_graph, h_u, h_v }
}

/// The full GraIL model.
#[derive(Clone, Debug)]
pub struct GrailModel {
    cfg: BaselineConfig,
    store: ParamStore,
    encoder: GrailEncoderWeights,
    rel_emb: ParamId,
    score_w: ParamId,
    num_relations: usize,
}

impl GrailModel {
    /// Build GraIL over `num_relations` relation ids.
    pub fn new(cfg: BaselineConfig, num_relations: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let encoder = GrailEncoderWeights::new(&mut store, "grail", &cfg, num_relations, &mut rng);
        let rel_emb = store.create(
            "grail_rel_emb",
            init::xavier_uniform(&[num_relations.max(1), cfg.dim], &mut rng),
        );
        let score_w = store.create("grail_score_w", init::xavier_uniform(&[4 * cfg.dim], &mut rng));
        GrailModel { cfg, store, encoder, rel_emb, score_w, num_relations }
    }
}

impl ScoringModel for GrailModel {
    fn param_store(&self) -> &ParamStore {
        &self.store
    }

    fn param_store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn score_on_tape(
        &self,
        tape: &mut Tape,
        graph: &dyn GraphAccess,
        target: Triple,
        mode: Mode,
        rng: &mut StdRng,
    ) -> Var {
        assert!(target.relation.index() < self.num_relations, "relation outside id space");
        let sample = prepare_entity_sample(graph, target, &self.cfg, mode, rng);
        let enc = grail_encode(tape, &self.store, &self.encoder, &self.cfg, &sample);
        let rel_table = tape.param(&self.store, self.rel_emb);
        let rt = tape.row(rel_table, target.relation.index());
        let cat = tape.concat(&[enc.h_graph, enc.h_u, enc.h_v, rt]);
        let w = tape.param(&self.store, self.score_w);
        tape.dot(w, cat)
    }

    fn context_radius(&self) -> usize {
        self.cfg.hop
    }

    fn name(&self) -> String {
        "GraIL".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmpi_kg::KnowledgeGraph;

    fn graph() -> KnowledgeGraph {
        KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 1u32, 3u32),
            Triple::new(0u32, 2u32, 2u32),
            Triple::new(2u32, 3u32, 3u32),
        ])
    }

    fn cfg() -> BaselineConfig {
        BaselineConfig { dim: 8, edge_dropout: 0.0, ..Default::default() }
    }

    #[test]
    fn scores_are_finite_and_deterministic() {
        let g = graph();
        let model = GrailModel::new(cfg(), 6, 0);
        let t = Triple::new(0u32, 4u32, 3u32);
        let a = model.score(&g, t, &mut StdRng::seed_from_u64(0));
        let b = model.score(&g, t, &mut StdRng::seed_from_u64(9));
        assert!(a.is_finite());
        assert_eq!(a, b);
    }

    #[test]
    fn different_targets_score_differently() {
        let g = graph();
        let model = GrailModel::new(cfg(), 6, 1);
        let mut rng = StdRng::seed_from_u64(0);
        let s1 = model.score(&g, Triple::new(0u32, 4u32, 3u32), &mut rng);
        let s2 = model.score(&g, Triple::new(1u32, 4u32, 2u32), &mut rng);
        assert_ne!(s1, s2);
    }

    #[test]
    fn gradients_flow_to_relation_transforms() {
        let g = graph();
        let mut model = GrailModel::new(cfg(), 6, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let mut tape = Tape::new();
        let s =
            model.score_on_tape(&mut tape, &g, Triple::new(0u32, 4u32, 3u32), Mode::Eval, &mut rng);
        tape.backward(s, model.param_store_mut());
        let store = model.param_store();
        // relation 0 labels an edge of the subgraph, so its first-layer W must
        // receive gradient
        assert!(store.grad(store.get("grail_l0_r0").unwrap()).norm() > 0.0);
        assert!(store.grad(store.get("grail_score_w").unwrap()).norm() > 0.0);
        assert!(store.grad(store.get("grail_att_emb").unwrap()).norm() > 0.0);
    }

    #[test]
    fn empty_subgraph_still_scores() {
        let g = KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(5u32, 1u32, 6u32),
        ]);
        let model = GrailModel::new(cfg(), 4, 3);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(model.score(&g, Triple::new(0u32, 2u32, 5u32), &mut rng).is_finite());
    }
}
