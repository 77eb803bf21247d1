//! MaKEr-lite (Chen et al., IJCAI 2022) — knowledge extrapolation with
//! structurally initialised relation features.
//!
//! MaKEr represents *unseen* relations by predefined topological
//! relationships with other relations, and trains with meta-learning
//! episodes that mimic the testing graph. This reimplementation keeps both
//! properties in a simplified form:
//!
//! * a relation's feature is its learned embedding when the relation is
//!   *seen*, and a structural estimate otherwise: a projection of its
//!   6-pattern connection histogram in the relation view plus the mean
//!   embedding of its seen neighbour relations;
//! * training performs **episodic relation masking** — each sample treats
//!   its target relation as unseen with some probability, forcing the model
//!   to learn the structural pathway (the analogue of MaKEr's episodes).
//!
//! The entity GNN half mirrors GraIL's labelled message passing with shared
//! (relation-agnostic) weights, so unseen relations do not break the layers.

use crate::common::{prepare_entity_sample, BaselineConfig, MAX_LABEL_DIST};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmpi_autograd::{init, ParamId, ParamStore, Tape, Tensor, Var};
use rmpi_core::{Mode, ScoringModel};
use rmpi_kg::{GraphAccess, RelationId, Triple};
use rmpi_subgraph::relview::{RelViewGraph, NUM_EDGE_TYPES, TARGET_NODE};
use std::collections::HashSet;

/// The MaKEr-lite model.
#[derive(Clone, Debug)]
pub struct MakerLiteModel {
    cfg: BaselineConfig,
    store: ParamStore,
    rel_emb: ParamId,
    topo_w: ParamId,
    w_self: Vec<ParamId>,
    w_msg: Vec<ParamId>,
    score_w: ParamId,
    num_relations: usize,
    seen: HashSet<RelationId>,
}

/// Probability of masking the target relation during training episodes.
const EPISODE_MASK_PROB: f64 = 0.3;

/// Dimension of the structural feature vector: 6 pattern counts + log degree
/// + bias.
const TOPO_DIM: usize = NUM_EDGE_TYPES + 2;

impl MakerLiteModel {
    /// Build the model. `seen` lists the relations observed during training —
    /// at evaluation time anything else takes the structural pathway, which
    /// is exactly the information MaKEr assumes (test graphs declare their
    /// new relations).
    pub fn new(
        cfg: BaselineConfig,
        num_relations: usize,
        seen: HashSet<RelationId>,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let rel_emb = store.create(
            "maker_rel_emb",
            init::xavier_uniform(&[num_relations.max(1), cfg.dim], &mut rng),
        );
        let topo_w =
            store.create("maker_topo_w", init::xavier_uniform(&[cfg.dim, TOPO_DIM], &mut rng));
        let in_dim = |k: usize| if k == 0 { cfg.label_dim() } else { cfg.dim };
        let mut w_self = Vec::new();
        let mut w_msg = Vec::new();
        for k in 0..cfg.num_layers {
            let d = in_dim(k);
            w_self.push(store.create(
                &format!("maker_l{k}_self"),
                init::xavier_uniform(&[cfg.dim, d], &mut rng),
            ));
            w_msg.push(store.create(
                &format!("maker_l{k}_msg"),
                init::xavier_uniform(&[cfg.dim, d + cfg.dim], &mut rng),
            ));
        }
        let score_w = store.create("maker_score_w", init::xavier_uniform(&[4 * cfg.dim], &mut rng));
        MakerLiteModel { cfg, store, rel_emb, topo_w, w_self, w_msg, score_w, num_relations, seen }
    }

    /// Structural feature of `rel` in the sample's relation view: normalised
    /// incoming-pattern histogram over all nodes labelled `rel`, plus log
    /// occurrence count and a bias term.
    fn topo_features(rv: &RelViewGraph, rel: RelationId) -> Tensor {
        let mut hist = [0f32; NUM_EDGE_TYPES];
        let mut occurrences = 0f32;
        for (i, node) in rv.nodes.iter().enumerate() {
            if node.relation != rel {
                continue;
            }
            occurrences += 1.0;
            for e in rv.incoming(i) {
                hist[e.etype.index()] += 1.0;
            }
        }
        let total: f32 = hist.iter().sum::<f32>().max(1.0);
        let mut v = Vec::with_capacity(TOPO_DIM);
        v.extend(hist.iter().map(|&c| c / total));
        v.push((1.0 + occurrences).ln());
        v.push(1.0);
        Tensor::vector(v)
    }

    /// The feature of one relation: learned embedding if usable, else the
    /// structural estimate (topology projection + mean seen-neighbour
    /// embedding of the target node).
    fn relation_feature(
        &self,
        tape: &mut Tape,
        rel_table: Var,
        rv: &RelViewGraph,
        rel: RelationId,
        treat_unseen: bool,
    ) -> Var {
        if !treat_unseen {
            return tape.row(rel_table, rel.index());
        }
        let topo = tape.constant(Self::topo_features(rv, rel));
        let tw = tape.param(&self.store, self.topo_w);
        let projected = tape.matvec(tw, topo);
        // mean embedding of *seen* relations neighbouring the target node,
        // summed in ascending source order: `incoming` orders sources within
        // each edge type only (the stable sort keeps a two-type source's
        // entries together)
        let mut neighbors: Vec<(usize, RelationId)> = rv
            .incoming(TARGET_NODE)
            .map(|e| (e.src, rv.nodes[e.src].relation))
            .filter(|(_, r)| self.seen.contains(r) && *r != rel)
            .collect();
        neighbors.sort_by_key(|&(src, _)| src);
        if neighbors.is_empty() {
            tape.relu(projected)
        } else {
            let embs: Vec<Var> =
                neighbors.iter().map(|&(_, r)| tape.row(rel_table, r.index())).collect();
            let stacked = tape.stack(&embs);
            let pool = tape.constant(Tensor::full(&[embs.len()], 1.0 / embs.len() as f32));
            let mean = tape.vecmat(pool, stacked);
            let act = tape.relu(projected);
            tape.add(act, mean)
        }
    }

    fn encode_and_score(
        &self,
        tape: &mut Tape,
        sample: &crate::common::EntitySample,
        target: Triple,
        mask_target: bool,
    ) -> Var {
        let rel_table = tape.param(&self.store, self.rel_emb);
        let rv = RelViewGraph::from_subgraph(&sample.sg);
        let rt_feat = {
            let unseen = mask_target || !self.seen.contains(&target.relation);
            self.relation_feature(tape, rel_table, &rv, target.relation, unseen)
        };
        // per-edge relation features (seen edges use embeddings; unseen
        // context relations also take the structural pathway)
        let edge_feats: Vec<Var> = sample
            .sg
            .triples
            .iter()
            .map(|t| {
                let unseen = !self.seen.contains(&t.relation);
                self.relation_feature(tape, rel_table, &rv, t.relation, unseen)
            })
            .collect();

        let mut h: Vec<Var> = sample
            .entities
            .iter()
            .map(|e| tape.constant(Tensor::vector(sample.labels[e].one_hot(MAX_LABEL_DIST))))
            .collect();
        for k in 0..self.cfg.num_layers {
            let ws = tape.param(&self.store, self.w_self[k]);
            let wm = tape.param(&self.store, self.w_msg[k]);
            let mut next = Vec::with_capacity(h.len());
            for (idx, &e) in sample.entities.iter().enumerate() {
                let mut acc = tape.matvec(ws, h[idx]);
                for (t, &feat) in sample.sg.triples.iter().zip(&edge_feats) {
                    if t.tail != e {
                        continue;
                    }
                    let j = sample.entity_index[&t.head];
                    let cat = tape.concat(&[h[j], feat]);
                    let msg = tape.matvec(wm, cat);
                    acc = tape.add(acc, msg);
                }
                next.push(tape.relu(acc));
            }
            h = next;
        }

        let stacked = tape.stack(&h);
        let pool = tape.constant(Tensor::full(&[h.len()], 1.0 / h.len() as f32));
        let h_graph = tape.vecmat(pool, stacked);
        let h_u = h[sample.entity_index[&target.head]];
        let h_v = h[sample.entity_index[&target.tail]];
        let cat = tape.concat(&[h_graph, h_u, h_v, rt_feat]);
        let w = tape.param(&self.store, self.score_w);
        tape.dot(w, cat)
    }
}

impl ScoringModel for MakerLiteModel {
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
        let mask = mode == Mode::Train && rng.gen_bool(EPISODE_MASK_PROB);
        self.encode_and_score(tape, &sample, target, mask)
    }

    fn context_radius(&self) -> usize {
        self.cfg.hop
    }

    fn name(&self) -> String {
        "MaKEr".to_owned()
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

    fn model(seen: &[u32]) -> MakerLiteModel {
        MakerLiteModel::new(
            BaselineConfig { dim: 8, edge_dropout: 0.0, ..Default::default() },
            8,
            seen.iter().map(|&r| RelationId(r)).collect(),
            0,
        )
    }

    #[test]
    fn seen_relation_uses_embedding_pathway() {
        let g = graph();
        let m = model(&[0, 1, 2, 3, 4]);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(m.score(&g, Triple::new(0u32, 4u32, 3u32), &mut rng).is_finite());
    }

    #[test]
    fn unseen_relation_takes_structural_pathway() {
        let g = graph();
        let m = model(&[0, 1, 2, 3]);
        let mut rng = StdRng::seed_from_u64(1);
        // relation 7 unseen: must not panic, and must differ from an
        // identical model that considers 7 seen (different pathway)
        let s_unseen = m.score(&g, Triple::new(0u32, 7u32, 3u32), &mut rng);
        let m2 = model(&[0, 1, 2, 3, 7]);
        let s_seen = m2.score(&g, Triple::new(0u32, 7u32, 3u32), &mut rng);
        assert!(s_unseen.is_finite());
        assert_ne!(s_unseen, s_seen);
    }

    #[test]
    fn structural_mean_sums_the_neighbours_in_source_order() {
        // (4, r4, 0) into the target's head is a T-H source and (3, r5, 4)
        // out of its tail an H-T one; both sort after the H-H and T-T
        // sources, so per-type order differs from source order here; the
        // score is the one the mean gave when it was summed in (source, type)
        // order
        let g = graph()
            .with_extra_triples(&[Triple::new(4u32, 4u32, 0u32), Triple::new(3u32, 5u32, 4u32)]);
        let m = MakerLiteModel::new(
            BaselineConfig { dim: 8, edge_dropout: 0.0, ..Default::default() },
            8,
            (0..6).map(RelationId).collect(),
            1,
        );
        let mut rng = StdRng::seed_from_u64(4);
        let s = m.score(&g, Triple::new(0u32, 7u32, 3u32), &mut rng);
        assert_eq!(s.to_bits(), 0x3e36_6c44, "{s}");
    }

    #[test]
    fn topo_features_are_normalized() {
        let g = graph();
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = BaselineConfig { dim: 8, edge_dropout: 0.0, ..Default::default() };
        let sample =
            prepare_entity_sample(&g, Triple::new(0u32, 4u32, 3u32), &cfg, Mode::Eval, &mut rng);
        let rv = RelViewGraph::from_subgraph(&sample.sg);
        let f = MakerLiteModel::topo_features(&rv, RelationId(0));
        assert_eq!(f.len(), TOPO_DIM);
        let hist_sum: f32 = f.data()[..NUM_EDGE_TYPES].iter().sum();
        assert!(hist_sum <= 1.0 + 1e-5);
        assert_eq!(f.data()[TOPO_DIM - 1], 1.0);
    }

    #[test]
    fn gradients_flow_through_structural_path() {
        let g = graph();
        let mut m = model(&[0, 1, 2, 3]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut tape = Tape::new();
        let s = m.score_on_tape(&mut tape, &g, Triple::new(0u32, 7u32, 3u32), Mode::Eval, &mut rng);
        tape.backward(s, m.param_store_mut());
        let store = m.param_store();
        assert!(store.grad(store.get("maker_topo_w").unwrap()).norm() > 0.0);
    }
}
