//! CoMPILE (Mai et al., AAAI 2021) — communicative message passing.
//!
//! CoMPILE's distinguishing idea is the joint update of node *and* edge
//! states: every edge keeps a representation computed from its endpoints and
//! its relation, and node updates consume edge states rather than raw
//! neighbour features. This implementation keeps that node–edge interaction
//! while simplifying CoMPILE's gating details to a ReLU MLP.

use crate::common::{prepare_entity_sample, BaselineConfig, MAX_LABEL_DIST};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rmpi_autograd::{init, ParamId, ParamStore, Tape, Tensor, Var};
use rmpi_core::{Mode, ScoringModel};
use rmpi_kg::{GraphAccess, Triple};

/// The CoMPILE-style model.
#[derive(Clone, Debug)]
pub struct CompileModel {
    cfg: BaselineConfig,
    store: ParamStore,
    rel_emb: ParamId,
    w_edge: Vec<ParamId>,
    w_self: Vec<ParamId>,
    w_msg: Vec<ParamId>,
    w_target_edge: ParamId,
    score_w: ParamId,
    num_relations: usize,
}

impl CompileModel {
    /// Build the model over `num_relations` relation ids.
    pub fn new(cfg: BaselineConfig, num_relations: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let rel_emb = store.create(
            "comp_rel_emb",
            init::xavier_uniform(&[num_relations.max(1), cfg.dim], &mut rng),
        );
        let in_dim = |k: usize| if k == 0 { cfg.label_dim() } else { cfg.dim };
        let mut w_edge = Vec::new();
        let mut w_self = Vec::new();
        let mut w_msg = Vec::new();
        for k in 0..cfg.num_layers {
            let d = in_dim(k);
            w_edge.push(store.create(
                &format!("comp_l{k}_edge"),
                init::xavier_uniform(&[cfg.dim, 2 * d + cfg.dim], &mut rng),
            ));
            w_self.push(
                store.create(
                    &format!("comp_l{k}_self"),
                    init::xavier_uniform(&[cfg.dim, d], &mut rng),
                ),
            );
            w_msg.push(store.create(
                &format!("comp_l{k}_msg"),
                init::xavier_uniform(&[cfg.dim, cfg.dim], &mut rng),
            ));
        }
        let w_target_edge = store
            .create("comp_target_edge", init::xavier_uniform(&[cfg.dim, 3 * cfg.dim], &mut rng));
        let score_w = store.create("comp_score_w", init::xavier_uniform(&[4 * cfg.dim], &mut rng));
        CompileModel {
            cfg,
            store,
            rel_emb,
            w_edge,
            w_self,
            w_msg,
            w_target_edge,
            score_w,
            num_relations,
        }
    }
}

impl ScoringModel for CompileModel {
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
        let rel_table = tape.param(&self.store, self.rel_emb);

        let mut h: Vec<Var> = sample
            .entities
            .iter()
            .map(|e| tape.constant(Tensor::vector(sample.labels[e].one_hot(MAX_LABEL_DIST))))
            .collect();

        for k in 0..self.cfg.num_layers {
            let we = tape.param(&self.store, self.w_edge[k]);
            let ws = tape.param(&self.store, self.w_self[k]);
            let wm = tape.param(&self.store, self.w_msg[k]);
            // edge states from current node states (communicative step)
            let edge_states: Vec<(usize, Var)> = sample
                .sg
                .triples
                .iter()
                .map(|t| {
                    let hi = h[sample.entity_index[&t.head]];
                    let hj = h[sample.entity_index[&t.tail]];
                    let r = tape.row(rel_table, t.relation.index());
                    let cat = tape.concat(&[hi, hj, r]);
                    let lin = tape.matvec(we, cat);
                    (sample.entity_index[&t.tail], tape.relu(lin))
                })
                .collect();
            // node updates consume incoming edge states
            let mut next = Vec::with_capacity(h.len());
            for (idx, _) in sample.entities.iter().enumerate() {
                let mut acc = tape.matvec(ws, h[idx]);
                for (tail_idx, estate) in &edge_states {
                    if *tail_idx == idx {
                        let msg = tape.matvec(wm, *estate);
                        acc = tape.add(acc, msg);
                    }
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
        // the target's own edge state, from final node representations
        let rt = tape.row(rel_table, target.relation.index());
        let cat_t = tape.concat(&[h_u, h_v, rt]);
        let we_t = tape.param(&self.store, self.w_target_edge);
        let lin_t = tape.matvec(we_t, cat_t);
        let e_target = tape.relu(lin_t);

        let cat = tape.concat(&[h_graph, h_u, h_v, e_target]);
        let w = tape.param(&self.store, self.score_w);
        tape.dot(w, cat)
    }

    fn context_radius(&self) -> usize {
        self.cfg.hop
    }

    fn name(&self) -> String {
        "CoMPILE".to_owned()
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
    fn finite_deterministic_scores() {
        let g = graph();
        let model = CompileModel::new(cfg(), 6, 0);
        let t = Triple::new(0u32, 4u32, 3u32);
        let a = model.score(&g, t, &mut StdRng::seed_from_u64(0));
        let b = model.score(&g, t, &mut StdRng::seed_from_u64(4));
        assert!(a.is_finite());
        assert_eq!(a, b);
    }

    #[test]
    fn gradients_reach_edge_weights() {
        let g = graph();
        let mut model = CompileModel::new(cfg(), 6, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let mut tape = Tape::new();
        let s =
            model.score_on_tape(&mut tape, &g, Triple::new(0u32, 4u32, 3u32), Mode::Eval, &mut rng);
        tape.backward(s, model.param_store_mut());
        let store = model.param_store();
        assert!(store.grad(store.get("comp_l0_edge").unwrap()).norm() > 0.0);
        assert!(store.grad(store.get("comp_l1_msg").unwrap()).norm() > 0.0);
        assert!(store.grad(store.get("comp_rel_emb").unwrap()).norm() > 0.0);
    }

    #[test]
    fn works_with_a_single_layer() {
        let g = graph();
        let cfg = BaselineConfig { dim: 8, num_layers: 1, edge_dropout: 0.0, ..Default::default() };
        let model = CompileModel::new(cfg, 6, 2);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(model.score(&g, Triple::new(1u32, 4u32, 2u32), &mut rng).is_finite());
    }
}
