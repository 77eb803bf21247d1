//! TACT (Chen et al., AAAI 2021) — topology-aware relation correlations.
//!
//! [`TactBaseModel`] is the relational-correlation module alone: a *single*
//! aggregation of the target relation's one-hop neighbours in the relation
//! view, grouped by the six topological patterns. It supports unseen
//! relations (their representation is built from neighbours) and schema
//! initialisation, which is why the paper uses it as the fully-inductive
//! baseline. Crucially it cannot see past one hop — the contrast RMPI's
//! multi-layer passing exploits.
//!
//! [`TactModel`] is the full model: GraIL's entity-view encoder, with the
//! target relation's raw embedding in the scoring function replaced by the
//! correlation-enriched representation.

use crate::common::{prepare_entity_sample, BaselineConfig};
use crate::grail::{grail_encode, GrailEncoderWeights};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rmpi_autograd::{init, ParamId, ParamStore, Tape, Tensor, Var};
use rmpi_core::config::{RelationInit, RmpiConfig};
use rmpi_core::encode::{RelationEncoder, RelationTable};
use rmpi_core::sample::prepare_sample;
use rmpi_core::{Mode, ScoringModel};
use rmpi_kg::{GraphAccess, RelationId, Triple};
use rmpi_subgraph::relview::{RelViewGraph, NUM_EDGE_TYPES, TARGET_NODE};

/// The shared correlation-module parameters: one transform per topological
/// pattern.
#[derive(Clone, Debug)]
pub(crate) struct CorrelationWeights {
    /// `w[e]`: `(dim, dim)` transform for pattern `e`.
    pub(crate) w: Vec<ParamId>,
}

impl CorrelationWeights {
    /// Register the six pattern transforms under `prefix`.
    fn new(store: &mut ParamStore, prefix: &str, dim: usize, rng: &mut StdRng) -> Self {
        let w = (0..NUM_EDGE_TYPES)
            .map(|e| {
                store.create(&format!("{prefix}_corr_e{e}"), init::xavier_uniform(&[dim, dim], rng))
            })
            .collect();
        CorrelationWeights { w }
    }
}

/// One-hop correlation aggregation: `h = ReLU(Σ_e Σ_j W_e h_j^0) + h_rt^0`.
fn correlate_target(
    tape: &mut Tape,
    store: &ParamStore,
    weights: &CorrelationWeights,
    rv: &RelViewGraph,
    h0: &RelationTable,
    target_rel: RelationId,
    dim: usize,
) -> Var {
    // one rank-1 var per distinct relation, shared by every edge that carries it
    let rows: Vec<Var> = (0..h0.len()).map(|i| tape.row(h0.h0, i)).collect();
    let mut groups: [Vec<Var>; NUM_EDGE_TYPES] = Default::default();
    for e in rv.incoming(TARGET_NODE) {
        let rel = rv.nodes[e.src].relation;
        groups[e.etype.index()].push(rows[h0.row(rel)]);
    }
    let mut acc: Option<Var> = None;
    for (etype, members) in groups.iter().enumerate() {
        if members.is_empty() {
            continue;
        }
        let w = tape.param(store, weights.w[etype]);
        let msgs: Vec<Var> = members.iter().map(|&m| tape.matvec(w, m)).collect();
        let stacked = tape.stack(&msgs);
        let ones = tape.constant(Tensor::full(&[msgs.len()], 1.0));
        let summed = tape.vecmat(ones, stacked);
        acc = Some(match acc {
            Some(a) => tape.add(a, summed),
            None => summed,
        });
    }
    let h_t0 = rows[h0.row(target_rel)];
    match acc {
        Some(a) => {
            let act = tape.relu(a);
            tape.add(act, h_t0)
        }
        None => {
            let zeros = tape.constant(Tensor::zeros(&[dim]));
            tape.add(zeros, h_t0)
        }
    }
}

/// TACT-base: the correlation module with a linear scoring head.
#[derive(Clone, Debug)]
pub struct TactBaseModel {
    cfg: RmpiConfig,
    store: ParamStore,
    encoder: RelationEncoder,
    corr: CorrelationWeights,
    score_w: ParamId,
    num_relations: usize,
}

impl TactBaseModel {
    /// Randomly initialised TACT-base.
    pub fn new(dim: usize, hop: usize, num_relations: usize, seed: u64) -> Self {
        let cfg = RmpiConfig { dim, hop, ne: false, ta: false, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let encoder = RelationEncoder::new_random(&mut store, num_relations, dim, &mut rng);
        let corr = CorrelationWeights::new(&mut store, "tactb", dim, &mut rng);
        let score_w = store.create("tactb_score_w", init::xavier_uniform(&[dim], &mut rng));
        TactBaseModel { cfg, store, encoder, corr, score_w, num_relations }
    }

    /// Schema-enhanced TACT-base: initial relation features projected from
    /// `onto` TransE vectors (same Eq. 10 pathway as RMPI).
    pub fn with_schema_vectors(dim: usize, hop: usize, onto: Tensor, seed: u64) -> Self {
        let cfg = RmpiConfig { dim, hop, init: RelationInit::Schema, ..Default::default() };
        let num_relations = onto.rows();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let encoder = RelationEncoder::new_schema(&mut store, onto, &cfg, &mut rng);
        let corr = CorrelationWeights::new(&mut store, "tactb", dim, &mut rng);
        let score_w = store.create("tactb_score_w", init::xavier_uniform(&[dim], &mut rng));
        TactBaseModel { cfg, store, encoder, corr, score_w, num_relations }
    }
}

impl ScoringModel for TactBaseModel {
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
        let sample = prepare_sample(graph, target, &self.cfg, mode, rng);
        let mut rels: Vec<RelationId> = sample.relview.nodes.iter().map(|n| n.relation).collect();
        rels.push(target.relation);
        let h0 = self.encoder.encode_table(tape, &self.store, rels);
        let h = correlate_target(
            tape,
            &self.store,
            &self.corr,
            &sample.relview,
            &h0,
            target.relation,
            self.cfg.dim,
        );
        let w = tape.param(&self.store, self.score_w);
        tape.dot(w, h)
    }

    fn context_radius(&self) -> usize {
        self.cfg.hop
    }

    fn name(&self) -> String {
        match self.cfg.init {
            RelationInit::Random => "TACT-base".to_owned(),
            RelationInit::Schema => "TACT-base+schema".to_owned(),
        }
    }
}

/// Full TACT: GraIL encoder + correlation-enriched target relation.
#[derive(Clone, Debug)]
pub struct TactModel {
    cfg: BaselineConfig,
    store: ParamStore,
    grail: GrailEncoderWeights,
    corr: CorrelationWeights,
    rel_encoder: RelationEncoder,
    score_w: ParamId,
    num_relations: usize,
    rmpi_cfg: RmpiConfig,
}

impl TactModel {
    /// Build full TACT over `num_relations` relation ids.
    pub fn new(cfg: BaselineConfig, num_relations: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let grail = GrailEncoderWeights::new(&mut store, "tact", &cfg, num_relations, &mut rng);
        let corr = CorrelationWeights::new(&mut store, "tact", cfg.dim, &mut rng);
        let rel_encoder = RelationEncoder::new_random(&mut store, num_relations, cfg.dim, &mut rng);
        let score_w = store.create("tact_score_w", init::xavier_uniform(&[4 * cfg.dim], &mut rng));
        let rmpi_cfg = RmpiConfig {
            dim: cfg.dim,
            hop: cfg.hop,
            edge_dropout: cfg.edge_dropout,
            max_subgraph_edges: cfg.max_subgraph_edges,
            ..Default::default()
        };
        TactModel { cfg, store, grail, corr, rel_encoder, score_w, num_relations, rmpi_cfg }
    }
}

impl ScoringModel for TactModel {
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
        // entity-view half
        let esample = prepare_entity_sample(graph, target, &self.cfg, mode, rng);
        let enc = grail_encode(tape, &self.store, &self.grail, &self.cfg, &esample);
        // relation-view half: correlation-enriched target representation
        // (same mode as the entity half, so edge dropout regularises both)
        let rsample = prepare_sample(graph, target, &self.rmpi_cfg, mode, rng);
        let mut rels: Vec<RelationId> = rsample.relview.nodes.iter().map(|n| n.relation).collect();
        rels.push(target.relation);
        let h0 = self.rel_encoder.encode_table(tape, &self.store, rels);
        let rt_corr = correlate_target(
            tape,
            &self.store,
            &self.corr,
            &rsample.relview,
            &h0,
            target.relation,
            self.cfg.dim,
        );
        let cat = tape.concat(&[enc.h_graph, enc.h_u, enc.h_v, rt_corr]);
        let w = tape.param(&self.store, self.score_w);
        tape.dot(w, cat)
    }

    fn context_radius(&self) -> usize {
        // Both the entity-view and relation-view halves extract at cfg.hop
        // (rmpi_cfg.hop mirrors it).
        self.cfg.hop
    }

    fn name(&self) -> String {
        "TACT".to_owned()
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

    #[test]
    fn tact_base_scores_unseen_relations() {
        let g = graph();
        let model = TactBaseModel::new(8, 2, 8, 0);
        let mut rng = StdRng::seed_from_u64(0);
        // relation 7 never appears in the graph
        let s = model.score(&g, Triple::new(0u32, 7u32, 3u32), &mut rng);
        assert!(s.is_finite());
        assert_eq!(model.name(), "TACT-base");
    }

    #[test]
    fn tact_base_schema_variant_differs() {
        let g = graph();
        let onto = Tensor::matrix(8, 12, (0..96).map(|i| ((i * 31) % 17) as f32 * 0.05).collect());
        let model = TactBaseModel::with_schema_vectors(8, 2, onto, 0);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(model.score(&g, Triple::new(0u32, 7u32, 3u32), &mut rng).is_finite());
        assert_eq!(model.name(), "TACT-base+schema");
    }

    #[test]
    fn tact_base_uses_neighborhood() {
        // a target with neighbours must score differently from one without
        let g = graph();
        let model = TactBaseModel::new(8, 2, 8, 1);
        let mut rng = StdRng::seed_from_u64(0);
        let with_ctx = model.score(&g, Triple::new(0u32, 7u32, 3u32), &mut rng);
        let lonely = KnowledgeGraph::from_triples(vec![Triple::new(5u32, 0u32, 6u32)]);
        let without_ctx = model.score(&lonely, Triple::new(0u32, 7u32, 3u32), &mut rng);
        assert_ne!(with_ctx, without_ctx);
    }

    #[test]
    fn full_tact_scores_and_backprops() {
        let g = graph();
        let mut model = TactModel::new(
            BaselineConfig { dim: 8, edge_dropout: 0.0, ..Default::default() },
            6,
            2,
        );
        let mut rng = StdRng::seed_from_u64(3);
        let mut tape = Tape::new();
        let s =
            model.score_on_tape(&mut tape, &g, Triple::new(0u32, 4u32, 3u32), Mode::Eval, &mut rng);
        assert!(tape.value(s).item().is_finite());
        tape.backward(s, model.param_store_mut());
        let store = model.param_store();
        assert!(store.grad(store.get("tact_score_w").unwrap()).norm() > 0.0);
        // correlation transforms receive gradient when the target has relview neighbours
        let corr_grad: f32 = (0..NUM_EDGE_TYPES)
            .map(|e| store.grad(store.get(&format!("tact_corr_e{e}")).unwrap()).norm())
            .sum();
        assert!(corr_grad > 0.0);
    }
}
