//! The assembled RMPI model.

use crate::config::{Fusion, RelationInit, RmpiConfig};
use crate::encode::RelationEncoder;
use crate::layers::{relational_message_passing, AttentionConfig, MessagePassingWeights};
use crate::ne::{disclosing_aggregate, NeWeights};
use crate::sample::{prepare_sample, SampleInput};
use crate::traits::{Mode, ScoringModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rmpi_autograd::{init, ParamId, ParamStore, Tape, Tensor, Var};
use rmpi_kg::{GraphAccess, RelationId, Triple};
use rmpi_subgraph::relview::NUM_EDGE_TYPES;
use std::fmt;

/// The forward pass's bookkeeping, kept per thread (see
/// [`RmpiModel::score_sample_on_tape`]).
#[derive(Default)]
struct ForwardScratch {
    /// Relations of the sample, then the table's row order.
    rels: Vec<RelationId>,
    /// Relation node → row of the initial-feature table.
    row_of: Vec<usize>,
    /// Table rows of the disclosing neighbours (NE).
    neighbor_rows: Vec<usize>,
}

/// RMPI with all its variants (base / NE / TA / NE-TA, SUM / CONC fusion,
/// random / schema initialisation) selected by [`RmpiConfig`].
#[derive(Clone, Debug)]
pub struct RmpiModel {
    cfg: RmpiConfig,
    store: ParamStore,
    encoder: RelationEncoder,
    mp: MessagePassingWeights,
    ne_weights: Option<NeWeights>,
    score_w: ParamId,
    fuse_w3: Option<ParamId>,
    fuse_gate: Option<ParamId>,
    ent_w: Option<ParamId>,
    num_relations: usize,
}

impl RmpiModel {
    /// Build a randomly initialised model over `num_relations` relation ids.
    ///
    /// Panics if `cfg.init` is [`RelationInit::Schema`] — use
    /// [`RmpiModel::with_schema_vectors`] for that path.
    pub fn new(cfg: RmpiConfig, num_relations: usize, seed: u64) -> Self {
        assert_eq!(cfg.init, RelationInit::Random, "schema init requires with_schema_vectors()");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let encoder = RelationEncoder::new_random(&mut store, num_relations, cfg.dim, &mut rng);
        Self::finish(cfg, store, encoder, num_relations, &mut rng)
    }

    /// Build a schema-enhanced model: initial relation features are
    /// projections (Eq. 10) of `onto` — a `(num_relations, onto_dim)` matrix
    /// of schema TransE vectors covering seen *and* unseen relations.
    pub fn with_schema_vectors(cfg: RmpiConfig, onto: Tensor, seed: u64) -> Self {
        assert_eq!(cfg.init, RelationInit::Schema, "config must request schema init");
        let num_relations = onto.rows();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let encoder = RelationEncoder::new_schema(&mut store, onto, &cfg, &mut rng);
        Self::finish(cfg, store, encoder, num_relations, &mut rng)
    }

    fn finish(
        cfg: RmpiConfig,
        mut store: ParamStore,
        encoder: RelationEncoder,
        num_relations: usize,
        rng: &mut StdRng,
    ) -> Self {
        let mp = MessagePassingWeights::new(&mut store, "mp", cfg.num_layers, cfg.dim, rng);
        let ne_weights = if cfg.ne { Some(NeWeights::new(&mut store, cfg.dim, rng)) } else { None };
        let fuse_w3 = if cfg.ne && cfg.fusion == Fusion::Concat {
            Some(store.create("fuse_w3", init::xavier_uniform(&[cfg.dim, 2 * cfg.dim], rng)))
        } else {
            None
        };
        let fuse_gate = if cfg.ne && cfg.fusion == Fusion::Gated {
            Some(store.create("fuse_gate", init::xavier_uniform(&[cfg.dim, 2 * cfg.dim], rng)))
        } else {
            None
        };
        let ent_w = if cfg.entity_clues {
            let hist_dim = crate::sample::label_histogram_len(cfg.hop + 1);
            Some(store.create("ent_w", init::xavier_uniform(&[cfg.dim, hist_dim], rng)))
        } else {
            None
        };
        let score_w = store.create("score_w", init::xavier_uniform(&[cfg.dim], rng));
        RmpiModel {
            cfg,
            store,
            encoder,
            mp,
            ne_weights,
            score_w,
            fuse_w3,
            fuse_gate,
            ent_w,
            num_relations,
        }
    }

    /// Reassemble a model from a loaded parameter store — the bundle-loading
    /// path: every handle the forward pass needs is looked up by the name
    /// [`RmpiModel::new`] would have created it under, and shapes are checked
    /// against `cfg` so a config/checkpoint mismatch fails loudly instead of
    /// scoring garbage. Schema-initialised models additionally need their
    /// fixed `onto` vectors back (they live outside the store).
    pub fn from_store(
        cfg: RmpiConfig,
        num_relations: usize,
        store: ParamStore,
        onto: Option<Tensor>,
    ) -> Result<Self, ModelAssemblyError> {
        let mut expected: Vec<String> = Vec::new();
        let mut lookup = |name: String, shape: &[usize]| -> Result<ParamId, ModelAssemblyError> {
            let id =
                store.get(&name).ok_or_else(|| ModelAssemblyError::MissingParam(name.clone()))?;
            let got = store.value(id).shape();
            if got != shape {
                return Err(ModelAssemblyError::ShapeMismatch {
                    name,
                    expected: shape.to_vec(),
                    got: got.to_vec(),
                });
            }
            expected.push(name);
            Ok(id)
        };

        let encoder = match cfg.init {
            RelationInit::Random => {
                let emb = lookup("rel_emb".into(), &[num_relations.max(1), cfg.dim])?;
                RelationEncoder::Random { emb }
            }
            RelationInit::Schema => {
                let onto = onto.ok_or(ModelAssemblyError::MissingSchemaVectors)?;
                if onto.rows() != num_relations {
                    return Err(ModelAssemblyError::SchemaVectorRows {
                        expected: num_relations,
                        got: onto.rows(),
                    });
                }
                let hidden = cfg.schema_hidden_dim();
                let w2 = lookup("onto_w2".into(), &[hidden, onto.cols()])?;
                let w1 = lookup("onto_w1".into(), &[cfg.dim, hidden])?;
                RelationEncoder::Schema { onto, w1, w2 }
            }
        };
        let w = (0..cfg.num_layers)
            .map(|k| {
                (0..NUM_EDGE_TYPES)
                    .map(|e| lookup(format!("mp_l{k}_e{e}"), &[cfg.dim, cfg.dim]))
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mp = MessagePassingWeights { w };
        let ne_weights = if cfg.ne {
            Some(NeWeights { wd: lookup("ne_wd".into(), &[cfg.dim, cfg.dim])? })
        } else {
            None
        };
        let fuse_w3 = if cfg.ne && cfg.fusion == Fusion::Concat {
            Some(lookup("fuse_w3".into(), &[cfg.dim, 2 * cfg.dim])?)
        } else {
            None
        };
        let fuse_gate = if cfg.ne && cfg.fusion == Fusion::Gated {
            Some(lookup("fuse_gate".into(), &[cfg.dim, 2 * cfg.dim])?)
        } else {
            None
        };
        let ent_w = if cfg.entity_clues {
            let hist_dim = crate::sample::label_histogram_len(cfg.hop + 1);
            Some(lookup("ent_w".into(), &[cfg.dim, hist_dim])?)
        } else {
            None
        };
        let score_w = lookup("score_w".into(), &[cfg.dim])?;

        // a parameter the config does not call for means the checkpoint was
        // written by a different variant — refuse rather than silently ignore
        if store.len() != expected.len() {
            for id in store.ids() {
                if !expected.iter().any(|n| n == store.name(id)) {
                    return Err(ModelAssemblyError::UnexpectedParam(store.name(id).to_owned()));
                }
            }
        }
        Ok(RmpiModel {
            cfg,
            store,
            encoder,
            mp,
            ne_weights,
            score_w,
            fuse_w3,
            fuse_gate,
            ent_w,
            num_relations,
        })
    }

    /// The model configuration.
    pub fn config(&self) -> &RmpiConfig {
        &self.cfg
    }

    /// Size of the relation id space the model covers.
    pub fn num_relations(&self) -> usize {
        self.num_relations
    }

    /// The fixed schema TransE vectors, when `cfg.init` is schema.
    pub fn schema_vectors(&self) -> Option<&Tensor> {
        self.encoder.schema_vectors()
    }

    /// Build the deterministic (eval-mode) forward input for `target`, with
    /// all stochastic choices (oversized-subgraph downsampling) drawn from a
    /// fresh RNG seeded with `seed`. This is the extraction half of
    /// [`ScoringModel::score`]: scoring the returned sample via
    /// [`RmpiModel::score_sample`] is bit-identical to
    /// `self.score(graph, target, &mut StdRng::seed_from_u64(seed))` — which
    /// is what lets a serving cache store the sample and replay it later.
    pub fn prepare_eval_sample<G: GraphAccess + ?Sized>(
        &self,
        graph: &G,
        target: Triple,
        seed: u64,
    ) -> SampleInput {
        let mut rng = StdRng::seed_from_u64(seed);
        prepare_sample(graph, target, &self.cfg, Mode::Eval, &mut rng)
    }

    /// Record the score of an already-prepared sample on `tape` — the
    /// cache-hit scoring path. The forward pass past sample preparation is
    /// fully deterministic, so the result depends only on the sample and the
    /// parameters.
    ///
    /// This is the one forward: training, offline evaluation and the serving
    /// engine all record through it. Its bookkeeping lives in per-thread
    /// scratch and the tape recycles its node storage, so re-scoring on a
    /// reset tape allocates nothing once both are warm.
    pub fn score_sample_on_tape(&self, tape: &mut Tape, sample: &SampleInput) -> Var {
        let target = sample.target;
        assert!(
            target.relation.index() < self.num_relations,
            "relation {} outside the model's id space ({})",
            target.relation,
            self.num_relations
        );
        rmpi_runtime::with_scratch(|s: &mut ForwardScratch| self.forward(tape, sample, s))
    }

    fn forward(&self, tape: &mut Tape, sample: &SampleInput, s: &mut ForwardScratch) -> Var {
        let target = sample.target;
        // every relation whose h^0 the pass needs, one table row each
        let mut rels = std::mem::take(&mut s.rels);
        rels.clear();
        rels.extend(sample.relview.nodes.iter().map(|n| n.relation));
        rels.extend_from_slice(&sample.disclosing_rels);
        rels.push(target.relation);
        let table = self.encoder.encode_table(tape, &self.store, rels);

        s.row_of.clear();
        s.row_of.extend(sample.relview.nodes.iter().map(|n| table.row(n.relation)));
        let h_rt = relational_message_passing(
            tape,
            &self.store,
            &self.mp,
            AttentionConfig { enabled: self.cfg.ta, leaky_slope: self.cfg.leaky_slope },
            &sample.relview,
            &sample.schedule,
            table.h0,
            &s.row_of,
        );

        let w = tape.param(&self.store, self.score_w);
        let mut fused = match self.ne_weights {
            Some(ne) => {
                s.neighbor_rows.clear();
                s.neighbor_rows.extend(sample.disclosing_rels.iter().map(|&r| table.row(r)));
                let h_d = disclosing_aggregate(
                    tape,
                    &self.store,
                    ne,
                    table.h0,
                    table.row(target.relation),
                    &s.neighbor_rows,
                    self.cfg.leaky_slope,
                );
                match self.cfg.fusion {
                    Fusion::Sum => tape.add(h_rt, h_d),
                    Fusion::Concat => {
                        let cat = tape.concat(&[h_rt, h_d]);
                        let w3 =
                            tape.param(&self.store, self.fuse_w3.expect("concat fusion weight"));
                        tape.matvec(w3, cat)
                    }
                    Fusion::Gated => {
                        let cat = tape.concat(&[h_rt, h_d]);
                        let wg =
                            tape.param(&self.store, self.fuse_gate.expect("gated fusion weight"));
                        let logits = tape.matvec(wg, cat);
                        let g = tape.sigmoid(logits);
                        let dim = self.cfg.dim;
                        let ones = tape.constant_with(&[dim], |ones| ones.resize(dim, 1.0));
                        let g_inv = tape.sub(ones, g);
                        let a = tape.mul(g, h_rt);
                        let b = tape.mul(g_inv, h_d);
                        tape.add(a, b)
                    }
                }
            }
            None => h_rt,
        };
        if let Some(ent_w) = self.ent_w {
            let hist = sample.label_histogram.as_deref().expect("entity-clue histogram");
            let hist_v = tape.constant_with(&[hist.len()], |h| h.extend_from_slice(hist));
            let wv = tape.param(&self.store, ent_w);
            let lin = tape.matvec(wv, hist_v);
            let clue = tape.relu(lin);
            fused = tape.add(fused, clue);
        }
        s.rels = table.into_rels();
        tape.dot(w, fused)
    }

    /// Eagerly score an already-prepared sample.
    pub fn score_sample(&self, sample: &SampleInput) -> f32 {
        let mut tape = Tape::new();
        let v = self.score_sample_on_tape(&mut tape, sample);
        tape.value(v).item()
    }
}

/// Errors from [`RmpiModel::from_store`]: the parameter store does not match
/// what the configuration says the model should look like.
#[derive(Debug)]
pub enum ModelAssemblyError {
    /// A parameter the config calls for is absent.
    MissingParam(String),
    /// A parameter exists but with the wrong shape.
    ShapeMismatch {
        /// Parameter name.
        name: String,
        /// Shape the config implies.
        expected: Vec<usize>,
        /// Shape found in the store.
        got: Vec<usize>,
    },
    /// The store holds a parameter the config does not call for.
    UnexpectedParam(String),
    /// Schema init requested but no schema vectors supplied.
    MissingSchemaVectors,
    /// Schema vectors do not cover the relation id space.
    SchemaVectorRows {
        /// Relations the model must cover.
        expected: usize,
        /// Rows the supplied matrix has.
        got: usize,
    },
}

impl fmt::Display for ModelAssemblyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelAssemblyError::MissingParam(name) => write!(f, "missing parameter {name:?}"),
            ModelAssemblyError::ShapeMismatch { name, expected, got } => {
                write!(f, "parameter {name:?} has shape {got:?}, config implies {expected:?}")
            }
            ModelAssemblyError::UnexpectedParam(name) => {
                write!(f, "unexpected parameter {name:?} for this configuration")
            }
            ModelAssemblyError::MissingSchemaVectors => {
                write!(f, "schema-initialised model needs its schema vectors")
            }
            ModelAssemblyError::SchemaVectorRows { expected, got } => {
                write!(f, "schema vectors cover {got} relations, model needs {expected}")
            }
        }
    }
}

impl std::error::Error for ModelAssemblyError {}

impl ScoringModel for RmpiModel {
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
        let sample = prepare_sample(graph, target, &self.cfg, mode, rng);
        self.score_sample_on_tape(tape, &sample)
    }

    fn context_radius(&self) -> usize {
        self.cfg.hop
    }

    fn name(&self) -> String {
        self.cfg.variant_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RmpiConfig;
    use rmpi_kg::KnowledgeGraph;

    fn toy_graph() -> KnowledgeGraph {
        KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 1u32, 3u32),
            Triple::new(0u32, 2u32, 2u32),
            Triple::new(2u32, 3u32, 3u32),
            Triple::new(3u32, 4u32, 4u32),
        ])
    }

    fn small_cfg() -> RmpiConfig {
        RmpiConfig { dim: 8, edge_dropout: 0.0, ..Default::default() }
    }

    #[test]
    fn all_variants_produce_finite_scores() {
        let g = toy_graph();
        let target = Triple::new(0u32, 5u32, 3u32);
        for cfg in [
            small_cfg(),
            RmpiConfig { ne: true, ..small_cfg() },
            RmpiConfig { ta: true, ..small_cfg() },
            RmpiConfig { ne: true, ta: true, ..small_cfg() },
            RmpiConfig { ne: true, fusion: Fusion::Concat, ..small_cfg() },
        ] {
            let model = RmpiModel::new(cfg, 6, 0);
            let mut rng = StdRng::seed_from_u64(0);
            let s = model.score(&g, target, &mut rng);
            assert!(s.is_finite(), "{}: score {s}", model.name());
        }
    }

    #[test]
    fn eval_scores_are_deterministic() {
        let g = toy_graph();
        let target = Triple::new(0u32, 5u32, 3u32);
        let model = RmpiModel::new(RmpiConfig { ne: true, ta: true, ..small_cfg() }, 6, 1);
        let a = model.score(&g, target, &mut StdRng::seed_from_u64(0));
        let b = model.score(&g, target, &mut StdRng::seed_from_u64(99));
        assert_eq!(a, b, "eval forward must not depend on the rng");
    }

    #[test]
    fn unseen_relation_scores_without_panicking() {
        let g = toy_graph();
        // relation 5 never occurs in the graph: the fully-inductive case
        let target = Triple::new(0u32, 5u32, 3u32);
        let model = RmpiModel::new(small_cfg(), 6, 2);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(model.score(&g, target, &mut rng).is_finite());
    }

    #[test]
    #[should_panic(expected = "outside the model's id space")]
    fn out_of_space_relation_panics() {
        let g = toy_graph();
        let model = RmpiModel::new(small_cfg(), 6, 2);
        let mut rng = StdRng::seed_from_u64(3);
        model.score(&g, Triple::new(0u32, 17u32, 3u32), &mut rng);
    }

    #[test]
    fn schema_model_uses_onto_vectors() {
        let g = toy_graph();
        let target = Triple::new(0u32, 5u32, 3u32);
        let onto_a = Tensor::matrix(6, 10, vec![0.1; 60]);
        let onto_b = Tensor::matrix(6, 10, (0..60).map(|i| (i as f32 * 0.37).sin()).collect());
        let cfg = RmpiConfig { init: RelationInit::Schema, ..small_cfg() };
        let ma = RmpiModel::with_schema_vectors(cfg, onto_a, 7);
        let mb = RmpiModel::with_schema_vectors(cfg, onto_b, 7);
        let mut rng = StdRng::seed_from_u64(0);
        let sa = ma.score(&g, target, &mut rng);
        let sb = mb.score(&g, target, &mut rng);
        assert_ne!(sa, sb, "different schema vectors must change the score");
    }

    #[test]
    fn gradients_reach_scoring_head() {
        let g = toy_graph();
        let target = Triple::new(0u32, 5u32, 3u32);
        let mut model = RmpiModel::new(RmpiConfig { ne: true, ..small_cfg() }, 6, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let mut tape = Tape::new();
        let s = model.score_on_tape(&mut tape, &g, target, Mode::Eval, &mut rng);
        tape.backward(s, model.param_store_mut());
        let store = model.param_store();
        assert!(store.grad(store.get("score_w").unwrap()).norm() > 0.0);
        assert!(store.grad(store.get("rel_emb").unwrap()).norm() > 0.0);
        assert!(store.grad(store.get("ne_wd").unwrap()).norm() > 0.0);
    }

    #[test]
    fn gated_fusion_and_entity_clues_score_and_backprop() {
        let g = toy_graph();
        let target = Triple::new(0u32, 5u32, 3u32);
        let cfg = RmpiConfig { ne: true, fusion: Fusion::Gated, entity_clues: true, ..small_cfg() };
        let mut model = RmpiModel::new(cfg, 6, 8);
        assert_eq!(model.name(), "RMPI-NE(G)+EC");
        let mut rng = StdRng::seed_from_u64(1);
        let mut tape = Tape::new();
        let s = model.score_on_tape(&mut tape, &g, target, Mode::Eval, &mut rng);
        assert!(tape.value(s).item().is_finite());
        tape.backward(s, model.param_store_mut());
        let store = model.param_store();
        assert!(store.grad(store.get("fuse_gate").unwrap()).norm() > 0.0);
        assert!(store.grad(store.get("ent_w").unwrap()).norm() > 0.0);
    }

    #[test]
    fn fusion_variants_differ() {
        let g = toy_graph();
        let target = Triple::new(0u32, 5u32, 3u32);
        let mut rng = StdRng::seed_from_u64(2);
        let mut scores = Vec::new();
        for fusion in [Fusion::Sum, Fusion::Concat, Fusion::Gated] {
            let cfg = RmpiConfig { ne: true, fusion, ..small_cfg() };
            let model = RmpiModel::new(cfg, 6, 9);
            scores.push(model.score(&g, target, &mut rng));
        }
        assert_ne!(scores[0], scores[1]);
        assert_ne!(scores[0], scores[2]);
    }

    #[test]
    fn prepared_sample_scores_match_direct_scoring() {
        let g = toy_graph();
        let target = Triple::new(0u32, 5u32, 3u32);
        let model = RmpiModel::new(RmpiConfig { ne: true, ta: true, ..small_cfg() }, 6, 11);
        let direct = model.score(&g, target, &mut StdRng::seed_from_u64(42));
        let sample = model.prepare_eval_sample(&g, target, 42);
        assert_eq!(model.score_sample(&sample), direct);
        // replaying the same sample (the cache-hit path) stays bit-identical
        assert_eq!(model.score_sample(&sample), direct);
    }

    #[test]
    fn from_store_reassembles_bitwise_identical_model() {
        let g = toy_graph();
        let target = Triple::new(0u32, 5u32, 3u32);
        for cfg in [
            small_cfg(),
            RmpiConfig { ne: true, ta: true, ..small_cfg() },
            RmpiConfig { ne: true, fusion: Fusion::Gated, entity_clues: true, ..small_cfg() },
        ] {
            let model = RmpiModel::new(cfg, 6, 13);
            let rebuilt = RmpiModel::from_store(cfg, 6, model.param_store().clone(), None)
                .expect("reassembly must accept the model's own store");
            let mut rng = StdRng::seed_from_u64(0);
            let a = model.score(&g, target, &mut rng);
            let b = rebuilt.score(&g, target, &mut StdRng::seed_from_u64(0));
            assert_eq!(a, b, "{}", model.name());
        }
    }

    #[test]
    fn from_store_rejects_mismatched_configs() {
        let base = RmpiModel::new(small_cfg(), 6, 0);
        // config wants NE weights the checkpoint lacks
        let err = RmpiModel::from_store(
            RmpiConfig { ne: true, ..small_cfg() },
            6,
            base.param_store().clone(),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, ModelAssemblyError::MissingParam(_)), "{err}");
        // checkpoint has NE weights the config does not call for
        let ne_model = RmpiModel::new(RmpiConfig { ne: true, ..small_cfg() }, 6, 0);
        let err = RmpiModel::from_store(small_cfg(), 6, ne_model.param_store().clone(), None)
            .unwrap_err();
        assert!(matches!(err, ModelAssemblyError::UnexpectedParam(_)), "{err}");
        // wrong dimension
        let err = RmpiModel::from_store(
            RmpiConfig { dim: 16, ..small_cfg() },
            6,
            base.param_store().clone(),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, ModelAssemblyError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn from_store_schema_model_needs_onto() {
        let cfg = RmpiConfig { init: RelationInit::Schema, ..small_cfg() };
        let onto = Tensor::matrix(6, 10, vec![0.2; 60]);
        let model = RmpiModel::with_schema_vectors(cfg, onto.clone(), 3);
        assert!(model.schema_vectors().is_some());
        let err = RmpiModel::from_store(cfg, 6, model.param_store().clone(), None).unwrap_err();
        assert!(matches!(err, ModelAssemblyError::MissingSchemaVectors), "{err}");
        let rebuilt =
            RmpiModel::from_store(cfg, 6, model.param_store().clone(), Some(onto)).unwrap();
        let g = toy_graph();
        let t = Triple::new(0u32, 5u32, 3u32);
        let a = model.score(&g, t, &mut StdRng::seed_from_u64(1));
        let b = rebuilt.score(&g, t, &mut StdRng::seed_from_u64(1));
        assert_eq!(a, b);
    }

    /// A cloned model and its original never see each other's updates,
    /// whichever of the two steps.
    #[test]
    fn cloned_models_step_independently() {
        use rmpi_autograd::optim::Adam;
        let g = toy_graph();
        let target = Triple::new(0u32, 5u32, 3u32);
        let sample = |m: &RmpiModel| m.prepare_eval_sample(&g, target, 0);
        let step = |m: &mut RmpiModel| {
            let mut tape = Tape::new();
            let s = m.score_sample_on_tape(&mut tape, &sample(m));
            tape.backward(s, m.param_store_mut());
            drop(tape);
            let readout = m.score_w;
            m.param_store_mut().value_mut(readout).data_mut()[0] += 1.0;
            Adam::new(0.1).step(m.param_store_mut());
        };
        let mut original = RmpiModel::new(RmpiConfig { ne: true, ta: true, ..small_cfg() }, 6, 3);
        let score = |m: &RmpiModel| m.score_sample(&sample(m)).to_bits();

        let clone = original.clone();
        let before = score(&clone);
        step(&mut original);
        assert_ne!(score(&original), before, "the original stepped");
        assert_eq!(score(&clone), before, "the clone did not");

        let mut clone = original.clone();
        let before = score(&original);
        step(&mut clone);
        assert_ne!(score(&clone), before);
        assert_eq!(score(&original), before);
    }

    #[test]
    fn empty_subgraph_still_scores_with_ne() {
        let g = KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(5u32, 1u32, 6u32),
        ]);
        let target = Triple::new(0u32, 2u32, 5u32);
        let model = RmpiModel::new(RmpiConfig { ne: true, ..small_cfg() }, 4, 6);
        let mut rng = StdRng::seed_from_u64(7);
        assert!(model.score(&g, target, &mut rng).is_finite());
    }
}
