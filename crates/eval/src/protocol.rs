//! Evaluation protocols (paper §IV-B).
//!
//! Every ranking loop here is embarrassingly parallel across targets: each
//! target owns an RNG derived from `(seed, stream, target index)` via
//! [`mix_seed`], candidate generation and scoring run inside the worker, and
//! only per-target results (scores, ranks) come back — in index order. The
//! metrics computed from them are therefore bit-identical for every
//! [`EvalConfig::threads`] setting.

use crate::metrics::{average_precision, hits_at, mean_reciprocal_rank, rank_of};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rmpi_core::ScoringModel;
use rmpi_datasets::TestSet;
use rmpi_runtime::{mix_seed, ThreadPool};
use rmpi_subgraph::NegativeSampler;

/// RNG stream ids for [`mix_seed`], one per protocol (disjoint from the
/// trainer's streams by convention — trainer uses 1..=4).
mod stream {
    /// Triple classification negatives + scoring draws.
    pub(crate) const CLASSIFY: u64 = 11;
    /// Entity-prediction candidates + scoring draws.
    pub(crate) const ENTITY: u64 = 12;
    /// Paired entity prediction per-item scoring draws.
    pub(crate) const PAIRED: u64 = 13;
}

/// Protocol parameters.
#[derive(Clone, Copy, Debug)]
pub struct EvalConfig {
    /// Ranking candidates per side (paper: 49).
    pub num_candidates: usize,
    /// Cap on evaluated targets (0 = all).
    pub max_targets: usize,
    /// RNG seed for negatives/candidates.
    pub seed: u64,
    /// Worker threads for candidate scoring (`0` = one per available core).
    /// Metrics are bit-identical for every value.
    pub threads: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig { num_candidates: 49, max_targets: 200, seed: 0, threads: 1 }
    }
}

/// Aggregated metrics of one evaluation run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EvalMetrics {
    /// Triple-classification AUC-PR (×100).
    pub auc_pr: f64,
    /// Entity-prediction mean reciprocal rank (×100).
    pub mrr: f64,
    /// Entity-prediction Hits@1 (×100).
    pub hits1: f64,
    /// Entity-prediction Hits@10 (×100).
    pub hits10: f64,
    /// Number of target triples evaluated.
    pub num_targets: usize,
}

fn select_targets(test: &TestSet, cfg: &EvalConfig, rng: &mut StdRng) -> Vec<rmpi_kg::Triple> {
    let mut targets = test.targets.clone();
    targets.shuffle(rng);
    if cfg.max_targets > 0 {
        targets.truncate(cfg.max_targets);
    }
    targets
}

/// Triple classification: one corrupted negative per positive, AUC-PR over
/// the pooled scores (×100).
pub fn triple_classification<M: ScoringModel + Sync + ?Sized>(
    model: &M,
    test: &TestSet,
    cfg: &EvalConfig,
) -> (f64, usize) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let sampler = NegativeSampler::from_graph(&test.graph);
    let targets = select_targets(test, cfg, &mut rng);
    let pool = ThreadPool::new(cfg.threads);
    let pairs: Vec<(f32, f32)> = pool.map_indexed(targets.len(), |i| {
        let pos = targets[i];
        let mut rng = StdRng::seed_from_u64(mix_seed(cfg.seed, stream::CLASSIFY, i as u64));
        let neg = sampler.corrupt(pos, &test.graph, &mut rng);
        (model.score(&test.graph, pos, &mut rng), model.score(&test.graph, neg, &mut rng))
    });
    let mut scored: Vec<(f32, bool)> = Vec::with_capacity(2 * targets.len());
    for (p, n) in pairs {
        scored.push((p, true));
        scored.push((n, false));
    }
    (average_precision(&scored) * 100.0, targets.len())
}

/// Entity prediction: rank the ground truth against `num_candidates`
/// corrupted entities, on both the head and the tail side. Returns
/// `(mrr, hits1, hits10, num_targets)`, all ×100.
pub fn entity_prediction<M: ScoringModel + Sync + ?Sized>(
    model: &M,
    test: &TestSet,
    cfg: &EvalConfig,
) -> (f64, f64, f64, usize) {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(1));
    let sampler = NegativeSampler::from_graph(&test.graph);
    let targets = select_targets(test, cfg, &mut rng);
    let pool = ThreadPool::new(cfg.threads);
    // Each target is self-contained: its RNG drives candidate generation and
    // any scoring draws, so per-target rank lists are schedule-independent.
    let per_target: Vec<Vec<usize>> = pool.map_indexed(targets.len(), |i| {
        let pos = targets[i];
        let mut rng = StdRng::seed_from_u64(mix_seed(cfg.seed, stream::ENTITY, i as u64));
        let gt = model.score(&test.graph, pos, &mut rng);
        let mut ranks = Vec::with_capacity(2);
        for corrupt_head in [false, true] {
            let cands = sampler.ranking_candidates(
                pos,
                cfg.num_candidates,
                corrupt_head,
                &test.graph,
                &mut rng,
            );
            if cands.is_empty() {
                continue;
            }
            let scores: Vec<f32> =
                cands.iter().map(|&c| model.score(&test.graph, c, &mut rng)).collect();
            ranks.push(rank_of(gt, &scores));
        }
        ranks
    });
    let ranks: Vec<usize> = per_target.into_iter().flatten().collect();
    (
        mean_reciprocal_rank(&ranks) * 100.0,
        hits_at(&ranks, 1) * 100.0,
        hits_at(&ranks, 10) * 100.0,
        targets.len(),
    )
}

/// Paired entity prediction: evaluate several models on *identical* targets
/// and candidate sets, returning one mean-reciprocal-rank per target per
/// model — the paired per-item scores that
/// [`crate::stats::paired_bootstrap`] consumes.
///
/// Targets and candidates are sampled once up front, so model-side rng
/// consumption cannot desynchronise the pairing.
pub fn entity_prediction_paired(
    models: &[&(dyn ScoringModel + Sync)],
    test: &TestSet,
    cfg: &EvalConfig,
) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(3));
    let sampler = NegativeSampler::from_graph(&test.graph);
    let targets = select_targets(test, cfg, &mut rng);
    // pre-generate every candidate list (sequentially, from one rng — the
    // whole point of the paired protocol is one shared candidate universe)
    let prepared: Vec<(rmpi_kg::Triple, Vec<Vec<rmpi_kg::Triple>>)> = targets
        .iter()
        .map(|&pos| {
            let sides = [false, true]
                .into_iter()
                .map(|ch| {
                    sampler.ranking_candidates(pos, cfg.num_candidates, ch, &test.graph, &mut rng)
                })
                .filter(|c| !c.is_empty())
                .collect();
            (pos, sides)
        })
        .collect();

    let pool = ThreadPool::new(cfg.threads);
    models
        .iter()
        .map(|model| {
            pool.map_indexed(prepared.len(), |i| {
                let (pos, sides) = &prepared[i];
                // the per-item scoring rng is keyed by item only (not model),
                // so stochastic models draw *identical* streams on every side
                // of the pairing
                let mut mrng = StdRng::seed_from_u64(mix_seed(cfg.seed, stream::PAIRED, i as u64));
                let gt = model.score(&test.graph, *pos, &mut mrng);
                if sides.is_empty() {
                    return 1.0;
                }
                sides
                    .iter()
                    .map(|cands| {
                        let scores: Vec<f32> =
                            cands.iter().map(|&c| model.score(&test.graph, c, &mut mrng)).collect();
                        1.0 / rank_of(gt, &scores) as f64
                    })
                    .sum::<f64>()
                    / sides.len() as f64
            })
        })
        .collect()
}

/// Run both protocols and collect an [`EvalMetrics`].
pub fn evaluate<M: ScoringModel + Sync + ?Sized>(
    model: &M,
    test: &TestSet,
    cfg: &EvalConfig,
) -> EvalMetrics {
    let (auc_pr, n1) = triple_classification(model, test, cfg);
    let (mrr, hits1, hits10, n2) = entity_prediction(model, test, cfg);
    EvalMetrics { auc_pr, mrr, hits1, hits10, num_targets: n1.max(n2) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmpi_autograd::{ParamStore, Tape, Var};
    use rmpi_core::Mode;
    use rmpi_kg::{GraphAccess, KnowledgeGraph, Triple};

    /// An oracle that scores known facts high and everything else low.
    struct Oracle {
        store: ParamStore,
        facts: KnowledgeGraph,
    }

    impl ScoringModel for Oracle {
        fn param_store(&self) -> &ParamStore {
            &self.store
        }
        fn param_store_mut(&mut self) -> &mut ParamStore {
            &mut self.store
        }
        fn score_on_tape(
            &self,
            tape: &mut Tape,
            _graph: &dyn GraphAccess,
            target: Triple,
            _mode: Mode,
            _rng: &mut StdRng,
        ) -> Var {
            let s = if self.facts.contains(&target) { 10.0 } else { -10.0 };
            tape.constant(rmpi_autograd::Tensor::scalar(s))
        }
        fn context_radius(&self) -> usize {
            0
        }
        fn name(&self) -> String {
            "Oracle".to_owned()
        }
    }

    fn test_set() -> (TestSet, KnowledgeGraph) {
        let context: Vec<Triple> = (0..30u32).map(|i| Triple::new(i, 0u32, (i + 1) % 30)).collect();
        let targets: Vec<Triple> = (0..30u32).map(|i| Triple::new(i, 1u32, (i + 2) % 30)).collect();
        let graph = KnowledgeGraph::from_triples(context);
        let all = graph.with_extra_triples(&targets);
        (TestSet { name: "TE".into(), graph, targets }, all)
    }

    #[test]
    fn oracle_gets_perfect_scores() {
        let (test, all_facts) = test_set();
        let model = Oracle { store: ParamStore::new(), facts: all_facts };
        let cfg = EvalConfig { num_candidates: 10, max_targets: 20, seed: 1, ..Default::default() };
        let m = evaluate(&model, &test, &cfg);
        assert!(m.auc_pr > 99.0, "auc {}", m.auc_pr);
        assert!(m.mrr > 99.0, "mrr {}", m.mrr);
        assert_eq!(m.hits10, 100.0);
        assert_eq!(m.num_targets, 20);
    }

    #[test]
    fn anti_oracle_gets_poor_ranking() {
        let (test, all_facts) = test_set();
        // invert the oracle: known facts scored low
        struct Anti(Oracle);
        impl ScoringModel for Anti {
            fn param_store(&self) -> &ParamStore {
                self.0.param_store()
            }
            fn param_store_mut(&mut self) -> &mut ParamStore {
                self.0.param_store_mut()
            }
            fn score_on_tape(
                &self,
                tape: &mut Tape,
                g: &dyn GraphAccess,
                t: Triple,
                m: Mode,
                r: &mut StdRng,
            ) -> Var {
                let v = self.0.score_on_tape(tape, g, t, m, r);
                tape.scale(v, -1.0)
            }
            fn context_radius(&self) -> usize {
                self.0.context_radius()
            }
            fn name(&self) -> String {
                "Anti".into()
            }
        }
        let model = Anti(Oracle { store: ParamStore::new(), facts: all_facts });
        let cfg = EvalConfig { num_candidates: 10, max_targets: 20, seed: 1, ..Default::default() };
        let m = evaluate(&model, &test, &cfg);
        assert!(m.mrr < 20.0, "anti-oracle mrr {}", m.mrr);
        assert!(m.auc_pr < 60.0, "anti-oracle auc {}", m.auc_pr);
    }

    #[test]
    fn paired_prediction_pairs_items_across_models() {
        let (test, all_facts) = test_set();
        let oracle = Oracle { store: ParamStore::new(), facts: all_facts.clone() };
        let oracle2 = Oracle { store: ParamStore::new(), facts: all_facts };
        let cfg = EvalConfig { num_candidates: 8, max_targets: 12, seed: 9, ..Default::default() };
        let rrs = entity_prediction_paired(&[&oracle, &oracle2], &test, &cfg);
        assert_eq!(rrs.len(), 2);
        assert_eq!(rrs[0].len(), 12);
        // identical models on identical items -> identical per-item scores
        assert_eq!(rrs[0], rrs[1]);
        // oracle ranks everything first
        assert!(rrs[0].iter().all(|&r| r > 0.99));
    }

    #[test]
    fn constant_scorer_sits_near_chance() {
        let (test, _) = test_set();
        struct Flat(ParamStore);
        impl ScoringModel for Flat {
            fn param_store(&self) -> &ParamStore {
                &self.0
            }
            fn param_store_mut(&mut self) -> &mut ParamStore {
                &mut self.0
            }
            fn score_on_tape(
                &self,
                tape: &mut Tape,
                _g: &dyn GraphAccess,
                _t: Triple,
                _m: Mode,
                _r: &mut StdRng,
            ) -> Var {
                tape.constant(rmpi_autograd::Tensor::scalar(0.0))
            }
            fn context_radius(&self) -> usize {
                0
            }
            fn name(&self) -> String {
                "Flat".into()
            }
        }
        let model = Flat(ParamStore::new());
        let cfg = EvalConfig { num_candidates: 9, max_targets: 30, seed: 2, ..Default::default() };
        let (mrr, _h1, h10, _) = entity_prediction(&model, &test, &cfg);
        // all ties -> rank ~ (1 + 10)/2 -> mrr ~ 1/6..1/5, hits@10 = 100
        assert!(mrr < 30.0);
        assert_eq!(h10, 100.0);
    }
}
