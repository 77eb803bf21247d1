//! RuleN-lite — a statistical rule-mining baseline (paper §V cites the
//! rule-learning line of Meilicke et al.; the paper omits its numbers as
//! "poorer than GraIL", which is exactly the contrast worth reproducing).
//!
//! Mining enumerates three entity-independent rule shapes over the training
//! graph and keeps those whose confidence clears a threshold:
//!
//! * composition: `p1(x, y) ∧ p2(y, z) → r(x, z)`
//! * inversion:   `p(y, x) → r(x, y)`
//! * symmetry:    `r(y, x) → r(x, y)`
//!
//! Scoring a candidate triple checks each mined rule for `r` against the
//! *test* graph and returns the best (noisy-or combined) confidence. The
//! model is non-parametric — training it with [`rmpi_core::Trainer`] is a no-op —
//! which is itself a faithful property of this method family.

use rand::rngs::StdRng;
use rmpi_autograd::{ParamStore, Tape, Tensor, Var};
use rmpi_core::{Mode, ScoringModel};
use rmpi_kg::{GraphAccess, KnowledgeGraph, RelationId, Triple};
use std::collections::HashMap;

/// A mined rule with its empirical confidence.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum MinedRule {
    /// `p1(x,y) ∧ p2(y,z) → head(x,z)`.
    Composition {
        /// First body relation.
        p1: RelationId,
        /// Second body relation.
        p2: RelationId,
        /// Empirical confidence.
        confidence: f32,
    },
    /// `p(y,x) → head(x,y)`.
    Inversion {
        /// Body relation.
        p: RelationId,
        /// Empirical confidence.
        confidence: f32,
    },
    /// `head(y,x) → head(x,y)`.
    Symmetry {
        /// Empirical confidence.
        confidence: f32,
    },
}

impl MinedRule {
    /// The rule's confidence.
    fn confidence(&self) -> f32 {
        match *self {
            MinedRule::Composition { confidence, .. } => confidence,
            MinedRule::Inversion { confidence, .. } => confidence,
            MinedRule::Symmetry { confidence } => confidence,
        }
    }
}

/// Mining thresholds.
#[derive(Clone, Copy, Debug)]
pub struct MiningConfig {
    /// Minimum body matches for a rule to be considered.
    pub(crate) min_support: usize,
    /// Minimum confidence (head matches / body matches).
    pub(crate) min_confidence: f32,
}

/// Keep at most this many rules per head relation (best first).
const MAX_RULES_PER_HEAD: usize = 25;

impl Default for MiningConfig {
    fn default() -> Self {
        MiningConfig { min_support: 3, min_confidence: 0.3 }
    }
}

/// The mined rule base, usable as a [`ScoringModel`].
#[derive(Clone, Debug)]
pub struct RuleNModel {
    rules: HashMap<RelationId, Vec<MinedRule>>,
    store: ParamStore,
}

impl RuleNModel {
    /// Mine rules from `graph`.
    pub fn mine(graph: &KnowledgeGraph, cfg: &MiningConfig) -> Self {
        let relations = graph.present_relations();
        let mut rules: HashMap<RelationId, Vec<MinedRule>> = HashMap::new();

        // index: relation -> (head -> tails)
        let mut pairs: HashMap<RelationId, Vec<(rmpi_kg::EntityId, rmpi_kg::EntityId)>> =
            HashMap::new();
        for t in graph.triples() {
            pairs.entry(t.relation).or_default().push((t.head, t.tail));
        }
        let by_head: HashMap<RelationId, HashMap<rmpi_kg::EntityId, Vec<rmpi_kg::EntityId>>> =
            pairs
                .iter()
                .map(|(r, ps)| {
                    let mut m: HashMap<rmpi_kg::EntityId, Vec<rmpi_kg::EntityId>> = HashMap::new();
                    for &(h, t) in ps {
                        m.entry(h).or_default().push(t);
                    }
                    (*r, m)
                })
                .collect();

        for &head in &relations {
            let mut mined: Vec<MinedRule> = Vec::new();
            // symmetry
            if let Some(ps) = pairs.get(&head) {
                let body = ps.len();
                if body >= cfg.min_support {
                    let matched = ps
                        .iter()
                        .filter(|&&(h, t)| {
                            graph.contains(&Triple { head: t, relation: head, tail: h })
                        })
                        .count();
                    let conf = matched as f32 / body as f32;
                    if conf >= cfg.min_confidence {
                        mined.push(MinedRule::Symmetry { confidence: conf });
                    }
                }
            }
            // inversion
            for &p in &relations {
                if p == head {
                    continue;
                }
                if let Some(ps) = pairs.get(&p) {
                    if ps.len() < cfg.min_support {
                        continue;
                    }
                    let matched = ps
                        .iter()
                        .filter(|&&(h, t)| {
                            graph.contains(&Triple { head: t, relation: head, tail: h })
                        })
                        .count();
                    let conf = matched as f32 / ps.len() as f32;
                    if conf >= cfg.min_confidence {
                        mined.push(MinedRule::Inversion { p, confidence: conf });
                    }
                }
            }
            // composition
            for &p1 in &relations {
                let Some(p1_pairs) = pairs.get(&p1) else { continue };
                for &p2 in &relations {
                    let Some(p2_index) = by_head.get(&p2) else { continue };
                    let mut body = 0usize;
                    let mut matched = 0usize;
                    for &(x, y) in p1_pairs {
                        if let Some(zs) = p2_index.get(&y) {
                            for &z in zs {
                                if x == z {
                                    continue;
                                }
                                body += 1;
                                if graph.contains(&Triple { head: x, relation: head, tail: z }) {
                                    matched += 1;
                                }
                            }
                        }
                    }
                    if body >= cfg.min_support {
                        let conf = matched as f32 / body as f32;
                        if conf >= cfg.min_confidence {
                            mined.push(MinedRule::Composition { p1, p2, confidence: conf });
                        }
                    }
                }
            }
            mined.sort_by(|a, b| b.confidence().partial_cmp(&a.confidence()).unwrap());
            mined.truncate(MAX_RULES_PER_HEAD);
            if !mined.is_empty() {
                rules.insert(head, mined);
            }
        }
        RuleNModel { rules, store: ParamStore::new() }
    }

    /// Total number of mined rules.
    pub fn num_rules(&self) -> usize {
        self.rules.values().map(Vec::len).sum()
    }

    /// The mined rules for one head relation.
    fn rules_for(&self, head: RelationId) -> &[MinedRule] {
        self.rules.get(&head).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Noisy-or combined confidence of the rules firing for `target` in
    /// `graph`: `1 - Π (1 - conf_i)` over matching rules.
    fn rule_score<G: GraphAccess + ?Sized>(&self, graph: &G, target: Triple) -> f32 {
        let mut miss_prob = 1.0f32;
        let mut any = false;
        for rule in self.rules_for(target.relation) {
            let fired = match *rule {
                MinedRule::Symmetry { .. } => graph.contains(&target.reversed()),
                MinedRule::Inversion { p, .. } => {
                    graph.contains(&Triple { head: target.tail, relation: p, tail: target.head })
                }
                MinedRule::Composition { p1, p2, .. } => {
                    graph.out_edges(target.head).iter().filter(|e| e.relation == p1).any(|e| {
                        graph
                            .out_edges(e.neighbor)
                            .iter()
                            .any(|e2| e2.relation == p2 && e2.neighbor == target.tail)
                    })
                }
            };
            if fired {
                any = true;
                miss_prob *= 1.0 - rule.confidence();
            }
        }
        if any {
            1.0 - miss_prob
        } else {
            0.0
        }
    }
}

impl ScoringModel for RuleNModel {
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
        _mode: Mode,
        _rng: &mut StdRng,
    ) -> Var {
        tape.constant(Tensor::scalar(self.rule_score(graph, target)))
    }

    fn context_radius(&self) -> usize {
        // Composition probing walks out-edges of the head's neighbours:
        // two hops from an endpoint at most.
        2
    }

    fn name(&self) -> String {
        "RuleN".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// A graph where r2 = r0 ∘ r1 holds perfectly across 10 chains.
    fn comp_graph() -> KnowledgeGraph {
        let mut triples = Vec::new();
        for i in 0..10u32 {
            let (x, y, z) = (3 * i, 3 * i + 1, 3 * i + 2);
            triples.push(Triple::new(x, 0u32, y));
            triples.push(Triple::new(y, 1u32, z));
            triples.push(Triple::new(x, 2u32, z));
        }
        KnowledgeGraph::from_triples(triples)
    }

    #[test]
    fn mines_perfect_composition() {
        let g = comp_graph();
        let model = RuleNModel::mine(&g, &MiningConfig::default());
        let rules = model.rules_for(RelationId(2));
        assert!(
            rules.iter().any(|r| matches!(
                r,
                MinedRule::Composition { p1: RelationId(0), p2: RelationId(1), confidence } if *confidence > 0.99
            )),
            "expected r0∘r1→r2, got {rules:?}"
        );
    }

    #[test]
    fn mined_rules_generalize_to_new_entities() {
        let g = comp_graph();
        let model = RuleNModel::mine(&g, &MiningConfig::default());
        // a brand-new chain the miner never saw
        let test = KnowledgeGraph::from_triples(vec![
            Triple::new(100u32, 0u32, 101u32),
            Triple::new(101u32, 1u32, 102u32),
        ]);
        let pos = Triple::new(100u32, 2u32, 102u32);
        let neg = Triple::new(102u32, 2u32, 100u32);
        assert!(model.rule_score(&test, pos) > 0.9);
        assert_eq!(model.rule_score(&test, neg), 0.0);
    }

    #[test]
    fn mines_symmetry() {
        let mut triples = Vec::new();
        for i in 0..8u32 {
            triples.push(Triple::new(2 * i, 0u32, 2 * i + 1));
            triples.push(Triple::new(2 * i + 1, 0u32, 2 * i));
        }
        let g = KnowledgeGraph::from_triples(triples);
        let model = RuleNModel::mine(&g, &MiningConfig::default());
        assert!(model
            .rules_for(RelationId(0))
            .iter()
            .any(|r| matches!(r, MinedRule::Symmetry { confidence } if *confidence > 0.99)));
    }

    #[test]
    fn thresholds_filter_noise() {
        // one coincidental composition instance only: below min_support
        let g = KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 1u32, 2u32),
            Triple::new(0u32, 2u32, 2u32),
        ]);
        let model = RuleNModel::mine(&g, &MiningConfig { min_support: 3, ..Default::default() });
        assert!(model
            .rules_for(RelationId(2))
            .iter()
            .all(|r| !matches!(r, MinedRule::Composition { .. })));
    }

    #[test]
    fn scoring_model_interface_works() {
        let g = comp_graph();
        let model = RuleNModel::mine(&g, &MiningConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        let s = model.score(&g, Triple::new(0u32, 2u32, 2u32), &mut rng);
        assert!(s > 0.5);
        assert_eq!(model.name(), "RuleN");
        assert!(model.num_rules() > 0);
    }

    #[test]
    fn noisy_or_combines_rules() {
        // symmetric AND inverse-of-itself fire together: combined score
        // exceeds each individual confidence
        let mut triples = Vec::new();
        for i in 0..6u32 {
            triples.push(Triple::new(2 * i, 0u32, 2 * i + 1));
            // mirror only 2/3 of them so confidence < 1
            if i % 3 != 0 {
                triples.push(Triple::new(2 * i + 1, 0u32, 2 * i));
            }
        }
        let g = KnowledgeGraph::from_triples(triples);
        let model =
            RuleNModel::mine(&g, &MiningConfig { min_confidence: 0.2, ..Default::default() });
        let s = model.rule_score(&g, Triple::new(2u32, 0u32, 3u32));
        assert!(s > 0.0);
    }
}
