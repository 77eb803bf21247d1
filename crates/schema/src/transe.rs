//! TransE (Bordes et al., 2013) trained on a schema graph.
//!
//! TransE models a triple `(h, r, t)` as a translation `h + r ≈ t` and is
//! trained with a margin ranking loss over corrupted triples. Gradients are
//! closed-form, so this is a direct SGD implementation — no tape needed.
//! The paper pre-trains TransE on the schema graph to obtain 300-d semantic
//! vectors for *all* relations (seen and unseen), which RMPI then projects
//! into its message passing space (Eq. 10).

use crate::ontology::SchemaGraph;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rmpi_kg::{EntityId, KnowledgeGraph, RelationId, Triple};

/// TransE training configuration.
#[derive(Clone, Copy, Debug)]
pub struct TransEConfig {
    /// Embedding dimension (paper: 300 for schema vectors).
    pub dim: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Ranking margin γ.
    pub margin: f32,
    /// Number of epochs over the triple set.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TransEConfig {
    fn default() -> Self {
        TransEConfig { dim: 300, lr: 0.01, margin: 1.0, epochs: 200, seed: 7 }
    }
}

/// A trained TransE model over a schema graph's node and vocabulary spaces.
#[derive(Clone, Debug)]
pub struct TransEModel {
    dim: usize,
    entity_emb: Vec<Vec<f32>>,
    relation_emb: Vec<Vec<f32>>,
}

impl TransEModel {
    /// Train TransE on `schema`'s triple graph. The relation table always
    /// covers the full RDFS vocabulary, even if some vocabularies are unused.
    pub fn train(schema: &SchemaGraph, cfg: TransEConfig) -> Self {
        let g = schema.graph();
        let num_vocab = crate::ontology::SchemaVocab::all().len().max(g.num_relations());
        Self::train_on_graph(g, schema.num_nodes(), num_vocab, cfg)
    }

    /// Train TransE on an arbitrary triple graph with explicit table sizes.
    fn train_on_graph(
        g: &KnowledgeGraph,
        num_entities: usize,
        num_relations: usize,
        cfg: TransEConfig,
    ) -> Self {
        assert!(cfg.dim > 0, "dimension must be positive");
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
        let bound = 6.0 / (cfg.dim as f32).sqrt();
        let mut init = |n: usize| -> Vec<Vec<f32>> {
            (0..n).map(|_| (0..cfg.dim).map(|_| rng.gen_range(-bound..bound)).collect()).collect()
        };
        let mut entity_emb = init(num_entities.max(1));
        let mut relation_emb = init(num_relations.max(1));
        for r in &mut relation_emb {
            normalize(r);
        }

        let triples: Vec<Triple> = g.triples().to_vec();
        if triples.is_empty() {
            for e in &mut entity_emb {
                normalize(e);
            }
            return TransEModel { dim: cfg.dim, entity_emb, relation_emb };
        }
        let pool: Vec<EntityId> = (0..num_entities as u32).map(EntityId).collect();
        let mut order: Vec<usize> = (0..triples.len()).collect();

        for _ in 0..cfg.epochs {
            for e in &mut entity_emb {
                normalize(e);
            }
            order.shuffle(&mut rng);
            for &i in &order {
                let pos = triples[i];
                // corrupt head or tail uniformly; resample a few times to
                // avoid known facts
                let neg = {
                    let corrupt_head = rng.gen_bool(0.5);
                    let mut cand = pos;
                    for _ in 0..16 {
                        let e = *pool.choose(&mut rng).expect("entity pool");
                        cand = if corrupt_head { pos.with_head(e) } else { pos.with_tail(e) };
                        if !g.contains(&cand) {
                            break;
                        }
                    }
                    cand
                };
                sgd_step(&mut entity_emb, &mut relation_emb, pos, neg, cfg.lr, cfg.margin);
            }
        }
        for e in &mut entity_emb {
            normalize(e);
        }
        TransEModel { dim: cfg.dim, entity_emb, relation_emb }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Embedding of a schema node.
    pub fn node_vector(&self, node: EntityId) -> &[f32] {
        &self.entity_emb[node.index()]
    }

    /// Semantic vector `h^onto` of a KG relation (its schema-node embedding).
    pub fn kg_relation_vector(&self, schema: &SchemaGraph, r: RelationId) -> &[f32] {
        self.node_vector(schema.relation_node(r))
    }

    /// TransE energy `||h + r - t||_2` — lower means more plausible.
    pub fn energy(&self, t: Triple) -> f32 {
        let h = &self.entity_emb[t.head.index()];
        let r = &self.relation_emb[t.relation.index()];
        let tt = &self.entity_emb[t.tail.index()];
        (0..self.dim).map(|k| (h[k] + r[k] - tt[k]).powi(2)).sum::<f32>().sqrt()
    }
}

fn normalize(v: &mut [f32]) {
    let n = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if n > 1e-12 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
}

/// One margin-ranking SGD step on (pos, neg) with L2 energy.
fn sgd_step(
    ents: &mut [Vec<f32>],
    rels: &mut [Vec<f32>],
    pos: Triple,
    neg: Triple,
    lr: f32,
    margin: f32,
) {
    let d_pos = energy_of(ents, rels, pos);
    let d_neg = energy_of(ents, rels, neg);
    if d_pos + margin <= d_neg {
        return; // margin satisfied, zero loss
    }
    // dL/d(h+r-t) for the positive = (h+r-t)/||.||, negated for the negative.
    apply_grad(ents, rels, pos, lr, 1.0);
    apply_grad(ents, rels, neg, lr, -1.0);
}

fn energy_of(ents: &[Vec<f32>], rels: &[Vec<f32>], t: Triple) -> f32 {
    let h = &ents[t.head.index()];
    let r = &rels[t.relation.index()];
    let tt = &ents[t.tail.index()];
    h.iter().zip(r).zip(tt).map(|((x, y), z)| (x + y - z).powi(2)).sum::<f32>().sqrt()
}

fn apply_grad(ents: &mut [Vec<f32>], rels: &mut [Vec<f32>], t: Triple, lr: f32, sign: f32) {
    let dim = rels[t.relation.index()].len();
    let norm = energy_of(ents, rels, t).max(1e-6);
    for k in 0..dim {
        let diff = ents[t.head.index()][k] + rels[t.relation.index()][k] - ents[t.tail.index()][k];
        let g = sign * lr * diff / norm;
        ents[t.head.index()][k] -= g;
        rels[t.relation.index()][k] -= g;
        ents[t.tail.index()][k] += g;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ontology::{ClassId, SchemaBuilder};
    use rand::SeedableRng;

    fn cosine(a: &[f32], b: &[f32]) -> f32 {
        let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let na = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb = b.iter().map(|x| x * x).sum::<f32>().sqrt();
        if na < 1e-12 || nb < 1e-12 {
            0.0
        } else {
            dot / (na * nb)
        }
    }

    fn family_schema() -> SchemaGraph {
        // relations 0..4: husband_of, wife_of, spouse_of, works_for
        // classes 0..2: Person, Org, Agent
        let mut b = SchemaBuilder::new(4, 3);
        b.sub_property_of(RelationId(0), RelationId(2))
            .sub_property_of(RelationId(1), RelationId(2))
            .domain(RelationId(0), ClassId(0))
            .range(RelationId(0), ClassId(0))
            .domain(RelationId(1), ClassId(0))
            .range(RelationId(1), ClassId(0))
            .domain(RelationId(2), ClassId(0))
            .range(RelationId(2), ClassId(0))
            .domain(RelationId(3), ClassId(0))
            .range(RelationId(3), ClassId(1))
            .sub_class_of(ClassId(0), ClassId(2))
            .sub_class_of(ClassId(1), ClassId(2));
        b.build()
    }

    fn small_cfg() -> TransEConfig {
        TransEConfig { dim: 16, lr: 0.05, margin: 1.0, epochs: 150, seed: 3 }
    }

    #[test]
    fn positive_energy_below_negative_after_training() {
        let schema = family_schema();
        let model = TransEModel::train(&schema, small_cfg());
        let g = schema.graph();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut wins = 0;
        let mut total = 0;
        for &pos in g.triples() {
            for _ in 0..8 {
                let corrupt: u32 = rng.gen_range(0..schema.num_nodes() as u32);
                let neg = pos.with_tail(EntityId(corrupt));
                if g.contains(&neg) || neg == pos {
                    continue;
                }
                total += 1;
                if model.energy(pos) < model.energy(neg) {
                    wins += 1;
                }
            }
        }
        assert!(total > 0);
        let rate = wins as f32 / total as f32;
        assert!(rate > 0.8, "TransE should rank positives above corruptions: rate {rate}");
    }

    #[test]
    fn sibling_relations_are_more_similar_than_unrelated() {
        let schema = family_schema();
        let model = TransEModel::train(&schema, small_cfg());
        let husband = schema.relation_node(RelationId(0));
        let wife = schema.relation_node(RelationId(1));
        let works = schema.relation_node(RelationId(3));
        let similarity = |a, b| cosine(model.node_vector(a), model.node_vector(b));
        let sib = similarity(husband, wife);
        let far = similarity(husband, works);
        assert!(
            sib > far,
            "siblings under spouse_of should embed closer: sib {sib} vs unrelated {far}"
        );
    }

    #[test]
    fn vectors_are_normalized() {
        let schema = family_schema();
        let model = TransEModel::train(&schema, small_cfg());
        for node in 0..schema.num_nodes() as u32 {
            let n: f32 =
                model.node_vector(EntityId(node)).iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-3, "node {node} norm {n}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let schema = family_schema();
        let a = TransEModel::train(&schema, small_cfg());
        let b = TransEModel::train(&schema, small_cfg());
        assert_eq!(a.node_vector(EntityId(0)), b.node_vector(EntityId(0)));
    }

    #[test]
    fn kg_relation_vector_has_requested_dim() {
        let schema = family_schema();
        let model = TransEModel::train(&schema, TransEConfig { dim: 24, epochs: 5, ..small_cfg() });
        assert_eq!(model.kg_relation_vector(&schema, RelationId(2)).len(), 24);
        assert_eq!(model.dim(), 24);
    }

    #[test]
    fn empty_schema_still_yields_vectors() {
        let schema = SchemaBuilder::new(2, 1).build();
        let model = TransEModel::train(&schema, TransEConfig { dim: 8, epochs: 3, ..small_cfg() });
        assert_eq!(model.kg_relation_vector(&schema, RelationId(1)).len(), 8);
    }
}
