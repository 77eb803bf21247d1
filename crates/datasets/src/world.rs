//! Rule-based world generation.
//!
//! A [`World`] fixes a type system (classes with a hierarchy), a relation
//! vocabulary organised into [`RuleGroup`]s, and the planted rules. Graphs
//! are then *derived* from the world: sample typed base facts, plant premise
//! chains, close over the rules, sprinkle noise. Two graphs generated from
//! the same world over disjoint entity ranges share exactly the relational
//! regularities an inductive model is supposed to transfer — and nothing
//! else.

use crate::rules::{GroupKind, Role, Rule, RuleGroup};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rmpi_kg::{EntityId, RelationId, Triple};
use rmpi_schema::{ClassId, SchemaBuilder, SchemaGraph};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// World construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct WorldConfig {
    /// Number of concrete entity classes.
    pub num_classes: usize,
    /// Number of archetypes; groups of the same archetype share abstract
    /// schema parents per role.
    pub num_archetypes: usize,
    /// Short composition groups (3 relations each).
    pub comp_groups: usize,
    /// Confusable long-chain pair groups (6 relations each).
    pub long_groups: usize,
    /// Inverse pairs (2 relations each).
    pub inv_groups: usize,
    /// Symmetric relations (1 each).
    pub sym_groups: usize,
    /// Subsumption pairs (2 relations each).
    pub sub_groups: usize,
    /// Free relations with no rules.
    pub noise_relations: usize,
    /// World seed (relation/class wiring).
    pub seed: u64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            num_classes: 8,
            num_archetypes: 2,
            comp_groups: 2,
            long_groups: 1,
            inv_groups: 1,
            sym_groups: 1,
            sub_groups: 1,
            noise_relations: 1,
            seed: 0,
        }
    }
}

/// Typing and role metadata of one concrete relation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RelationSpec {
    /// Head entity class.
    pub(crate) domain: ClassId,
    /// Tail entity class.
    pub(crate) range: ClassId,
    /// Role within its rule group.
    pub(crate) role: Role,
    /// Owning group index (None for noise relations).
    pub(crate) group: Option<usize>,
}

/// Graph generation parameters (per graph, not per world).
#[derive(Clone, Copy, Debug)]
pub struct GraphGenConfig {
    /// Number of entities in this graph.
    pub num_entities: usize,
    /// Base facts sampled before rule closure.
    pub num_base_triples: usize,
    /// First entity id (use disjoint ranges for inductive splits).
    pub entity_offset: u32,
    /// Probability that an applicable rule instance fires.
    pub rule_apply_prob: f64,
    /// Rule closure passes.
    pub closure_passes: usize,
    /// Extra random (type-violating) triples, as a fraction of the total.
    pub noise_frac: f64,
    /// Hard cap on generated triples.
    pub max_triples: usize,
    /// Graph seed (independent of the world seed).
    pub seed: u64,
}

impl Default for GraphGenConfig {
    fn default() -> Self {
        GraphGenConfig {
            num_entities: 300,
            num_base_triples: 900,
            entity_offset: 0,
            rule_apply_prob: 0.85,
            closure_passes: 2,
            noise_frac: 0.05,
            max_triples: 100_000,
            seed: 1,
        }
    }
}

/// A generated world: classes, typed relations, rule groups and the derived
/// ontological schema.
#[derive(Clone, Debug)]
pub struct World {
    config: WorldConfig,
    relations: Vec<RelationSpec>,
    groups: Vec<RuleGroup>,
    /// Abstract schema-only parent per (archetype, role), allocated after the
    /// concrete relations.
    abstract_parents: HashMap<(usize, Role), RelationId>,
    class_parent: Vec<Option<ClassId>>,
}

impl World {
    /// Build a world from `config` (deterministic in `config.seed`).
    pub fn new(config: WorldConfig) -> Self {
        assert!(config.num_classes >= 2, "need at least two classes");
        assert!(config.num_archetypes >= 1, "need at least one archetype");
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let mut relations: Vec<RelationSpec> = Vec::new();
        let mut groups: Vec<RuleGroup> = Vec::new();

        let rand_class =
            |rng: &mut rand::rngs::StdRng| ClassId(rng.gen_range(0..config.num_classes as u32));
        let add_rel = |relations: &mut Vec<RelationSpec>,
                       d: ClassId,
                       r: ClassId,
                       role: Role,
                       group: Option<usize>| {
            relations.push(RelationSpec { domain: d, range: r, role, group });
            RelationId(relations.len() as u32 - 1)
        };

        let total_groups = config.comp_groups
            + config.long_groups
            + config.inv_groups
            + config.sym_groups
            + config.sub_groups;
        let mut gi = 0usize;
        for _ in 0..config.comp_groups {
            let archetype = gi % config.num_archetypes;
            let (a, b, c) = (rand_class(&mut rng), rand_class(&mut rng), rand_class(&mut rng));
            let p1 = add_rel(&mut relations, a, b, Role::First, Some(gi));
            let p2 = add_rel(&mut relations, b, c, Role::Second, Some(gi));
            let concl = add_rel(&mut relations, a, c, Role::Conclusion, Some(gi));
            groups.push(RuleGroup {
                archetype,
                kind: GroupKind::Composition,
                rules: vec![Rule::Composition { p1, p2, conclusion: concl }],
                relations: vec![(p1, Role::First), (p2, Role::Second), (concl, Role::Conclusion)],
            });
            gi += 1;
        }
        for _ in 0..config.long_groups {
            let archetype = gi % config.num_archetypes;
            let (a, b, c, d) = (
                rand_class(&mut rng),
                rand_class(&mut rng),
                rand_class(&mut rng),
                rand_class(&mut rng),
            );
            let p1 = add_rel(&mut relations, a, b, Role::First, Some(gi));
            let mid_a = add_rel(&mut relations, b, c, Role::MidA, Some(gi));
            let mid_b = add_rel(&mut relations, b, c, Role::MidB, Some(gi));
            let p3 = add_rel(&mut relations, c, d, Role::Second, Some(gi));
            let concl_a = add_rel(&mut relations, a, d, Role::Conclusion, Some(gi));
            let concl_b = add_rel(&mut relations, a, d, Role::ConclusionB, Some(gi));
            groups.push(RuleGroup {
                archetype,
                kind: GroupKind::LongPair,
                rules: vec![
                    Rule::LongComposition { p1, mid: mid_a, p3, conclusion: concl_a },
                    Rule::LongComposition { p1, mid: mid_b, p3, conclusion: concl_b },
                ],
                relations: vec![
                    (p1, Role::First),
                    (mid_a, Role::MidA),
                    (mid_b, Role::MidB),
                    (p3, Role::Second),
                    (concl_a, Role::Conclusion),
                    (concl_b, Role::ConclusionB),
                ],
            });
            gi += 1;
        }
        for _ in 0..config.inv_groups {
            let archetype = gi % config.num_archetypes;
            let (a, b) = (rand_class(&mut rng), rand_class(&mut rng));
            let of = add_rel(&mut relations, a, b, Role::Base, Some(gi));
            let inv = add_rel(&mut relations, b, a, Role::Inverted, Some(gi));
            groups.push(RuleGroup {
                archetype,
                kind: GroupKind::Inverse,
                rules: vec![Rule::Inverse { of, inverse: inv }],
                relations: vec![(of, Role::Base), (inv, Role::Inverted)],
            });
            gi += 1;
        }
        for _ in 0..config.sym_groups {
            let archetype = gi % config.num_archetypes;
            let a = rand_class(&mut rng);
            let r = add_rel(&mut relations, a, a, Role::Sym, Some(gi));
            groups.push(RuleGroup {
                archetype,
                kind: GroupKind::Symmetric,
                rules: vec![Rule::Symmetric { relation: r }],
                relations: vec![(r, Role::Sym)],
            });
            gi += 1;
        }
        for _ in 0..config.sub_groups {
            let archetype = gi % config.num_archetypes;
            let (a, b) = (rand_class(&mut rng), rand_class(&mut rng));
            let child = add_rel(&mut relations, a, b, Role::Child, Some(gi));
            let parent = add_rel(&mut relations, a, b, Role::Parent, Some(gi));
            groups.push(RuleGroup {
                archetype,
                kind: GroupKind::Subsumption,
                rules: vec![Rule::Subsumption { child, parent }],
                relations: vec![(child, Role::Child), (parent, Role::Parent)],
            });
            gi += 1;
        }
        debug_assert_eq!(gi, total_groups);
        for _ in 0..config.noise_relations {
            let (a, b) = (rand_class(&mut rng), rand_class(&mut rng));
            add_rel(&mut relations, a, b, Role::Noise, None);
        }

        // abstract schema parents per (archetype, role)
        let mut abstract_parents = HashMap::new();
        let mut next = relations.len() as u32;
        for g in &groups {
            for &(_, role) in &g.relations {
                abstract_parents.entry((g.archetype, role)).or_insert_with(|| {
                    let id = RelationId(next);
                    next += 1;
                    id
                });
            }
        }

        // class hierarchy: binary tree towards class 0
        let class_parent = (0..config.num_classes)
            .map(|i| if i == 0 { None } else { Some(ClassId(((i - 1) / 2) as u32)) })
            .collect();

        World { config, relations, groups, abstract_parents, class_parent }
    }

    /// Number of concrete relations (usable in triples).
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Number of schema relation nodes (concrete + abstract parents).
    pub fn num_schema_relations(&self) -> usize {
        self.relations.len() + self.abstract_parents.len()
    }

    /// The rule groups.
    pub fn groups(&self) -> &[RuleGroup] {
        &self.groups
    }

    /// Ids of the noise relations (active in every benchmark version).
    fn noise_relation_ids(&self) -> Vec<RelationId> {
        self.relations
            .iter()
            .enumerate()
            .filter(|(_, s)| s.role == Role::Noise)
            .map(|(i, _)| RelationId(i as u32))
            .collect()
    }

    /// Concrete relations of the given groups, plus the noise relations.
    pub(crate) fn active_relations(&self, active_groups: &[usize]) -> Vec<RelationId> {
        let mut out: Vec<RelationId> =
            active_groups.iter().flat_map(|&g| self.groups[g].relation_ids()).collect();
        out.extend(self.noise_relation_ids());
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Build the ontological schema graph covering every concrete and
    /// abstract relation: domains, ranges, role parents, subsumption pairs
    /// and the class hierarchy.
    pub fn schema_graph(&self) -> SchemaGraph {
        let mut b = SchemaBuilder::new(self.num_schema_relations(), self.config.num_classes);
        for (i, spec) in self.relations.iter().enumerate() {
            let r = RelationId(i as u32);
            b.domain(r, spec.domain);
            b.range(r, spec.range);
            if let Some(g) = spec.group {
                let parent = self.abstract_parents[&(self.groups[g].archetype, spec.role)];
                b.sub_property_of(r, parent);
            }
        }
        for g in &self.groups {
            for rule in &g.rules {
                if let Rule::Subsumption { child, parent } = *rule {
                    b.sub_property_of(child, parent);
                }
            }
        }
        for (i, parent) in self.class_parent.iter().enumerate() {
            if let Some(p) = parent {
                b.sub_class_of(ClassId(i as u32), *p);
            }
        }
        b.build()
    }

    /// Generate a graph's triples using only the rules/relations of
    /// `active_groups` (plus noise relations).
    pub fn generate_triples(&self, active_groups: &[usize], gen: &GraphGenConfig) -> Vec<Triple> {
        let mut rng =
            rand::rngs::StdRng::seed_from_u64(gen.seed ^ self.config.seed.rotate_left(17));
        let n_class = self.config.num_classes;

        // class assignment: round-robin so every class is populated, shuffled
        let mut entities: Vec<EntityId> =
            (0..gen.num_entities as u32).map(|i| EntityId(gen.entity_offset + i)).collect();
        entities.shuffle(&mut rng);
        let mut by_class: Vec<Vec<EntityId>> = vec![Vec::new(); n_class];
        for (i, &e) in entities.iter().enumerate() {
            by_class[i % n_class].push(e);
        }
        let pick = |class: ClassId, rng: &mut rand::rngs::StdRng| -> EntityId {
            *by_class[class.index()].choose(rng).expect("every class populated")
        };

        let active_rels = self.active_relations(active_groups);
        let premise_rels: Vec<RelationId> = active_rels
            .iter()
            .copied()
            .filter(|r| {
                !matches!(
                    self.relations[r.index()].role,
                    Role::Conclusion | Role::ConclusionB | Role::Parent
                )
            })
            .collect();
        let active_rules: Vec<Rule> =
            active_groups.iter().flat_map(|&g| self.groups[g].rules.iter().copied()).collect();

        let mut triples: BTreeSet<Triple> = BTreeSet::new();
        // base facts: half independent samples, half planted premise chains
        let n_single = gen.num_base_triples / 2;
        for _ in 0..n_single {
            if triples.len() >= gen.max_triples {
                break;
            }
            let r = *premise_rels.choose(&mut rng).expect("premise relations");
            let spec = &self.relations[r.index()];
            let h = pick(spec.domain, &mut rng);
            let t = pick(spec.range, &mut rng);
            if h != t {
                triples.insert(Triple { head: h, relation: r, tail: t });
            }
        }
        let mut planted = 0usize;
        while planted < gen.num_base_triples - n_single
            && !active_rules.is_empty()
            && triples.len() < gen.max_triples
        {
            let rule = *active_rules.choose(&mut rng).expect("rules");
            match rule {
                Rule::Composition { p1, p2, .. } => {
                    let (s1, s2) = (&self.relations[p1.index()], &self.relations[p2.index()]);
                    let x = pick(s1.domain, &mut rng);
                    let y = pick(s1.range, &mut rng);
                    let z = pick(s2.range, &mut rng);
                    insert_edge(&mut triples, x, p1, y);
                    insert_edge(&mut triples, y, p2, z);
                    planted += 2;
                }
                Rule::LongComposition { p1, mid, p3, .. } => {
                    let (s1, sm, s3) = (
                        &self.relations[p1.index()],
                        &self.relations[mid.index()],
                        &self.relations[p3.index()],
                    );
                    let x = pick(s1.domain, &mut rng);
                    let y = pick(s1.range, &mut rng);
                    let z = pick(sm.range, &mut rng);
                    let w = pick(s3.range, &mut rng);
                    insert_edge(&mut triples, x, p1, y);
                    insert_edge(&mut triples, y, mid, z);
                    insert_edge(&mut triples, z, p3, w);
                    planted += 3;
                }
                Rule::Inverse { of, .. } | Rule::Subsumption { child: of, .. } => {
                    let s = &self.relations[of.index()];
                    let h = pick(s.domain, &mut rng);
                    let t = pick(s.range, &mut rng);
                    if h != t {
                        triples.insert(Triple { head: h, relation: of, tail: t });
                    }
                    planted += 1;
                }
                Rule::Symmetric { relation } => {
                    let s = &self.relations[relation.index()];
                    let h = pick(s.domain, &mut rng);
                    let t = pick(s.range, &mut rng);
                    if h != t {
                        triples.insert(Triple { head: h, relation, tail: t });
                    }
                    planted += 1;
                }
            }
        }

        // rule closure
        for _ in 0..gen.closure_passes {
            if triples.len() >= gen.max_triples {
                break;
            }
            let mut by_rel: BTreeMap<RelationId, Vec<(EntityId, EntityId)>> = BTreeMap::new();
            for t in &triples {
                by_rel.entry(t.relation).or_default().push((t.head, t.tail));
            }
            let mut new_facts: Vec<Triple> = Vec::new();
            for rule in &active_rules {
                match *rule {
                    Rule::Composition { p1, p2, conclusion } => {
                        join2(&by_rel, p1, p2, |x, z| {
                            if x != z && rng.gen_bool(gen.rule_apply_prob) {
                                new_facts.push(Triple { head: x, relation: conclusion, tail: z });
                            }
                        });
                    }
                    Rule::LongComposition { p1, mid, p3, conclusion } => {
                        // join p1 ∘ mid into temp pairs, then temp ∘ p3
                        let mut temp: Vec<(EntityId, EntityId)> = Vec::new();
                        join2(&by_rel, p1, mid, |x, z| temp.push((x, z)));
                        let mut mid_index: HashMap<EntityId, Vec<EntityId>> = HashMap::new();
                        for &(h, t) in by_rel.get(&p3).map(Vec::as_slice).unwrap_or(&[]) {
                            mid_index.entry(h).or_default().push(t);
                        }
                        for (x, z) in temp {
                            if let Some(ws) = mid_index.get(&z) {
                                for &w in ws {
                                    if x != w && rng.gen_bool(gen.rule_apply_prob) {
                                        new_facts.push(Triple {
                                            head: x,
                                            relation: conclusion,
                                            tail: w,
                                        });
                                    }
                                }
                            }
                        }
                    }
                    Rule::Inverse { of, inverse } => {
                        for &(h, t) in by_rel.get(&of).map(Vec::as_slice).unwrap_or(&[]) {
                            if rng.gen_bool(gen.rule_apply_prob) {
                                new_facts.push(Triple { head: t, relation: inverse, tail: h });
                            }
                        }
                    }
                    Rule::Symmetric { relation } => {
                        for &(h, t) in by_rel.get(&relation).map(Vec::as_slice).unwrap_or(&[]) {
                            if rng.gen_bool(gen.rule_apply_prob) {
                                new_facts.push(Triple { head: t, relation, tail: h });
                            }
                        }
                    }
                    Rule::Subsumption { child, parent } => {
                        for &(h, t) in by_rel.get(&child).map(Vec::as_slice).unwrap_or(&[]) {
                            if rng.gen_bool(gen.rule_apply_prob) {
                                new_facts.push(Triple { head: h, relation: parent, tail: t });
                            }
                        }
                    }
                }
            }
            for f in new_facts {
                if triples.len() >= gen.max_triples {
                    break;
                }
                triples.insert(f);
            }
        }

        // noise: random active-relation triples over random entities
        let n_noise = (triples.len() as f64 * gen.noise_frac) as usize;
        for _ in 0..n_noise {
            if triples.len() >= gen.max_triples {
                break;
            }
            let r = *active_rels.choose(&mut rng).expect("active relations");
            let h = *entities.choose(&mut rng).expect("entities");
            let t = *entities.choose(&mut rng).expect("entities");
            if h != t {
                triples.insert(Triple { head: h, relation: r, tail: t });
            }
        }

        let mut out: Vec<Triple> = triples.into_iter().collect();
        out.sort_unstable();
        out
    }
}

/// Insert `head --rel--> tail` unless it would be a self-loop. Generated
/// worlds guarantee loop-freeness (an invariant the subgraph tests rely on).
fn insert_edge(
    triples: &mut BTreeSet<Triple>,
    head: EntityId,
    relation: RelationId,
    tail: EntityId,
) {
    if head != tail {
        triples.insert(Triple { head, relation, tail });
    }
}

/// For each `(x, y) ∈ r1` and `(y, z) ∈ r2`, call `f(x, z)`.
fn join2(
    by_rel: &BTreeMap<RelationId, Vec<(EntityId, EntityId)>>,
    r1: RelationId,
    r2: RelationId,
    mut f: impl FnMut(EntityId, EntityId),
) {
    let mut index: HashMap<EntityId, Vec<EntityId>> = HashMap::new();
    for &(h, t) in by_rel.get(&r2).map(Vec::as_slice).unwrap_or(&[]) {
        index.entry(h).or_default().push(t);
    }
    for &(x, y) in by_rel.get(&r1).map(Vec::as_slice).unwrap_or(&[]) {
        if let Some(zs) = index.get(&y) {
            for &z in zs {
                f(x, z);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmpi_kg::KnowledgeGraph;
    use std::collections::HashSet;

    fn world() -> World {
        World::new(WorldConfig::default())
    }

    #[test]
    fn relation_counts_add_up() {
        let w = world();
        // 2 comp * 3 + 1 long * 6 + 1 inv * 2 + 1 sym + 1 sub * 2 + 1 noise = 18
        assert_eq!(w.num_relations(), 18);
        assert!(w.num_schema_relations() > w.num_relations());
        assert_eq!(w.groups().len(), 6);
    }

    #[test]
    fn deterministic_world_and_graph() {
        let a = World::new(WorldConfig::default());
        let b = World::new(WorldConfig::default());
        let g = GraphGenConfig::default();
        let active: Vec<usize> = (0..a.groups().len()).collect();
        assert_eq!(a.generate_triples(&active, &g), b.generate_triples(&active, &g));
    }

    #[test]
    fn generated_triples_respect_entity_range() {
        let w = world();
        let gen = GraphGenConfig { num_entities: 100, entity_offset: 1000, ..Default::default() };
        let active: Vec<usize> = (0..w.groups().len()).collect();
        for t in w.generate_triples(&active, &gen) {
            assert!((1000..1100).contains(&t.head.0));
            assert!((1000..1100).contains(&t.tail.0));
        }
    }

    #[test]
    fn inactive_group_relations_never_appear() {
        let w = world();
        let gen = GraphGenConfig::default();
        let active = vec![0usize]; // only the first composition group
        let allowed: HashSet<RelationId> = w.active_relations(&active).into_iter().collect();
        for t in w.generate_triples(&active, &gen) {
            assert!(allowed.contains(&t.relation), "relation {} not active", t.relation);
        }
    }

    #[test]
    fn composition_rule_fires() {
        let w = world();
        let gen = GraphGenConfig { noise_frac: 0.0, ..Default::default() };
        let active: Vec<usize> = (0..w.groups().len()).collect();
        let triples = w.generate_triples(&active, &gen);
        let g = KnowledgeGraph::from_triples(triples);
        // find the first composition rule and check its conclusion exists and
        // is mostly supported by premise paths
        let rule = w.groups()[0].rules[0];
        if let Rule::Composition { p1, p2, conclusion } = rule {
            let concl_count = g.relation_count(conclusion);
            assert!(concl_count > 0, "conclusion facts should be derived");
            // verify support: for most conclusion facts a premise path exists
            let mut supported = 0;
            let mut total = 0;
            for t in g.triples().iter().filter(|t| t.relation == conclusion) {
                total += 1;
                let has_path = g.out_edges(t.head).iter().any(|e1| {
                    e1.relation == p1
                        && g.out_edges(e1.neighbor)
                            .iter()
                            .any(|e2| e2.relation == p2 && e2.neighbor == t.tail)
                });
                if has_path {
                    supported += 1;
                }
            }
            assert!(
                supported as f64 >= 0.9 * total as f64,
                "conclusions should be rule-supported: {supported}/{total}"
            );
        } else {
            panic!("group 0 should be a composition");
        }
    }

    #[test]
    fn symmetric_rule_fires() {
        let w = world();
        let gen = GraphGenConfig { noise_frac: 0.0, ..Default::default() };
        let active: Vec<usize> = (0..w.groups().len()).collect();
        let g = KnowledgeGraph::from_triples(w.generate_triples(&active, &gen));
        let sym_rel = w
            .groups()
            .iter()
            .find(|gr| gr.kind == GroupKind::Symmetric)
            .and_then(|gr| match gr.rules.first() {
                Some(&Rule::Symmetric { relation }) => Some(relation),
                _ => None,
            })
            .unwrap();
        let pairs: Vec<Triple> =
            g.triples().iter().filter(|t| t.relation == sym_rel).copied().collect();
        assert!(!pairs.is_empty());
        let mirrored = pairs.iter().filter(|t| g.contains(&t.reversed())).count();
        assert!(
            mirrored as f64 >= 0.6 * pairs.len() as f64,
            "symmetric facts should usually be mirrored: {mirrored}/{}",
            pairs.len()
        );
    }

    #[test]
    fn schema_covers_all_relations() {
        let w = world();
        let schema = w.schema_graph();
        assert_eq!(schema.num_kg_relations(), w.num_schema_relations());
        assert!(schema.num_triples() > 0);
        // every concrete grouped relation has a subPropertyOf assertion
        let g = schema.graph();
        for (i, spec) in w.relations.iter().enumerate() {
            if spec.group.is_some() {
                let node = schema.relation_node(RelationId(i as u32));
                let has_parent = g
                    .out_edges(node)
                    .iter()
                    .any(|e| e.relation.index() == rmpi_schema::SchemaVocab::SubPropertyOf.index());
                assert!(has_parent, "relation {i} missing schema parent");
            }
        }
    }

    #[test]
    fn max_triples_cap_respected() {
        let w = world();
        let gen = GraphGenConfig { max_triples: 50, ..Default::default() };
        let active: Vec<usize> = (0..w.groups().len()).collect();
        let triples = w.generate_triples(&active, &gen);
        // noise can add a few beyond the cap-checked closure, bound loosely
        assert!(triples.len() <= 60, "cap exceeded: {}", triples.len());
    }

    #[test]
    fn same_archetype_roles_share_abstract_parent() {
        // 4 comp groups, 2 archetypes: groups 0/2 share parents, 0/1 differ
        let w = World::new(WorldConfig { comp_groups: 4, num_archetypes: 2, ..Default::default() });
        let parent_of = |g: usize, role: Role| w.abstract_parents[&(w.groups()[g].archetype, role)];
        assert_eq!(parent_of(0, Role::Conclusion), parent_of(2, Role::Conclusion));
        assert_ne!(parent_of(0, Role::Conclusion), parent_of(1, Role::Conclusion));
    }
}
