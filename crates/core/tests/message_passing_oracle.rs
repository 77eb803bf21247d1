//! Differential oracle for the batched forward pass.
//!
//! `rmpi-core` computes every relational message once: per (layer, edge type)
//! it gathers the distinct source rows, transforms them with one product and
//! sums them per destination with one segmented op. The implementation it
//! replaced recorded one tape node **per message** — one `matvec` per
//! relation-view edge, one `dot` per attention logit, `stack → concat →
//! softmax → vecmat` per (node, edge type), one `row`/`matvec` pair per
//! relation for `h^0`. That per-message forward lives on here, in test code
//! only, as the obviously-correct reference: it is the paper's Eq. 6–10 and
//! 13–16 written edge by edge.
//!
//! What this suite pins, over {base, NE, TA, NE-TA} × {SUM, CONC, Gated} ×
//! K ∈ {1, 2, 3} × {random, schema} init × {pruned, full} schedules:
//!
//! * the batched score equals the oracle's **bit for bit** (`to_bits()`); a
//!   tolerance here would be a bug report, not a fix — the batching regroups
//!   which products are computed, never the arithmetic of one that remains;
//! * parameter gradients of the score agree within `1e-5 · (1 + ‖g‖₂)` per
//!   parameter tensor: only the backward *summation order* differs (one
//!   `Gᵀ·X` per (layer, type) instead of one rank-1 update per message). The
//!   bound is relative to the tensor, not to each element: at K = 3 an
//!   element can be 10⁴ times smaller than its tensor's largest and is then
//!   the difference of large cancelling sums. Measured on the hot set, the
//!   per-message tape walked in reverse node order — same forward bits, same
//!   mathematics — disagrees with *itself* by up to 132 × `1e-5 · (1 + |g_i|)`
//!   on such elements, so an elementwise bound tests f32 cancellation, not
//!   the backward rules; against the tensor norm both orders and the batched
//!   pass agree with room to spare.
//!
//! Two inputs: random rule worlds with random `(h, r, t)` — unseen relations
//! and empty enclosing subgraphs included — and the fixed `nell.v1` quick TE
//! split scored at extraction seed 7 (the `score_warm` hot set of the
//! benchmark).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rmpi_autograd::{init, GradBuffer, Tape, Tensor, Var};
use rmpi_core::config::{Fusion, RelationInit};
use rmpi_core::{RmpiConfig, RmpiModel, SampleInput, ScoringModel};
use rmpi_datasets::registry::Scale;
use rmpi_datasets::world::{GraphGenConfig, WorldConfig};
use rmpi_datasets::{build_benchmark, World};
use rmpi_kg::{KnowledgeGraph, RelationId, Triple};
use rmpi_subgraph::relview::{NUM_EDGE_TYPES, TARGET_NODE};
use rmpi_subgraph::PruningSchedule;
use std::collections::HashMap;

/// The per-message forward: one tape node per message, per logit, per
/// relation. Reads the model's parameters by the names `RmpiModel` registers
/// them under.
fn oracle_score_on_tape(model: &RmpiModel, tape: &mut Tape, sample: &SampleInput) -> Var {
    let cfg = *model.config();
    let store = model.param_store();
    let param = |tape: &mut Tape, name: &str| {
        tape.param(store, store.get(name).unwrap_or_else(|| panic!("parameter {name}")))
    };
    let target = sample.target;
    let rv = &sample.relview;

    // h^0, one var per distinct relation (Eq. 10 for schema init)
    let mut rels: Vec<RelationId> = rv.nodes.iter().map(|n| n.relation).collect();
    rels.extend_from_slice(&sample.disclosing_rels);
    rels.push(target.relation);
    rels.sort_unstable();
    rels.dedup();
    let mut h0_of: HashMap<RelationId, Var> = HashMap::new();
    match cfg.init {
        RelationInit::Random => {
            let table = param(tape, "rel_emb");
            for r in rels {
                h0_of.insert(r, tape.row(table, r.index()));
            }
        }
        RelationInit::Schema => {
            let onto = model.schema_vectors().expect("schema vectors");
            let w1 = param(tape, "onto_w1");
            let w2 = param(tape, "onto_w2");
            for r in rels {
                let sem = tape.constant(Tensor::vector(onto.row(r.index()).to_vec()));
                let hidden = tape.matvec(w2, sem);
                h0_of.insert(r, tape.matvec(w1, hidden));
            }
        }
    }

    // K layers of message passing, every active node of the schedule updated
    // at every layer, one matvec per incoming edge (Eq. 6–9, Algorithm 1)
    let mut h: Vec<Var> = rv.nodes.iter().map(|n| h0_of[&n.relation]).collect();
    for layer in 1..=cfg.num_layers {
        let wk: Vec<Var> =
            (0..NUM_EDGE_TYPES).map(|e| param(tape, &format!("mp_l{}_e{e}", layer - 1))).collect();
        let h_target_prev = h[TARGET_NODE];
        let mut updates: Vec<(usize, Var)> = Vec::new();
        for node in sample.schedule.active_nodes(layer) {
            if rv.incoming(node).next().is_none() {
                continue; // nothing to aggregate; representation carries over
            }
            let is_final_target = layer == cfg.num_layers && node == TARGET_NODE;
            let mut groups: [Vec<usize>; NUM_EDGE_TYPES] = Default::default();
            for e in rv.incoming(node) {
                groups[e.etype.index()].push(e.src);
            }
            let mut type_sums: Vec<Var> = Vec::new();
            for (etype, members) in groups.iter().enumerate() {
                if members.is_empty() {
                    continue;
                }
                let msgs: Vec<Var> =
                    members.iter().map(|&j| tape.matvec(wk[etype], h[j])).collect();
                let stacked = tape.stack(&msgs);
                let weights = if cfg.ta && !is_final_target {
                    // Eq. 7 over this (node, edge type) group
                    let logits: Vec<Var> =
                        members.iter().map(|&j| tape.dot(h_target_prev, h[j])).collect();
                    let cat = tape.concat(&logits);
                    let act = tape.leaky_relu(cat, cfg.leaky_slope);
                    tape.softmax(act)
                } else {
                    tape.constant(Tensor::full(&[members.len()], 1.0))
                };
                type_sums.push(tape.vecmat(weights, stacked));
            }
            let mut agg = type_sums[0];
            for &t in &type_sums[1..] {
                agg = tape.add(agg, t);
            }
            let activated = tape.relu(agg);
            updates.push((node, tape.add(activated, h[node])));
        }
        for (node, var) in updates {
            h[node] = var;
        }
    }
    let h_rt = h[TARGET_NODE];

    // NE module (Eq. 13–14), one matvec and one dot per disclosing neighbour
    let mut fused = h_rt;
    if cfg.ne {
        let h_d = if sample.disclosing_rels.is_empty() {
            tape.constant(Tensor::zeros(&[cfg.dim]))
        } else {
            let wd = param(tape, "ne_wd");
            let q = tape.matvec(wd, h0_of[&target.relation]);
            let transformed: Vec<Var> =
                sample.disclosing_rels.iter().map(|r| tape.matvec(wd, h0_of[r])).collect();
            let logits: Vec<Var> = transformed.iter().map(|&t| tape.dot(q, t)).collect();
            let cat = tape.concat(&logits);
            let act = tape.leaky_relu(cat, cfg.leaky_slope);
            let att = tape.softmax(act);
            let stacked = tape.stack(&transformed);
            let pooled = tape.vecmat(att, stacked);
            tape.relu(pooled)
        };
        fused = match cfg.fusion {
            Fusion::Sum => tape.add(h_rt, h_d),
            Fusion::Concat => {
                let cat = tape.concat(&[h_rt, h_d]);
                let w3 = param(tape, "fuse_w3");
                tape.matvec(w3, cat)
            }
            Fusion::Gated => {
                let cat = tape.concat(&[h_rt, h_d]);
                let wg = param(tape, "fuse_gate");
                let logits = tape.matvec(wg, cat);
                let g = tape.sigmoid(logits);
                let ones = tape.constant(Tensor::full(&[cfg.dim], 1.0));
                let g_inv = tape.sub(ones, g);
                let a = tape.mul(g, h_rt);
                let b = tape.mul(g_inv, h_d);
                tape.add(a, b)
            }
        };
    }
    let w = param(tape, "score_w");
    tape.dot(w, fused)
}

/// The grid of model variants: {base, TA} and {NE, NE-TA} × {SUM, CONC,
/// Gated} (fusion exists only with NE), × K ∈ {1, 2, 3} × {random, schema}.
fn variant_grid(dim: usize) -> Vec<RmpiConfig> {
    let mut out = Vec::new();
    for init in [RelationInit::Random, RelationInit::Schema] {
        for num_layers in 1..=3 {
            for ta in [false, true] {
                let base = RmpiConfig { dim, num_layers, ta, init, ..RmpiConfig::base() };
                out.push(base);
                for fusion in [Fusion::Sum, Fusion::Concat, Fusion::Gated] {
                    out.push(RmpiConfig { ne: true, fusion, ..base });
                }
            }
        }
    }
    out
}

/// A model for `cfg` over `num_relations` ids; schema variants get fixed
/// pseudo-random schema vectors.
fn build_model(cfg: RmpiConfig, num_relations: usize, seed: u64) -> RmpiModel {
    match cfg.init {
        RelationInit::Random => RmpiModel::new(cfg, num_relations, seed),
        RelationInit::Schema => {
            let onto =
                init::normal(&[num_relations, 12], 0.5, &mut StdRng::seed_from_u64(seed ^ 0x5c));
            RmpiModel::with_schema_vectors(cfg, onto, seed)
        }
    }
}

/// The same sample under the "update every node at every layer" schedule.
fn with_full_schedule(sample: &SampleInput) -> SampleInput {
    let mut full = sample.clone();
    full.schedule =
        PruningSchedule { dist: vec![0; sample.relview.num_nodes()], k: sample.schedule.k };
    full
}

/// Score bits equal; with `check_grads`, parameter gradients agree too.
fn assert_matches_oracle(
    model: &RmpiModel,
    sample: &SampleInput,
    check_grads: bool,
    what: &str,
) -> Result<(), String> {
    let mut tape = Tape::new();
    let batched = model.score_sample_on_tape(&mut tape, sample);
    let mut oracle_tape = Tape::new();
    let oracle = oracle_score_on_tape(model, &mut oracle_tape, sample);
    let (b, o) = (tape.value(batched).item(), oracle_tape.value(oracle).item());
    if b.to_bits() != o.to_bits() {
        return Err(format!("{what}: batched score {b:e} != per-message score {o:e}"));
    }
    if !check_grads {
        return Ok(());
    }
    let (mut gb, mut go) = (GradBuffer::new(), GradBuffer::new());
    tape.backward_into(batched, &mut gb);
    oracle_tape.backward_into(oracle, &mut go);
    let store = model.param_store();
    for id in store.ids() {
        let zeros = Tensor::zeros(store.value(id).shape());
        let (x, y) = (gb.get(id).unwrap_or(&zeros), go.get(id).unwrap_or(&zeros));
        let tol = 1e-5 * (1.0 + y.norm());
        for (i, (&x, &y)) in x.data().iter().zip(y.data()).enumerate() {
            if (x - y).abs() > tol {
                return Err(format!(
                    "{what}: d score / d {}[{i}] batched {x:e} vs per-message {y:e} (tolerance {tol:e})",
                    store.name(id)
                ));
            }
        }
    }
    Ok(())
}

/// Every grid cell on `sample` and on its full-schedule twin.
fn check_grid(
    graph: &KnowledgeGraph,
    target: Triple,
    num_relations: usize,
    dim: usize,
    model_seed: u64,
    check_grads: bool,
) -> Result<(), String> {
    for cfg in variant_grid(dim) {
        let model = build_model(cfg, num_relations, model_seed);
        let sample = model.prepare_eval_sample(graph, target, 7);
        for (sched, sample) in [("pruned", sample.clone()), ("full", with_full_schedule(&sample))] {
            let what = format!("{} K={} {sched} target {target:?}", model.name(), cfg.num_layers);
            assert_matches_oracle(&model, &sample, check_grads, &what)?;
        }
    }
    Ok(())
}

/// A small random rule world plus a random target: head and tail may lie
/// outside the graph (empty enclosing subgraph, no disclosing neighbours) and
/// the relation may be one no edge carries (fully unseen).
fn arb_world_and_target() -> impl Strategy<Value = (KnowledgeGraph, Triple, usize)> {
    (0u64..1000, 24usize..60, 0u32..70, 0u32..70, 0usize..100, 0usize..4).prop_map(
        |(seed, entities, h, t, r, pick)| {
            let world = World::new(WorldConfig {
                comp_groups: 2,
                long_groups: 0,
                inv_groups: 1,
                sym_groups: 1,
                sub_groups: 0,
                noise_relations: 1,
                seed,
                ..Default::default()
            });
            let groups: Vec<usize> = (0..world.groups().len()).collect();
            let triples = world.generate_triples(
                &groups,
                &GraphGenConfig {
                    num_entities: entities,
                    num_base_triples: 3 * entities,
                    seed,
                    ..Default::default()
                },
            );
            // two ids past the world's vocabulary are never on an edge
            let num_relations = world.num_relations() + 2;
            // one target in four is an edge of the graph itself (a dense
            // enclosing subgraph), the rest are random pairs
            let target = if pick == 0 && !triples.is_empty() {
                triples[r % triples.len()]
            } else {
                Triple::new(h, (r % num_relations) as u32, t)
            };
            (KnowledgeGraph::from_triples(triples), target, num_relations)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn batched_forward_matches_the_per_message_oracle_on_random_worlds(
        (graph, target, num_relations) in arb_world_and_target(),
        model_seed in 0u64..1000,
    ) {
        if let Err(msg) = check_grid(&graph, target, num_relations, 6, model_seed, true) {
            prop_assert!(false, "{}", msg);
        }
    }
}

fn nell_hot_set() -> (KnowledgeGraph, Vec<Triple>) {
    let te = build_benchmark("nell.v1", Scale::Quick)
        .tests
        .into_iter()
        .find(|t| t.name == "TE")
        .expect("TE split");
    assert_eq!(te.targets.len(), 191, "the score_warm hot set");
    (te.graph, te.targets)
}

/// The benchmark's paper model (RMPI-NE-TA, dim 32, K = 2, model seed 1) on
/// all 191 hot targets: scores bit-identical, gradients within tolerance.
#[test]
fn paper_model_matches_the_oracle_on_the_whole_hot_set() {
    let (graph, targets) = nell_hot_set();
    let cfg = RmpiConfig { dim: 32, ne: true, ta: true, ..RmpiConfig::base() };
    let model = RmpiModel::new(cfg, graph.num_relations(), 1);
    for &target in &targets {
        let sample = model.prepare_eval_sample(&graph, target, 7);
        assert_matches_oracle(&model, &sample, true, &format!("paper model, target {target:?}"))
            .unwrap_or_else(|msg| panic!("{msg}"));
    }
}

/// The whole variant grid on the hot set at dim 8: scores on every target,
/// gradients on every eighth (the per-message backward is the slow part).
#[test]
fn every_variant_matches_the_oracle_on_the_hot_set() {
    let (graph, targets) = nell_hot_set();
    for (i, &target) in targets.iter().enumerate() {
        check_grid(&graph, target, graph.num_relations(), 8, 1, i % 8 == 0)
            .unwrap_or_else(|msg| panic!("{msg}"));
    }
}
