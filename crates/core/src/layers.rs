//! Relational message passing layers (paper Eq. 6–9, Algorithm 1).

use rand::rngs::StdRng;
use rmpi_autograd::{init, ParamId, ParamStore, Tape, Var};
use rmpi_subgraph::relview::{RelViewGraph, NUM_EDGE_TYPES, TARGET_NODE};
use rmpi_subgraph::PruningSchedule;

/// Per-layer, per-edge-type transformation matrices `W_e^k`.
#[derive(Clone, Debug)]
pub struct MessagePassingWeights {
    /// `w[k][e]` is the `(dim, dim)` matrix for edge type `e` at layer `k`.
    pub(crate) w: Vec<Vec<ParamId>>,
}

impl MessagePassingWeights {
    /// Register the `num_layers × 6` matrices under `prefix`.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        num_layers: usize,
        dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        let w = (0..num_layers)
            .map(|k| {
                (0..NUM_EDGE_TYPES)
                    .map(|e| {
                        store.create(
                            &format!("{prefix}_l{k}_e{e}"),
                            init::xavier_uniform(&[dim, dim], rng),
                        )
                    })
                    .collect()
            })
            .collect();
        MessagePassingWeights { w }
    }

    /// Number of layers.
    fn num_layers(&self) -> usize {
        self.w.len()
    }
}

/// Attention behaviour of the aggregation.
#[derive(Clone, Copy, Debug)]
pub struct AttentionConfig {
    /// Target-aware attention on/off (RMPI-TA).
    pub enabled: bool,
    /// LeakyReLU negative slope for the attention logits.
    pub leaky_slope: f32,
}

/// `row_of` entry of a node that has no row in the current layer's state.
const NO_ROW: usize = usize::MAX;

/// The bookkeeping of one [`relational_message_passing`] call, kept per
/// thread so that a warm forward allocates none of it.
#[derive(Default)]
struct LayerScratch {
    /// Node → row of the current layer's state.
    row_of: Vec<usize>,
    /// The nodes the current layer updates.
    dests: Vec<usize>,
    /// Per edge type: the source rows of every destination's incoming edges.
    members: [Vec<usize>; NUM_EDGE_TYPES],
    /// Per edge type: where each destination's segment of `members` starts.
    offsets: [Vec<usize>; NUM_EDGE_TYPES],
    /// Per edge type: row → position in `distinct`; `NO_ROW` everywhere
    /// between layers.
    slot: [Vec<usize>; NUM_EDGE_TYPES],
    /// Per edge type: the distinct source rows, in first-seen order.
    distinct: [Vec<usize>; NUM_EDGE_TYPES],
    /// Per edge type: `members` as positions in `distinct`.
    local: [Vec<usize>; NUM_EDGE_TYPES],
    /// The destinations' previous-layer rows.
    dest_rows: Vec<usize>,
}

/// Run K layers of pruned relational message passing and return the target
/// node's final representation `h_{r_t}^K` (rank 1, `dim` long).
///
/// `h0` is a `(rows, dim)` matrix of initial representations and
/// `row_of[node]` the row holding node `node`'s — nodes that share a relation
/// share a row, so layer 1 transforms each distinct relation once.
///
/// Every message `W_e^k · h_j^{k-1}` is computed once: per layer and edge
/// type the distinct source rows are gathered, transformed by one
/// `X · W_eᵀ` product, and summed per destination by one segmented sum —
/// attention-weighted (Eq. 7) through one logit vector per layer and one
/// segmented softmax per edge type. Layer `k < K` updates the schedule's
/// active nodes, whose representations form the next layer's rows; the final
/// layer only feeds the read-out, so it aggregates into the target alone.
/// Nodes outside the pruned set are never touched — that is the efficiency
/// win of Algorithm 1.
///
/// The schedule must keep every in-neighbour of a node active at layer `k + 1`
/// active at layer `k` (true of [`PruningSchedule::new`] and of the
/// all-zero "update everything" schedule).
#[allow(clippy::too_many_arguments)]
pub fn relational_message_passing(
    tape: &mut Tape,
    store: &ParamStore,
    weights: &MessagePassingWeights,
    attention: AttentionConfig,
    rv: &RelViewGraph,
    schedule: &PruningSchedule,
    h0: Var,
    row_of: &[usize],
) -> Var {
    let k_layers = weights.num_layers();
    assert_eq!(schedule.k, k_layers, "schedule depth must match layer count");
    assert_eq!(row_of.len(), rv.num_nodes(), "every relation node needs an initial row");

    rmpi_runtime::with_scratch(|s: &mut LayerScratch| {
        let LayerScratch {
            row_of: rows,
            dests,
            members,
            offsets,
            slot,
            distinct,
            local,
            dest_rows,
        } = s;
        rows.clear();
        rows.extend_from_slice(row_of);
        let mut h = h0;
        for layer in 1..=k_layers {
            let is_final = layer == k_layers;
            if is_final {
                dests.clear();
                dests.push(TARGET_NODE);
            } else {
                schedule.active_nodes_into(layer, dests);
            }

            // incoming edges of the destinations, bucketed by edge type, each
            // source row given its slot among the type's distinct rows as it
            // arrives: segment `d` of a bucket lists the previous-layer rows
            // of `dests[d]`'s sources in `RelViewGraph`'s per-type (ascending
            // source) order
            let num_rows = tape.value(h).rows();
            for t in 0..NUM_EDGE_TYPES {
                members[t].clear();
                offsets[t].clear();
                offsets[t].push(0);
                distinct[t].clear();
                local[t].clear();
                if slot[t].len() < num_rows {
                    slot[t].resize(num_rows, NO_ROW);
                }
            }
            for &node in dests.iter() {
                for e in rv.incoming(node) {
                    let row = rows[e.src];
                    assert_ne!(row, NO_ROW, "schedule dropped node {} one layer early", e.src);
                    let t = e.etype.index();
                    members[t].push(row);
                    let s = &mut slot[t][row];
                    if *s == NO_ROW {
                        *s = distinct[t].len();
                        distinct[t].push(row);
                    }
                    local[t].push(*s);
                }
                for (o, m) in offsets.iter_mut().zip(members.iter()) {
                    o.push(m.len());
                }
            }
            for (slot, distinct) in slot.iter_mut().zip(distinct.iter()) {
                for &row in distinct {
                    slot[row] = NO_ROW;
                }
            }

            // Eq. 7 logits LeakyReLU(h_rt^{k-1} · h_rj^{k-1}), one per row;
            // the final layer aggregates with equal weights (Eq. 9)
            let logits = (attention.enabled && !is_final).then(|| {
                let h_target = tape.row(h, rows[TARGET_NODE]);
                let dots = tape.matvec(h, h_target);
                tape.leaky_relu(dots, attention.leaky_slope)
            });

            let mut agg: Option<Var> = None;
            for (etype, &w_id) in weights.w[layer - 1].iter().enumerate() {
                let (members, offsets) = (&members[etype], &offsets[etype]);
                if members.is_empty() {
                    continue;
                }
                // transformed messages W_e h_j, once per distinct source row
                let sources = tape.gather(h, &distinct[etype]);
                let w = tape.param(store, w_id);
                let msgs = tape.matmul_nt(sources, w);
                let att = logits.map(|l| tape.segment_softmax(l, members, offsets));
                let type_sum = tape.segment_sum(msgs, att, &local[etype], offsets);
                agg = Some(match agg {
                    Some(acc) => tape.add(acc, type_sum),
                    None => type_sum,
                });
            }

            // residual combine (Eq. 8 / Eq. 9); σ1 = ReLU in both
            dest_rows.clear();
            dest_rows.extend(dests.iter().map(|&node| rows[node]));
            let h_prev = tape.gather(h, dest_rows);
            h = match agg {
                Some(agg) => {
                    let activated = tape.relu(agg);
                    tape.add(activated, h_prev)
                }
                // no destination has an incoming edge: representations carry over
                None => h_prev,
            };
            rows.fill(NO_ROW);
            for (row, &node) in dests.iter().enumerate() {
                rows[node] = row;
            }
        }
        tape.row(h, rows[TARGET_NODE])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rmpi_autograd::gradcheck::check_gradients;
    use rmpi_autograd::Tensor;
    use rmpi_kg::{KnowledgeGraph, Triple};
    use rmpi_subgraph::enclosing_subgraph;

    fn setup() -> (RelViewGraph, PruningSchedule) {
        let g = KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 1u32, 3u32),
            Triple::new(0u32, 2u32, 2u32),
            Triple::new(2u32, 3u32, 3u32),
        ]);
        let sg = enclosing_subgraph(&g, Triple::new(0u32, 9u32, 3u32), 2);
        let rv = RelViewGraph::from_subgraph(&sg);
        let sched = PruningSchedule::new(&rv, 2);
        (rv, sched)
    }

    /// The embedding table itself as `h0`: node → row is the relation id.
    fn relation_rows(rv: &RelViewGraph) -> Vec<usize> {
        rv.nodes.iter().map(|n| n.relation.index()).collect()
    }

    fn run_once(ta: bool) -> Vec<f32> {
        let (rv, sched) = setup();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let dim = 6;
        let weights = MessagePassingWeights::new(&mut store, "mp", 2, dim, &mut rng);
        let emb = store.create("emb", init::xavier_uniform(&[10, dim], &mut rng));
        let mut tape = Tape::new();
        let table = tape.param(&store, emb);
        let out = relational_message_passing(
            &mut tape,
            &store,
            &weights,
            AttentionConfig { enabled: ta, leaky_slope: 0.2 },
            &rv,
            &sched,
            table,
            &relation_rows(&rv),
        );
        tape.value(out).data().to_vec()
    }

    #[test]
    fn produces_dim_sized_output() {
        assert_eq!(run_once(false).len(), 6);
        assert_eq!(run_once(true).len(), 6);
    }

    #[test]
    fn attention_changes_the_output() {
        assert_ne!(run_once(false), run_once(true));
    }

    #[test]
    fn isolated_target_passes_through_initial_embedding() {
        // relview with only the target node
        let g = KnowledgeGraph::from_triples(vec![Triple::new(7u32, 0u32, 8u32)]);
        let sg = enclosing_subgraph(&g, Triple::new(0u32, 1u32, 1u32), 2);
        let rv = RelViewGraph::from_subgraph(&sg);
        let sched = PruningSchedule::new(&rv, 2);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(6);
        let dim = 4;
        let weights = MessagePassingWeights::new(&mut store, "mp", 2, dim, &mut rng);
        let mut tape = Tape::new();
        let h0 = tape.constant(Tensor::matrix(1, dim, vec![1.0, -2.0, 3.0, 0.5]));
        let out = relational_message_passing(
            &mut tape,
            &store,
            &weights,
            AttentionConfig { enabled: false, leaky_slope: 0.2 },
            &rv,
            &sched,
            h0,
            &[0],
        );
        assert_eq!(tape.value(out).data(), &[1.0, -2.0, 3.0, 0.5]);
    }

    #[test]
    fn gradients_flow_to_all_layer_weights() {
        let (rv, sched) = setup();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let dim = 4;
        let weights = MessagePassingWeights::new(&mut store, "mp", 2, dim, &mut rng);
        let emb = store.create("emb", init::xavier_uniform(&[10, dim], &mut rng));
        let mut tape = Tape::new();
        let table = tape.param(&store, emb);
        let out = relational_message_passing(
            &mut tape,
            &store,
            &weights,
            AttentionConfig { enabled: true, leaky_slope: 0.2 },
            &rv,
            &sched,
            table,
            &relation_rows(&rv),
        );
        let loss = tape.sum(out);
        tape.backward(loss, &mut store);
        assert!(store.grad(emb).norm() > 0.0, "embedding grads must flow");
        // the target's 1-hop neighbours exist, so at least one last-layer W_e
        // must receive gradient
        let last_layer_grad: f32 = weights.w[1].iter().map(|&id| store.grad(id).norm()).sum();
        assert!(last_layer_grad > 0.0, "final-layer weights must receive gradient");
    }

    /// The whole pass is a handful of batched nodes per (layer, edge type),
    /// however many messages the relation view carries.
    #[test]
    fn tape_size_is_independent_of_the_message_count() {
        let (rv, sched) = setup();
        assert!(rv.num_edges() > 4, "the fixture must carry several messages");
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let weights = MessagePassingWeights::new(&mut store, "mp", 2, 4, &mut rng);
        let emb = store.create("emb", init::xavier_uniform(&[10, 4], &mut rng));
        let mut tape = Tape::new();
        let table = tape.param(&store, emb);
        relational_message_passing(
            &mut tape,
            &store,
            &weights,
            AttentionConfig { enabled: true, leaky_slope: 0.2 },
            &rv,
            &sched,
            table,
            &relation_rows(&rv),
        );
        // per layer: ≤ 3 logit nodes, ≤ 6 nodes per edge type, 3 to combine
        assert!(tape.len() <= 2 + 2 * (3 + 6 * NUM_EDGE_TYPES + 3), "{} tape nodes", tape.len());
    }

    /// Algorithm 1's central correctness claim: pruning skips only updates
    /// that cannot influence the target, so the target's final representation
    /// must be bit-identical to unpruned (all-nodes-every-layer) passing.
    #[test]
    fn pruned_schedule_matches_full_schedule_on_target() {
        for ta in [false, true] {
            for k in 1..=3 {
                let (rv, _) = setup();
                let pruned = PruningSchedule::new(&rv, k);
                let full = PruningSchedule { dist: vec![0; rv.num_nodes()], k };
                let mut store = ParamStore::new();
                let mut rng = StdRng::seed_from_u64(11);
                let dim = 5;
                let weights = MessagePassingWeights::new(&mut store, "mp", k, dim, &mut rng);
                let emb = store.create("emb", init::xavier_uniform(&[10, dim], &mut rng));
                let run = |sched: &PruningSchedule| -> Vec<f32> {
                    let mut tape = Tape::new();
                    let table = tape.param(&store, emb);
                    let out = relational_message_passing(
                        &mut tape,
                        &store,
                        &weights,
                        AttentionConfig { enabled: ta, leaky_slope: 0.2 },
                        &rv,
                        sched,
                        table,
                        &relation_rows(&rv),
                    );
                    tape.value(out).data().to_vec()
                };
                assert_eq!(
                    run(&pruned),
                    run(&full),
                    "ta={ta} k={k}: pruning changed the target output"
                );
            }
        }
    }

    #[test]
    fn gradcheck_through_message_passing() {
        let (rv, sched) = setup();
        let dim = 3;
        // seeds whose parameters keep every pre-activation away from the ReLU
        // kink (seed 8 with attention off sits on one: finite differences
        // straddle it, whichever way the messages are computed)
        for (ta, seed) in [(true, 8), (false, 9)] {
            let mut rng = StdRng::seed_from_u64(seed);
            // build named params: emb + 2 layers x 6 types
            let mut params: Vec<(String, Tensor)> =
                vec![("emb".to_owned(), init::xavier_uniform(&[10, dim], &mut rng))];
            for k in 0..2 {
                for e in 0..NUM_EDGE_TYPES {
                    params.push((
                        format!("mp_l{k}_e{e}"),
                        init::xavier_uniform(&[dim, dim], &mut rng),
                    ));
                }
            }
            let named: Vec<(&str, Tensor)> =
                params.iter().map(|(n, t)| (n.as_str(), t.clone())).collect();
            check_gradients(&named, |tape, store| {
                let weights = MessagePassingWeights {
                    w: (0..2)
                        .map(|k| {
                            (0..NUM_EDGE_TYPES)
                                .map(|e| store.get(&format!("mp_l{k}_e{e}")).unwrap())
                                .collect()
                        })
                        .collect(),
                };
                let table = tape.param(store, store.get("emb").unwrap());
                let out = relational_message_passing(
                    tape,
                    store,
                    &weights,
                    AttentionConfig { enabled: ta, leaky_slope: 0.2 },
                    &rv,
                    &sched,
                    table,
                    &relation_rows(&rv),
                );
                let t = tape.tanh(out);
                tape.sum(t)
            });
        }
    }
}
