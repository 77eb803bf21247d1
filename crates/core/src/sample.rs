//! Per-target forward-pass inputs: subgraph extraction, edge dropout,
//! relation-view transform, pruning schedule and disclosing neighbours.

use crate::config::RmpiConfig;
use crate::traits::Mode;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rmpi_kg::{GraphAccess, RelationId, Triple};
use rmpi_subgraph::{
    double_radius_labels, enclosing_subgraph, PruningSchedule, RelViewGraph, Subgraph,
};

/// Everything the RMPI forward pass needs for one target triple.
#[derive(Clone, Debug)]
pub struct SampleInput {
    /// Relation view of the (possibly edge-dropped) enclosing subgraph.
    pub relview: RelViewGraph,
    /// Pruned layer schedule over `relview`.
    pub schedule: PruningSchedule,
    /// Relations labelling the target's one-hop *disclosing* neighbourhood
    /// (deduplicated) — the NE module's input.
    pub disclosing_rels: Vec<RelationId>,
    /// The target triple.
    pub target: Triple,
    /// Normalised histogram of the subgraph entities' double-radius labels
    /// (present only when `cfg.entity_clues` is on).
    pub(crate) label_histogram: Option<Vec<f32>>,
}

/// Build the forward-pass input for `target` against `graph`.
///
/// In [`Mode::Train`], subgraph edges are dropped independently with
/// probability `cfg.edge_dropout` (the paper's edge dropout); oversized
/// subgraphs are uniformly downsampled to `cfg.max_subgraph_edges` in both
/// modes.
pub fn prepare_sample<G: GraphAccess + ?Sized>(
    graph: &G,
    target: Triple,
    cfg: &RmpiConfig,
    mode: Mode,
    rng: &mut StdRng,
) -> SampleInput {
    // `core.extract.us` times the full input preparation (extraction,
    // budget, relation view, schedule) — the phase the paper's efficiency
    // analysis singles out. Handle cached per process; recording is a few
    // relaxed atomics.
    static EXTRACT_US: std::sync::OnceLock<rmpi_obs::Histogram> = std::sync::OnceLock::new();
    static EXTRACT_EDGES: std::sync::OnceLock<rmpi_obs::Counter> = std::sync::OnceLock::new();
    static EXTRACT_ENTITIES: std::sync::OnceLock<rmpi_obs::Counter> = std::sync::OnceLock::new();
    let extract_us = EXTRACT_US.get_or_init(|| rmpi_obs::global().histogram("core.extract.us"));
    let extract_start = std::time::Instant::now();
    let mut sg = enclosing_subgraph(graph, target, cfg.hop);
    EXTRACT_EDGES
        .get_or_init(|| rmpi_obs::global().counter("core.extract.edges"))
        .add(sg.num_edges() as u64);
    EXTRACT_ENTITIES
        .get_or_init(|| rmpi_obs::global().counter("core.extract.entities"))
        .add(sg.num_entities() as u64);
    apply_edge_budget(&mut sg, cfg.edge_dropout, cfg.max_subgraph_edges, mode, rng);
    let relview = RelViewGraph::from_subgraph(&sg);
    let schedule = PruningSchedule::new(&relview, cfg.num_layers);

    let disclosing_rels =
        if cfg.ne { disclosing_one_hop_relations(graph, target, cfg.hop) } else { Vec::new() };

    let label_histogram = cfg.entity_clues.then(|| label_histogram(&sg, cfg.hop + 1));

    extract_us.record_duration(extract_start.elapsed());
    SampleInput { relview, schedule, disclosing_rels, target, label_histogram }
}

/// Length of the entity-clue histogram for a given maximum label distance.
pub(crate) fn label_histogram_len(max_dist: usize) -> usize {
    2 * (max_dist + 1)
}

/// Normalised histogram of double-radius labels over the subgraph entities:
/// counts of each `d(i,u)` value followed by counts of each `d(i,v)` value,
/// both divided by the number of entities.
fn label_histogram(sg: &Subgraph, max_dist: usize) -> Vec<f32> {
    let labels = double_radius_labels(sg, max_dist);
    let w = max_dist + 1;
    let mut hist = vec![0f32; 2 * w];
    for l in labels.values() {
        hist[l.du.min(max_dist)] += 1.0;
        hist[w + l.dv.min(max_dist)] += 1.0;
    }
    let n = labels.len().max(1) as f32;
    for h in &mut hist {
        *h /= n;
    }
    hist
}

/// Edge dropout and the hard size cap, shared by RMPI and the entity-view
/// baselines: in [`Mode::Train`] each edge of `sg` is dropped independently
/// with probability `edge_dropout`; then, in both modes, a subgraph over
/// `max_edges` edges is uniformly downsampled to `max_edges` (edges stay
/// sorted).
pub fn apply_edge_budget(
    sg: &mut Subgraph,
    edge_dropout: f64,
    max_edges: usize,
    mode: Mode,
    rng: &mut StdRng,
) {
    if mode == Mode::Train && edge_dropout > 0.0 {
        sg.triples.retain(|_| !rng.gen_bool(edge_dropout));
    }
    if sg.triples.len() > max_edges {
        sg.triples.shuffle(rng);
        sg.triples.truncate(max_edges);
        sg.triples.sort_unstable();
    }
}

/// Distinct relations of the target's one-hop disclosing neighbourhood: all
/// edges incident to the target head or tail (§III-F samples the one-hop
/// neighbours of the target relation node in the disclosing relation view —
/// which are exactly the edges sharing an entity with the target).
///
/// Computed by scanning the four adjacency lists of the endpoints directly —
/// for `hop >= 1` that set equals "edges of the disclosing subgraph incident
/// to an endpoint" (an edge touching an endpoint always has its other end
/// within one hop, hence inside the subgraph), without paying for a full
/// K-hop extraction. At `hop == 0` the disclosing subgraph retains only the
/// endpoints themselves, so edges leaving the pair are excluded.
fn disclosing_one_hop_relations<G: GraphAccess + ?Sized>(
    graph: &G,
    target: Triple,
    hop: usize,
) -> Vec<RelationId> {
    let (u, v) = (target.head, target.tail);
    let mut rels: Vec<RelationId> = Vec::new();
    let endpoints = if u == v { &[u][..] } else { &[u, v][..] };
    for &e in endpoints {
        // each edge spells out its own triple: an out-edge of `e` is
        // `(e, r, n)`, an in-edge `(n, r, e)` — no look-up by index
        let outgoing = graph.out_edges(e).iter().map(|edge| (edge, e, edge.neighbor));
        let incoming = graph.in_edges(e).iter().map(|edge| (edge, edge.neighbor, e));
        for (edge, head, tail) in outgoing.chain(incoming) {
            if hop == 0 && edge.neighbor != u && edge.neighbor != v {
                continue;
            }
            let t = Triple { head, relation: edge.relation, tail };
            debug_assert_eq!(t, graph.triple(edge.triple_idx), "edge disagrees with its triple");
            if t == target {
                continue;
            }
            rels.push(edge.relation);
        }
    }
    rels.sort_unstable();
    rels.dedup();
    rels
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rmpi_kg::KnowledgeGraph;

    fn graph() -> KnowledgeGraph {
        KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(1u32, 1u32, 3u32),
            Triple::new(0u32, 2u32, 2u32),
            Triple::new(2u32, 3u32, 3u32),
            Triple::new(3u32, 4u32, 4u32),
        ])
    }

    fn cfg() -> RmpiConfig {
        RmpiConfig { ne: true, edge_dropout: 0.0, ..Default::default() }
    }

    #[test]
    fn eval_mode_is_deterministic_and_complete() {
        let g = graph();
        let t = Triple::new(0u32, 9u32, 3u32);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let s = prepare_sample(&g, t, &cfg(), Mode::Eval, &mut rng);
        assert_eq!(s.relview.num_nodes(), 5); // 4 enclosing edges + target
        assert!(!enclosing_subgraph(&g, t, cfg().hop).is_empty());
        assert_eq!(s.target, t);
    }

    #[test]
    fn train_mode_dropout_removes_edges() {
        let g = graph();
        let t = Triple::new(0u32, 9u32, 3u32);
        let cfg = RmpiConfig { edge_dropout: 0.99, ..cfg() };
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let s = prepare_sample(&g, t, &cfg, Mode::Train, &mut rng);
        assert!(s.relview.num_nodes() < 5, "dropout at 0.99 should remove edges");
    }

    #[test]
    fn size_cap_applies() {
        // star graph: many parallel edges between 0 and 1
        let triples: Vec<Triple> = (0..50u32).map(|r| Triple::new(0u32, r, 1u32)).collect();
        let g = KnowledgeGraph::from_triples(triples);
        let t = Triple::new(0u32, 99u32, 1u32);
        let cfg = RmpiConfig {
            max_subgraph_edges: 10,
            ne: false,
            edge_dropout: 0.0,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let s = prepare_sample(&g, t, &cfg, Mode::Eval, &mut rng);
        assert_eq!(s.relview.num_nodes(), 11);
    }

    #[test]
    fn disclosing_relations_cover_pendant_edges() {
        let g = graph();
        let t = Triple::new(0u32, 9u32, 3u32);
        let rels = disclosing_one_hop_relations(&g, t, 2);
        // edges incident to 0 or 3: r0, r1, r2, r3, r4 (3->4 pendant)
        assert_eq!(
            rels,
            vec![RelationId(0), RelationId(1), RelationId(2), RelationId(3), RelationId(4)]
        );
    }

    #[test]
    fn empty_enclosing_subgraph_leaves_only_the_target() {
        let g = KnowledgeGraph::from_triples(vec![
            Triple::new(0u32, 0u32, 1u32),
            Triple::new(5u32, 0u32, 6u32),
        ]);
        let t = Triple::new(0u32, 9u32, 5u32);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let s = prepare_sample(&g, t, &cfg(), Mode::Eval, &mut rng);
        assert!(enclosing_subgraph(&g, t, cfg().hop).is_empty());
        assert_eq!(s.relview.num_nodes(), 1);
        // disclosing still sees the pendant edges at both endpoints
        assert!(!s.disclosing_rels.is_empty());
    }

    #[test]
    fn entity_clue_histogram_is_normalized() {
        let g = graph();
        let t = Triple::new(0u32, 9u32, 3u32);
        let cfg =
            RmpiConfig { entity_clues: true, ne: false, edge_dropout: 0.0, ..Default::default() };
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let s = prepare_sample(&g, t, &cfg, Mode::Eval, &mut rng);
        let hist = s.label_histogram.expect("histogram requested");
        assert_eq!(hist.len(), label_histogram_len(cfg.hop + 1));
        // each half of the histogram sums to 1 (one label per entity)
        let w = hist.len() / 2;
        let du_sum: f32 = hist[..w].iter().sum();
        let dv_sum: f32 = hist[w..].iter().sum();
        assert!((du_sum - 1.0).abs() < 1e-5, "du half sums to {du_sum}");
        assert!((dv_sum - 1.0).abs() < 1e-5, "dv half sums to {dv_sum}");
    }

    #[test]
    fn ne_disabled_skips_disclosing_work() {
        let g = graph();
        let t = Triple::new(0u32, 9u32, 3u32);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let cfg = RmpiConfig { ne: false, edge_dropout: 0.0, ..Default::default() };
        let s = prepare_sample(&g, t, &cfg, Mode::Eval, &mut rng);
        assert!(s.disclosing_rels.is_empty());
    }
}
