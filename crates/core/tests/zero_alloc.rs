//! A warm forward pass allocates nothing, and training copies no parameter.
//!
//! The tape keeps its node storage across resets and records parameters as
//! shared handles into the store; the forward's bookkeeping (relation lists,
//! segment layouts, row maps) lives in per-thread scratch. Together they
//! make re-scoring a prepared sample on a reused tape allocation-free, and
//! this binary holds them to it with a counting global allocator. It also
//! pins the copy-on-write rule of the shared parameters: a training loop
//! that drops its tapes before stepping copies nothing, and a step taken
//! while a tape is alive copies what that tape recorded.
//!
//! The allocation counter and the parameter-copy counter are process-wide,
//! so the allocator lives in this binary alone and every test holds the
//! process-wide test lock for its whole body.

mod common;

use common::tiny_data;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rmpi_autograd::optim::Adam;
use rmpi_autograd::{counters, BackwardScratch, GradBuffer, Tape};
use rmpi_core::loss::margin_ranking_loss;
use rmpi_core::sample::prepare_sample;
use rmpi_core::{
    Fusion, Mode, RmpiConfig, RmpiModel, SampleInput, ScoringModel, TrainConfig, Trainer,
};
use rmpi_kg::{KnowledgeGraph, Triple};
use rmpi_testutil::failpoint::exclusive;
use rmpi_testutil::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Allocation events of one run of `f`, as the minimum over five runs: `f`
/// is deterministic, and whatever else the process does meanwhile (the
/// harness starting the next test's thread) can only add to a reading.
fn allocations_of(mut f: impl FnMut()) -> u64 {
    (0..5)
        .map(|_| {
            let before = ALLOC.allocations();
            f();
            ALLOC.allocations() - before
        })
        .min()
        .expect("at least one run")
}

/// The paper's model, RMPI-NE-TA at dimension 32, over `graph`'s relations.
fn paper_model(graph: &KnowledgeGraph) -> RmpiModel {
    RmpiModel::new(RmpiConfig::ne_ta(), graph.num_relations(), 7)
}

/// Eval-mode samples of `model` for every target.
fn eval_samples(model: &RmpiModel, graph: &KnowledgeGraph, targets: &[Triple]) -> Vec<SampleInput> {
    targets.iter().map(|&t| model.prepare_eval_sample(graph, t, 1)).collect()
}

/// Record `sample`'s score on `tape` after a reset; returns the score.
fn rescore(model: &RmpiModel, tape: &mut Tape, sample: &SampleInput) -> f32 {
    tape.reset();
    let v = model.score_sample_on_tape(tape, sample);
    tape.value(v).item()
}

#[test]
fn rescoring_a_prepared_sample_on_a_reused_tape_allocates_nothing() {
    let _turn = exclusive();
    let (graph, targets, _) = tiny_data();
    let model = paper_model(&graph);
    // the largest relation view of the world: every edge type, both layers
    let sample = eval_samples(&model, &graph, &targets)
        .into_iter()
        .max_by_key(|s| s.relview.num_edges())
        .expect("targets");
    assert!(sample.relview.num_edges() > 20, "the sample must carry real message passing");
    assert!(!sample.disclosing_rels.is_empty(), "and a disclosing neighbourhood");

    let mut tape = Tape::new();
    let want = model.score_sample(&sample);
    assert_eq!(rescore(&model, &mut tape, &sample).to_bits(), want.to_bits());
    let mut score = 0.0;
    let allocations = allocations_of(|| score = rescore(&model, &mut tape, &sample));
    assert_eq!(score.to_bits(), want.to_bits(), "a recycled tape scores bit-identically");
    assert_eq!(allocations, 0, "a warm forward allocated {allocations} times");
}

/// One training pair — positive and negative forward, the margin loss and a
/// scratch-backed backward pass — on a warm tape and scratch allocates only
/// what it hands out: one gradient tensor per distinct parameter the pair
/// read (its storage moves into the per-sample gradient buffer and a buffer
/// of the same size takes its place among the scratch's spares) and that
/// buffer's slot table, which grows twice on the way to the highest
/// parameter index. Measured: 15 for this pair — 13 parameters (the
/// relation table, the 10 `W_e` whose edge types occur, `ne_wd`, `score_w`)
/// plus 2. The forward itself allocates nothing.
const TRAINING_PAIR_ALLOCATIONS: u64 = 15;

#[test]
fn a_training_pair_allocates_only_the_gradients_it_hands_out() {
    let _turn = exclusive();
    let (graph, targets, _) = tiny_data();
    let model = paper_model(&graph);
    let mut rng = StdRng::seed_from_u64(3);
    let cfg = *model.config();
    let (pos, neg) = (targets[0], Triple { tail: targets[1].tail, ..targets[0] });
    let pos = prepare_sample(&graph, pos, &cfg, Mode::Train, &mut rng);
    let neg = prepare_sample(&graph, neg, &cfg, Mode::Train, &mut rng);

    let mut tape = Tape::new();
    let mut scratch = BackwardScratch::new();
    let mut touched = 0;
    let mut pair = || {
        tape.reset();
        let sp = model.score_sample_on_tape(&mut tape, &pos);
        let sn = model.score_sample_on_tape(&mut tape, &neg);
        let loss = margin_ranking_loss(&mut tape, sp, sn, 10.0);
        let mut grads = GradBuffer::new();
        tape.backward_into_with(loss, &mut scratch, &mut grads);
        touched = grads.iter().count() as u64;
    };
    // the spares settle once every size a pass holds at once has been seen
    for _ in 0..3 {
        pair();
    }
    let allocations = allocations_of(&mut pair);
    assert!(touched >= 3, "the pair must reach several parameters, reached {touched}");
    assert!(
        allocations <= touched + 2,
        "{allocations} allocations for {touched} parameter gradients and their buffer"
    );
    assert!(
        allocations <= TRAINING_PAIR_ALLOCATIONS,
        "a training pair allocated {allocations} times (bound {TRAINING_PAIR_ALLOCATIONS})"
    );
}

#[test]
fn ten_thousand_varied_forwards_keep_the_tape_storage_at_a_plateau() {
    let _turn = exclusive();
    let (graph, targets, _) = tiny_data();
    let paper = paper_model(&graph);
    // constants on the tape: the gate's ones and the entity-clue histogram
    let gated = RmpiModel::new(
        RmpiConfig { fusion: Fusion::Gated, entity_clues: true, ..RmpiConfig::ne_ta() },
        graph.num_relations(),
        8,
    );
    let mut work: Vec<(&RmpiModel, SampleInput)> = Vec::new();
    for model in [&paper, &gated] {
        for (i, mut sample) in eval_samples(model, &graph, &targets).into_iter().enumerate() {
            if i % 5 == 0 {
                // the third constant: NE's zero vector for an empty neighbourhood
                sample.disclosing_rels.clear();
            }
            work.push((model, sample));
        }
    }
    assert!(work.len() >= 400, "{} samples", work.len());

    let mut tape = Tape::new();
    let mut longest = 0;
    for (model, sample) in &work {
        rescore(model, &mut tape, sample);
        longest = longest.max(tape.len());
    }
    tape.reset();
    let plateau = tape.retained();
    assert_eq!(plateau.slots, longest, "one slot per node of the longest recording");

    let mut checksum = 0.0f64;
    let before = ALLOC.allocations();
    for (model, sample) in work.iter().cycle().take(10_000) {
        checksum += rescore(model, &mut tape, sample) as f64;
    }
    let allocations = ALLOC.allocations() - before;
    assert!(checksum.is_finite());
    tape.reset();
    assert_eq!(tape.retained(), plateau, "the kept storage moved after warm-up");
    assert_eq!(allocations, 0, "10 000 warm forwards allocated {allocations} times");
}

#[test]
fn a_trainer_epoch_copies_no_parameter() {
    let _turn = exclusive();
    let (graph, targets, valid) = tiny_data();
    for threads in [1, 4] {
        let mut model =
            RmpiModel::new(RmpiConfig { dim: 8, ..RmpiConfig::ne_ta() }, graph.num_relations(), 2);
        let cfg = TrainConfig {
            epochs: 1,
            max_samples_per_epoch: 64,
            max_valid_samples: 20,
            patience: 0,
            seed: 5,
            threads,
            ..Default::default()
        };
        let before = counters::param_copies();
        let report = Trainer::new(cfg).train(&mut model, &graph, &targets, &valid);
        assert_eq!(report.epoch_losses.len(), 1);
        assert_eq!(report.skipped_batches, 0, "every batch stepped");
        assert_eq!(
            counters::param_copies() - before,
            0,
            "threads={threads}: the trainer stepped while a tape held parameters"
        );
    }
}

#[test]
fn a_step_under_a_live_tape_copies_what_the_tape_recorded() {
    let _turn = exclusive();
    let (graph, targets, _) = tiny_data();
    let mut model = paper_model(&graph);
    let sample = eval_samples(&model, &graph, &targets[..1]).pop().expect("one sample");
    let mut tape = Tape::new();
    let v = model.score_sample_on_tape(&mut tape, &sample);
    let score = tape.value(v).item();
    tape.backward(v, model.param_store_mut());

    let mut adam = Adam::new(1e-2);
    let before = counters::param_copies();
    adam.step(model.param_store_mut());
    let copies = counters::param_copies() - before;
    // at least the relation table and the read-out, never more than exist
    assert!(
        (2..=model.param_store().len() as u64).contains(&copies),
        "{copies} copies of {} parameters",
        model.param_store().len()
    );
    assert_eq!(tape.value(v).item().to_bits(), score.to_bits(), "the tape kept its values");
    assert_ne!(model.score_sample(&sample).to_bits(), score.to_bits(), "the model stepped");

    // the documented way: reset (or drop) the tape first, and nothing is copied
    tape.reset();
    let before = counters::param_copies();
    adam.step(model.param_store_mut());
    assert_eq!(counters::param_copies() - before, 0);
}
