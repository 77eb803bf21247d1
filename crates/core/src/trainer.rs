//! Generic training loop for subgraph scoring models (paper §III-E).
//!
//! Mini-batching works by gradient accumulation: each sample builds its own
//! tape (positive + corrupted negative + margin ranking loss), backward
//! writes into a per-sample [`rmpi_autograd::GradBuffer`], and Adam steps
//! once per batch. Validation tracks the pairwise ranking accuracy on held-
//! out triples; the best parameter snapshot is restored at the end.
//!
//! # One loop, two sources
//!
//! There is one loop, `Trainer::run`, generic over a crate-private
//! `TrainSource` that answers only what in-memory and out-of-core training
//! differ in: how many targets there are, which target sits at position `i`
//! of an epoch, the negative sampler, and the graph one sample is scored
//! against. [`Trainer::train`] feeds it a [`KnowledgeGraph`] and a target
//! slice (seeded shuffle in RAM, one [`CsrGraph`] for every sample);
//! [`Trainer::train_store`] feeds it a [`StoreReader`]. Batching, RNG
//! keying, the ordered fold, the optimiser step, validation, early stopping
//! and every layer under "Fault tolerance" below cannot differ between the
//! two, because they exist once.
//!
//! # Data parallelism
//!
//! Each minibatch is sharded across a [`ThreadPool`] ([`TrainConfig::threads`]
//! workers): every worker runs forward + backward for its samples against the
//! shared read-only model and returns `(loss, GradBuffer)` per sample. The
//! main thread then folds the buffers into the store *in sample-index order*,
//! so the sequence of floating-point additions is identical to the sequential
//! loop's, and steps the optimiser once. All randomness (negative sampling,
//! dropout, validation corruption) comes from per-sample RNGs seeded by
//! [`mix_seed`]`(cfg.seed, stream, sample_key)` — a function of the sample's
//! position, never of the thread that happens to run it. Together these make
//! training **bit-identical across thread counts** (see `DESIGN.md`,
//! "Threading model").
//!
//! # Fault tolerance
//!
//! [`Trainer`] wraps the loop with three safety layers (`DESIGN.md` §9):
//!
//! * **Crash-safe checkpoints** — [`Trainer::with_checkpointing`] writes a
//!   [`crate::TrainCheckpoint`] at epoch boundaries.
//!   Because every random draw is keyed by `(seed, stream, epoch, position)`,
//!   an epoch boundary pins the *entire* RNG state: resuming via
//!   [`Trainer::resume_latest`] and replaying the interrupted epoch is
//!   bit-identical to a run that never crashed, at any thread count.
//! * **Divergence guards** — after folding each batch's gradients, the loop
//!   checks the batch losses and the global gradient norm for non-finite
//!   values and applies the configured [`DivergencePolicy`].
//! * **Panic isolation** — batch fan-out uses
//!   [`ThreadPool::try_map_init`]; a worker panic — a failed store read
//!   included — fails only that batch (reported as
//!   [`TrainEvent::BatchFailed`]) and training continues.
//!
//! Progress and every fault decision surface through the [`TrainEvent`]
//! callback channel ([`Trainer::on_event`]).

use crate::checkpoint::{latest_checkpoint, load_checkpoint, save_checkpoint, TrainCheckpoint};
use crate::loss::margin_ranking_loss;
use crate::traits::{Mode, ScoringModel};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rmpi_autograd::io::CheckpointError;
use rmpi_autograd::optim::{Adam, AdamState};
use rmpi_autograd::{BackwardScratch, GradBuffer, ParamStore, Tape, Tensor};
use rmpi_kg::{CsrGraph, GraphAccess, KnowledgeGraph, Triple};
use rmpi_obs::{Counter, Histogram};
use rmpi_runtime::{mix_seed, PoolError, ThreadPool};
use rmpi_store::StoreReader;
use rmpi_subgraph::NegativeSampler;
use rmpi_testutil::failpoint;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

/// Failpoint hit once per training sample with the sample's loss value; the
/// `nan` action turns the loss non-finite (fault-injection tests).
pub const LOSS_FAILPOINT: &str = "trainer::loss";
/// Failpoint hit once per batch after gradients are folded; the `nan` action
/// poisons one gradient entry (fault-injection tests).
pub const GRAD_FAILPOINT: &str = "trainer::grad";

/// RNG stream ids for [`mix_seed`] — one per independent use of randomness,
/// so draws in one stream can never alias draws in another.
mod rng_stream {
    /// Per-epoch shuffling of the training targets.
    pub(crate) const SHUFFLE: u64 = 1;
    /// Per-sample training randomness (negative sampling + dropout).
    pub(crate) const TRAIN: u64 = 2;
    /// Per-epoch shuffling of the validation subset.
    pub(crate) const VALID_SHUFFLE: u64 = 3;
    /// Per-sample validation randomness (negative sampling).
    pub(crate) const VALID: u64 = 4;
}

/// Pack `(epoch, position)` into one 64-bit per-sample key. Positions are
/// bounded by the dataset size, far below 2^40.
fn sample_key(epoch: usize, pos: usize) -> u64 {
    ((epoch as u64) << 40) | pos as u64
}

/// Handles into the global metrics registry for the trainer's phases and
/// fault counters, resolved once per process so the hot loop pays only
/// relaxed atomic recording (see `DESIGN.md` §10). Purely observational:
/// nothing here feeds back into computation, so training stays bit-identical
/// across thread counts with instrumentation on.
pub(crate) struct TrainerMetrics {
    /// `trainer.forward.us` — per-sample forward passes (positive +
    /// negative scoring and the loss node; on the store source, the two
    /// pins as well).
    forward: Histogram,
    /// `trainer.pin.us` — one neighbourhood pin of the store source (all its
    /// IO), training and validation alike; never recorded from RAM.
    pub(crate) pin: Histogram,
    /// `trainer.backward.us` — per-sample backward passes.
    backward: Histogram,
    /// `trainer.optim_step.us` — per-batch Adam steps (incl. clipping).
    optim_step: Histogram,
    /// `trainer.checkpoint_write.us` — checkpoint save + prune.
    checkpoint_write: Histogram,
    /// `trainer.validation.us` — per-epoch validation scoring.
    validation: Histogram,
    /// `trainer.epoch.us` — whole epochs, wall clock.
    epoch: Histogram,
    /// `trainer.epochs.count` — epochs completed.
    epochs: Counter,
    /// `trainer.batches.count` — batches processed (any outcome).
    batches: Counter,
    /// `trainer.samples.count` — samples of every batch whose workers all
    /// returned: gradients computed, whether or not the batch then stepped.
    samples: Counter,
    /// `trainer.batches_skipped.count` — divergence-guard skips.
    batches_skipped: Counter,
    /// `trainer.batches_failed.count` — batches dropped because a worker
    /// panicked or a store read failed.
    batches_failed: Counter,
    /// `trainer.nonfinite.count` — non-finite loss/grad-norm detections.
    nonfinite: Counter,
}

pub(crate) fn trainer_metrics() -> &'static TrainerMetrics {
    static METRICS: OnceLock<TrainerMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = rmpi_obs::global();
        TrainerMetrics {
            forward: reg.histogram("trainer.forward.us"),
            pin: reg.histogram("trainer.pin.us"),
            backward: reg.histogram("trainer.backward.us"),
            optim_step: reg.histogram("trainer.optim_step.us"),
            checkpoint_write: reg.histogram("trainer.checkpoint_write.us"),
            validation: reg.histogram("trainer.validation.us"),
            epoch: reg.histogram("trainer.epoch.us"),
            epochs: reg.counter("trainer.epochs.count"),
            batches: reg.counter("trainer.batches.count"),
            samples: reg.counter("trainer.samples.count"),
            batches_skipped: reg.counter("trainer.batches_skipped.count"),
            batches_failed: reg.counter("trainer.batches_failed.count"),
            nonfinite: reg.counter("trainer.nonfinite.count"),
        }
    })
}

/// What to do when a batch produces a non-finite loss or gradient norm.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum DivergencePolicy {
    /// Drop the poisoned batch's gradients and move on (default).
    #[default]
    SkipBatch,
    /// Stop training immediately; the best snapshot so far is restored.
    Abort,
}

/// Progress and fault notifications emitted by [`Trainer::train`].
#[derive(Clone, Debug)]
pub enum TrainEvent {
    /// Training continued from a checkpoint; `epoch` is the first epoch run.
    Resumed {
        /// First epoch the resumed run executes.
        epoch: usize,
    },
    /// A batch finished (stepped, skipped or failed).
    BatchEnd {
        /// Epoch index.
        epoch: usize,
        /// Batch index within the epoch.
        batch: usize,
    },
    /// An epoch finished (after validation and checkpointing).
    EpochEnd {
        /// Epoch index.
        epoch: usize,
        /// Mean margin loss over the epoch's counted samples.
        loss: f32,
        /// Validation pairwise ranking accuracy.
        accuracy: f32,
    },
    /// A batch produced a non-finite loss or gradient norm; the configured
    /// [`DivergencePolicy`] decides what happens next.
    NonFinite {
        /// Epoch index.
        epoch: usize,
        /// Batch index within the epoch.
        batch: usize,
        /// Sum of the batch's sample losses (may be NaN/inf).
        loss: f32,
        /// Global gradient norm after folding the batch (may be NaN/inf).
        grad_norm: f32,
    },
    /// The divergence guard dropped this batch's gradients.
    BatchSkipped {
        /// Epoch index.
        epoch: usize,
        /// Batch index within the epoch.
        batch: usize,
    },
    /// A worker panicked while processing this batch — on the store source,
    /// that includes a failed read; the batch was dropped.
    BatchFailed {
        /// Epoch index.
        epoch: usize,
        /// Batch index within the epoch.
        batch: usize,
        /// The worker's panic message (a store failure names its error).
        message: String,
    },
    /// A checkpoint was written and `LATEST` now points at it.
    CheckpointSaved {
        /// Epoch just completed.
        epoch: usize,
        /// The checkpoint directory.
        path: PathBuf,
    },
    /// Writing a checkpoint failed; training continues on the previous one.
    CheckpointFailed {
        /// Epoch just completed.
        epoch: usize,
        /// Why the save failed.
        message: String,
    },
    /// Validation scoring failed (worker panic); the epoch records accuracy 0.
    ValidationFailed {
        /// Epoch index.
        epoch: usize,
        /// The worker's panic message.
        message: String,
    },
    /// The abort policy stopped training.
    Aborted {
        /// Epoch in which the divergence occurred.
        epoch: usize,
        /// Batch index within the epoch.
        batch: usize,
    },
}

/// Training hyper-parameters. Defaults follow §IV-B: Adam lr 1e-3, batch 16,
/// margin 10.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Passes over the (capped) target set.
    pub epochs: usize,
    /// Samples per optimiser step.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Ranking margin γ.
    pub margin: f32,
    /// Cap on targets used per epoch (0 = all).
    pub max_samples_per_epoch: usize,
    /// Global gradient-norm clip (0 = off).
    pub grad_clip: f32,
    /// Early-stopping patience in epochs (0 = off).
    pub patience: usize,
    /// Cap on validation triples scored per epoch (0 = all).
    pub max_valid_samples: usize,
    /// RNG seed (shuffling, negative sampling, dropout).
    pub seed: u64,
    /// Worker threads for batch processing and validation scoring
    /// (`0` = one per available core). The result is bit-identical for every
    /// value — this knob trades wall-clock time only.
    pub threads: usize,
    /// What to do when a batch turns up non-finite (see [`DivergencePolicy`]).
    pub divergence: DivergencePolicy,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 16,
            lr: 1e-3,
            margin: 10.0,
            max_samples_per_epoch: 2000,
            grad_clip: 5.0,
            patience: 3,
            max_valid_samples: 200,
            seed: 0,
            threads: 1,
            divergence: DivergencePolicy::SkipBatch,
        }
    }
}

/// What happened during training.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// Mean margin loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Validation pairwise ranking accuracy per epoch (positive scored above
    /// its corrupted negative).
    pub valid_accuracy: Vec<f32>,
    /// Epoch whose parameters were kept (0-based).
    pub best_epoch: usize,
    /// Batches dropped by the divergence guard or by worker panics.
    pub skipped_batches: usize,
    /// `true` when the abort policy stopped training early.
    pub aborted: bool,
    /// First epoch executed when training resumed from a checkpoint.
    pub resumed_from: Option<usize>,
}

impl TrainReport {
    /// Final (restored) validation accuracy.
    pub fn best_accuracy(&self) -> f32 {
        self.valid_accuracy.get(self.best_epoch).copied().unwrap_or(0.0)
    }
}

/// What [`Trainer::run`] asks of its training data: everything in-memory and
/// out-of-core training differ in, and nothing else. Implemented by
/// `MemorySource` here and by [`StoreReader`] in [`crate::stream`]; the loop
/// is monomorphised per source, so nothing on the per-sample path is a new
/// dynamic call. A failed read is a panic naming the error: inside a worker
/// it fails that batch, like any other worker panic.
pub(crate) trait TrainSource: Sync {
    /// One epoch's visiting order.
    type Order: Sync;

    /// How many training targets there are.
    fn num_targets(&self) -> usize;

    /// The visiting order selected by `seed` (one per epoch).
    fn epoch_order(&self, seed: u64) -> Self::Order;

    /// The target at position `pos` of `order`.
    fn target(&self, order: &Self::Order, pos: usize) -> Triple;

    /// The negative sampler over the source's entities; built once per run.
    fn sampler(&self) -> NegativeSampler;

    /// One corrupted negative for `pos`, filtered against the source's facts.
    fn corrupt(&self, sampler: &NegativeSampler, pos: Triple, rng: &mut StdRng) -> Triple;

    /// Lend `f` the graph `target` is scored against: at least the
    /// `radius`-hop neighbourhood of its endpoints.
    fn with_graph<R>(
        &self,
        target: Triple,
        radius: usize,
        f: impl FnOnce(&dyn GraphAccess) -> R,
    ) -> R;
}

/// A graph and a target slice in RAM: targets shuffled per epoch, the one
/// CSR lent to every sample as it is.
struct MemorySource<'a> {
    graph: &'a KnowledgeGraph,
    csr: CsrGraph,
    targets: &'a [Triple],
}

impl TrainSource for MemorySource<'_> {
    type Order = Vec<Triple>;

    fn num_targets(&self) -> usize {
        self.targets.len()
    }

    fn epoch_order(&self, seed: u64) -> Vec<Triple> {
        let mut order = self.targets.to_vec();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        order
    }

    fn target(&self, order: &Vec<Triple>, pos: usize) -> Triple {
        order[pos]
    }

    fn sampler(&self) -> NegativeSampler {
        NegativeSampler::from_graph(self.graph)
    }

    fn corrupt(&self, sampler: &NegativeSampler, pos: Triple, rng: &mut StdRng) -> Triple {
        sampler.corrupt(pos, self.graph, rng)
    }

    fn with_graph<R>(
        &self,
        _target: Triple,
        _radius: usize,
        f: impl FnOnce(&dyn GraphAccess) -> R,
    ) -> R {
        f(&self.csr)
    }
}

/// The boxed observer invoked by [`Trainer`] on every [`TrainEvent`].
pub(crate) type EventCallback<'cb> = Box<dyn FnMut(&TrainEvent) + 'cb>;

/// The crash-safe training driver: checkpointing, resume, divergence guards
/// and a [`TrainEvent`] callback around the data-parallel loop.
///
/// ```no_run
/// # use rmpi_core::{Trainer, TrainConfig};
/// # let (model, graph, targets, valid): (rmpi_core::RmpiModel, rmpi_kg::KnowledgeGraph, Vec<rmpi_kg::Triple>, Vec<rmpi_kg::Triple>) = unimplemented!();
/// # let mut model = model;
/// let cfg = TrainConfig::default();
/// let report = Trainer::new(cfg)
///     .with_checkpointing("run/checkpoints")
///     .resume_latest("run/checkpoints")  // no-op on a fresh directory
///     .unwrap()
///     .train(&mut model, &graph, &targets, &valid);
/// ```
pub struct Trainer<'cb> {
    cfg: TrainConfig,
    checkpoint: Option<PathBuf>,
    resume: Option<TrainCheckpoint>,
    callback: Option<EventCallback<'cb>>,
}

impl<'cb> Trainer<'cb> {
    /// A trainer with no checkpointing and no callback.
    pub fn new(cfg: TrainConfig) -> Self {
        Trainer { cfg, checkpoint: None, resume: None, callback: None }
    }

    /// Write a crash-safe checkpoint into `dir` after every epoch, as
    /// `<dir>/ckpt-NNNNNN/` with a `LATEST` pointer file alongside; the two
    /// newest are kept.
    pub fn with_checkpointing<P: Into<PathBuf>>(mut self, dir: P) -> Self {
        self.checkpoint = Some(dir.into());
        self
    }

    /// Continue from the newest complete checkpoint under `root`, or start
    /// fresh when `root` holds none — the restart-after-crash one-liner.
    pub fn resume_latest<P: AsRef<Path>>(mut self, root: P) -> Result<Self, CheckpointError> {
        if let Some(dir) = latest_checkpoint(root)? {
            self.resume = Some(load_checkpoint(dir)?);
        }
        Ok(self)
    }

    /// Receive a [`TrainEvent`] for every batch, epoch and fault decision.
    pub fn on_event(mut self, f: impl FnMut(&TrainEvent) + 'cb) -> Self {
        self.callback = Some(Box::new(f));
        self
    }

    /// Train `model` on `targets` against the in-memory `graph`; `valid`
    /// steers early stopping. With `threads > 1` each minibatch is sharded
    /// across a scoped worker pool; the result is bit-identical to
    /// `threads == 1`. The module docs describe the algorithm and the
    /// fault-tolerance layers.
    pub fn train<M: ScoringModel + Sync>(
        self,
        model: &mut M,
        graph: &KnowledgeGraph,
        targets: &[Triple],
        valid: &[Triple],
    ) -> TrainReport {
        // All per-sample scoring walks adjacency through the CSR arenas
        // (contiguous, no per-entity Vec indirection); built once per run.
        self.run(model, &MemorySource { graph, csr: CsrGraph::from_graph(graph), targets }, valid)
    }

    /// Train on every triple of the on-disk store behind `reader` — the same
    /// loop as [`Trainer::train`], checkpoints, resume, divergence policies
    /// and events included; only the epoch order (a seeded permutation of
    /// record indices) and the graph (a neighbourhood pinned from disk per
    /// score) differ. Peak memory is bounded by the pinned neighbourhoods,
    /// the block cache and the model, never by graph size.
    pub fn train_store<M: ScoringModel + Sync>(
        self,
        model: &mut M,
        reader: &StoreReader,
        valid: &[Triple],
    ) -> TrainReport {
        self.run(model, reader, valid)
    }

    /// The one training loop.
    pub(crate) fn run<M: ScoringModel + Sync, S: TrainSource>(
        mut self,
        model: &mut M,
        source: &S,
        valid: &[Triple],
    ) -> TrainReport {
        let cfg = self.cfg;
        let n = source.num_targets();
        assert!(n > 0, "no training targets");
        assert!(cfg.batch_size > 0, "batch_size must be positive");
        let take = if cfg.max_samples_per_epoch > 0 { n.min(cfg.max_samples_per_epoch) } else { n };
        let sampler = source.sampler();
        let radius = model.context_radius();
        let pool = ThreadPool::new(cfg.threads);
        let mut adam = Adam::new(cfg.lr);
        let mut report = TrainReport::default();
        let mut best_acc = f32::NEG_INFINITY;
        let mut best_store = model.param_store().clone();
        let mut since_best = 0usize;
        let mut cb = self.callback.take();
        let mut emit = move |ev: TrainEvent| {
            if let Some(f) = cb.as_mut() {
                f(&ev);
            }
        };

        let mut start_epoch = 0usize;
        if let Some(ck) = self.resume.take() {
            assert!(
                ck.seed == cfg.seed,
                "checkpoint was written under seed {} but the config says {}; resuming under a \
                 different seed cannot reproduce the interrupted run",
                ck.seed,
                cfg.seed
            );
            check_resume_params(model.param_store(), &ck.params);
            adam.lr = ck.adam_lr;
            adam.restore_state(AdamState { t: ck.adam_t, m: ck.adam_m, v: ck.adam_v });
            best_acc = ck.best_acc;
            since_best = ck.since_best;
            best_store = ck.best_params;
            report.best_epoch = ck.best_epoch;
            report.epoch_losses = ck.epoch_losses;
            report.valid_accuracy = ck.valid_accuracy;
            report.skipped_batches = ck.skipped_batches;
            *model.param_store_mut() = ck.params;
            start_epoch = ck.next_epoch;
            report.resumed_from = Some(start_epoch);
            emit(TrainEvent::Resumed { epoch: start_epoch });
        }

        let metrics = trainer_metrics();
        'epochs: for epoch in start_epoch..cfg.epochs {
            let epoch_start = Instant::now();
            // A checkpoint can be written with the patience budget already
            // exhausted (the run stops right after saving it); a resume from
            // such a checkpoint must stop here too, not train further.
            if cfg.patience > 0 && since_best >= cfg.patience {
                break;
            }
            let order = source.epoch_order(mix_seed(cfg.seed, rng_stream::SHUFFLE, epoch as u64));

            let mut epoch_loss = 0.0f64;
            let mut counted = 0usize;
            model.param_store_mut().zero_grad();
            for (batch_idx, base) in (0..take).step_by(cfg.batch_size).enumerate() {
                let batch_len = cfg.batch_size.min(take - base);
                // Fan the batch out: each worker reuses one tape across its
                // shard and returns (loss, gradient buffer) per sample. The
                // model and source are only read.
                let results: Result<Vec<(f32, GradBuffer)>, PoolError> = {
                    let model: &M = model;
                    pool.try_map_init(batch_len, Tape::new, |tape, i| {
                        let pos = source.target(&order, base + i);
                        let mut rng = StdRng::seed_from_u64(mix_seed(
                            cfg.seed,
                            rng_stream::TRAIN,
                            sample_key(epoch, base + i),
                        ));
                        let neg = source.corrupt(&sampler, pos, &mut rng);
                        tape.reset();
                        let forward_start = Instant::now();
                        let sp = source.with_graph(pos, radius, |g| {
                            model.score_on_tape(tape, g, pos, Mode::Train, &mut rng)
                        });
                        let sn = source.with_graph(neg, radius, |g| {
                            model.score_on_tape(tape, g, neg, Mode::Train, &mut rng)
                        });
                        let loss = margin_ranking_loss(tape, sp, sn, cfg.margin);
                        metrics.forward.record_duration(forward_start.elapsed());
                        let mut buf = GradBuffer::new();
                        let backward_start = Instant::now();
                        rmpi_runtime::with_scratch(|scratch: &mut BackwardScratch| {
                            tape.backward_into_with(loss, scratch, &mut buf);
                        });
                        metrics.backward.record_duration(backward_start.elapsed());
                        (failpoint::nan32(LOSS_FAILPOINT, tape.value(loss).item()), buf)
                    })
                };
                let results = match results {
                    Ok(r) => r,
                    Err(e) => {
                        // A panicking worker (a failed store read included)
                        // poisons only its batch: drop any partial gradients
                        // and keep training.
                        report.skipped_batches += 1;
                        metrics.batches_failed.inc();
                        metrics.batches.inc();
                        model.param_store_mut().zero_grad();
                        emit(TrainEvent::BatchFailed {
                            epoch,
                            batch: batch_idx,
                            message: e.to_string(),
                        });
                        emit(TrainEvent::BatchEnd { epoch, batch: batch_idx });
                        continue;
                    }
                };
                // Ordered reduce: fold per-sample buffers into the store in
                // sample-index order — the same addition sequence as the
                // sequential loop, hence bit-identical parameters.
                for (_, buf) in &results {
                    buf.add_to(model.param_store_mut());
                }
                maybe_poison_grads(model.param_store_mut());
                let batch_loss: f64 = results.iter().map(|(l, _)| *l as f64).sum();
                let losses_finite = results.iter().all(|(l, _)| l.is_finite());
                let grad_norm = model.param_store().grad_norm();
                metrics.samples.add(results.len() as u64);
                if losses_finite && grad_norm.is_finite() {
                    epoch_loss += batch_loss;
                    counted += results.len();
                    step(model, &mut adam, &cfg, batch_len);
                } else {
                    metrics.nonfinite.inc();
                    emit(TrainEvent::NonFinite {
                        epoch,
                        batch: batch_idx,
                        loss: batch_loss as f32,
                        grad_norm,
                    });
                    match cfg.divergence {
                        DivergencePolicy::SkipBatch => {
                            report.skipped_batches += 1;
                            metrics.batches_skipped.inc();
                            model.param_store_mut().zero_grad();
                            emit(TrainEvent::BatchSkipped { epoch, batch: batch_idx });
                        }
                        DivergencePolicy::Abort => {
                            report.aborted = true;
                            emit(TrainEvent::Aborted { epoch, batch: batch_idx });
                            break 'epochs;
                        }
                    }
                }
                metrics.batches.inc();
                emit(TrainEvent::BatchEnd { epoch, batch: batch_idx });
            }
            let mean_loss = if counted == 0 { 0.0 } else { (epoch_loss / counted as f64) as f32 };
            report.epoch_losses.push(mean_loss);

            let validation_start = Instant::now();
            let acc = match validation_accuracy(
                model,
                source,
                &sampler,
                valid,
                &cfg,
                &pool,
                epoch as u64,
            ) {
                Ok(acc) => acc,
                Err(e) => {
                    emit(TrainEvent::ValidationFailed { epoch, message: e.to_string() });
                    0.0
                }
            };
            metrics.validation.record_duration(validation_start.elapsed());
            report.valid_accuracy.push(acc);
            if acc > best_acc {
                best_acc = acc;
                best_store = model.param_store().clone();
                report.best_epoch = epoch;
                since_best = 0;
            } else {
                since_best += 1;
            }

            if let Some(dir) = &self.checkpoint {
                let checkpoint_start = Instant::now();
                let state = adam.export_state();
                let snapshot = TrainCheckpoint {
                    next_epoch: epoch + 1,
                    seed: cfg.seed,
                    adam_lr: adam.lr,
                    adam_t: state.t,
                    adam_m: state.m,
                    adam_v: state.v,
                    best_epoch: report.best_epoch,
                    best_acc,
                    since_best,
                    epoch_losses: report.epoch_losses.clone(),
                    valid_accuracy: report.valid_accuracy.clone(),
                    skipped_batches: report.skipped_batches,
                    params: model.param_store().clone(),
                    best_params: best_store.clone(),
                };
                match save_checkpoint(dir, &snapshot) {
                    Ok(path) => {
                        emit(TrainEvent::CheckpointSaved { epoch, path });
                        crate::checkpoint::prune_checkpoints(dir);
                    }
                    Err(e) => emit(TrainEvent::CheckpointFailed { epoch, message: e.to_string() }),
                }
                metrics.checkpoint_write.record_duration(checkpoint_start.elapsed());
            }

            metrics.epochs.inc();
            metrics.epoch.record_duration(epoch_start.elapsed());
            emit(TrainEvent::EpochEnd { epoch, loss: mean_loss, accuracy: acc });
            if cfg.patience > 0 && since_best >= cfg.patience {
                break;
            }
        }
        *model.param_store_mut() = best_store;
        report
    }
}

/// A resumed model must agree with the checkpoint on every parameter it
/// created at construction time — same name, same dense index (gradient
/// buffers reduce by index), same shape. The checkpoint may hold *extra*
/// parameters the original run created lazily; they ride along untouched.
fn check_resume_params(fresh: &ParamStore, loaded: &ParamStore) {
    assert!(
        loaded.len() >= fresh.len(),
        "checkpoint holds {} parameters but the model defines {}; \
         was it written by a different model configuration?",
        loaded.len(),
        fresh.len()
    );
    for id in fresh.ids() {
        let name = fresh.name(id);
        let lid =
            loaded.get(name).unwrap_or_else(|| panic!("checkpoint is missing parameter {name:?}"));
        assert!(
            lid == id,
            "parameter {name:?} sits at index {} in the checkpoint but {} in the model; \
         parameter creation order must match for resume to be exact",
            lid.index(),
            id.index()
        );
        assert!(
            loaded.value(lid).shape() == fresh.value(id).shape(),
            "parameter {name:?} has shape {:?} in the checkpoint but {:?} in the model",
            loaded.value(lid).shape(),
            fresh.value(id).shape()
        );
    }
}

/// Inject a NaN into the first gradient entry when the `trainer::grad`
/// failpoint is armed with the `nan` action (no-op in production: one relaxed
/// atomic load).
fn maybe_poison_grads(store: &mut ParamStore) {
    if matches!(failpoint::check(GRAD_FAILPOINT), Some(failpoint::Action::Nan)) {
        if let Some(id) = store.ids().next() {
            let mut poison = Tensor::zeros(store.grad(id).shape());
            poison.data_mut()[0] = f32::NAN;
            store.accumulate_grad(id, &poison);
        }
    }
}

fn step<M: ScoringModel>(model: &mut M, adam: &mut Adam, cfg: &TrainConfig, batch_len: usize) {
    let step_start = Instant::now();
    let store = model.param_store_mut();
    // average over the batch
    store.scale_grads(1.0 / batch_len as f32);
    if cfg.grad_clip > 0.0 {
        let norm = store.grad_norm();
        if norm > cfg.grad_clip {
            store.scale_grads(cfg.grad_clip / norm);
        }
    }
    adam.step(store);
    store.zero_grad();
    trainer_metrics().optim_step.record_duration(step_start.elapsed());
}

/// Pairwise ranking accuracy on validation triples: fraction where the
/// positive outscores one corrupted negative. Returns 0 when `valid` is
/// empty (every epoch ties and the last snapshot wins). Worker panics
/// surface as `Err` — the trainer records the epoch as accuracy 0 rather
/// than dying.
///
/// Candidate scoring fans out over the pool; each win is an integer, so the
/// sum is order-independent and the result thread-count-invariant.
fn validation_accuracy<M: ScoringModel + Sync, S: TrainSource>(
    model: &M,
    source: &S,
    sampler: &NegativeSampler,
    valid: &[Triple],
    cfg: &TrainConfig,
    pool: &ThreadPool,
    epoch: u64,
) -> Result<f32, PoolError> {
    if valid.is_empty() {
        return Ok(0.0);
    }
    let mut subset: Vec<Triple> = valid.to_vec();
    let mut shuffle_rng =
        StdRng::seed_from_u64(mix_seed(cfg.seed, rng_stream::VALID_SHUFFLE, epoch));
    subset.shuffle(&mut shuffle_rng);
    if cfg.max_valid_samples > 0 {
        subset.truncate(cfg.max_valid_samples);
    }
    let radius = model.context_radius();
    let wins: u32 = pool
        .try_map_indexed(subset.len(), |i| {
            let pos = subset[i];
            let mut rng = StdRng::seed_from_u64(mix_seed(
                cfg.seed,
                rng_stream::VALID,
                sample_key(epoch as usize, i),
            ));
            let neg = source.corrupt(sampler, pos, &mut rng);
            let sp = source.with_graph(pos, radius, |g| model.score(g, pos, &mut rng));
            let sn = source.with_graph(neg, radius, |g| model.score(g, neg, &mut rng));
            u32::from(sp > sn)
        })?
        .iter()
        .sum();
    Ok(wins as f32 / subset.len() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RmpiConfig;
    use crate::model::RmpiModel;
    use crate::stream::IndexPermutation;
    use crate::test_common::{tiny_data, tiny_store};
    use std::cell::RefCell;

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let (graph, targets, valid) = tiny_data();
        let mut model =
            RmpiModel::new(RmpiConfig { dim: 16, edge_dropout: 0.2, ..Default::default() }, 8, 0);
        let cfg = TrainConfig {
            epochs: 4,
            max_samples_per_epoch: 250,
            max_valid_samples: 80,
            patience: 0,
            seed: 1,
            ..Default::default()
        };
        let report = Trainer::new(cfg).train(&mut model, &graph, &targets, &valid);
        assert_eq!(report.epoch_losses.len(), 4);
        assert!(
            report.epoch_losses.last().unwrap() < report.epoch_losses.first().unwrap(),
            "loss should drop: {:?}",
            report.epoch_losses
        );
        assert!(
            report.best_accuracy() > 0.6,
            "trained model should beat chance on validation: {:?}",
            report.valid_accuracy
        );
        assert_eq!(report.skipped_batches, 0);
        assert!(!report.aborted);
    }

    #[test]
    fn early_stopping_respects_patience() {
        let (graph, targets, valid) = tiny_data();
        let mut model = RmpiModel::new(RmpiConfig { dim: 8, ..Default::default() }, 8, 2);
        let cfg = TrainConfig {
            epochs: 50,
            max_samples_per_epoch: 40,
            max_valid_samples: 30,
            patience: 2,
            seed: 2,
            ..Default::default()
        };
        let report = Trainer::new(cfg).train(&mut model, &graph, &targets, &valid);
        assert!(report.epoch_losses.len() < 50, "patience should stop early");
    }

    #[test]
    fn best_params_are_restored() {
        let (graph, targets, valid) = tiny_data();
        let mut model = RmpiModel::new(RmpiConfig { dim: 8, ..Default::default() }, 8, 3);
        let cfg = TrainConfig {
            epochs: 3,
            max_samples_per_epoch: 60,
            max_valid_samples: 40,
            patience: 0,
            seed: 3,
            ..Default::default()
        };
        let report = Trainer::new(cfg).train(&mut model, &graph, &targets, &valid);
        // re-evaluating with restored params reproduces the best epoch's accuracy signal
        let source =
            MemorySource { graph: &graph, csr: CsrGraph::from_graph(&graph), targets: &targets };
        let acc = validation_accuracy(
            &model,
            &source,
            &source.sampler(),
            &valid,
            &cfg,
            &ThreadPool::sequential(),
            99,
        )
        .unwrap();
        assert!(
            acc >= report.best_accuracy() - 0.25,
            "restored accuracy {acc} far below best {}",
            report.best_accuracy()
        );
    }

    #[test]
    #[should_panic(expected = "no training targets")]
    fn empty_targets_rejected() {
        let (graph, _, _) = tiny_data();
        let mut model = RmpiModel::new(RmpiConfig::default(), 8, 0);
        Trainer::new(TrainConfig::default()).train(&mut model, &graph, &[], &[]);
    }

    #[test]
    fn callback_sees_batches_and_epochs() {
        let (graph, targets, valid) = tiny_data();
        let mut model = RmpiModel::new(RmpiConfig { dim: 8, ..Default::default() }, 8, 4);
        let cfg = TrainConfig {
            epochs: 2,
            max_samples_per_epoch: 32,
            max_valid_samples: 20,
            patience: 0,
            seed: 4,
            ..Default::default()
        };
        let events: RefCell<Vec<TrainEvent>> = RefCell::new(Vec::new());
        let report = Trainer::new(cfg)
            .on_event(|ev| events.borrow_mut().push(ev.clone()))
            .train(&mut model, &graph, &targets, &valid);
        let events = events.into_inner();
        let epoch_ends = events.iter().filter(|e| matches!(e, TrainEvent::EpochEnd { .. })).count();
        let batch_ends = events.iter().filter(|e| matches!(e, TrainEvent::BatchEnd { .. })).count();
        assert_eq!(epoch_ends, 2);
        // 32 samples at batch 16 = 2 batches per epoch
        assert_eq!(batch_ends, 4);
        assert_eq!(report.epoch_losses.len(), 2);
        assert!(
            !events.iter().any(|e| matches!(e, TrainEvent::CheckpointSaved { .. })),
            "no checkpointing configured"
        );
    }

    /// The RAM source made to visit its targets the way the store does: the
    /// sorted record order under the store's [`IndexPermutation`].
    struct RecordOrder<'a>(MemorySource<'a>);

    impl TrainSource for RecordOrder<'_> {
        type Order = IndexPermutation;

        fn num_targets(&self) -> usize {
            self.0.num_targets()
        }

        fn epoch_order(&self, seed: u64) -> IndexPermutation {
            IndexPermutation::new(self.0.targets.len() as u64, seed)
        }

        fn target(&self, order: &IndexPermutation, pos: usize) -> Triple {
            self.0.targets[order.apply(pos as u64) as usize]
        }

        fn sampler(&self) -> NegativeSampler {
            self.0.sampler()
        }

        fn corrupt(&self, sampler: &NegativeSampler, pos: Triple, rng: &mut StdRng) -> Triple {
            self.0.corrupt(sampler, pos, rng)
        }

        fn with_graph<R>(
            &self,
            target: Triple,
            radius: usize,
            f: impl FnOnce(&dyn GraphAccess) -> R,
        ) -> R {
            self.0.with_graph(target, radius, f)
        }
    }

    /// Store == memory, for training and validation alike: given the same
    /// visiting order the two sources must be indistinguishable to the loop.
    #[test]
    fn store_source_trains_bit_identically_to_memory_in_record_order() {
        let (graph, _, valid) = tiny_data();
        let (dir, reader) = tiny_store("oracle");
        let mut records = graph.triples().to_vec();
        records.sort_unstable();
        let memory = RecordOrder(MemorySource {
            graph: &graph,
            csr: CsrGraph::from_graph(&graph),
            targets: &records,
        });
        let cfg = TrainConfig {
            epochs: 2,
            max_samples_per_epoch: 64,
            max_valid_samples: 50,
            patience: 0,
            seed: 11,
            ..Default::default()
        };
        let mk =
            || RmpiModel::new(RmpiConfig { dim: 8, edge_dropout: 0.2, ..Default::default() }, 8, 3);

        let mut from_memory = mk();
        let in_memory = Trainer::new(cfg).run(&mut from_memory, &memory, &valid);
        let mut from_store = mk();
        let on_disk = Trainer::new(cfg).train_store(&mut from_store, &reader, &valid);

        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&in_memory.epoch_losses), bits(&on_disk.epoch_losses));
        assert_eq!(bits(&in_memory.valid_accuracy), bits(&on_disk.valid_accuracy));
        assert_eq!(in_memory.valid_accuracy.len(), 2);
        let (a, b) = (from_memory.param_store(), from_store.param_store());
        assert_eq!(a.len(), b.len());
        for id in a.ids() {
            assert_eq!(bits(a.value(id).data()), bits(b.value(id).data()), "{:?}", a.name(id));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
