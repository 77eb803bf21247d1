//! Divergence-guard and panic-isolation behaviour under injected faults —
//! numerical, worker panics, checkpoint writes, and a store that fails reads.
//!
//! Every test arms global failpoints, so each takes the process-wide
//! `failpoint::exclusive()` lock for its whole body — they serialise against
//! each other, and running them in their own test binary keeps the armed
//! failpoints away from the ordinary unit tests.

mod common;

use common::{for_each_source, tiny_data, tiny_store};
use rmpi_core::trainer::{Trainer, GRAD_FAILPOINT, LOSS_FAILPOINT};
use rmpi_core::{
    latest_checkpoint, load_checkpoint, DivergencePolicy, RmpiConfig, RmpiModel, ScoringModel,
    TrainConfig, TrainEvent,
};
use rmpi_store::{ReadMode, RetryConfig, StoreOptions, StoreReader};
use rmpi_testutil::chaosfile::ChaosFileConfig;
use rmpi_testutil::failpoint::{self, Action};
use std::cell::RefCell;
use std::path::PathBuf;

fn fresh_model() -> RmpiModel {
    RmpiModel::new(RmpiConfig { dim: 8, ..Default::default() }, 8, 31)
}

fn train_cfg(divergence: DivergencePolicy) -> TrainConfig {
    TrainConfig {
        epochs: 2,
        batch_size: 16,
        max_samples_per_epoch: 48,
        max_valid_samples: 20,
        patience: 0,
        seed: 41,
        threads: 2,
        divergence,
        ..Default::default()
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rmpi-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn nan_loss_under_skip_batch_drops_the_batch_and_training_survives() {
    let _lock = failpoint::exclusive();
    let (graph, targets, valid) = tiny_data();
    let mut model = fresh_model();
    // every sample of the first batch reports a NaN loss; the callback
    // disarms after the guard fires once, so the rest of the run is healthy
    failpoint::arm(LOSS_FAILPOINT, Action::Nan);
    let events: RefCell<Vec<TrainEvent>> = RefCell::new(Vec::new());
    let report = Trainer::new(train_cfg(DivergencePolicy::SkipBatch))
        .on_event(|ev| {
            if matches!(ev, TrainEvent::BatchSkipped { .. }) {
                failpoint::disarm(LOSS_FAILPOINT);
            }
            events.borrow_mut().push(ev.clone());
        })
        .train(&mut model, &graph, &targets, &valid);
    failpoint::disarm_all();

    assert_eq!(report.skipped_batches, 1, "exactly one poisoned batch");
    assert_eq!(report.epoch_losses.len(), 2, "training must run to completion");
    assert!(report.epoch_losses.iter().all(|l| l.is_finite()), "{:?}", report.epoch_losses);
    assert!(model
        .param_store()
        .ids()
        .all(|id| { model.param_store().value(id).data().iter().all(|x| x.is_finite()) }));
    let events = events.into_inner();
    assert!(events.iter().any(|e| matches!(
        e,
        TrainEvent::NonFinite { epoch: 0, batch: 0, loss, .. } if loss.is_nan()
    )));
}

#[test]
fn nan_grads_under_skip_batch_drop_the_batch() {
    let _lock = failpoint::exclusive();
    for_each_source("grads", |source, valid| {
        let mut model = fresh_model();
        // the losses stay finite; only the folded gradient of the first batch
        // is poisoned, so the guard fires on the gradient norm
        failpoint::arm(GRAD_FAILPOINT, Action::Nan);
        let events: RefCell<Vec<TrainEvent>> = RefCell::new(Vec::new());
        let trainer = Trainer::new(train_cfg(DivergencePolicy::SkipBatch)).on_event(|ev| {
            if matches!(ev, TrainEvent::BatchSkipped { .. }) {
                failpoint::disarm(GRAD_FAILPOINT);
            }
            events.borrow_mut().push(ev.clone());
        });
        let report = source.train(trainer, &mut model, valid);
        failpoint::disarm_all();

        let what = source.name();
        assert_eq!(report.skipped_batches, 1, "{what}: exactly one poisoned batch");
        assert_eq!(report.epoch_losses.len(), 2, "{what}: training must run to completion");
        let events = events.into_inner();
        assert!(
            events.iter().any(|e| matches!(
                e,
                TrainEvent::NonFinite { epoch: 0, batch: 0, loss, grad_norm }
                    if loss.is_finite() && !grad_norm.is_finite()
            )),
            "{what}: the guard must name the non-finite gradient norm"
        );
        assert!(
            model.param_store().ids().all(|id| model
                .param_store()
                .value(id)
                .data()
                .iter()
                .all(|x| x.is_finite())),
            "{what}: the poisoned gradient never reached the parameters"
        );
    });
}

#[test]
fn abort_policy_stops_training_immediately() {
    let _lock = failpoint::exclusive();
    for_each_source("abort", |source, valid| {
        let mut model = fresh_model();
        failpoint::arm(LOSS_FAILPOINT, Action::Nan);
        let report =
            source.train(Trainer::new(train_cfg(DivergencePolicy::Abort)), &mut model, valid);
        failpoint::disarm_all();

        let what = source.name();
        assert!(report.aborted, "{what}");
        assert!(
            report.epoch_losses.is_empty(),
            "{what}: aborted in the first batch, before any epoch ended"
        );
        assert_eq!(report.skipped_batches, 0, "{what}");
    });
}

#[test]
fn worker_panic_fails_only_its_batch() {
    let _lock = failpoint::exclusive();
    let (graph, targets, valid) = tiny_data();
    let mut model = fresh_model();
    failpoint::arm(
        rmpi_runtime::pool::SHARD_FAILPOINT,
        Action::Panic("injected worker crash".into()),
    );
    let events: RefCell<Vec<TrainEvent>> = RefCell::new(Vec::new());
    let report = Trainer::new(train_cfg(DivergencePolicy::SkipBatch))
        .on_event(|ev| {
            if matches!(ev, TrainEvent::BatchFailed { .. }) {
                failpoint::disarm(rmpi_runtime::pool::SHARD_FAILPOINT);
            }
            events.borrow_mut().push(ev.clone());
        })
        .train(&mut model, &graph, &targets, &valid);
    failpoint::disarm_all();

    assert_eq!(report.skipped_batches, 1, "the panicking batch is dropped, nothing else");
    assert_eq!(report.epoch_losses.len(), 2, "training survives the worker panic");
    let events = events.into_inner();
    assert!(
        events.iter().any(|e| matches!(
            e,
            TrainEvent::BatchFailed { epoch: 0, batch: 0, message } if message.contains("injected worker crash")
        )),
        "the panic message must surface in the event"
    );
}

/// A flaky disk under the store source: with one read attempt and a one-block
/// cache, a share of the positioned reads fail all through the run. Each
/// failure must cost exactly its batch, and loudly: dropped silently, a store
/// that fails every read would "train" to the end.
#[test]
fn store_read_failure_fails_only_its_batch_and_names_the_error() {
    let _lock = failpoint::exclusive();
    let (_, _, valid) = tiny_data();
    let (dir, _clean) = tiny_store("read-fault");
    let opts = StoreOptions {
        mode: ReadMode::Stream { cache_blocks: 1 },
        retry: RetryConfig { attempts: 1, ..RetryConfig::default() },
        chaos: Some(ChaosFileConfig {
            seed: 3,
            transient_rate: 0.002,
            delay: std::time::Duration::ZERO,
            ..ChaosFileConfig::default()
        }),
    };
    let flaky = StoreReader::open_opts(&dir, opts, rmpi_obs::global()).unwrap();
    // one worker: the chaos file's decisions are keyed by call order
    let cfg = TrainConfig { batch_size: 8, threads: 1, ..train_cfg(DivergencePolicy::SkipBatch) };
    let failed_before = rmpi_obs::global().counter("trainer.batches_failed.count").get();
    let mut model = fresh_model();
    let untrained = model.param_store().clone();
    let outcomes: RefCell<Vec<Option<String>>> = RefCell::new(Vec::new());
    let failure: RefCell<Option<String>> = RefCell::new(None);
    let report = Trainer::new(cfg)
        .on_event(|ev| match ev {
            TrainEvent::BatchFailed { message, .. } => {
                *failure.borrow_mut() = Some(message.clone())
            }
            TrainEvent::BatchEnd { .. } => outcomes.borrow_mut().push(failure.borrow_mut().take()),
            _ => {}
        })
        .train_store(&mut model, &flaky, &valid);

    // per batch, in order: the failure message, or `None` for a clean one
    let outcomes = outcomes.into_inner();
    assert_eq!(outcomes.len(), 12, "2 epochs of 48 samples at batch 8: {outcomes:?}");
    let failed: Vec<&String> = outcomes.iter().flatten().collect();
    assert!(!failed.is_empty(), "no read drew a fault: the test exercised nothing");
    for message in &failed {
        assert!(
            message.contains("store read failed") && message.contains("store io error"),
            "the event must name the store error: {message}"
        );
    }
    assert_eq!(report.skipped_batches, failed.len());
    assert_eq!(
        rmpi_obs::global().counter("trainer.batches_failed.count").get() - failed_before,
        failed.len() as u64
    );
    let first_failure = outcomes.iter().position(Option::is_some).unwrap();
    assert!(
        outcomes[first_failure..].iter().any(Option::is_none),
        "clean batches after a failed one must still step: {outcomes:?}"
    );
    assert_eq!(report.epoch_losses.len(), 2, "training runs to completion");
    assert!(report.epoch_losses.iter().all(|l| l.is_finite() && *l > 0.0));
    let store = model.param_store();
    assert!(
        store.ids().any(|id| store.value(id).data() != untrained.value(id).data()),
        "the clean batches must have stepped the optimiser"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_write_failure_keeps_training_and_previous_checkpoint() {
    let _lock = failpoint::exclusive();
    let (graph, targets, valid) = tiny_data();
    let root = tmp_dir("ckfail");
    let mut model = fresh_model();
    let events: RefCell<Vec<TrainEvent>> = RefCell::new(Vec::new());
    // let epoch 0's checkpoint land, then fail every write during epoch 1's
    let report = Trainer::new(train_cfg(DivergencePolicy::SkipBatch))
        .with_checkpointing(&root)
        .on_event(|ev| {
            match ev {
                TrainEvent::CheckpointSaved { .. } => {
                    failpoint::arm(
                        rmpi_autograd::io::WRITE_FAILPOINT,
                        Action::IoError("checkpoint disk unplugged".into()),
                    );
                }
                TrainEvent::CheckpointFailed { .. } => {
                    failpoint::disarm(rmpi_autograd::io::WRITE_FAILPOINT);
                }
                _ => {}
            }
            events.borrow_mut().push(ev.clone());
        })
        .train(&mut model, &graph, &targets, &valid);
    failpoint::disarm_all();

    assert_eq!(report.epoch_losses.len(), 2, "a failed checkpoint must not stop training");
    let events = events.into_inner();
    assert!(events.iter().any(|e| matches!(e, TrainEvent::CheckpointSaved { epoch: 0, .. })));
    assert!(events.iter().any(|e| matches!(
        e,
        TrainEvent::CheckpointFailed { epoch: 1, message } if message.contains("disk unplugged")
    )));
    // LATEST still points at the complete epoch-0 checkpoint and it loads
    let dir = latest_checkpoint(&root).unwrap().expect("epoch 0 checkpoint survives");
    assert!(dir.ends_with("ckpt-000001"));
    assert_eq!(load_checkpoint(&dir).unwrap().next_epoch, 1);
    std::fs::remove_dir_all(&root).unwrap();
}
