//! Kill-and-resume pinning: a training run interrupted mid-epoch and resumed
//! from its last checkpoint must finish **bit-identical** to a run that was
//! never interrupted — at every thread count, over the in-memory source and
//! the store source alike.
//!
//! The interruption is a panic raised from the `TrainEvent::BatchEnd`
//! callback (the main training thread), which unwinds out of
//! `Trainer::train` exactly like a crash would: no teardown code runs, only
//! what was already durably checkpointed survives. One case repeats the
//! cycle with a real `SIGKILL` in a child process, where not even unwinding
//! or buffered writes of the dying process can help.

mod common;

use common::{for_each_source, tiny_data};
use rmpi_core::trainer::Trainer;
use rmpi_core::{
    latest_checkpoint, load_checkpoint, RmpiConfig, RmpiModel, ScoringModel, TrainConfig,
    TrainEvent, TrainReport,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

fn fresh_model() -> RmpiModel {
    RmpiModel::new(RmpiConfig { dim: 8, ..Default::default() }, 8, 11)
}

fn train_cfg(threads: usize) -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch_size: 16,
        max_samples_per_epoch: 48, // 3 batches per epoch
        max_valid_samples: 20,
        patience: 0,
        seed: 21,
        threads,
        ..Default::default()
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rmpi-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_params_identical(a: &RmpiModel, b: &RmpiModel, what: &str) {
    let (pa, pb) = (a.param_store(), b.param_store());
    assert_eq!(pa.len(), pb.len(), "{what}: parameter count");
    for (ia, ib) in pa.ids().zip(pb.ids()) {
        assert_eq!(pa.name(ia), pb.name(ib), "{what}: parameter order");
        assert_eq!(
            pa.value(ia).data(),
            pb.value(ib).data(),
            "{what}: parameter {:?} must be bit-identical",
            pa.name(ia)
        );
    }
}

fn assert_reports_match(full: &TrainReport, resumed: &TrainReport, what: &str) {
    assert_eq!(full.epoch_losses, resumed.epoch_losses, "{what}: epoch losses");
    assert_eq!(full.valid_accuracy, resumed.valid_accuracy, "{what}: validation accuracy");
    assert_eq!(full.best_epoch, resumed.best_epoch, "{what}: best epoch");
}

/// The optimiser state a run ended with, read back from its last checkpoint:
/// step count, learning rate and both moment vectors as bits.
fn final_adam_state(root: &Path) -> (u64, u32, Vec<Vec<u32>>) {
    let ck =
        load_checkpoint(latest_checkpoint(root).unwrap().expect("a final checkpoint")).unwrap();
    let moments = ck.adam_m.iter().chain(&ck.adam_v);
    let bits = moments.map(|t| t.data().iter().map(|x| x.to_bits()).collect()).collect();
    (ck.adam_t, ck.adam_lr.to_bits(), bits)
}

#[test]
fn kill_mid_epoch_then_resume_is_bit_identical() {
    for_each_source("crash-mid", |source, valid| {
        for threads in [1, 2, 4] {
            let cfg = train_cfg(threads);
            let what = format!("{} source, threads={threads}", source.name());

            // Reference: the run that never crashes.
            let full_root = tmp_dir(&format!("full-{}-{threads}", source.name()));
            let mut reference = fresh_model();
            let full = source.train(
                Trainer::new(cfg).with_checkpointing(&full_root),
                &mut reference,
                valid,
            );
            assert_eq!(full.epoch_losses.len(), 3);

            // Crashing run: checkpoint every epoch, die in the middle of epoch 1
            // (after epoch 0's checkpoint landed, with epoch 1 half done).
            let root = tmp_dir(&format!("mid-{}-{threads}", source.name()));
            let mut victim = fresh_model();
            let crashed = catch_unwind(AssertUnwindSafe(|| {
                let trainer = Trainer::new(cfg).with_checkpointing(&root).on_event(|ev| {
                    if let TrainEvent::BatchEnd { epoch: 1, batch: 1 } = ev {
                        panic!("simulated crash mid-epoch");
                    }
                });
                source.train(trainer, &mut victim, valid)
            }));
            assert!(crashed.is_err(), "the injected crash must unwind out of train()");
            let ckpt_dir = latest_checkpoint(&root)
                .unwrap()
                .expect("epoch 0 checkpoint must have been written before the crash");
            assert_eq!(load_checkpoint(&ckpt_dir).unwrap().next_epoch, 1);

            // Resume: a fresh process would construct the model the same way,
            // then continue from the newest checkpoint.
            let mut survivor = fresh_model();
            let resumed = source.train(
                Trainer::new(cfg).with_checkpointing(&root).resume_latest(&root).unwrap(),
                &mut survivor,
                valid,
            );

            assert_eq!(resumed.resumed_from, Some(1), "{what}");
            assert_reports_match(&full, &resumed, &what);
            assert_params_identical(&reference, &survivor, &what);
            assert_eq!(final_adam_state(&full_root), final_adam_state(&root), "{what}: Adam state");
            std::fs::remove_dir_all(&root).unwrap();
            std::fs::remove_dir_all(&full_root).unwrap();
        }
    });
}

/// Child-mode marker: when set, this test binary was re-executed to train
/// into the checkpoint root it names and `kill -9` itself mid-epoch-1.
const CHILD_ENV: &str = "RMPI_CRASH_RESUME_CHILD";

/// Inert in a normal run; see [`real_sigkill_mid_epoch_then_resume_is_bit_identical`].
#[test]
fn sigkill_child_entry() {
    let Ok(root) = std::env::var(CHILD_ENV) else { return };
    let (graph, targets, valid) = tiny_data();
    Trainer::new(train_cfg(2))
        .with_checkpointing(&root)
        .on_event(|ev| {
            if let TrainEvent::BatchEnd { epoch: 1, batch: 1 } = ev {
                // a genuine SIGKILL: no unwinding, no Drop, no flushes
                let pid = std::process::id().to_string();
                let _ = std::process::Command::new("kill").args(["-9", &pid]).status();
                std::process::abort(); // unreachable unless `kill` is missing
            }
        })
        .train(&mut fresh_model(), &graph, &targets, &valid);
    // surviving to here exits 0, which fails the parent's signal assertion
}

#[test]
fn real_sigkill_mid_epoch_then_resume_is_bit_identical() {
    use std::os::unix::process::ExitStatusExt;
    let (graph, targets, valid) = tiny_data();
    let cfg = train_cfg(2);
    let mut reference = fresh_model();
    let full = Trainer::new(cfg).train(&mut reference, &graph, &targets, &valid);

    // What the panic-based cases cannot show: nothing buffered in the dying
    // process is needed, only what `rename` made durable before the kill.
    let root = tmp_dir("sigkill");
    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["sigkill_child_entry", "--exact", "--test-threads=1"])
        .env(CHILD_ENV, &root)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn crash child");
    assert_eq!(status.signal(), Some(9), "the child must die of its own SIGKILL, got {status}");

    let mut survivor = fresh_model();
    let resumed = Trainer::new(cfg).resume_latest(&root).unwrap().train(
        &mut survivor,
        &graph,
        &targets,
        &valid,
    );
    assert_eq!(resumed.resumed_from, Some(1));
    assert_reports_match(&full, &resumed, "sigkill");
    assert_params_identical(&reference, &survivor, "sigkill");
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn crash_before_first_checkpoint_resumes_from_scratch() {
    let (graph, targets, valid) = tiny_data();
    let cfg = train_cfg(2);

    let mut reference = fresh_model();
    let full = Trainer::new(cfg).train(&mut reference, &graph, &targets, &valid);

    // Die during epoch 0: no checkpoint exists yet.
    let root = tmp_dir("scratch");
    let mut victim = fresh_model();
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        Trainer::new(cfg)
            .with_checkpointing(&root)
            .on_event(|ev| {
                if let TrainEvent::BatchEnd { epoch: 0, batch: 0 } = ev {
                    panic!("simulated crash before any checkpoint");
                }
            })
            .train(&mut victim, &graph, &targets, &valid)
    }));
    assert!(crashed.is_err());
    assert!(latest_checkpoint(&root).unwrap().is_none(), "no checkpoint should exist yet");

    // resume_latest on an empty root is a fresh start — still bit-identical.
    let mut survivor = fresh_model();
    let resumed = Trainer::new(cfg).resume_latest(&root).unwrap().train(
        &mut survivor,
        &graph,
        &targets,
        &valid,
    );
    assert_eq!(resumed.resumed_from, None);
    assert_reports_match(&full, &resumed, "from-scratch");
    assert_params_identical(&reference, &survivor, "from-scratch");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn resume_preserves_early_stopping_decision() {
    // A checkpoint written in the same epoch the patience budget runs out
    // must not train further when resumed: the resumed run stops at once and
    // restores the same best snapshot.
    let (graph, targets, valid) = tiny_data();
    let cfg = TrainConfig { epochs: 30, patience: 2, ..train_cfg(1) };

    let mut reference = fresh_model();
    let full = Trainer::new(cfg).train(&mut reference, &graph, &targets, &valid);
    let ran = full.epoch_losses.len();
    assert!(ran < 30, "patience must stop the reference run early");

    // Checkpointed run (uninterrupted) leaves its final checkpoint behind...
    let root = tmp_dir("patience");
    let mut victim = fresh_model();
    let checkpointed =
        Trainer::new(cfg).with_checkpointing(&root).train(&mut victim, &graph, &targets, &valid);
    assert_eq!(checkpointed.epoch_losses.len(), ran);

    // ...and a resume from it must refuse to run more epochs.
    let mut survivor = fresh_model();
    let resumed = Trainer::new(cfg).resume_latest(&root).unwrap().train(
        &mut survivor,
        &graph,
        &targets,
        &valid,
    );
    assert_eq!(resumed.epoch_losses.len(), ran, "resume must honour the exhausted patience");
    assert_reports_match(&full, &resumed, "patience");
    assert_params_identical(&reference, &survivor, "patience");
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn resume_under_wrong_seed_is_refused() {
    let (graph, targets, valid) = tiny_data();
    let cfg = train_cfg(1);
    let root = tmp_dir("seed");
    let mut model = fresh_model();
    Trainer::new(cfg).with_checkpointing(&root).train(&mut model, &graph, &targets, &valid);

    let bad = TrainConfig { seed: 99, ..cfg };
    let mut other = fresh_model();
    let err = catch_unwind(AssertUnwindSafe(|| {
        Trainer::new(bad).resume_latest(&root).unwrap().train(&mut other, &graph, &targets, &valid)
    }));
    let payload = err.unwrap_err();
    let msg = rmpi_runtime::panic_message(payload.as_ref());
    assert!(msg.contains("seed"), "refusal must name the seed mismatch: {msg}");
    std::fs::remove_dir_all(&root).unwrap();
}
