//! Thread-count invariance: training with 1 worker and with 4 workers must
//! produce *bit-identical* parameters and reports, whichever source the loop
//! is fed (in-memory graph or on-disk store). This is the contract the
//! data-parallel engine promises (DESIGN.md, "Threading model") — per-sample
//! RNG streams plus ordered gradient reduction make the schedule invisible.

mod common;

use common::{for_each_source, Source};
use rmpi_core::{RmpiConfig, RmpiModel, ScoringModel, TrainConfig, TrainReport, Trainer};
use rmpi_kg::Triple;

fn train_with(source: &Source<'_>, valid: &[Triple], threads: usize) -> (RmpiModel, TrainReport) {
    let mut model =
        RmpiModel::new(RmpiConfig { dim: 10, edge_dropout: 0.2, ..Default::default() }, 8, 42);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 8,
        max_samples_per_epoch: 120,
        max_valid_samples: 40,
        patience: 0,
        seed: 7,
        threads,
        ..Default::default()
    };
    let report = source.train(Trainer::new(cfg), &mut model, valid);
    (model, report)
}

#[test]
fn thread_count_does_not_change_results() {
    for_each_source("determinism-4", |source, valid| {
        let (m1, r1) = train_with(source, valid, 1);
        let (m4, r4) = train_with(source, valid, 4);
        let what = source.name();

        assert_eq!(r1.epoch_losses, r4.epoch_losses, "{what}: epoch losses must match bit-for-bit");
        assert_eq!(r1.valid_accuracy, r4.valid_accuracy, "{what}: validation accuracies");
        assert_eq!(r1.best_epoch, r4.best_epoch, "{what}");

        let (s1, s4) = (m1.param_store(), m4.param_store());
        assert_eq!(s1.len(), s4.len());
        for id in s1.ids() {
            assert_eq!(
                s1.value(id).data(),
                s4.value(id).data(),
                "{what}: parameter {:?} diverged between 1 and 4 threads",
                s1.name(id)
            );
        }
    });
}

#[test]
fn zero_threads_resolves_to_all_cores_and_stays_deterministic() {
    for_each_source("determinism-0", |source, valid| {
        let (m1, r1) = train_with(source, valid, 1);
        let (m0, r0) = train_with(source, valid, 0);
        assert_eq!(r1.epoch_losses, r0.epoch_losses, "{}", source.name());
        for id in m1.param_store().ids() {
            assert_eq!(m1.param_store().value(id).data(), m0.param_store().value(id).data());
        }
    });
}
