//! Criterion bench: data-parallel training throughput.
//!
//! Trains one epoch of the base RMPI model with the worker-pool thread count
//! swept over 1/2/4/8. Per-sample gradients are reduced in index order, so
//! every thread count produces bit-identical parameters — the sweep measures
//! pure wall-clock scaling of the sharded minibatch pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rmpi_core::{RmpiConfig, RmpiModel, TrainConfig, Trainer};
use rmpi_datasets::{build_benchmark, Scale};

fn bench_train_epoch(c: &mut Criterion) {
    let b = build_benchmark("nell.v1", Scale::Quick);
    let num_rel = b.num_relations();

    let mut group = c.benchmark_group("train_epoch_parallel");
    for &threads in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |bench, &threads| {
                bench.iter(|| {
                    let cfg = TrainConfig {
                        epochs: 1,
                        batch_size: 16,
                        max_samples_per_epoch: 96,
                        max_valid_samples: 8,
                        patience: 0,
                        seed: 1,
                        threads,
                        ..Default::default()
                    };
                    let mut model =
                        RmpiModel::new(RmpiConfig { dim: 12, ..RmpiConfig::base() }, num_rel, 1);
                    Trainer::new(cfg)
                        .train(&mut model, &b.train.graph, &b.train.targets, &b.train.valid)
                        .epoch_losses
                        .len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_train_epoch);
criterion_main!(benches);
