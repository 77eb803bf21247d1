//! Multi-seed experiment runner: train a model per seed, evaluate on the
//! requested test sets, and average over seeds (the paper reports the mean
//! of 5 runs).

use crate::protocol::{evaluate, EvalConfig, EvalMetrics};
use rmpi_core::{ScoringModel, TrainConfig, Trainer};
use rmpi_datasets::Benchmark;
use rmpi_runtime::{resolve_threads, ThreadPool};
use std::collections::HashMap;

/// Builds a fresh model for one seed. The factory owns everything the model
/// needs (schema vectors, seen-relation sets, hyper-parameters). Models must
/// be `Sync` so training batches and candidate scoring can fan out across
/// worker threads.
pub type ModelFactory =
    Box<dyn Fn(u64, &Benchmark) -> Box<dyn ScoringModel + Send + Sync> + Send + Sync>;

/// The mean of the per-seed metrics (the paper reports the mean of 5 runs).
fn mean_over_seeds(per_seed: &[EvalMetrics]) -> EvalMetrics {
    let n = per_seed.len().max(1) as f64;
    let mut mean = EvalMetrics::default();
    for m in per_seed {
        mean.auc_pr += m.auc_pr / n;
        mean.mrr += m.mrr / n;
        mean.hits1 += m.hits1 / n;
        mean.hits10 += m.hits10 / n;
        mean.num_targets += m.num_targets / per_seed.len().max(1);
    }
    mean
}

/// Train and evaluate `factory`'s model on `benchmark` for each seed, on
/// every test set named in `test_names`, and return each test set's metrics
/// averaged over the seeds. Seeds run on parallel threads.
pub fn run_experiment(
    factory: &ModelFactory,
    benchmark: &Benchmark,
    test_names: &[&str],
    train_cfg: &TrainConfig,
    eval_cfg: &EvalConfig,
    seeds: &[u64],
) -> HashMap<String, EvalMetrics> {
    for &name in test_names {
        assert!(
            benchmark.test(name).is_some(),
            "benchmark {} has no test set {name:?}",
            benchmark.name
        );
    }
    // One worker per seed (seed counts are small). All seeds run
    // concurrently, so split each seed's inner training/eval thread budget
    // across them — otherwise `threads = 0` would spawn seeds × cores
    // workers and oversubscribe the CPU (results are thread-count-invariant,
    // so this only affects throughput, never numbers).
    let concurrent = seeds.len().max(1);
    let train_threads = (resolve_threads(train_cfg.threads) / concurrent).max(1);
    let eval_threads = (resolve_threads(eval_cfg.threads) / concurrent).max(1);
    let pool = ThreadPool::new(seeds.len());
    let runs: Vec<HashMap<String, EvalMetrics>> = pool.map_indexed(seeds.len(), |si| {
        let seed = seeds[si];
        let mut model = factory(seed, benchmark);
        let tc = TrainConfig {
            seed: train_cfg.seed.wrapping_add(seed),
            threads: train_threads,
            ..*train_cfg
        };
        Trainer::new(tc).train(
            &mut model,
            &benchmark.train.graph,
            &benchmark.train.targets,
            &benchmark.train.valid,
        );
        let mut out = HashMap::new();
        for &name in test_names {
            let test = benchmark
                .test(name)
                .unwrap_or_else(|| panic!("benchmark {} has no test set {name:?}", benchmark.name));
            let ec = EvalConfig {
                seed: eval_cfg.seed.wrapping_add(seed),
                threads: eval_threads,
                ..*eval_cfg
            };
            out.insert(name.to_owned(), evaluate(&model, test, &ec));
        }
        out
    });

    let mut means = HashMap::new();
    for &name in test_names {
        let per_seed: Vec<EvalMetrics> = runs.iter().map(|r| r[name]).collect();
        means.insert(name.to_owned(), mean_over_seeds(&per_seed));
    }
    means
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmpi_core::{RmpiConfig, RmpiModel};
    use rmpi_datasets::{build_benchmark, Scale};

    #[test]
    fn runner_trains_and_aggregates_two_seeds() {
        let b = build_benchmark("nell.v1", Scale::Quick);
        let num_rel = b.num_relations();
        let factory: ModelFactory = Box::new(move |seed, _b| {
            Box::new(RmpiModel::new(RmpiConfig { dim: 8, ..Default::default() }, num_rel, seed))
        });
        let train_cfg = TrainConfig {
            epochs: 1,
            max_samples_per_epoch: 60,
            max_valid_samples: 20,
            patience: 0,
            ..Default::default()
        };
        let eval_cfg =
            EvalConfig { num_candidates: 9, max_targets: 25, seed: 5, ..Default::default() };
        let out = run_experiment(&factory, &b, &["TE"], &train_cfg, &eval_cfg, &[0, 1]);
        let s = &out["TE"];
        // both seeds ran, and the result is their mean
        let one = |seed| run_experiment(&factory, &b, &["TE"], &train_cfg, &eval_cfg, &[seed]);
        let (a, c) = (one(0)["TE"], one(1)["TE"]);
        assert!((s.auc_pr - (a.auc_pr / 2.0 + c.auc_pr / 2.0)).abs() < 1e-9);
        assert!(s.auc_pr > 0.0 && s.auc_pr <= 100.0);
        assert!(s.hits10 >= s.hits1);
        assert!((s.hits10 - (a.hits10 / 2.0 + c.hits10 / 2.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "no test set")]
    fn unknown_test_set_panics() {
        let b = build_benchmark("nell.v1", Scale::Quick);
        let num_rel = b.num_relations();
        let factory: ModelFactory = Box::new(move |seed, _b| {
            Box::new(RmpiModel::new(RmpiConfig { dim: 8, ..Default::default() }, num_rel, seed))
        });
        run_experiment(
            &factory,
            &b,
            &["nope"],
            &TrainConfig { epochs: 1, max_samples_per_epoch: 5, ..Default::default() },
            &EvalConfig::default(),
            &[0],
        );
    }
}
