//! Multi-seed experiment runner: train a model per seed, evaluate on the
//! requested test sets, aggregate mean and standard deviation (the paper
//! reports the mean of 5 runs).

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

/// Per-test-set aggregation over seeds.
#[derive(Clone, Debug, Default)]
pub struct RunSummary {
    /// Metrics of each seed's run.
    pub per_seed: Vec<EvalMetrics>,
    /// Mean over seeds.
    pub mean: EvalMetrics,
    /// Standard deviation over seeds.
    pub std: EvalMetrics,
}

impl RunSummary {
    fn from_runs(per_seed: Vec<EvalMetrics>) -> Self {
        let n = per_seed.len().max(1) as f64;
        let mut mean = EvalMetrics::default();
        for m in &per_seed {
            mean.auc_pr += m.auc_pr / n;
            mean.mrr += m.mrr / n;
            mean.hits1 += m.hits1 / n;
            mean.hits10 += m.hits10 / n;
            mean.num_targets += m.num_targets / per_seed.len().max(1);
        }
        let mut std = EvalMetrics::default();
        if per_seed.len() > 1 {
            for m in &per_seed {
                std.auc_pr += (m.auc_pr - mean.auc_pr).powi(2) / (n - 1.0);
                std.mrr += (m.mrr - mean.mrr).powi(2) / (n - 1.0);
                std.hits1 += (m.hits1 - mean.hits1).powi(2) / (n - 1.0);
                std.hits10 += (m.hits10 - mean.hits10).powi(2) / (n - 1.0);
            }
            std.auc_pr = std.auc_pr.sqrt();
            std.mrr = std.mrr.sqrt();
            std.hits1 = std.hits1.sqrt();
            std.hits10 = std.hits10.sqrt();
        }
        RunSummary { per_seed, mean, std }
    }
}

/// Train and evaluate `factory`'s model on `benchmark` for each seed, on
/// every test set named in `test_names`. Seeds run on parallel threads.
pub fn run_experiment(
    factory: &ModelFactory,
    benchmark: &Benchmark,
    test_names: &[&str],
    train_cfg: &TrainConfig,
    eval_cfg: &EvalConfig,
    seeds: &[u64],
) -> HashMap<String, RunSummary> {
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

    let mut summaries = HashMap::new();
    for &name in test_names {
        let per_seed: Vec<EvalMetrics> = runs.iter().map(|r| r[name]).collect();
        summaries.insert(name.to_owned(), RunSummary::from_runs(per_seed));
    }
    summaries
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
        assert_eq!(s.per_seed.len(), 2);
        assert!(s.mean.auc_pr > 0.0 && s.mean.auc_pr <= 100.0);
        assert!(s.mean.hits10 >= s.mean.hits1);
        assert!(s.std.auc_pr >= 0.0);
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
