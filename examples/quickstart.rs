//! Quickstart: build an inductive benchmark, train RMPI, evaluate it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rmpi::prelude::*;

fn main() {
    // 1. A benchmark from the catalogue: NELL-995-like inductive split v1.
    //    The training and testing graphs share relations but have disjoint
    //    entity sets — the model must reason from structure alone.
    let benchmark = build_benchmark("nell.v1", Scale::Quick);
    println!(
        "benchmark {}: train graph {} triples, test graph {} triples, {} targets",
        benchmark.name,
        benchmark.train.graph.num_triples(),
        benchmark.tests[0].graph.num_triples(),
        benchmark.tests[0].targets.len(),
    );

    // 2. An RMPI model: relational message passing with the NE module.
    let cfg = RmpiConfig { dim: 16, ne: true, ..Default::default() };
    let mut model = RmpiModel::new(cfg, benchmark.num_relations(), 0);
    println!(
        "model: {} ({} weights)",
        ScoringModel::name(&model),
        model.param_store().num_weights()
    );

    // 3. Train with the paper's margin ranking loss and Adam.
    let train_cfg = TrainConfig { epochs: 3, max_samples_per_epoch: 400, ..Default::default() };
    let report = Trainer::new(train_cfg).train(
        &mut model,
        &benchmark.train.graph,
        &benchmark.train.targets,
        &benchmark.train.valid,
    );
    println!(
        "training: losses per epoch {:?}, best validation accuracy {:.3}",
        report.epoch_losses.iter().map(|l| (l * 100.0).round() / 100.0).collect::<Vec<_>>(),
        report.best_accuracy()
    );

    // 4. Evaluate on the unseen-entity testing graph.
    let eval_cfg =
        EvalConfig { num_candidates: 24, max_targets: 80, seed: 7, ..Default::default() };
    let metrics = evaluate(&model, &benchmark.tests[0], &eval_cfg);
    println!(
        "test metrics: AUC-PR {:.2}  MRR {:.2}  Hits@1 {:.2}  Hits@10 {:.2}  ({} targets)",
        metrics.auc_pr, metrics.mrr, metrics.hits1, metrics.hits10, metrics.num_targets
    );
}
