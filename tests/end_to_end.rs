//! Cross-crate integration: every model trains end-to-end on a generated
//! benchmark and learns something (beats chance on held-out validation).

use rmpi::baselines::common::BaselineConfig;
use rmpi::baselines::{CompileModel, GrailModel, MakerLiteModel, TactBaseModel, TactModel};
use rmpi::core::{RmpiConfig, RmpiModel, ScoringModel, TrainConfig, Trainer};
use rmpi::datasets::{build_benchmark, Benchmark, Scale};

fn benchmark() -> Benchmark {
    build_benchmark("nell.v1", Scale::Quick)
}

fn train_epochs<M: ScoringModel + Sync>(
    model: &mut M,
    b: &Benchmark,
    seed: u64,
    epochs: usize,
) -> f32 {
    let cfg = TrainConfig {
        epochs,
        max_samples_per_epoch: 250,
        max_valid_samples: 60,
        patience: 0,
        seed,
        ..Default::default()
    };
    let report = Trainer::new(cfg).train(model, &b.train.graph, &b.train.targets, &b.train.valid);
    report.best_accuracy()
}

fn quick_train<M: ScoringModel + Sync>(model: &mut M, b: &Benchmark, seed: u64) -> f32 {
    train_epochs(model, b, seed, 2)
}

#[test]
fn rmpi_variants_learn_above_chance() {
    let b = benchmark();
    for cfg in [
        RmpiConfig { dim: 12, ..RmpiConfig::base() },
        RmpiConfig { dim: 12, ..RmpiConfig::ne() },
        RmpiConfig { dim: 12, ..RmpiConfig::ta() },
        RmpiConfig { dim: 12, ..RmpiConfig::ne_ta() },
    ] {
        let mut model = RmpiModel::new(cfg, b.num_relations(), 1);
        let acc = quick_train(&mut model, &b, 1);
        assert!(acc > 0.55, "{} validation accuracy {acc} not above chance", model.name());
    }
}

#[test]
fn grail_learns_above_chance() {
    let b = benchmark();
    let mut model =
        GrailModel::new(BaselineConfig { dim: 12, ..Default::default() }, b.num_relations(), 2);
    // GraIL's loss falls more slowly than the other baselines on this quick
    // benchmark; give it one extra epoch to clear the above-chance bar.
    let acc = train_epochs(&mut model, &b, 2, 3);
    assert!(acc > 0.55, "GraIL validation accuracy {acc}");
}

#[test]
fn tact_models_learn_above_chance() {
    let b = benchmark();
    let mut base = TactBaseModel::new(12, 2, b.num_relations(), 3);
    let acc = quick_train(&mut base, &b, 3);
    assert!(acc > 0.55, "TACT-base validation accuracy {acc}");

    let mut full =
        TactModel::new(BaselineConfig { dim: 12, ..Default::default() }, b.num_relations(), 3);
    let acc = quick_train(&mut full, &b, 3);
    assert!(acc > 0.55, "TACT validation accuracy {acc}");
}

#[test]
fn compile_and_maker_learn_above_chance() {
    let b = benchmark();
    let mut compile =
        CompileModel::new(BaselineConfig { dim: 12, ..Default::default() }, b.num_relations(), 4);
    let acc = quick_train(&mut compile, &b, 4);
    assert!(acc > 0.55, "CoMPILE validation accuracy {acc}");

    let mut maker = MakerLiteModel::new(
        BaselineConfig { dim: 12, ..Default::default() },
        b.num_relations(),
        b.seen_relations.clone(),
        4,
    );
    let acc = quick_train(&mut maker, &b, 4);
    assert!(acc > 0.55, "MaKEr validation accuracy {acc}");
}

#[test]
fn trained_model_beats_untrained_on_test_graph() {
    use rmpi::eval::protocol::{evaluate, EvalConfig};
    let b = benchmark();
    let cfg = RmpiConfig { dim: 12, ..RmpiConfig::base() };
    let untrained = RmpiModel::new(cfg, b.num_relations(), 5);
    let mut trained = RmpiModel::new(cfg, b.num_relations(), 5);
    quick_train(&mut trained, &b, 5);

    let ec = EvalConfig { num_candidates: 15, max_targets: 60, seed: 9, ..Default::default() };
    let test = b.test("TE").unwrap();
    let m_untrained = evaluate(&untrained, test, &ec);
    let m_trained = evaluate(&trained, test, &ec);
    assert!(
        m_trained.mrr > m_untrained.mrr,
        "training should improve test MRR: {} vs {}",
        m_trained.mrr,
        m_untrained.mrr
    );
}
