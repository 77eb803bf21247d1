//! Cross-crate integration for the fully inductive setting: unseen
//! relations are scorable, and schema enhancement recovers signal in the
//! fully-unseen test graphs (the paper's headline claim).

use rmpi::core::config::RelationInit;
use rmpi::core::{RmpiConfig, RmpiModel, TrainConfig, Trainer};
use rmpi::datasets::{build_benchmark, Scale};
use rmpi::eval::onto::schema_vectors;
use rmpi::eval::protocol::{evaluate, EvalConfig};

#[test]
fn schema_enhancement_beats_random_init_on_fully_unseen() {
    let b = build_benchmark("nell.v1.v3", Scale::Quick);
    let train_cfg = TrainConfig {
        epochs: 3,
        max_samples_per_epoch: 350,
        max_valid_samples: 60,
        patience: 0,
        ..Default::default()
    };
    let eval_cfg =
        EvalConfig { num_candidates: 15, max_targets: 60, seed: 4, ..Default::default() };
    let fully = b.test("TE(fully)").expect("TE(fully)");

    let cfg = RmpiConfig { dim: 12, ..RmpiConfig::base() };
    let mut random = RmpiModel::new(cfg, b.num_relations(), 0);
    Trainer::new(train_cfg).train(&mut random, &b.train.graph, &b.train.targets, &b.train.valid);
    let m_random = evaluate(&random, fully, &eval_cfg);

    let onto = schema_vectors(&b, 24, 60, 17);
    let cfg_s = RmpiConfig { init: RelationInit::Schema, ..cfg };
    let mut schema = RmpiModel::with_schema_vectors(cfg_s, onto, 0);
    Trainer::new(train_cfg).train(&mut schema, &b.train.graph, &b.train.targets, &b.train.valid);
    let m_schema = evaluate(&schema, fully, &eval_cfg);

    assert!(
        m_schema.auc_pr > m_random.auc_pr,
        "schema init should beat random on TE(fully): {} vs {}",
        m_schema.auc_pr,
        m_random.auc_pr
    );
}

#[test]
fn unseen_relations_score_without_panicking_across_test_sets() {
    use rand::SeedableRng;
    use rmpi::core::ScoringModel;
    let b = build_benchmark("nell.v2.v3", Scale::Quick);
    let model =
        RmpiModel::new(RmpiConfig { dim: 8, ne: true, ..Default::default() }, b.num_relations(), 1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    for test in &b.tests {
        for &t in test.targets.iter().take(10) {
            assert!(model.score(&test.graph, t, &mut rng).is_finite(), "{}: {t}", test.name);
        }
    }
}

#[test]
fn ext_benchmark_buckets_are_scorable() {
    use rand::SeedableRng;
    use rmpi::baselines::common::BaselineConfig;
    use rmpi::baselines::MakerLiteModel;
    use rmpi::core::ScoringModel;
    let b = build_benchmark("nell-ext", Scale::Quick);
    let model = MakerLiteModel::new(
        BaselineConfig { dim: 8, ..Default::default() },
        b.num_relations(),
        b.seen_relations.clone(),
        0,
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    for bucket in ["u_ent", "u_rel", "u_both"] {
        let test = b.test(bucket).unwrap();
        for &t in test.targets.iter().take(5) {
            assert!(model.score(&test.graph, t, &mut rng).is_finite(), "{bucket}: {t}");
        }
    }
}
