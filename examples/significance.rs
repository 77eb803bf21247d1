//! Is RMPI-NE's improvement over RMPI-base statistically significant?
//! Paired evaluation on identical targets + bootstrap test — the honest
//! companion to a mean-of-runs table.
//!
//! ```text
//! cargo run --release --example significance
//! ```

use rmpi::core::{RmpiConfig, RmpiModel, TrainConfig, Trainer};
use rmpi::datasets::{build_benchmark, Scale};
use rmpi::eval::protocol::{entity_prediction_paired, EvalConfig};
use rmpi::eval::stats::{paired_bootstrap, sign_flip_test};

fn main() {
    let benchmark = build_benchmark("nell.v2", Scale::Quick);
    let train_cfg = TrainConfig { epochs: 5, max_samples_per_epoch: 600, ..Default::default() };

    let mut base =
        RmpiModel::new(RmpiConfig { dim: 16, ..RmpiConfig::base() }, benchmark.num_relations(), 0);
    let mut ne =
        RmpiModel::new(RmpiConfig { dim: 16, ..RmpiConfig::ne() }, benchmark.num_relations(), 0);
    for (name, model) in [("RMPI-base", &mut base), ("RMPI-NE", &mut ne)] {
        eprintln!("training {name}...");
        Trainer::new(train_cfg).train(
            model,
            &benchmark.train.graph,
            &benchmark.train.targets,
            &benchmark.train.valid,
        );
    }

    // per-target reciprocal ranks on identical targets & candidate sets
    let test = benchmark.test("TE").expect("TE");
    let eval_cfg =
        EvalConfig { num_candidates: 24, max_targets: 120, seed: 5, ..Default::default() };
    let rrs = entity_prediction_paired(&[&base, &ne], test, &eval_cfg);
    let (rr_base, rr_ne) = (&rrs[0], &rrs[1]);

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!("paired evaluation on {} targets:", rr_base.len());
    println!("  RMPI-base MRR: {:.2}", 100.0 * mean(rr_base));
    println!("  RMPI-NE   MRR: {:.2}", 100.0 * mean(rr_ne));

    let boot = paired_bootstrap(rr_ne, rr_base, 2000, 7);
    let p_flip = sign_flip_test(rr_ne, rr_base, 2000, 7);
    println!(
        "  mean per-target difference: {:+.4} (bootstrap p = {:.3}, sign-flip p = {:.3})",
        boot.mean_diff, boot.p_value, p_flip
    );
    if boot.significant(0.05) {
        println!("  => RMPI-NE's advantage is significant at α = 0.05");
    } else {
        println!("  => not significant at α = 0.05 on this quick-profile run —");
        println!("     rerun with more targets/epochs (or --full scale) for tighter intervals");
    }
}
