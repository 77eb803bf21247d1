//! Fig. 4 — case studies: two positive target triples, the relations in
//! their neighbourhoods, and the scores predicted by different models.
//!
//! ```text
//! cargo run --release -p rmpi-bench --bin fig4_case_study [--full]
//! ```

use rmpi_bench::{method_factory, Harness, MethodSpec};
use rmpi_core::{ScoringModel, Trainer};
use rmpi_datasets::build_benchmark;
use rmpi_eval::cases::{build_case, find_case};
use rmpi_kg::RelationId;

fn main() {
    let h = Harness::from_args();

    // Case 1 (paper: NELL-995.v4.v3, unseen relation `coach won trophy`):
    // an unseen-relation target from our nell.v4.v3 stand-in.
    run_case(&h, "nell.v4.v3", "TE(semi)", true, "Case 1: target with UNSEEN relation");

    // Case 2 (paper: FB15k-237.v1.v4, seen relation `/music/genre/artists`):
    // a seen-relation target where one-hop context suffices.
    run_case(&h, "fb.v1.v4", "TE(semi)", false, "Case 2: target with SEEN relation");
}

fn run_case(h: &Harness, dataset: &str, test_set: &str, want_unseen: bool, title: &str) {
    let b = build_benchmark(dataset, h.scale);
    let test = b.test(test_set).expect("test set");
    let Some(target) = find_case(&b, test, want_unseen, 2) else {
        println!("{title}: no suitable target found in {dataset}/{test_set}");
        return;
    };

    // train the compared models: TACT-base, RMPI-base, RMPI-TA, and the
    // schema-enhanced variants of the first two
    let methods = [
        MethodSpec::TactBase { schema: false },
        MethodSpec::TactBase { schema: true },
        MethodSpec::RMPI_BASE,
        MethodSpec::Rmpi { ne: false, ta: false, concat: false, schema: true },
        MethodSpec::RMPI_TA,
    ];
    let mut models: Vec<Box<dyn ScoringModel + Send>> = Vec::new();
    for m in methods {
        eprintln!("[fig4] training {} on {dataset}", m.name());
        let factory = method_factory(m, &b, h);
        let mut model = factory(0, &b);
        Trainer::new(h.train).train(&mut model, &b.train.graph, &b.train.targets, &b.train.valid);
        models.push(model);
    }
    let refs: Vec<&dyn ScoringModel> = models.iter().map(|m| m as &dyn ScoringModel).collect();
    let case = build_case(&b, test, target, &refs, 2);

    // export the subgraph and its relation view as DOT (render with graphviz)
    let sg = rmpi_subgraph::enclosing_subgraph(&test.graph, target, 2);
    let rv = rmpi_subgraph::RelViewGraph::from_subgraph(&sg);
    let tag = dataset.replace('.', "_");
    let _ = std::fs::write(format!("fig4_{tag}_subgraph.dot"), rmpi_subgraph::subgraph_to_dot(&sg));
    let _ = std::fs::write(format!("fig4_{tag}_relview.dot"), rmpi_subgraph::relview_to_dot(&rv));

    println!("== {title} ==");
    println!("dataset: {dataset}  test set: {test_set}");
    println!(
        "target triple: {}  (relation {} is {})",
        case.target,
        case.target.relation,
        if case.relation_unseen { "UNSEEN" } else { "seen" }
    );
    let fmt_rels = |rels: &[RelationId]| {
        rels.iter()
            .map(|r| format!("{r}{}", if b.is_unseen(*r) { "*" } else { "" }))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!("one-hop neighbour relations: {}", fmt_rels(&case.one_hop));
    println!("relations newly added at hop 2: {}", fmt_rels(&case.two_hop_new));
    println!("(* = unseen relation)");
    println!("predicted scores:");
    for (name, score) in &case.scores {
        println!("  {name:<22} {score:>9.4}");
    }
    println!("DOT exports: fig4_{tag}_subgraph.dot, fig4_{tag}_relview.dot");
    println!();
}
