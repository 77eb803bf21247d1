//! The paper's tables and figures as one catalogue, keyed by experiment name
//! (`table1_stats` … `table8_schema_partial`, `fig4_case_study`,
//! `supp_rulen`, `ablation_extensions`, `dataset_report`). [`run`] renders
//! one entry as text; the `rmpi_tables` binary prints one entry, or every
//! entry in catalogue order.
//!
//! Tables II–VIII are grids: each method trained and evaluated on each
//! dataset, one table row per cell (Table VI: methods × datasets). The
//! other entries keep bodies of their own.

use self::Layout::{Pivot, Rows};
use crate::{method_factory, run_cell, Harness, MethodSpec};
use rmpi_baselines::rulen::{MiningConfig, RuleNModel};
use rmpi_core::config::{Fusion, RmpiConfig};
use rmpi_core::{RmpiModel, ScoringModel, Trainer};
use rmpi_datasets::{build_benchmark, registry::paper_table1_stats, registry_names};
use rmpi_eval::cases::{build_case, find_case};
use rmpi_eval::protocol::evaluate;
use rmpi_eval::report::{fmt_metric, Table};
use rmpi_eval::{run_experiment, EvalMetrics, ModelFactory};
use rmpi_kg::analysis::{degree_histogram, empty_neighborhood_rate, num_components};
use rmpi_kg::{GraphStats, RelationId};
use rmpi_subgraph::{enclosing_subgraph, relview_to_dot, subgraph_to_dot, RelViewGraph};
use std::fmt::Write;

/// A metric column: header (a pivot table's title) and the value it shows.
type Metric = (&'static str, fn(&EvalMetrics) -> f64);
/// A key column: header and the cell it shows for a (dataset, method) pair.
type Key = (&'static str, fn(&str, &MethodSpec) -> String);
type Names = &'static [&'static str];
type Groups = &'static [&'static [MethodSpec]];

const AUC: Metric = ("AUC-PR", |m| m.auc_pr);
const MRR: Metric = ("MRR", |m| m.mrr);
const HITS: Metric = ("Hits@10", |m| m.hits10);
const PRED: &[Metric] = &[AUC, MRR, HITS];
const RANKING: &[Metric] = &[MRR, ("H@10", |m| m.hits10)];
const FUSED: &[Metric] = &[AUC, HITS];

const DATASET: Key = ("dataset", |d, _| d.to_owned());
const METHOD: Key = ("method", |_, m| m.name());
const BY_METHOD: &[Key] = &[DATASET, METHOD];
const FUNCTION: Key = ("function", |_, m| {
    if matches!(m, MethodSpec::Rmpi { concat: true, .. }) { "CONC" } else { "SUM" }.into()
});
const BY_FUSION: &[Key] = &[DATASET, FUNCTION];
const BY_SCHEMA: &[Key] =
    &[("schema", |_, m| if *m == m.random_init() { "w/o" } else { "w" }.into()), DATASET, METHOD];

const TE: &[&str] = &["TE"];
const SEMI: &[&str] = &["TE(semi)"];
const BUCKETS: &[&str] = &["u_ent", "u_rel", "u_both"];
const FULLY: &[&str] = &["nell.v1.v3", "nell.v2.v3", "nell.v4.v3", "fb.v1.v4"];
const NELL_FULLY: &[&str] = &["nell.v1.v3", "nell.v2.v3", "nell.v4.v3"];
const PARTIAL: &[&str] = &[
    "wn.v1", "wn.v2", "wn.v3", "wn.v4", "fb.v1", "fb.v2", "fb.v3", "fb.v4", "nell.v1", "nell.v2",
    "nell.v3", "nell.v4",
];

const fn rmpi(ne: bool, concat: bool, schema: bool) -> MethodSpec {
    MethodSpec::Rmpi { ne, ta: false, concat, schema }
}
/// TACT-base, RMPI-base, RMPI-NE (Tables II, III).
const fn inductive(s: bool) -> [MethodSpec; 3] {
    [MethodSpec::TactBase { schema: s }, rmpi(false, false, s), rmpi(true, false, s)]
}
/// MaKEr, RMPI-base, RMPI-NE (Tables IV, V).
const fn maker(s: bool) -> [MethodSpec; 3] {
    [MethodSpec::Maker, rmpi(false, false, s), rmpi(true, false, s)]
}
/// Table VIII's methods: Tables II/III's and RMPI-NE with CONC fusion.
const fn with_conc(s: bool) -> [MethodSpec; 4] {
    let [t, b, ne] = inductive(s);
    [t, b, ne, rmpi(true, true, s)]
}

/// A table of trained cells: for each method group, for each dataset, each
/// method of the group trained over the harness seeds and evaluated on
/// `tests`.
struct Grid {
    layout: Layout,
    datasets: Names,
    groups: Groups,
    tests: Names,
}

enum Layout {
    /// One titled table, a row per cell: the key columns, then each metric
    /// per test set (headed `"<test> <metric>"` when there are several).
    Rows(&'static str, &'static [Key], &'static [Metric]),
    /// A table per metric, titled by its header: methods as rows, datasets
    /// as columns, on the first test set.
    Pivot(&'static [Metric]),
}

impl Layout {
    const fn on(self, datasets: Names, groups: Groups, tests: Names) -> Grid {
        Grid { layout: self, datasets, groups, tests }
    }
}

enum Body {
    Grids(&'static [Grid]),
    Own(fn(&Harness, &mut String)),
}

const CATALOGUE: &[(&str, Body)] = &[
    ("table1_stats", Body::Own(table1_stats)),
    (
        "table2_semi_unseen",
        Body::Grids(&[
            Rows("Table IIa: TE(semi), Random Initialized", BY_METHOD, PRED).on(
                FULLY,
                &[&inductive(false)],
                SEMI,
            ),
            Rows("Table IIb: TE(semi), Schema Enhanced (NELL family)", BY_METHOD, PRED).on(
                NELL_FULLY,
                &[&inductive(true)],
                SEMI,
            ),
        ]),
    ),
    (
        "table3_fully_unseen",
        Body::Grids(&[
            Rows("Table IIIa: TE(fully), Random Initialized", BY_METHOD, PRED).on(
                FULLY,
                &[&inductive(false)],
                &["TE(fully)"],
            ),
            Rows("Table IIIb: TE(fully), Schema Enhanced (NELL family)", BY_METHOD, PRED).on(
                NELL_FULLY,
                &[&inductive(true)],
                &["TE(fully)"],
            ),
        ]),
    ),
    (
        "table4_maker",
        Body::Grids(&[Rows("Table IV: MaKEr comparison (Random Initialized)", BY_METHOD, RANKING)
            .on(&["fb-ext", "nell-ext"], &[&maker(false)], BUCKETS)]),
    ),
    (
        "table5_maker_schema",
        Body::Grids(&[Rows(
            "Table V: MaKEr comparison on NELL-Ext (Schema Enhanced)",
            BY_METHOD,
            RANKING,
        )
        .on(&["nell-ext"], &[&maker(true)], BUCKETS)]),
    ),
    (
        "table6_partial",
        Body::Grids(&[Pivot(&[
            ("Table VIa: entity prediction (Hits@10)", |m| m.hits10),
            ("Table VIb: triple classification (AUC-PR)", |m| m.auc_pr),
        ])
        .on(
            PARTIAL,
            &[&[
                MethodSpec::Grail,
                MethodSpec::TactBase { schema: false },
                MethodSpec::Tact,
                MethodSpec::Compile,
                MethodSpec::RMPI_BASE,
                MethodSpec::RMPI_NE,
                MethodSpec::RMPI_TA,
                MethodSpec::RMPI_NE_TA,
            ]],
            TE,
        )]),
    ),
    (
        "table7_fusion",
        Body::Grids(&[
            Rows("Table VIIa: partially inductive", BY_FUSION, FUSED).on(
                &["nell.v2", "nell.v4", "fb.v1"],
                &[&[rmpi(true, false, false), rmpi(true, true, false)]],
                TE,
            ),
            Rows("Table VIIb: fully inductive (Random Initialized)", BY_FUSION, FUSED).on(
                &["nell.v2.v3", "nell.v4.v3", "fb.v1.v4"],
                &[&[rmpi(true, false, false), rmpi(true, true, false)]],
                SEMI,
            ),
            Rows("Table VIIc: fully inductive (Schema Enhanced)", BY_FUSION, FUSED).on(
                &["nell.v2.v3", "nell.v4.v3"],
                &[&[rmpi(true, false, true), rmpi(true, true, true)]],
                SEMI,
            ),
        ]),
    ),
    (
        "table8_schema_partial",
        Body::Grids(&[Rows(
            "Table VIII: partially inductive with (w) / without (w/o) schemas",
            BY_SCHEMA,
            PRED,
        )
        .on(&["nell.v2", "nell.v4"], &[&with_conc(false), &with_conc(true)], TE)]),
    ),
    ("fig4_case_study", Body::Own(fig4_case_study)),
    ("supp_rulen", Body::Own(supp_rulen)),
    ("ablation_extensions", Body::Own(ablation_extensions)),
    ("dataset_report", Body::Own(dataset_report)),
];

/// The catalogue's entry names, in the order a full run prints them.
pub fn names() -> Vec<&'static str> {
    CATALOGUE.iter().map(|(name, _)| *name).collect()
}

/// Render the entry `name` as the text its tables print (`None`: no such
/// entry).
pub fn run(name: &str, h: &Harness) -> Option<String> {
    let (_, body) = CATALOGUE.iter().find(|(n, _)| *n == name)?;
    let mut out = String::new();
    match body {
        Body::Grids(grids) => grids.iter().for_each(|g| run_grid(g, h, &mut out)),
        Body::Own(f) => f(h, &mut out),
    }
    Some(out)
}

fn run_grid(g: &Grid, h: &Harness, out: &mut String) {
    let datasets = h.filter_datasets(g.datasets);
    let mut cells = Vec::new();
    for group in g.groups {
        let methods = h.filter_methods(group);
        for &d in &datasets {
            let b = build_benchmark(d, h.scale);
            for &m in &methods {
                eprintln!("[rmpi_tables] {} on {d}", m.name());
                cells.push((d, m, run_cell(m, &b, g.tests, h)));
            }
        }
    }
    let tables = match g.layout {
        Rows(title, keys, metrics) => {
            let mut headers: Vec<String> = keys.iter().map(|k| k.0.to_owned()).collect();
            for t in g.tests {
                headers.extend(metrics.iter().map(|(name, _)| match g.tests {
                    [_] => name.to_string(),
                    _ => format!("{t} {name}"),
                }));
            }
            let mut table =
                Table::new(title, &headers.iter().map(String::as_str).collect::<Vec<_>>());
            for (d, m, means) in &cells {
                let mut row: Vec<String> = keys.iter().map(|k| (k.1)(d, m)).collect();
                for t in g.tests {
                    row.extend(metrics.iter().map(|(_, f)| fmt_metric(f(&means[*t]))));
                }
                table.add_row(row);
            }
            vec![table]
        }
        Pivot(metrics) => metrics
            .iter()
            .map(|(title, f)| {
                let mut table = Table::new(title, &[&["method"], &datasets[..]].concat());
                for m in h.filter_methods(g.groups[0]) {
                    let values =
                        cells.iter().filter(|c| c.1 == m).map(|c| fmt_metric(f(&c.2[g.tests[0]])));
                    table.add_row([m.name()].into_iter().chain(values).collect());
                }
                table
            })
            .collect(),
    };
    for table in tables {
        let _ = writeln!(out, "{}", table.render());
    }
}

/// One row of AUC-PR, MRR and Hits@10 after the dataset and method cells.
fn metric_row(dataset: &str, method: String, m: &EvalMetrics) -> Vec<String> {
    vec![dataset.to_owned(), method, fmt_metric(m.auc_pr), fmt_metric(m.mrr), fmt_metric(m.hits10)]
}

/// Table I — benchmark statistics, generated vs. paper-reported.
fn table1_stats(h: &Harness, out: &mut String) {
    let names: Vec<&str> = registry_names().into_iter().filter(|n| !n.contains("ext")).collect();
    let mut part_a = Table::new(
        "Table Ia/Ib: benchmark statistics (generated | paper)",
        &["dataset", "graph", "#R gen", "#R paper", "#E gen", "#E paper", "#T gen", "#T paper"],
    );
    for name in h.filter_datasets(&names) {
        let b = build_benchmark(name, h.scale);
        let paper = paper_table1_stats(name);
        let mut row = |graph: &str, s: GraphStats, p: Option<[usize; 3]>| {
            let [r, e, t] = p
                .map_or_else(|| ["-".into(), "-".into(), "-".into()], |p| p.map(|v| v.to_string()));
            let [gr, ge, gt] =
                [s.num_relations, s.num_entities, s.num_triples].map(|v| v.to_string());
            part_a.add_row(vec![name.to_owned(), graph.to_owned(), gr, r, ge, e, gt, t]);
        };
        row("TR", GraphStats::of(&b.train.graph), paper.map(|p| [p.0, p.1, p.2]));
        for test in &b.tests {
            let paper_te = paper.filter(|_| test.name == "TE" || test.name == "TE(semi)");
            row(&test.name, GraphStats::of(&test.graph), paper_te.map(|p| [p.3, p.4, p.5]));
        }
    }
    let _ = writeln!(out, "{}", part_a.render());
    let _ = writeln!(
        out,
        "note: generated sizes are the synthetic stand-ins at {:?} scale; the paper columns\n\
         are the original GraIL/RMPI benchmark sizes for trend comparison (see DESIGN.md).",
        h.scale
    );
}

/// Fig. 4 — case studies: two positive targets, the relations around them
/// and each model's score. `--datasets` picks the cases; `--methods` does
/// not apply (every case trains the same five models). The DOT exports go
/// to `target/tables/`.
fn fig4_case_study(h: &Harness, out: &mut String) {
    // Case 1 (paper: NELL-995.v4.v3, unseen relation `coach won trophy`);
    // Case 2 (paper: FB15k-237.v1.v4, seen relation `/music/genre/artists`),
    // where one-hop context suffices
    let cases = [
        ("nell.v4.v3", true, "Case 1: target with UNSEEN relation"),
        ("fb.v1.v4", false, "Case 2: target with SEEN relation"),
    ];
    let datasets = h.filter_datasets(&cases.map(|(dataset, ..)| dataset));
    for (dataset, want_unseen, title) in cases {
        if datasets.contains(&dataset) {
            fig4_case(h, out, dataset, want_unseen, title);
        }
    }
}

fn fig4_case(h: &Harness, out: &mut String, dataset: &str, want_unseen: bool, title: &str) {
    let test_set = "TE(semi)";
    let b = build_benchmark(dataset, h.scale);
    let test = b.test(test_set).expect("test set");
    let Some(target) = find_case(&b, test, want_unseen, 2) else {
        let _ = writeln!(out, "{title}: no suitable target found in {dataset}/{test_set}");
        return;
    };
    // TACT-base and RMPI-base with random and schema init, and RMPI-TA
    let mut models: Vec<Box<dyn ScoringModel + Send>> = Vec::new();
    let ([tact, base, _], [tact_schema, base_schema, _]) = (inductive(false), inductive(true));
    for m in [tact, tact_schema, base, base_schema, MethodSpec::RMPI_TA] {
        eprintln!("[rmpi_tables] training {} on {dataset}", m.name());
        let mut model = method_factory(m, &b, h)(0, &b);
        Trainer::new(h.train).train(&mut model, &b.train.graph, &b.train.targets, &b.train.valid);
        models.push(model);
    }
    let refs: Vec<&dyn ScoringModel> = models.iter().map(|m| m as &dyn ScoringModel).collect();
    let case = build_case(&b, test, target, &refs, 2);

    // the subgraph and its relation view as DOT (render with graphviz)
    let sg = enclosing_subgraph(&test.graph, target, 2);
    let rv = RelViewGraph::from_subgraph(&sg);
    let tag = dataset.replace('.', "_");
    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tables"));
    let _ = std::fs::create_dir_all(dir);
    for (kind, dot) in [("subgraph", subgraph_to_dot(&sg)), ("relview", relview_to_dot(&rv))] {
        let path = dir.join(format!("fig4_{tag}_{kind}.dot"));
        match std::fs::write(&path, dot) {
            Ok(()) => eprintln!("[rmpi_tables] wrote {}", path.display()),
            Err(e) => eprintln!("[rmpi_tables] cannot write {}: {e}", path.display()),
        }
    }

    let _ = writeln!(out, "== {title} ==\ndataset: {dataset}  test set: {test_set}");
    let seen = if case.relation_unseen { "UNSEEN" } else { "seen" };
    let relation = case.target.relation;
    let _ = writeln!(out, "target triple: {}  (relation {relation} is {seen})", case.target);
    let fmt_rels = |rels: &[RelationId]| {
        let starred = rels.iter().map(|r| format!("{r}{}", if b.is_unseen(*r) { "*" } else { "" }));
        starred.collect::<Vec<_>>().join(", ")
    };
    let _ = writeln!(out, "one-hop neighbour relations: {}", fmt_rels(&case.one_hop));
    let _ = writeln!(out, "relations newly added at hop 2: {}", fmt_rels(&case.two_hop_new));
    out.push_str("(* = unseen relation)\npredicted scores:\n");
    for (name, score) in &case.scores {
        let _ = writeln!(out, "  {name:<22} {score:>9.4}");
    }
    let _ = writeln!(out, "DOT exports: fig4_{tag}_subgraph.dot, fig4_{tag}_relview.dot\n");
}

/// Supplementary: the rule-mining baseline the paper omits (§IV-C), RuleN
/// against GraIL and RMPI-base.
fn supp_rulen(h: &Harness, out: &mut String) {
    let mut table = Table::new(
        "Supplementary: rule mining vs subgraph GNNs (partially inductive)",
        &["dataset", "method", "AUC-PR", "MRR", "Hits@10"],
    );
    for name in h.filter_datasets(&["nell.v1", "wn.v1", "fb.v1"]) {
        let b = build_benchmark(name, h.scale);
        // mine on the training graph, apply the rules in the test graph
        let rulen = RuleNModel::mine(&b.train.graph, &MiningConfig::default());
        eprintln!("[rmpi_tables] mined {} rules on {name}", rulen.num_rules());
        let test = b.test("TE").expect("TE");
        table.add_row(metric_row(name, "RuleN".into(), &evaluate(&rulen, test, &h.eval)));
        for method in h.filter_methods(&[MethodSpec::Grail, MethodSpec::RMPI_BASE]) {
            eprintln!("[rmpi_tables] {} on {name}", method.name());
            table.add_row(metric_row(name, method.name(), &run_cell(method, &b, TE, h)["TE"]));
        }
    }
    let _ = writeln!(out, "{}", table.render());
    out.push_str(
        "expected shape (paper §IV-C): mined rules capture the planted regularities but\n\
         lose to subgraph GNNs once noise, partial closure and empty subgraphs matter.\n",
    );
}

/// Ablation of the extensions beyond the paper (§VI future work): gated
/// fusion and entity-clue features on RMPI-NE. `--methods` does not apply
/// (the variants are this entry's own).
fn ablation_extensions(h: &Harness, out: &mut String) {
    let mut table = Table::new(
        "Extension ablation: fusion function and entity clues (RMPI-NE)",
        &["dataset", "variant", "AUC-PR", "MRR", "Hits@10"],
    );
    let rmpi_ne = RmpiConfig { dim: h.dim, ne: true, ..Default::default() };
    for name in h.filter_datasets(&["nell.v2", "wn.v1"]) {
        let b = build_benchmark(name, h.scale);
        let num_rel = b.num_relations();
        for (entity_clues, suffix) in [(false, ""), (true, "+EC")] {
            for (fusion, tag) in [(Fusion::Sum, "S"), (Fusion::Gated, "G")] {
                let label = format!("RMPI-NE({tag}){suffix}");
                let cfg = RmpiConfig { fusion, entity_clues, ..rmpi_ne };
                let factory: ModelFactory =
                    Box::new(move |seed, _b| Box::new(RmpiModel::new(cfg, num_rel, seed)));
                eprintln!("[rmpi_tables] {label} on {name}");
                let s = &run_experiment(&factory, &b, TE, &h.train, &h.eval, &h.seeds)["TE"];
                table.add_row(metric_row(name, label, s));
            }
        }
    }
    let _ = writeln!(out, "{}", table.render());
}

/// Structural report over the catalogue's training graphs: the statistics
/// behind the family profiles (sparsity → empty enclosing subgraphs → NE
/// relevance; density → attention relevance).
fn dataset_report(h: &Harness, out: &mut String) {
    let mut table = Table::new(
        "Benchmark structure report (training graphs)",
        &["dataset", "#T", "avg deg", "components", "empty-sg rate", "deg>=8"],
    );
    let names = ["wn.v1", "wn.v2", "fb.v1", "fb.v2", "nell.v1", "nell.v2", "nell.v4"];
    for name in h.filter_datasets(&names) {
        let g = &build_benchmark(name, h.scale).train.graph;
        let stats = GraphStats::of(g);
        table.add_row(vec![
            name.to_owned(),
            stats.num_triples.to_string(),
            format!("{:.2}", stats.avg_degree),
            num_components(g).to_string(),
            format!("{:.1}%", empty_neighborhood_rate(g, 2, 7) * 100.0),
            degree_histogram(g, 8)[8].to_string(),
        ]);
    }
    let _ = writeln!(out, "{}", table.render());
    out.push_str(
        "empty-sg rate = fraction of sampled triples whose 2-hop enclosing subgraph is empty;\n\
         the wn family should score highest (NE module territory), fb lowest.\n",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rmpi_tables --epochs 5 --max-samples 500 --threads 0`, as committed.
    const CAMPAIGN: &str = include_str!("../../../results/tables.txt");

    /// The part of the committed campaign that entry `name` printed.
    fn section(name: &str) -> &'static str {
        let header = format!("### {name}\n");
        let rest = &CAMPAIGN[CAMPAIGN.find(&header).expect("section") + header.len()..];
        &rest[..rest.find("\n### ").map_or(rest.len(), |end| end + 1)]
    }

    fn harness(args: &str) -> Harness {
        Harness::from_arg_list(&args.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
            .unwrap()
    }

    #[test]
    fn every_entry_has_a_committed_section() {
        for name in names() {
            assert!(CAMPAIGN.contains(&format!("### {name}\n")), "{name}");
        }
    }

    #[test]
    fn generator_tables_reproduce_the_committed_campaign() {
        for name in ["table1_stats", "dataset_report"] {
            assert_eq!(run(name, &harness("")).unwrap(), section(name), "{name}");
        }
    }

    #[test]
    fn a_trained_row_reproduces_the_committed_campaign() {
        let h = harness(
            "--datasets nell.v2 --methods RMPI-base --epochs 5 --max-samples 500 --threads 0",
        );
        let rows = |text: &str| -> Vec<Vec<String>> {
            let cells =
                text.lines().map(|l| l.split_whitespace().map(str::to_owned).collect::<Vec<_>>());
            cells.filter(|c| c.get(1).is_some_and(|d| d == "nell.v2")).collect()
        };
        let fresh = rows(&run("table8_schema_partial", &h).unwrap());
        assert_eq!(fresh.len(), 2, "RMPI-base and RMPI-base+schema on nell.v2: {fresh:?}");
        let committed = rows(section("table8_schema_partial"));
        for row in &fresh {
            assert!(committed.contains(row), "{row:?} is not a row of results/tables.txt");
        }
    }

    #[test]
    fn fig4_runs_only_the_cases_the_dataset_filter_names() {
        let h = harness("--datasets nell.v4.v3 --epochs 1 --max-samples 8 --dim 4 --seeds 1");
        let text = run("fig4_case_study", &h).unwrap();
        assert!(text.contains("dataset: nell.v4.v3"), "{text}");
        assert!(!text.contains("Case 2") && !text.contains("fb.v1.v4"), "{text}");
    }

    #[test]
    fn unknown_entries_render_nothing() {
        assert!(run("table9", &harness("")).is_none());
    }
}
