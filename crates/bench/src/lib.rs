//! The experiment harness: the paper's tables and figures as one catalogue
//! ([`tables`], run by the `rmpi_tables` binary) and the flags every entry
//! shares ([`Harness`]), plus the criterion micro-benchmarks.
//!
//! `rmpi_tables [<entry>] [flags]` accepts:
//!
//! * `--quick` (default) — scaled-down graphs, 1 seed, reduced epochs:
//!   finishes in minutes and reproduces the tables' *shape*;
//! * `--full` — paper-scale graphs, 5 seeds, full training budget;
//! * `--seeds N`, `--epochs N`, `--max-samples N`, `--dim N`,
//!   `--max-targets N` — overrides;
//! * `--methods a,b,c` / `--datasets x,y` — row/column filters (a method
//!   name also selects its `+schema` twin; `fig4_case_study` and
//!   `ablation_extensions` train models of their own and ignore
//!   `--methods`);
//! * `--threads N` / env `RMPI_THREADS` — worker threads for training and
//!   candidate scoring (`0` = all cores; results are bit-identical for every
//!   value). The flag wins over the environment variable.

#![warn(missing_docs)]

pub mod tables;

use rmpi_core::config::{Fusion, RelationInit, RmpiConfig};
use rmpi_core::{RmpiModel, TrainConfig};
use rmpi_datasets::{Benchmark, Scale};
use rmpi_eval::onto::schema_vectors;
use rmpi_eval::runner::ModelFactory;
use rmpi_eval::EvalConfig;

/// All methods appearing in the paper's tables.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum MethodSpec {
    /// GraIL (entity-view baseline).
    Grail,
    /// Full TACT.
    Tact,
    /// TACT-base; `schema` selects ontology-enhanced initialisation.
    TactBase {
        /// Use schema TransE vectors for initial relation features.
        schema: bool,
    },
    /// CoMPILE.
    Compile,
    /// MaKEr-lite.
    Maker,
    /// An RMPI variant (NE/TA/fusion/init chosen by the config flags).
    Rmpi {
        /// NE module on.
        ne: bool,
        /// TA attention on.
        ta: bool,
        /// Concat fusion (SUM otherwise).
        concat: bool,
        /// Schema-enhanced initialisation.
        schema: bool,
    },
}

impl MethodSpec {
    /// RMPI-base, random init.
    pub(crate) const RMPI_BASE: MethodSpec =
        MethodSpec::Rmpi { ne: false, ta: false, concat: false, schema: false };
    /// RMPI-NE (SUM), random init.
    pub(crate) const RMPI_NE: MethodSpec =
        MethodSpec::Rmpi { ne: true, ta: false, concat: false, schema: false };
    /// RMPI-TA, random init.
    pub(crate) const RMPI_TA: MethodSpec =
        MethodSpec::Rmpi { ne: false, ta: true, concat: false, schema: false };
    /// RMPI-NE-TA (SUM), random init.
    pub(crate) const RMPI_NE_TA: MethodSpec =
        MethodSpec::Rmpi { ne: true, ta: true, concat: false, schema: false };

    /// Display name, matching the paper's rows.
    fn name(&self) -> String {
        match *self {
            MethodSpec::Grail => "GraIL".into(),
            MethodSpec::Tact => "TACT".into(),
            MethodSpec::TactBase { schema } => {
                if schema {
                    "TACT-base+schema".into()
                } else {
                    "TACT-base".into()
                }
            }
            MethodSpec::Compile => "CoMPILE".into(),
            MethodSpec::Maker => "MaKEr".into(),
            MethodSpec::Rmpi { ne, ta, concat, schema } => {
                let mut s = String::from("RMPI");
                match (ne, ta) {
                    (false, false) => s.push_str("-base"),
                    (true, false) => s.push_str("-NE"),
                    (false, true) => s.push_str("-TA"),
                    (true, true) => s.push_str("-NE-TA"),
                }
                if ne && concat {
                    s.push_str("(C)");
                }
                if schema {
                    s.push_str("+schema");
                }
                s
            }
        }
    }

    /// The same method with random relation initialisation.
    fn random_init(self) -> MethodSpec {
        match self {
            MethodSpec::TactBase { .. } => MethodSpec::TactBase { schema: false },
            MethodSpec::Rmpi { ne, ta, concat, .. } => {
                MethodSpec::Rmpi { ne, ta, concat, schema: false }
            }
            other => other,
        }
    }
}

/// Harness-wide configuration derived from CLI flags.
#[derive(Clone, Debug)]
pub struct Harness {
    /// Graph generation scale.
    pub(crate) scale: Scale,
    /// Seeds to average over.
    pub(crate) seeds: Vec<u64>,
    /// Training hyper-parameters.
    pub(crate) train: TrainConfig,
    /// Evaluation protocol parameters.
    pub(crate) eval: EvalConfig,
    /// Model dimension.
    pub(crate) dim: usize,
    /// Schema TransE vector dimension.
    pub(crate) schema_dim: usize,
    /// Schema TransE epochs.
    pub(crate) schema_epochs: usize,
    /// Dataset filter (empty = all the table's defaults).
    pub(crate) datasets: Vec<String>,
    /// Method filter (empty = all the table's defaults).
    pub(crate) methods: Vec<String>,
}

impl Harness {
    /// Parse `std::env::args`: an optional leading entry name (the first
    /// argument, when it is not a flag) and the flags the crate docs list.
    /// Anything else, or a value flag without its value, is an error naming
    /// the argument.
    pub fn from_args() -> Result<Self, String> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_arg_list(&args)
    }

    /// [`Harness::from_args`] over an explicit list (tests).
    fn from_arg_list(args: &[String]) -> Result<Self, String> {
        const SWITCHES: [&str; 2] = ["--full", "--quick"];
        const VALUED: [&str; 8] = [
            "--threads",
            "--seeds",
            "--epochs",
            "--dim",
            "--max-targets",
            "--max-samples",
            "--datasets",
            "--methods",
        ];
        let mut i = usize::from(args.first().is_some_and(|a| !a.starts_with("--")));
        while let Some(arg) = args.get(i) {
            if SWITCHES.contains(&arg.as_str()) {
                i += 1;
            } else if VALUED.contains(&arg.as_str()) {
                if args.get(i + 1).map_or(true, |v| v.starts_with("--")) {
                    return Err(format!("{arg} needs a value"));
                }
                i += 2;
            } else {
                return Err(format!("unknown argument {arg:?}"));
            }
        }
        let full = args.iter().any(|a| a == "--full");
        let get = |flag: &str| -> Option<String> {
            args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
        };
        let mut h = if full { Self::full() } else { Self::quick() };
        let threads = match get("--threads") {
            Some(v) => v.parse().expect("--threads N"),
            None => rmpi_runtime::threads_from_env(),
        };
        h.train.threads = threads;
        h.eval.threads = threads;
        if let Some(v) = get("--seeds") {
            let n: u64 = v.parse().expect("--seeds N");
            h.seeds = (0..n).collect();
        }
        if let Some(v) = get("--epochs") {
            h.train.epochs = v.parse().expect("--epochs N");
        }
        if let Some(v) = get("--dim") {
            h.dim = v.parse().expect("--dim N");
        }
        if let Some(v) = get("--max-targets") {
            h.eval.max_targets = v.parse().expect("--max-targets N");
        }
        if let Some(v) = get("--max-samples") {
            h.train.max_samples_per_epoch = v.parse().expect("--max-samples N");
        }
        if let Some(v) = get("--datasets") {
            h.datasets = v.split(',').map(str::to_owned).collect();
        }
        if let Some(v) = get("--methods") {
            h.methods = v.split(',').map(str::to_owned).collect();
        }
        Ok(h)
    }

    /// The fast profile (default).
    fn quick() -> Self {
        Harness {
            scale: Scale::Quick,
            seeds: vec![0],
            train: TrainConfig {
                epochs: 8,
                max_samples_per_epoch: 800,
                max_valid_samples: 60,
                patience: 3,
                ..Default::default()
            },
            eval: EvalConfig {
                num_candidates: 24,
                max_targets: 80,
                seed: 11,
                ..Default::default()
            },
            dim: 16,
            schema_dim: 32,
            schema_epochs: 60,
            datasets: Vec::new(),
            methods: Vec::new(),
        }
    }

    /// The paper-scale profile (`--full`).
    fn full() -> Self {
        Harness {
            scale: Scale::Full,
            seeds: vec![0, 1, 2, 3, 4],
            train: TrainConfig {
                epochs: 10,
                max_samples_per_epoch: 3000,
                max_valid_samples: 300,
                patience: 3,
                ..Default::default()
            },
            eval: EvalConfig {
                num_candidates: 49,
                max_targets: 600,
                seed: 11,
                ..Default::default()
            },
            dim: 32,
            schema_dim: 300,
            schema_epochs: 200,
            datasets: Vec::new(),
            methods: Vec::new(),
        }
    }

    /// Apply the dataset filter to a default list.
    fn filter_datasets<'a>(&self, defaults: &[&'a str]) -> Vec<&'a str> {
        if self.datasets.is_empty() {
            defaults.to_vec()
        } else {
            defaults.iter().copied().filter(|d| self.datasets.iter().any(|f| f == d)).collect()
        }
    }

    /// Apply the method filter to a default list: a method passes if its
    /// own name or its random-init name is named.
    fn filter_methods(&self, defaults: &[MethodSpec]) -> Vec<MethodSpec> {
        let named = |m: MethodSpec| self.methods.iter().any(|f| m.name().eq_ignore_ascii_case(f));
        let pass = |m: &MethodSpec| self.methods.is_empty() || named(*m) || named(m.random_init());
        defaults.iter().copied().filter(pass).collect()
    }
}

/// Build the per-seed model factory for `method` on `benchmark`,
/// precomputing schema vectors / seen-relation sets as needed.
fn method_factory(method: MethodSpec, benchmark: &Benchmark, h: &Harness) -> ModelFactory {
    use rmpi_baselines::common::BaselineConfig;
    use rmpi_baselines::{CompileModel, GrailModel, MakerLiteModel, TactBaseModel, TactModel};

    let num_rel = benchmark.num_relations();
    let dim = h.dim;
    let bcfg = BaselineConfig { dim, ..Default::default() };
    match method {
        MethodSpec::Grail => {
            Box::new(move |seed, _b| Box::new(GrailModel::new(bcfg, num_rel, seed)))
        }
        MethodSpec::Tact => Box::new(move |seed, _b| Box::new(TactModel::new(bcfg, num_rel, seed))),
        MethodSpec::Compile => {
            Box::new(move |seed, _b| Box::new(CompileModel::new(bcfg, num_rel, seed)))
        }
        MethodSpec::Maker => {
            let seen = benchmark.seen_relations.clone();
            Box::new(move |seed, _b| {
                Box::new(MakerLiteModel::new(bcfg, num_rel, seen.clone(), seed))
            })
        }
        MethodSpec::TactBase { schema: false } => {
            Box::new(move |seed, _b| Box::new(TactBaseModel::new(dim, 2, num_rel, seed)))
        }
        MethodSpec::TactBase { schema: true } => {
            let onto = schema_vectors(benchmark, h.schema_dim, h.schema_epochs, 17);
            Box::new(move |seed, _b| {
                Box::new(TactBaseModel::with_schema_vectors(dim, 2, onto.clone(), seed))
            })
        }
        MethodSpec::Rmpi { ne, ta, concat, schema } => {
            let fusion = if concat { Fusion::Concat } else { Fusion::Sum };
            if schema {
                let cfg = RmpiConfig {
                    dim,
                    ne,
                    ta,
                    fusion,
                    init: RelationInit::Schema,
                    ..Default::default()
                };
                let onto = schema_vectors(benchmark, h.schema_dim, h.schema_epochs, 17);
                Box::new(move |seed, _b| {
                    Box::new(RmpiModel::with_schema_vectors(cfg, onto.clone(), seed))
                })
            } else {
                let cfg = RmpiConfig { dim, ne, ta, fusion, ..Default::default() };
                Box::new(move |seed, _b| Box::new(RmpiModel::new(cfg, num_rel, seed)))
            }
        }
    }
}

/// Train + evaluate one `(method, benchmark)` cell over the harness seeds.
fn run_cell(
    method: MethodSpec,
    benchmark: &Benchmark,
    test_names: &[&str],
    h: &Harness,
) -> std::collections::HashMap<String, rmpi_eval::EvalMetrics> {
    let factory = method_factory(method, benchmark, h);
    rmpi_eval::run_experiment(&factory, benchmark, test_names, &h.train, &h.eval, &h.seeds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing_defaults_to_quick() {
        let h = Harness::from_arg_list(&[]).unwrap();
        assert_eq!(h.scale, Scale::Quick);
        assert_eq!(h.seeds.len(), 1);
    }

    #[test]
    fn full_flag_switches_profile() {
        let h = Harness::from_arg_list(&["--full".into()]).unwrap();
        assert_eq!(h.scale, Scale::Full);
        assert_eq!(h.seeds.len(), 5);
        assert_eq!(h.dim, 32);
        assert_eq!(h.eval.num_candidates, 49);
    }

    #[test]
    fn overrides_apply() {
        let h =
            Harness::from_arg_list(&["--seeds".into(), "3".into(), "--dim".into(), "24".into()])
                .unwrap();
        assert_eq!(h.seeds, vec![0, 1, 2]);
        assert_eq!(h.dim, 24);
    }

    #[test]
    fn filters_apply() {
        let h = Harness::from_arg_list(&[
            "--datasets".into(),
            "nell.v1".into(),
            "--methods".into(),
            "rmpi-base,GraIL".into(),
        ])
        .unwrap();
        assert_eq!(h.filter_datasets(&["nell.v1", "nell.v2"]), vec!["nell.v1"]);
        let ms = h.filter_methods(&[MethodSpec::Grail, MethodSpec::Tact, MethodSpec::RMPI_BASE]);
        assert_eq!(ms.len(), 2);
        // a random-init name also selects the method's schema twin
        let twin = MethodSpec::Rmpi { ne: false, ta: false, concat: false, schema: true };
        assert_eq!(h.filter_methods(&[twin, MethodSpec::TactBase { schema: true }]), vec![twin]);
    }

    #[test]
    fn unknown_arguments_and_valueless_flags_are_refused() {
        let parse = |args: &str| {
            Harness::from_arg_list(&args.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
        };
        for (args, problem) in [
            ("--help", "unknown argument \"--help\""),
            ("dataset_report --dataset wn.v1", "unknown argument \"--dataset\""),
            ("table1_stats extra", "unknown argument \"extra\""),
            ("--datasets", "--datasets needs a value"),
            ("table2_semi_unseen --methods --full", "--methods needs a value"),
        ] {
            assert_eq!(parse(args).unwrap_err(), problem, "{args}");
        }
        // every input `filters_apply` uses, with and without an entry name
        for args in
            ["--datasets nell.v1 --methods rmpi-base,GraIL", "dataset_report --datasets nell.v1"]
        {
            assert!(parse(args).is_ok(), "{args}");
        }
        let h = parse(
            "table6_partial --full --quick --threads 2 --seeds 2 --epochs 3 --dim 8 \
             --max-targets 5 --max-samples 40 --datasets nell.v1 --methods GraIL",
        )
        .unwrap();
        assert_eq!((h.scale, h.seeds.len(), h.train.epochs, h.dim), (Scale::Full, 2, 3, 8));
        assert_eq!(
            (h.train.threads, h.eval.max_targets, h.train.max_samples_per_epoch),
            (2, 5, 40)
        );
        assert_eq!(
            (h.datasets.as_slice(), h.methods.as_slice()),
            (&["nell.v1".to_owned()][..], &["GraIL".to_owned()][..])
        );
    }

    #[test]
    fn method_names_match_paper_rows() {
        assert_eq!(MethodSpec::RMPI_BASE.name(), "RMPI-base");
        assert_eq!(MethodSpec::RMPI_NE.name(), "RMPI-NE");
        assert_eq!(MethodSpec::RMPI_NE_TA.name(), "RMPI-NE-TA");
        assert_eq!(
            MethodSpec::Rmpi { ne: true, ta: false, concat: true, schema: true }.name(),
            "RMPI-NE(C)+schema"
        );
        assert_eq!(MethodSpec::TactBase { schema: true }.name(), "TACT-base+schema");
    }

    #[test]
    fn factories_construct_models() {
        use rmpi_datasets::build_benchmark;
        let b = build_benchmark("nell.v1", Scale::Quick);
        let h = Harness::quick();
        for m in [
            MethodSpec::Grail,
            MethodSpec::Tact,
            MethodSpec::TactBase { schema: false },
            MethodSpec::Compile,
            MethodSpec::Maker,
            MethodSpec::RMPI_NE_TA,
        ] {
            let f = method_factory(m, &b, &h);
            let model = f(0, &b);
            assert!(!model.name().is_empty());
        }
    }
}
