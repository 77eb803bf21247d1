//! The paper's tables and figures: one catalogue entry by name, or every
//! entry in order, each printed under a `### <entry>` line.
//!
//! ```text
//! cargo run --release -p rmpi-bench --bin rmpi_tables -- [<entry>] [--full] [flags]
//! cargo run --release -p rmpi-bench --bin rmpi_tables -- table6_partial --datasets nell.v1,wn.v1
//! ```
//!
//! Entries: `table1_stats` … `table8_schema_partial`, `fig4_case_study`,
//! `supp_rulen`, `ablation_extensions`, `dataset_report`. Flags are the
//! harness's (see the `rmpi_bench` crate docs); `fig4_case_study` and
//! `ablation_extensions` ignore `--methods`.

use rmpi_bench::{tables, Harness};

/// Print `problem`, the usage line and the entry names, and exit 2.
fn refuse(problem: &str) -> ! {
    eprintln!(
        "rmpi_tables: {problem}\n\
         usage: rmpi_tables [<entry>] [--quick | --full] [--seeds N] [--epochs N] \
         [--max-samples N] [--dim N] [--max-targets N] [--methods a,b] [--datasets x,y] \
         [--threads N]\n\
         entries: {}",
        tables::names().join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let h = Harness::from_args().unwrap_or_else(|problem| refuse(&problem));
    let Some(name) = std::env::args().nth(1).filter(|a| !a.starts_with("--")) else {
        for name in tables::names() {
            print!("### {name}\n{}", tables::run(name, &h).expect("catalogue entry"));
        }
        return;
    };
    let Some(text) = tables::run(&name, &h) else { refuse(&format!("no entry {name:?}")) };
    print!("{text}");
}
