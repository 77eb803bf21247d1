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

fn main() {
    let h = Harness::from_args();
    let Some(name) = std::env::args().nth(1).filter(|a| !a.starts_with("--")) else {
        for name in tables::names() {
            print!("### {name}\n{}", tables::run(name, &h).expect("catalogue entry"));
        }
        return;
    };
    let Some(text) = tables::run(&name, &h) else {
        eprintln!("rmpi_tables: no entry {name:?}; entries: {}", tables::names().join(", "));
        std::process::exit(2);
    };
    print!("{text}");
}
