//! Offline integrity scrub for on-disk artifacts.
//!
//! Points at either a graph store directory (`MANIFEST` + `index.bin` +
//! segments) or a bundle directory (`BUNDLE` + `params` + `graph/`) and
//! re-verifies every section against its manifest: the manifest's own seal,
//! sizes, whole-file checksums, and — for a store, a bundle's graph
//! included — every per-block checksum, reporting block-precise byte ranges
//! for damage. Unlike the serving
//! reader, the scrub keeps going after the first problem so one pass lists
//! *all* bad sections.
//!
//! ```text
//! cargo run --release -p rmpi-bench --bin rmpi_scrub -- <store-or-bundle-dir>
//! ```
//!
//! Exit status: 0 every section clean, 1 damage found, 2 usage error or
//! the path is not a recognisable artifact.

use rmpi_store::ScrubReport;
use std::path::Path;
use std::process::ExitCode;

fn print_report(report: &ScrubReport) {
    for s in &report.sections {
        match &s.error {
            None if s.blocks_checked > 0 => {
                println!(
                    "ok       {:<28} {:>10} bytes, {} block sums",
                    s.file, s.bytes, s.blocks_checked
                )
            }
            None => println!("ok       {:<28} {:>10} bytes", s.file, s.bytes),
            Some(e) => println!("CORRUPT  {:<28} {e}", s.file),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let Some(path) = args.get(1).filter(|a| !a.starts_with('-')) else {
        eprintln!("usage: rmpi_scrub <store-or-bundle-dir>");
        return ExitCode::from(2);
    };
    let dir = Path::new(path);

    let (kind, outcome) = if dir.join(rmpi_serve::BUNDLE_MANIFEST).is_file() {
        ("bundle", rmpi_serve::scrub_bundle(dir).map_err(|e| e.to_string()))
    } else {
        ("store", rmpi_store::scrub_store(dir).map_err(|e| e.to_string()))
    };
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rmpi_scrub: {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    };

    println!("scrubbing {kind} {}", dir.display());
    print_report(&report);
    let bad = report.corrupt_sections().len();
    if bad == 0 {
        println!("clean: {} section(s) verified", report.sections.len());
        ExitCode::SUCCESS
    } else {
        println!("CORRUPT: {bad}/{} section(s) damaged", report.sections.len());
        ExitCode::from(1)
    }
}
