//! `rmpi_perf` — the workspace's one performance benchmark.
//!
//! Seven workloads drive the real product surfaces (`Trainer`, `serve` +
//! `Session`, `Router` + `serve_router`, `Engine` over memory and over the
//! store) from outside; every answer is checked bit for bit against offline
//! scoring; a separate traced run times the calls into each crate's public
//! functions so that per-layer times reconcile with the end-to-end number.
//! See `README.md` beside this file.
//!
//! ```text
//! rmpi_perf --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! rmpi_perf suite  [--seed N] [--seconds S] [--runs R] [--trace 0|1] [--record FILE]
//! rmpi_perf repeat [--seed N] [--seconds S] [--runs R]
//! rmpi_perf manifest
//! ```

mod catalog;
mod drive;
mod fixture;
mod layers;
mod spans;
mod stats;
mod suite;

use catalog::{unit_of, Workload, PER_LAYER, RUN_SECONDS};
use drive::{Gives, Timed};
use spans::SpanLog;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The system allocator, counting allocation events while `COUNT_ALLOCS` is
/// on. The switch exists because counting is not free: with it always on,
/// the shared counter's cache line bounced between the two cores and cost
/// `score_warm` 7 % of its throughput, so the end-to-end runs leave it off
/// and only the single-threaded layer replay turns it on.
pub struct SwitchedAllocator {
    counting: rmpi_testutil::CountingAllocator,
}

pub static COUNT_ALLOCS: AtomicBool = AtomicBool::new(false);

#[global_allocator]
pub static ALLOCATOR: SwitchedAllocator =
    SwitchedAllocator { counting: rmpi_testutil::CountingAllocator::new() };

impl SwitchedAllocator {
    /// Allocation events counted so far.
    pub fn allocations(&self) -> u64 {
        self.counting.allocations()
    }
}

// SAFETY: every call is forwarded unchanged either to `System` or to
// `CountingAllocator`, which itself forwards to `System`; so a block
// allocated on one side of the switch and freed or resized on the other is
// still a `System` block handled by `System`, with the caller's layout.
unsafe impl GlobalAlloc for SwitchedAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            self.counting.alloc(layout)
        } else {
            System.alloc(layout)
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            self.counting.alloc_zeroed(layout)
        } else {
            System.alloc_zeroed(layout)
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNT_ALLOCS.load(Ordering::Relaxed) {
            self.counting.realloc(ptr, layout, new_size)
        } else {
            System.realloc(ptr, layout, new_size)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Latency percentile reported as the tail.
const TAIL: f64 = 0.90;

/// Metric name → value, in the catalogue's units.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The result of one run of one workload.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// A metric is refused when fewer slices than this had enough samples.
const MIN_SLICES: usize = 4;

/// Sum up the per-slice (for `setup_s`, per-set-up) `values` of an
/// end-to-end metric by their fast octile, and print their quartiles.
fn sum_up(name: &'static str, values: &[f64], metrics: &mut Metrics) -> Result<(), String> {
    if values.len() < MIN_SLICES {
        return Err(format!(
            "{name}: {} slices with enough samples, the floor is {MIN_SLICES}",
            values.len()
        ));
    }
    let better = catalog::END_TO_END.iter().find(|m| m.name == name).expect("end to end").better;
    let value = stats::fast_octile(values, better);
    let (q1, median, q3) = stats::quartiles(values);
    println!(
        "  {name:<17} {:>3} values: q1 {q1:.4} median {median:.4} q3 {q3:.4} fast octile {value:.4}",
        values.len()
    );
    metrics.insert(name, value);
    Ok(())
}

fn print_phases(timed: &Timed) {
    for p in &timed.phases {
        let ops: u64 = p.events.iter().map(|e| e.ops).sum();
        println!(
            "  phase {:<9} {:>7} requests {:>8} ops in {:.2} s",
            p.name,
            p.events.len(),
            ops,
            (p.deadline_ns - p.start_ns) as f64 / 1e9
        );
    }
}

/// The end-to-end run: tracing off, all of `seconds` measured.
fn run(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (mut fx, mut setups) = fixture::build_repeatedly(w, seed);
    let mut log = SpanLog::new(Instant::now(), false);
    let timed = drive::drive(w, &mut fx, seconds, &mut log);
    // before the correctness pass, which may hold a second copy of the graph
    let peak_rss_mib = stats::peak_rss_mib();
    // the other half of the set-ups, a run's length after the first: a
    // stretch in which the host is busy rarely covers both
    setups.extend(fixture::build_again(w, seed, setups.len()));
    print_phases(&timed);
    let verdict = drive::verify(&fx, &timed);
    match &verdict {
        Ok(digest) => println!("  result_digest {digest:016x}"),
        Err(why) => println!("  INCORRECT: {why}"),
    }
    if timed.ops() == 0 {
        return Err("no op succeeded".into());
    }
    let rates: Vec<f64> = timed
        .phases
        .iter()
        .filter(|p| p.gives != Gives::Latency)
        .flat_map(|p| stats::slice_rates(&p.events, &p.bounds))
        .collect();
    let serial = || timed.phases.iter().filter(|p| p.gives != Gives::Throughput);
    let mut all_ms: Vec<f64> =
        serial().flat_map(|p| &p.events).map(|e| e.latency_ns as f64 / 1e6).collect();
    // the floor of a percentile is on all serial samples of the run; a
    // slice's own percentile is an order statistic of SLICE_MIN_REQUESTS or more
    let (p50, tail) = (
        stats::checked_percentile(&mut all_ms, 0.5)?,
        stats::checked_percentile(&mut all_ms, TAIL)?,
    );
    println!("  all {} latency samples: p50 {p50:.4} ms, p90 {tail:.4} ms", all_ms.len());
    let slice_ms = |q: f64| -> Vec<f64> {
        serial()
            .flat_map(|p| {
                stats::slice_latency_ms(&p.events, &p.bounds, q, drive::SLICE_MIN_REQUESTS)
            })
            .flatten()
            .collect()
    };
    let mut metrics = Metrics::new();
    sum_up("throughput_per_s", &rates, &mut metrics)?;
    sum_up("latency_p50_ms", &slice_ms(0.5), &mut metrics)?;
    sum_up("latency_p90_ms", &slice_ms(TAIL), &mut metrics)?;
    sum_up("setup_s", &setups, &mut metrics)?;
    metrics.insert("peak_rss_mib", peak_rss_mib);
    Ok(Outcome {
        correct: verdict.is_ok() && timed.failed == 0,
        attempted: timed.attempted,
        failed: timed.failed,
        metrics,
    })
}

/// The result line the driver reads: exactly these four keys.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", unit_of(name))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Run one workload and print its table and result line.
fn run_one(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<bool, String> {
    let profile = if seconds >= RUN_SECONDS as f64 { "full" } else { "smoke" };
    println!(
        "rmpi_perf {} seed {seed} seconds {seconds} trace {} profile {profile}",
        w.name,
        u8::from(trace)
    );
    let outcome =
        if trace { layers::run_traced(w, seed, seconds)? } else { run(w, seed, seconds)? };
    let names = catalog::metric_names(trace);
    for name in &names {
        let value = outcome.metrics.get(name).ok_or_else(|| format!("{name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("{name} is {value}"));
        }
    }
    if outcome.metrics.len() != names.len() {
        return Err("a metric outside the catalogue was measured".into());
    }
    for (name, value) in &outcome.metrics {
        // beside a layer's number, the end-to-end numbers it should move
        let moves = PER_LAYER.iter().find(|m| m.name == *name).map_or("", |m| m.moves);
        println!("  {name:<34} {value:>14.4} {:<6} {moves}", unit_of(name));
    }
    println!("{}", result_json(&outcome));
    Ok(outcome.correct)
}

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `suite` and `repeat`: runs per workload behind every reported median.
    pub runs: u64,
    pub record: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        runs: 1,
        record: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} takes a value"))?;
        let number = || value.parse::<f64>().map_err(|_| format!("{flag} takes a number"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value.clone()),
            "--seed" => out.seed = value.parse().map_err(|_| "--seed takes a whole number")?,
            "--seconds" => out.seconds = number()?,
            "--trace" => out.trace = number()? != 0.0,
            "--runs" => out.runs = value.parse().map_err(|_| "--runs takes a whole number")?,
            "--record" => out.record = Some(value.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(out.seconds > 0.0 && out.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if out.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    Ok(out)
}

fn main_inner() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &argv[1..]),
        _ => ("run-one", &argv[..]),
    };
    let args = parse_args(rest)?;
    match command {
        "manifest" => {
            print!("{}", catalog::manifest_json());
            Ok(true)
        }
        "suite" => suite::suite(&args),
        "repeat" => suite::repeat(&args),
        "run-one" => {
            let name = args.workload.as_deref().ok_or("--workload is required")?;
            let w = catalog::workload(name).ok_or_else(|| {
                let names: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload {name}; one of {names:?}")
            })?;
            run_one(w, args.seed, args.seconds, args.trace)
        }
        other => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("rmpi_perf: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wiring test: `score_edge` end to end at smoke size — set-up,
    /// both phases over real sockets, the bit-parity check, every
    /// end-to-end metric present, and the same seed giving the same digest.
    #[test]
    fn score_edge_runs_end_to_end_at_smoke_size() {
        let w = catalog::workload("score_edge").expect("workload");
        let outcome = run(w, 3, 1.5).expect("smoke run");
        assert!(outcome.correct, "bit parity with offline scoring");
        assert_eq!(outcome.failed, 0);
        assert!(outcome.attempted > 500, "attempted {}", outcome.attempted);
        for m in &catalog::END_TO_END {
            assert!(outcome.metrics[m.name] > 0.0, "{} must never be 0", m.name);
        }
        let line = result_json(&outcome);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(line.contains("\"setup_s\": {\"value\": 0."), "{line}");

        let digest = |seed| {
            let mut fx = fixture::build(w, seed);
            let mut log = SpanLog::new(Instant::now(), false);
            let timed = drive::drive(w, &mut fx, 0.3, &mut log);
            drive::verify(&fx, &timed).expect("correct")
        };
        assert_eq!(digest(3), digest(3));
        assert_ne!(digest(3), digest(4));
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let argv: Vec<String> = "--workload score_warm --seed 9 --seconds 12 --trace 1"
            .split(' ')
            .map(Into::into)
            .collect();
        let a = parse_args(&argv).expect("parse");
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("score_warm"), 9, 12.0, true)
        );
        assert!(parse_args(&["--seconds".into(), "0".into()]).is_err());
        assert!(parse_args(&["--bogus".into(), "1".into()]).is_err());
        assert!(parse_args(&["--seed".into()]).is_err());
    }
}
