//! All workloads in one command. Each workload runs in a fresh process (this
//! executable, re-executed), so peak RSS, the process-global metrics
//! registry and allocator state belong to one workload only.

use crate::catalog::{metric_names, unit_of, Better, END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::{stats, Args};
use std::collections::BTreeMap;
use std::process::Command;

/// Metric values of one workload, by name, and its `attempted` op count.
type Row = BTreeMap<String, f64>;

/// The number that follows `key` in a result line.
fn number_after(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// The value of `"name": {"value": <number>` in a result line.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    number_after(line, &format!("\"{name}\": {{\"value\": "))
}

/// Run one workload in a child process and parse its result line.
fn run_child(workload: &str, args: &Args, names: &[&str]) -> Result<Row, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} exited with {}:\n{stdout}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let line = stdout.lines().last().ok_or_else(|| format!("{workload} printed nothing"))?;
    if !line.starts_with("{\"correct\": true, ") {
        return Err(format!("{workload} is not correct: {line}"));
    }
    let attempted = number_after(line, "\"attempted\": ");
    let mut row: Row = [("attempted".to_owned(), attempted.ok_or("no attempted count")?)].into();
    for &n in names {
        let v = metric_in(line, n).ok_or_else(|| format!("{workload}: no {n} in {line}"))?;
        row.insert(n.to_owned(), v);
    }
    Ok(row)
}

/// Every workload `args.runs` times, with seeds `args.seed` upwards, workloads
/// taking turns so that a noisy minute on the box is shared out; per metric,
/// the median over the runs. One run of this box can be a quarter slower than
/// the next, so anything recorded or compared should rest on several.
fn run_all(args: &Args) -> Result<BTreeMap<&'static str, Row>, String> {
    let names = metric_names(args.trace);
    let mut runs: BTreeMap<&'static str, Vec<Row>> = BTreeMap::new();
    for run in 0..args.runs {
        for w in &WORKLOADS {
            eprintln!("running {} (run {} of {}) ...", w.name, run + 1, args.runs);
            let seeded = Args { seed: args.seed + run, workload: None, record: None, ..*args };
            runs.entry(w.name).or_default().push(run_child(w.name, &seeded, &names)?);
        }
    }
    let medians = |rows: &Vec<Row>| -> Row {
        rows[0]
            .keys()
            .map(|k| (k.clone(), stats::median(&rows.iter().map(|r| r[k]).collect::<Vec<_>>())))
            .collect()
    };
    Ok(runs.iter().map(|(w, rows)| (*w, medians(rows))).collect())
}

fn print_table(rows: &BTreeMap<&'static str, Row>, names: &[&str]) {
    print!("{:<34} {:>6}", "metric", "unit");
    for w in &WORKLOADS {
        print!(" {:>12}", w.name);
    }
    println!();
    for name in names {
        print!("{name:<34} {:>6}", unit_of(name));
        for w in &WORKLOADS {
            print!(" {:>12.4}", rows[w.name][*name]);
        }
        println!();
    }
}

fn capture(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
}

/// The recorded baseline: where and how it was measured, then the numbers.
fn baseline_json(args: &Args, rows: &BTreeMap<&'static str, Row>) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"git_rev\": \"{}\",\n", capture("git", &["rev-parse", "HEAD"])));
    s.push_str(&format!("  \"rustc\": \"{}\",\n", capture("rustc", &["-V"])));
    s.push_str(&format!("  \"cores\": {cores},\n  \"profile\": \"full\",\n"));
    s.push_str(&format!("  \"first_seed\": {},\n  \"runs\": {},\n", args.seed, args.runs));
    s.push_str(&format!("  \"seconds\": {},\n", args.seconds));
    s.push_str(&format!("  \"trace\": {},\n  \"workloads\": {{\n", args.trace));
    let workloads: Vec<String> = rows
        .iter()
        .map(|(w, row)| {
            let metrics: Vec<String> =
                row.iter().map(|(n, v)| format!("      \"{n}\": {v}")).collect();
            format!("    \"{w}\": {{\n{}\n    }}", metrics.join(",\n"))
        })
        .collect();
    s.push_str(&workloads.join(",\n"));
    s.push_str("\n  }\n}\n");
    s
}

/// `suite`: every workload once, the table, and with `--record FILE` the
/// baseline file. A smoke run (shorter than the benchmark's run length) is
/// never recorded.
pub fn suite(args: &Args) -> Result<bool, String> {
    if args.record.is_some() && args.seconds < RUN_SECONDS as f64 {
        return Err(format!("--record refuses a smoke run: --seconds is below {RUN_SECONDS}"));
    }
    let rows = run_all(args)?;
    print_table(&rows, &metric_names(args.trace));
    if let Some(path) = &args.record {
        std::fs::write(path, baseline_json(args, &rows)).map_err(|e| format!("{path}: {e}"))?;
        println!("recorded {path}");
    }
    Ok(true)
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// `repeat`: the end-to-end suite twice with the same build and seeds. The
/// two must agree within each metric's own regression bound, in either
/// direction — a benchmark that cannot repeat itself cannot judge a change.
pub fn repeat(args: &Args) -> Result<bool, String> {
    let args = Args { workload: None, trace: false, record: None, ..*args };
    let (a, b) = (run_all(&args)?, run_all(&args)?);
    let mut agree = true;
    println!(
        "{:<12} {:<18} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "set A", "set B", "diff", "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (a[w.name][m.name], b[w.name][m.name]);
            let diff = worsening(m.better, va, vb);
            let ok = diff.abs() <= m.bound;
            agree &= ok;
            println!(
                "{:<12} {:<18} {va:>12.4} {vb:>12.4} {:>+7.1}% {:>5.0}%{}",
                w.name,
                m.name,
                diff * 100.0,
                m.bound * 100.0,
                if ok { "" } else { "  DISAGREE" }
            );
        }
    }
    println!("{}", if agree { "repeat: the two runs agree" } else { "repeat: the runs disagree" });
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse_back() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
                    {\"latency_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
                    \"setup_s\": {\"value\": 0.081, \"unit\": \"s\"}}}";
        assert_eq!(metric_in(line, "latency_p50_ms"), Some(1.2034));
        assert_eq!(metric_in(line, "setup_s"), Some(0.081));
        assert_eq!(metric_in(line, "latency_p90_ms"), None);
        assert_eq!(number_after(line, "\"attempted\": "), Some(10.0));
    }

    #[test]
    fn worsening_follows_the_better_direction() {
        assert_eq!(worsening(Better::Lower, 10.0, 11.0), 0.1);
        assert_eq!(worsening(Better::Higher, 10.0, 9.0), 0.1);
        assert!(worsening(Better::Higher, 10.0, 11.0) < 0.0);
    }
}
