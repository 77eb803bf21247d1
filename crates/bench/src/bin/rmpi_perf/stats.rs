//! Sample arithmetic and `/proc` readers: percentiles with their
//! sample-count floors, slice rates, process CPU time and peak RSS.

use crate::catalog::Better;
use std::collections::BTreeSet;
use std::time::Duration;

/// A percentile is only reported with at least this many samples beyond it.
pub const SAMPLES_BEYOND_PERCENTILE: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`percentile`] behind its floor: `q` must leave
/// [`SAMPLES_BEYOND_PERCENTILE`] samples above it, so a p95 needs 200
/// samples and a p99 of a dozen requests is refused instead of printed.
pub fn checked_percentile(samples: &mut [f64], q: f64) -> Result<f64, String> {
    let beyond = ((1.0 - q) * samples.len() as f64).floor() as usize;
    if beyond < SAMPLES_BEYOND_PERCENTILE {
        return Err(format!(
            "p{:.0} of {} samples has {beyond} beyond it, the floor is {SAMPLES_BEYOND_PERCENTILE}",
            q * 100.0,
            samples.len()
        ));
    }
    samples.sort_unstable_by(f64::total_cmp);
    Ok(percentile(samples, q))
}

/// `(first quartile, median, third quartile)`, interpolating between ranks
/// the way Python's `statistics.quantiles(values, n=4)` does — the driver
/// that accepts this benchmark computes its spreads with that function.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // the "exclusive" method: rank i*(n+1)/4, extrapolating past the ends
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The value an eighth of the way in from the better end of `values`: the
/// second best of 16. This is how a run sums up its slices. The host's other
/// tenants only ever slow a slice down, and in a busy half hour they slowed
/// most slices of most runs: the median slice moved by 25–33 %, the best few
/// by 10–15 %. The very best is left out as the likeliest fluke.
pub fn fast_octile(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "octile of no values");
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    if better == Better::Higher {
        v.reverse();
    }
    v[v.len().div_ceil(8) - 1]
}

/// One completed unit of client work: when it finished (ns since the run's
/// epoch), how many ops it carried and how long the client waited for it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    pub end_ns: u64,
    pub ops: u64,
    pub latency_ns: u64,
}

/// `slices + 1` boundaries that cut `[start_ns, end_ns)` into equal stretches.
pub fn equal_bounds(start_ns: u64, end_ns: u64, slices: usize) -> Vec<u64> {
    assert!(end_ns > start_ns && slices > 0, "empty phase");
    let width = (end_ns - start_ns) as f64 / slices as f64;
    (0..=slices).map(|i| start_ns + (i as f64 * width) as u64).collect()
}

/// Ops/s in each slice `[bounds[i], bounds[i + 1])`. An event's ops are
/// spread evenly over the interval it was in flight, so a `RANK` of 208
/// candidates that straddles a boundary counts on both sides instead of
/// landing as one lump; flight outside the bounds is not counted.
pub fn slice_rates(events: &[Event], bounds: &[u64]) -> Vec<f64> {
    assert!(bounds.windows(2).all(|b| b[0] < b[1]), "empty slice");
    let mut ops = vec![0f64; bounds.len().saturating_sub(1)];
    for e in events {
        let sent = (e.end_ns - e.latency_ns).max(bounds[0]);
        let done = e.end_ns.min(bounds[bounds.len() - 1]);
        let first = bounds.partition_point(|&b| b <= sent).saturating_sub(1);
        for (slot, b) in ops.iter_mut().zip(bounds.windows(2)).skip(first) {
            if b[0] >= done {
                break;
            }
            let inside = done.min(b[1]) - sent.max(b[0]);
            *slot += e.ops as f64 * inside as f64 / e.latency_ns.max(1) as f64;
        }
    }
    ops.iter().zip(bounds.windows(2)).map(|(n, b)| n * 1e9 / (b[1] - b[0]) as f64).collect()
}

/// Nearest-rank `q` of the latencies (ms) of the events that ended in each
/// slice; `None` for a slice with fewer than `floor` of them.
pub fn slice_latency_ms(
    events: &[Event],
    bounds: &[u64],
    q: f64,
    floor: usize,
) -> Vec<Option<f64>> {
    bounds
        .windows(2)
        .map(|b| {
            let mut ms: Vec<f64> = events
                .iter()
                .filter(|e| e.end_ns > b[0] && e.end_ns <= b[1])
                .map(|e| e.latency_ns as f64 / 1e6)
                .collect();
            ms.sort_unstable_by(f64::total_cmp);
            (ms.len() >= floor.max(1)).then(|| percentile(&ms, q))
        })
        .collect()
}

/// FNV-1a over `bytes`, continuing from `state` (start from [`FNV_OFFSET`]).
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

/// Initial state for [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// Kernel clock ticks per second for the `utime`/`stime` fields. Linux has
/// exposed 100 to user space on every architecture since 2.6.
const CLK_TCK: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of a `/proc/<pid>/stat`
/// file. The command name (field 2) may itself contain spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    // after_comm starts at field 3 (state); utime is field 14, stime 15
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The command name (field 2, without its parentheses) of a stat file.
pub fn parse_stat_comm(stat: &str) -> Option<&str> {
    Some(&stat[stat.find('(')? + 1..stat.rfind(')')?])
}

/// `VmHWM` in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn cpu_of(stat_path: &str) -> Duration {
    let stat = std::fs::read_to_string(stat_path).expect("read /proc stat (Linux only)");
    let ticks = parse_stat_cpu_ticks(&stat).expect("utime and stime in /proc stat");
    Duration::from_secs_f64(ticks as f64 / CLK_TCK)
}

/// User + system CPU time of this process so far.
pub fn process_cpu() -> Duration {
    cpu_of("/proc/self/stat")
}

/// On-CPU nanoseconds from the text of a `/proc/<pid>/task/<tid>/schedstat` file.
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// CPU time of the thread whose `/proc` directory is `dir`: to the
/// nanosecond from `schedstat` where the kernel keeps it, in clock ticks
/// otherwise. A client thread lives for one phase and may use less than the
/// 10 ms a tick is, which `stat` reports as nothing.
fn task_cpu(dir: &str) -> Duration {
    let exact = std::fs::read_to_string(format!("{dir}/schedstat")).ok();
    match exact.as_deref().and_then(parse_schedstat_ns) {
        Some(ns) => Duration::from_nanos(ns),
        None => cpu_of(&format!("{dir}/stat")),
    }
}

/// CPU time of the calling thread so far.
pub fn thread_cpu() -> Duration {
    task_cpu("/proc/thread-self")
}

/// Ids of this process's live threads named `comm`.
pub fn tids_named(comm: &str) -> BTreeSet<u64> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("read /proc/self/task");
    tasks
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let tid: u64 = entry.file_name().to_str()?.parse().ok()?;
            // a thread may exit between the listing and the read
            let stat = std::fs::read_to_string(entry.path().join("stat")).ok()?;
            (parse_stat_comm(&stat) == Some(comm)).then_some(tid)
        })
        .collect()
}

/// Summed lifetime CPU of this process's live threads named `comm`, leaving
/// out the threads in `except`.
pub fn cpu_of_threads_named(comm: &str, except: &BTreeSet<u64>) -> Duration {
    tids_named(comm).difference(except).map(|tid| task_cpu(&format!("/proc/self/task/{tid}"))).sum()
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn percentile_floor_refuses_thin_tails() {
        let mut v: Vec<f64> = (0..199).map(f64::from).collect();
        assert!(checked_percentile(&mut v, 0.95).is_err(), "199 samples leave 9 beyond p95");
        v.push(199.0);
        v.reverse(); // unsorted input is sorted in place
        assert_eq!(checked_percentile(&mut v, 0.95), Ok(189.0));
        assert!(checked_percentile(&mut v, 0.99).is_err());
        assert_eq!(checked_percentile(&mut v[..20], 0.5), Ok(9.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn slice_rates_spread_an_event_over_its_flight_and_the_octile_ignores_a_stall() {
        const S: u64 = 1_000_000_000;
        // one 16-op request every 100 ms, each in flight for 100 ms; second 4 stalls
        let mut events = Vec::new();
        for i in 0..100u64 {
            if i / 10 != 4 {
                events.push(Event { end_ns: (i + 1) * S / 10, ops: 16, latency_ns: S / 10 });
            }
        }
        let bounds = equal_bounds(0, 10 * S, 10);
        assert_eq!(bounds, (0..=10).map(|i| i * S).collect::<Vec<_>>());
        let rates = slice_rates(&events, &bounds);
        assert_eq!(rates.len(), 10);
        assert_eq!(rates[4], 0.0);
        assert_eq!(rates.iter().sum::<f64>(), 90.0 * 16.0);
        assert_eq!(fast_octile(&rates, Better::Higher), 160.0);
        // a 208-op RANK in flight over [0.5 s, 1.5 s) counts half on each side
        let rank = [Event { end_ns: 3 * S / 2, ops: 208, latency_ns: S }];
        assert_eq!(slice_rates(&rank, &[0, S, 2 * S]), vec![104.0, 104.0]);
        // flight before the first bound or after the last is not counted
        assert_eq!(slice_rates(&rank, &[S, 2 * S]), vec![104.0]);
        // slices need not be equal: the rate is per second of each
        assert_eq!(slice_rates(&rank, &[S / 2, S, 3 * S / 2]), vec![208.0, 208.0]);
    }

    #[test]
    fn slice_latency_is_per_slice_and_has_a_floor() {
        // ten requests end in the first second (1..=10 ms), three in the next
        let at = |end_ms: u64, ms: u64| Event {
            end_ns: end_ms * 1_000_000,
            ops: 1,
            latency_ns: ms * 1_000_000,
        };
        let mut events: Vec<Event> = (1..=10).map(|i| at(i * 100, i)).collect();
        events.extend([at(1200, 50), at(1500, 60), at(2000, 70)]);
        let bounds = [0, 1_000_000_000, 2_000_000_000];
        assert_eq!(slice_latency_ms(&events, &bounds, 0.5, 3), vec![Some(5.0), Some(60.0)]);
        assert_eq!(slice_latency_ms(&events, &bounds, 0.9, 4), vec![Some(9.0), None]);
    }

    #[test]
    fn fast_octile_is_the_second_best_of_sixteen() {
        let v: Vec<f64> = (1..=16).map(f64::from).collect();
        assert_eq!(fast_octile(&v, Better::Lower), 2.0);
        assert_eq!(fast_octile(&v, Better::Higher), 15.0);
        assert_eq!(fast_octile(&v[..8], Better::Lower), 1.0);
        assert_eq!(fast_octile(&v[..9], Better::Lower), 2.0);
        assert_eq!(fast_octile(&[3.0], Better::Higher), 3.0);
    }

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let stat = "4242 (rmpi) perf (x) S 1 4242 4242 0 -1 4194560 901 0 0 0 \
                    137 25 0 0 20 0 5 0 123456 1000000 500 18446744073709551615 1 1 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(162));
        assert_eq!(parse_stat_comm(stat), Some("rmpi) perf (x"));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (a) S 1 2"), None);
    }

    #[test]
    fn schedstat_parser_reads_the_first_field() {
        assert_eq!(parse_schedstat_ns("123456789 4321 17\n"), Some(123_456_789));
        assert_eq!(parse_schedstat_ns(""), None);
    }

    #[test]
    fn vm_hwm_parser_reads_kib() {
        let status =
            "Name:\trmpi_perf\nVmPeak:\t  901234 kB\nVmHWM:\t   45678 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(45678));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn proc_readers_work_on_this_machine() {
        assert!(peak_rss_mib() > 0.0);
        let before = thread_cpu();
        let mut x = 0u64;
        for i in 0..200_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(thread_cpu() >= before && process_cpu() >= thread_cpu() - before);
    }
}
