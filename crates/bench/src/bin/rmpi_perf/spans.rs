//! The harness's own span recorder. Nothing inside the library crates is
//! instrumented: spans are recorded here, around the calls the benchmark
//! makes into each crate's public functions. They are kept in memory and
//! written as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One timed interval. `parent` is the span that caused this one (0 for a
/// root); spans of one request share `op`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span ids are unique across the logs of all threads.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// One thread's spans. Each client thread owns a log, so recording takes no
/// lock; the logs are merged after the threads have joined. A disabled log
/// records nothing — that is the untraced run.
pub struct SpanLog {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        SpanLog { epoch, enabled, spans: Vec::new() }
    }

    /// Another log with this one's epoch and switch, for a second thread.
    pub fn sibling(&self) -> Self {
        SpanLog::new(self.epoch, self.enabled)
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` as a child span of `parent` and return its value with the
    /// span's id (0 when disabled).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        f: impl FnOnce(&mut SpanLog, u64) -> T,
    ) -> T {
        if !self.enabled {
            return f(self, 0);
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(self, id);
        let end_ns = self.now_ns();
        self.spans.push(Span { id, parent, op, name, start_ns, end_ns });
        out
    }

    /// Record a span whose ends were observed elsewhere (trainer events).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        self.spans.push(Span { id, parent, op, name, start_ns, end_ns });
        id
    }

    /// Take over another thread's spans.
    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean duration in µs of the spans called `name`.
    pub fn mean_us(&self, name: &str) -> f64 {
        let (n, total) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.duration_ns()));
        assert!(n > 0, "no span named {name} was recorded");
        total as f64 / n as f64 / 1e3
    }

    /// One JSON object per line: `{"id":..,"parent":..,"op":..,"name":"..","start_ns":..,"end_ns":..}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// direct children cover. Children that overlap each other (two client
/// threads under one phase) are counted once; a child is clipped to its
/// parent's interval.
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// For every span that has children: the summed duration of its direct
/// children, by child name.
pub fn child_totals_ns(spans: &[Span]) -> BTreeMap<u64, BTreeMap<&'static str, u64>> {
    let mut totals: BTreeMap<u64, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *totals.entry(s.parent).or_default().entry(s.name).or_default() += s.duration_ns();
    }
    totals
}

/// Per span name: `(count, total ns, self ns)`, in name order.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let row = by_name.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.duration_ns();
        row.2 += selfs[&s.id];
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, op: 1, name: "t", start_ns, end_ns }
    }

    #[test]
    fn self_time_is_parent_minus_covered_interval() {
        let spans =
            [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 90), span(4, 3, 60, 70)];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[&1], 100 - 20 - 40);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 40 - 10, "a grandchild reduces its parent, not its grandparent");
        assert_eq!(selfs[&4], 10);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        // two client threads under one phase: [10,60) and [40,90) cover [10,90)
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 1, 40, 90)];
        assert_eq!(self_times_ns(&spans)[&1], 20);
        // a child nested inside its sibling adds nothing
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 90), span(3, 1, 20, 30)];
        assert_eq!(self_times_ns(&spans)[&1], 20);
        // a child that outlives its parent is clipped
        let spans = [span(1, 0, 0, 100), span(2, 1, 80, 150)];
        assert_eq!(self_times_ns(&spans)[&1], 80);
    }

    #[test]
    fn disabled_log_records_nothing_and_still_runs_the_work() {
        let mut log = SpanLog::new(Instant::now(), false);
        let v = log.span("a", 0, 1, |log, id| {
            assert_eq!(id, 0);
            log.span("b", id, 1, |_, _| 7)
        });
        assert_eq!(v, 7);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn enabled_log_nests_and_summarizes() {
        let mut log = SpanLog::new(Instant::now(), true);
        log.span("outer", 0, 9, |log, outer| {
            log.span("inner", outer, 9, |_, _| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let mut other = log.sibling();
        other.record("inner", 0, 10, 5, 1005);
        log.absorb(other);
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(child_totals_ns(spans)[&outer.id]["inner"], inner.duration_ns());
        let sum = summarize(spans);
        assert_eq!(sum["inner"].0, 2);
        assert_eq!(sum["outer"].2, outer.duration_ns() - inner.duration_ns());
        assert!(log.mean_us("inner") > 500.0);
    }
}
