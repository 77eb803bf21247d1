//! The timed phases: closed-loop clients against the fixture, every answer
//! kept, then the answers checked bit for bit against offline scoring.

use crate::catalog::{Drive, Workload};
use crate::fixture::{
    connect, train_config, wire, Fixture, Queries, Serving, Training, ENGINE_SEED, RANK_K,
    TRAIN_BATCH, TRAIN_EPOCH_SAMPLES,
};
use crate::spans::SpanLog;
use crate::stats::{
    cpu_of_threads_named, equal_bounds, fnv1a, process_cpu, thread_cpu, tids_named, Event,
    FNV_OFFSET,
};
use rmpi_client::Session;
use rmpi_core::{ScoringModel, TrainEvent, Trainer};
use rmpi_kg::{CsrGraph, Triple};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Clients of a saturating phase. The box has two cores and the server
/// needs one.
pub const CLIENTS: usize = 2;
/// A client that has seen this many requests fail stops sending: the run
/// has failed, and a dead session fails instantly and forever.
const MAX_FAILED_REQUESTS: u64 = 100;
/// Distinct answers recomputed offline per run. Offline scoring costs what
/// serving cost, so a cold workload's answers are sampled; every answer is
/// still compared with the other answers to the same query.
const VERIFY_SCORES: usize = 1500;
/// `RANK` answers recomputed in full (every candidate scored and ordered);
/// for the rest, the returned entries are re-scored and their order checked.
const VERIFY_FULL_RANKS: usize = 8;
/// Leading schedule positions whose checked answers form the digest.
const DIGEST_SCORES: usize = 64;

/// Kernel name of a `Session`'s reader thread (`rmpi-session-reader`, cut to
/// the 15 bytes a thread name holds).
const SESSION_READER: &str = "rmpi-session-re";

/// A `SCORE` run alternates its saturating and its serial phase this many
/// times, so that the slices of either are spread over the whole run: the
/// host is often busy for five or ten seconds at a stretch, which took out
/// all of one 8-second phase and none of the other.
pub const ROUNDS: usize = 4;
/// Equal stretches a `SCORE` phase is cut into: 16 per run and kind of phase.
pub const SLICES: usize = 4;
/// A slice of a serial phase holds at least this many requests, so that its
/// latency percentiles are order statistics of more than a handful.
pub const SLICE_MIN_REQUESTS: usize = 16;

/// Which end-to-end metrics a phase's slices give.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Gives {
    Throughput,
    Latency,
    /// A serial workload has one phase for both.
    Both,
}

/// One stretch of closed-loop load.
pub struct Phase {
    pub name: &'static str,
    pub gives: Gives,
    pub start_ns: u64,
    /// When the clients stopped sending; the last reply may land later.
    pub deadline_ns: u64,
    pub events: Vec<Event>,
    /// Boundaries of the slices every metric is taken over: equal stretches
    /// of a `SCORE` phase; whole passes over the query set of a `RANK` phase
    /// and whole epochs of training, so that every slice does the same work.
    pub bounds: Vec<u64>,
}

/// A served `RANK` answer as the client parsed it.
type Ranked = Vec<(u32, f32)>;

/// Every answer received, keyed by schedule position.
pub enum Answers {
    Scores(Vec<(u32, u32)>),
    Ranks(Vec<(u32, Ranked)>),
    /// Training has no answers; its digest is the warmed-up parameters.
    Trained {
        params_digest: u64,
        bad_events: u64,
    },
}

/// What the timed phases of one run produced.
pub struct Timed {
    /// In the order they ran.
    pub phases: Vec<Phase>,
    pub attempted: u64,
    pub failed: u64,
    /// Process CPU over the timed phases.
    pub cpu: Duration,
    /// CPU of the load-generating threads (client loops and session readers).
    pub generator_cpu: Duration,
    pub wall: Duration,
    /// Sessions the generator connected over all phases.
    pub sessions_opened: u64,
    pub answers: Answers,
}

impl Timed {
    pub fn ops(&self) -> u64 {
        self.attempted - self.failed
    }
}

#[derive(Default)]
struct ClientLog {
    events: Vec<Event>,
    attempted: u64,
    failed: u64,
    cpu: Duration,
    sessions: u64,
}

/// Send requests back to back until `deadline_ns`. `request(i)` performs
/// the i-th request and returns how many ops it carried, `Err` with the
/// same count when it failed.
fn client_loop(
    log: &mut SpanLog,
    parent: u64,
    client: u64,
    deadline_ns: u64,
    span_name: &'static str,
    mut request: impl FnMut(u64) -> Result<u64, u64>,
) -> ClientLog {
    let cpu0 = thread_cpu();
    let mut out = ClientLog::default();
    let mut failed_requests = 0;
    for i in 0.. {
        let t0 = log.now_ns();
        if t0 >= deadline_ns || failed_requests >= MAX_FAILED_REQUESTS {
            break;
        }
        // spans of one request share an op id; clients number theirs apart
        let result = log.span(span_name, parent, client << 40 | i, |_, _| request(i));
        let end_ns = log.now_ns();
        match result {
            Ok(ops) => {
                out.attempted += ops;
                out.events.push(Event { end_ns, ops, latency_ns: end_ns - t0 });
            }
            Err(ops) => {
                out.attempted += ops;
                out.failed += ops;
                failed_requests += 1;
            }
        }
    }
    out.cpu = thread_cpu() - cpu0;
    out
}

/// What `run` needs to know about a phase besides its requests.
#[derive(Clone, Copy)]
struct PhasePlan {
    name: &'static str,
    gives: Gives,
    /// Name of the span around each request.
    request_span: &'static str,
    clients: usize,
    seconds: f64,
    /// Requests per slice of a serial phase whose requests repeat with that
    /// period; `None` cuts the phase into [`SLICES`] equal stretches.
    requests_per_slice: Option<usize>,
}

/// The load generator of one serving run: the phases it has run so far and
/// the totals over them.
struct Generator<'a> {
    /// One per client of the widest phase, connected once for the run.
    sessions: &'a [Session],
    log: &'a mut SpanLog,
    totals: ClientLog,
    phases: Vec<Phase>,
}

impl Generator<'_> {
    /// Run one phase: the first `plan.clients` sessions on a thread each,
    /// every thread calling `request` back to back and keeping its answers.
    fn run<A: Send>(
        &mut self,
        plan: PhasePlan,
        answers: &mut Vec<A>,
        request: impl Fn(&Session, &mut Vec<A>) -> Result<u64, u64> + Sync,
    ) {
        let sessions = &self.sessions[..plan.clients];
        let start_ns = self.log.now_ns();
        let deadline_ns = start_ns + (plan.seconds * 1e9) as u64;
        let mut events = Vec::new();
        let totals = &mut self.totals;
        self.log.span(plan.name, 0, 0, |log, phase_span| {
            let results: Vec<(ClientLog, SpanLog, Vec<A>)> = std::thread::scope(|scope| {
                let handles: Vec<_> = sessions
                    .iter()
                    .enumerate()
                    .map(|(c, session)| {
                        let mut log = log.sibling();
                        let request = &request;
                        scope.spawn(move || {
                            let mut answers = Vec::new();
                            let out = client_loop(
                                &mut log,
                                phase_span,
                                c as u64 + 1,
                                deadline_ns,
                                plan.request_span,
                                |_| request(session, &mut answers),
                            );
                            (out, log, answers)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("client thread")).collect()
            });
            for (out, client_log, client_answers) in results {
                events.extend(out.events);
                totals.attempted += out.attempted;
                totals.failed += out.failed;
                totals.cpu += out.cpu;
                log.absorb(client_log);
                answers.extend(client_answers);
            }
        });
        events.sort_unstable_by_key(|e| e.end_ns);
        let bounds = match plan.requests_per_slice {
            None => equal_bounds(start_ns, deadline_ns, SLICES),
            Some(n) => std::iter::once(start_ns)
                .chain(events.chunks_exact(n).map(|pass| pass[n - 1].end_ns))
                .collect(),
        };
        let PhasePlan { name, gives, .. } = plan;
        self.phases.push(Phase { name, gives, start_ns, deadline_ns, events, bounds });
    }
}

/// Split of a serving run between its saturating and its serial phase.
const SATURATE_SHARE: f64 = 0.55;
const SERIAL_SHARE: f64 = 0.40;

fn drive_serving(w: &Workload, fx: &Serving, seconds: f64, log: &mut SpanLog) -> Timed {
    let cpu0 = process_cpu();
    let wall0 = std::time::Instant::now();
    // the router's shard sessions have reader threads too; those are the
    // program's, the ones that appear now are the generator's
    let program_readers = tids_named(SESSION_READER);
    let clients = if matches!(w.drive, Drive::Score { .. }) { CLIENTS } else { 1 };
    let sessions: Vec<Session> = (0..clients).map(|_| connect(fx.addr())).collect();
    let mut generator =
        Generator { sessions: &sessions, log, totals: ClientLog::default(), phases: Vec::new() };
    let n = fx.queries.len();
    let answers = match (&fx.queries, w.drive) {
        (Queries::Score(targets), Drive::Score { depth, .. }) => {
            let mut answers: Vec<(u32, u32)> = Vec::new();
            let saturate = PhasePlan {
                name: "saturate",
                gives: Gives::Throughput,
                request_span: "client.score_many",
                clients: CLIENTS,
                seconds: seconds * SATURATE_SHARE / ROUNDS as f64,
                requests_per_slice: None,
            };
            let serial = PhasePlan {
                name: "serial",
                gives: Gives::Latency,
                request_span: "client.score",
                clients: 1,
                seconds: seconds * SERIAL_SHARE / ROUNDS as f64,
                requests_per_slice: None,
            };
            for _ in 0..ROUNDS {
                generator.run(saturate, &mut answers, |session, answers| {
                    let first = fx.cursor.fetch_add(depth, Ordering::Relaxed);
                    let batch: Vec<_> =
                        (first..first + depth).map(|i| wire(targets[i % n])).collect();
                    let scores = session.score_many(&batch).map_err(|_| depth as u64)?;
                    answers.extend(
                        scores
                            .iter()
                            .enumerate()
                            .map(|(j, s)| (((first + j) % n) as u32, s.to_bits())),
                    );
                    Ok(depth as u64)
                });
                generator.run(serial, &mut answers, |session, answers| {
                    let i = fx.cursor.fetch_add(1, Ordering::Relaxed) % n;
                    let (h, r, t) = wire(targets[i]);
                    let s = session.score(h, r, t).map_err(|_| 1u64)?;
                    answers.push((i as u32, s.to_bits()));
                    Ok(1)
                });
            }
            Answers::Scores(answers)
        }
        (Queries::Rank(queries), Drive::Rank { .. }) => {
            let width = fx.rank_candidates().len() as u64;
            let mut answers: Vec<(u32, Ranked)> = Vec::new();
            let serial = PhasePlan {
                name: "serial",
                gives: Gives::Both,
                request_span: "client.rank",
                clients: 1,
                seconds: seconds * (SATURATE_SHARE + SERIAL_SHARE),
                // the queries repeat in the same order: a slice is as many
                // whole passes over them as hold SLICE_MIN_REQUESTS
                requests_per_slice: Some(n * SLICE_MIN_REQUESTS.div_ceil(n)),
            };
            generator.run(serial, &mut answers, |session, answers| {
                let i = fx.cursor.fetch_add(1, Ordering::Relaxed) % n;
                let (head, relation) = queries[i];
                let ranked = session.rank_tails(head.0, relation.0, RANK_K).map_err(|_| width)?;
                answers.push((i as u32, ranked));
                Ok(width)
            });
            Answers::Ranks(answers)
        }
        _ => unreachable!("a workload's queries match its drive"),
    };
    let cpu = process_cpu() - cpu0;
    let Generator { mut totals, phases, .. } = generator;
    totals.cpu += cpu_of_threads_named(SESSION_READER, &program_readers);
    totals.sessions = sessions.len() as u64;
    drop(sessions);
    Timed {
        phases,
        attempted: totals.attempted,
        failed: totals.failed,
        cpu,
        generator_cpu: totals.cpu,
        wall: wall0.elapsed(),
        sessions_opened: totals.sessions,
        answers,
    }
}

fn params_digest(model: &impl ScoringModel) -> u64 {
    let store = model.param_store();
    store.ids().fold(FNV_OFFSET, |h, id| {
        store.value(id).data().iter().fold(h, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
    })
}

fn drive_training(fx: &mut Training, seconds: f64, log: &mut SpanLog) -> Timed {
    let params_digest = params_digest(&fx.model);
    // whole epochs only: size the run from the warm-up epoch's pace
    let budget = seconds * (SATURATE_SHARE + SERIAL_SHARE);
    let epoch_s = fx.warm_s_per_sample * TRAIN_EPOCH_SAMPLES as f64;
    let epochs = ((budget / epoch_s) as usize).max(2);
    let cfg = train_config(fx.seed, epochs, TRAIN_EPOCH_SAMPLES);

    let mut events = Vec::new();
    let mut bad_events = 0u64;
    let cpu0 = process_cpu();
    let wall0 = std::time::Instant::now();
    let start_ns = log.now_ns();
    let mut last_ns = start_ns;
    let mut epoch_start_ns = start_ns;
    let mut epoch_spans: Vec<(u64, u64, u64)> = Vec::new();
    let mut bounds = vec![start_ns];
    {
        let clock = log.sibling();
        let on_event = |ev: &TrainEvent| {
            let now = clock.now_ns();
            match ev {
                // a batch's latency is the gap since the previous BatchEnd,
                // so an epoch's first batch also carries the validation pass
                // before it — the loop's caller waits for that too
                TrainEvent::BatchEnd { .. } => {
                    let latency_ns = now - last_ns;
                    events.push(Event { end_ns: now, ops: TRAIN_BATCH as u64, latency_ns });
                    last_ns = now;
                }
                TrainEvent::EpochEnd { epoch, .. } => {
                    epoch_spans.push((*epoch as u64, epoch_start_ns, now));
                    epoch_start_ns = now;
                    bounds.push(now);
                }
                TrainEvent::NonFinite { .. }
                | TrainEvent::BatchSkipped { .. }
                | TrainEvent::BatchFailed { .. }
                | TrainEvent::ValidationFailed { .. }
                | TrainEvent::Aborted { .. } => bad_events += 1,
                _ => {}
            }
        };
        let report = Trainer::new(cfg).on_event(on_event).train(
            &mut fx.model,
            &fx.train.graph,
            &fx.train.targets,
            &fx.train.valid,
        );
        bad_events += report.skipped_batches as u64 + u64::from(report.aborted);
    }
    let deadline_ns = log.now_ns();
    let cpu = process_cpu() - cpu0;
    let phase_span = log.record("train", 0, 0, start_ns, deadline_ns);
    for (epoch, start, end) in epoch_spans {
        let epoch_span = log.record("core.epoch", phase_span, epoch, start, end);
        for e in events.iter().filter(|e| e.end_ns > start && e.end_ns <= end) {
            log.record("core.batch", epoch_span, epoch, e.end_ns - e.latency_ns, e.end_ns);
        }
    }
    let attempted = events.iter().map(|e| e.ops).sum();
    Timed {
        phases: vec![Phase {
            name: "train",
            gives: Gives::Both,
            start_ns,
            deadline_ns,
            events,
            bounds,
        }],
        attempted,
        failed: (bad_events * TRAIN_BATCH as u64).min(attempted),
        cpu,
        generator_cpu: Duration::ZERO,
        wall: wall0.elapsed(),
        sessions_opened: 0,
        answers: Answers::Trained { params_digest, bad_events },
    }
}

/// Run the workload's timed phases for about `seconds`.
pub fn drive(w: &Workload, fx: &mut Fixture, seconds: f64, log: &mut SpanLog) -> Timed {
    match fx {
        Fixture::Serving(fx) => drive_serving(w, fx, seconds, log),
        Fixture::Training(fx) => drive_training(fx, seconds, log),
    }
}

/// The engine's rank order: score descending by `total_cmp`, entity id
/// ascending among equals.
fn rank_order(a: &(u32, f32), b: &(u32, f32)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

fn same_ranked(a: &Ranked, b: &Ranked) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Check every answer of the run and return the run's digest.
///
/// Answers to one query must agree with each other bit for bit (all of
/// them are checked); answers are recomputed offline —
/// `score_sample(prepare_eval_sample(..))` on the reference graph, which
/// for the store-backed engine is the same world held in RAM — for every
/// distinct query of a hot workload and a strided sample of a cold one.
pub fn verify(fx: &Fixture, timed: &Timed) -> Result<u64, String> {
    let fx = match (fx, &timed.answers) {
        (Fixture::Training(_), Answers::Trained { params_digest, bad_events }) => {
            return if *bad_events == 0 {
                Ok(*params_digest)
            } else {
                Err(format!("{bad_events} non-finite, skipped or failed training events"))
            };
        }
        (Fixture::Serving(fx), _) => fx,
        _ => unreachable!("training answers come from a training fixture"),
    };
    let csr: CsrGraph = fx.reference_graph();
    let offline = |t: Triple| {
        fx.model.score_sample(&fx.model.prepare_eval_sample(&csr, t, ENGINE_SEED)).to_bits()
    };
    let mut digest = FNV_OFFSET;
    match (&timed.answers, &fx.queries) {
        (Answers::Scores(answers), Queries::Score(targets)) => {
            let mut by_query: BTreeMap<u32, u32> = BTreeMap::new();
            for &(i, bits) in answers {
                let first = *by_query.entry(i).or_insert(bits);
                if first != bits {
                    return Err(format!("target {i} was served {first:#x} and then {bits:#x}"));
                }
            }
            if by_query.len() < DIGEST_SCORES.min(targets.len()) {
                return Err(format!("only {} distinct targets were answered", by_query.len()));
            }
            let stride = (by_query.len() / VERIFY_SCORES).max(1);
            for (k, (&i, &bits)) in by_query.iter().enumerate() {
                if k < DIGEST_SCORES || k % stride == 0 {
                    let want = offline(targets[i as usize]);
                    if want != bits {
                        return Err(format!(
                            "target {i} {:?}: served {bits:#x}, offline {want:#x}",
                            targets[i as usize]
                        ));
                    }
                }
                if k < DIGEST_SCORES {
                    digest = fnv1a(fnv1a(digest, &i.to_le_bytes()), &bits.to_le_bytes());
                }
            }
        }
        (Answers::Ranks(answers), Queries::Rank(queries)) => {
            let candidates = fx.rank_candidates();
            let mut by_query: BTreeMap<u32, &Ranked> = BTreeMap::new();
            for (i, ranked) in answers {
                let first = *by_query.entry(*i).or_insert(ranked);
                if !same_ranked(first, ranked) {
                    return Err(format!("rank query {i} was answered differently twice"));
                }
            }
            if by_query.len() < VERIFY_FULL_RANKS.min(queries.len()) {
                return Err(format!("only {} distinct rank queries were answered", by_query.len()));
            }
            for (k, (&i, &ranked)) in by_query.iter().enumerate() {
                let (head, relation) = queries[i as usize];
                let score = |tail: u32| {
                    f32::from_bits(offline(Triple {
                        head,
                        relation,
                        tail: rmpi_kg::EntityId(tail),
                    }))
                };
                if ranked.len() != RANK_K.min(candidates.len()) {
                    return Err(format!("rank query {i} returned {} entries", ranked.len()));
                }
                let want: Ranked = if k < VERIFY_FULL_RANKS {
                    let mut all: Ranked = candidates.iter().map(|e| (e.0, score(e.0))).collect();
                    all.sort_unstable_by(rank_order);
                    all.truncate(RANK_K);
                    all
                } else {
                    // the entries themselves, re-scored and re-ordered
                    let mut own: Ranked = ranked.iter().map(|&(e, _)| (e, score(e))).collect();
                    own.sort_by(rank_order);
                    own
                };
                if !same_ranked(ranked, &want) {
                    return Err(format!(
                        "rank query {i} ({head}, {relation}): served {ranked:?}, offline {want:?}"
                    ));
                }
                if k < VERIFY_FULL_RANKS {
                    for (e, s) in ranked {
                        digest = fnv1a(fnv1a(digest, &e.to_le_bytes()), &s.to_bits().to_le_bytes());
                    }
                }
            }
        }
        _ => unreachable!("answers match the workload's queries"),
    }
    Ok(digest)
}
