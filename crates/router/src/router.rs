//! The scatter-gather core: shard fan-out, deadline budgets, hedging and
//! the partial-result policy.
//!
//! A [`Router`] owns one cached pipelined [`Session`] and one circuit
//! breaker per backend shard (plus an optional standby). A `RANK` is served
//! by splitting the configured candidate list into per-shard slices
//! ([`crate::shard_slices`]), scoring each slice on its shard as one
//! `DEADLINE`-hinted `SCORE` batch, and merging the parts with the engine's
//! exact comparator ([`crate::merge_ranked`]).
//!
//! # One thread per rank: the caller's
//!
//! A rank starts no thread. Every shard call is a
//! [`Session::submit_scores`] whose responder sends the outcome into one
//! channel per rank, and the calling thread runs one loop over that
//! channel: a reply resolves its slice (or, on a primary failure, sends the
//! slice to the standby), a due hedge timer submits the slice to the
//! standby, and the deadline ends the loop — every slice still unresolved
//! is lost. An abandoned call's submission is dropped with it, so its late
//! reply is dropped by the session and nothing waits for it.
//!
//! # Deadline budget
//!
//! Every rank runs under one end-to-end deadline. Each shard call is given
//! whatever remains of the budget at the moment it goes on the wire, and
//! that travels as a `DEADLINE <ms>` hint the backend batcher honors — so a
//! request that cannot be answered in time is shed upstream (`ERR deadline
//! expired`) instead of scored late. Connects block the calling thread, so
//! slices whose shard holds a live session are submitted first, and each
//! connect plus `PROTO 2` handshake the dispatch makes gets an equal share
//! of the remaining budget with the connects still to come: one shard that
//! accepts but never negotiates costs only its own share.
//!
//! # Hedging
//!
//! Each shard's observed latency feeds a per-shard histogram; once warm, a
//! primary call that exceeds the shard's p99 triggers a duplicate request to
//! the standby (`router.hedges.count`). Both calls stay in flight and
//! whichever answers first wins — bit-identical scores make the race
//! benign. Before the histogram warms up a configurable floor
//! ([`RouterConfig::hedge_after`]) stands in for the p99.
//!
//! # Losing a shard mid-rank
//!
//! A failed shard call (connect refused, session death, shed deadline) is
//! first retried on the standby (bounded by a per-shard rescue budget). If
//! no standby can cover the slice, [`RouterConfig::policy`] decides:
//! `Fail` turns the whole rank into an error; `Partial` merges the
//! surviving slices and reports how much of the candidate set the answer
//! covers — the merged top-k is still bit-identical to ranking the
//! surviving subset offline.

use crate::merge;
use rmpi_client::{
    BreakerConfig, BreakerState, CircuitBreaker, ClientConfig, ClientError, RetryBudget, Session,
    Submission,
};
use rmpi_obs::{Counter, Histogram, MetricsRegistry};
use std::net::SocketAddr;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Samples a shard's histogram needs before its p99 replaces
/// [`RouterConfig::hedge_after`] as the hedge threshold.
const HEDGE_MIN_SAMPLES: u64 = 16;

/// What to do when a shard's slice cannot be scored by anyone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartialPolicy {
    /// The rank fails: callers prefer an error over an incomplete answer.
    Fail,
    /// The rank degrades: merge the surviving slices and tag the response
    /// `partial <covered>/<total>` so callers know what it covers.
    Partial,
}

/// Router tuning. Build with [`RouterConfig::new`] and adjust fields.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Backend replicas, one candidate slice each (fan-out width).
    pub(crate) shards: Vec<SocketAddr>,
    /// Optional standby replica: target of hedged duplicates and of rescue
    /// retries for failed shards. Must hold the same model as the shards.
    pub(crate) standby: Option<SocketAddr>,
    /// The global candidate set a `RANK` ranks over, split across shards.
    pub(crate) candidates: Vec<u32>,
    /// Degradation policy when a slice is lost mid-rank.
    pub(crate) policy: PartialPolicy,
    /// End-to-end budget per rank; shard calls get whatever remains.
    pub(crate) deadline: Duration,
    /// Hedge threshold before a shard's latency histogram warms up.
    pub(crate) hedge_after: Duration,
    /// Per-connection client tuning. A shard session's connect and
    /// handshake are further bounded by the rank's remaining budget, and
    /// `client.budget` shapes each shard's rescue/hedge budget: every
    /// standby attempt withdraws one token, every primary success deposits,
    /// so a flapping shard cannot double the standby's traffic indefinitely.
    pub(crate) client: ClientConfig,
    /// Circuit-breaker shape applied to every shard and the standby.
    pub breaker: BreakerConfig,
}

impl RouterConfig {
    /// A config over `shards` ranking `candidates`, with `Partial` policy, a
    /// 2 s end-to-end deadline, a 250 ms cold-start hedge threshold and
    /// default client/breaker/budget tuning.
    pub fn new(shards: Vec<SocketAddr>, candidates: Vec<u32>) -> RouterConfig {
        RouterConfig {
            shards,
            standby: None,
            candidates,
            policy: PartialPolicy::Partial,
            deadline: Duration::from_secs(2),
            hedge_after: Duration::from_millis(250),
            client: ClientConfig::default(),
            breaker: BreakerConfig::default(),
        }
    }

    /// Set the standby replica.
    pub fn with_standby(mut self, standby: SocketAddr) -> RouterConfig {
        self.standby = Some(standby);
        self
    }

    /// Set the degradation policy.
    pub fn with_policy(mut self, policy: PartialPolicy) -> RouterConfig {
        self.policy = policy;
        self
    }

    /// Set the end-to-end rank deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> RouterConfig {
        self.deadline = deadline;
        self
    }

    /// Set the cold-start hedge threshold.
    pub fn with_hedge_after(mut self, hedge_after: Duration) -> RouterConfig {
        self.hedge_after = hedge_after;
        self
    }
}

/// A router-level failure (the per-shard causes are folded into the text).
#[derive(Debug)]
pub enum RouterError {
    /// The end-to-end budget ran out before the rank completed.
    DeadlineExpired,
    /// Under [`PartialPolicy::Fail`]: at least one slice was lost.
    ShardsLost {
        /// Shards whose slice could not be scored.
        lost: usize,
        /// Total shards in the fan-out.
        total: usize,
        /// The last per-shard failure, for diagnostics.
        last: String,
    },
    /// Even under [`PartialPolicy::Partial`] nothing answered.
    NoCoverage,
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // same wording the backends use, so router clients classify it
            // as transient exactly like a backend deadline shed
            RouterError::DeadlineExpired => write!(f, "deadline expired"),
            RouterError::ShardsLost { lost, total, last } => {
                write!(f, "shards lost mid-rank: {lost}/{total} ({last})")
            }
            RouterError::NoCoverage => write!(f, "no shard answered"),
        }
    }
}

impl std::error::Error for RouterError {}

/// A merged ranking and how much of the candidate set it covers.
#[derive(Clone, Debug, PartialEq)]
pub struct RankOutcome {
    /// Up to `k` `(entity, score)` pairs, best first.
    pub ranked: Vec<(u32, f32)>,
    /// Candidates actually scored (== `total` unless shards were lost).
    pub covered: usize,
    /// Size of the configured candidate set.
    pub total: usize,
}

impl RankOutcome {
    /// Whether any candidate slice was lost.
    pub fn is_partial(&self) -> bool {
        self.covered < self.total
    }
}

/// Breaker plus rescue budget, guarded together (both are `&mut` APIs).
struct ShardControl {
    breaker: CircuitBreaker,
    budget: RetryBudget,
}

/// One backend endpoint: cached session, breaker/budget, latency histogram.
struct Shard {
    addr: SocketAddr,
    session: Mutex<Option<Arc<Session>>>,
    control: Mutex<ShardControl>,
    latency: Histogram,
}

impl Shard {
    fn new(addr: SocketAddr, cfg: &RouterConfig, latency: Histogram) -> Shard {
        Shard {
            addr,
            session: Mutex::new(None),
            control: Mutex::new(ShardControl {
                breaker: CircuitBreaker::new(cfg.breaker.clone()),
                budget: RetryBudget::new(cfg.client.budget.clone()),
            }),
            latency,
        }
    }

    fn control(&self) -> std::sync::MutexGuard<'_, ShardControl> {
        self.control.lock().expect("shard control")
    }

    /// The cached session, if it can still serve.
    fn live_session(&self) -> Option<Arc<Session>> {
        self.session.lock().expect("shard session").clone().filter(|s| s.is_alive())
    }
}

/// The scatter-gather router core (see module docs). All methods take
/// `&self`; one `Router` serves any number of front-end connections.
pub struct Router {
    cfg: RouterConfig,
    shards: Vec<Shard>,
    standby: Option<Shard>,
    registry: Arc<MetricsRegistry>,
    requests: Counter,
    shard_errors: Counter,
    hedges: Counter,
    partials: Counter,
    rank_latency: Histogram,
}

impl Router {
    /// A router recording metrics into `registry`.
    pub fn with_registry(cfg: RouterConfig, registry: Arc<MetricsRegistry>) -> Router {
        assert!(!cfg.shards.is_empty(), "Router needs at least one shard");
        assert!(!cfg.candidates.is_empty(), "Router needs a candidate set");
        let shards = cfg
            .shards
            .iter()
            .enumerate()
            .map(|(i, &addr)| {
                Shard::new(addr, &cfg, registry.histogram(&format!("router.shard{i}.us")))
            })
            .collect();
        let standby =
            cfg.standby.map(|addr| Shard::new(addr, &cfg, registry.histogram("router.standby.us")));
        Router {
            shards,
            standby,
            requests: registry.counter("router.requests.count"),
            shard_errors: registry.counter("router.shard_errors.count"),
            hedges: registry.counter("router.hedges.count"),
            partials: registry.counter("router.partial_responses.count"),
            rank_latency: registry.histogram("router.rank.us"),
            registry,
            cfg,
        }
    }

    /// The router's configuration.
    pub(crate) fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// The registry this router records into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Breaker state per shard, in configuration order (observability).
    pub(crate) fn shard_breaker_states(&self) -> Vec<BreakerState> {
        let now = Instant::now();
        self.shards.iter().map(|s| s.control().breaker.state(now)).collect()
    }

    /// Whether a standby replica is configured.
    pub(crate) fn has_standby(&self) -> bool {
        self.standby.is_some()
    }

    /// Rank the configured candidate set for `(head, relation, ?)` under the
    /// configured end-to-end deadline.
    pub fn rank(&self, head: u32, relation: u32, k: usize) -> Result<RankOutcome, RouterError> {
        self.rank_deadline(head, relation, k, self.cfg.deadline)
    }

    /// Rank under an explicit end-to-end budget (the front end uses this to
    /// honor a client's `DEADLINE` hint, capped at the configured deadline).
    pub(crate) fn rank_deadline(
        &self,
        head: u32,
        relation: u32,
        k: usize,
        budget: Duration,
    ) -> Result<RankOutcome, RouterError> {
        self.requests.inc();
        let t0 = Instant::now();
        let parts = merge::shard_slices(&self.cfg.candidates, self.shards.len());
        let slices = parts.iter().map(|part| Slice {
            triples: part.iter().map(|&t| (head, relation, t)).collect(),
            // an empty slice (fewer candidates than shards) needs no call
            outcome: part.is_empty().then(|| Ok(Vec::new())),
            ..Slice::default()
        });
        let (tx, rx) = mpsc::channel();
        let mut gather = Gather {
            router: self,
            slices: slices.collect(),
            deadline: t0 + budget,
            tx,
            connects: 0,
        };
        gather.run(&rx);

        let total = self.cfg.candidates.len();
        let mut entries: Vec<(u32, f32)> = Vec::with_capacity(total);
        let mut covered = 0usize;
        let mut lost = 0usize;
        let mut last_err = String::new();
        for (part, slice) in parts.iter().zip(gather.slices) {
            match slice.outcome.expect("the gather loop resolves every slice") {
                Ok(scores) => {
                    covered += part.len();
                    entries.extend(part.iter().copied().zip(scores));
                }
                Err(reason) => {
                    lost += 1;
                    last_err = reason;
                }
            }
        }
        if lost > 0 && self.cfg.policy == PartialPolicy::Fail {
            return Err(RouterError::ShardsLost { lost, total: self.shards.len(), last: last_err });
        }
        if covered == 0 {
            return Err(RouterError::NoCoverage);
        }
        if lost > 0 {
            self.partials.inc();
        }
        let ranked = merge::merge_ranked(entries, k);
        self.rank_latency.record_duration(t0.elapsed());
        Ok(RankOutcome { ranked, covered, total })
    }

    /// The replica a call of slice `i` goes to: its shard, or the standby.
    fn replica(&self, i: usize, leg: usize) -> &Shard {
        if leg == PRIMARY {
            &self.shards[i]
        } else {
            self.standby.as_ref().expect("a standby call needs a standby")
        }
    }

    /// The cached session for an endpoint, reconnecting when absent or dead
    /// within `budget`. The connect runs outside the cache lock, so a rank
    /// never waits on another rank's connect.
    fn session_for(&self, shard: &Shard, budget: Duration) -> Result<Arc<Session>, ClientError> {
        if let Some(live) = shard.live_session() {
            return Ok(live);
        }
        let fresh = Arc::new(Session::connect_within(shard.addr, &self.cfg.client, budget)?);
        *shard.session.lock().expect("shard session") = Some(Arc::clone(&fresh));
        Ok(fresh)
    }

    /// This shard's hedge threshold: its observed p99 once the histogram is
    /// warm (floored at 1 ms), the configured floor before that.
    fn hedge_threshold(&self, shard: &Shard) -> Duration {
        let s = shard.latency.summary();
        if s.count >= HEDGE_MIN_SAMPLES {
            Duration::from_micros(s.p99.max(1_000))
        } else {
            self.cfg.hedge_after
        }
    }

    fn note_shard_success(&self, shard: &Shard, t0: Instant) {
        shard.latency.record_duration(t0.elapsed());
        let mut c = shard.control();
        c.breaker.record_success();
        c.budget.record_success();
    }

    /// A wire failure: counted in `router.shard_errors` and on the breaker.
    fn note_shard_failure(&self, shard: &Shard) {
        self.shard_errors.inc();
        shard.control().breaker.record_failure(Instant::now());
    }
}

/// Index of a slice's call on its shard, in [`Slice::calls`] and replies.
const PRIMARY: usize = 0;
/// Index of a slice's call on the standby (a hedge or a rescue).
const STANDBY: usize = 1;

/// A shard call's outcome — slice, call index, scores — as its responder
/// sends it to the rank's loop.
type Reply = (usize, usize, Result<Vec<f32>, ClientError>);

/// One shard call on the wire. Dropping it abandons the call: its
/// submission deregisters, so a late reply is dropped by the session.
struct Call {
    _submission: Submission,
    /// Keeps the session open while the call is out, even if the shard's
    /// cache has moved on to a newer one.
    _session: Arc<Session>,
    t0: Instant,
    /// Admitted as its breaker's half-open probe, so it must record an
    /// outcome however it ends.
    probe: bool,
}

/// One slice's progress through a rank.
#[derive(Default)]
struct Slice {
    triples: Vec<(u32, u32, u32)>,
    /// The calls out on the shard and on the standby.
    calls: [Option<Call>; 2],
    /// The standby has had its one attempt at this slice (hedge or rescue).
    standby_tried: bool,
    /// When the primary call gets hedged, while it is out and unhedged.
    hedge_at: Option<Instant>,
    /// What went wrong so far, for the lost-shard diagnostics.
    cause: String,
    outcome: Option<Result<Vec<f32>, String>>,
}

/// One rank in flight: its slices, its deadline and the channel every
/// shard call answers on.
struct Gather<'r> {
    router: &'r Router,
    slices: Vec<Slice>,
    deadline: Instant,
    tx: mpsc::Sender<Reply>,
    /// Primary connects the dispatch has still to make after the one under
    /// way. A connect blocks this thread, so it gets an equal share of the
    /// remaining budget with those still to come: a peer that never
    /// negotiates cannot spend the other slices' time.
    connects: usize,
}

impl Gather<'_> {
    /// Dispatch every slice, then wait for replies and hedge timers until
    /// every slice is resolved or the deadline passes.
    fn run(&mut self, rx: &mpsc::Receiver<Reply>) {
        // slices whose shard holds a live session go on the wire first, so
        // no connect holds them back
        let (warm, cold): (Vec<usize>, Vec<usize>) = (0..self.slices.len())
            .filter(|&i| self.slices[i].outcome.is_none())
            .partition(|&i| self.router.shards[i].live_session().is_some());
        self.connects = cold.len();
        for i in warm {
            self.start(i, PRIMARY);
        }
        for i in cold {
            self.connects -= 1;
            self.start(i, PRIMARY);
        }
        while self.slices.iter().any(|s| s.outcome.is_none()) {
            let now = Instant::now();
            for i in 0..self.slices.len() {
                if now < self.deadline && self.slices[i].hedge_at.is_some_and(|at| at <= now) {
                    // the primary blew past its hedge threshold: fire the
                    // duplicate at the standby, the primary keeps racing
                    let slice = &mut self.slices[i];
                    slice.hedge_at = None;
                    slice.standby_tried = true;
                    self.start(i, STANDBY);
                }
            }
            let wake =
                self.slices.iter().filter_map(|s| s.hedge_at).fold(self.deadline, Instant::min);
            // a reply already queued is taken even when the wait is zero
            match rx.recv_timeout(wake.saturating_duration_since(now)) {
                Ok(reply) => self.on_reply(reply),
                Err(_) if Instant::now() >= self.deadline => break,
                Err(_) => {}
            }
        }
        // the deadline passed: every unresolved slice is lost, and each
        // call still out is its replica's failure
        let router = self.router;
        for (i, slice) in self.slices.iter_mut().enumerate() {
            if slice.outcome.is_none() {
                for leg in [PRIMARY, STANDBY] {
                    if slice.calls[leg].take().is_some() {
                        router.note_shard_failure(router.replica(i, leg));
                    }
                }
                slice.outcome = Some(Err("deadline expired waiting for shard".into()));
            }
        }
    }

    /// Put slice `i` on its shard's wire (`PRIMARY`) or the standby's; if
    /// that is not possible, the slice fails over or is lost.
    fn start(&mut self, i: usize, leg: usize) {
        if let Err(cause) = self.try_start(i, leg) {
            self.fail(i, cause);
        }
    }

    fn try_start(&mut self, i: usize, leg: usize) -> Result<(), String> {
        let router = self.router;
        let replica = router.replica(i, leg);
        let now = Instant::now();
        // the spent budget is checked BEFORE the breaker: `allows()` can
        // consume the single half-open probe slot, and a probe admitted but
        // never resolved with an outcome would wedge the breaker HalfOpen
        // forever (every later call rejected until restart)
        if now >= self.deadline {
            return Err("deadline expired before dispatch".into());
        }
        if leg == STANDBY {
            if !router.shards[i].control().budget.try_withdraw() {
                return Err("rescue budget dry".into());
            }
            if self.slices[i].calls[PRIMARY].is_some() {
                router.hedges.inc();
            }
        }
        let probe = {
            let mut c = replica.control();
            let probe = c.breaker.state(now) == BreakerState::HalfOpen;
            // open breaker: the replica is known-bad, skip the wire entirely
            c.breaker.allows(now).then_some(probe).ok_or("circuit breaker open")?
        };
        let share = (self.deadline - now) / (self.connects + 1) as u32;
        let session = router.session_for(replica, share).map_err(|e| {
            router.note_shard_failure(replica);
            format!("connect: {e}")
        })?;
        // what remains of the budget travels as the `DEADLINE` hint
        let t0 = Instant::now();
        let tx = self.tx.clone();
        let submission = session.submit_scores(
            &self.slices[i].triples,
            self.deadline.saturating_duration_since(t0),
            // the rank may be over: then nobody needs the reply
            move |scores| {
                let _ = tx.send((i, leg, scores));
            },
        );
        let slice = &mut self.slices[i];
        if leg == PRIMARY && router.standby.is_some() {
            let at = t0 + router.hedge_threshold(replica);
            slice.hedge_at = (at < self.deadline).then_some(at);
        }
        slice.calls[leg] = Some(Call { _submission: submission, _session: session, t0, probe });
        Ok(())
    }

    fn on_reply(&mut self, (i, leg, result): Reply) {
        let router = self.router;
        let replica = router.replica(i, leg);
        let slice = &mut self.slices[i];
        // no call: it was abandoned and its verdict already recorded
        let Some(call) = slice.calls[leg].take() else { return };
        if leg == PRIMARY {
            slice.hedge_at = None;
        }
        let scores = match result {
            Ok(scores) => scores,
            Err(e) => {
                router.note_shard_failure(replica);
                let who = if leg == PRIMARY { "shard" } else { "standby" };
                return self.fail(i, format!("{who}: {e}"));
            }
        };
        router.note_shard_success(replica, call.t0);
        let now = Instant::now();
        // the race is over; the loser's late reply is dropped with its call
        if slice.calls[PRIMARY].take().is_some() {
            // the primary never answered inside its hedge window: count that
            // against its breaker so a wedged shard eventually trips (and a
            // half-open probe is never left dangling) — but not as a wire
            // error, the hedge covered it
            router.shards[i].control().breaker.record_failure(now);
        }
        if slice.calls[STANDBY].take().is_some_and(|loser| loser.probe) {
            // a standby that merely lost the race is not penalised — but a
            // half-open probe must still settle its breaker
            router.replica(i, STANDBY).control().breaker.record_failure(now);
        }
        slice.outcome = Some(Ok(scores));
    }

    /// A call of slice `i` failed, or could not be made. Once no call of
    /// the slice is out, the standby gets its one attempt, or the slice is
    /// lost.
    fn fail(&mut self, i: usize, cause: String) {
        let slice = &mut self.slices[i];
        slice.cause =
            if slice.cause.is_empty() { cause } else { format!("{}; {cause}", slice.cause) };
        if slice.calls.iter().any(Option::is_some) {
            return; // the other call may still answer
        }
        if self.router.standby.is_some() && !slice.standby_tried {
            slice.standby_tried = true;
            return self.start(i, STANDBY);
        }
        slice.outcome = Some(Err(std::mem::take(&mut slice.cause)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    #[test]
    fn config_builders_and_outcome_partiality() {
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let cfg = RouterConfig::new(vec![addr], vec![0, 1, 2])
            .with_standby(addr)
            .with_policy(PartialPolicy::Fail)
            .with_deadline(Duration::from_millis(300))
            .with_hedge_after(Duration::from_millis(20));
        assert_eq!(cfg.standby, Some(addr));
        assert_eq!(cfg.policy, PartialPolicy::Fail);
        assert_eq!(cfg.deadline, Duration::from_millis(300));
        assert_eq!(cfg.hedge_after, Duration::from_millis(20));

        let full = RankOutcome { ranked: vec![(1, 0.5)], covered: 3, total: 3 };
        assert!(!full.is_partial());
        let partial = RankOutcome { ranked: vec![(1, 0.5)], covered: 2, total: 3 };
        assert!(partial.is_partial());
    }

    #[test]
    fn error_display_keeps_the_transient_deadline_wording() {
        // router clients reuse the backend's error classifier: the router's
        // deadline error must read exactly like a backend deadline shed
        assert_eq!(RouterError::DeadlineExpired.to_string(), "deadline expired");
        let e = RouterError::ShardsLost { lost: 1, total: 3, last: "connect: refused".into() };
        assert!(e.to_string().contains("1/3"), "{e}");
    }

    /// Regression: a rank whose budget is already spent must fail *before*
    /// touching the breaker. `allows()` on an Open breaker whose cooldown
    /// has elapsed consumes the single half-open probe slot; bailing out
    /// afterwards without recording an outcome would wedge the breaker
    /// HalfOpen forever and leave the shard permanently dark.
    #[test]
    fn an_expired_deadline_never_consumes_the_half_open_probe() {
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let registry = Arc::new(MetricsRegistry::new());
        let mut cfg = RouterConfig::new(vec![dead], (0..4).collect())
            .with_deadline(Duration::from_millis(300));
        cfg.breaker = BreakerConfig { trip_after: 1, cooldown: Duration::from_millis(20) };
        let router = Router::with_registry(cfg, Arc::clone(&registry));
        // one refused connect trips the breaker open
        router.rank(0, 0, 2).unwrap_err();
        assert_eq!(router.shard_breaker_states()[0], BreakerState::Open);
        // cooldown elapses; a zero-budget rank arrives exactly when the
        // probe slot opens up
        std::thread::sleep(Duration::from_millis(30));
        let err = router.rank_deadline(0, 0, 2, Duration::ZERO).unwrap_err();
        assert!(matches!(err, RouterError::NoCoverage), "{err}");
        // the probe must still be available: the next rank reaches the wire
        // (counted as a shard error) instead of being breaker-rejected
        let errors_before = registry.counter("router.shard_errors.count").get();
        router.rank(0, 0, 2).unwrap_err();
        assert!(
            registry.counter("router.shard_errors.count").get() > errors_before,
            "breaker wedged HalfOpen: the probe was consumed and never resolved"
        );
    }

    #[test]
    fn dead_shards_without_standby_surface_per_policy() {
        // two never-listening addrs: connects are refused immediately
        let dead = || {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let registry = Arc::new(MetricsRegistry::new());
        let cfg = RouterConfig::new(vec![dead(), dead()], (0..6).collect())
            .with_policy(PartialPolicy::Partial)
            .with_deadline(Duration::from_millis(500));
        let router = Router::with_registry(cfg, Arc::clone(&registry));
        let err = router.rank(0, 0, 3).unwrap_err();
        assert!(matches!(err, RouterError::NoCoverage), "{err}");
        assert!(registry.counter("router.shard_errors.count").get() >= 2);

        let cfg = RouterConfig::new(vec![dead(), dead()], (0..6).collect())
            .with_policy(PartialPolicy::Fail)
            .with_deadline(Duration::from_millis(500));
        let router = Router::with_registry(cfg, Arc::new(MetricsRegistry::new()));
        let err = router.rank(0, 0, 3).unwrap_err();
        assert!(matches!(err, RouterError::ShardsLost { lost: 2, .. }), "{err}");
    }

    /// A fake v2 shard: answers each `SCORE` with the right number of
    /// scores after `delay`, or never when `delay` is `None`.
    fn fake_shard(delay: Option<Duration>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut conn) = conn else { return };
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(conn.try_clone().unwrap());
                    let mut line = String::new();
                    while reader.read_line(&mut line).unwrap_or(0) > 0 {
                        let words: Vec<&str> = line.split_whitespace().collect();
                        let reply = match (words.as_slice(), delay) {
                            (["PROTO", "2"], _) => "OK proto=2".to_owned(),
                            (["ID", tag, ..], Some(delay)) => {
                                std::thread::sleep(delay);
                                let at = words.iter().position(|w| *w == "SCORE").unwrap();
                                let n = (words.len() - at - 1) / 3;
                                format!("ID {tag} OK {}", vec!["0.5"; n].join(" "))
                            }
                            _ => String::new(),
                        };
                        if !reply.is_empty() && writeln!(conn, "{reply}").is_err() {
                            return;
                        }
                        line.clear();
                    }
                });
            }
        });
        addr
    }

    /// A router over one shard plus a standby whose breaker has cooled
    /// down after a trip: the next standby call is its half-open probe.
    fn router_with_probing_standby(shard: SocketAddr, deadline: Duration) -> Router {
        let mut cfg = RouterConfig::new(vec![shard], (0..4).collect())
            .with_standby(fake_shard(None))
            .with_deadline(deadline)
            .with_hedge_after(Duration::from_millis(20));
        cfg.breaker = BreakerConfig { trip_after: 1, cooldown: Duration::from_millis(150) };
        let router = Router::with_registry(cfg, Arc::new(MetricsRegistry::new()));
        let standby = router.standby.as_ref().unwrap();
        standby.control().breaker.record_failure(Instant::now());
        std::thread::sleep(Duration::from_millis(160));
        assert_eq!(standby.control().breaker.state(Instant::now()), BreakerState::HalfOpen);
        router
    }

    fn standby_state(router: &Router) -> BreakerState {
        router.standby.as_ref().unwrap().control().breaker.state(Instant::now())
    }

    #[test]
    fn an_abandoned_standby_probe_never_leaves_its_breaker_half_open() {
        // the primary wins the race: the hedge was the standby's probe
        let router = router_with_probing_standby(
            fake_shard(Some(Duration::from_millis(100))),
            Duration::from_secs(2),
        );
        let outcome = router.rank(0, 0, 2).expect("the primary answers");
        assert!(!outcome.is_partial());
        assert_eq!(router.hedges.get(), 1, "the slow primary was hedged");
        assert_ne!(standby_state(&router), BreakerState::HalfOpen, "probe left dangling");

        // the deadline passes with the probe still out
        let router = router_with_probing_standby(fake_shard(None), Duration::from_millis(150));
        let err = router.rank(0, 0, 2).unwrap_err();
        assert!(matches!(err, RouterError::NoCoverage), "{err}");
        assert_eq!(router.hedges.get(), 1);
        assert_ne!(standby_state(&router), BreakerState::HalfOpen, "probe left dangling");
    }

    #[test]
    fn a_standby_that_loses_the_race_is_not_penalised() {
        let mut cfg =
            RouterConfig::new(vec![fake_shard(Some(Duration::from_millis(60)))], (0..4).collect())
                .with_standby(fake_shard(None))
                .with_hedge_after(Duration::from_millis(10));
        cfg.breaker = BreakerConfig { trip_after: 1, cooldown: Duration::from_secs(60) };
        let router = Router::with_registry(cfg, Arc::new(MetricsRegistry::new()));
        router.rank(0, 0, 2).expect("the primary answers");
        assert_eq!(router.hedges.get(), 1);
        assert_eq!(standby_state(&router), BreakerState::Closed, "one failure would trip it");
        assert_eq!(router.shard_errors.get(), 0);
    }
}
