//! The scatter-gather core: shard fan-out, deadline budgets, hedging and
//! the partial-result policy.
//!
//! A [`Router`] owns one cached pipelined [`Session`] and one circuit
//! breaker per backend shard (plus an optional standby). A `RANK` is served
//! by splitting the configured candidate list into per-shard slices
//! ([`crate::merge::shard_slices`]), scoring each slice on its shard as one
//! `DEADLINE`-hinted `SCORE` batch, and merging the parts with the engine's
//! exact comparator ([`crate::merge::merge_ranked`]).
//!
//! # Deadline budget
//!
//! Every rank runs under one end-to-end deadline. Each shard call is given
//! whatever remains of the budget at the moment it goes on the wire, both as
//! the client-side wait and as a `DEADLINE <ms>` hint the backend batcher
//! honors — so a request that cannot be answered in time is shed upstream
//! (`ERR deadline expired`) instead of scored late.
//!
//! # Hedging
//!
//! Each shard's observed latency feeds a per-shard histogram; once warm, a
//! primary call that exceeds the shard's p99 triggers a duplicate request to
//! the standby (`router.hedges.count`), and whichever answer lands first
//! wins — bit-identical scores make the race benign. Before the histogram
//! warms up a configurable floor ([`RouterConfig::hedge_after`]) stands in
//! for the p99.
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
    BreakerConfig, BreakerState, BudgetConfig, CircuitBreaker, ClientConfig, ClientError,
    RetryBudget, Session,
};
use rmpi_obs::json::JsonObject;
use rmpi_obs::{Counter, Histogram, MetricsRegistry};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

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
    pub shards: Vec<SocketAddr>,
    /// Optional standby replica: target of hedged duplicates and of rescue
    /// retries for failed shards. Must hold the same model as the shards.
    pub standby: Option<SocketAddr>,
    /// The global candidate set a `RANK` ranks over, split across shards.
    pub candidates: Vec<u32>,
    /// Degradation policy when a slice is lost mid-rank.
    pub policy: PartialPolicy,
    /// End-to-end budget per rank; shard calls get whatever remains.
    pub deadline: Duration,
    /// Hedge threshold before a shard's latency histogram warms up.
    pub hedge_after: Duration,
    /// Samples a shard's histogram needs before its p99 replaces
    /// [`RouterConfig::hedge_after`] as the hedge threshold.
    pub hedge_min_samples: u64,
    /// Per-connection client tuning (timeouts apply to each shard call).
    pub client: ClientConfig,
    /// Circuit-breaker shape applied to every shard and the standby.
    pub breaker: BreakerConfig,
    /// Per-shard rescue/hedge budget: each standby attempt withdraws one
    /// token, each primary success deposits, so a flapping shard cannot
    /// double the standby's traffic indefinitely.
    pub budget: BudgetConfig,
    /// Cap on concurrent in-flight calls per shard (each holds one detached
    /// worker thread until it resolves or its deadline lapses). A call
    /// arriving at a saturated shard is routed straight to the standby, so
    /// a wedged shard under load cannot grow threads without bound.
    pub max_shard_inflight: usize,
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
            hedge_min_samples: 16,
            client: ClientConfig::default(),
            breaker: BreakerConfig::default(),
            budget: BudgetConfig::default(),
            max_shard_inflight: 32,
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

/// RAII reservation of one in-flight call slot on a shard; freed on drop
/// (in the dispatch path when the call never goes on the wire, otherwise by
/// the worker thread when the call resolves).
struct InflightSlot(Arc<AtomicUsize>);

impl InflightSlot {
    fn try_reserve(counter: &Arc<AtomicUsize>, cap: usize) -> Option<InflightSlot> {
        counter
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| (n < cap).then_some(n + 1))
            .ok()
            .map(|_| InflightSlot(Arc::clone(counter)))
    }
}

impl Drop for InflightSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One backend endpoint: cached session, breaker/budget, latency histogram.
struct Shard {
    addr: SocketAddr,
    session: Mutex<Option<Arc<Session>>>,
    control: Mutex<ShardControl>,
    latency: Histogram,
    /// Concurrent in-flight calls, bounded by `max_shard_inflight`.
    inflight: Arc<AtomicUsize>,
}

impl Shard {
    fn new(addr: SocketAddr, cfg: &RouterConfig, latency: Histogram) -> Shard {
        Shard {
            addr,
            session: Mutex::new(None),
            control: Mutex::new(ShardControl {
                breaker: CircuitBreaker::new(cfg.breaker.clone()),
                budget: RetryBudget::new(cfg.budget.clone()),
            }),
            latency,
            inflight: Arc::new(AtomicUsize::new(0)),
        }
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
    /// A router recording metrics into the process-global registry.
    pub fn new(cfg: RouterConfig) -> Router {
        Router::with_registry(cfg, Arc::clone(rmpi_obs::global()))
    }

    /// Same, recording into an explicit registry (tests, benches).
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
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// The registry this router records into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Breaker state per shard, in configuration order (observability).
    pub fn shard_breaker_states(&self) -> Vec<BreakerState> {
        let now = Instant::now();
        self.shards
            .iter()
            .map(|s| s.control.lock().expect("shard control").breaker.state(now))
            .collect()
    }

    /// Whether a standby replica is configured.
    pub fn has_standby(&self) -> bool {
        self.standby.is_some()
    }

    /// Router counters as a single-line JSON object (the `STATS` verb).
    pub fn stats_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("requests", self.requests.get());
        o.field_u64("shard_errors", self.shard_errors.get());
        o.field_u64("hedges", self.hedges.get());
        o.field_u64("partial_responses", self.partials.get());
        o.field_u64("shards", self.shards.len() as u64);
        o.field_bool("standby", self.standby.is_some());
        o.field_u64("candidates", self.cfg.candidates.len() as u64);
        o.finish()
    }

    /// Rank the configured candidate set for `(head, relation, ?)` under the
    /// configured end-to-end deadline.
    pub fn rank(&self, head: u32, relation: u32, k: usize) -> Result<RankOutcome, RouterError> {
        self.rank_deadline(head, relation, k, self.cfg.deadline)
    }

    /// Rank under an explicit end-to-end budget (the front end uses this to
    /// honor a client's `DEADLINE` hint, capped at the configured deadline).
    pub fn rank_deadline(
        &self,
        head: u32,
        relation: u32,
        k: usize,
        budget: Duration,
    ) -> Result<RankOutcome, RouterError> {
        self.requests.inc();
        let t0 = Instant::now();
        let deadline = t0 + budget;
        let slices = merge::shard_slices(&self.cfg.candidates, self.shards.len());
        let results: Vec<Result<Vec<f32>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = slices
                .iter()
                .enumerate()
                .map(|(i, slice)| {
                    scope.spawn(move || {
                        if slice.is_empty() {
                            return Ok(Vec::new());
                        }
                        let triples: Vec<(u32, u32, u32)> =
                            slice.iter().map(|&t| (head, relation, t)).collect();
                        self.call_shard(i, &triples, deadline)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect()
        });

        let total = self.cfg.candidates.len();
        let mut entries: Vec<(u32, f32)> = Vec::with_capacity(total);
        let mut covered = 0usize;
        let mut lost = 0usize;
        let mut last_err = String::new();
        for (slice, result) in slices.iter().zip(results) {
            match result {
                Ok(scores) => {
                    covered += slice.len();
                    entries.extend(slice.iter().copied().zip(scores));
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

    /// Score one slice on its shard, hedging to the standby when the shard
    /// is slow and rescuing through the standby when it fails outright.
    fn call_shard(
        &self,
        idx: usize,
        triples: &[(u32, u32, u32)],
        deadline: Instant,
    ) -> Result<Vec<f32>, String> {
        let shard = &self.shards[idx];
        let now = Instant::now();
        // both cheap rejections come BEFORE the breaker check: `allows()` can
        // consume the single half-open probe slot, and a probe admitted but
        // never resolved with an outcome would wedge the breaker HalfOpen
        // forever (every later call rejected until restart)
        let remaining = deadline.saturating_duration_since(now);
        if remaining.is_zero() {
            return Err("deadline expired before dispatch".into());
        }
        let Some(slot) = InflightSlot::try_reserve(&shard.inflight, self.cfg.max_shard_inflight)
        else {
            // saturated: nothing was attempted, so the breaker is untouched
            // (the deadline failures of whatever wedged the shard trip it);
            // the standby may still cover the slice
            return self.rescue(idx, triples, deadline, "shard at in-flight cap".into());
        };
        if !shard.control.lock().expect("shard control").breaker.allows(now) {
            // open breaker: the shard is known-bad, skip the wire entirely
            drop(slot);
            return self.rescue(idx, triples, deadline, "circuit breaker open".into());
        }
        let session = match self.session_for(shard) {
            Ok(s) => s,
            Err(e) => {
                self.note_shard_failure(shard);
                drop(slot);
                return self.rescue(idx, triples, deadline, format!("connect: {e}"));
            }
        };
        let t0 = Instant::now();
        let (tx, rx) = mpsc::channel();
        let owned = triples.to_vec();
        std::thread::spawn(move || {
            // the slot rides with the worker: it frees when the call resolves
            // (or its late reply is dropped), bounding detached threads per
            // shard even when the shard is wedged and callers keep arriving
            let _slot = slot;
            let _ = tx.send(session.score_batch_deadline(&owned, remaining));
        });
        let hedge_wait = self.hedge_threshold(shard).min(remaining);
        match rx.recv_timeout(hedge_wait) {
            Ok(Ok(scores)) => {
                self.note_shard_success(shard, t0);
                return Ok(scores);
            }
            Ok(Err(e)) => {
                self.note_shard_failure(shard);
                return self.rescue(idx, triples, deadline, format!("shard: {e}"));
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                self.note_shard_failure(shard);
                return self.rescue(idx, triples, deadline, "shard worker vanished".into());
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
        }
        // the shard blew past its hedge threshold: fire the duplicate at the
        // standby; the primary keeps racing and whichever lands first wins
        if let Some(standby) = self.standby.as_ref().filter(|_| self.withdraw_rescue(idx)) {
            self.hedges.inc();
            let rem = deadline.saturating_duration_since(Instant::now());
            if !rem.is_zero() {
                if let Ok(scores) = self.call_standby(standby, triples, rem) {
                    // the primary never answered inside its hedge window:
                    // count that against its breaker so a wedged shard
                    // eventually trips (and a half-open probe is never left
                    // dangling) — but not as a wire error, the hedge covered
                    // it; its late reply is dropped with the channel
                    shard
                        .control
                        .lock()
                        .expect("shard control")
                        .breaker
                        .record_failure(Instant::now());
                    return Ok(scores);
                }
            }
        }
        // no standby (or the hedge failed too): wait out the primary up to
        // the caller's deadline
        let rem = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(rem) {
            Ok(Ok(scores)) => {
                self.note_shard_success(shard, t0);
                Ok(scores)
            }
            Ok(Err(e)) => {
                self.note_shard_failure(shard);
                Err(format!("shard: {e}"))
            }
            Err(_) => {
                self.note_shard_failure(shard);
                Err("deadline expired waiting for shard".into())
            }
        }
    }

    /// Cover a failed shard's slice through the standby, bounded by the
    /// shard's rescue budget.
    fn rescue(
        &self,
        idx: usize,
        triples: &[(u32, u32, u32)],
        deadline: Instant,
        cause: String,
    ) -> Result<Vec<f32>, String> {
        let Some(standby) = &self.standby else {
            return Err(cause);
        };
        if !self.withdraw_rescue(idx) {
            return Err(format!("{cause}; rescue budget dry"));
        }
        let rem = deadline.saturating_duration_since(Instant::now());
        if rem.is_zero() {
            return Err(format!("{cause}; deadline expired before rescue"));
        }
        self.call_standby(standby, triples, rem).map_err(|e| format!("{cause}; standby: {e}"))
    }

    /// One scoring attempt against the standby, under its own breaker.
    fn call_standby(
        &self,
        standby: &Shard,
        triples: &[(u32, u32, u32)],
        budget: Duration,
    ) -> Result<Vec<f32>, ClientError> {
        if !standby.control.lock().expect("shard control").breaker.allows(Instant::now()) {
            return Err(ClientError::NoHealthyEndpoint { last: None });
        }
        let session = match self.session_for(standby) {
            Ok(s) => s,
            Err(e) => {
                self.note_shard_failure(standby);
                return Err(e);
            }
        };
        let t0 = Instant::now();
        match session.score_batch_deadline(triples, budget) {
            Ok(scores) => {
                self.note_shard_success(standby, t0);
                Ok(scores)
            }
            Err(e) => {
                self.note_shard_failure(standby);
                Err(e)
            }
        }
    }

    /// The cached session for an endpoint, reconnecting when absent or dead.
    fn session_for(&self, shard: &Shard) -> Result<Arc<Session>, ClientError> {
        let mut cached = shard.session.lock().expect("shard session");
        if let Some(s) = cached.as_ref() {
            if s.is_alive() {
                return Ok(Arc::clone(s));
            }
        }
        let fresh = Arc::new(Session::connect(shard.addr, &self.cfg.client)?);
        *cached = Some(Arc::clone(&fresh));
        Ok(fresh)
    }

    /// This shard's hedge threshold: its observed p99 once the histogram is
    /// warm (floored at 1 ms), the configured floor before that.
    fn hedge_threshold(&self, shard: &Shard) -> Duration {
        let s = shard.latency.summary();
        if s.count >= self.cfg.hedge_min_samples {
            Duration::from_micros(s.p99.max(1_000))
        } else {
            self.cfg.hedge_after
        }
    }

    fn note_shard_success(&self, shard: &Shard, t0: Instant) {
        shard.latency.record_duration(t0.elapsed());
        let mut c = shard.control.lock().expect("shard control");
        c.breaker.record_success();
        c.budget.record_success();
    }

    fn note_shard_failure(&self, shard: &Shard) {
        self.shard_errors.inc();
        let mut c = shard.control.lock().expect("shard control");
        c.breaker.record_failure(Instant::now());
    }

    fn withdraw_rescue(&self, idx: usize) -> bool {
        self.shards[idx].control.lock().expect("shard control").budget.try_withdraw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn inflight_slots_are_bounded_and_released_on_drop() {
        let counter = Arc::new(AtomicUsize::new(0));
        let a = InflightSlot::try_reserve(&counter, 2).expect("slot 1");
        let b = InflightSlot::try_reserve(&counter, 2).expect("slot 2");
        assert!(InflightSlot::try_reserve(&counter, 2).is_none(), "cap enforced");
        drop(a);
        let c = InflightSlot::try_reserve(&counter, 2).expect("freed slot reusable");
        drop(b);
        drop(c);
        assert_eq!(counter.load(Ordering::Acquire), 0, "all slots returned");
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
}
