//! `rmpi-client` — a resilient, dependency-light blocking client for the
//! `rmpi-serve` line protocol.
//!
//! The serving layer's determinism contract (served scores are bit-identical
//! to offline `RmpiModel::score`) makes `SCORE` and `RANK` pure: any attempt
//! whose response was lost can be retried without changing the answer. This
//! crate builds the retry stack on that fact, in layers that are each
//! independently testable:
//!
//! - [`ClientError`]: failures classified **retryable vs fatal** — transport
//!   damage and server load shedding retry; definitive server rejections do
//!   not. A response missing its trailing newline is always treated as
//!   damage ([`ClientError::TruncatedResponse`]), which is what guarantees a
//!   chaos-disturbed reply is *retried*, never misparsed.
//! - [`BackoffConfig`]: deterministic seeded exponential backoff with
//!   downward jitter — a fixed seed reproduces the exact delay sequence.
//! - [`RetryBudget`]: a Finagle-style retry budget (token bucket) so retries
//!   are capped as a fraction of successful traffic, not just per request.
//! - [`CircuitBreaker`]: a per-endpoint circuit breaker — consecutive-failure
//!   trip, timed cooldown, half-open probe.
//! - [`Session`]: a persistent, pipelined protocol-v2 connection — many
//!   requests in flight at once, demultiplexed by tag, with a
//!   one-typed-error-per-in-flight-request death contract. Its
//!   primitive is the non-blocking `Session::submit` (a responder called
//!   once, a [`Submission`] handle whose drop deregisters the tag); the
//!   blocking verbs wait on top of it. It is the one client transport.
//! - [`FailoverClient`]: the retrying client, over one endpoint
//!   (`FailoverClient::new(vec![addr], cfg)`) or a replica set — timeouts,
//!   retry loop, sticky endpoint preference, breaker-gated failover and
//!   `HEALTH`-probed readmission, with one cached session per endpoint
//!   (reopened transparently after transport failures). Its verbs are
//!   `ping` / `score` / `score_batch` / `rank_tails`, plus `request_line`
//!   and `request_line_deadline` for any other line.
//!
//! The retrying client records `client.*` counters ([`ClientStats`]) into
//! an `rmpi-obs` registry: `client.retries.count`,
//! `client.failovers.count`, `client.breaker_open.count`, and friends.

#![warn(missing_docs)]

pub(crate) mod backoff;
pub(crate) mod breaker;
pub(crate) mod budget;
pub(crate) mod client;
pub(crate) mod error;
pub(crate) mod failover;
pub(crate) mod session;
pub(crate) mod stats;

pub use backoff::BackoffConfig;
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use budget::{BudgetConfig, RetryBudget};
pub use client::ClientConfig;
pub use error::ClientError;
pub use failover::{FailoverClient, FailoverConfig};
pub use session::{Session, Submission};
pub use stats::ClientStats;
