//! The line-delimited wire protocol: parsing and response formatting,
//! independent of any socket so it is testable in isolation.
//!
//! Requests are single ASCII lines; responses are single lines starting with
//! `OK ` or `ERR `:
//!
//! ```text
//! PING                          -> OK pong
//! HEALTH                        -> OK healthy ...
//! SCORE h r t [h r t ...]       -> OK s1 [s2 ...]
//! RANK h r k                    -> OK tail:score tail:score ...
//! METRICS                       -> OK {"serve.score.us": {...}, ...}
//! RELOAD /path/to/model.bundle  -> OK reloaded | ERR reload rejected: ...
//! PROTO 2                       -> OK proto=2  (connection switches to v2)
//! anything else                 -> ERR <reason>
//! ```
//!
//! `SCORE` accepts any number of triples on one line — that is the batched
//! entry point: the whole line becomes one item of a micro-batch
//! ([`crate::Batcher`]). Scores are formatted with Rust's
//! shortest-round-trip `f32` formatting, so a client parsing them back gets
//! the bit-exact served value.
//!
//! # Framing: v1 and v2
//!
//! A connection starts in v1: strictly one in-order response per request
//! line. Sending `PROTO 2` (answered `OK proto=2`) switches the connection
//! into v2, where every request carries a client-chosen `ID <n>` tag and its
//! response echoes the tag — which is what lets a client keep N requests in
//! flight on one connection and match replies that return **out of order**
//! (batched verbs complete when their micro-batch flushes; cheap verbs
//! answer immediately):
//!
//! ```text
//! ID 7 SCORE 0 1 2   -> ID 7 OK 0.25
//! ID 8 PING          -> ID 8 OK pong
//! garbage-no-tag     -> ERR bad request: ...   (untagged: not attributable)
//! ```
//!
//! Tags are opaque `u64`s echoed verbatim; uniqueness among a connection's
//! in-flight requests is the client's job (the server never interprets
//! them). [`parse_tagged`] / [`format_tagged`] implement the framing.
//!
//! In either framing a request may start with `DEADLINE <ms>`, the caller's
//! remaining end-to-end budget (`split_deadline`): routers decrement it
//! hop by hop, the micro-batcher flushes early for it and sheds the request
//! once it has expired.

use crate::error::ServeError;
use rmpi_kg::{EntityId, RelationId, Triple};
use std::time::Duration;

/// A parsed protocol request.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Score one or more triples (one batch).
    Score(Vec<Triple>),
    /// Rank context-graph entities as tails for `(head, relation, ?)`.
    Rank {
        /// Query head entity.
        head: EntityId,
        /// Query relation.
        relation: RelationId,
        /// How many top entities to return.
        k: usize,
    },
    /// Dump the full metrics registry as JSON (`subsystem.metric.unit`
    /// names; histograms carry count/sum/mean/max/p50/p90/p99).
    Metrics,
    /// Readiness probe: answers only if a request can actually be served.
    Health,
    /// Hot-swap the served model from a bundle file on the server's disk.
    Reload {
        /// Bundle path as the server sees it (rest of the line, verbatim).
        path: String,
    },
    /// Negotiate a protocol version for the rest of the connection.
    Proto {
        /// Requested version; only `2` is currently accepted.
        version: u32,
    },
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, ServeError> {
    let mut parts = line.split_whitespace();
    let bad = |msg: String| ServeError::BadRequest(msg);
    let command = parts.next().ok_or_else(|| bad("empty request".into()))?;
    match command {
        "PING" => Ok(Request::Ping),
        "PROTO" => {
            let version: u32 = parts
                .next()
                .ok_or_else(|| bad("PROTO needs a version".into()))?
                .parse()
                .map_err(|e| bad(format!("bad protocol version: {e}")))?;
            if parts.next().is_some() {
                return Err(bad("PROTO takes exactly one version".into()));
            }
            Ok(Request::Proto { version })
        }
        "METRICS" => Ok(Request::Metrics),
        "HEALTH" => Ok(Request::Health),
        "RELOAD" => {
            // the rest of the line is the path, verbatim (paths may contain
            // spaces); leading/trailing whitespace is trimmed
            let path = line.trim_start()["RELOAD".len()..].trim();
            if path.is_empty() {
                return Err(bad("RELOAD needs a bundle path".into()));
            }
            Ok(Request::Reload { path: path.to_owned() })
        }
        "SCORE" => {
            let ids: Vec<u32> = parts
                .map(|p| p.parse().map_err(|e| bad(format!("bad id {p:?}: {e}"))))
                .collect::<Result<_, _>>()?;
            if ids.is_empty() || ids.len() % 3 != 0 {
                return Err(bad(format!(
                    "SCORE takes head/relation/tail id triplets, got {} ids",
                    ids.len()
                )));
            }
            let triples = ids.chunks_exact(3).map(|c| Triple::new(c[0], c[1], c[2])).collect();
            Ok(Request::Score(triples))
        }
        "RANK" => {
            let mut next = |what: &str| -> Result<u32, ServeError> {
                parts
                    .next()
                    .ok_or_else(|| ServeError::BadRequest(format!("RANK is missing {what}")))?
                    .parse()
                    .map_err(|e| ServeError::BadRequest(format!("bad {what}: {e}")))
            };
            let head = next("head")?;
            let relation = next("relation")?;
            let k = next("k")? as usize;
            if parts.next().is_some() {
                return Err(bad("RANK takes exactly head, relation, k".into()));
            }
            Ok(Request::Rank { head: EntityId(head), relation: RelationId(relation), k })
        }
        other => Err(bad(format!("unknown command {other:?}"))),
    }
}

/// `OK s1 s2 ...` for a score batch.
pub fn format_scores(scores: &[f32]) -> String {
    let mut out = String::from("OK");
    for s in scores {
        out.push(' ');
        out.push_str(&s.to_string());
    }
    out
}

/// `OK tail:score ...` for a ranking, best first.
pub fn format_ranked(ranked: &[(EntityId, f32)]) -> String {
    let mut out = String::from("OK");
    for (e, s) in ranked {
        out.push(' ');
        out.push_str(&format!("{}:{}", e.0, s));
    }
    out
}

/// `ERR <reason>` (single line, whatever the error was).
pub(crate) fn format_error(err: &ServeError) -> String {
    let msg = err.to_string().replace('\n', " ");
    format!("ERR {msg}")
}

/// Split a v2 line `ID <n> <request...>` into its tag and inner request.
///
/// The inner request is returned verbatim (not parsed); an empty inner
/// request is rejected here so every tag the server echoes corresponds to a
/// request that at least reached the dispatcher.
pub fn parse_tagged(line: &str) -> Result<(u64, &str), ServeError> {
    let bad = |msg: String| ServeError::BadRequest(msg);
    let rest = line
        .trim_start()
        .strip_prefix("ID")
        .ok_or_else(|| bad("protocol v2 requests start with `ID <n>`".into()))?;
    // require whitespace after the verb so `IDX` is not mistaken for a tag
    if !rest.starts_with(|c: char| c.is_ascii_whitespace()) {
        return Err(bad("protocol v2 requests start with `ID <n>`".into()));
    }
    let rest = rest.trim_start();
    let (tag_str, inner) = rest.split_once(|c: char| c.is_ascii_whitespace()).unwrap_or((rest, ""));
    let tag: u64 = tag_str.parse().map_err(|e| bad(format!("bad request tag {tag_str:?}: {e}")))?;
    let inner = inner.trim();
    if inner.is_empty() {
        return Err(bad(format!("tagged request {tag} is empty")));
    }
    Ok((tag, inner))
}

/// Frame a response line for v2: `ID <tag> <response>`.
pub fn format_tagged(tag: u64, response: &str) -> String {
    format!("ID {tag} {response}")
}

/// Split an optional `DEADLINE <ms> ` prefix off a request line. The hint is
/// advisory budget propagation: a missing or malformed hint leaves the line
/// untouched, so the normal parser reports malformed requests.
pub(crate) fn split_deadline(line: &str) -> (Option<Duration>, &str) {
    let Some(rest) = line.strip_prefix("DEADLINE") else {
        return (None, line);
    };
    if !rest.starts_with(|c: char| c.is_ascii_whitespace()) {
        return (None, line);
    }
    let rest = rest.trim_start();
    let Some((ms, tail)) = rest.split_once(|c: char| c.is_ascii_whitespace()) else {
        return (None, line);
    };
    match ms.parse::<u64>() {
        Ok(ms) => (Some(Duration::from_millis(ms)), tail.trim_start()),
        Err(_) => (None, line),
    }
}

/// The metric labels of request verbs (`<front end>.wire.<verb>.us`), in
/// `wire_verb_index` order. Unknown or malformed commands share one
/// `other` histogram so hostile input cannot grow the registry unboundedly.
pub(crate) const WIRE_VERBS: [&str; 8] =
    ["ping", "score", "rank", "metrics", "health", "reload", "proto", "other"];

/// Where a request line's verb label sits in [`WIRE_VERBS`] — a fixed table
/// index, so a front end keeps one histogram per verb.
pub(crate) fn wire_verb_index(line: &str) -> usize {
    match line.split_whitespace().next() {
        Some("PING") => 0,
        Some("SCORE") => 1,
        Some("RANK") => 2,
        Some("METRICS") => 3,
        Some("HEALTH") => 4,
        Some("RELOAD") => 5,
        Some("PROTO") => 6,
        _ => 7,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(parse_request("METRICS").unwrap(), Request::Metrics);
        assert_eq!(
            parse_request("SCORE 1 2 3").unwrap(),
            Request::Score(vec![Triple::new(1u32, 2u32, 3u32)])
        );
        assert_eq!(
            parse_request("SCORE 1 2 3 4 5 6").unwrap(),
            Request::Score(vec![Triple::new(1u32, 2u32, 3u32), Triple::new(4u32, 5u32, 6u32)])
        );
        assert_eq!(
            parse_request("RANK 7 0 10").unwrap(),
            Request::Rank { head: EntityId(7), relation: RelationId(0), k: 10 }
        );
        assert_eq!(parse_request("HEALTH").unwrap(), Request::Health);
        assert_eq!(
            parse_request("RELOAD /models/next.bundle").unwrap(),
            Request::Reload { path: "/models/next.bundle".into() }
        );
        assert_eq!(
            parse_request("RELOAD /models/with space/m.bundle ").unwrap(),
            Request::Reload { path: "/models/with space/m.bundle".into() },
            "the path is the rest of the line, spaces included"
        );
        assert_eq!(parse_request("PROTO 2").unwrap(), Request::Proto { version: 2 });
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "",
            "FROB",
            "STATS",
            "SCORE",
            "SCORE 1 2",
            "SCORE 1 2 3 4",
            "SCORE a b c",
            "RANK 1 2",
            "RANK 1 2 3 4",
            "RANK x 2 3",
            "RELOAD",
            "RELOAD   ",
            "PROTO",
            "PROTO two",
            "PROTO 2 3",
        ] {
            let err = parse_request(bad).unwrap_err();
            assert!(matches!(err, ServeError::BadRequest(_)), "{bad:?} -> {err}");
        }
    }

    #[test]
    fn score_formatting_round_trips_f32() {
        let scores = [1.5f32, -0.12345678, 3.0e-8];
        let line = format_scores(&scores);
        assert!(line.starts_with("OK "));
        let parsed: Vec<f32> = line[3..].split(' ').map(|s| s.parse().unwrap()).collect();
        assert_eq!(parsed, scores);
    }

    #[test]
    fn ranked_and_error_formatting() {
        let line = format_ranked(&[(EntityId(3), 1.5), (EntityId(9), -0.25)]);
        assert_eq!(line, "OK 3:1.5 9:-0.25");
        assert_eq!(format_ranked(&[]), "OK");
        let err = format_error(&ServeError::Overloaded);
        assert_eq!(err, "ERR server overloaded");
    }

    #[test]
    fn tagged_framing_round_trips() {
        assert_eq!(parse_tagged("ID 7 SCORE 0 1 2").unwrap(), (7, "SCORE 0 1 2"));
        assert_eq!(parse_tagged("  ID  42  PING ").unwrap(), (42, "PING"));
        assert_eq!(parse_tagged(&format!("ID {} PING", u64::MAX)).unwrap(), (u64::MAX, "PING"));
        assert_eq!(format_tagged(7, "OK pong"), "ID 7 OK pong");
    }

    #[test]
    fn deadline_prefix_parsing() {
        let (budget, rest) = split_deadline("DEADLINE 40 SCORE 0 1 2");
        assert_eq!(budget, Some(Duration::from_millis(40)));
        assert_eq!(rest, "SCORE 0 1 2");
        // no hint, malformed hint, or a hint with nothing after it: the
        // line passes through untouched for the normal parser to judge
        assert_eq!(split_deadline("SCORE 0 1 2"), (None, "SCORE 0 1 2"));
        assert_eq!(split_deadline("DEADLINE x SCORE 0"), (None, "DEADLINE x SCORE 0"));
        assert_eq!(split_deadline("DEADLINE 40"), (None, "DEADLINE 40"));
        assert_eq!(split_deadline("DEADLINES 1 2"), (None, "DEADLINES 1 2"));
    }

    #[test]
    fn tagged_framing_rejects_malformed_lines() {
        for bad in ["", "SCORE 0 1 2", "ID", "ID PING", "ID x PING", "ID 7", "ID 7   ", "ID7 PING"]
        {
            let err = parse_tagged(bad).unwrap_err();
            assert!(matches!(err, ServeError::BadRequest(_)), "{bad:?} -> {err}");
        }
    }
}
