//! The wire layer: [`ClientConfig`], and the request formatting and
//! response parsing that [`crate::Session`] and [`crate::FailoverClient`]
//! share.
//!
//! A response is accepted only if it ends in `\n`: the line
//! protocol makes every chaos fault (truncation, mid-response disconnect,
//! stalled partial write) detectable as a missing newline, which is what
//! lets the retry layer promise *zero wrong scores* — damaged replies are
//! retried, never parsed.

use crate::backoff::BackoffConfig;
use crate::budget::BudgetConfig;
use crate::error::ClientError;
use std::time::Duration;

/// Client knobs: the read timeout plus the retry policy.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Socket read timeout (covers the whole response wait).
    pub read_timeout: Duration,
    /// Retries after the initial attempt (per logical request).
    pub max_retries: u32,
    /// Backoff shape between attempts.
    pub backoff: BackoffConfig,
    /// Retry budget shape (caps retries fleet-wide, see
    /// [`crate::RetryBudget`]).
    pub budget: BudgetConfig,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Duration::from_secs(2),
            max_retries: 3,
            backoff: BackoffConfig::default(),
            budget: BudgetConfig::default(),
        }
    }
}

impl ClientConfig {
    /// Set the backoff jitter seed (the only randomness in the client).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.backoff.seed = seed;
        self
    }
}

/// Split a response line into the `OK` payload or a classified error.
pub(crate) fn classify_response(line: &str) -> Result<String, ClientError> {
    if line == "OK" {
        return Ok(String::new());
    }
    if let Some(payload) = line.strip_prefix("OK ") {
        return Ok(payload.to_owned());
    }
    if let Some(message) = line.strip_prefix("ERR ") {
        return Err(ClientError::from_server_err(message));
    }
    Err(ClientError::Protocol(line.to_owned()))
}

/// Parse an `OK s1 s2 ...` score payload, checking the count.
pub(crate) fn parse_scores(payload: &str, expected: usize) -> Result<Vec<f32>, ClientError> {
    let scores: Vec<f32> = payload
        .split_whitespace()
        .map(|s| s.parse().map_err(|e| ClientError::BadPayload(format!("score {s:?}: {e}"))))
        .collect::<Result<_, _>>()?;
    if scores.len() != expected {
        return Err(ClientError::BadPayload(format!(
            "expected {expected} scores, got {}",
            scores.len()
        )));
    }
    Ok(scores)
}

/// Parse an `OK tail:score ...` ranking payload.
pub(crate) fn parse_ranked(payload: &str) -> Result<Vec<(u32, f32)>, ClientError> {
    payload
        .split_whitespace()
        .map(|pair| {
            let (tail, score) = pair
                .split_once(':')
                .ok_or_else(|| ClientError::BadPayload(format!("ranked entry {pair:?}")))?;
            let tail =
                tail.parse().map_err(|e| ClientError::BadPayload(format!("tail {tail:?}: {e}")))?;
            let score = score
                .parse()
                .map_err(|e| ClientError::BadPayload(format!("score {score:?}: {e}")))?;
            Ok((tail, score))
        })
        .collect()
}

/// Format a `SCORE` line for a batch of `(head, relation, tail)` triples.
pub(crate) fn score_line(triples: &[(u32, u32, u32)]) -> String {
    let mut line = String::from("SCORE");
    for (h, r, t) in triples {
        line.push_str(&format!(" {h} {r} {t}"));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_classify_into_payload_server_error_or_protocol_error() {
        assert_eq!(classify_response("OK pong").unwrap(), "pong");
        assert_eq!(classify_response("OK").unwrap(), "");
        let err = classify_response("ERR server overloaded").unwrap_err();
        assert!(matches!(err, ClientError::Server { transient: true, .. }), "{err}");
        let err = classify_response("ERR bad request: nope").unwrap_err();
        assert!(matches!(err, ClientError::Server { transient: false, .. }), "{err}");
        let err = classify_response("banana").unwrap_err();
        assert!(matches!(err, ClientError::Protocol(_)), "{err}");
    }

    #[test]
    fn payload_parsers_round_trip_and_reject_damage() {
        assert_eq!(parse_scores("1.5 -0.25", 2).unwrap(), vec![1.5, -0.25]);
        assert!(parse_scores("1.5", 2).is_err(), "count mismatch is damage");
        assert!(parse_scores("1.5 x", 2).is_err());
        assert_eq!(parse_ranked("3:1.5 9:-0.25").unwrap(), vec![(3, 1.5), (9, -0.25)]);
        assert_eq!(parse_ranked("").unwrap(), vec![]);
        assert!(parse_ranked("3").is_err());
        assert_eq!(score_line(&[(0, 1, 2), (3, 4, 5)]), "SCORE 0 1 2 3 4 5");
    }
}
