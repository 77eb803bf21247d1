//! Client-side errors, classified **retryable vs fatal**.
//!
//! The classification is the heart of the retry layer: `SCORE`/`RANK` are
//! pure functions of the served model, so any failure where the server's
//! answer was *lost* — connect failures, timeouts, a response cut before its
//! newline — is safe to retry. A definitive server answer (`ERR bad
//! request`, `ERR unknown relation id ...`) is fatal: retrying would repeat
//! the same rejection. Three server answers are explicitly *transient* —
//! overload shedding, the connection cap, and expired queue deadlines — and
//! retry after backoff, ideally against another replica.

use std::fmt;
use std::io;

/// Errors from one logical client request (which may span several attempts
/// and several endpoints).
#[derive(Debug)]
pub enum ClientError {
    /// TCP connect failed or timed out. Retryable: no request was sent.
    Connect(io::Error),
    /// I/O after connecting — write failure, read failure or timeout.
    /// Retryable for pure verbs: the response never arrived intact.
    Io(io::Error),
    /// The connection closed before a newline-terminated response line
    /// arrived. The line protocol makes every cut response detectable: a
    /// reply without its trailing newline is damage, never data. Retryable.
    TruncatedResponse,
    /// A complete line arrived but was not `OK ...` / `ERR ...`. Retryable
    /// for pure verbs (transport damage), but counts against the budget.
    Protocol(String),
    /// The server answered `ERR <message>`. `transient` is true for
    /// overload/conn-limit/deadline shedding (retry elsewhere), false for
    /// definitive rejections (bad request, unknown relation, reload
    /// rejected).
    Server {
        /// The text after `ERR `.
        message: String,
        /// Whether the condition is load-dependent and worth retrying.
        transient: bool,
    },
    /// The retry policy gave up: attempts or budget exhausted. Carries the
    /// last underlying failure.
    RetriesExhausted {
        /// Total attempts made (initial try included).
        attempts: u32,
        /// The failure that ended the last attempt.
        last: Box<ClientError>,
    },
    /// Every endpoint's circuit breaker is open (or every endpoint failed
    /// its half-open health probe) — nothing to send to.
    NoHealthyEndpoint {
        /// The most recent endpoint failure, if any attempt was made.
        last: Option<Box<ClientError>>,
    },
    /// The pipelined session this request was submitted on died (peer
    /// closed, transport damage, or an untagged server frame) before the
    /// response arrived. Retryable: the request outcome is unknown and the
    /// verb-level retry loop will open a fresh session.
    SessionClosed(String),
    /// The server's `OK` payload did not parse as the expected shape
    /// (e.g. a non-numeric score). Fatal: the bytes arrived intact.
    BadPayload(String),
}

impl ClientError {
    /// Whether retrying the same request could succeed. Only meaningful for
    /// pure (idempotent) verbs — the retry loop additionally requires the
    /// caller to declare idempotence.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Connect(_)
            | ClientError::Io(_)
            | ClientError::TruncatedResponse
            | ClientError::Protocol(_)
            | ClientError::SessionClosed(_) => true,
            ClientError::Server { transient, .. } => *transient,
            ClientError::RetriesExhausted { .. }
            | ClientError::NoHealthyEndpoint { .. }
            | ClientError::BadPayload(_) => false,
        }
    }

    /// Classify an `ERR <message>` reply. The transient set mirrors the
    /// server's load-shedding answers in `rmpi-serve` (`ServeError`
    /// `Overloaded` / `ConnLimit` / `DeadlineExpired` display strings).
    pub(crate) fn from_server_err(message: &str) -> ClientError {
        let transient =
            matches!(message, "server overloaded" | "too many connections" | "deadline expired");
        ClientError::Server { message: message.to_owned(), transient }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::TruncatedResponse => {
                write!(f, "response truncated before its newline")
            }
            ClientError::Protocol(line) => write!(f, "malformed response line: {line:?}"),
            ClientError::Server { message, transient } => {
                let kind = if *transient { "transient" } else { "fatal" };
                write!(f, "server error ({kind}): {message}")
            }
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
            ClientError::NoHealthyEndpoint { last: Some(last) } => {
                write!(f, "no healthy endpoint (last failure: {last})")
            }
            ClientError::NoHealthyEndpoint { last: None } => {
                write!(f, "no healthy endpoint (all circuit breakers open)")
            }
            ClientError::SessionClosed(reason) => write!(f, "session closed: {reason}"),
            ClientError::BadPayload(msg) => write!(f, "bad response payload: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Connect(e) | ClientError::Io(e) => Some(e),
            ClientError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            ClientError::NoHealthyEndpoint { last: Some(last) } => Some(last.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_failures_are_retryable_and_rejections_are_not() {
        assert!(ClientError::Connect(io::Error::new(io::ErrorKind::ConnectionRefused, "x"))
            .is_retryable());
        assert!(ClientError::Io(io::Error::new(io::ErrorKind::TimedOut, "x")).is_retryable());
        assert!(ClientError::TruncatedResponse.is_retryable());
        assert!(ClientError::Protocol("garbage".into()).is_retryable());
        assert!(ClientError::SessionClosed("connection closed by server".into()).is_retryable());
        assert!(!ClientError::BadPayload("NaN-ish".into()).is_retryable());
        assert!(!ClientError::RetriesExhausted {
            attempts: 4,
            last: Box::new(ClientError::TruncatedResponse)
        }
        .is_retryable());
    }

    #[test]
    fn server_errors_classify_by_message() {
        for transient in ["server overloaded", "too many connections", "deadline expired"] {
            assert!(ClientError::from_server_err(transient).is_retryable(), "{transient}");
        }
        for fatal in [
            "bad request: unknown command \"FROB\"",
            "unknown relation id 99",
            "reload rejected: bad probe",
            "request too long (over 65536 bytes)",
        ] {
            assert!(!ClientError::from_server_err(fatal).is_retryable(), "{fatal}");
        }
    }

    #[test]
    fn display_names_the_classification() {
        let e = ClientError::from_server_err("server overloaded");
        assert!(e.to_string().contains("transient"), "{e}");
        let e = ClientError::from_server_err("unknown relation id 3");
        assert!(e.to_string().contains("fatal"), "{e}");
        let e = ClientError::RetriesExhausted {
            attempts: 3,
            last: Box::new(ClientError::TruncatedResponse),
        };
        assert!(e.to_string().contains("after 3 attempts"), "{e}");
        assert!(std::error::Error::source(&e).is_some());
    }
}
