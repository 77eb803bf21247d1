//! One error type for the whole serving layer.
//!
//! Bundle errors name what is at fault: a `BUNDLE` manifest line, the
//! `params` file, or a file whose bytes disagree with what its manifest
//! recorded.

use rmpi_autograd::io::CheckpointError;
use rmpi_core::ModelAssemblyError;
use rmpi_runtime::PoolError;
use std::fmt;

/// Errors from bundle IO, engine queries and the TCP front end.
#[derive(Debug)]
pub enum ServeError {
    /// A malformed, unsealed or unsupported `BUNDLE` manifest.
    Manifest {
        /// 1-based line number within `BUNDLE` (0: the manifest as a whole).
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The bundle's `params` file matched its recorded checksum but does not
    /// parse as `rmpi-params v1`.
    Checkpoint(CheckpointError),
    /// The parameters do not match the manifest's configuration.
    Assembly(ModelAssemblyError),
    /// A bundle file's bytes disagree with the length or checksum its
    /// manifest recorded — bit-rot or tampering between save and load.
    Corrupt {
        /// The file's path inside the bundle (`params`, `graph/<file>`).
        file: String,
        /// What disagrees.
        message: String,
    },
    /// An on-disk graph section failed the store's own validation.
    Store(rmpi_store::StoreError),
    /// A query referenced a relation outside the model's id space.
    UnknownRelation(u32),
    /// A malformed wire-protocol request.
    BadRequest(String),
    /// The server's bounded queue was full (backpressure).
    Overloaded,
    /// The request's deadline expired before it was processed.
    DeadlineExpired,
    /// A request line exceeded the server's maximum length; the connection
    /// is closed (the stream cannot be resynchronised mid-line).
    OverlongRequest {
        /// The configured per-line byte cap.
        limit: usize,
    },
    /// The server is at its concurrent-connection cap.
    ConnLimit,
    /// A hot-reload candidate bundle failed validation; the previous model
    /// keeps serving.
    Reload(String),
    /// The engine's store backend hit confirmed corruption and the request
    /// needed fresh disk reads: answered `ERR degraded` rather than a
    /// possibly-wrong score. Cache hits keep serving.
    Degraded(String),
    /// A request handler panicked; the worker survived and answered `ERR`.
    Internal(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Manifest { line, message } => {
                write!(f, "bundle manifest error at line {line}: {message}")
            }
            ServeError::Checkpoint(e) => write!(f, "bundle params file: {e}"),
            ServeError::Assembly(e) => write!(f, "bundle does not assemble: {e}"),
            ServeError::Corrupt { file, message } => {
                write!(f, "bundle file {file} is corrupt: {message}")
            }
            ServeError::Store(e) => write!(f, "bundle graph section: {e}"),
            ServeError::UnknownRelation(r) => write!(f, "unknown relation id {r}"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Overloaded => write!(f, "server overloaded"),
            ServeError::DeadlineExpired => write!(f, "deadline expired"),
            ServeError::OverlongRequest { limit } => {
                write!(f, "request too long (over {limit} bytes)")
            }
            ServeError::ConnLimit => write!(f, "too many connections"),
            ServeError::Reload(msg) => write!(f, "reload rejected: {msg}"),
            ServeError::Degraded(msg) => write!(f, "degraded: {msg}"),
            ServeError::Internal(msg) => write!(f, "internal: {msg}"),
            ServeError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Checkpoint(e) => Some(e),
            ServeError::Assembly(e) => Some(e),
            ServeError::Store(e) => Some(e),
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<rmpi_store::StoreError> for ServeError {
    fn from(e: rmpi_store::StoreError) -> Self {
        match e {
            // an Io failure while reading a graph section is an Io failure
            // of the bundle, same flattening as checkpoint Io
            rmpi_store::StoreError::Io(io) => ServeError::Io(io),
            other => ServeError::Store(other),
        }
    }
}

impl From<ModelAssemblyError> for ServeError {
    fn from(e: ModelAssemblyError) -> Self {
        ServeError::Assembly(e)
    }
}

impl From<PoolError> for ServeError {
    fn from(e: PoolError) -> Self {
        ServeError::Internal(e.to_string())
    }
}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        // an Io failure under the tensor format is an Io failure of the
        // bundle, not a format problem
        match e {
            CheckpointError::Io(io) => ServeError::Io(io),
            other => ServeError::Checkpoint(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ServeError::Manifest { line: 3, message: "bad dim".into() };
        assert!(e.to_string().contains("line 3"));
        assert!(std::error::Error::source(&e).is_none());

        let io = ServeError::from(std::io::Error::other("boom"));
        assert!(std::error::Error::source(&io).is_some());

        let ck = ServeError::from(CheckpointError::BadMagic("x".into()));
        assert!(matches!(ck, ServeError::Checkpoint(_)));
        assert!(ck.to_string().contains("bundle params file"), "{ck}");
        assert!(std::error::Error::source(&ck).is_some());

        let corrupt = ServeError::Corrupt { file: "params".into(), message: "short".into() };
        assert_eq!(corrupt.to_string(), "bundle file params is corrupt: short");

        // checkpoint Io failures flatten to ServeError::Io
        let flat = ServeError::from(CheckpointError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "eof",
        )));
        assert!(matches!(flat, ServeError::Io(_)));

        let internal =
            ServeError::from(PoolError::WorkerPanicked { index: 4, message: "boom".into() });
        assert!(internal.to_string().starts_with("internal: "), "{internal}");
        assert!(ServeError::Reload("bad probe".into()).to_string().contains("reload rejected"));
    }
}
