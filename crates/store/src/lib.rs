//! `rmpi-store` — an out-of-core knowledge-graph store.
//!
//! The in-memory [`rmpi_kg::KnowledgeGraph`] caps world size at what one process
//! can hold. This crate keeps the same *access pattern* — CSR-style
//! out-edge/in-edge runs, triple lookup by index, membership tests — but
//! moves the triple data to disk, leaving only an offsets index resident
//! (16 bytes per entity). Relational message passing only ever touches a
//! k-hop neighbourhood per query, so almost all of the graph stays cold.
//!
//! # On-disk layout
//!
//! A store is a directory:
//!
//! ```text
//! world.store/
//!   MANIFEST          counts, per-file record counts + XXH64 checksums
//!                     (whole file and per 64 KiB block)
//!   index.bin         out_off[N+1] ++ in_off[N+1], u64 LE   (resident)
//!   fwd-00000.seg     12-byte records (h,r,t) u32 LE, sorted by (h,r,t)
//!   fwd-00001.seg     ...
//!   inv-00000.seg     16-byte records (t,r,h,fwd_idx), sorted by (t,fwd_idx)
//! ```
//!
//! Forward records are globally sorted by `(head, relation, tail)`, so a
//! record's position **is** its triple index and the out-edges of entity `e`
//! are the contiguous run `fwd[out_off[e] .. out_off[e+1]]` — no separate
//! out-edge arena exists. Inverse records are sorted by `(tail, fwd_idx)`,
//! so in-edges of `e` are the run `inv[in_off[e] .. in_off[e+1]]`, already
//! in ascending-triple-index order exactly as [`rmpi_kg::GraphAccess`]
//! promises. Everything is fixed-width little-endian; there are no pointers
//! to chase and a segment can be checksummed by a straight byte scan.
//!
//! # Reading
//!
//! [`StoreReader`] answers point queries through a small block cache
//! ([`ReadMode::Stream`]), checksum-verifying each block as it is read;
//! whole-graph sweeps stream segments sequentially. [`NeighborhoodView`] pins what a k-hop
//! extraction reads into RAM and then implements `GraphAccess`, which is how
//! `ExtractScratch`-based subgraph extraction runs against disk unchanged;
//! [`with_thread_view`] lends out one whose storage is recycled per thread.

#![warn(missing_docs)]

mod builder;
mod format;
mod manifest;
mod reader;
mod scrub;
mod view;

pub use builder::{
    build_from_graph, build_from_sorted, StoreBuilder, StoreConfig, StoreSummary,
    INDEX_WRITE_FAILPOINT, PUBLISH_FAILPOINT, SEG_CLOSE_FAILPOINT, SEG_WRITE_FAILPOINT,
};
pub use format::{
    seal, unseal, xxh64, Xxh64, FWD_BLOCK_BYTES, FWD_BLOCK_RECORDS, FWD_RECORD_BYTES,
    INV_BLOCK_BYTES, INV_BLOCK_RECORDS, INV_RECORD_BYTES,
};
pub use manifest::{Manifest, SegmentMeta, INDEX_NAME, MANIFEST_NAME};
pub use reader::{ReadMode, RetryConfig, StoreOptions, StoreReader};
pub use scrub::{scrub_store, ScrubReport, ScrubSection};
pub use view::{with_thread_view, NeighborhoodView};

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Everything that can go wrong building, opening, or reading a store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// The MANIFEST text could not be parsed.
    Manifest {
        /// 1-based line within MANIFEST.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// A store file disagrees with its manifest entry (size or checksum).
    Corrupt {
        /// File name relative to the store directory.
        file: String,
        /// Byte offset where the mismatch was established (file length for
        /// size mismatches, 0 for whole-file checksum mismatches).
        offset: u64,
        /// What disagreed.
        message: String,
    },
    /// Triples were pushed to the builder out of `(head, relation, tail)`
    /// order.
    Unsorted {
        /// Index of the offending triple in push order.
        index: u64,
        /// The offending pair, formatted.
        message: String,
    },
    /// The directory does not contain a store.
    NotAStore(PathBuf),
}

impl StoreError {
    /// Whether this failure is worth retrying: the bytes on disk may be
    /// fine and only this attempt failed (interrupted/short `pread`,
    /// device hiccup, timeout). The permanent I/O kinds — missing file,
    /// permission, unexpected EOF against a manifest-declared length — are
    /// not transient, and neither is any structural error.
    pub fn is_transient(&self) -> bool {
        match self {
            StoreError::Io(e) => io_error_is_transient(e),
            _ => false,
        }
    }

    /// Whether this failure means the bytes themselves are wrong: checksum
    /// or size disagreement with the manifest, or a manifest that fails to
    /// parse/verify. A corrupt store must never be silently served from.
    pub fn is_corruption(&self) -> bool {
        matches!(self, StoreError::Corrupt { .. } | StoreError::Manifest { .. })
    }
}

/// Transient I/O classification shared by the retry loop: everything is
/// retryable except the kinds that cannot heal on a re-read.
pub(crate) fn io_error_is_transient(e: &io::Error) -> bool {
    !matches!(
        e.kind(),
        io::ErrorKind::NotFound
            | io::ErrorKind::PermissionDenied
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::InvalidInput
            | io::ErrorKind::InvalidData
            | io::ErrorKind::Unsupported
    )
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Manifest { line, message } => {
                write!(f, "bad MANIFEST line {line}: {message}")
            }
            StoreError::Corrupt { file, offset, message } => {
                write!(f, "corrupt store file {file} at byte {offset}: {message}")
            }
            StoreError::Unsorted { index, message } => {
                write!(f, "triple {index} out of sort order: {message}")
            }
            StoreError::NotAStore(p) => write!(f, "{} is not a store directory", p.display()),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Crate-wide result alias.
pub(crate) type Result<T> = std::result::Result<T, StoreError>;
