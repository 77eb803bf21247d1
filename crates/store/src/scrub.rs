//! Offline integrity scrub: walk a store directory and report per-section
//! health without opening a reader.
//!
//! [`scrub_store`] is the maintenance-window counterpart of the reader's
//! cache-fill verification: it re-hashes the index and every segment
//! against the manifest with the manifest's checksum function, checks
//! per-block checksums when the manifest carries them (v2, v3), and —
//! unlike [`crate::StoreReader::verify`] — keeps going after the first
//! problem so one pass reports *all* damage, with block-precise offsets
//! where possible.

use crate::format::{Checksum, FWD_BLOCK_BYTES, INV_BLOCK_BYTES};
use crate::manifest::{Manifest, SegmentMeta, INDEX_NAME, MANIFEST_NAME};
use crate::{Result, StoreError};
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

/// The verdict for one file (or the manifest itself) in a scrub pass.
#[derive(Clone, Debug)]
pub struct ScrubSection {
    /// File name relative to the store directory (`MANIFEST`, `index.bin`,
    /// or a segment).
    pub file: String,
    /// Bytes the manifest declares for this file (0 for the manifest).
    pub bytes: u64,
    /// Checksum blocks verified (0 when the manifest carries no block
    /// table for this file).
    pub blocks_checked: u64,
    /// `None` when the section is healthy; otherwise what is wrong.
    pub error: Option<String>,
}

impl ScrubSection {
    fn ok(file: impl Into<String>, bytes: u64, blocks_checked: u64) -> ScrubSection {
        ScrubSection { file: file.into(), bytes, blocks_checked, error: None }
    }

    fn bad(file: impl Into<String>, bytes: u64, message: String) -> ScrubSection {
        ScrubSection { file: file.into(), bytes, blocks_checked: 0, error: Some(message) }
    }
}

/// Everything one scrub pass found.
#[derive(Clone, Debug, Default)]
pub struct ScrubReport {
    /// One entry per file, manifest first, in manifest order.
    pub sections: Vec<ScrubSection>,
}

impl ScrubReport {
    /// Whether every section verified clean.
    pub fn is_clean(&self) -> bool {
        self.sections.iter().all(|s| s.error.is_none())
    }

    /// The sections that failed verification.
    pub fn corrupt_sections(&self) -> Vec<&ScrubSection> {
        self.sections.iter().filter(|s| s.error.is_some()).collect()
    }
}

/// Scrub a store directory. Returns `Err` only when `dir` is not a store
/// at all (no `MANIFEST`) or the directory itself is unreadable; damage in
/// the manifest or any data file lands in the report instead, so a single
/// pass lists every bad section.
pub fn scrub_store(dir: impl AsRef<Path>) -> Result<ScrubReport> {
    let dir = dir.as_ref();
    let text = match std::fs::read_to_string(dir.join(MANIFEST_NAME)) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(StoreError::NotAStore(dir.to_path_buf()));
        }
        Err(e) => return Err(e.into()),
    };
    let mut report = ScrubReport::default();
    let manifest = match Manifest::parse(&text) {
        Ok(m) => m,
        Err(e) => {
            report.sections.push(ScrubSection::bad(
                MANIFEST_NAME,
                text.len() as u64,
                e.to_string(),
            ));
            return Ok(report);
        }
    };
    report.sections.push(ScrubSection::ok(MANIFEST_NAME, text.len() as u64, 0));

    // Index: size + whole-file hash.
    match std::fs::read(dir.join(INDEX_NAME)) {
        Ok(raw) => {
            if raw.len() as u64 != manifest.index_bytes {
                report.sections.push(ScrubSection::bad(
                    INDEX_NAME,
                    manifest.index_bytes,
                    format!("expected {} bytes, found {}", manifest.index_bytes, raw.len()),
                ));
            } else {
                let got = manifest.checksum().of(&raw);
                if got != manifest.index_checksum {
                    report.sections.push(ScrubSection::bad(
                        INDEX_NAME,
                        manifest.index_bytes,
                        format!(
                            "checksum mismatch: manifest {:016x}, file {got:016x}",
                            manifest.index_checksum
                        ),
                    ));
                } else {
                    report.sections.push(ScrubSection::ok(INDEX_NAME, manifest.index_bytes, 0));
                }
            }
        }
        Err(e) => {
            report.sections.push(ScrubSection::bad(INDEX_NAME, manifest.index_bytes, e.to_string()))
        }
    }

    for (segs, block_bytes) in [(&manifest.fwd, FWD_BLOCK_BYTES), (&manifest.inv, INV_BLOCK_BYTES)]
    {
        for meta in segs {
            report.sections.push(scrub_segment(dir, meta, block_bytes, manifest.checksum()));
        }
    }
    Ok(report)
}

/// Stream one segment, verifying the whole-file hash and (when present)
/// every block checksum. The first bad block is named with its byte range;
/// RSS stays at one block buffer.
fn scrub_segment(dir: &Path, meta: &SegmentMeta, block_bytes: u64, sum: Checksum) -> ScrubSection {
    let file = match File::open(dir.join(&meta.file)) {
        Ok(f) => f,
        Err(e) => return ScrubSection::bad(meta.file.clone(), meta.bytes, e.to_string()),
    };
    let actual = match file.metadata() {
        Ok(m) => m.len(),
        Err(e) => return ScrubSection::bad(meta.file.clone(), meta.bytes, e.to_string()),
    };
    if actual != meta.bytes {
        return ScrubSection::bad(
            meta.file.clone(),
            meta.bytes,
            format!("expected {} bytes, found {actual}", meta.bytes),
        );
    }
    let mut r = BufReader::with_capacity(block_bytes as usize, file);
    let blocks = SegmentMeta::block_count(meta.bytes, block_bytes);
    let mut buf = vec![0u8; block_bytes as usize];
    let mut whole = sum.hasher();
    for b in 0..blocks {
        let len = (meta.bytes - b * block_bytes).min(block_bytes) as usize;
        if let Err(e) = r.read_exact(&mut buf[..len]) {
            return ScrubSection::bad(
                meta.file.clone(),
                meta.bytes,
                format!("read failed at block {b} (byte {}): {e}", b * block_bytes),
            );
        }
        whole.update(&buf[..len]);
        if let Some(&want) = meta.block_sums.get(b as usize) {
            let got = sum.of(&buf[..len]);
            if got != want {
                let lo = b * block_bytes;
                return ScrubSection::bad(
                    meta.file.clone(),
                    meta.bytes,
                    format!(
                        "block {b} (bytes {lo}..{}) checksum mismatch: manifest {want:016x}, file {got:016x}",
                        lo + len as u64
                    ),
                );
            }
        }
    }
    let got = whole.finish();
    if got != meta.checksum {
        return ScrubSection::bad(
            meta.file.clone(),
            meta.bytes,
            format!(
                "whole-file checksum mismatch: manifest {:016x}, file {got:016x}",
                meta.checksum
            ),
        );
    }
    ScrubSection::ok(meta.file.clone(), meta.bytes, blocks)
}
