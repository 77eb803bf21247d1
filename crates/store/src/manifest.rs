//! The store MANIFEST: a line-oriented text file, written last.
//!
//! The manifest is the commit point of a build. Segment and index files are
//! written first; only once they are all durable does the builder write
//! `MANIFEST` via write-to-temp + rename, so a crashed build leaves a
//! directory without a manifest — recognisably not a store — rather than a
//! plausible-looking broken one. Every data file is listed with its record
//! count, byte length, and checksum, which is what lets
//! [`crate::scrub_store`] detect truncation and bit-rot and name the
//! offending file.
//!
//! The format is version 3, the only one this crate reads or writes. Every
//! checksum is XXH64 (seed 0, [`crate::xxh64`]) as 16 hex digits:
//!
//! ```text
//! rmpi-store v3
//! entities <n>
//! relations <n>
//! triples <n>
//! seg_records <n>
//! index index.bin <bytes> <xxh64>
//! fwd fwd-00000.seg <records> <bytes> <xxh64>
//! blocks fwd-00000.seg <xxh64> <xxh64> ...
//! inv inv-00000.seg <records> <bytes> <xxh64>
//! blocks inv-00000.seg <xxh64> ...
//! sum <xxh64 of every byte above>
//! end
//! ```
//!
//! * The `blocks` line after each segment line carries one checksum per
//!   64 KiB block (geometry from the crate's `format` module), so a
//!   streaming reader verifies each block at cache-fill time instead of
//!   trusting whole-file sums it never recomputes.
//! * The `sum` and `end` lines are the seal ([`crate::seal`], shared with
//!   model bundles and training checkpoints). They make the manifest itself
//!   tamper-evident: any byte flip in the metadata — a digit of
//!   `seg_records`, a hex digit of a checksum — is caught at parse time
//!   instead of silently re-mapping records to the wrong segment. A line
//!   that does not parse is reported first, with its line number; then
//!   [`crate::unseal`] checks the seal.
//!
//! Both are mandatory. Parsing also cross-checks structure: segment
//! byte lengths must equal `records × record_size`, every segment but the
//! last of each kind must hold exactly `seg_records` records, and each
//! segment's block-checksum count must match its length. Manifests of the
//! older `rmpi-store v1` and `v2` formats are refused as unsupported.

use crate::format::{
    seal, unseal, FWD_BLOCK_BYTES, FWD_RECORD_BYTES, INV_BLOCK_BYTES, INV_RECORD_BYTES,
};
use crate::{Result, StoreError};
use std::fmt::Write as _;

/// File name of the manifest inside a store directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// Magic first line of a manifest: version 3, the only one read or written.
pub(crate) const MAGIC_V3: &str = "rmpi-store v3";

/// Name of the resident offsets index file.
pub const INDEX_NAME: &str = "index.bin";

/// File name of forward segment `i`.
pub(crate) fn fwd_name(i: usize) -> String {
    format!("fwd-{i:05}.seg")
}

/// File name of inverse segment `i`.
pub(crate) fn inv_name(i: usize) -> String {
    format!("inv-{i:05}.seg")
}

/// Manifest entry for one data segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentMeta {
    /// File name relative to the store directory.
    pub file: String,
    /// Fixed-width records in the file.
    pub(crate) records: u64,
    /// Byte length (always `records * record_size`).
    pub(crate) bytes: u64,
    /// XXH64 of the raw file bytes.
    pub(crate) checksum: u64,
    /// XXH64 per 64 KiB block, one per block of a parsed manifest. Block
    /// geometry is `FWD_BLOCK_BYTES`/`INV_BLOCK_BYTES` from the crate's
    /// `format` module; the final block covers the file tail.
    pub(crate) block_sums: Vec<u64>,
}

impl SegmentMeta {
    /// How many checksum blocks a segment of `bytes` length has.
    pub(crate) fn block_count(bytes: u64, block_bytes: u64) -> u64 {
        bytes.div_ceil(block_bytes)
    }
}

/// Parsed contents of a store MANIFEST.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Entity id-space capacity (max id + 1).
    pub(crate) num_entities: u64,
    /// Relation id-space capacity (max id + 1).
    pub(crate) num_relations: u64,
    /// Total triples across all forward segments.
    pub(crate) num_triples: u64,
    /// Records per full segment (the last segment of each kind may be
    /// shorter).
    pub(crate) seg_records: u64,
    /// Byte length of `index.bin`.
    pub(crate) index_bytes: u64,
    /// XXH64 of `index.bin`.
    pub index_checksum: u64,
    /// Forward segments in order.
    pub fwd: Vec<SegmentMeta>,
    /// Inverse segments in order.
    pub inv: Vec<SegmentMeta>,
}

impl Manifest {
    /// Serialise to the v3 text format.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{MAGIC_V3}");
        let _ = writeln!(s, "entities {}", self.num_entities);
        let _ = writeln!(s, "relations {}", self.num_relations);
        let _ = writeln!(s, "triples {}", self.num_triples);
        let _ = writeln!(s, "seg_records {}", self.seg_records);
        let _ = writeln!(s, "index {INDEX_NAME} {} {:016x}", self.index_bytes, self.index_checksum);
        let seg_line = |s: &mut String, kind: &str, seg: &SegmentMeta| {
            let _ = writeln!(
                s,
                "{kind} {} {} {} {:016x}",
                seg.file, seg.records, seg.bytes, seg.checksum
            );
            if !seg.block_sums.is_empty() {
                let _ = write!(s, "blocks {}", seg.file);
                for sum in &seg.block_sums {
                    let _ = write!(s, " {sum:016x}");
                }
                s.push('\n');
            }
        };
        for seg in &self.fwd {
            seg_line(&mut s, "fwd", seg);
        }
        for seg in &self.inv {
            seg_line(&mut s, "inv", seg);
        }
        seal(&mut s);
        s
    }

    /// Parse the v3 text format, reporting the offending line on error.
    /// The manifest must carry a valid `sum` self-checksum and one `blocks`
    /// line per segment; any other magic line, an older `rmpi-store`
    /// version's included, is refused.
    pub fn parse(text: &str) -> Result<Manifest> {
        let bad = |line: usize, message: String| StoreError::Manifest { line, message };
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, MAGIC_V3)) => {}
            Some((i, l)) if l.starts_with("rmpi-store ") => {
                return Err(bad(
                    i + 1,
                    format!("unsupported manifest version `{l}`: only `{MAGIC_V3}` is read"),
                ))
            }
            Some((i, l)) => return Err(bad(i + 1, format!("expected `{MAGIC_V3}`, found `{l}`"))),
            None => return Err(bad(1, "empty manifest".into())),
        }
        let mut num_entities = None;
        let mut num_relations = None;
        let mut num_triples = None;
        let mut seg_records = None;
        let mut index: Option<(u64, u64)> = None;
        let mut fwd: Vec<SegmentMeta> = Vec::new();
        let mut inv: Vec<SegmentMeta> = Vec::new();
        // Which vec got the most recent segment line — a `blocks` line must
        // immediately follow its segment's own line.
        let mut last_seg: Option<(bool, usize)> = None;
        for (i, line) in lines {
            let lineno = i + 1;
            let mut parts = line.split_whitespace();
            let key = parts.next().unwrap_or("");
            let mut next_u64 = |what: &str| -> Result<u64> {
                let tok = parts.next().ok_or_else(|| bad(lineno, format!("missing {what}")))?;
                tok.parse::<u64>().map_err(|_| bad(lineno, format!("bad {what} `{tok}`")))
            };
            match key {
                "entities" => num_entities = Some(next_u64("entity count")?),
                "relations" => num_relations = Some(next_u64("relation count")?),
                "triples" => num_triples = Some(next_u64("triple count")?),
                "seg_records" => seg_records = Some(next_u64("segment size")?),
                "index" => {
                    let file = parts
                        .next()
                        .ok_or_else(|| bad(lineno, "missing index file name".into()))?
                        .to_string();
                    if file != INDEX_NAME {
                        return Err(bad(lineno, format!("unexpected index file `{file}`")));
                    }
                    let bytes = parse_u64(parts.next(), lineno, "index bytes")?;
                    let checksum = parse_hex(parts.next(), lineno, "index checksum")?;
                    index = Some((bytes, checksum));
                }
                "fwd" | "inv" => {
                    let file = parts
                        .next()
                        .ok_or_else(|| bad(lineno, "missing segment file name".into()))?
                        .to_string();
                    let records = parse_u64(parts.next(), lineno, "segment records")?;
                    let bytes = parse_u64(parts.next(), lineno, "segment bytes")?;
                    let checksum = parse_hex(parts.next(), lineno, "segment checksum")?;
                    let meta =
                        SegmentMeta { file, records, bytes, checksum, block_sums: Vec::new() };
                    if key == "fwd" {
                        fwd.push(meta);
                        last_seg = Some((true, fwd.len() - 1));
                    } else {
                        inv.push(meta);
                        last_seg = Some((false, inv.len() - 1));
                    }
                }
                "blocks" => {
                    let file = parts
                        .next()
                        .ok_or_else(|| bad(lineno, "missing blocks file name".into()))?;
                    let meta = match last_seg {
                        Some((true, i)) => &mut fwd[i],
                        Some((false, i)) => &mut inv[i],
                        None => return Err(bad(lineno, "`blocks` line before any segment".into())),
                    };
                    if meta.file != file {
                        return Err(bad(
                            lineno,
                            format!("`blocks {file}` does not follow its segment line (last segment: {})", meta.file),
                        ));
                    }
                    if !meta.block_sums.is_empty() {
                        return Err(bad(lineno, format!("duplicate `blocks` line for {file}")));
                    }
                    for tok in parts.by_ref() {
                        let sum = u64::from_str_radix(tok, 16)
                            .map_err(|_| bad(lineno, format!("bad block checksum `{tok}`")))?;
                        meta.block_sums.push(sum);
                    }
                    if meta.block_sums.is_empty() {
                        return Err(bad(lineno, format!("`blocks {file}` lists no checksums")));
                    }
                }
                // the seal, checked by `unseal` once every line has parsed
                "sum" | "end" => continue,
                other => return Err(bad(lineno, format!("unknown key `{other}`"))),
            }
            if parts.next().is_some() {
                return Err(bad(lineno, "trailing tokens".into()));
            }
        }
        unseal(text.as_bytes()).map_err(|(line, message)| bad(line, message))?;
        let last_line = text.lines().count();
        let require = |v: Option<u64>, what: &str| {
            v.ok_or_else(|| bad(last_line, format!("missing `{what}` line")))
        };
        let (index_bytes, index_checksum) =
            index.ok_or_else(|| bad(last_line, "missing `index` line".into()))?;
        let m = Manifest {
            num_entities: require(num_entities, "entities")?,
            num_relations: require(num_relations, "relations")?,
            num_triples: require(num_triples, "triples")?,
            seg_records: require(seg_records, "seg_records")?,
            index_bytes,
            index_checksum,
            fwd,
            inv,
        };
        m.validate().map_err(|message| bad(last_line, message))?;
        Ok(m)
    }

    /// Structural cross-checks over a parsed manifest. Returns the problem
    /// description on failure (the caller attaches a line number).
    fn validate(&self) -> std::result::Result<(), String> {
        let fwd_total: u64 = self.fwd.iter().map(|s| s.records).sum();
        if fwd_total != self.num_triples {
            return Err(format!(
                "fwd segments hold {fwd_total} records, manifest says {} triples",
                self.num_triples
            ));
        }
        let inv_total: u64 = self.inv.iter().map(|s| s.records).sum();
        if inv_total != self.num_triples {
            return Err(format!(
                "inv segments hold {inv_total} records, expected {}",
                self.num_triples
            ));
        }
        for (kind, segs, rec_bytes, block_bytes) in [
            ("fwd", &self.fwd, FWD_RECORD_BYTES as u64, FWD_BLOCK_BYTES),
            ("inv", &self.inv, INV_RECORD_BYTES as u64, INV_BLOCK_BYTES),
        ] {
            for (i, seg) in segs.iter().enumerate() {
                if seg.bytes != seg.records * rec_bytes {
                    return Err(format!(
                        "{kind} segment {} declares {} bytes for {} records ({}-byte records)",
                        seg.file, seg.bytes, seg.records, rec_bytes
                    ));
                }
                if seg.records == 0 {
                    return Err(format!("{kind} segment {} is empty", seg.file));
                }
                if i + 1 < segs.len() && seg.records != self.seg_records {
                    return Err(format!(
                        "{kind} segment {} holds {} records but only the last segment may be short (seg_records {})",
                        seg.file, seg.records, self.seg_records
                    ));
                }
                if seg.records > self.seg_records {
                    return Err(format!(
                        "{kind} segment {} holds {} records, over seg_records {}",
                        seg.file, seg.records, self.seg_records
                    ));
                }
                let want = SegmentMeta::block_count(seg.bytes, block_bytes);
                if seg.block_sums.len() as u64 != want {
                    return Err(format!(
                        "{kind} segment {} has {} block checksums, {} bytes need {want}",
                        seg.file,
                        seg.block_sums.len(),
                        seg.bytes
                    ));
                }
            }
        }
        Ok(())
    }
}

fn parse_u64(tok: Option<&str>, line: usize, what: &str) -> Result<u64> {
    let tok =
        tok.ok_or_else(|| StoreError::Manifest { line, message: format!("missing {what}") })?;
    tok.parse::<u64>()
        .map_err(|_| StoreError::Manifest { line, message: format!("bad {what} `{tok}`") })
}

fn parse_hex(tok: Option<&str>, line: usize, what: &str) -> Result<u64> {
    let tok =
        tok.ok_or_else(|| StoreError::Manifest { line, message: format!("missing {what}") })?;
    u64::from_str_radix(tok, 16)
        .map_err(|_| StoreError::Manifest { line, message: format!("bad {what} `{tok}`") })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Segments are far below one block, so one checksum each.
    fn sample() -> Manifest {
        Manifest {
            num_entities: 10,
            num_relations: 3,
            num_triples: 7,
            seg_records: 4,
            index_bytes: 176,
            index_checksum: 0xdead_beef,
            fwd: vec![
                SegmentMeta {
                    file: fwd_name(0),
                    records: 4,
                    bytes: 48,
                    checksum: 1,
                    block_sums: vec![0xabcd],
                },
                SegmentMeta {
                    file: fwd_name(1),
                    records: 3,
                    bytes: 36,
                    checksum: 2,
                    block_sums: vec![0xabcd],
                },
            ],
            inv: vec![
                SegmentMeta {
                    file: inv_name(0),
                    records: 4,
                    bytes: 64,
                    checksum: 3,
                    block_sums: vec![0xabcd],
                },
                SegmentMeta {
                    file: inv_name(1),
                    records: 3,
                    bytes: 48,
                    checksum: 4,
                    block_sums: vec![0xabcd],
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let text = m.to_text();
        assert!(text.starts_with(MAGIC_V3), "{text}");
        assert!(text.contains("blocks fwd-00000.seg 000000000000abcd"), "{text}");
        assert!(text.contains("\nsum "), "{text}");
        assert_eq!(Manifest::parse(&text).unwrap(), m);
    }

    #[test]
    fn roundtrip_sums_itself_with_xxh64() {
        let m = sample();
        let text = m.to_text();
        assert!(text.starts_with(MAGIC_V3), "{text}");
        assert_eq!(Manifest::parse(&text).unwrap(), m);
        let sum_at = text.find("\nsum ").unwrap() + 1;
        let recorded = text[sum_at + 4..sum_at + 20].to_string();
        let above = &text.as_bytes()[..sum_at];
        assert_eq!(recorded, format!("{:016x}", crate::xxh64(above)));
    }

    #[test]
    fn a_v3_body_under_an_older_magic_is_refused_as_unsupported() {
        for old in ["rmpi-store v1", "rmpi-store v2"] {
            let text = sample().to_text().replacen(MAGIC_V3, old, 1);
            let err = Manifest::parse(&text).unwrap_err();
            assert!(matches!(err, StoreError::Manifest { line: 1, .. }), "{err}");
            assert!(err.to_string().contains("unsupported"), "{err}");
            assert!(err.to_string().contains(MAGIC_V3), "{err}");
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let err = Manifest::parse("rmpi-store v9\nend\n").unwrap_err();
        assert!(matches!(err, StoreError::Manifest { line: 1, .. }), "{err}");
    }

    #[test]
    fn rejects_truncation() {
        let text = sample().to_text();
        let cut = text.strip_suffix("end\n").unwrap();
        let err = Manifest::parse(cut).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn rejects_record_count_mismatch() {
        let mut m = sample();
        m.num_triples = 99;
        let err = Manifest::parse(&m.to_text()).unwrap_err();
        assert!(err.to_string().contains("99"), "{err}");
    }

    #[test]
    fn rejects_byte_length_mismatch() {
        let mut m = sample();
        m.fwd[0].bytes = 47;
        let err = Manifest::parse(&m.to_text()).unwrap_err();
        assert!(err.to_string().contains("47 bytes"), "{err}");
    }

    #[test]
    fn rejects_short_non_final_segment() {
        let mut m = sample();
        m.fwd[0].records = 3;
        m.fwd[0].bytes = 36;
        m.fwd[1].records = 4;
        m.fwd[1].bytes = 48;
        let err = Manifest::parse(&m.to_text()).unwrap_err();
        assert!(err.to_string().contains("only the last segment may be short"), "{err}");
    }

    #[test]
    fn requires_self_checksum() {
        let mut text = sample().to_text();
        let sum_start = text.find("\nsum ").unwrap();
        let end_start = text.rfind("end\n").unwrap();
        text.replace_range(sum_start + 1..end_start, "");
        let err = Manifest::parse(&text).unwrap_err();
        assert!(err.to_string().contains("missing `sum`"), "{err}");
    }

    #[test]
    fn requires_block_sums() {
        let m = sample();
        let text = m.to_text().replace("blocks fwd-00001.seg 000000000000abcd\n", "");
        let err = Manifest::parse(&text).unwrap_err();
        // Dropping a line invalidates the self-checksum first — also a
        // detection, but assert the structural check alone by rebuilding
        // the sum line.
        assert!(err.to_string().contains("self-checksum"), "{err}");
        let m2 = {
            let mut m2 = m;
            m2.fwd[1].block_sums.clear();
            m2
        };
        // to_text skips empty block_sums, and parse rejects the count.
        let err2 = Manifest::parse(&m2.to_text()).unwrap_err();
        assert!(err2.to_string().contains("block checksums"), "{err2}");
    }

    #[test]
    fn any_single_byte_flip_is_detected() {
        let m = &sample();
        let text = m.to_text();
        let bytes = text.as_bytes();
        for pos in (0..bytes.len()).step_by(7) {
            for bit in [0, 3, 6] {
                let mut copy = bytes.to_vec();
                copy[pos] ^= 1 << bit;
                if copy == bytes {
                    continue;
                }
                // Non-UTF8 bytes cannot even reach the parser. Otherwise:
                // either the parser rejects the damage, or the flip was
                // semantically invisible (e.g. whitespace after the summed
                // region) and the result is identical — never a silently
                // *different* manifest.
                if let Ok(flipped) = String::from_utf8(copy) {
                    if let Ok(parsed) = Manifest::parse(&flipped) {
                        assert_eq!(
                            &parsed,
                            m,
                            "flip at byte {pos} bit {bit} silently altered the manifest:\n{flipped}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn names_offending_line() {
        let mut text = sample().to_text();
        text = text.replace("seg_records 4", "seg_records four");
        let err = Manifest::parse(&text).unwrap_err();
        match err {
            StoreError::Manifest { line, ref message } => {
                assert_eq!(line, 5);
                assert!(message.contains("four"));
            }
            other => panic!("unexpected: {other}"),
        }
    }
}
