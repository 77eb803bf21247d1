//! Building a store from a sorted triple stream.
//!
//! [`StoreBuilder`] accepts triples in ascending `(head, relation, tail)`
//! order — exactly what the chunked world generators and a sorted
//! in-memory graph emit — and writes forward segments as it goes, so peak
//! RSS is independent of triple count. Because the input is sorted by head,
//! the out-edge CSR offsets fall out of boundary tracking for free: the
//! `i`-th accepted triple *is* triple index `i`, and an entity's out-edges
//! are a contiguous run of forward records.
//!
//! Inverse segments (the in-edge view) need a transpose, which is the only
//! non-streaming step. It runs out-of-core: in-degrees are counted during
//! ingest (4 bytes per entity resident), then the forward segments are
//! re-scanned once per *tail bucket* — a contiguous entity range whose
//! inverse records fit in `transpose_budget_bytes` — and each bucket is
//! sorted and appended to the inverse segment chain. A 10M-triple world
//! with the default 64 MiB budget takes 3 scan passes.
//!
//! The MANIFEST is written last via write-to-temp + rename (the same
//! atomic-publish discipline as `rmpi_autograd::io::atomic_write_bytes`):
//! a crashed build leaves no manifest, and [`crate::StoreReader::open`]
//! refuses the directory instead of reading half a store.

use crate::format::{
    encode_fwd, encode_inv, Xxh64, FWD_BLOCK_BYTES, FWD_RECORD_BYTES, INV_BLOCK_BYTES,
    INV_RECORD_BYTES,
};
use crate::manifest::{fwd_name, inv_name, Manifest, SegmentMeta, INDEX_NAME, MANIFEST_NAME};
use crate::{Result, StoreError};
use rmpi_kg::{KnowledgeGraph, Triple};
use rmpi_testutil::failpoint;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Failpoint hit once per record appended to a segment (`arm_after` to
/// interrupt a build mid-segment).
pub const SEG_WRITE_FAILPOINT: &str = "store::seg_write";

/// Failpoint hit when a finished segment is flushed and fsynced.
pub const SEG_CLOSE_FAILPOINT: &str = "store::seg_close";

/// Failpoint hit before the offsets index is written.
pub const INDEX_WRITE_FAILPOINT: &str = "store::index_write";

/// Failpoint hit before the manifest is atomically published — the last
/// moment a crash leaves a directory without a commit point.
pub const PUBLISH_FAILPOINT: &str = "store::publish";

/// Tuning knobs for [`StoreBuilder`]. The defaults build a 10M-triple world
/// comfortably inside a couple hundred MiB of RSS.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Records per segment file (the last segment of each kind may be
    /// shorter). Smaller segments mean more files but finer verification
    /// granularity.
    pub seg_records: usize,
    /// RAM ceiling for one transpose bucket, in bytes. A single entity
    /// whose in-edges alone exceed the budget still transposes correctly
    /// but overshoots it.
    pub transpose_budget_bytes: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig { seg_records: 1 << 20, transpose_budget_bytes: 64 << 20 }
    }
}

/// What a finished build produced, for logs and benches.
#[derive(Clone, Debug)]
pub struct StoreSummary {
    /// Entity id-space capacity.
    pub num_entities: usize,
    /// Relation id-space capacity.
    pub num_relations: usize,
    /// Total triples stored.
    pub num_triples: usize,
    /// Forward + inverse segment files written.
    pub segments: usize,
    /// Total bytes across all data files (segments + index).
    pub bytes: u64,
    /// Scan passes the transpose needed.
    pub transpose_passes: usize,
}

/// One segment file being written. Records go through a `BufWriter` onto
/// a [`HashedFile`], so closing a segment yields its full checksum table
/// without a second read or a buffer of its own.
struct SegWriter {
    file: String,
    out: BufWriter<HashedFile>,
    bytes: u64,
    records: u64,
}

impl SegWriter {
    fn create(dir: &Path, file: String, block_bytes: u64) -> Result<SegWriter> {
        let f = File::create(dir.join(&file))?;
        Ok(SegWriter {
            file,
            out: BufWriter::new(HashedFile {
                file: f,
                hash: Xxh64::new(),
                block_hash: Xxh64::new(),
                block_bytes,
                in_block: 0,
                block_sums: Vec::new(),
            }),
            bytes: 0,
            records: 0,
        })
    }

    fn write_record(&mut self, rec: &[u8]) -> Result<()> {
        failpoint::io(SEG_WRITE_FAILPOINT)?;
        self.out.write_all(rec)?;
        self.bytes += rec.len() as u64;
        self.records += 1;
        Ok(())
    }

    fn close(self) -> Result<SegmentMeta> {
        failpoint::io(SEG_CLOSE_FAILPOINT)?;
        let mut hashed = self.out.into_inner().map_err(|e| StoreError::Io(e.into_error()))?;
        if hashed.in_block > 0 {
            hashed.block_sums.push(hashed.block_hash.finish());
        }
        hashed.file.sync_all()?;
        Ok(SegmentMeta {
            file: self.file,
            records: self.records,
            bytes: self.bytes,
            checksum: hashed.hash.finish(),
            block_sums: hashed.block_sums,
        })
    }
}

/// The file under a segment's `BufWriter`: the bytes of every write that
/// reaches the file are hashed (XXH64, manifest v3) into the whole-file sum
/// and the rolling sum of their 64 KiB block. Hashing the buffer's flushes
/// rather than each 12- or 16-byte record keeps XXH64 on its 32-byte
/// stripes, where it is fast.
struct HashedFile {
    file: File,
    hash: Xxh64,
    block_hash: Xxh64,
    block_bytes: u64,
    /// Bytes of the current block hashed so far.
    in_block: u64,
    block_sums: Vec<u64>,
}

impl Write for HashedFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.file.write(buf)?;
        let mut written = &buf[..n];
        self.hash.update(written);
        while !written.is_empty() {
            let take = (self.block_bytes - self.in_block).min(written.len() as u64) as usize;
            self.block_hash.update(&written[..take]);
            self.in_block += take as u64;
            written = &written[take..];
            if self.in_block == self.block_bytes {
                self.block_sums.push(self.block_hash.finish());
                self.block_hash = Xxh64::new();
                self.in_block = 0;
            }
        }
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

/// Streaming store writer. See the module docs for the overall shape.
pub struct StoreBuilder {
    dir: PathBuf,
    cfg: StoreConfig,
    cur: Option<SegWriter>,
    fwd: Vec<SegmentMeta>,
    /// `out_off[e]` = triple index of e's first out-edge; grown as heads
    /// advance, completed to length `num_entities + 1` at finish.
    out_off: Vec<u64>,
    /// In-degree per entity, grown on demand as tails appear.
    in_deg: Vec<u32>,
    total: u64,
    last: Option<Triple>,
    max_entity: u64,
    max_relation: u64,
}

impl StoreBuilder {
    /// Start a build in `dir` (created if absent). Existing segment files
    /// are overwritten; the directory only becomes a valid store when
    /// [`StoreBuilder::finish`] publishes the manifest.
    pub fn create(dir: impl AsRef<Path>, cfg: StoreConfig) -> Result<StoreBuilder> {
        assert!(cfg.seg_records > 0, "seg_records must be positive");
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        // A stale manifest from a previous build would make a half-written
        // directory look valid; remove it first.
        let manifest_path = dir.join(MANIFEST_NAME);
        if manifest_path.exists() {
            fs::remove_file(&manifest_path)?;
        }
        Ok(StoreBuilder {
            dir,
            cfg,
            cur: None,
            fwd: Vec::new(),
            out_off: Vec::new(),
            in_deg: Vec::new(),
            total: 0,
            last: None,
            max_entity: 0,
            max_relation: 0,
        })
    }

    /// Append one triple. Input must be sorted ascending by
    /// `(head, relation, tail)`; duplicates are allowed and kept.
    pub fn push(&mut self, t: Triple) -> Result<()> {
        if let Some(prev) = self.last {
            if t < prev {
                return Err(StoreError::Unsorted {
                    index: self.total,
                    message: format!("{t} after {prev}"),
                });
            }
        }
        assert!(self.total < u32::MAX as u64, "store capped at u32::MAX triples");
        self.last = Some(t);
        let h = t.head.0 as u64;
        let ta = t.tail.0 as u64;
        self.max_entity = self.max_entity.max(h + 1).max(ta + 1);
        self.max_relation = self.max_relation.max(t.relation.0 as u64 + 1);
        // Heads are non-decreasing: entities in (prev_head, head] start
        // their out-run at this triple index.
        while self.out_off.len() <= h as usize {
            self.out_off.push(self.total);
        }
        let ti = t.tail.index();
        if self.in_deg.len() <= ti {
            self.in_deg.resize(ti + 1, 0);
        }
        self.in_deg[ti] += 1;

        if self.cur.is_none() {
            self.cur =
                Some(SegWriter::create(&self.dir, fwd_name(self.fwd.len()), FWD_BLOCK_BYTES)?);
        }
        let mut rec = [0u8; FWD_RECORD_BYTES];
        encode_fwd(t, &mut rec);
        let seg = self.cur.as_mut().expect("segment open");
        seg.write_record(&rec)?;
        self.total += 1;
        if seg.records as usize >= self.cfg.seg_records {
            let seg = self.cur.take().expect("segment open");
            self.fwd.push(seg.close()?);
        }
        Ok(())
    }

    /// Transpose, write the offsets index, publish the manifest.
    pub fn finish(mut self) -> Result<StoreSummary> {
        if let Some(seg) = self.cur.take() {
            self.fwd.push(seg.close()?);
        }
        let n = self.max_entity as usize;
        // Complete out_off to length n + 1 (entities past the last head
        // have empty out-runs).
        while self.out_off.len() <= n {
            self.out_off.push(self.total);
        }
        self.in_deg.resize(n, 0);

        let mut in_off = Vec::with_capacity(n + 1);
        let mut acc = 0u64;
        in_off.push(0);
        for &d in &self.in_deg {
            acc += d as u64;
            in_off.push(acc);
        }
        debug_assert_eq!(acc, self.total);

        let (inv, passes) = self.transpose(&in_off)?;

        // Offsets index: out_off ++ in_off, u64 LE, hashed on the way out.
        failpoint::io(INDEX_WRITE_FAILPOINT)?;
        let mut index_hash = Xxh64::new();
        let mut index_bytes = 0u64;
        {
            let f = File::create(self.dir.join(INDEX_NAME))?;
            let mut w = BufWriter::new(f);
            for &v in self.out_off.iter().chain(in_off.iter()) {
                let b = v.to_le_bytes();
                index_hash.update(&b);
                w.write_all(&b)?;
                index_bytes += 8;
            }
            let f = w.into_inner().map_err(|e| StoreError::Io(e.into_error()))?;
            f.sync_all()?;
        }

        let manifest = Manifest {
            version: 3,
            num_entities: n as u64,
            num_relations: self.max_relation,
            num_triples: self.total,
            seg_records: self.cfg.seg_records as u64,
            index_bytes,
            index_checksum: index_hash.finish(),
            fwd: self.fwd,
            inv,
        };
        atomic_publish(&self.dir, MANIFEST_NAME, manifest.to_text().as_bytes())?;

        let data_bytes: u64 = manifest.fwd.iter().chain(manifest.inv.iter()).map(|s| s.bytes).sum();
        Ok(StoreSummary {
            num_entities: n,
            num_relations: manifest.num_relations as usize,
            num_triples: self.total as usize,
            segments: manifest.fwd.len() + manifest.inv.len(),
            bytes: data_bytes + index_bytes,
            transpose_passes: passes,
        })
    }

    /// Out-of-core transpose: re-scan forward segments once per tail
    /// bucket, emit `(tail, rel, head, fwd_idx)` sorted by `(tail, fwd_idx)`.
    fn transpose(&self, in_off: &[u64]) -> Result<(Vec<SegmentMeta>, usize)> {
        let n = in_off.len() - 1;
        // Carve entities into contiguous buckets whose inverse records fit
        // the budget.
        let budget_records = (self.cfg.transpose_budget_bytes / INV_RECORD_BYTES).max(1) as u64;
        let mut buckets: Vec<(usize, usize)> = Vec::new();
        let mut start = 0usize;
        while start < n {
            let mut end = start;
            while end < n {
                let records = in_off[end + 1] - in_off[start];
                if records > budget_records && end > start {
                    break;
                }
                end += 1;
                if records > budget_records {
                    break; // single over-budget entity gets its own bucket
                }
            }
            buckets.push((start, end));
            start = end;
        }

        let mut inv_segs: Vec<SegmentMeta> = Vec::new();
        let mut cur: Option<SegWriter> = None;
        let mut scratch: Vec<(u32, u32, u32, u32)> = Vec::new();
        for &(lo, hi) in &buckets {
            scratch.clear();
            scratch.reserve((in_off[hi] - in_off[lo]) as usize);
            let mut idx = 0u32;
            for seg in &self.fwd {
                let f = File::open(self.dir.join(&seg.file))?;
                let mut r = BufReader::with_capacity(1 << 16, f);
                let mut rec = [0u8; FWD_RECORD_BYTES];
                for _ in 0..seg.records {
                    r.read_exact(&mut rec)?;
                    let t = crate::format::decode_fwd(&rec);
                    let tail = t.tail.index();
                    if tail >= lo && tail < hi {
                        scratch.push((t.tail.0, t.relation.0, t.head.0, idx));
                    }
                    idx += 1;
                }
            }
            // Scan order is ascending fwd_idx, so a sort by (tail, idx)
            // equals a stable sort by tail; unstable sort with the full key
            // is cheapest.
            scratch.sort_unstable_by_key(|&(tail, _, _, fi)| (tail, fi));
            let mut rec = [0u8; INV_RECORD_BYTES];
            for &(tail, rel, head, fi) in &scratch {
                if cur.is_none() {
                    cur = Some(SegWriter::create(
                        &self.dir,
                        inv_name(inv_segs.len()),
                        INV_BLOCK_BYTES,
                    )?);
                }
                encode_inv(
                    rmpi_kg::EntityId(tail),
                    rmpi_kg::RelationId(rel),
                    rmpi_kg::EntityId(head),
                    fi,
                    &mut rec,
                );
                let seg = cur.as_mut().expect("segment open");
                seg.write_record(&rec)?;
                if seg.records as usize >= self.cfg.seg_records {
                    let seg = cur.take().expect("segment open");
                    inv_segs.push(seg.close()?);
                }
            }
        }
        if let Some(seg) = cur {
            inv_segs.push(seg.close()?);
        }
        Ok((inv_segs, buckets.len().max(1)))
    }
}

/// Build a store from an already-sorted triple iterator.
pub fn build_from_sorted(
    dir: impl AsRef<Path>,
    cfg: StoreConfig,
    triples: impl IntoIterator<Item = Triple>,
) -> Result<StoreSummary> {
    let mut b = StoreBuilder::create(dir, cfg)?;
    for t in triples {
        b.push(t)?;
    }
    b.finish()
}

/// Build a store from an in-memory graph (sorts a copy of the triples; a
/// convenience for tests and bundle export, not the streaming path).
pub fn build_from_graph(
    dir: impl AsRef<Path>,
    cfg: StoreConfig,
    g: &KnowledgeGraph,
) -> Result<StoreSummary> {
    let mut triples = g.triples().to_vec();
    triples.sort_unstable();
    build_from_sorted(dir, cfg, triples)
}

/// Write `bytes` to `dir/name` atomically: temp file, fsync, rename, then
/// directory fsync. The directory fsync is what makes the *rename* durable;
/// when it fails the publish still completed, so the failure is counted and
/// logged (`io.dir_fsync_failures`) rather than returned.
fn atomic_publish(dir: &Path, name: &str, bytes: &[u8]) -> Result<()> {
    failpoint::io(PUBLISH_FAILPOINT)?;
    let tmp = dir.join(format!("{name}.tmp"));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, dir.join(name))?;
    match File::open(dir).and_then(|d| d.sync_all()) {
        Ok(()) => {}
        Err(e) => rmpi_obs::note_dir_fsync_failure(dir, &e),
    }
    Ok(())
}

impl StoreBuilder {
    /// Expose the builder methods on the type for discoverability; the
    /// free functions above are thin wrappers.
    pub fn build_from_sorted(
        dir: impl AsRef<Path>,
        cfg: StoreConfig,
        triples: impl IntoIterator<Item = Triple>,
    ) -> Result<StoreSummary> {
        build_from_sorted(dir, cfg, triples)
    }

    /// See [`build_from_graph`].
    pub fn build_from_graph(
        dir: impl AsRef<Path>,
        cfg: StoreConfig,
        g: &KnowledgeGraph,
    ) -> Result<StoreSummary> {
        build_from_graph(dir, cfg, g)
    }
}
