//! Reading a store: resident offsets, cold segment data.
//!
//! A [`StoreReader`] always keeps the offsets index in RAM — 16 bytes per
//! entity, ~16 MiB at a million entities — because every adjacency query
//! starts there. Segment data is served one of two ways:
//!
//! * [`ReadMode::Stream`] (default): point reads go through a small LRU
//!   block cache of 64 KiB-aligned blocks fetched with positioned reads
//!   (`pread`), so RSS is `index + cache` regardless of graph size. This is
//!   the mode the acceptance criteria measure.
//! * [`ReadMode::Resident`]: segment bytes are loaded (and checksum-verified)
//!   up front. Same code paths, zero read syscalls after open — a
//!   reasonable choice for graphs that fit in RAM.
//!
//! `mmap` was considered and rejected: it needs either a platform syscall
//! shim or an external crate (the build is offline/dependency-free), makes
//! checksum verification lazy (a bit flip faults at use time, far from
//!   open), and its page cache is invisible to the `store.*` metrics. The
//! explicit block cache keeps failure modes at `open`/`verify` time and
//! every disk touch observable. See DESIGN.md §13.
//!
//! Block sizes are multiples of the record sizes, so a record never
//! straddles two blocks and every point read is one cache probe.

use crate::format::{
    decode_fwd, decode_inv, FWD_BLOCK_BYTES, FWD_BLOCK_RECORDS, FWD_RECORD_BYTES, INV_BLOCK_BYTES,
    INV_BLOCK_RECORDS, INV_RECORD_BYTES,
};
use crate::manifest::{Manifest, SegmentMeta, INDEX_NAME, MANIFEST_NAME};
use crate::{io_error_is_transient, Result, StoreError};
use rmpi_kg::{Edge, EntityId, Triple};
use rmpi_obs::{Counter, Gauge, MetricsRegistry};
use rmpi_testutil::chaosfile::{ChaosFile, ChaosFileConfig};
use rmpi_testutil::failpoint;
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{BufReader, Read};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Failpoint hit before every positioned segment read (the `pread` path
/// behind the block cache). Arm with an `io_error` action to exercise the
/// retry loop without a chaos file.
pub const PREAD_FAILPOINT: &str = "store::pread";

/// Bounded-retry policy for transient `pread` failures. Attempt `k`
/// (0-based, after the first) sleeps `backoff << (k - 1)` before re-reading;
/// with the defaults that is 0.5/1/2 ms — long enough to ride out an
/// interrupted syscall or device hiccup, short enough that a request-path
/// read never stalls noticeably.
#[derive(Clone, Copy, Debug)]
pub struct RetryConfig {
    /// Total read attempts (first try included). Clamped to at least 1.
    pub attempts: u32,
    /// Base backoff before the second attempt; doubles per further attempt.
    pub backoff: Duration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        // At a 10% transient-fault rate, 4 attempts leave ~1e-4 residual
        // failure per block read — the 99% availability floor asserted by
        // rmpi-serve's `transient_read_faults_are_retried_not_degraded`.
        RetryConfig { attempts: 4, backoff: Duration::from_micros(500) }
    }
}

/// Everything [`StoreReader::open_opts`] accepts beyond the directory:
/// read mode, retry policy, and an optional seeded disk-fault injector for
/// tests and benches.
#[derive(Clone, Debug, Default)]
pub struct StoreOptions {
    /// How segment data reaches queries.
    pub mode: ReadMode,
    /// Transient-failure retry policy for positioned reads.
    pub retry: RetryConfig,
    /// When set, every segment file's `pread` path goes through a
    /// [`ChaosFile`] with this configuration. Sequential sweeps
    /// ([`StoreReader::for_each_triple`], [`StoreReader::verify`]) open
    /// fresh file handles and are not disturbed.
    pub chaos: Option<ChaosFileConfig>,
}

impl From<ReadMode> for StoreOptions {
    fn from(mode: ReadMode) -> Self {
        StoreOptions { mode, ..Default::default() }
    }
}

/// A segment file handle for positioned reads — plain, or wrapped in a
/// seeded fault injector.
enum SegFile {
    Plain(File),
    Chaos(ChaosFile),
}

impl SegFile {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        match self {
            SegFile::Plain(f) => f.read_exact_at(buf, offset),
            SegFile::Chaos(c) => c.read_exact_at(buf, offset),
        }
    }
}

/// How segment data reaches queries. See the module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadMode {
    /// Load all segment bytes into RAM at open (verifying checksums).
    Resident,
    /// Keep segments on disk; cache up to `cache_blocks` 64 KiB blocks.
    Stream {
        /// LRU capacity in blocks (64 KiB each).
        cache_blocks: usize,
    },
}

impl Default for ReadMode {
    fn default() -> Self {
        // 256 blocks = 16 MiB: enough for a k-hop working set, far below
        // any interesting graph size.
        ReadMode::Stream { cache_blocks: 256 }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Fwd,
    Inv,
}

struct CacheEntry {
    data: Arc<Vec<u8>>,
    last_used: u64,
}

/// Tiny LRU keyed by (kind, segment, block). Capacity is small (hundreds),
/// so eviction by linear min-scan is cheaper than a linked structure.
struct BlockCache {
    cap: usize,
    tick: u64,
    map: HashMap<(Kind, u32, u32), CacheEntry>,
}

impl BlockCache {
    fn get(&mut self, key: (Kind, u32, u32)) -> Option<Arc<Vec<u8>>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.data)
        })
    }

    fn insert(&mut self, key: (Kind, u32, u32), data: Arc<Vec<u8>>) {
        self.tick += 1;
        if self.map.len() >= self.cap && !self.map.contains_key(&key) {
            if let Some((&victim, _)) = self.map.iter().min_by_key(|(_, e)| e.last_used) {
                self.map.remove(&victim);
            }
        }
        let tick = self.tick;
        self.map.insert(key, CacheEntry { data, last_used: tick });
    }
}

/// `store.*` instruments, shared by all handles of one reader.
#[derive(Clone)]
struct StoreMetrics {
    /// Disk block fetches (cache misses + sequential sweep reads).
    segment_reads: Counter,
    /// Bytes pulled off disk.
    bytes_scanned: Counter,
    /// Block-cache hits (point queries answered without IO).
    index_hits: Counter,
    /// Neighbourhood pins served (incremented by `NeighborhoodView`).
    pins: Counter,
    /// Transient `pread` failures that were retried.
    read_retries: Counter,
    /// Reads that failed for good (transient retries exhausted, or a
    /// permanent I/O error).
    read_errors: Counter,
    /// Block-checksum mismatches that triggered a re-read (torn or
    /// in-flight corruption that a second read may heal).
    checksum_retries: Counter,
    /// Blocks confirmed corrupt (mismatch survived every re-read) and
    /// quarantined.
    corrupt_blocks: Counter,
    /// Currently quarantined blocks.
    quarantined: Gauge,
}

impl StoreMetrics {
    fn from_registry(r: &MetricsRegistry) -> StoreMetrics {
        StoreMetrics {
            segment_reads: r.counter("store.segment_reads.count"),
            bytes_scanned: r.counter("store.bytes_scanned.count"),
            index_hits: r.counter("store.index_hits.count"),
            pins: r.counter("store.pins.count"),
            read_retries: r.counter("store.read_retries.count"),
            read_errors: r.counter("store.read_errors.count"),
            checksum_retries: r.counter("store.checksum_retries.count"),
            corrupt_blocks: r.counter("store.corrupt_blocks.count"),
            quarantined: r.gauge("store.quarantined_blocks"),
        }
    }
}

/// Read handle over a store directory. Cheap to share behind an `Arc`;
/// point queries take a short cache lock, sequential sweeps use their own
/// file handles.
pub struct StoreReader {
    dir: PathBuf,
    manifest: Manifest,
    mode: ReadMode,
    retry: RetryConfig,
    /// `out_off[e] .. out_off[e+1]` = e's forward-record (triple-index) run.
    out_off: Vec<u64>,
    /// `in_off[e] .. in_off[e+1]` = e's inverse-record run.
    in_off: Vec<u64>,
    fwd_files: Vec<SegFile>,
    inv_files: Vec<SegFile>,
    /// Per-segment bytes when fully resident.
    resident_fwd: Vec<Arc<Vec<u8>>>,
    resident_inv: Vec<Arc<Vec<u8>>>,
    cache: Mutex<BlockCache>,
    /// Blocks whose checksum mismatch survived every re-read. Reads that
    /// land here fail fast with `Corrupt` instead of re-touching bad media.
    quarantine: Mutex<HashSet<(Kind, u32, u32)>>,
    metrics: StoreMetrics,
}

impl std::fmt::Debug for StoreReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreReader")
            .field("dir", &self.dir)
            .field("mode", &self.mode)
            .field("entities", &self.manifest.num_entities)
            .field("triples", &self.manifest.num_triples)
            .finish()
    }
}

impl StoreReader {
    /// Open a store with metrics on the global registry.
    pub fn open(dir: impl AsRef<Path>, mode: ReadMode) -> Result<StoreReader> {
        StoreReader::open_with_registry(dir, mode, rmpi_obs::global())
    }

    /// Open a store, registering `store.*` instruments on `registry`.
    pub fn open_with_registry(
        dir: impl AsRef<Path>,
        mode: ReadMode,
        registry: &MetricsRegistry,
    ) -> Result<StoreReader> {
        StoreReader::open_opts(dir, StoreOptions::from(mode), registry)
    }

    /// Open a store with full [`StoreOptions`] control (retry policy,
    /// optional chaos injection), registering `store.*` instruments on
    /// `registry`.
    ///
    /// Always verifies the index checksum (it is read anyway) and every
    /// file's byte length against the manifest; `Resident` mode also
    /// verifies segment checksums since it reads the bytes. With a v2 or
    /// v3 manifest, `Stream` mode verifies every block's checksum at
    /// cache-fill time; a v1 store defers segment checksums to
    /// [`StoreReader::verify`]. Every checksum is computed with the
    /// manifest's function ([`Manifest::checksum`]).
    pub fn open_opts(
        dir: impl AsRef<Path>,
        opts: StoreOptions,
        registry: &MetricsRegistry,
    ) -> Result<StoreReader> {
        let mode = opts.mode;
        let dir = dir.as_ref().to_path_buf();
        let manifest_path = dir.join(MANIFEST_NAME);
        let text = match std::fs::read_to_string(&manifest_path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::NotAStore(dir));
            }
            Err(e) => return Err(e.into()),
        };
        let manifest = Manifest::parse(&text)?;
        let sum = manifest.checksum();

        // Offsets index: read fully, hash inline, split into out/in halves.
        let index_raw = std::fs::read(dir.join(INDEX_NAME))?;
        if index_raw.len() as u64 != manifest.index_bytes {
            return Err(StoreError::Corrupt {
                file: INDEX_NAME.into(),
                offset: index_raw.len() as u64,
                message: format!(
                    "expected {} bytes, found {}",
                    manifest.index_bytes,
                    index_raw.len()
                ),
            });
        }
        let got = sum.of(&index_raw);
        if got != manifest.index_checksum {
            return Err(StoreError::Corrupt {
                file: INDEX_NAME.into(),
                offset: 0,
                message: format!(
                    "checksum mismatch: manifest {:016x}, file {:016x}",
                    manifest.index_checksum, got
                ),
            });
        }
        let n = manifest.num_entities as usize;
        let expect_bytes = 2 * (n + 1) * 8;
        if index_raw.len() != expect_bytes {
            return Err(StoreError::Corrupt {
                file: INDEX_NAME.into(),
                offset: index_raw.len() as u64,
                message: format!(
                    "index holds {} bytes, {} entities need {}",
                    index_raw.len(),
                    n,
                    expect_bytes
                ),
            });
        }
        let word =
            |i: usize| u64::from_le_bytes(index_raw[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        let out_off: Vec<u64> = (0..=n).map(word).collect();
        let in_off: Vec<u64> = (n + 1..=2 * n + 1).map(word).collect();

        let open_seg = |meta: &crate::manifest::SegmentMeta| -> Result<File> {
            let path = dir.join(&meta.file);
            let f = File::open(&path)?;
            let len = f.metadata()?.len();
            if len != meta.bytes {
                return Err(StoreError::Corrupt {
                    file: meta.file.clone(),
                    offset: len,
                    message: format!("expected {} bytes, found {len}", meta.bytes),
                });
            }
            Ok(f)
        };
        let fwd_plain: Vec<File> = manifest.fwd.iter().map(open_seg).collect::<Result<_>>()?;
        let inv_plain: Vec<File> = manifest.inv.iter().map(open_seg).collect::<Result<_>>()?;

        let (mut resident_fwd, mut resident_inv) = (Vec::new(), Vec::new());
        if mode == ReadMode::Resident {
            let slurp = |meta: &SegmentMeta, f: &File| -> Result<Arc<Vec<u8>>> {
                let mut buf = Vec::with_capacity(meta.bytes as usize);
                let mut r = BufReader::new(f);
                r.read_to_end(&mut buf)?;
                let got = sum.of(&buf);
                if got != meta.checksum {
                    return Err(StoreError::Corrupt {
                        file: meta.file.clone(),
                        offset: 0,
                        message: format!(
                            "checksum mismatch: manifest {:016x}, file {got:016x}",
                            meta.checksum
                        ),
                    });
                }
                Ok(Arc::new(buf))
            };
            for (m, f) in manifest.fwd.iter().zip(&fwd_plain) {
                resident_fwd.push(slurp(m, f)?);
            }
            for (m, f) in manifest.inv.iter().zip(&inv_plain) {
                resident_inv.push(slurp(m, f)?);
            }
        }

        // Fault injection applies only to the positioned-read (`pread`)
        // path; resident bytes were already read and verified above.
        let wrap = |files: Vec<File>| -> Vec<SegFile> {
            files
                .into_iter()
                .map(|f| match (mode, opts.chaos) {
                    (ReadMode::Stream { .. }, Some(cfg)) => SegFile::Chaos(ChaosFile::wrap(f, cfg)),
                    _ => SegFile::Plain(f),
                })
                .collect()
        };
        let fwd_files = wrap(fwd_plain);
        let inv_files = wrap(inv_plain);

        let cache_blocks = match mode {
            ReadMode::Resident => 1,
            ReadMode::Stream { cache_blocks } => cache_blocks.max(1),
        };
        Ok(StoreReader {
            dir,
            manifest,
            mode,
            retry: opts.retry,
            out_off,
            in_off,
            fwd_files,
            inv_files,
            resident_fwd,
            resident_inv,
            cache: Mutex::new(BlockCache { cap: cache_blocks, tick: 0, map: HashMap::new() }),
            quarantine: Mutex::new(HashSet::new()),
            metrics: StoreMetrics::from_registry(registry),
        })
    }

    /// The parsed manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The mode this reader was opened in.
    pub fn mode(&self) -> ReadMode {
        self.mode
    }

    /// Entity id-space capacity.
    pub fn num_entities(&self) -> usize {
        self.manifest.num_entities as usize
    }

    /// Relation id-space capacity.
    pub fn num_relations(&self) -> usize {
        self.manifest.num_relations as usize
    }

    /// Total triples.
    pub fn num_triples(&self) -> usize {
        self.manifest.num_triples as usize
    }

    /// Out-degree of `e` (0 for out-of-range ids).
    pub fn out_degree(&self, e: EntityId) -> usize {
        let i = e.index();
        if i + 1 >= self.out_off.len() {
            return 0;
        }
        (self.out_off[i + 1] - self.out_off[i]) as usize
    }

    /// In-degree of `e` (0 for out-of-range ids).
    pub fn in_degree(&self, e: EntityId) -> usize {
        let i = e.index();
        if i + 1 >= self.in_off.len() {
            return 0;
        }
        (self.in_off[i + 1] - self.in_off[i]) as usize
    }

    /// Entities with at least one edge, ascending — the candidate pool for
    /// negative sampling. Answered entirely from the resident index.
    pub fn present_entities(&self) -> Vec<EntityId> {
        (0..self.num_entities() as u32)
            .map(EntityId)
            .filter(|&e| self.out_degree(e) + self.in_degree(e) > 0)
            .collect()
    }

    /// Fetch one block through the cache, with bounded retry on transient
    /// `pread` failures and (v2/v3 manifests) checksum verification at
    /// cache-fill time. A checksum mismatch is first re-read — a torn read
    /// heals — and only a mismatch that survives every attempt is declared
    /// corruption: the block is quarantined and every later read of it
    /// fails fast.
    fn block(&self, kind: Kind, seg: usize, block: u64) -> Result<Arc<Vec<u8>>> {
        let resident = match kind {
            Kind::Fwd => &self.resident_fwd,
            Kind::Inv => &self.resident_inv,
        };
        if let Some(bytes) = resident.get(seg) {
            // Resident mode: the "block" is the whole segment.
            return Ok(Arc::clone(bytes));
        }
        let key = (kind, seg as u32, block as u32);
        if let Some(hit) = self.cache.lock().expect("cache lock").get(key) {
            self.metrics.index_hits.inc();
            return Ok(hit);
        }
        let (files, metas, block_bytes) = match kind {
            Kind::Fwd => (&self.fwd_files, &self.manifest.fwd, FWD_BLOCK_BYTES),
            Kind::Inv => (&self.inv_files, &self.manifest.inv, INV_BLOCK_BYTES),
        };
        let meta = &metas[seg];
        if self.quarantine.lock().expect("quarantine lock").contains(&key) {
            return Err(StoreError::Corrupt {
                file: meta.file.clone(),
                offset: block * block_bytes,
                message: format!(
                    "block {block} is quarantined after a confirmed checksum mismatch"
                ),
            });
        }
        let off = block * block_bytes;
        let len = (meta.bytes - off).min(block_bytes) as usize;
        let want = meta.block_sums.get(block as usize).copied();
        let attempts = self.retry.attempts.max(1);
        let mut buf = vec![0u8; len];
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(self.retry.backoff * (1 << (attempt - 1)));
            }
            match failpoint::io(PREAD_FAILPOINT)
                .and_then(|()| files[seg].read_exact_at(&mut buf, off))
            {
                Err(e) if io_error_is_transient(&e) && attempt + 1 < attempts => {
                    self.metrics.read_retries.inc();
                    continue;
                }
                Err(e) => {
                    self.metrics.read_errors.inc();
                    if e.kind() == std::io::ErrorKind::UnexpectedEof {
                        // The manifest promised these bytes exist; a short
                        // file is truncation damage, not an environment
                        // problem — quarantine like any other corruption.
                        self.quarantine_block(key);
                        return Err(StoreError::Corrupt {
                            file: meta.file.clone(),
                            offset: off,
                            message: format!("unexpected EOF reading block {block}: {e}"),
                        });
                    }
                    return Err(StoreError::Io(e));
                }
                Ok(()) => {
                    self.metrics.segment_reads.inc();
                    self.metrics.bytes_scanned.add(len as u64);
                    if let Some(want) = want {
                        let got = self.manifest.checksum().of(&buf);
                        if got != want {
                            if attempt + 1 < attempts {
                                self.metrics.checksum_retries.inc();
                                continue;
                            }
                            self.quarantine_block(key);
                            return Err(StoreError::Corrupt {
                                file: meta.file.clone(),
                                offset: off,
                                message: format!(
                                    "block {block} checksum mismatch: manifest {want:016x}, read {got:016x} (after {attempts} attempts)"
                                ),
                            });
                        }
                    }
                    let data = Arc::new(buf);
                    self.cache.lock().expect("cache lock").insert(key, Arc::clone(&data));
                    return Ok(data);
                }
            }
        }
        // Transient failures exhausted every attempt.
        self.metrics.read_errors.inc();
        Err(StoreError::Io(std::io::Error::other(format!(
            "read of {} block {block} failed after {attempts} transient errors",
            meta.file
        ))))
    }

    fn quarantine_block(&self, key: (Kind, u32, u32)) {
        let mut q = self.quarantine.lock().expect("quarantine lock");
        if q.insert(key) {
            self.metrics.corrupt_blocks.inc();
            self.metrics.quarantined.set(q.len() as i64);
        }
    }

    /// Raw record bytes for global record `idx` of `kind`, via the cache.
    /// Returns (block, offset-within-block).
    fn record_block(&self, kind: Kind, idx: u64) -> Result<(Arc<Vec<u8>>, usize)> {
        let seg_records = self.manifest.seg_records;
        let seg = (idx / seg_records) as usize;
        let local = idx % seg_records;
        let (block_records, rec_bytes) = match kind {
            Kind::Fwd => (FWD_BLOCK_RECORDS, FWD_RECORD_BYTES),
            Kind::Inv => (INV_BLOCK_RECORDS, INV_RECORD_BYTES),
        };
        let resident = match kind {
            Kind::Fwd => !self.resident_fwd.is_empty(),
            Kind::Inv => !self.resident_inv.is_empty(),
        };
        if resident {
            let data = self.block(kind, seg, 0)?;
            return Ok((data, local as usize * rec_bytes));
        }
        let block = local / block_records;
        let data = self.block(kind, seg, block)?;
        Ok((data, (local % block_records) as usize * rec_bytes))
    }

    /// The triple at global index `idx` (its position in sorted order).
    pub fn triple_at(&self, idx: u64) -> Result<Triple> {
        debug_assert!(idx < self.manifest.num_triples);
        let (data, off) = self.record_block(Kind::Fwd, idx)?;
        Ok(decode_fwd(&data[off..off + FWD_RECORD_BYTES]))
    }

    /// Visit the out-edges of `e` in ascending triple-index order.
    pub fn for_each_out_edge(&self, e: EntityId, mut f: impl FnMut(Edge)) -> Result<()> {
        let i = e.index();
        if i + 1 >= self.out_off.len() {
            return Ok(());
        }
        let (lo, hi) = (self.out_off[i], self.out_off[i + 1]);
        let mut idx = lo;
        while idx < hi {
            let (data, off) = self.record_block(Kind::Fwd, idx)?;
            // Consume the rest of this block (or segment when resident)
            // without re-probing the cache per record.
            let in_block = ((data.len() - off) / FWD_RECORD_BYTES) as u64;
            let run = in_block.min(hi - idx);
            for k in 0..run {
                let o = off + (k as usize) * FWD_RECORD_BYTES;
                let t = decode_fwd(&data[o..o + FWD_RECORD_BYTES]);
                f(Edge { neighbor: t.tail, relation: t.relation, triple_idx: (idx + k) as usize });
            }
            idx += run;
        }
        Ok(())
    }

    /// Visit the in-edges of `e` in ascending triple-index order.
    pub fn for_each_in_edge(&self, e: EntityId, mut f: impl FnMut(Edge)) -> Result<()> {
        let i = e.index();
        if i + 1 >= self.in_off.len() {
            return Ok(());
        }
        let (lo, hi) = (self.in_off[i], self.in_off[i + 1]);
        let mut pos = lo;
        while pos < hi {
            let (data, off) = self.record_block(Kind::Inv, pos)?;
            let in_block = ((data.len() - off) / INV_RECORD_BYTES) as u64;
            let run = in_block.min(hi - pos);
            for k in 0..run {
                let o = off + (k as usize) * INV_RECORD_BYTES;
                let (tail, rel, head, fwd_idx) = decode_inv(&data[o..o + INV_RECORD_BYTES]);
                debug_assert_eq!(tail, e);
                f(Edge { neighbor: head, relation: rel, triple_idx: fwd_idx as usize });
            }
            pos += run;
        }
        Ok(())
    }

    /// Membership test: binary search on `(relation, tail)` within the
    /// head's contiguous forward run. `O(log out_degree)` block-cached
    /// point reads.
    pub fn contains(&self, t: &Triple) -> Result<bool> {
        let i = t.head.index();
        if i + 1 >= self.out_off.len() {
            return Ok(false);
        }
        let (mut lo, mut hi) = (self.out_off[i], self.out_off[i + 1]);
        let key = (t.relation, t.tail);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let cand = self.triple_at(mid)?;
            match (cand.relation, cand.tail).cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(true),
            }
        }
        Ok(false)
    }

    /// Stream every triple in ascending triple-index order with sequential
    /// segment reads (bypasses the block cache; does not disturb it).
    ///
    /// With a v2 or v3 manifest, each 64 KiB block is checksum-verified
    /// **before** its records are handed to `f` — a corrupt region stops
    /// the sweep at the block boundary instead of first delivering damaged
    /// triples.
    pub fn for_each_triple(&self, mut f: impl FnMut(Triple)) -> Result<()> {
        if !self.resident_fwd.is_empty() {
            for bytes in &self.resident_fwd {
                for rec in bytes.chunks_exact(FWD_RECORD_BYTES) {
                    f(decode_fwd(rec));
                }
            }
            return Ok(());
        }
        let sum = self.manifest.checksum();
        for meta in &self.manifest.fwd {
            let file = File::open(self.dir.join(&meta.file))?;
            let mut r = BufReader::with_capacity(FWD_BLOCK_BYTES as usize, file);
            let blocks = SegmentMeta::block_count(meta.bytes, FWD_BLOCK_BYTES);
            let mut buf = vec![0u8; FWD_BLOCK_BYTES as usize];
            for b in 0..blocks {
                let len = (meta.bytes - b * FWD_BLOCK_BYTES).min(FWD_BLOCK_BYTES) as usize;
                r.read_exact(&mut buf[..len])?;
                if let Some(&want) = meta.block_sums.get(b as usize) {
                    let got = sum.of(&buf[..len]);
                    if got != want {
                        return Err(StoreError::Corrupt {
                            file: meta.file.clone(),
                            offset: b * FWD_BLOCK_BYTES,
                            message: format!(
                                "block {b} checksum mismatch during sweep: manifest {want:016x}, read {got:016x}"
                            ),
                        });
                    }
                }
                for rec in buf[..len].chunks_exact(FWD_RECORD_BYTES) {
                    f(decode_fwd(rec));
                }
            }
            self.metrics.segment_reads.inc();
            self.metrics.bytes_scanned.add(meta.bytes);
        }
        Ok(())
    }

    /// Full integrity check: re-hash every data file and compare with the
    /// manifest. Streams; RSS stays at one IO buffer.
    pub fn verify(&self) -> Result<()> {
        for meta in self.manifest.fwd.iter().chain(self.manifest.inv.iter()) {
            let file = File::open(self.dir.join(&meta.file))?;
            let mut r = BufReader::with_capacity(1 << 16, file);
            let mut hash = self.manifest.checksum().hasher();
            let mut buf = [0u8; 1 << 16];
            let mut total = 0u64;
            loop {
                let n = r.read(&mut buf)?;
                if n == 0 {
                    break;
                }
                hash.update(&buf[..n]);
                total += n as u64;
            }
            self.metrics.bytes_scanned.add(total);
            if total != meta.bytes {
                return Err(StoreError::Corrupt {
                    file: meta.file.clone(),
                    offset: total,
                    message: format!("expected {} bytes, found {total}", meta.bytes),
                });
            }
            let got = hash.finish();
            if got != meta.checksum {
                return Err(StoreError::Corrupt {
                    file: meta.file.clone(),
                    offset: 0,
                    message: format!(
                        "checksum mismatch: manifest {:016x}, file {got:016x}",
                        meta.checksum
                    ),
                });
            }
        }
        Ok(())
    }

    /// Number of blocks currently quarantined on this handle (confirmed
    /// checksum mismatches).
    pub fn quarantined_blocks(&self) -> usize {
        self.quarantine.lock().expect("quarantine lock").len()
    }

    /// Count one neighbourhood pin (called by `NeighborhoodView`).
    pub(crate) fn count_pin(&self) {
        self.metrics.pins.inc();
    }
}
