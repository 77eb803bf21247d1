//! Pinned k-hop neighbourhoods: how a streaming store serves the
//! slice-returning [`GraphAccess`] trait safely.
//!
//! `GraphAccess::out_edges` returns `&[Edge]` — a borrow that a disk reader
//! cannot hand out without materialising the data somewhere first. Instead
//! of weakening the trait (and de-optimising the CSR hot path) the store
//! splits access into two phases:
//!
//! 1. [`NeighborhoodView::pin`] (`&mut self`) runs a multi-source BFS from
//!    the query endpoints, loading into owned arenas what a `k`-hop
//!    extraction reads. This is where all IO happens.
//! 2. The pinned view (`&self`) implements `GraphAccess`, serving arena
//!    slices.
//!
//! # The pin contract
//!
//! With `depth(e)` the undirected hop distance of `e` from the nearer pin
//! source, `pin(u, v, k)` loads
//!
//! * **both directions** of every entity with `depth < k`, and of `u` and `v`
//!   themselves whatever `k` is;
//! * **out-edges only** of the entities with `depth == k`, the pin's shell.
//!
//! That is exactly what a `k`-hop extraction reads: its bounded BFS expands
//! (reads both directions of) entities at distance `< k` from an endpoint and
//! never expands the `k`-th shell, its edge sweep reads only `out_edges` of
//! retained entities (all within `k` hops), and the one-hop disclosing scan
//! reads both directions of the two endpoints. The shell is by far the
//! largest layer of a neighbourhood, so leaving its in-edges on disk takes
//! nearly half of a pin's reads away.
//!
//! Reading a direction that is not pinned returns empty adjacency — in debug
//! builds it panics instead, which is how the equivalence proptests would
//! catch a pin radius that is too small. Membership tests, triple lookups
//! and [`GraphAccess::degree`] don't depend on the pin; they go to the
//! reader's block cache or its resident index.
//!
//! The view reuses its arenas and range table across pins, and
//! [`with_thread_view`] keeps one view's storage per thread across calls, so
//! a warm pin performs no heap allocation of its own.

use crate::reader::StoreReader;
use crate::Result;
use rmpi_kg::{Edge, EntityId, GraphAccess, Triple};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Where one pinned entity's edges sit in the two arenas.
#[derive(Clone, Copy)]
struct Pinned {
    out_start: u32,
    out_len: u32,
    in_start: u32,
    in_len: u32,
    /// `false` for the pin's shell: in-edges were not loaded.
    both: bool,
}

/// Multiplicative hashing for the `u32` entity keys of the range table: the
/// keys come from the store's own adjacency, never from outside the program,
/// so SipHash's flooding resistance buys nothing here. The high half is
/// folded down because the table indexes buckets by the low bits.
#[derive(Default)]
struct EntityHasher(u64);

impl Hasher for EntityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the range table is keyed by u32 only");
    }

    fn write_u32(&mut self, key: u32) {
        let h = u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// Everything a view owns besides its reader: sized by the largest pin it
/// has held, never by the entity id space.
#[derive(Default)]
struct ViewStorage {
    /// entity -> its slices of the arenas; doubles as the BFS visited set.
    ranges: HashMap<u32, Pinned, BuildHasherDefault<EntityHasher>>,
    out_arena: Vec<Edge>,
    in_arena: Vec<Edge>,
    /// BFS frontier scratch: (entity, depth).
    queue: Vec<(u32, u32)>,
}

impl ViewStorage {
    fn clear(&mut self) {
        self.ranges.clear();
        self.out_arena.clear();
        self.in_arena.clear();
        self.queue.clear();
    }
}

/// A reusable pinned k-hop neighbourhood over a [`StoreReader`].
pub struct NeighborhoodView<'s> {
    reader: &'s StoreReader,
    storage: ViewStorage,
}

thread_local! {
    static RECYCLED: RefCell<ViewStorage> = RefCell::new(ViewStorage::default());
}

/// Run `f` with a view over `reader` built on this thread's recycled storage
/// (nothing pinned yet). The storage goes back to the thread's slot when `f`
/// returns — whatever it returns, and if it unwinds — so a pin that failed
/// half-way costs the next caller nothing but the `clear` every pin starts
/// with. A nested call on the same thread simply starts from empty storage.
pub fn with_thread_view<R>(
    reader: &StoreReader,
    f: impl FnOnce(&mut NeighborhoodView<'_>) -> R,
) -> R {
    /// Hands the storage back on drop, so unwinding returns it too.
    struct Lease<'s>(NeighborhoodView<'s>);
    impl Drop for Lease<'_> {
        fn drop(&mut self) {
            let storage = std::mem::take(&mut self.0.storage);
            // the slot is gone only while the thread itself is being torn
            // down; the storage is then simply freed
            let _ = RECYCLED.try_with(|slot| slot.replace(storage));
        }
    }
    let mut storage = RECYCLED.with(|slot| slot.take());
    storage.clear();
    let mut lease = Lease(NeighborhoodView { reader, storage });
    f(&mut lease.0)
}

impl<'s> NeighborhoodView<'s> {
    /// An empty view; nothing is pinned until [`NeighborhoodView::pin`].
    pub fn new(reader: &'s StoreReader) -> Self {
        NeighborhoodView { reader, storage: ViewStorage::default() }
    }

    /// Load what a `k`-hop extraction around `(u, v)` reads, replacing any
    /// previous pin: both directions of every entity within `k - 1`
    /// undirected hops of `u` or `v` (and of `u` and `v` themselves),
    /// out-edges only of the `k`-th shell. All IO for a subsequent
    /// extraction/scoring pass happens here. After an error the view holds
    /// an unspecified partial pin; the next `pin` starts from scratch.
    pub fn pin(&mut self, u: EntityId, v: EntityId, k: usize) -> Result<()> {
        self.storage.clear();
        self.reader.count_pin();
        self.visit(u.0, 0, true)?;
        self.visit(v.0, 0, true)?;
        let mut head = 0usize;
        while head < self.storage.queue.len() {
            let (e, d) = self.storage.queue[head];
            head += 1;
            if d as usize >= k {
                continue;
            }
            // `e` sits at depth < k, so both its runs are loaded. They are
            // walked by arena index: loading a neighbour appends to the
            // arenas and may move them, but never touches this run.
            let p = self.storage.ranges[&e];
            let both = (d + 1) as usize != k;
            for i in p.out_start..p.out_start + p.out_len {
                let n = self.storage.out_arena[i as usize].neighbor.0;
                self.visit(n, d + 1, both)?;
            }
            for i in p.in_start..p.in_start + p.in_len {
                let n = self.storage.in_arena[i as usize].neighbor.0;
                self.visit(n, d + 1, both)?;
            }
        }
        Ok(())
    }

    /// First sight of `e` at `depth`: load its adjacency (in-edges only when
    /// `both`) and queue it. The range table is the visited set, so an entity
    /// is entered only once its edges are in the arenas.
    fn visit(&mut self, e: u32, depth: u32, both: bool) -> Result<()> {
        let s = &mut self.storage;
        if s.ranges.contains_key(&e) {
            return Ok(());
        }
        let out_start = s.out_arena.len() as u32;
        let arena = &mut s.out_arena;
        self.reader.for_each_out_edge(EntityId(e), |edge| arena.push(edge))?;
        let in_start = s.in_arena.len() as u32;
        if both {
            let arena = &mut s.in_arena;
            self.reader.for_each_in_edge(EntityId(e), |edge| arena.push(edge))?;
        }
        s.ranges.insert(
            e,
            Pinned {
                out_start,
                out_len: s.out_arena.len() as u32 - out_start,
                in_start,
                in_len: s.in_arena.len() as u32 - in_start,
                both,
            },
        );
        s.queue.push((e, depth));
        Ok(())
    }

    /// Number of entities with pinned adjacency (shell included).
    pub fn pinned_entities(&self) -> usize {
        self.storage.ranges.len()
    }

    /// Total pinned edges (out + in arenas; an edge pinned from both its
    /// ends is counted twice).
    pub fn pinned_edges(&self) -> usize {
        self.storage.out_arena.len() + self.storage.in_arena.len()
    }

    /// Debug-build check behind a read that found nothing pinned: fine for
    /// an entity that has no such edges anyway, a too-small pin otherwise.
    fn has_no_edges(&self, e: EntityId) -> bool {
        self.reader.out_degree(e) + self.reader.in_degree(e) == 0
    }
}

impl GraphAccess for NeighborhoodView<'_> {
    fn out_edges(&self, e: EntityId) -> &[Edge] {
        match self.storage.ranges.get(&e.0) {
            Some(p) => {
                &self.storage.out_arena[p.out_start as usize..(p.out_start + p.out_len) as usize]
            }
            None => {
                debug_assert!(
                    self.has_no_edges(e),
                    "out_edges({e}) outside the pinned neighbourhood — pin radius too small"
                );
                &[]
            }
        }
    }

    fn in_edges(&self, e: EntityId) -> &[Edge] {
        match self.storage.ranges.get(&e.0) {
            Some(p) => {
                debug_assert!(
                    p.both || self.reader.in_degree(e) == 0,
                    "in_edges({e}) on the pin's outermost shell, where only out-edges are \
                     loaded — pin radius too small for a caller that expands this entity"
                );
                &self.storage.in_arena[p.in_start as usize..(p.in_start + p.in_len) as usize]
            }
            None => {
                debug_assert!(
                    self.has_no_edges(e),
                    "in_edges({e}) outside the pinned neighbourhood — pin radius too small"
                );
                &[]
            }
        }
    }

    fn triple(&self, idx: usize) -> Triple {
        self.reader.triple_at(idx as u64).expect("store read failed (triple)")
    }

    fn for_each_triple(&self, f: &mut dyn FnMut(Triple)) {
        self.reader.for_each_triple(f).expect("store read failed (sweep)")
    }

    fn num_entities(&self) -> usize {
        self.reader.num_entities()
    }

    fn num_triples(&self) -> usize {
        self.reader.num_triples()
    }

    fn num_relations(&self) -> usize {
        self.reader.num_relations()
    }

    fn contains(&self, t: &Triple) -> bool {
        self.reader.contains(t).expect("store read failed (contains)")
    }

    /// Answered from the resident index, so it holds for every entity
    /// whatever is pinned.
    fn degree(&self, e: EntityId) -> usize {
        self.reader.out_degree(e) + self.reader.in_degree(e)
    }
}
