//! Reusable, allocation-free working state for subgraph extraction.
//!
//! The extraction hot path runs two bounded BFS traversals, an
//! intersection/union over the visited sets, an edge sweep, and an isolated-
//! node prune — per sample, thousands of times per epoch. Doing that with
//! `HashMap`/`HashSet` state means rehashing every entity id and reallocating
//! every call. [`ExtractScratch`] replaces all of it with dense arrays
//! indexed by entity id, invalidated wholesale by bumping a single epoch
//! counter: an entry is live only when its stamp equals the current epoch,
//! so "clearing" the scratch between samples is one integer increment.
//!
//! In steady state (scratch and output buffers warmed to the graph's size)
//! an extraction performs **zero heap allocations** — pinned by the
//! counting-allocator test in `tests/zero_alloc.rs`.

use crate::relview::GroupScratch;
use rmpi_kg::{EntityId, GraphAccess};

/// Dense epoch-stamped BFS + set state, reusable across extractions.
///
/// All arrays are sized to the graph's entity id-space on first use and grow
/// monotonically; they are never cleared, only re-stamped.
#[derive(Clone, Debug, Default)]
pub struct ExtractScratch {
    /// Current epoch; a stamp array entry is valid iff it equals this.
    epoch: u32,
    /// Visited stamp / hop distance for the BFS from the target head.
    stamp_u: Vec<u32>,
    dist_u: Vec<u32>,
    /// Visited stamp / hop distance for the BFS from the target tail.
    stamp_v: Vec<u32>,
    dist_v: Vec<u32>,
    /// Membership stamp for the retained ("keep") entity set.
    keep: Vec<u32>,
    /// Membership stamp for entities incident to a retained edge.
    incident: Vec<u32>,
    /// Visit-order list of the head BFS (doubles as its queue).
    pub(crate) queue_u: Vec<u32>,
    /// Visit-order list of the tail BFS (doubles as its queue).
    pub(crate) queue_v: Vec<u32>,
    /// The retained entity set: in insertion order while it is being marked,
    /// ascending once the edge sweep has run.
    pub(crate) kept: Vec<u32>,
    /// The relation view's per-group arrays (see `group_map`).
    groups: GroupScratch,
}

/// An entity → `u32` map lent by `ExtractScratch::group_map`.
pub(crate) struct EntityMap<'a> {
    epoch: u32,
    stamp: &'a mut [u32],
    value: &'a mut [u32],
}

impl EntityMap<'_> {
    /// The value set for `e` since the map was lent, if any.
    pub(crate) fn get(&self, e: u32) -> Option<u32> {
        (self.stamp[e as usize] == self.epoch).then(|| self.value[e as usize])
    }

    /// Set `e`'s value.
    pub(crate) fn set(&mut self, e: u32, v: u32) {
        self.stamp[e as usize] = self.epoch;
        self.value[e as usize] = v;
    }
}

impl ExtractScratch {
    /// A fresh scratch; arrays are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow the dense arrays to cover `g`'s id space plus the (possibly
    /// graph-external) target endpoints, then start a new epoch.
    pub(crate) fn begin<G: GraphAccess + ?Sized>(
        &mut self,
        g: &G,
        u: EntityId,
        v: EntityId,
    ) -> u32 {
        self.next_epoch(g.num_entities().max(u.index() + 1).max(v.index() + 1))
    }

    /// An entity-keyed map over ids `0..n` for the relation view's counting
    /// build, which runs between extractions, plus that build's own
    /// per-group arrays. The map is the head BFS's stamp and distance arrays
    /// under a new epoch, so it costs no memory extraction does not already
    /// hold; the next `begin` invalidates it.
    pub(crate) fn group_map(&mut self, n: usize) -> (EntityMap<'_>, &mut GroupScratch) {
        let epoch = self.next_epoch(n);
        (EntityMap { epoch, stamp: &mut self.stamp_u, value: &mut self.dist_u }, &mut self.groups)
    }

    /// Grow the dense arrays to cover ids `0..n`, then start a new epoch.
    fn next_epoch(&mut self, n: usize) -> u32 {
        if self.stamp_u.len() < n {
            self.stamp_u.resize(n, 0);
            self.dist_u.resize(n, 0);
            self.stamp_v.resize(n, 0);
            self.dist_v.resize(n, 0);
            self.keep.resize(n, 0);
            self.incident.resize(n, 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                // one global re-zero every 2^32 extractions keeps stamps sound
                self.stamp_u.fill(0);
                self.stamp_v.fill(0);
                self.keep.fill(0);
                self.incident.fill(0);
                1
            }
        };
        self.epoch
    }

    /// BFS from the head endpoint, filling `stamp_u`/`dist_u`/`queue_u`.
    pub(crate) fn bfs_u<G: GraphAccess + ?Sized>(&mut self, g: &G, start: EntityId, k: usize) {
        let ep = self.epoch;
        bfs(g, start, k as u32, ep, &mut self.stamp_u, &mut self.dist_u, &mut self.queue_u);
    }

    /// BFS from the tail endpoint, filling `stamp_v`/`dist_v`/`queue_v`.
    pub(crate) fn bfs_v<G: GraphAccess + ?Sized>(&mut self, g: &G, start: EntityId, k: usize) {
        let ep = self.epoch;
        bfs(g, start, k as u32, ep, &mut self.stamp_v, &mut self.dist_v, &mut self.queue_v);
    }

    /// Hop distance from the head BFS, or `None` if unreached this epoch.
    pub(crate) fn du(&self, e: u32) -> Option<u32> {
        (self.stamp_u[e as usize] == self.epoch).then(|| self.dist_u[e as usize])
    }

    /// Hop distance from the tail BFS, or `None` if unreached this epoch.
    pub(crate) fn dv(&self, e: u32) -> Option<u32> {
        (self.stamp_v[e as usize] == self.epoch).then(|| self.dist_v[e as usize])
    }

    /// Was `e` reached by the tail BFS this epoch?
    pub(crate) fn in_v(&self, e: u32) -> bool {
        self.stamp_v[e as usize] == self.epoch
    }

    /// Add `e` to the keep set if absent (recorded in `kept`).
    pub(crate) fn mark_kept(&mut self, e: u32) {
        if self.keep[e as usize] != self.epoch {
            self.keep[e as usize] = self.epoch;
            self.kept.push(e);
        }
    }

    /// Is `e` in the keep set this epoch?
    pub(crate) fn is_kept(&self, e: u32) -> bool {
        self.keep[e as usize] == self.epoch
    }

    /// Mark `e` incident to a retained edge.
    pub(crate) fn mark_incident(&mut self, e: u32) {
        self.incident[e as usize] = self.epoch;
    }

    /// Is `e` incident to a retained edge this epoch?
    pub(crate) fn is_incident(&self, e: u32) -> bool {
        self.incident[e as usize] == self.epoch
    }
}

/// Bounded bidirectional BFS over dense stamp/dist arrays. `queue` doubles
/// as the visit-order record: entries are never popped, a cursor walks it.
fn bfs<G: GraphAccess + ?Sized>(
    g: &G,
    start: EntityId,
    k: u32,
    ep: u32,
    stamp: &mut [u32],
    dist: &mut [u32],
    queue: &mut Vec<u32>,
) {
    queue.clear();
    let s = start.0;
    stamp[s as usize] = ep;
    dist[s as usize] = 0;
    queue.push(s);
    let mut head = 0usize;
    while head < queue.len() {
        let cur = queue[head];
        head += 1;
        let d = dist[cur as usize];
        if d == k {
            continue;
        }
        let cur = EntityId(cur);
        for edge in g.out_edges(cur).iter().chain(g.in_edges(cur)) {
            let nb = edge.neighbor.0;
            if stamp[nb as usize] != ep {
                stamp[nb as usize] = ep;
                dist[nb as usize] = d + 1;
                queue.push(nb);
            }
        }
    }
}
