//! Cache-keyable extraction: a compact key identifying one extraction
//! request, and an exact LRU cache keyed by it.
//!
//! Per-triple enclosing-subgraph extraction dominates RMPI inference cost
//! (paper §V) — and it is a pure function of `(context graph, target, hop,
//! extraction seed)`. A serving layer holding an *immutable* context graph
//! and a *fixed* extraction seed can therefore key extractions by the target
//! triple (plus hop) alone and replay them verbatim: [`SubgraphKey`] is that
//! key, [`LruCache`] the replacement policy. The cache is generic in its
//! value so `rmpi-serve` can store fully prepared forward-pass inputs, not
//! just raw subgraphs.

use rmpi_kg::Triple;
use std::collections::{BTreeMap, HashMap};

/// What identifies one extraction against an immutable context graph with a
/// fixed extraction seed: the target triple and the hop depth.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SubgraphKey {
    /// The target triple packed as `(head, relation, tail)` raw ids.
    pub(crate) head: u32,
    /// Relation id.
    pub(crate) relation: u32,
    /// Tail id.
    pub(crate) tail: u32,
    /// Extraction hop depth K.
    pub(crate) hop: u8,
}

impl SubgraphKey {
    /// Key for extracting the `hop`-hop subgraph of `target`.
    pub fn new(target: Triple, hop: usize) -> Self {
        SubgraphKey {
            head: target.head.0,
            relation: target.relation.0,
            tail: target.tail.0,
            hop: hop.min(u8::MAX as usize) as u8,
        }
    }
}

/// An exact least-recently-used cache over [`SubgraphKey`]s.
///
/// Recency is tracked with a monotone tick per access: a `HashMap` holds the
/// values, a `BTreeMap<tick, key>` orders keys by last use, so both lookup
/// and eviction are `O(log n)`. Hit/miss counters are built in — they feed
/// the serving layer's stats endpoint. Capacity 0 disables caching (every
/// lookup misses, nothing is stored).
#[derive(Debug)]
pub struct LruCache<V> {
    capacity: usize,
    tick: u64,
    entries: HashMap<SubgraphKey, (u64, V)>,
    recency: BTreeMap<u64, SubgraphKey>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<V> LruCache<V> {
    /// A cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            tick: 0,
            entries: HashMap::with_capacity(capacity.min(1 << 20)),
            recency: BTreeMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up `key`, refreshing its recency. Counts a hit or a miss.
    pub fn get(&mut self, key: &SubgraphKey) -> Option<&V> {
        if let Some((tick, _)) = self.entries.get(key) {
            let old = *tick;
            self.recency.remove(&old);
            self.tick += 1;
            self.recency.insert(self.tick, *key);
            let entry = self.entries.get_mut(key).expect("entry just seen");
            entry.0 = self.tick;
            self.hits += 1;
            Some(&entry.1)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Insert (or refresh) `key`, evicting the least recently used entry when
    /// full. No-op at capacity 0.
    pub fn insert(&mut self, key: SubgraphKey, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if let Some((old, _)) = self.entries.insert(key, (self.tick, value)) {
            self.recency.remove(&old);
        }
        self.recency.insert(self.tick, key);
        while self.entries.len() > self.capacity {
            let (&oldest, &victim) = self.recency.iter().next().expect("non-empty recency index");
            self.recency.remove(&oldest);
            self.entries.remove(&victim);
            self.evictions += 1;
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries dropped to make room (capacity evictions, not `clear`).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Drop every entry (counters are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.recency.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(h: u32, r: u32, t: u32) -> SubgraphKey {
        SubgraphKey::new(Triple::new(h, r, t), 2)
    }

    #[test]
    fn key_distinguishes_all_fields() {
        let base = key(1, 2, 3);
        assert_ne!(base, key(9, 2, 3));
        assert_ne!(base, key(1, 9, 3));
        assert_ne!(base, key(1, 2, 9));
        assert_ne!(base, SubgraphKey::new(Triple::new(1u32, 2u32, 3u32), 3));
        assert_eq!(base, key(1, 2, 3));
    }

    #[test]
    fn get_insert_and_counters() {
        let mut c: LruCache<i32> = LruCache::new(4);
        assert!(c.get(&key(1, 1, 1)).is_none());
        c.insert(key(1, 1, 1), 10);
        assert_eq!(c.get(&key(1, 1, 1)), Some(&10));
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u32> = LruCache::new(2);
        c.insert(key(1, 0, 0), 1);
        c.insert(key(2, 0, 0), 2);
        // touch 1 so 2 becomes the LRU victim
        assert!(c.get(&key(1, 0, 0)).is_some());
        c.insert(key(3, 0, 0), 3);
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(2, 0, 0)).is_none(), "LRU entry evicted");
        assert!(c.get(&key(1, 0, 0)).is_some());
        assert!(c.get(&key(3, 0, 0)).is_some());
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let mut c: LruCache<u32> = LruCache::new(2);
        c.insert(key(1, 0, 0), 1);
        c.insert(key(2, 0, 0), 2);
        c.insert(key(1, 0, 0), 11); // refresh: 2 is now oldest
        c.insert(key(3, 0, 0), 3);
        assert_eq!(c.get(&key(1, 0, 0)), Some(&11));
        assert!(c.get(&key(2, 0, 0)).is_none());
    }

    #[test]
    fn capacity_zero_disables_storage() {
        let mut c: LruCache<u32> = LruCache::new(0);
        c.insert(key(1, 0, 0), 1);
        assert!(c.is_empty());
        assert!(c.get(&key(1, 0, 0)).is_none());
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn clear_keeps_counters() {
        let mut c: LruCache<u32> = LruCache::new(2);
        c.insert(key(1, 0, 0), 1);
        assert!(c.get(&key(1, 0, 0)).is_some());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.hits(), 1);
        assert!(c.get(&key(1, 0, 0)).is_none());
    }

    #[test]
    fn eviction_counter_tracks_capacity_pressure() {
        let mut c: LruCache<u32> = LruCache::new(2);
        c.insert(key(1, 0, 0), 1);
        c.insert(key(2, 0, 0), 2);
        assert_eq!(c.evictions(), 0);
        c.insert(key(3, 0, 0), 3);
        c.insert(key(4, 0, 0), 4);
        assert_eq!(c.evictions(), 2);
        c.insert(key(4, 0, 0), 40); // refresh, not an eviction
        assert_eq!(c.evictions(), 2);
        c.clear(); // clear is not an eviction either
        assert_eq!(c.evictions(), 2);
    }

    #[test]
    fn heavy_churn_stays_within_capacity() {
        let mut c: LruCache<u32> = LruCache::new(8);
        for i in 0..1000u32 {
            c.insert(key(i, i % 7, i % 13), i);
            assert!(c.len() <= 8);
        }
        assert_eq!(c.evictions(), 1000 - 8);
        // the 8 most recent keys are present
        for i in 992..1000u32 {
            assert_eq!(c.get(&key(i, i % 7, i % 13)), Some(&i));
        }
    }
}
