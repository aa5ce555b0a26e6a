//! Capacity-bounded caching primitives.
//!
//! The hot NewsLink paths (entity-group traversal, query embedding) see
//! heavy key repetition on real corpora, so the engine fronts them with
//! bounded caches. This module provides the building blocks shared by
//! every cache in the workspace:
//!
//! - [`ClockCache`] — a bounded map with CLOCK (second-chance) eviction,
//!   an LRU approximation whose `get` needs no mutation beyond an atomic
//!   reference bit, so reads can run under a shared lock;
//! - [`ShardedCache`] — the concurrent map behind the engine's memo tiers
//!   (the `newslink-embed` group memo and the `newslink-core` query
//!   memo): lock-striped [`ClockCache`] shards;
//! - [`CacheCounters`] — lock-free hit/miss/eviction counters;
//! - [`CacheStats`] — a plain snapshot of those counters for reporting,
//!   in the same spirit as [`crate::timer::ComponentTimer`] breakdowns.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};

use crate::fxhash::{FxHashMap, FxHasher};

/// A snapshot of cache activity, cheap to copy and to difference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries displaced by the eviction policy.
    pub evictions: u64,
    /// Live entries at snapshot time.
    pub(crate) entries: usize,
}

impl CacheStats {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Activity since an `earlier` snapshot of the same cache (entry count
    /// is taken from `self`).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            entries: self.entries,
        }
    }

    /// Combine two snapshots (e.g. across shards or cache tiers).
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            entries: self.entries + other.entries,
        }
    }
}

/// Lock-free hit/miss/eviction counters, shared by concurrent readers.
#[derive(Debug, Default)]
pub struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CacheCounters {
    /// Count one cache hit.
    #[inline]
    pub(crate) fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one cache miss.
    #[inline]
    pub(crate) fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one eviction.
    #[inline]
    pub(crate) fn evict(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the counters together with a live entry count.
    pub(crate) fn snapshot(&self, entries: usize) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
        }
    }
}

/// One occupied cache slot.
#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    /// The CLOCK reference bit; set on every `get`, cleared by the sweep.
    referenced: AtomicBool,
}

/// A bounded map with CLOCK (second-chance) eviction.
///
/// Lookups mark the slot's reference bit through a shared reference, so a
/// `ClockCache` behind an `RwLock` serves concurrent readers without
/// upgrading to a write lock; only inserts need exclusive access. A
/// capacity of zero yields a no-op cache (every `get` misses, `insert`
/// does nothing), which is how cache-disabled configurations are run
/// through the same code path.
#[derive(Debug)]
pub struct ClockCache<K, V> {
    slots: Vec<Slot<K, V>>,
    index: FxHashMap<K, usize>,
    capacity: usize,
    hand: usize,
    evictions: u64,
}

impl<K: Hash + Eq + Clone, V> ClockCache<K, V> {
    /// Create a cache bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            slots: Vec::new(),
            index: FxHashMap::default(),
            capacity,
            hand: 0,
            evictions: 0,
        }
    }

    /// Maximum number of entries.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Look up `key`, marking the entry as recently used. Accepts any
    /// borrowed form of the key (e.g. `&str` for `String` keys), so a
    /// probe never has to allocate an owned key.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let &i = self.index.get(key)?;
        let slot = &self.slots[i];
        slot.referenced.store(true, Ordering::Relaxed);
        Some(&slot.value)
    }

    /// True when `key` is cached (does not touch the reference bit).
    #[cfg(test)]
    pub(crate) fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.index.contains_key(key)
    }

    /// Insert or replace `key`, evicting a victim chosen by the clock
    /// sweep when full. Returns the evicted entry, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&i) = self.index.get(&key) {
            let slot = &mut self.slots[i];
            slot.value = value;
            slot.referenced.store(true, Ordering::Relaxed);
            return None;
        }
        if self.slots.len() < self.capacity {
            let i = self.slots.len();
            self.index.insert(key.clone(), i);
            self.slots.push(Slot {
                key,
                value,
                referenced: AtomicBool::new(true),
            });
            return None;
        }
        // Clock sweep: give referenced slots a second chance; terminates
        // within two revolutions because the sweep clears every bit it
        // passes.
        loop {
            let i = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            if self.slots[i].referenced.swap(false, Ordering::Relaxed) {
                continue;
            }
            let victim = std::mem::replace(
                &mut self.slots[i],
                Slot {
                    key: key.clone(),
                    value,
                    referenced: AtomicBool::new(true),
                },
            );
            self.index.remove(&victim.key);
            self.index.insert(key, i);
            self.evictions += 1;
            return Some((victim.key, victim.value));
        }
    }

    /// Drop `key`'s entry, returning its value if it was cached.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let i = self.index.remove(key)?;
        let slot = self.slots.swap_remove(i);
        // The last slot moved into the hole: repoint its index entry.
        if let Some(moved) = self.slots.get(i) {
            if let Some(pos) = self.index.get_mut::<K>(&moved.key) {
                *pos = i;
            }
        }
        if self.hand >= self.slots.len() {
            self.hand = 0;
        }
        Some(slot.value)
    }
}

/// A concurrent, capacity-bounded cache: `RwLock` shards over
/// [`ClockCache`]s, with lock-free hit/miss/eviction counters.
///
/// Reads take a shard's shared lock (the CLOCK reference bit is atomic, so
/// `get` never upgrades); only inserts take the exclusive lock. Values are
/// cloned out, so `V` is typically an `Arc`. The memos it backs key on
/// frozen-graph state, so an entry never goes stale and there is no
/// invalidation API. Shard locks ignore poisoning, as `parking_lot`'s do.
#[derive(Debug)]
pub struct ShardedCache<K, V> {
    shards: Box<[RwLock<ClockCache<K, V>>]>,
    counters: CacheCounters,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedCache<K, V> {
    /// A cache bounded to roughly `capacity` total entries, spread over 16
    /// shards. Capacity zero disables caching (all lookups miss).
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, 16)
    }

    /// A cache with an explicit shard count (rounded up to a power of two).
    pub(crate) fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shards)
        };
        Self {
            shards: (0..shards)
                .map(|_| RwLock::new(ClockCache::new(per_shard)))
                .collect(),
            counters: CacheCounters::default(),
        }
    }

    #[inline]
    fn shard<Q>(&self, key: &Q) -> &RwLock<ClockCache<K, V>>
    where
        Q: Hash + ?Sized,
    {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        &self.shards[h.finish() as usize & (self.shards.len() - 1)]
    }

    /// Look up `key`, counting a hit or miss. Accepts any borrowed form
    /// of the key (e.g. `&str` for `String` keys): the `Borrow` contract
    /// guarantees the borrowed form hashes identically, so the probe
    /// lands on the same shard without building an owned key.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let found = self
            .shard(key)
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .cloned();
        match found {
            Some(v) => {
                self.counters.hit();
                Some(v)
            }
            None => {
                self.counters.miss();
                None
            }
        }
    }

    /// Insert or replace `key`, counting any eviction.
    pub fn insert(&self, key: K, value: V) {
        let evicted = self
            .shard(&key)
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, value);
        if evicted.is_some() {
            self.counters.evict();
        }
    }

    /// Total live entries across shards.
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// True when no shard holds an entry.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot including the live entry count.
    pub fn stats(&self) -> CacheStats {
        self.counters.snapshot(self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_miss_then_hit() {
        let mut c: ClockCache<u32, &str> = ClockCache::new(4);
        assert!(c.get(&1).is_none());
        c.insert(1, "one");
        assert_eq!(c.get(&1), Some(&"one"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn replace_updates_value_without_eviction() {
        let mut c = ClockCache::new(2);
        c.insert(1, 10);
        assert!(c.insert(1, 11).is_none());
        assert_eq!(c.get(&1), Some(&11));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_unreferenced_first() {
        let mut c = ClockCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        // Sweep clears both fresh reference bits, then touch key 1 only.
        c.insert(3, 30); // evicts one of {1, 2}; both referenced -> second pass evicts slot 0 (key 1)
        assert_eq!(c.len(), 2);
        assert!(c.contains(&3));
        assert_eq!(c.evictions, 1);
    }

    #[test]
    fn recently_used_survives_pressure() {
        let mut c = ClockCache::new(3);
        c.insert(1, 1);
        c.insert(2, 2);
        c.insert(3, 3);
        // One full sweep clears all bits, then keep 2 hot. Each sweep
        // consumes one second chance, so the entry must be re-touched
        // between insertions to stay protected.
        c.insert(4, 4);
        assert!(c.get(&2).is_some() || !c.contains(&2));
        if c.contains(&2) {
            c.get(&2);
            c.insert(5, 5);
            c.get(&2);
            c.insert(6, 6);
            assert!(c.contains(&2), "hot entry evicted before cold ones");
        }
    }

    #[test]
    fn zero_capacity_is_noop() {
        let mut c = ClockCache::new(0);
        assert!(c.insert(1, 1).is_none());
        assert!(c.get(&1).is_none());
        assert!(c.is_empty());
        assert_eq!(c.capacity(), 0);
    }

    #[test]
    fn remove_drops_one_entry_and_keeps_the_rest_reachable() {
        let mut c = ClockCache::new(3);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        assert_eq!(c.remove(&1), Some(10));
        assert_eq!(c.remove(&1), None);
        assert_eq!(c.len(), 2);
        // The slot that moved into the hole is still found by its key.
        assert_eq!(c.get(&3), Some(&30));
        assert_eq!(c.get(&2), Some(&20));
        c.insert(4, 40);
        c.insert(5, 50);
        assert_eq!(c.len(), 3, "capacity still bounds the cache");
        assert_eq!(c.remove(&5), Some(50));
        assert!(!c.contains(&5));
    }

    #[test]
    fn bounded_under_churn() {
        let mut c = ClockCache::new(8);
        for i in 0..1000u32 {
            c.insert(i, i);
            assert!(c.len() <= 8);
        }
        assert_eq!(c.evictions, 1000 - 8);
    }

    #[test]
    fn stats_snapshot_and_since() {
        let counters = CacheCounters::default();
        counters.hit();
        counters.hit();
        counters.miss();
        counters.evict();
        let a = counters.snapshot(5);
        assert_eq!(a.hits, 2);
        assert_eq!(a.misses, 1);
        assert_eq!(a.evictions, 1);
        assert_eq!(a.entries, 5);
        assert_eq!(a.lookups(), 3);
        counters.hit();
        let b = counters.snapshot(6);
        let d = b.since(&a);
        assert_eq!(d.hits, 1);
        assert_eq!(d.misses, 0);
        assert_eq!(d.entries, 6);
        let m = a.merged(&d);
        assert_eq!(m.hits, 3);
        assert_eq!(m.entries, 11);
    }

    #[test]
    fn sharded_cache_bounds_and_counts() {
        let c: ShardedCache<u32, u32> = ShardedCache::with_shards(8, 4);
        for i in 0..100 {
            c.insert(i, i);
        }
        assert!(c.len() <= 8);
        let s = c.stats();
        assert!(s.evictions > 0);
        c.insert(7, 700);
        assert_eq!(c.get(&7), Some(700), "a fresh insert must be readable");
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn zero_capacity_sharded_cache_never_stores() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(0);
        c.insert(1, 1);
        assert!(c.get(&1).is_none());
        assert!(c.is_empty());
    }
}
