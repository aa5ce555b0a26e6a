//! The concurrent bounded map behind the engine's memo tiers.
//!
//! Real corpora mention the same entity groups thousands of times and
//! users repeat queries, so the NE component memoizes whole results: the
//! `(model, label sequence) → G*` group memo in `newslink-embed` and the
//! query-artifact memo in `newslink-core`. Both are a [`ShardedCache`] —
//! sharded `parking_lot::RwLock` maps bounded by CLOCK eviction
//! ([`newslink_util::ClockCache`]).
//!
//! The graph those memos serve is frozen ([`crate::KnowledgeGraph`] is
//! immutable), so entries never go stale during document ingestion;
//! [`ShardedCache::clear`] exists for the one real invalidation event,
//! swapping in a new graph build.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};

use parking_lot::RwLock;

use newslink_util::{CacheCounters, CacheStats, ClockCache, FxHasher};

/// A concurrent, capacity-bounded cache: `parking_lot::RwLock` shards over
/// [`ClockCache`]s, with lock-free hit/miss/eviction counters.
///
/// Reads take a shard's shared lock (the CLOCK reference bit is atomic, so
/// `get` never upgrades); only inserts take the exclusive lock. Values are
/// cloned out, so `V` is typically an `Arc`.
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
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
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
        let found = self.shard(key).read().get(key).cloned();
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
        if self.shard(&key).write().insert(key, value).is_some() {
            self.counters.evict();
        }
    }

    /// Look up `key`, computing and inserting on miss. The compute closure
    /// runs outside any lock, so concurrent misses on one key may compute
    /// redundantly — last writer wins, which is safe for pure functions.
    pub fn get_or_insert_with(&self, key: &K, compute: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(key) {
            return v;
        }
        let v = compute();
        self.insert(key.clone(), v.clone());
        v
    }

    /// Total live entries across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (counters survive).
    pub fn clear(&self) {
        for s in self.shards.iter() {
            s.write().clear();
        }
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
    fn sharded_cache_bounds_and_counts() {
        let c: ShardedCache<u32, u32> = ShardedCache::with_shards(8, 4);
        for i in 0..100 {
            c.insert(i, i);
        }
        assert!(c.len() <= 8);
        let s = c.stats();
        assert!(s.evictions > 0);
        let v = c.get_or_insert_with(&7, || 700);
        let w = c.get_or_insert_with(&7, || 701);
        assert_eq!(v, w, "second lookup must hit the inserted value");
    }

    #[test]
    fn zero_capacity_sharded_cache_never_stores() {
        let c: ShardedCache<u32, u32> = ShardedCache::new(0);
        c.insert(1, 1);
        assert!(c.get(&1).is_none());
        assert_eq!(c.get_or_insert_with(&1, || 9), 9);
        assert!(c.is_empty());
    }
}
