//! The workspace's one byte-budgeted LRU cache.
//!
//! [`ScheduleCache`] holds captured control schedules keyed by
//! [`fingerprint128`](crate::hash::fingerprint128) of the canonical spec
//! text, and the serve layer's result cache holds its result texts in
//! one. Every hit and insert stamps the entry with a monotonic use
//! counter, and inserts evict the lowest-stamped entries until the byte
//! budget holds: the same operation sequence gives the same evictions,
//! which the eviction-order tests pin.

use std::collections::BTreeMap;
use std::sync::Arc;

/// Running totals a [`ScheduleCache`] reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries stored.
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Values larger than the whole budget, never stored.
    pub oversize: u64,
}

#[derive(Debug)]
struct CacheEntry<V: ?Sized> {
    value: Arc<V>,
    bytes: usize,
    last_used: u64,
}

/// A byte-budgeted LRU cache for captured control schedules, or any other
/// fingerprint-keyed value with an explicit byte cost (see the module
/// docs). Values are handed out as [`Arc`] clones so a hit is O(1)
/// regardless of value size.
#[derive(Debug)]
pub struct ScheduleCache<V: ?Sized> {
    budget: usize,
    bytes: usize,
    tick: u64,
    entries: BTreeMap<(u64, u64), CacheEntry<V>>,
    stats: CacheStats,
}

impl<V: ?Sized> ScheduleCache<V> {
    /// Creates an empty cache holding at most `budget` bytes of values.
    pub fn new(budget: usize) -> ScheduleCache<V> {
        ScheduleCache {
            budget,
            bytes: 0,
            tick: 0,
            entries: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&mut self, key: (u64, u64)) -> Option<Arc<V>> {
        self.tick += 1;
        match self.entries.get_mut(&key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                Some(Arc::clone(&entry.value))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// True when `key` is resident, *without* refreshing its recency or
    /// counting a lookup — a pure probe. The serve reactor uses it to
    /// classify requests at admission (a resident schedule means the job
    /// is a cheap replay) without the classification itself perturbing
    /// the LRU order or the hit/miss statistics.
    pub fn contains(&self, key: (u64, u64)) -> bool {
        self.entries.contains_key(&key)
    }

    /// Stores `value` under `key` with an explicit byte cost, evicting
    /// least-recently-used entries until the budget holds. A value larger
    /// than the entire budget is not stored (and not converted).
    pub fn insert(&mut self, key: (u64, u64), value: impl Into<Arc<V>>, bytes: usize) {
        if bytes > self.budget {
            self.stats.oversize += 1;
            return;
        }
        self.tick += 1;
        let entry = CacheEntry {
            value: value.into(),
            bytes,
            last_used: self.tick,
        };
        match self.entries.insert(key, entry) {
            Some(old) => self.bytes -= old.bytes,
            None => self.stats.insertions += 1,
        }
        self.bytes += bytes;

        while self.bytes > self.budget {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
                .expect("over budget implies non-empty");
            let evicted = self.entries.remove(&victim).expect("victim exists");
            self.bytes -= evicted.bytes;
            self.stats.evictions += 1;
        }
    }

    /// Bytes of values currently held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The byte budget this cache was created with. A `0` budget can
    /// never store anything — callers use it as "caching disabled".
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The running hit/miss/eviction totals.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Keys currently resident, least-recently-used first — the order the
    /// next evictions would take. Test/diagnostic surface.
    pub fn keys_by_age(&self) -> Vec<(u64, u64)> {
        let mut keys: Vec<_> = self
            .entries
            .iter()
            .map(|(&k, e)| (e.last_used, k))
            .collect();
        keys.sort();
        keys.into_iter().map(|(_, k)| k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> (u64, u64) {
        (n, n.wrapping_mul(31))
    }

    #[test]
    fn hit_miss_and_byte_accounting() {
        let mut c: ScheduleCache<str> = ScheduleCache::new(100);
        assert_eq!(c.get(key(1)), None);
        c.insert(key(1), "x".repeat(10), 10);
        assert_eq!(c.get(key(1)).as_deref(), Some("xxxxxxxxxx"));
        assert_eq!(c.bytes(), 10);
        assert_eq!(c.len(), 1);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let mut c: ScheduleCache<str> = ScheduleCache::new(100);
        c.insert(key(1), "aaaa".to_string(), 4);
        c.insert(key(1), "bb".to_string(), 2);
        assert_eq!(c.bytes(), 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(key(1)).as_deref(), Some("bb"));
    }

    #[test]
    fn eviction_is_least_recently_used() {
        // Budget fits three 10-byte entries. Touch `a`, then insert `d`:
        // `b` (now the oldest) must be evicted, not `a`.
        let mut c: ScheduleCache<u8> = ScheduleCache::new(30);
        for n in 1..=3 {
            c.insert(key(n), Arc::new(0), 10);
        }
        assert!(c.get(key(1)).is_some()); // refresh a
        c.insert(key(4), Arc::new(0), 10);
        assert_eq!(c.get(key(2)), None, "LRU victim must be b");
        assert!(c.get(key(1)).is_some());
        assert!(c.get(key(3)).is_some());
        assert!(c.get(key(4)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.bytes(), 30);
    }

    #[test]
    fn eviction_order_is_deterministic() {
        // The full age order is observable and matches eviction order.
        let mut c: ScheduleCache<u8> = ScheduleCache::new(40);
        for n in 1..=4 {
            c.insert(key(n), Arc::new(0), 10);
        }
        c.get(key(2));
        c.get(key(1));
        assert_eq!(c.keys_by_age(), vec![key(3), key(4), key(2), key(1)]);
        // One oversized insert evicts in exactly that order.
        c.insert(key(5), Arc::new(0), 35);
        assert_eq!(c.keys_by_age(), vec![key(5)]);
        assert_eq!(c.stats().evictions, 4);
    }

    #[test]
    fn oversize_results_are_never_stored() {
        let mut c: ScheduleCache<str> = ScheduleCache::new(10);
        c.insert(key(1), "z".repeat(11), 11);
        assert!(c.is_empty());
        assert_eq!(c.stats().oversize, 1);
        assert_eq!(c.stats().insertions, 0);
    }
}
