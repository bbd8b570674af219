//! The content-addressed result cache.
//!
//! Keys are the 128-bit request fingerprints from
//! [`RunRequest::cache_key`](crate::protocol::RunRequest::cache_key);
//! values are the *serialised* result JSON, stored as text so a hit is
//! handed out byte-identical to the run that produced it (no re-encode,
//! no drift).
//!
//! The cache is the workspace's one byte-budget LRU,
//! [`ScheduleCache`], holding result texts at their length in bytes: the
//! same deterministic eviction order, the same [`CacheStats`]. Entries are
//! held as `Arc<str>`: a hit hands out a reference-counted view of the
//! cached text instead of copying it, so the reactor thread serves hot
//! results in O(1) regardless of response size.

use std::sync::Arc;

pub use smache_sim::CacheStats;
use smache_sim::ScheduleCache;

/// An LRU result cache with a byte budget.
#[derive(Debug)]
pub struct ResultCache(ScheduleCache<str>);

impl ResultCache {
    /// Creates an empty cache holding at most `budget` bytes of result
    /// text.
    pub fn new(budget: usize) -> ResultCache {
        ResultCache(ScheduleCache::new(budget))
    }

    /// Looks `key` up, refreshing its recency on a hit. The returned
    /// `Arc<str>` shares the cached allocation — no copy, O(1) per hit.
    pub fn get(&mut self, key: (u64, u64)) -> Option<Arc<str>> {
        self.0.get(key)
    }

    /// Stores `text` under `key`, evicting least-recently-used entries
    /// until the byte budget holds. A result larger than the entire
    /// budget is not stored (counted in [`CacheStats::oversize`]).
    pub fn insert(&mut self, key: (u64, u64), text: String) {
        let bytes = text.len();
        self.0.insert(key, text, bytes);
    }

    /// Bytes of result text currently held.
    pub fn bytes(&self) -> usize {
        self.0.bytes()
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The running hit/miss/eviction totals.
    pub fn stats(&self) -> CacheStats {
        self.0.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_cost_their_text_length() {
        let mut c = ResultCache::new(25);
        c.insert((1, 1), "x".repeat(10));
        c.insert((2, 2), "y".repeat(10));
        assert_eq!(c.get((1, 1)).as_deref(), Some("xxxxxxxxxx"));
        assert_eq!((c.bytes(), c.len()), (20, 2));
        // The oldest text goes to make room; an oversized one never lands.
        c.insert((3, 3), "z".repeat(10));
        assert_eq!(c.get((2, 2)), None);
        c.insert((4, 4), "w".repeat(26));
        assert_eq!(c.len(), 2);
        let s = c.stats();
        assert_eq!((s.evictions, s.oversize, s.insertions), (1, 1, 3));
    }
}
