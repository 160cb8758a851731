//! # obcs-cache
//!
//! The LRU cache behind the turn pipeline's one cache layer, the NLU
//! classify/recognize memo in `obcs-agent` (see DESIGN.md §12
//! "Caching").
//!
//! [`LruCache`] is a string-keyed LRU. Entries carry no validity stamp:
//! the owner of a cache clears it in every method that mutates the data
//! the entries were computed from. Those methods take `&mut self`, so
//! the owner reaches its cache without a lock (`Mutex::get_mut`).
//!
//! The cache holds at most a fixed number of entries, evicting the least
//! recently used past it. [`CacheStats`] counts hits, misses, evictions, and
//! the entries [`LruCache::clear`] drops; [`record_stats`] publishes them
//! through the `obcs-telemetry` metric vocabulary on demand. Stats are
//! surfaced *on demand* rather than recorded per lookup: cache warm-up
//! differs across replay shard layouts, so per-turn hit/miss counters
//! would break the bit-for-bit determinism contract of traced replays
//! (DESIGN.md §12 spells out the argument).
//!
//! `LruCache` itself is not synchronised — callers that share a cache
//! across threads wrap it in a `Mutex`, which is how `obcs-agent` uses
//! it.

use std::collections::{BTreeMap, HashMap};

/// Hit/miss/eviction/invalidation counters of one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped to stay within the entry cap.
    pub evictions: u64,
    /// Entries dropped by [`LruCache::clear`].
    pub invalidations: u64,
}

impl CacheStats {
    /// Component-wise sum — for aggregating layers into one view.
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            invalidations: self.invalidations + other.invalidations,
        }
    }

    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

struct Entry<V> {
    value: V,
    stamp: u64,
}

/// A string-keyed LRU cache with an entry cap (see the crate docs).
pub struct LruCache<V> {
    max_entries: usize,
    map: HashMap<String, Entry<V>>,
    /// Recency index: stamp → key. Stamps are unique (monotone counter),
    /// so the smallest stamp is always the least recently used entry.
    recency: BTreeMap<u64, String>,
    next_stamp: u64,
    stats: CacheStats,
}

impl<V> LruCache<V> {
    /// An empty cache keeping at most `max_entries` entries.
    pub fn new(max_entries: usize) -> Self {
        LruCache {
            max_entries,
            map: HashMap::new(),
            recency: BTreeMap::new(),
            next_stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The counters accumulated so far (kept across `clear`).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drops every entry, counting each as an invalidation; the other
    /// counters are kept. A no-op on an empty cache, so a writer may
    /// call it on every mutation.
    pub fn clear(&mut self) {
        if self.map.is_empty() {
            return;
        }
        self.stats.invalidations += self.map.len() as u64;
        self.map.clear();
        self.recency.clear();
    }

    fn remove(&mut self, key: &str) -> Option<Entry<V>> {
        let entry = self.map.remove(key)?;
        self.recency.remove(&entry.stamp);
        Some(entry)
    }

    fn evict_past_cap(&mut self) {
        while self.map.len() > self.max_entries {
            let Some((_, key)) = self.recency.iter().next().map(|(s, k)| (*s, k.clone())) else {
                break;
            };
            self.remove(&key);
            self.stats.evictions += 1;
        }
    }
}

impl<V: Clone> LruCache<V> {
    /// Looks up `key`, marking a hit as most recently used.
    pub fn get(&mut self, key: &str) -> Option<V> {
        let Some(entry) = self.map.get_mut(key) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        // One hash lookup: re-stamp the entry in place and move its key
        // `String` to the new recency slot instead of re-allocating it.
        let key = self.recency.remove(&entry.stamp).expect("every entry has a recency slot");
        entry.stamp = self.next_stamp;
        self.next_stamp += 1;
        self.recency.insert(entry.stamp, key);
        Some(entry.value.clone())
    }

    /// Stores `value` for `key`, replacing an existing entry for the
    /// key. A cache with a zero entry cap stores nothing.
    pub fn put(&mut self, key: &str, value: V) {
        if self.max_entries == 0 {
            return;
        }
        self.remove(key);
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.map.insert(key.to_string(), Entry { value, stamp });
        self.recency.insert(stamp, key.to_string());
        self.evict_past_cap();
    }
}

/// Publishes one layer's counters through the shared telemetry metric
/// vocabulary (`cache_hit{layer}`, `cache_miss{layer}`, …). Call this on
/// demand — at the end of a replay or on a stats endpoint — never inside
/// the per-turn path, where the hit pattern is shard-layout-dependent and
/// would break trace determinism (DESIGN.md §12).
pub fn record_stats(stats: CacheStats, layer: &str, rec: &dyn obcs_telemetry::Recorder) {
    use obcs_telemetry::metric;
    rec.add(metric::CACHE_HITS, layer, stats.hits);
    rec.add(metric::CACHE_MISSES, layer, stats.misses);
    rec.add(metric::CACHE_EVICTIONS, layer, stats.evictions);
    rec.add(metric::CACHE_INVALIDATIONS, layer, stats.invalidations);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(entries: usize) -> LruCache<String> {
        LruCache::new(entries)
    }

    #[test]
    fn get_put_roundtrip_and_stats() {
        let mut c = cache(8);
        assert_eq!(c.get("k"), None);
        c.put("k", "v".to_string());
        assert_eq!(c.get("k"), Some("v".to_string()));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.invalidations), (1, 1, 0, 0));
        assert_eq!(s.lookups(), 2);
    }

    #[test]
    fn clear_counts_dropped_entries_as_invalidations() {
        let mut c = cache(8);
        c.put("a", "old".to_string());
        c.put("b", "old".to_string());
        c.clear();
        assert_eq!(c.get("a"), None, "a cleared entry must not serve");
        assert_eq!(c.stats().invalidations, 2, "one per dropped entry");
        c.clear();
        assert_eq!(c.stats().invalidations, 2, "clearing an empty cache drops nothing");
        c.put("a", "new".to_string());
        assert_eq!(c.get("a"), Some("new".to_string()));
    }

    #[test]
    fn lru_eviction_by_entry_cap() {
        let mut c = cache(2);
        c.put("a", "1".into());
        c.put("b", "2".into());
        assert_eq!(c.get("a"), Some("1".into()), "touch a so b is LRU");
        c.put("c", "3".into());
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("b"), None, "b was least recently used");
        assert_eq!(c.get("a"), Some("1".into()));
        assert_eq!(c.get("c"), Some("3".into()));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn replacing_a_key_keeps_one_entry() {
        let mut c = cache(4);
        c.put("k", "v1".into());
        c.put("k", "v2".into());
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("k"), Some("v2".into()));
    }

    #[test]
    fn clear_keeps_counters() {
        let mut c = cache(8);
        c.put("k", "v".into());
        let _ = c.get("k");
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().hits, 1, "counters survive a clear");
    }

    #[test]
    fn merged_stats_add_component_wise() {
        let a = CacheStats { hits: 1, misses: 2, evictions: 3, invalidations: 4 };
        let b = CacheStats { hits: 10, misses: 20, evictions: 30, invalidations: 40 };
        let m = a.merged(b);
        assert_eq!((m.hits, m.misses, m.evictions, m.invalidations), (11, 22, 33, 44));
    }

    #[test]
    fn record_stats_publishes_metric_counters() {
        let rec = obcs_telemetry::CollectingRecorder::ticks();
        record_stats(
            CacheStats { hits: 5, misses: 2, evictions: 1, invalidations: 3 },
            "nlu_classify",
            &rec,
        );
        let report = rec.take_report();
        assert_eq!(report.counters[&("cache_hit".into(), "nlu_classify".into())], 5);
        assert_eq!(report.counters[&("cache_miss".into(), "nlu_classify".into())], 2);
        assert_eq!(report.counters[&("cache_evict".into(), "nlu_classify".into())], 1);
        assert_eq!(report.counters[&("cache_invalidate".into(), "nlu_classify".into())], 3);
    }
}
