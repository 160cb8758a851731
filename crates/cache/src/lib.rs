//! # obcs-cache
//!
//! Inert: the turn pipeline keeps no cache (DESIGN.md §12). The crate
//! holds only [`CacheStats`], the counter shape of the two all-zero
//! structs `ConversationAgent::cache_stats` returns. It is kept only
//! because servebench still names it, and goes with servebench's next
//! benchmark change.

/// Inert hit/miss/eviction/invalidation counters, always zero (see the
/// crate docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped to stay within a cap.
    pub evictions: u64,
    /// Entries dropped because their data changed.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_stats_add_component_wise() {
        let a = CacheStats { hits: 1, misses: 2, evictions: 3, invalidations: 4 };
        let b = CacheStats { hits: 10, misses: 20, evictions: 30, invalidations: 40 };
        let m = a.merged(b);
        assert_eq!((m.hits, m.misses, m.evictions, m.invalidations), (11, 22, 33, 44));
    }
}
