//! Data cache model.

use crate::cache::{CacheGeometry, SetAssocCache};

/// Counters kept by the data cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataCacheStats {
    /// Load accesses.
    pub loads: u64,
    /// Store accesses.
    pub stores: u64,
    /// Misses (loads + stores).
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl DataCacheStats {
    /// Visits every counter in checkpoint-word order. The exhaustive
    /// destructuring makes an unvisited new field a compile error.
    pub fn visit_words(&mut self, f: &mut impl FnMut(&mut u64)) {
        let DataCacheStats {
            loads,
            stores,
            misses,
            writebacks,
        } = self;
        for w in [loads, stores, misses, writebacks] {
            f(w);
        }
    }
}

/// A write-back, write-allocate data cache (64 KB, 4-way, 64-byte
/// lines, 2-cycle hit by default) backed by a perfect 10-cycle L2.
///
/// The simulator models the paper's four-port constraint (any single
/// processing element uses at most two ports per cycle) in the
/// backend scheduler; this structure models hit/miss latency only.
/// Dirty lines are tracked by the tag array's per-entry mark bit.
#[derive(Debug, Clone)]
pub struct DataCache {
    tags: SetAssocCache,
    hit_latency: u32,
    l2_latency: u32,
    stats: DataCacheStats,
}

impl DataCache {
    /// Creates the paper's default data cache.
    pub fn new() -> Self {
        Self::with_params(64 * 1024, 4, 2, 10)
    }

    /// Creates a data cache with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry (see [`CacheGeometry`]).
    pub fn with_params(size_bytes: u32, ways: u32, hit_latency: u32, l2_latency: u32) -> Self {
        DataCache {
            tags: SetAssocCache::new(CacheGeometry::with_entries(size_bytes / 64, ways)),
            hit_latency,
            l2_latency,
            stats: DataCacheStats::default(),
        }
    }

    fn line(byte_addr: u64) -> u64 {
        byte_addr / 64
    }

    /// Performs a load; returns access latency in cycles.
    #[inline]
    pub fn load(&mut self, byte_addr: u64) -> u32 {
        self.stats.loads += 1;
        self.access(byte_addr, false)
    }

    /// Performs a store; returns access latency in cycles.
    #[inline]
    pub fn store(&mut self, byte_addr: u64) -> u32 {
        self.stats.stores += 1;
        self.access(byte_addr, true)
    }

    #[inline]
    fn access(&mut self, byte_addr: u64, is_store: bool) -> u32 {
        let line = Self::line(byte_addr);
        let hit = self.tags.access_marking(line, is_store);
        if !hit {
            self.stats.misses += 1;
            if let Some((_, true)) = self.tags.fill_marking(line, is_store) {
                self.stats.writebacks += 1;
            }
        }
        if hit {
            self.hit_latency
        } else {
            self.hit_latency + self.l2_latency
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &DataCacheStats {
        &self.stats
    }
}

impl Default for DataCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_miss_then_hit() {
        let mut d = DataCache::new();
        assert_eq!(d.load(0x100), 12);
        assert_eq!(d.load(0x104), 2); // same line
        assert_eq!(d.stats().loads, 2);
        assert_eq!(d.stats().misses, 1);
    }

    #[test]
    fn store_allocates_and_dirties() {
        let mut d = DataCache::with_params(128, 2, 2, 10); // one set, 2 ways
        d.store(0);
        d.load(64);
        // Evicting the dirty line 0 must produce a writeback.
        d.load(128);
        assert_eq!(d.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_produces_no_writeback() {
        let mut d = DataCache::with_params(128, 2, 2, 10);
        d.load(0);
        d.load(64);
        d.load(128);
        assert_eq!(d.stats().writebacks, 0);
    }

    #[test]
    fn store_hit_latency() {
        let mut d = DataCache::new();
        d.load(0);
        assert_eq!(d.store(8), 2);
    }
}
