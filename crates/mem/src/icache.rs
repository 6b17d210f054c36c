//! Instruction cache with a perfect L2 behind it.

use crate::cache::{CacheGeometry, SetAssocCache};
use crate::{line_of, INSTRS_PER_LINE};
use tpc_isa::Addr;

/// Who is performing an instruction-cache access.
///
/// The paper's Tables 1–3 separate instructions supplied to the
/// *slow path* (demand) from fetches issued by the preconstruction
/// engine, and measure how preconstruction perturbs the I-cache miss
/// rate; attribution happens here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// The slow-path fetch unit feeding the processor.
    Demand,
    /// The preconstruction engine filling a prefetch cache.
    Precon,
}

/// Result of one line fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchResult {
    /// Whether the line was present.
    pub hit: bool,
    /// Total latency in cycles (hit latency, plus L2 on a miss).
    pub latency: u32,
}

/// Configuration for [`InstrCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrCacheConfig {
    /// Total size in bytes (default 64 KB).
    pub size_bytes: u32,
    /// Associativity (default 4).
    pub ways: u32,
    /// Hit latency in cycles (default 1).
    pub hit_latency: u32,
    /// Perfect-L2 access latency in cycles (default 10).
    pub l2_latency: u32,
}

impl Default for InstrCacheConfig {
    fn default() -> Self {
        InstrCacheConfig {
            size_bytes: 64 * 1024,
            ways: 4,
            hit_latency: 1,
            l2_latency: 10,
        }
    }
}

/// Counters kept by the instruction cache: the outcomes only the
/// cache knows. Each requester counts its own line fetches
/// (`SimStats::slow_path_lines` for demand,
/// `EngineStats::lines_fetched` for preconstruction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IcacheStats {
    /// Demand (slow-path) fetches that missed.
    pub demand_misses: u64,
    /// Preconstruction fetches that missed.
    pub precon_misses: u64,
    /// Demand fetches that hit a line whose most recent fill was a
    /// preconstruction fill: prefetches that arrived and survived
    /// until the slow path needed them. A preconstruction-filled
    /// line evicted before its demand fetch counts in
    /// `demand_misses` instead.
    pub demand_hits_on_precon_lines: u64,
}

impl IcacheStats {
    /// Total misses from both access kinds.
    pub fn total_misses(&self) -> u64 {
        self.demand_misses + self.precon_misses
    }

    /// Visits every counter in checkpoint-word order. The exhaustive
    /// destructuring makes an unvisited new field a compile error.
    pub fn visit_words(&mut self, f: &mut impl FnMut(&mut u64)) {
        let IcacheStats {
            demand_misses,
            precon_misses,
            demand_hits_on_precon_lines,
        } = self;
        for w in [demand_misses, precon_misses, demand_hits_on_precon_lines] {
            f(w);
        }
    }
}

/// The instruction cache (64 KB, 4-way, 64-byte lines by default)
/// backed by a perfect L2.
///
/// Accesses are line-granular: the fetch unit and the preconstruction
/// engine both consume whole lines (16 instructions).
///
/// A tag's mark bit says that the line's most recent fill was
/// performed by the preconstruction engine (tracked for
/// Table-3-style attribution).
#[derive(Debug, Clone)]
pub struct InstrCache {
    tags: SetAssocCache,
    config: InstrCacheConfig,
    stats: IcacheStats,
}

impl InstrCache {
    /// Creates an instruction cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (size not a power-of-two
    /// multiple of `ways × 64`).
    pub fn new(config: InstrCacheConfig) -> Self {
        let lines = config.size_bytes / 64;
        InstrCache {
            tags: SetAssocCache::new(CacheGeometry::with_entries(lines, config.ways)),
            config,
            stats: IcacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &InstrCacheConfig {
        &self.config
    }

    /// Fetches the line containing `addr`, filling it on a miss.
    pub fn fetch(&mut self, addr: Addr, kind: AccessKind) -> FetchResult {
        let line = line_of(addr);
        let precon_filled = self.tags.access_mark(line);
        let hit = precon_filled.is_some();
        match (kind, precon_filled) {
            (AccessKind::Demand, None) => self.stats.demand_misses += 1,
            (AccessKind::Demand, Some(true)) => self.stats.demand_hits_on_precon_lines += 1,
            (AccessKind::Precon, None) => self.stats.precon_misses += 1,
            (_, Some(_)) => {}
        }
        if !hit {
            self.tags.fill_marking(line, kind == AccessKind::Precon);
        }
        FetchResult {
            hit,
            latency: if hit {
                self.config.hit_latency
            } else {
                self.config.hit_latency + self.config.l2_latency
            },
        }
    }

    /// Whether the line containing `addr` is currently resident
    /// (no LRU update, no fill).
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        self.tags.probe(line_of(addr))
    }

    /// The word address of the first instruction of `addr`'s line.
    #[inline]
    pub fn line_base(addr: Addr) -> Addr {
        Addr::new(addr.word() / INSTRS_PER_LINE * INSTRS_PER_LINE)
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &IcacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> InstrCache {
        // 1 KB, 2-way → 16 lines, 8 sets: easy to conflict.
        InstrCache::new(InstrCacheConfig {
            size_bytes: 1024,
            ways: 2,
            ..InstrCacheConfig::default()
        })
    }

    #[test]
    fn miss_then_hit_latencies() {
        let mut ic = small();
        let r1 = ic.fetch(Addr::new(0), AccessKind::Demand);
        assert!(!r1.hit);
        assert_eq!(r1.latency, 11);
        let r2 = ic.fetch(Addr::new(5), AccessKind::Demand); // same line
        assert!(r2.hit);
        assert_eq!(r2.latency, 1);
    }

    #[test]
    fn line_granularity() {
        let mut ic = small();
        ic.fetch(Addr::new(0), AccessKind::Demand);
        assert!(ic.contains(Addr::new(15)));
        assert!(!ic.contains(Addr::new(16)));
    }

    #[test]
    fn demand_and_precon_attributed_separately() {
        let mut ic = small();
        ic.fetch(Addr::new(0), AccessKind::Demand);
        ic.fetch(Addr::new(16), AccessKind::Precon);
        ic.fetch(Addr::new(16), AccessKind::Precon);
        let s = ic.stats();
        assert_eq!(s.demand_misses, 1);
        assert_eq!(s.precon_misses, 1);
    }

    #[test]
    fn precon_prefetch_turns_demand_miss_into_hit() {
        let mut ic = small();
        ic.fetch(Addr::new(32), AccessKind::Precon);
        let r = ic.fetch(Addr::new(33), AccessKind::Demand);
        assert!(r.hit);
        assert_eq!(ic.stats().demand_hits_on_precon_lines, 1);
        assert_eq!(ic.stats().demand_misses, 0);
    }

    #[test]
    fn eviction_clears_precon_attribution() {
        let mut ic = InstrCache::new(InstrCacheConfig {
            size_bytes: 128, // 2 lines, 2-way → 1 set
            ways: 2,
            ..InstrCacheConfig::default()
        });
        ic.fetch(Addr::new(0), AccessKind::Precon);
        ic.fetch(Addr::new(16), AccessKind::Demand);
        ic.fetch(Addr::new(32), AccessKind::Demand); // evicts line 0 (LRU)
        let r = ic.fetch(Addr::new(0), AccessKind::Demand); // miss again
        assert!(!r.hit);
        assert_eq!(ic.stats().demand_hits_on_precon_lines, 0);
    }

    #[test]
    fn line_base_rounds_down() {
        assert_eq!(InstrCache::line_base(Addr::new(37)), Addr::new(32));
        assert_eq!(InstrCache::line_base(Addr::new(32)), Addr::new(32));
    }

    #[test]
    fn default_config_is_paper_config() {
        let c = InstrCacheConfig::default();
        assert_eq!(c.size_bytes, 64 * 1024);
        assert_eq!(c.ways, 4);
        assert_eq!(c.hit_latency, 1);
        assert_eq!(c.l2_latency, 10);
    }
}
