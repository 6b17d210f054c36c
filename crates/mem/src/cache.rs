//! Generic set-associative LRU tag array.

use std::fmt;

/// Geometry of a set-associative structure.
///
/// `sets × ways` entries; both must be powers of two (sets may be 1
/// for a fully-associative structure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    sets: u32,
    ways: u32,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero, or if `sets` is not a
    /// power of two.
    pub fn new(sets: u32, ways: u32) -> Self {
        assert!(sets > 0 && ways > 0, "geometry must be non-empty");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheGeometry { sets, ways }
    }

    /// Geometry holding `entries` total with the given associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a multiple of `ways` or the
    /// resulting set count is not a power of two.
    pub fn with_entries(entries: u32, ways: u32) -> Self {
        assert!(
            ways > 0 && entries.is_multiple_of(ways),
            "entries must divide by ways"
        );
        Self::new(entries / ways, ways)
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.sets
    }

    /// Number of ways per set.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Total entry capacity.
    pub fn entries(&self) -> u32 {
        self.sets * self.ways
    }

    /// The set index for a key.
    #[inline]
    pub fn set_of(&self, key: u64) -> usize {
        (key & (self.sets as u64 - 1)) as usize
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u64,
    stamp: u64,
    valid: bool,
    mark: bool,
}

/// A set-associative LRU tag array over opaque `u64` keys.
///
/// This models only presence (tags) plus a per-entry mark bit — the
/// data cache's dirty bit, the instruction cache's "filled by
/// preconstruction" bit — not payloads: payload storage belongs to
/// the structure embedding it. Keys map to sets by their low bits;
/// the full key is the tag.
///
/// ```
/// use tpc_mem::{CacheGeometry, SetAssocCache};
/// let mut c = SetAssocCache::new(CacheGeometry::new(4, 2));
/// assert!(!c.access(42));   // cold miss
/// c.fill(42);
/// assert!(c.access(42));    // hit
/// ```
#[derive(Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    entries: Vec<Entry>,
    clock: u64,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        SetAssocCache {
            geometry,
            entries: vec![
                Entry {
                    key: 0,
                    stamp: 0,
                    valid: false,
                    mark: false,
                };
                geometry.entries() as usize
            ],
            clock: 0,
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    #[inline]
    fn set_range(&self, key: u64) -> std::ops::Range<usize> {
        let ways = self.geometry.ways as usize;
        let start = self.geometry.set_of(key) * ways;
        start..start + ways
    }

    /// Looks up `key`, updating LRU state on a hit.
    #[inline]
    pub fn access(&mut self, key: u64) -> bool {
        self.touch(key).is_some()
    }

    /// [`SetAssocCache::access`] that also sets the entry's mark bit
    /// on a hit when `mark`.
    #[inline]
    pub fn access_marking(&mut self, key: u64, mark: bool) -> bool {
        self.touch(key).map(|e| e.mark |= mark).is_some()
    }

    /// [`SetAssocCache::access`] that returns the entry's mark bit on
    /// a hit, and `None` on a miss.
    #[inline]
    pub fn access_mark(&mut self, key: u64) -> Option<bool> {
        self.touch(key).map(|e| e.mark)
    }

    /// The entry holding `key`, its LRU stamp refreshed.
    #[inline]
    fn touch(&mut self, key: u64) -> Option<&mut Entry> {
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(key);
        let e = self.entries[range]
            .iter_mut()
            .find(|e| e.valid && e.key == key)?;
        e.stamp = clock;
        Some(e)
    }

    /// Looks up `key` without touching LRU state.
    #[inline]
    pub fn probe(&self, key: u64) -> bool {
        let range = self.set_range(key);
        self.entries[range].iter().any(|e| e.valid && e.key == key)
    }

    /// Inserts `key`, evicting the LRU way if the set is full.
    ///
    /// Returns the evicted key, if any. Filling an already-present
    /// key refreshes its LRU stamp and evicts nothing.
    pub fn fill(&mut self, key: u64) -> Option<u64> {
        self.fill_marking(key, false).map(|(evicted, _)| evicted)
    }

    /// [`SetAssocCache::fill`] that sets the entry's mark bit when
    /// `mark` (a new entry starts with exactly `mark`), and returns the
    /// evicted key with its mark bit.
    pub fn fill_marking(&mut self, key: u64, mark: bool) -> Option<(u64, bool)> {
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(key);
        // Already present → refresh.
        for e in &mut self.entries[range.clone()] {
            if e.valid && e.key == key {
                e.stamp = clock;
                e.mark |= mark;
                return None;
            }
        }
        let fresh = Entry {
            key,
            stamp: clock,
            valid: true,
            mark,
        };
        // Free way?
        for e in &mut self.entries[range.clone()] {
            if !e.valid {
                *e = fresh;
                return None;
            }
        }
        // Evict LRU.
        let victim = self.entries[range]
            .iter_mut()
            .min_by_key(|e| e.stamp)
            .expect("ways > 0");
        let evicted = (victim.key, victim.mark);
        *victim = fresh;
        Some(evicted)
    }

    /// Removes `key` if present; reports whether it was.
    pub fn invalidate(&mut self, key: u64) -> bool {
        let range = self.set_range(key);
        for e in &mut self.entries[range] {
            if e.valid && e.key == key {
                e.valid = false;
                return true;
            }
        }
        false
    }

    /// Invalidates everything.
    pub fn clear(&mut self) {
        for e in &mut self.entries {
            e.valid = false;
        }
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }
}

impl fmt::Debug for SetAssocCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SetAssocCache")
            .field("geometry", &self.geometry)
            .field("occupancy", &self.occupancy())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(sets: u32, ways: u32) -> SetAssocCache {
        SetAssocCache::new(CacheGeometry::new(sets, ways))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = cache(4, 2);
        assert!(!c.access(10));
        c.fill(10);
        assert!(c.access(10));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = cache(1, 2);
        c.fill(1);
        c.fill(2);
        c.access(1); // 2 becomes LRU
        let evicted = c.fill(3);
        assert_eq!(evicted, Some(2));
        assert!(c.probe(1));
        assert!(c.probe(3));
        assert!(!c.probe(2));
    }

    #[test]
    fn refill_refreshes_without_eviction() {
        let mut c = cache(1, 2);
        c.fill(1);
        c.fill(2);
        assert_eq!(c.fill(1), None); // refresh, 2 now LRU
        assert_eq!(c.fill(3), Some(2));
    }

    #[test]
    fn keys_map_to_distinct_sets() {
        let mut c = cache(4, 1);
        // Keys 0..4 land in different sets: no evictions.
        for k in 0..4 {
            assert_eq!(c.fill(k), None);
        }
        assert_eq!(c.occupancy(), 4);
    }

    #[test]
    fn conflicting_keys_evict_within_one_set() {
        let mut c = cache(4, 1);
        c.fill(0);
        assert_eq!(c.fill(4), Some(0)); // same set (low bits equal)
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = cache(1, 2);
        c.fill(1);
        c.fill(2);
        assert!(c.probe(1)); // does NOT refresh 1
        assert_eq!(c.fill(3), Some(1)); // 1 was still LRU
    }

    #[test]
    fn invalidate_frees_way() {
        let mut c = cache(1, 2);
        c.fill(1);
        c.fill(2);
        assert!(c.invalidate(1));
        assert!(!c.invalidate(1));
        assert_eq!(c.fill(3), None); // reuses the freed way
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = cache(2, 2);
        c.fill(1);
        c.fill(2);
        c.clear();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.probe(1));
    }

    #[test]
    fn geometry_with_entries() {
        let g = CacheGeometry::with_entries(256, 2);
        assert_eq!(g.sets(), 128);
        assert_eq!(g.entries(), 256);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = CacheGeometry::new(3, 2);
    }

    #[test]
    fn fully_associative_geometry() {
        let mut c = cache(1, 4);
        for k in [100, 200, 300, 400] {
            c.fill(k);
        }
        assert_eq!(c.occupancy(), 4);
        assert_eq!(c.fill(500), Some(100));
    }
}
