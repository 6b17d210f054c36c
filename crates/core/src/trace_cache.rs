//! The trace cache.

use crate::slots::{probe_or_free, ProbeSlot};
use crate::trace::Trace;
use tpc_predict::TraceKey;

#[derive(Debug, Clone)]
struct Entry {
    /// Full identity hash — the tag.
    tag: u64,
    /// LRU stamp from the cache's clock.
    stamp: u64,
    trace: Trace,
}

/// The 2-way set-associative trace cache (paper Section 4.1: 64 to
/// 1024 entries, LRU replacement), indexed by a hash of the trace's
/// start address and branch outcomes.
///
/// Traces live directly in the ways of a flat slot array (tag and
/// payload side by side, as the hardware lays them out); a lookup is
/// one set-index computation plus a tag compare per way, with no
/// side map to keep in sync. Since [`Trace`] shares its instruction
/// storage (`Arc`), a fill stores a refcount bump, not a copy.
///
/// ```
/// use tpc_core::{TraceCache, TraceBuilder, Resolution, PushResult};
/// use tpc_isa::{Addr, Op, Reg};
///
/// let mut tc = TraceCache::new(64);
/// let mut b = TraceBuilder::new(Addr::new(0));
/// let trace = match b.push(Addr::new(0), Op::Halt, Resolution::None) {
///     PushResult::Complete(t) => t,
///     _ => unreachable!(),
/// };
/// let key = trace.key();
/// tc.fill(trace);
/// assert!(tc.lookup(key).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct TraceCache {
    ways: u32,
    set_mask: u64,
    slots: Vec<Option<Entry>>,
    clock: u64,
}

impl TraceCache {
    /// Creates a trace cache with `entries` total entries, 2-way
    /// set-associative.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not an even power of two (so that
    /// `entries / 2` sets is a power of two).
    pub fn new(entries: u32) -> Self {
        Self::with_ways(entries, 2)
    }

    /// Creates a trace cache with explicit associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` does not divide into a power-of-two number
    /// of sets of `ways`.
    pub fn with_ways(entries: u32, ways: u32) -> Self {
        assert!(
            ways > 0 && entries.is_multiple_of(ways),
            "entries must divide by ways"
        );
        let sets = entries / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        TraceCache {
            ways,
            set_mask: sets as u64 - 1,
            slots: vec![None; entries as usize],
            clock: 0,
        }
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> u32 {
        self.slots.len() as u32
    }

    fn set_range(&self, tag: u64) -> std::ops::Range<usize> {
        let set = (tag & self.set_mask) as usize;
        let start = set * self.ways as usize;
        start..start + self.ways as usize
    }

    /// Looks up a trace by identity, updating LRU state.
    ///
    /// A hash collision between distinct keys behaves like a miss
    /// (the stored trace's key is compared before it is returned), as
    /// a tag mismatch would in hardware.
    pub fn lookup(&mut self, key: TraceKey) -> Option<&Trace> {
        self.clock += 1;
        let clock = self.clock;
        let h = key.hash64();
        let mut hit = None;
        for i in self.set_range(h) {
            if let Some(e) = &mut self.slots[i] {
                if e.tag == h {
                    // Tag match refreshes LRU even when the full key
                    // then disagrees (hardware stamps on tag match).
                    e.stamp = clock;
                    if e.trace.key() == key {
                        hit = Some(i);
                    }
                    break;
                }
            }
        }
        hit.map(|i| &self.slots[i].as_ref().expect("tag matched").trace)
    }

    /// Whether a trace with this identity is resident (no LRU
    /// update).
    pub fn contains(&self, key: TraceKey) -> bool {
        let h = key.hash64();
        let range = self.set_range(h);
        self.slots[range]
            .iter()
            .flatten()
            .any(|e| e.tag == h && e.trace.key() == key)
    }

    /// Inserts a trace, evicting the set's LRU entry when full.
    pub fn fill(&mut self, trace: Trace) {
        self.clock += 1;
        let clock = self.clock;
        let h = trace.key().hash64();
        let range = self.set_range(h);
        let set = &mut self.slots[range];
        let ways = set.len();
        match probe_or_free(set, 0..ways, |e: &Entry| e.tag == h) {
            ProbeSlot::Match(i) | ProbeSlot::Free(i) => {
                set[i] = Some(Entry {
                    tag: h,
                    stamp: clock,
                    trace,
                });
            }
            ProbeSlot::Evict => {
                let victim = set
                    .iter_mut()
                    .min_by_key(|e| e.as_ref().map(|e| e.stamp).unwrap_or(0))
                    .expect("ways > 0");
                *victim = Some(Entry {
                    tag: h,
                    stamp: clock,
                    trace,
                });
            }
        }
    }

    /// Number of resident traces.
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{PushResult, Resolution, TraceBuilder};
    use tpc_isa::{Addr, Op, Reg};

    /// Builds a one-branch trace starting at `start` with the given
    /// branch outcome, ending in a return.
    fn mk_trace(start: u32, taken: bool) -> Trace {
        let mut b = TraceBuilder::new(Addr::new(start));
        let branch = Op::Branch {
            cond: tpc_isa::BranchCond::Ne,
            rs1: Reg::new(1),
            rs2: Reg::new(2),
            target: Addr::new(start + 8),
        };
        let next = if taken { start + 8 } else { start + 1 };
        b.push(
            Addr::new(start),
            branch,
            Resolution::Branch {
                taken,
                next_pc: Addr::new(next),
            },
        );
        match b.push(Addr::new(next), Op::Return, Resolution::None) {
            PushResult::Complete(t) => t,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut tc = TraceCache::new(64);
        let t = mk_trace(0, true);
        let key = t.key();
        assert!(tc.lookup(key).is_none());
        tc.fill(t);
        assert!(tc.lookup(key).is_some());
        assert_eq!(tc.occupancy(), 1);
    }

    #[test]
    fn same_start_different_path_are_distinct() {
        let mut tc = TraceCache::new(64);
        tc.fill(mk_trace(0, true));
        let other = mk_trace(0, false).key();
        assert!(
            tc.lookup(other).is_none(),
            "outcome bits are part of identity"
        );
    }

    #[test]
    fn capacity_pressure_evicts() {
        let mut tc = TraceCache::new(4); // 2 sets × 2 ways
        for i in 0..32 {
            tc.fill(mk_trace(i * 16, true));
        }
        assert!(tc.occupancy() <= 4);
        assert!(tc.contains(mk_trace(31 * 16, true).key()), "newest fill");
    }

    #[test]
    fn contains_does_not_touch_lru() {
        let mut tc = TraceCache::new(2); // 1 set × 2 ways
        let (a, b) = (mk_trace(0, true), mk_trace(16, true));
        let (ka, kb) = (a.key(), b.key());
        tc.fill(a);
        tc.fill(b);
        assert!(tc.contains(ka)); // a stays LRU
        tc.fill(mk_trace(32, true));
        assert!(!tc.contains(ka), "contains refreshed nothing");
        assert!(tc.contains(kb));
    }

    #[test]
    fn refill_updates_payload_without_eviction() {
        let mut tc = TraceCache::new(64);
        let t = mk_trace(0, true);
        let key = t.key();
        tc.fill(t.clone());
        tc.fill(t);
        assert!(tc.contains(key));
        assert_eq!(tc.occupancy(), 1);
    }

    #[test]
    fn lru_eviction_prefers_least_recently_touched() {
        let mut tc = TraceCache::new(2); // 1 set × 2 ways
        let a = mk_trace(0, true);
        let b = mk_trace(16, true);
        let c = mk_trace(32, true);
        let (ka, kb) = (a.key(), b.key());
        tc.fill(a);
        tc.fill(b);
        tc.lookup(ka); // b becomes LRU
        tc.fill(c);
        assert!(tc.contains(ka));
        assert!(!tc.contains(kb), "LRU way was evicted");
        assert_eq!(tc.occupancy(), 2);
    }

    #[test]
    fn filled_trace_shares_storage_with_source() {
        let mut tc = TraceCache::new(64);
        let t = mk_trace(0, true);
        let key = t.key();
        tc.fill(t.clone());
        let stored = tc.lookup(key).expect("resident");
        assert!(
            stored.shares_storage_with(&t),
            "a fill must store a refcount bump, not a copy"
        );
    }
}
