//! Trace storage: the split trace-cache/preconstruction-buffer pair
//! the paper evaluates, and the dynamically partitioned alternative
//! it suggests as future work.
//!
//! Paper Section 5.1: "either a compromise has to be made, or a
//! design that dynamically allocates space for the preconstruction
//! buffer may need to be used. We do not investigate dynamically
//! partitioning space between the trace cache and preconstruction
//! buffer, but this could likely be done." [`UnifiedStore`] is that
//! design: one 4-way set-associative array whose ways are assigned a
//! role — trace-cache or preconstruction — per set-independent
//! partition, re-balanced at epoch boundaries from hit/miss feedback.
//! No flush is needed on re-partition because indexing never changes;
//! only fill placement does.

use crate::precon_buffer::PreconBuffers;
use crate::preprocess::{preprocess, PreprocessInfo};
use crate::slots::{fault_victim, probe_or_free, ProbeSlot};
use crate::trace::{Trace, TraceBuilder};
use crate::trace_cache::TraceCache;
use std::sync::Arc;
use tpc_predict::TraceKey;

/// Outcome of a processor-side fetch probe.
#[derive(Debug, Clone)]
pub struct StoreFetch {
    /// Whether the trace was found at all.
    pub hit: bool,
    /// Whether it was found on the preconstruction side (and has now
    /// been promoted into the trace-cache side).
    pub from_precon: bool,
    /// Preprocessing annotations carried by the stored trace (shared
    /// with it — handing them to the fetched instance is a refcount
    /// bump).
    pub preprocess: Option<Arc<PreprocessInfo>>,
}

impl StoreFetch {
    const MISS: StoreFetch = StoreFetch {
        hit: false,
        from_precon: false,
        preprocess: None,
    };
}

/// The counters a store keeps: only what no other component counts.
/// Fetch outcomes are the simulator's (`SimStats::trace_cache_hits`
/// and its siblings) and rejected fills are the engine's
/// (`EngineStats::regions_buffer_bound`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Preconstruction fills accepted.
    pub precon_fills: u64,
}

impl StoreCounters {
    /// Visits every counter in checkpoint-word order. The exhaustive
    /// destructuring makes an unvisited new field a compile error.
    pub fn visit_words(&mut self, f: &mut impl FnMut(&mut u64)) {
        let StoreCounters { precon_fills } = self;
        f(precon_fills);
    }
}

/// What [`TraceStore::file_precon`] did with a completed trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Filed {
    /// The trace-cache side already holds the trace; it was dropped
    /// unbuilt.
    AlreadyCached,
    /// The preconstruction side took the trace as a new entry, built
    /// for it (the filing's one allocation).
    NewEntry,
    /// A pending preconstruction entry already held the trace: it was
    /// re-tagged with the filing region and kept its stored
    /// instructions, so nothing was built.
    Retagged,
    /// The replacement policy rejected the fill — the per-region
    /// resource bound that terminates region exploration.
    Rejected,
}

/// Storage for traces: the trace cache plus wherever preconstructed
/// traces wait. The processor fetches through [`TraceStore::fetch`];
/// the fill unit inserts through [`TraceStore::fill_demand`]; the
/// preconstruction engine files its traces unbuilt through
/// [`TraceStore::file_precon`]. [`TraceStore::contains_cached`]
/// followed by [`TraceStore::fill_precon`] is the same filing for a
/// built trace, replacing an entry that holds its key.
pub trait TraceStore: std::fmt::Debug {
    /// Processor fetch: probes the trace-cache and preconstruction
    /// sides in parallel; a preconstruction hit is promoted to the
    /// trace-cache side (paper Section 3.1).
    fn fetch(&mut self, key: TraceKey) -> StoreFetch;

    /// Whether the trace-cache side already holds this trace (the
    /// engine's pre-fill duplicate check; no state change).
    fn contains_cached(&self, key: TraceKey) -> bool;

    /// Fill from the processor's fill unit (slow-path build).
    fn fill_demand(&mut self, trace: Trace);

    /// Preconstruction fill of a built trace, tagged with its region;
    /// an entry already holding the key is replaced. Returns `false`
    /// when the replacement policy rejects the fill — the per-region
    /// resource bound that terminates region exploration.
    fn fill_precon(&mut self, trace: Trace, region: u64) -> bool;

    /// Files the trace the preconstruction engine completed in
    /// `done`, tagged with `region`. It has the outcome of
    /// [`TraceStore::contains_cached`] then
    /// [`TraceStore::fill_precon`] of the built trace, and counts the
    /// same fills, but builds the trace (one allocation) only when it
    /// claims a new entry: a cached trace is dropped, and a pending
    /// entry that holds the key is re-tagged with `region` and keeps
    /// its stored instructions. A key's instructions are fixed, so
    /// only the stored instance's successor, which nothing reads from
    /// the store, can differ.
    ///
    /// # Panics
    ///
    /// Panics if `done` holds no completed trace and would be built.
    fn file_precon(&mut self, done: &TraceBuilder, region: u64) -> Filed;

    /// Aggregate counters.
    fn counters(&self) -> StoreCounters;

    /// Total entries (both roles).
    fn capacity(&self) -> u32;

    /// Entries currently assigned to the preconstruction role (for
    /// the adaptive store this varies over time).
    fn precon_capacity(&self) -> u32;

    /// Checks the store's structural invariants (occupancy within
    /// capacity). Called by the differential oracle after every
    /// simulation chunk.
    fn check_invariants(&self) -> Result<(), String>;

    /// Fault-injection hook: invalidates one pending preconstructed
    /// entry, chosen by `salt`. Returns whether an entry was dropped.
    /// Stores without a preconstruction side are fault-transparent.
    fn fault_invalidate_precon(&mut self, _salt: u64) -> bool {
        false
    }

    /// Fault-injection hook: corrupts one pending preconstructed
    /// entry's region tag (detected corruption: the entry loses its
    /// replacement priority). Returns whether a tag changed.
    fn fault_corrupt_precon(&mut self, _salt: u64) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Split store: the paper's evaluated organization.
// ---------------------------------------------------------------------------

/// The paper's organization: a 2-way trace cache and a separate 2-way
/// preconstruction buffer, probed in parallel; buffer hits are copied
/// into the trace cache and invalidated in the buffer.
#[derive(Debug)]
pub struct SplitStore {
    tc: TraceCache,
    pb: PreconBuffers,
    counters: StoreCounters,
    /// Preprocess a preconstructed trace when it is first fetched.
    preprocess: bool,
}

impl SplitStore {
    /// Creates a split store with `tc_entries` + `pb_entries`
    /// (0 disables the preconstruction side).
    ///
    /// # Panics
    ///
    /// Panics if a non-zero size is not an even power of two.
    pub fn new(tc_entries: u32, pb_entries: u32) -> Self {
        SplitStore {
            tc: TraceCache::new(tc_entries),
            pb: PreconBuffers::new(pb_entries),
            counters: StoreCounters::default(),
            preprocess: false,
        }
    }

    /// Sets whether a preconstructed trace is preprocessed when it is
    /// first fetched: the buffer hit that promotes it annotates it,
    /// and the promoted copy keeps the annotations for later hits.
    /// The engine files traces unannotated, so this is where the
    /// extended pipeline's preconstructed traces get theirs.
    pub fn preprocess_at_first_use(mut self, on: bool) -> Self {
        self.preprocess = on;
        self
    }

    /// The preconstruction-buffer half.
    pub fn buffers(&self) -> &PreconBuffers {
        &self.pb
    }
}

impl TraceStore for SplitStore {
    fn fetch(&mut self, key: TraceKey) -> StoreFetch {
        if let Some(t) = self.tc.lookup(key) {
            return StoreFetch {
                hit: true,
                from_precon: false,
                preprocess: t.preprocess_shared(),
            };
        }
        if let Some(mut t) = self.pb.take(key) {
            if self.preprocess {
                t.set_preprocess(preprocess(&t));
            }
            let info = t.preprocess_shared();
            self.tc.fill(t);
            return StoreFetch {
                hit: true,
                from_precon: true,
                preprocess: info,
            };
        }
        StoreFetch::MISS
    }

    fn contains_cached(&self, key: TraceKey) -> bool {
        self.tc.contains(key)
    }

    fn fill_demand(&mut self, trace: Trace) {
        self.tc.fill(trace);
    }

    fn fill_precon(&mut self, trace: Trace, region: u64) -> bool {
        let ok = self.pb.fill(trace, region);
        self.counters.precon_fills += u64::from(ok);
        ok
    }

    fn file_precon(&mut self, done: &TraceBuilder, region: u64) -> Filed {
        if self.tc.contains(done.key()) {
            return Filed::AlreadyCached;
        }
        let filed = self.pb.file(done, region);
        self.counters.precon_fills += u64::from(filed != Filed::Rejected);
        filed
    }

    fn counters(&self) -> StoreCounters {
        self.counters
    }

    fn capacity(&self) -> u32 {
        self.tc.capacity() + self.pb.capacity()
    }

    fn precon_capacity(&self) -> u32 {
        self.pb.capacity()
    }

    fn check_invariants(&self) -> Result<(), String> {
        if self.tc.occupancy() > self.tc.capacity() as usize {
            return Err(format!(
                "trace cache occupancy {} exceeds capacity {}",
                self.tc.occupancy(),
                self.tc.capacity()
            ));
        }
        self.pb.check_invariants()
    }

    fn fault_invalidate_precon(&mut self, salt: u64) -> bool {
        self.pb.fault_invalidate_one(salt)
    }

    fn fault_corrupt_precon(&mut self, salt: u64) -> bool {
        self.pb.fault_corrupt_region_tag(salt)
    }
}

// ---------------------------------------------------------------------------
// Unified store: dynamic partitioning.
// ---------------------------------------------------------------------------

/// Configuration for [`UnifiedStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnifiedConfig {
    /// Total entries (4-way set-associative; must be a multiple of 4
    /// with a power-of-two set count).
    pub entries: u32,
    /// Ways (of 4) initially assigned to the preconstruction role.
    pub initial_pb_ways: u8,
    /// Re-evaluate the partition every this many fetches (0 = fixed
    /// partition).
    pub epoch_fetches: u64,
}

impl Default for UnifiedConfig {
    fn default() -> Self {
        UnifiedConfig {
            entries: 512,
            initial_pb_ways: 1,
            epoch_fetches: 4096,
        }
    }
}

#[derive(Debug, Clone)]
struct UnifiedSlot {
    trace: Trace,
    /// `Some(region)` while the entry holds a not-yet-used
    /// preconstructed trace; `None` once it is demand content.
    region: Option<u64>,
    stamp: u64,
}

/// One 4-way array holding both roles, with per-way role assignment
/// re-balanced at epoch boundaries.
///
/// * ways `0 .. 4-pb_ways` accept demand fills (LRU replacement);
/// * ways `4-pb_ways .. 4` accept preconstruction fills
///   (region-priority replacement, as in [`PreconBuffers`]);
/// * *all* ways are probed on fetch; a hit on a preconstruction
///   entry clears its region tag (promotion without copying — the
///   advantage of the unified organization);
/// * every `epoch_fetches` fetches the controller compares how much
///   supply the preconstruction ways produced against the miss rate
///   and moves one way between roles (between 0 and 2 of the 4).
#[derive(Debug)]
pub struct UnifiedStore {
    config: UnifiedConfig,
    sets: u32,
    slots: Vec<Option<UnifiedSlot>>,
    pb_ways: u8,
    clock: u64,
    counters: StoreCounters,
    epoch_fetches: u64,
    epoch_precon_hits: u64,
    epoch_misses: u64,
    /// (epoch index, pb_ways after adaptation) history for tests and
    /// diagnostics.
    adaptations: Vec<(u64, u8)>,
    epoch_index: u64,
    /// Preprocess a preconstructed trace when it is first fetched.
    preprocess: bool,
}

const UNIFIED_WAYS: usize = 4;

impl UnifiedStore {
    /// Creates a unified store.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a multiple of 4 with a power-of-two
    /// set count, or `initial_pb_ways > 2`.
    pub fn new(config: UnifiedConfig) -> Self {
        assert!(
            config.entries.is_multiple_of(4),
            "entries must be a multiple of 4"
        );
        let sets = config.entries / 4;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            config.initial_pb_ways <= 2,
            "at most half the ways for preconstruction"
        );
        UnifiedStore {
            sets,
            slots: vec![None; config.entries as usize],
            pb_ways: config.initial_pb_ways,
            clock: 0,
            counters: StoreCounters::default(),
            epoch_fetches: 0,
            epoch_precon_hits: 0,
            epoch_misses: 0,
            adaptations: Vec::new(),
            epoch_index: 0,
            preprocess: false,
            config,
        }
    }

    /// Sets whether a preconstructed trace is preprocessed on its
    /// first use, when its hit clears the region tag; the entry keeps
    /// the annotations for later hits. See
    /// [`SplitStore::preprocess_at_first_use`].
    pub fn preprocess_at_first_use(mut self, on: bool) -> Self {
        self.preprocess = on;
        self
    }

    /// Ways currently assigned to the preconstruction role.
    pub fn pb_ways(&self) -> u8 {
        self.pb_ways
    }

    /// The adaptation history: (epoch index, pb_ways chosen).
    pub fn adaptations(&self) -> &[(u64, u8)] {
        &self.adaptations
    }

    fn set_range(&self, key: TraceKey) -> std::ops::Range<usize> {
        let set = (key.hash64() & (self.sets as u64 - 1)) as usize;
        set * UNIFIED_WAYS..(set + 1) * UNIFIED_WAYS
    }

    /// The slot a preconstruction fill of `key` from `region` lands
    /// in: an entry anywhere in the set that already holds the key,
    /// else a free preconstruction way, else the oldest-region
    /// preconstruction way if it is strictly older than `region`;
    /// `None` when the fill is rejected. Ticks the LRU clock unless
    /// no way has the preconstruction role.
    fn claim_precon(&mut self, key: TraceKey, region: u64) -> Option<usize> {
        if self.pb_ways == 0 {
            return None;
        }
        self.clock += 1;
        let range = self.set_range(key);
        let base = range.start;
        let tc_ways = UNIFIED_WAYS - self.pb_ways as usize;
        let slots = &self.slots[range];
        let way = match probe_or_free(slots, tc_ways..UNIFIED_WAYS, |s: &UnifiedSlot| {
            s.trace.key() == key
        }) {
            ProbeSlot::Match(i) | ProbeSlot::Free(i) => i,
            ProbeSlot::Evict => {
                // Region-priority replacement (used demand entries
                // that ended up in a PB way after a repartition count
                // as oldest).
                let (i, victim_region) = slots[tc_ways..]
                    .iter()
                    .map(|s| s.as_ref().and_then(|s| s.region).unwrap_or(0))
                    .enumerate()
                    .min_by_key(|&(_, r)| r)
                    .expect("pb_ways >= 1");
                if victim_region >= region {
                    return None;
                }
                tc_ways + i
            }
        };
        Some(base + way)
    }

    fn maybe_adapt(&mut self) {
        if self.config.epoch_fetches == 0 {
            return;
        }
        self.epoch_fetches += 1;
        if self.epoch_fetches < self.config.epoch_fetches {
            return;
        }
        // Controller: preconstruction supply that materially offsets
        // misses earns capacity; idle preconstruction ways return to
        // the trace cache.
        let hits = self.epoch_precon_hits;
        let misses = self.epoch_misses;
        if hits * 2 > misses && self.pb_ways < 2 {
            self.pb_ways += 1;
        } else if hits * 8 < misses && self.pb_ways > 0 {
            self.pb_ways -= 1;
        }
        self.epoch_index += 1;
        self.adaptations.push((self.epoch_index, self.pb_ways));
        self.epoch_fetches = 0;
        self.epoch_precon_hits = 0;
        self.epoch_misses = 0;
    }
}

impl TraceStore for UnifiedStore {
    fn fetch(&mut self, key: TraceKey) -> StoreFetch {
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(key);
        let mut result = StoreFetch::MISS;
        for s in self.slots[range].iter_mut().flatten() {
            if s.trace.key() == key {
                s.stamp = clock;
                let from_precon = s.region.take().is_some();
                if from_precon && self.preprocess {
                    s.trace.set_preprocess(preprocess(&s.trace));
                }
                result = StoreFetch {
                    hit: true,
                    from_precon,
                    preprocess: s.trace.preprocess_shared(),
                };
                break;
            }
        }
        if !result.hit {
            self.epoch_misses += 1;
        } else if result.from_precon {
            self.epoch_precon_hits += 1;
        }
        self.maybe_adapt();
        result
    }

    fn contains_cached(&self, key: TraceKey) -> bool {
        // Only *used* (demand) content counts as cached: a pending
        // preconstructed entry may still be replaced, so the engine
        // treats it as its own responsibility.
        let range = self.set_range(key);
        self.slots[range]
            .iter()
            .flatten()
            .any(|s| s.trace.key() == key && s.region.is_none())
    }

    fn fill_demand(&mut self, trace: Trace) {
        self.clock += 1;
        let clock = self.clock;
        let key = trace.key();
        let range = self.set_range(key);
        let tc_ways = UNIFIED_WAYS - self.pb_ways as usize;
        let slots = &mut self.slots[range];
        // One pass: refresh the same identity anywhere in the set, or
        // claim a free demand way.
        match probe_or_free(slots, 0..tc_ways, |s: &UnifiedSlot| s.trace.key() == key) {
            ProbeSlot::Match(i) | ProbeSlot::Free(i) => {
                slots[i] = Some(UnifiedSlot {
                    trace,
                    region: None,
                    stamp: clock,
                });
            }
            ProbeSlot::Evict => {
                // LRU among the demand ways.
                let victim = slots[..tc_ways]
                    .iter_mut()
                    .min_by_key(|s| s.as_ref().map(|s| s.stamp).unwrap_or(0))
                    .expect("tc_ways >= 2");
                *victim = Some(UnifiedSlot {
                    trace,
                    region: None,
                    stamp: clock,
                });
            }
        }
    }

    fn fill_precon(&mut self, trace: Trace, region: u64) -> bool {
        let Some(i) = self.claim_precon(trace.key(), region) else {
            return false;
        };
        self.slots[i] = Some(UnifiedSlot {
            trace,
            region: Some(region),
            stamp: self.clock,
        });
        self.counters.precon_fills += 1;
        true
    }

    fn file_precon(&mut self, done: &TraceBuilder, region: u64) -> Filed {
        let key = done.key();
        if self.contains_cached(key) {
            return Filed::AlreadyCached;
        }
        let Some(i) = self.claim_precon(key, region) else {
            return Filed::Rejected;
        };
        let stamp = self.clock;
        self.counters.precon_fills += 1;
        match &mut self.slots[i] {
            // Not demand content (checked above): a pending entry.
            Some(s) if s.trace.key() == key => {
                s.region = Some(region);
                s.stamp = stamp;
                Filed::Retagged
            }
            slot => {
                *slot = Some(UnifiedSlot {
                    trace: done.build(),
                    region: Some(region),
                    stamp,
                });
                Filed::NewEntry
            }
        }
    }

    fn counters(&self) -> StoreCounters {
        self.counters
    }

    fn capacity(&self) -> u32 {
        self.config.entries
    }

    fn precon_capacity(&self) -> u32 {
        self.sets * self.pb_ways as u32
    }

    fn check_invariants(&self) -> Result<(), String> {
        if self.slots.len() != self.config.entries as usize {
            return Err(format!(
                "unified store holds {} slots, configured for {}",
                self.slots.len(),
                self.config.entries
            ));
        }
        // Region tags can outlive a repartition (a pending precon
        // entry stranded in a demand way), so the pending-entry bound
        // is the total capacity, not the current precon partition.
        let pending = self
            .slots
            .iter()
            .flatten()
            .filter(|s| s.region.is_some())
            .count();
        if pending > self.config.entries as usize {
            return Err(format!(
                "{} pending preconstructed entries exceed capacity {}",
                pending, self.config.entries
            ));
        }
        if self.pb_ways as usize > UNIFIED_WAYS {
            return Err(format!("pb_ways {} exceeds associativity", self.pb_ways));
        }
        Ok(())
    }

    fn fault_invalidate_precon(&mut self, salt: u64) -> bool {
        let Some(victim) = fault_victim(&self.slots, salt, |s| s.region.is_some()) else {
            return false;
        };
        self.slots[victim] = None;
        true
    }

    fn fault_corrupt_precon(&mut self, salt: u64) -> bool {
        let Some(victim) = fault_victim(&self.slots, salt, |s| s.region.is_some()) else {
            return false;
        };
        let slot = self.slots[victim].as_mut().expect("pending index");
        let changed = slot.region != Some(0);
        slot.region = Some(0);
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Resolution;
    use tpc_isa::{Addr, Op};

    /// A completed, unbuilt one-instruction trace at `start`.
    fn completed(start: u32) -> TraceBuilder {
        let mut b = TraceBuilder::new(Addr::new(start));
        assert_eq!(b.feed(Addr::new(start), Op::Return, Resolution::None), None);
        b
    }

    fn mk_trace(start: u32) -> Trace {
        completed(start).build()
    }

    /// `file_precon` buffers a new key and counts the fill, re-tags a
    /// pending one and counts it too, drops a cached one without
    /// counting, and rejects what the replacement policy rejects.
    fn check_filing(store: &mut dyn TraceStore) {
        let key = mk_trace(0).key();
        assert_eq!(store.file_precon(&completed(0), 1), Filed::NewEntry);
        assert_eq!(store.file_precon(&completed(0), 2), Filed::Retagged);
        assert_eq!(store.counters().precon_fills, 2);
        assert!(!store.contains_cached(key));
        assert!(store.fetch(key).from_precon);
        assert!(store.contains_cached(key));
        assert_eq!(store.file_precon(&completed(0), 3), Filed::AlreadyCached);
        assert_eq!(store.counters().precon_fills, 2);
        // Fill every preconstruction entry from one region: the next
        // fill from that region is rejected.
        let mut start = 16;
        while store.file_precon(&completed(start), 5) == Filed::NewEntry {
            start += 16;
        }
        assert_eq!(store.file_precon(&completed(start), 5), Filed::Rejected);
    }

    #[test]
    fn split_files_new_cached_and_rejected_traces() {
        check_filing(&mut SplitStore::new(4, 4));
    }

    #[test]
    fn unified_files_new_cached_and_rejected_traces() {
        check_filing(&mut unified(16, 1, 0));
    }

    /// Filing a pending key from a newer region re-tags its entry: it
    /// keeps its stored instructions, counts one fill, and a fill
    /// from an intermediate region can no longer displace it.
    #[test]
    fn unified_filing_a_pending_key_retags_it() {
        // One set, ways 2 and 3 preconstruction.
        let mut s = unified(4, 2, 0);
        let stored = mk_trace(0);
        let key = stored.key();
        assert!(s.fill_precon(stored.clone(), 1));
        assert!(s.fill_precon(mk_trace(16), 9));
        assert_eq!(s.file_precon(&completed(0), 9), Filed::Retagged);
        assert_eq!(s.counters().precon_fills, 3);
        let entry = s
            .slots
            .iter()
            .flatten()
            .find(|e| e.trace.key() == key)
            .expect("still resident");
        assert_eq!(entry.region, Some(9), "re-tagged");
        assert!(entry.trace.shares_storage_with(&stored), "not rebuilt");
        assert!(
            !s.fill_precon(mk_trace(32), 7),
            "region 7 displaces nothing: both entries are region 9"
        );
        let f = s.fetch(key);
        assert!(f.hit && f.from_precon);
    }

    // ---- SplitStore -----------------------------------------------

    #[test]
    fn split_fetch_miss_then_demand_fill_hits() {
        let mut s = SplitStore::new(64, 32);
        let t = mk_trace(0);
        let key = t.key();
        assert!(!s.fetch(key).hit);
        s.fill_demand(t);
        let f = s.fetch(key);
        assert!(f.hit && !f.from_precon);
    }

    #[test]
    fn split_precon_hit_promotes_into_trace_cache() {
        let mut s = SplitStore::new(64, 32);
        let t = mk_trace(16);
        let key = t.key();
        assert!(s.fill_precon(t, 1));
        let f = s.fetch(key);
        assert!(f.hit && f.from_precon);
        // Now resident on the TC side; second fetch is a TC hit.
        let f2 = s.fetch(key);
        assert!(f2.hit && !f2.from_precon);
        assert!(s.contains_cached(key));
    }

    #[test]
    fn split_zero_pb_rejects_precon_fills() {
        let mut s = SplitStore::new(64, 0);
        assert!(!s.fill_precon(mk_trace(0), 1));
        assert_eq!(s.precon_capacity(), 0);
        assert_eq!(s.counters().precon_fills, 0);
    }

    /// A preconstructed trace fills unannotated and is annotated by
    /// its first fetch exactly when the store preprocesses at first
    /// use; later hits on the promoted copy share those annotations.
    fn check_first_use_preprocessing(store: &mut dyn TraceStore, on: bool) {
        let t = mk_trace(48);
        let key = t.key();
        assert!(store.fill_precon(t.clone(), 1));
        let first = store.fetch(key);
        assert!(first.hit && first.from_precon);
        assert_eq!(first.preprocess.is_some(), on, "first fetch");
        if let Some(info) = &first.preprocess {
            assert_eq!(**info, crate::preprocess::preprocess(&t));
        }
        for _ in 0..2 {
            let again = store.fetch(key);
            assert!(again.hit && !again.from_precon);
            match (&first.preprocess, &again.preprocess) {
                (Some(a), Some(b)) => assert!(Arc::ptr_eq(a, b), "same annotations"),
                (None, None) => {}
                other => panic!("annotations changed between hits: {other:?}"),
            }
        }
        // Demand fills are the fill unit's to annotate.
        let demand = mk_trace(64);
        let demand_key = demand.key();
        store.fill_demand(demand);
        assert!(store.fetch(demand_key).preprocess.is_none());
    }

    #[test]
    fn split_preprocesses_precon_traces_at_first_use() {
        for on in [false, true] {
            let mut s = SplitStore::new(64, 32).preprocess_at_first_use(on);
            check_first_use_preprocessing(&mut s, on);
        }
        check_first_use_preprocessing(&mut SplitStore::new(64, 32), false);
    }

    #[test]
    fn unified_preprocesses_precon_traces_at_first_use() {
        for on in [false, true] {
            let mut s = unified(64, 1, 0).preprocess_at_first_use(on);
            check_first_use_preprocessing(&mut s, on);
        }
        check_first_use_preprocessing(&mut unified(64, 1, 0), false);
    }

    // ---- UnifiedStore ---------------------------------------------

    fn unified(entries: u32, pb_ways: u8, epoch: u64) -> UnifiedStore {
        UnifiedStore::new(UnifiedConfig {
            entries,
            initial_pb_ways: pb_ways,
            epoch_fetches: epoch,
        })
    }

    #[test]
    fn unified_demand_roundtrip() {
        let mut s = unified(64, 1, 0);
        let t = mk_trace(0);
        let key = t.key();
        assert!(!s.fetch(key).hit);
        s.fill_demand(t);
        let f = s.fetch(key);
        assert!(f.hit && !f.from_precon);
    }

    #[test]
    fn unified_precon_hit_promotes_in_place() {
        let mut s = unified(64, 1, 0);
        let t = mk_trace(0);
        let key = t.key();
        assert!(s.fill_precon(t, 3));
        assert!(
            !s.contains_cached(key),
            "pending precon entries are not 'cached'"
        );
        let f = s.fetch(key);
        assert!(f.hit && f.from_precon);
        assert!(s.contains_cached(key), "promoted in place");
        let f2 = s.fetch(key);
        assert!(f2.hit && !f2.from_precon);
    }

    #[test]
    fn unified_zero_pb_ways_rejects() {
        let mut s = unified(64, 0, 0);
        assert!(!s.fill_precon(mk_trace(0), 1));
        assert_eq!(s.precon_capacity(), 0);
    }

    #[test]
    fn unified_region_priority_in_pb_ways() {
        // 4 entries = 1 set; 1 pb way. Region 5 occupies it; region 4
        // must be rejected, region 6 must displace.
        let mut s = unified(4, 1, 0);
        assert!(s.fill_precon(mk_trace(0), 5));
        assert!(!s.fill_precon(mk_trace(16), 4));
        assert!(s.fill_precon(mk_trace(32), 6));
    }

    #[test]
    fn unified_demand_fills_stay_out_of_pb_ways() {
        // 1 set, 2 pb ways → 2 demand ways. Three demand fills must
        // not evict the pending preconstructed trace.
        let mut s = unified(4, 2, 0);
        let pre = mk_trace(0);
        let pre_key = pre.key();
        assert!(s.fill_precon(pre, 1));
        for i in 1..=3 {
            s.fill_demand(mk_trace(i * 16));
        }
        assert!(
            s.fetch(pre_key).hit,
            "precon entry survived demand pressure"
        );
    }

    #[test]
    fn unified_adapts_pb_ways_up_under_useful_precon() {
        let mut s = unified(64, 1, 16);
        // Produce an epoch where precon hits dominate misses.
        for i in 0..16u32 {
            let t = mk_trace(i * 16);
            let key = t.key();
            assert!(s.fill_precon(t, i as u64 + 1));
            s.fetch(key);
        }
        assert_eq!(s.pb_ways(), 2, "controller grew the precon partition");
        assert!(!s.adaptations().is_empty());
    }

    #[test]
    fn unified_adapts_pb_ways_down_when_idle() {
        let mut s = unified(64, 1, 16);
        // An epoch of pure misses: preconstruction contributes nothing.
        for i in 0..16u32 {
            s.fetch(mk_trace(i * 16).key());
        }
        assert_eq!(s.pb_ways(), 0, "controller reclaimed the precon way");
    }

    #[test]
    fn unified_fixed_partition_with_zero_epoch() {
        let mut s = unified(64, 1, 0);
        for i in 0..100u32 {
            s.fetch(mk_trace(i * 16).key());
        }
        assert_eq!(s.pb_ways(), 1, "no adaptation when epoch = 0");
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn unified_bad_geometry_rejected() {
        let _ = unified(62, 1, 0);
    }
}
