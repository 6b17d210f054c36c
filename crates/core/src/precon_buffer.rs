//! Preconstruction buffers (paper Section 3.1).

use crate::slots::{fault_victim, probe_or_free, ProbeSlot};
use crate::storage::Filed;
use crate::trace::{Trace, TraceBuilder};
use tpc_predict::TraceKey;

#[derive(Debug, Clone)]
struct Slot {
    trace: Trace,
    region: u64,
}

/// The preconstruction buffers: a 2-way set-associative structure
/// indexed like the trace cache, holding preconstructed traces until
/// they are used or displaced.
///
/// Replacement follows the paper's region-priority policy: regions
/// are identified by a monotonically increasing id (newer = higher
/// priority, and active regions are by construction the newest), and
///
/// * a fill may only displace a trace from an *older* region;
/// * a fill never displaces a trace from its own region — buffer
///   availability is what bounds preconstruction within a region.
///
/// A successful probe *removes* the trace: the caller copies it into
/// the trace cache and the buffer entry is invalidated, avoiding
/// redundancy between the two structures.
///
/// A capacity of 0 is legal and models the no-preconstruction
/// baseline: every probe misses, every fill is rejected.
#[derive(Debug, Clone)]
pub struct PreconBuffers {
    ways: u32,
    set_mask: u64,
    slots: Vec<Option<Slot>>,
}

impl PreconBuffers {
    /// Creates buffers with `entries` total entries, 2-way
    /// set-associative. `entries == 0` creates disabled buffers.
    ///
    /// # Panics
    ///
    /// Panics if a non-zero `entries` is not an even power of two.
    pub fn new(entries: u32) -> Self {
        Self::with_ways(entries, 2)
    }

    /// Creates buffers with explicit associativity.
    ///
    /// # Panics
    ///
    /// Panics if a non-zero `entries` does not divide evenly into
    /// power-of-two sets.
    pub fn with_ways(entries: u32, ways: u32) -> Self {
        if entries == 0 {
            return PreconBuffers {
                ways: 0,
                set_mask: 0,
                slots: Vec::new(),
            };
        }
        assert!(
            ways > 0 && entries.is_multiple_of(ways),
            "entries must divide by ways"
        );
        let sets = entries / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        PreconBuffers {
            ways,
            set_mask: sets as u64 - 1,
            slots: vec![None; entries as usize],
        }
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Whether the buffers are disabled (capacity 0).
    pub fn is_disabled(&self) -> bool {
        self.slots.is_empty()
    }

    fn set_range(&self, key: TraceKey) -> std::ops::Range<usize> {
        let set = (key.hash64() & self.set_mask) as usize;
        let start = set * self.ways as usize;
        start..start + self.ways as usize
    }

    /// Probes for a trace; on a hit the trace is *removed* and
    /// returned (the caller installs it in the trace cache).
    pub fn take(&mut self, key: TraceKey) -> Option<Trace> {
        if self.is_disabled() {
            return None;
        }
        let range = self.set_range(key);
        self.slots[range]
            .iter_mut()
            .find(|slot| slot.as_ref().is_some_and(|s| s.trace.key() == key))?
            .take()
            .map(|s| s.trace)
    }

    /// Whether a trace with this identity is resident.
    pub fn contains(&self, key: TraceKey) -> bool {
        if self.is_disabled() {
            return false;
        }
        let range = self.set_range(key);
        self.slots[range]
            .iter()
            .any(|s| s.as_ref().is_some_and(|s| s.trace.key() == key))
    }

    /// Inserts a preconstructed trace tagged with its region,
    /// replacing an entry that already holds its key.
    ///
    /// Returns `true` if the trace was stored. `false` means the
    /// region-priority policy rejected it (its set holds only
    /// same-or-newer-region traces) — the signal that bounds
    /// preconstruction within a region.
    pub fn fill(&mut self, trace: Trace, region: u64) -> bool {
        let Some(i) = self.claim(trace.key(), region) else {
            return false;
        };
        self.slots[i] = Some(Slot { trace, region });
        debug_assert!(self.check_invariants().is_ok());
        true
    }

    /// Files the trace `done` completed, tagged with `region`: the
    /// same placement as [`PreconBuffers::fill`], but an entry that
    /// already holds the key is only re-tagged and keeps its stored
    /// instructions, and the trace is built only for a new entry.
    /// Returns [`Filed::NewEntry`], [`Filed::Retagged`] or
    /// [`Filed::Rejected`].
    ///
    /// # Panics
    ///
    /// Panics if `done` holds no completed trace and would be built.
    pub(crate) fn file(&mut self, done: &TraceBuilder, region: u64) -> Filed {
        let key = done.key();
        let Some(i) = self.claim(key, region) else {
            return Filed::Rejected;
        };
        let filed = match &mut self.slots[i] {
            Some(s) if s.trace.key() == key => {
                s.region = region;
                Filed::Retagged
            }
            slot => {
                *slot = Some(Slot {
                    trace: done.build(),
                    region,
                });
                Filed::NewEntry
            }
        };
        debug_assert!(self.check_invariants().is_ok());
        filed
    }

    /// The slot a fill of `key` from `region` lands in: an entry that
    /// already holds the key, else a free way, else the
    /// oldest-region victim if it is strictly older than `region`;
    /// `None` when the fill is rejected.
    fn claim(&self, key: TraceKey, region: u64) -> Option<usize> {
        if self.is_disabled() {
            return None;
        }
        let range = self.set_range(key);
        let base = range.start;
        let set = &self.slots[range];
        let way = match probe_or_free(set, 0..set.len(), |s: &Slot| s.trace.key() == key) {
            ProbeSlot::Match(i) | ProbeSlot::Free(i) => i,
            ProbeSlot::Evict => {
                let (i, victim_region) = set
                    .iter()
                    .map(|s| s.as_ref().map_or(0, |s| s.region))
                    .enumerate()
                    .min_by_key(|&(_, r)| r)
                    .expect("ways > 0");
                if victim_region >= region {
                    return None;
                }
                i
            }
        };
        Some(base + way)
    }

    /// Number of resident traces.
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Fault-injection hook: invalidates one resident entry, chosen
    /// by `salt` over the occupied slots. Returns whether an entry
    /// was dropped (`false` on empty or disabled buffers).
    ///
    /// A preconstructed trace is a hint; losing one costs at most a
    /// future slow-path build.
    pub fn fault_invalidate_one(&mut self, salt: u64) -> bool {
        let Some(victim) = fault_victim(&self.slots, salt, |_| true) else {
            return false;
        };
        self.slots[victim] = None;
        debug_assert!(self.check_invariants().is_ok());
        true
    }

    /// Fault-injection hook: corrupts one resident entry's region
    /// tag, zeroing it (detected corruption loses the entry its
    /// region-priority protection, so any later region displaces it).
    /// Returns whether a tag actually changed.
    pub fn fault_corrupt_region_tag(&mut self, salt: u64) -> bool {
        let Some(victim) = fault_victim(&self.slots, salt, |_| true) else {
            return false;
        };
        let slot = self.slots[victim].as_mut().expect("occupied index");
        let changed = slot.region != 0;
        slot.region = 0;
        debug_assert!(self.check_invariants().is_ok());
        changed
    }

    /// Iterates over the resident traces and their region tags
    /// (diagnostics and trace-dump tooling).
    pub fn iter(&self) -> impl Iterator<Item = (&Trace, u64)> {
        self.slots.iter().flatten().map(|s| (&s.trace, s.region))
    }

    /// Checks the buffers' structural invariants: occupancy never
    /// exceeds capacity, and every resident trace sits in the set its
    /// key hashes to. Called by the differential oracle and by debug
    /// assertions after every mutation.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.occupancy() > self.capacity() as usize {
            return Err(format!(
                "precon buffer occupancy {} exceeds capacity {}",
                self.occupancy(),
                self.capacity()
            ));
        }
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(s) = slot {
                let range = self.set_range(s.trace.key());
                if !range.contains(&i) {
                    return Err(format!(
                        "trace {:?} resident in slot {i} outside its set {range:?}",
                        s.trace.key()
                    ));
                }
            }
        }
        Ok(())
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

    #[test]
    fn take_removes_the_trace() {
        let mut pb = PreconBuffers::new(32);
        let t = mk_trace(0);
        let key = t.key();
        assert!(pb.fill(t, 1));
        assert!(pb.take(key).is_some());
        assert!(
            pb.take(key).is_none(),
            "second take misses: entry invalidated"
        );
        assert_eq!(pb.occupancy(), 0);
    }

    #[test]
    fn taken_trace_shares_storage_and_leaves_buffer_invalidated() {
        // Zero-copy handoff: a hit hands back a refcount bump on the
        // filled trace's instruction storage, and the buffer slot is
        // gone — no clone of the instructions ever happens.
        let mut pb = PreconBuffers::new(32);
        let t = mk_trace(0);
        let key = t.key();
        let shadow = t.clone();
        assert!(pb.fill(t, 1));
        let taken = pb.take(key).expect("hit");
        assert!(
            taken.shares_storage_with(&shadow),
            "take must return the same Arc-backed storage, not a copy"
        );
        assert!(!pb.contains(key), "slot invalidated by the take");
        assert_eq!(pb.occupancy(), 0);
    }

    #[test]
    fn same_region_never_displaces_itself() {
        // 2 entries → 1 set × 2 ways: the third same-region fill must
        // be rejected (this is the per-region resource bound).
        let mut pb = PreconBuffers::with_ways(2, 2);
        assert!(pb.fill(mk_trace(0), 5));
        assert!(pb.fill(mk_trace(16), 5));
        assert!(!pb.fill(mk_trace(32), 5));
        assert!(
            !pb.contains(mk_trace(32).key()),
            "the rejected fill is absent"
        );
        assert!(pb.contains(mk_trace(0).key()) && pb.contains(mk_trace(16).key()));
    }

    #[test]
    fn newer_region_displaces_older() {
        let mut pb = PreconBuffers::with_ways(2, 2);
        pb.fill(mk_trace(0), 1);
        pb.fill(mk_trace(16), 2);
        assert!(pb.fill(mk_trace(32), 3), "region 3 displaces region 1");
        assert_eq!(pb.occupancy(), 2);
        assert!(pb.contains(mk_trace(16).key()) && pb.contains(mk_trace(32).key()));
        assert!(
            !pb.contains(mk_trace(0).key()),
            "oldest region's trace gone"
        );
    }

    #[test]
    fn older_region_cannot_displace_newer() {
        let mut pb = PreconBuffers::with_ways(2, 2);
        pb.fill(mk_trace(0), 7);
        pb.fill(mk_trace(16), 8);
        assert!(!pb.fill(mk_trace(32), 6));
    }

    #[test]
    fn refill_same_identity_updates_region() {
        let mut pb = PreconBuffers::with_ways(2, 2);
        pb.fill(mk_trace(0), 1);
        pb.fill(mk_trace(0), 9); // refresh with newer region tag
        pb.fill(mk_trace(16), 5);
        // Victim selection must now treat the refreshed entry as region 9.
        assert!(
            !pb.fill(mk_trace(32), 5),
            "no entry older than region 5 remains"
        );
    }

    /// Filing a resident key from a newer region re-tags the entry in
    /// place: it keeps its stored instructions, and a fill from an
    /// intermediate region can no longer displace it.
    #[test]
    fn filing_a_resident_key_retags_it() {
        let mut pb = PreconBuffers::with_ways(2, 2);
        let stored = mk_trace(0);
        assert!(pb.fill(stored.clone(), 1));
        assert!(pb.fill(mk_trace(16), 9));
        assert_eq!(pb.file(&completed(0), 9), Filed::Retagged);
        let (resident, region) = pb
            .iter()
            .find(|(t, _)| t.key() == stored.key())
            .expect("still resident");
        assert_eq!(region, 9, "re-tagged");
        assert!(resident.shares_storage_with(&stored), "not rebuilt");
        assert!(
            !pb.fill(mk_trace(32), 7),
            "region 7 displaces nothing: both entries are region 9"
        );
        assert!(pb.contains(stored.key()));
        // Filing a new key builds it into a free way.
        let mut pb = PreconBuffers::with_ways(2, 2);
        assert_eq!(pb.file(&completed(48), 3), Filed::NewEntry);
        assert_eq!(
            pb.iter().next().map(|(t, r)| (t.start().word(), r)),
            Some((48, 3))
        );
    }

    #[test]
    fn disabled_buffers_reject_everything() {
        let mut pb = PreconBuffers::new(0);
        assert!(pb.is_disabled());
        assert!(!pb.fill(mk_trace(0), 1));
        assert_eq!(pb.file(&completed(0), 1), Filed::Rejected);
        assert!(pb.take(mk_trace(0).key()).is_none());
        assert_eq!(pb.capacity(), 0);
    }

    /// Pins the full region-priority story across a region sequence:
    /// the active (newest) region's traces always win against past
    /// regions, never against each other, and a hit invalidates the
    /// buffer entry after the trace is copied out — so the same
    /// identity can be refilled by a later region.
    #[test]
    fn active_region_wins_against_past_only() {
        let mut pb = PreconBuffers::with_ways(2, 2); // 1 set × 2 ways
                                                     // Region 1 preconstructs two traces, filling the set.
        assert!(pb.fill(mk_trace(0), 1));
        assert!(pb.fill(mk_trace(16), 1));
        // Region 2 becomes active: its first fill displaces a region-1
        // trace, its second displaces the other, its third is rejected
        // (only same-region traces remain — active never evicts active).
        assert!(pb.fill(mk_trace(32), 2));
        assert!(pb.fill(mk_trace(48), 2));
        assert!(!pb.fill(mk_trace(64), 2));
        let resident: Vec<u32> = pb.iter().map(|(t, _)| t.start().word()).collect();
        assert_eq!(resident.len(), 2);
        assert!(
            resident.contains(&32) && resident.contains(&48),
            "{resident:?}"
        );
        // A hit frees the way (invalidate-after-copy) and the freed
        // way is immediately fillable by the same region.
        assert!(pb.take(mk_trace(32).key()).is_some());
        assert_eq!(pb.occupancy(), 1);
        assert!(pb.fill(mk_trace(64), 2), "freed way accepts a new fill");
        pb.check_invariants().unwrap();
    }

    /// Occupancy stays within capacity and every structural invariant
    /// holds under a randomized fill/take/contains stress mix.
    #[test]
    fn stress_mix_preserves_invariants() {
        use tpc_isa::model::XorShift64;
        let mut pb = PreconBuffers::new(8); // 4 sets × 2 ways
        let mut rng = XorShift64::new(99);
        let (mut fills, mut hits) = (0, 0);
        for step in 0..2_000u64 {
            let start = rng.next_below(64) * 4;
            let region = step / 50; // advancing region ids
            match rng.next_below(3) {
                0 => fills += u32::from(pb.fill(mk_trace(start), region)),
                1 => hits += u32::from(pb.take(mk_trace(start).key()).is_some()),
                _ => {
                    pb.contains(mk_trace(start).key());
                }
            }
            assert!(pb.occupancy() <= pb.capacity() as usize);
            pb.check_invariants()
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
        }
        assert!(fills > 0 && hits > 0, "{fills} fills, {hits} hits");
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut pb = PreconBuffers::new(32); // 16 sets
        let mut stored = 0;
        for i in 0..16 {
            if pb.fill(mk_trace(i * 4), 1) {
                stored += 1;
            }
        }
        assert!(
            stored >= 12,
            "hashing spreads traces across sets: {stored}/16"
        );
    }
}
