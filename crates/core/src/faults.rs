//! Deterministic fault injection for the preconstruction subsystem.
//!
//! The paper's central safety argument is that trace preconstruction
//! is *hint* hardware: it borrows idle slow-path resources, and its
//! output can be wrong, late, or absent without ever changing
//! architectural results — only performance. This module makes that
//! claim mechanically checkable. A seeded [`FaultPlan`] perturbs
//! every preconstruction mechanism at well-defined injection points,
//! one per [`FaultKind`].
//!
//! Scheduling is a pure function of `(FaultPlan, cycle)`: each cycle
//! the [`FaultState`] draws, in fixed kind order, whether each
//! enabled kind fires, from one seeded [`XorShift64`] stream. Two
//! simulations with the same plan therefore inject the identical
//! fault schedule, whatever thread they run on — the differential
//! oracle relies on this to show that any schedule leaves the
//! retirement stream bit-identical to the fault-free run while the
//! performance counters move.

use tpc_isa::model::XorShift64;

/// Declares [`FaultKind`] from one list of `(doc, Variant, "name")`
/// entries, together with [`NUM_FAULT_KINDS`], [`FaultKind::ALL`]
/// and [`FaultKind::name`]. Discriminants follow list order, which is
/// also the scheduler's draw order: reordering the list changes every
/// fault schedule.
macro_rules! fault_kinds {
    ($($(#[doc = $doc:literal])* $variant:ident => $name:literal,)*) => {
        /// One class of injectable fault: what it perturbs, at which
        /// injection point.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum FaultKind {
            $($(#[doc = $doc])* $variant,)*
        }

        /// Number of distinct fault kinds.
        pub const NUM_FAULT_KINDS: usize = [$(FaultKind::$variant),*].len();

        impl FaultKind {
            /// Every kind, in the fixed order the scheduler draws them.
            pub const ALL: [FaultKind; NUM_FAULT_KINDS] = [$(FaultKind::$variant),*];

            /// Short stable name (reports, degradation tables).
            pub fn name(self) -> &'static str {
                match self {
                    $(FaultKind::$variant => $name,)*
                }
            }
        }
    };
}

fault_kinds! {
    /// Flip one bit of one 2-bit bimodal counter (the bias source the
    /// constructors follow).
    FlipBimodalBit => "flip-bimodal-bit",
    /// Lose an in-flight prefetch-cache line fill (the region
    /// transparently re-requests it).
    DropPrefetchFill => "drop-prefetch-fill",
    /// Add latency to an in-flight prefetch-cache line fill.
    DelayPrefetchFill => "delay-prefetch-fill",
    /// Freeze one busy trace constructor for a few cycles.
    StallConstructor => "stall-constructor",
    /// Abort one busy trace constructor's in-progress trace outright.
    KillConstructor => "kill-constructor",
    /// Drop one pending preconstruction-buffer entry before the
    /// processor can use it.
    InvalidatePreconEntry => "invalidate-precon-entry",
    /// Corrupt one pending entry's region tag (modelled as detected
    /// corruption: the entry loses its replacement priority and is
    /// displaced by any later region).
    CorruptPreconEntry => "corrupt-precon-entry",
    /// Pop and discard the region start-point stack's top entry.
    SpuriousStackPop => "spurious-stack-pop",
    /// Spuriously run the misspeculation-recovery squash, deleting the
    /// start-point stack's youngest entries.
    SpuriousStackSquash => "spurious-stack-squash",
}

impl FaultKind {
    /// The kind's bit in a [`FaultPlan::kinds`] mask.
    pub fn bit(self) -> u32 {
        1 << (self as u32)
    }
}

/// Mask enabling every fault kind.
pub const FAULTS_ALL: u32 = (1 << NUM_FAULT_KINDS as u32) - 1;

/// A seeded, deterministic fault schedule: which kinds may fire, how
/// often, and the PRNG seed that fixes exactly when and where.
///
/// The plan is plain data (`Copy`) so sweep cells can carry it in
/// their [`SimConfig`](../../tpc_processor/struct.SimConfig.html)
/// across threads; all runtime state lives in [`FaultState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// PRNG seed; together with the cycle sequence it fixes the full
    /// fault schedule.
    pub seed: u64,
    /// Bitmask of enabled [`FaultKind`]s (see [`FaultKind::bit`]).
    pub kinds: u32,
    /// Per-cycle, per-kind firing probability in 1/1000ths. `0`
    /// schedules nothing (but still draws, keeping stats comparable).
    pub per_mille: u32,
}

impl FaultPlan {
    /// A plan enabling every fault kind.
    pub fn all(seed: u64, per_mille: u32) -> Self {
        FaultPlan {
            seed,
            kinds: FAULTS_ALL,
            per_mille,
        }
    }

    /// A plan enabling a single fault kind.
    pub fn only(kind: FaultKind, seed: u64, per_mille: u32) -> Self {
        FaultPlan {
            seed,
            kinds: kind.bit(),
            per_mille,
        }
    }

    /// Whether `kind` may fire under this plan.
    pub fn enables(&self, kind: FaultKind) -> bool {
        self.kinds & kind.bit() != 0
    }
}

/// Counters kept by a [`FaultState`], per kind: every draw that
/// fired (`injected_by_kind`) and every injection that actually
/// perturbed state (`landed_by_kind` — e.g. an
/// [`FaultKind::SpuriousStackPop`] against an empty stack injects but
/// does not land). The totals are sums, not counters of their own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Per-kind injected counts, indexed by `FaultKind as usize`.
    pub injected_by_kind: [u64; NUM_FAULT_KINDS],
    /// Per-kind landed counts, indexed by `FaultKind as usize`.
    pub landed_by_kind: [u64; NUM_FAULT_KINDS],
}

impl FaultStats {
    /// Faults drawn and delivered to an injection point, all kinds.
    pub fn injected(&self) -> u64 {
        self.injected_by_kind.iter().sum()
    }

    /// Faults that perturbed live state, all kinds.
    pub fn landed(&self) -> u64 {
        self.landed_by_kind.iter().sum()
    }

    /// Visits every counter in checkpoint-word order: each per-kind
    /// array in [`FaultKind::ALL`] order. The exhaustive
    /// destructuring makes an unvisited new field a compile error.
    pub fn visit_words(&mut self, f: &mut impl FnMut(&mut u64)) {
        let FaultStats {
            injected_by_kind,
            landed_by_kind,
        } = self;
        for w in injected_by_kind.iter_mut().chain(landed_by_kind) {
            f(w);
        }
    }
}

/// One scheduled fault: the kind plus two pseudo-random operands the
/// injection point uses to pick its target (a buffer slot, a
/// constructor index, a stall length, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// What to inject.
    pub kind: FaultKind,
    /// Primary operand (target selection salt).
    pub a: u64,
    /// Secondary operand (magnitude: delay cycles, stall length, …).
    pub b: u64,
}

/// The events one [`FaultState::draw`] fired, at most one per kind,
/// in [`FaultKind::ALL`] order. Held inline, so drawing allocates
/// nothing; derefs to a slice.
#[derive(Debug, Clone, Copy)]
pub struct FaultEvents {
    events: [FaultEvent; NUM_FAULT_KINDS],
    len: usize,
}

impl std::ops::Deref for FaultEvents {
    type Target = [FaultEvent];

    fn deref(&self) -> &[FaultEvent] {
        &self.events[..self.len]
    }
}

impl PartialEq for FaultEvents {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for FaultEvents {}

impl IntoIterator for FaultEvents {
    type Item = FaultEvent;
    type IntoIter = std::iter::Take<std::array::IntoIter<FaultEvent, NUM_FAULT_KINDS>>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter().take(self.len)
    }
}

/// Runtime state of a fault plan inside one simulator instance: the
/// seeded PRNG plus the injected/landed counters.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    rng: XorShift64,
    stats: FaultStats,
}

impl FaultState {
    /// Creates the runtime state for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            rng: XorShift64::new(plan.seed ^ 0xFA01_7F1A_11CE_C7ED),
            stats: FaultStats::default(),
        }
    }

    /// The plan in effect.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Draws this cycle's fault schedule: for each enabled kind, in
    /// [`FaultKind::ALL`] order, fire with probability
    /// `per_mille/1000` and attach two operand words. The stream
    /// consumed is a pure function of the plan and the number of
    /// prior draws, so the schedule is identical across runs and
    /// thread counts.
    pub fn draw(&mut self) -> FaultEvents {
        let mut events = FaultEvents {
            events: [FaultEvent {
                kind: FaultKind::ALL[0],
                a: 0,
                b: 0,
            }; NUM_FAULT_KINDS],
            len: 0,
        };
        if self.plan.per_mille == 0 || self.plan.kinds == 0 {
            return events;
        }
        for kind in FaultKind::ALL {
            if !self.plan.enables(kind) {
                continue;
            }
            if self.rng.chance(self.plan.per_mille.min(1000), 1000) {
                events.events[events.len] = FaultEvent {
                    kind,
                    a: self.rng.next_u64(),
                    b: self.rng.next_u64(),
                };
                events.len += 1;
            }
        }
        events
    }

    /// Records the outcome of one injected event.
    pub fn note(&mut self, kind: FaultKind, landed: bool) {
        self.stats.injected_by_kind[kind as usize] += 1;
        if landed {
            self.stats.landed_by_kind[kind as usize] += 1;
        }
    }
}

/// A fault targeting the preconstruction engine, pre-resolved from a
/// [`FaultEvent`] by the simulator (which owns the bimodal and the
/// trace store; everything else lives in the engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineFault {
    /// Lose one region's in-flight line fetch.
    DropPrefetchFill {
        /// Target selection salt.
        salt: u64,
    },
    /// Add `extra` cycles to one region's in-flight line fetch.
    DelayPrefetchFill {
        /// Target selection salt.
        salt: u64,
        /// Additional latency in cycles.
        extra: u64,
    },
    /// Freeze one busy constructor for `cycles` cycles.
    StallConstructor {
        /// Target selection salt.
        salt: u64,
        /// Stall length in cycles.
        cycles: u32,
    },
    /// Abort one busy constructor's in-progress trace.
    KillConstructor {
        /// Target selection salt.
        salt: u64,
    },
    /// Pop and discard the start stack's newest entry.
    PopStartPoint,
    /// Squash the start stack down to a pseudo-random depth.
    SquashStartStack {
        /// Target depth selection salt.
        salt: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::all(42, 100);
        let mut a = FaultState::new(plan);
        let mut b = FaultState::new(plan);
        for _ in 0..2_000 {
            assert_eq!(a.draw(), b.draw());
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultState::new(FaultPlan::all(1, 200));
        let mut b = FaultState::new(FaultPlan::all(2, 200));
        let fired_a: usize = (0..500).map(|_| a.draw().len()).sum();
        let fired_b: usize = (0..500).map(|_| b.draw().len()).sum();
        assert!(fired_a > 0 && fired_b > 0);
        // Schedules are different streams (astronomically unlikely to
        // coincide over 500 cycles × 9 kinds).
        let mut a = FaultState::new(FaultPlan::all(1, 200));
        let mut b = FaultState::new(FaultPlan::all(2, 200));
        let mut same = true;
        for _ in 0..500 {
            if a.draw() != b.draw() {
                same = false;
            }
        }
        assert!(!same);
    }

    #[test]
    fn zero_per_mille_is_silent() {
        let mut s = FaultState::new(FaultPlan::all(7, 0));
        for _ in 0..1_000 {
            assert!(s.draw().is_empty());
        }
        assert_eq!(s.stats().injected(), 0);
    }

    #[test]
    fn kind_mask_filters_kinds() {
        let mut s = FaultState::new(FaultPlan::only(FaultKind::FlipBimodalBit, 3, 1000));
        for _ in 0..100 {
            for ev in s.draw() {
                assert_eq!(ev.kind, FaultKind::FlipBimodalBit);
            }
        }
    }

    #[test]
    fn per_mille_1000_fires_every_enabled_kind_every_cycle() {
        let mut s = FaultState::new(FaultPlan::all(9, 1000));
        let events = s.draw();
        assert_eq!(events.len(), NUM_FAULT_KINDS);
        let kinds: Vec<FaultKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, FaultKind::ALL.to_vec());
    }

    #[test]
    fn note_tracks_landed_separately() {
        let mut s = FaultState::new(FaultPlan::all(1, 10));
        s.note(FaultKind::SpuriousStackPop, false);
        s.note(FaultKind::FlipBimodalBit, true);
        assert_eq!(s.stats().injected(), 2);
        assert_eq!(s.stats().landed(), 1);
        assert_eq!(
            s.stats().landed_by_kind[FaultKind::FlipBimodalBit as usize],
            1
        );
        assert_eq!(
            s.stats().injected_by_kind[FaultKind::SpuriousStackPop as usize],
            1
        );
    }

    #[test]
    fn fault_kind_bits_are_distinct() {
        let mut seen = 0u32;
        for kind in FaultKind::ALL {
            assert_eq!(seen & kind.bit(), 0);
            seen |= kind.bit();
        }
        assert_eq!(seen, FAULTS_ALL);
    }

    /// Pins `FaultKind` ↔ `FaultStats` exhaustiveness at runtime.
    /// `fault_kinds!` derives `NUM_FAULT_KINDS`, `ALL` and `name()`
    /// from one list, so this checks what the macro promises: every
    /// variant has a distinct slot in both per-kind counter arrays,
    /// `ALL` enumerates each variant exactly once in discriminant
    /// order, names are unique, and `note` lands each kind in its own
    /// counters with no cross-talk.
    #[test]
    fn fault_kind_and_fault_stats_are_exhaustive() {
        assert_eq!(FaultKind::ALL.len(), NUM_FAULT_KINDS);
        for (i, kind) in FaultKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i, "ALL must be in discriminant order");
        }
        let stats = FaultStats::default();
        assert_eq!(stats.injected_by_kind.len(), NUM_FAULT_KINDS);
        assert_eq!(stats.landed_by_kind.len(), NUM_FAULT_KINDS);
        let mut names: Vec<&str> = FaultKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_FAULT_KINDS, "names must be unique");
        // `note` for one kind must touch exactly that kind's slots.
        let mut s = FaultState::new(FaultPlan::all(7, 0));
        for kind in FaultKind::ALL {
            s.note(kind, true);
        }
        for kind in FaultKind::ALL {
            assert_eq!(s.stats().injected_by_kind[kind as usize], 1);
            assert_eq!(s.stats().landed_by_kind[kind as usize], 1);
        }
        assert_eq!(s.stats().injected(), NUM_FAULT_KINDS as u64);
        assert_eq!(s.stats().landed(), NUM_FAULT_KINDS as u64);
    }
}
