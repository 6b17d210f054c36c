//! The region start-point stack (paper Section 3.2).

use std::collections::VecDeque;
use tpc_isa::Addr;

/// Which program construct produced a region start point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartReason {
    /// The return point following a procedure call: execution will
    /// arrive there when the callee returns.
    CallReturn,
    /// The fall-through of a loop's backward branch: execution will
    /// arrive there when the loop exits.
    LoopExit,
}

/// A potential preconstruction region start point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartPoint {
    /// First instruction of the future region.
    pub addr: Addr,
    /// The construct that predicted it.
    pub reason: StartReason,
    /// Dispatch sequence number of the observing instruction — used
    /// to prune start points planted by squashed (wrong-path)
    /// instructions.
    pub seq: u64,
}

/// The small hardware stack of region start points.
///
/// Start points are pushed as calls and backward branches pass
/// dispatch (newest on top); the preconstruction engine pops from the
/// top, so regions likely to be reached soonest (innermost
/// loops/calls) are preconstructed first. When full, the *oldest*
/// entry is discarded. A few extra entries remember recently
/// completed regions so their start points are not re-pushed
/// (avoiding redundant preconstruction).
///
/// ```
/// use tpc_core::{StartPointStack, StartReason};
/// use tpc_isa::Addr;
///
/// let mut s = StartPointStack::new(16, 4);
/// s.push(Addr::new(100), StartReason::CallReturn, 1);
/// s.push(Addr::new(200), StartReason::LoopExit, 2);
/// assert_eq!(s.pop().unwrap().addr, Addr::new(200)); // newest first
/// ```
#[derive(Debug, Clone)]
pub struct StartPointStack {
    entries: Vec<StartPoint>,
    depth: usize,
    completed: VecDeque<Addr>,
    completed_cap: usize,
    pushes: u64,
    dropped_oldest: u64,
    deduped: u64,
}

impl StartPointStack {
    /// Creates a stack with `depth` live entries and `completed_cap`
    /// reserved completed-region entries (the paper uses 16 and 4).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize, completed_cap: usize) -> Self {
        assert!(depth > 0, "stack depth must be positive");
        StartPointStack {
            entries: Vec::with_capacity(depth),
            depth,
            completed: VecDeque::with_capacity(completed_cap),
            completed_cap,
            pushes: 0,
            dropped_oldest: 0,
            deduped: 0,
        }
    }

    /// Creates the paper's 16 + 4 configuration.
    pub fn paper_default() -> Self {
        Self::new(16, 4)
    }

    /// Offers a new start point observed at dispatch.
    ///
    /// The push is suppressed when the address is already on the
    /// stack (the paper deduplicates against the top; deduplicating
    /// against all 16 entries is the same hardware scan) or belongs
    /// to a recently completed region. When the stack is full the
    /// oldest entry is discarded.
    pub fn push(&mut self, addr: Addr, reason: StartReason, seq: u64) {
        if self.entries.iter().any(|e| e.addr == addr) || self.is_completed(addr) {
            self.deduped += 1;
            return;
        }
        if self.entries.len() == self.depth {
            self.entries.remove(0);
            self.dropped_oldest += 1;
        }
        self.entries.push(StartPoint { addr, reason, seq });
        self.pushes += 1;
        debug_assert!(self.check_invariants().is_ok());
    }

    /// Takes the highest-priority (newest) start point.
    pub fn pop(&mut self) -> Option<StartPoint> {
        self.entries.pop()
    }

    /// The highest-priority start point, without removing it.
    pub fn peek(&self) -> Option<&StartPoint> {
        self.entries.last()
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no start points are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes start points whose region execution has reached
    /// (called with each retired instruction address).
    pub fn on_retire(&mut self, pc: Addr) {
        // Addresses are unique on the stack, so at most one matches.
        if let Some(i) = self.entries.iter().position(|e| e.addr == pc) {
            self.entries.remove(i);
        }
    }

    /// Removes start points planted by instructions younger than
    /// `seq` (called on misprediction recovery: those dispatches were
    /// wrong-path).
    pub fn squash_younger_than(&mut self, seq: u64) {
        self.entries.retain(|e| e.seq <= seq);
    }

    /// Fault-injection hook: spuriously runs the misspeculation
    /// squash, keeping only the `keep` oldest entries (equivalent to
    /// [`StartPointStack::squash_younger_than`] with the seq of the
    /// `keep`-th entry). Returns the number of entries discarded.
    ///
    /// Losing start points can only suppress preconstruction work —
    /// the stack feeds hint hardware, so a spurious squash moves
    /// performance counters but never architectural state.
    pub fn squash_to_depth(&mut self, keep: usize) -> usize {
        let removed = self.entries.len().saturating_sub(keep);
        self.entries.truncate(keep);
        removed
    }

    /// Records that preconstruction for the region at `addr`
    /// completed; subsequent pushes of `addr` are suppressed until
    /// the entry ages out of the completed list.
    pub fn mark_completed(&mut self, addr: Addr) {
        if self.completed_cap == 0 {
            return;
        }
        if self.completed.contains(&addr) {
            return;
        }
        if self.completed.len() == self.completed_cap {
            self.completed.pop_front();
        }
        self.completed.push_back(addr);
    }

    /// Whether `addr` is in the completed-region list.
    pub fn is_completed(&self, addr: Addr) -> bool {
        self.completed.contains(&addr)
    }

    /// (pushes accepted, pushes deduplicated, oldest entries dropped).
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.pushes, self.deduped, self.dropped_oldest)
    }

    /// Current completed-region entry count.
    pub fn completed_len(&self) -> usize {
        self.completed.len()
    }

    /// Checks the stack's structural invariants: live entries within
    /// `depth`, completed entries within `completed_cap`, and no
    /// duplicate addresses. Called by the differential oracle and by
    /// debug assertions after every push.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.entries.len() > self.depth {
            return Err(format!(
                "start stack holds {} entries, depth is {}",
                self.entries.len(),
                self.depth
            ));
        }
        if self.completed.len() > self.completed_cap {
            return Err(format!(
                "completed list holds {} entries, capacity is {}",
                self.completed.len(),
                self.completed_cap
            ));
        }
        for (i, e) in self.entries.iter().enumerate() {
            if self.entries[..i].iter().any(|p| p.addr == e.addr) {
                return Err(format!("duplicate start point {:?}", e.addr));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s() -> StartPointStack {
        StartPointStack::new(4, 2)
    }

    #[test]
    fn newest_first_priority() {
        let mut st = s();
        st.push(Addr::new(1), StartReason::CallReturn, 1);
        st.push(Addr::new(2), StartReason::LoopExit, 2);
        assert_eq!(st.pop().unwrap().addr, Addr::new(2));
        assert_eq!(st.pop().unwrap().addr, Addr::new(1));
        assert!(st.pop().is_none());
    }

    #[test]
    fn duplicate_pushes_suppressed() {
        let mut st = s();
        st.push(Addr::new(5), StartReason::LoopExit, 1);
        st.push(Addr::new(5), StartReason::LoopExit, 2);
        assert_eq!(st.len(), 1);
        let (pushes, deduped, _) = st.counters();
        assert_eq!((pushes, deduped), (1, 1));
    }

    #[test]
    fn overflow_discards_oldest() {
        let mut st = s(); // depth 4
        for i in 1..=5 {
            st.push(Addr::new(i), StartReason::CallReturn, i as u64);
        }
        assert_eq!(st.len(), 4);
        // Address 1 (oldest) was discarded.
        let addrs: Vec<u32> = std::iter::from_fn(|| st.pop())
            .map(|e| e.addr.word())
            .collect();
        assert_eq!(addrs, vec![5, 4, 3, 2]);
    }

    #[test]
    fn retirement_removes_reached_regions() {
        let mut st = s();
        st.push(Addr::new(10), StartReason::CallReturn, 1);
        st.push(Addr::new(20), StartReason::LoopExit, 2);
        st.on_retire(Addr::new(10));
        assert_eq!(st.len(), 1);
        assert_eq!(st.peek().unwrap().addr, Addr::new(20));
    }

    #[test]
    fn squash_removes_wrong_path_entries() {
        let mut st = s();
        st.push(Addr::new(10), StartReason::CallReturn, 5);
        st.push(Addr::new(20), StartReason::LoopExit, 9);
        st.squash_younger_than(5);
        assert_eq!(st.len(), 1);
        assert_eq!(st.peek().unwrap().addr, Addr::new(10));
    }

    #[test]
    fn completed_regions_not_repushed() {
        let mut st = s();
        st.mark_completed(Addr::new(7));
        st.push(Addr::new(7), StartReason::LoopExit, 1);
        assert!(st.is_empty());
    }

    #[test]
    fn completed_list_ages_out() {
        let mut st = s(); // completed_cap = 2
        st.mark_completed(Addr::new(1));
        st.mark_completed(Addr::new(2));
        st.mark_completed(Addr::new(3)); // evicts 1
        assert!(!st.is_completed(Addr::new(1)));
        st.push(Addr::new(1), StartReason::CallReturn, 1);
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn paper_default_dimensions() {
        let mut st = StartPointStack::paper_default();
        for i in 0..20 {
            st.push(Addr::new(i), StartReason::CallReturn, i as u64);
        }
        assert_eq!(st.len(), 16);
    }

    /// Pins the paper's exact 16 + 4 shape: sixteen live entries,
    /// four completed-region entries, and both bounds are hard — the
    /// seventeenth live push drops the oldest, the fifth completed
    /// region ages out the first.
    #[test]
    fn paper_default_is_sixteen_plus_four() {
        let mut st = StartPointStack::paper_default();
        for i in 0..17 {
            st.push(Addr::new(i), StartReason::LoopExit, i as u64);
        }
        assert_eq!(st.len(), 16);
        let (_, _, dropped) = st.counters();
        assert_eq!(dropped, 1);
        // Newest-first across the whole live window; the oldest
        // (addr 0) is the one that was discarded.
        assert_eq!(st.peek().unwrap().addr, Addr::new(16));
        for i in 100..105 {
            st.mark_completed(Addr::new(i));
        }
        assert_eq!(st.completed_len(), 4);
        assert!(!st.is_completed(Addr::new(100))); // aged out FIFO
        assert!(st.is_completed(Addr::new(104)));
        st.check_invariants().unwrap();
    }

    /// Pins pop-on-misspeculation: recovery removes exactly the
    /// entries planted by wrong-path (younger) dispatches and keeps
    /// newest-first order among the survivors.
    #[test]
    fn misspeculation_squash_preserves_survivor_order() {
        let mut st = StartPointStack::paper_default();
        st.push(Addr::new(1), StartReason::CallReturn, 10);
        st.push(Addr::new(2), StartReason::LoopExit, 20);
        st.push(Addr::new(3), StartReason::CallReturn, 30); // wrong path
        st.push(Addr::new(4), StartReason::LoopExit, 40); // wrong path
        st.squash_younger_than(20);
        assert_eq!(st.len(), 2);
        assert_eq!(st.pop().unwrap().addr, Addr::new(2));
        assert_eq!(st.pop().unwrap().addr, Addr::new(1));
        // A squashed address may legitimately be re-pushed later by a
        // correct-path dispatch.
        st.push(Addr::new(3), StartReason::CallReturn, 50);
        assert_eq!(st.peek().unwrap().addr, Addr::new(3));
    }
}
