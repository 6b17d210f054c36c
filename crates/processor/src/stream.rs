//! The correct-path dynamic trace stream.

use std::ops::{Deref, DerefMut};
use tpc_core::{Resolution, Trace, TraceBuilder, MAX_TRACE_LEN};
use tpc_exec::{Executor, Frontend};
use tpc_isa::{OpClass, Program};
use tpc_predict::TraceKey;

/// A fixed-capacity inline vector of per-instruction values of one
/// trace, bounded by [`MAX_TRACE_LEN`]: the per-trace metadata
/// travels with no heap allocation. Reads go through `Deref` to a
/// slice.
#[derive(Clone, Copy)]
pub struct TraceVec<T> {
    items: [T; MAX_TRACE_LEN],
    len: u8,
}

impl<T: Copy + Default> TraceVec<T> {
    /// An empty vector.
    pub fn new() -> Self {
        TraceVec {
            items: [T::default(); MAX_TRACE_LEN],
            len: 0,
        }
    }

    /// Appends `value`.
    ///
    /// # Panics
    ///
    /// Panics past [`MAX_TRACE_LEN`] values.
    pub fn push(&mut self, value: T) {
        self.items[usize::from(self.len)] = value;
        self.len += 1;
    }
}

impl<T: Copy + Default> Default for TraceVec<T> {
    fn default() -> Self {
        TraceVec::new()
    }
}

impl<T> Deref for TraceVec<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..usize::from(self.len)]
    }
}

impl<T> DerefMut for TraceVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..usize::from(self.len)]
    }
}

impl<'a, T> IntoIterator for &'a TraceVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy + Default> FromIterator<T> for TraceVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = TraceVec::new();
        for x in iter {
            v.push(x);
        }
        v
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for TraceVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One dynamic trace instance: the trace (as the caches would store
/// it) plus per-instruction dynamic metadata the timing model needs.
#[derive(Debug, Clone)]
pub struct DynTrace {
    /// The trace.
    pub trace: Trace,
    /// Effective byte address of each load/store (`None` otherwise),
    /// parallel to `trace.instrs()`.
    pub mem_addrs: TraceVec<Option<u64>>,
    /// Resolved direction of each *conditional branch*, in trace
    /// order (parallel to the trace key's outcome bits).
    pub branch_outcomes: TraceVec<bool>,
}

impl DynTrace {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether the trace instance is empty (never for built traces).
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }
}

/// Slots in a [`TraceStream`]'s table of built traces. A trace's
/// slot is its key's [`TraceKey::hash64`] modulo this.
pub const TRACE_TABLE_SLOTS: usize = 256;

/// The slot of `key` in a [`TraceStream`]'s table of built traces.
pub fn trace_table_slot(key: TraceKey) -> usize {
    (key.hash64() % TRACE_TABLE_SLOTS as u64) as usize // narrow: < 256
}

/// Chunks a [`Frontend`]'s retired instruction stream into traces
/// using the shared selection rules, yielding exactly the sequence of
/// traces the processor fetches on the correct path.
///
/// The stream builds each distinct trace once while it stays in a
/// direct-mapped table of [`TRACE_TABLE_SLOTS`] traces: a completed
/// trace whose key is in its slot is handed out as a new instance of
/// the stored trace, sharing its instructions and carrying its own
/// successor, so only a table miss allocates.
#[derive(Debug)]
pub struct TraceStream<F: Frontend> {
    fe: F,
    /// Start of the next trace: the `next_pc` of the last retired
    /// instruction (the frontend entry before anything retires).
    next_start: tpc_isa::Addr,
    /// The last trace built into each slot.
    built: Box<[Option<Trace>; TRACE_TABLE_SLOTS]>,
}

impl<'a> TraceStream<Executor<'a>> {
    /// Creates a stream over `program` from its entry point, using
    /// the architectural executor (the `"synthetic"` frontend).
    pub fn new(program: &'a Program) -> Self {
        TraceStream::over(Executor::new(program))
    }
}

impl<F: Frontend> TraceStream<F> {
    /// Creates a stream over any [`Frontend`]. The frontend must be
    /// freshly instantiated (positioned at the program entry), as
    /// [`FrontendSource::frontend`](tpc_exec::FrontendSource::frontend)
    /// guarantees.
    pub fn over(frontend: F) -> Self {
        let next_start = frontend.code().entry();
        TraceStream {
            fe: frontend,
            next_start,
            built: Box::new(std::array::from_fn(|_| None)),
        }
    }

    /// Instructions retired by the underlying frontend.
    pub fn retired(&self) -> u64 {
        self.fe.retired()
    }

    /// The static program the stream executes.
    pub fn code(&self) -> &Program {
        self.fe.code()
    }

    /// The frontend-kind identifier (see [`Frontend::id`]).
    pub fn frontend_id(&self) -> &'static str {
        self.fe.id()
    }

    /// Produces the next trace on the correct path.
    pub fn next_trace(&mut self) -> DynTrace {
        let start = self.next_start;
        let mut b = TraceBuilder::new(start);
        let mut mem_addrs = TraceVec::new();
        let mut branch_outcomes = TraceVec::new();
        loop {
            let d = self.fe.next_retired();
            self.next_start = d.next_pc;
            mem_addrs.push(d.mem_addr);
            let resolution = match d.op.class() {
                OpClass::Branch => {
                    branch_outcomes.push(d.taken);
                    Resolution::Branch {
                        taken: d.taken,
                        next_pc: d.next_pc,
                    }
                }
                OpClass::Return | OpClass::IndirectJump | OpClass::Halt => {
                    Resolution::Target(d.next_pc)
                }
                _ => Resolution::None,
            };
            if b.feed(d.pc, d.op, resolution).is_none() {
                let slot = &mut self.built[trace_table_slot(b.key())];
                let trace = match slot {
                    Some(stored) if stored.key() == b.key() => b.instance_of(stored),
                    _ => slot.insert(b.build()).clone(),
                };
                return DynTrace {
                    trace,
                    mem_addrs,
                    branch_outcomes,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpc_core::PushResult;
    use tpc_workloads::{Benchmark, WorkloadBuilder};

    #[test]
    fn traces_partition_the_dynamic_stream() {
        let p = WorkloadBuilder::new(Benchmark::Compress).seed(1).build();
        let mut s = TraceStream::new(&p);
        let mut total = 0usize;
        for _ in 0..1000 {
            let t = s.next_trace();
            assert!(!t.is_empty());
            assert!(t.len() <= MAX_TRACE_LEN);
            total += t.len();
        }
        assert_eq!(total as u64, s.retired());
    }

    #[test]
    fn consecutive_traces_are_aligned() {
        // Each trace's successor (when known) must equal the next
        // trace's start — the alignment invariant.
        let p = WorkloadBuilder::new(Benchmark::Li).seed(1).build();
        let mut s = TraceStream::new(&p);
        let mut prev = s.next_trace();
        for _ in 0..2000 {
            let next = s.next_trace();
            if let Some(succ) = prev.trace.successor() {
                assert_eq!(
                    succ,
                    next.trace.start(),
                    "trace successor must match next trace start"
                );
            }
            prev = next;
        }
    }

    #[test]
    fn outcome_bits_match_recorded_outcomes() {
        let p = WorkloadBuilder::new(Benchmark::Go).seed(1).build();
        let mut s = TraceStream::new(&p);
        for _ in 0..2000 {
            let t = s.next_trace();
            assert_eq!(t.branch_outcomes.len() as u8, t.trace.key().branch_count);
            for (i, &taken) in t.branch_outcomes.iter().enumerate() {
                assert_eq!(t.trace.branch_outcome(i as u8), Some(taken));
            }
        }
    }

    #[test]
    fn identical_paths_produce_identical_keys() {
        // Re-running the stream must reproduce the same trace keys
        // (determinism end to end).
        let p = WorkloadBuilder::new(Benchmark::M88ksim).seed(3).build();
        let keys = |_: ()| {
            let mut s = TraceStream::new(&p);
            (0..500)
                .map(|_| s.next_trace().trace.key())
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(()), keys(()));
    }

    /// Builds the next trace of `fe` afresh, as the stream did before
    /// it interned traces.
    fn fresh_trace(fe: &mut Executor<'_>, start: tpc_isa::Addr) -> Trace {
        let mut b = TraceBuilder::new(start);
        loop {
            let d = fe.next_retired();
            let resolution = match d.op.class() {
                OpClass::Branch => Resolution::Branch {
                    taken: d.taken,
                    next_pc: d.next_pc,
                },
                OpClass::Return | OpClass::IndirectJump | OpClass::Halt => {
                    Resolution::Target(d.next_pc)
                }
                _ => Resolution::None,
            };
            if let PushResult::Complete(t) = b.push(d.pc, d.op, resolution) {
                return t;
            }
        }
    }

    /// On every benchmark profile the interned stream yields, trace
    /// for trace, what building each trace afresh yields, successor
    /// included; a key still in its table slot shares the stored
    /// instructions, and every other trace gets storage of its own.
    #[test]
    fn interned_traces_equal_fresh_builds() {
        for benchmark in Benchmark::ALL {
            let p = WorkloadBuilder::new(benchmark).seed(1).build();
            let mut interned = TraceStream::new(&p);
            let mut fe = Executor::new(&p);
            let mut table: Vec<Option<Trace>> = vec![None; TRACE_TABLE_SLOTS];
            let mut shared = 0;
            for i in 0..5_000 {
                let start = fe.pc();
                let dt = interned.next_trace();
                let fresh = fresh_trace(&mut fe, start);
                assert_eq!(dt.trace, fresh, "{benchmark:?} trace {i}");
                assert_eq!(dt.trace.successor(), fresh.successor());
                let slot = trace_table_slot(dt.trace.key());
                match &table[slot] {
                    Some(stored) if stored.key() == dt.trace.key() => {
                        assert!(dt.trace.shares_storage_with(stored), "{benchmark:?} {i}");
                        shared += 1;
                    }
                    _ => {
                        assert!(
                            table
                                .iter()
                                .flatten()
                                .all(|t| !dt.trace.shares_storage_with(t)),
                            "{benchmark:?} trace {i}: a table miss reuses storage"
                        );
                        table[slot] = Some(dt.trace);
                    }
                }
            }
            assert!(shared > 0, "{benchmark:?}: no trace shared storage");
        }
    }

    #[test]
    fn mem_addrs_parallel_instructions() {
        let p = WorkloadBuilder::new(Benchmark::Ijpeg).seed(1).build();
        let mut s = TraceStream::new(&p);
        for _ in 0..500 {
            let t = s.next_trace();
            assert_eq!(t.mem_addrs.len(), t.len());
            for (ti, ma) in t.trace.instrs().iter().zip(&t.mem_addrs) {
                let is_mem = matches!(ti.op.class(), OpClass::Load | OpClass::Store);
                assert_eq!(ma.is_some(), is_mem);
            }
        }
    }
}
