//! The distributed execution backend: four processing elements, two-
//! wide issue each, global result buses (paper Section 4.1).
//!
//! Each dispatched trace occupies one processing element until it
//! retires. Timing is computed dataflow-style at dispatch: every
//! instruction is assigned its execution cycle subject to
//!
//! * operand readiness — intra-PE bypass lets a dependent operation
//!   execute the cycle after its producer finishes; values crossing
//!   processing elements pay one extra cycle on a global result bus
//!   (producer executes in N ⇒ cross-PE consumer executes in N+2);
//! * issue bandwidth — at most `issue_per_pe` instructions begin
//!   execution per PE per cycle;
//! * memory ports — at most 4 data-cache accesses per cycle overall
//!   and 2 per PE (the paper's four-ported L1D);
//! * data-cache latency — 2-cycle hits, +10-cycle perfect L2.

use crate::stream::DynTrace;
use tpc_core::preprocess::latency::op_latency;
use tpc_core::MAX_TRACE_LEN;
use tpc_isa::OpClass;
use tpc_mem::DataCache;

/// Backend configuration (defaults are the paper's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendConfig {
    /// Number of processing elements.
    pub pe_count: usize,
    /// Issue width per processing element.
    pub issue_per_pe: u8,
    /// Extra cycles for a value to cross processing elements.
    pub bus_delay: u64,
    /// Global data-cache ports per cycle.
    pub mem_ports_global: u8,
    /// Data-cache ports one PE may use per cycle.
    pub mem_ports_per_pe: u8,
}

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig {
            pe_count: 4,
            issue_per_pe: 2,
            bus_delay: 1,
            mem_ports_global: 4,
            mem_ports_per_pe: 2,
        }
    }
}

/// The computed timing of one dispatched trace.
#[derive(Debug, Clone)]
pub struct TraceTiming {
    /// Processing element the trace ran on.
    pub pe: usize,
    /// Cycle the last instruction finished executing.
    pub complete: u64,
    /// The latest conditional-branch resolution (equals `complete`
    /// for branchless traces — the point at which "this trace's path
    /// is confirmed").
    pub last_resolve: u64,
    /// Number of instructions: the valid prefix of `exec_start` and
    /// `exec_done`.
    pub len: usize,
    /// Cycle each instruction began executing (trace order) — kept
    /// for timing validation and pipeline visualization.
    pub exec_start: [u64; MAX_TRACE_LEN],
    /// Cycle each instruction finished executing (trace order).
    pub exec_done: [u64; MAX_TRACE_LEN],
}

/// Cycles tracked by [`CycleUsage`]: far more than a dispatch can
/// reach past the oldest cycle a later dispatch may still query.
const USAGE_RING: usize = 8192;

/// Bits of one counter lane in a [`CycleUsage`] word.
const LANE_BITS: usize = 4;

/// The largest count a lane holds, and so the largest resource limit
/// a [`BackendConfig`] may set.
const LANE_MAX: u8 = (1 << LANE_BITS) - 1;

/// The most processing elements whose `1 + 2·pe_count` lanes fit in
/// one `u64` word.
const MAX_PES: usize = (64 / LANE_BITS - 1) / 2;

/// Per-cycle resource usage of every processing element, in one ring
/// of recent cycles. Slot `cycle % USAGE_RING` holds the cycle it
/// counts and one `u64` of 4-bit counter lanes: lane 0 counts the
/// global memory ports, lane `1 + pe` each PE's issue slots and lane
/// `1 + pe_count + pe` each PE's memory ports. A probe is one load of
/// the slot, and a use is one add of a word of lane units.
///
/// The add never carries into the next lane: a use is counted only in
/// a cycle whose lanes are all below their limits (the slot search
/// checks exactly that), and [`Backend::new`] keeps every limit at
/// most `LANE_MAX`, so no lane ever counts past `LANE_MAX`.
///
/// A slot is recycled (re-tagged and zeroed) only for a cycle no
/// earlier than the current dispatch's first execution cycle, and
/// every cycle any dispatch queries is at or after its own first
/// execution cycle, which never decreases. So a recycled slot's old
/// cycle can never be queried again, and the ring counts exactly.
#[derive(Debug, Clone)]
struct CycleUsage {
    slots: Vec<(u64, u64)>,
}

impl CycleUsage {
    /// Lane of the global memory ports.
    const MEM_GLOBAL: usize = 0;

    fn new() -> Self {
        // Tag 0 with zero counts is exact: cycle 0 has no usage.
        CycleUsage {
            slots: vec![(0, 0); USAGE_RING],
        }
    }

    /// Lane of `pe`'s issue slots.
    fn issue(pe: usize) -> usize {
        1 + pe
    }

    /// Lane of `pe`'s memory ports, among `pe_count` PEs.
    fn mem(pe: usize, pe_count: usize) -> usize {
        1 + pe_count + pe
    }

    /// One use of `lane`, as a word to add.
    fn unit(lane: usize) -> u64 {
        1 << (lane * LANE_BITS)
    }

    /// The count of `lane` in `word`.
    #[inline]
    fn lane(word: u64, lane: usize) -> u8 {
        (word >> (lane * LANE_BITS)) as u8 & LANE_MAX // narrow: masked to one lane
    }

    /// The lanes of `cycle`: all zero while its slot holds another
    /// cycle.
    #[inline]
    fn word(&self, cycle: u64) -> u64 {
        let (tag, word) = self.slots[cycle as usize % USAGE_RING];
        if tag == cycle {
            word
        } else {
            0
        }
    }

    /// Adds the lane units `uses` to `cycle`, for a dispatch whose
    /// first execution cycle is `earliest`.
    #[inline]
    fn add(&mut self, cycle: u64, uses: u64, earliest: u64) {
        let slot = &mut self.slots[cycle as usize % USAGE_RING];
        if slot.0 != cycle {
            debug_assert!(
                slot.0 < earliest,
                "recycling the slot of cycle {} for cycle {cycle}, but a dispatch \
                 may still query cycles from {earliest} on",
                slot.0
            );
            *slot = (cycle, 0);
        }
        slot.1 += uses;
    }
}

/// `last_writer` entry of a register no instruction of the trace
/// writes.
const NO_WRITER: u8 = u8::MAX;

/// The backend scheduler state.
#[derive(Debug)]
pub struct Backend {
    config: BackendConfig,
    /// Per register: (cycle a same-PE consumer may execute, producer
    /// PE). Cross-PE consumers add `bus_delay`.
    reg_ready: [(u64, usize); tpc_isa::NUM_REGS],
    usage: CycleUsage,
    dcache: DataCache,
    /// Cycle each PE becomes free (its trace retired).
    pe_free_at: Vec<u64>,
    next_pe: usize,
}

impl Backend {
    /// Creates a backend.
    ///
    /// # Panics
    ///
    /// Panics unless `config` has 1 to 7 PEs and every issue and port
    /// limit is 1 to 15: the per-cycle usage packs each counter into a
    /// 4-bit lane of one `u64`, and a limit of 0 never issues.
    pub fn new(config: BackendConfig) -> Self {
        assert!(
            (1..=MAX_PES).contains(&config.pe_count),
            "backend pe_count must be 1..={MAX_PES} (its 1 + 2·pe_count usage \
             counters share one 64-bit word), got {}",
            config.pe_count
        );
        for (name, limit) in [
            ("issue_per_pe", config.issue_per_pe),
            ("mem_ports_global", config.mem_ports_global),
            ("mem_ports_per_pe", config.mem_ports_per_pe),
        ] {
            assert!(
                (1..=LANE_MAX).contains(&limit),
                "backend {name} must be 1..={LANE_MAX} (0 never issues; each usage \
                 counter is {LANE_BITS} bits wide), got {limit}"
            );
        }
        Backend {
            reg_ready: [(0, 0); tpc_isa::NUM_REGS],
            usage: CycleUsage::new(),
            dcache: DataCache::new(),
            pe_free_at: vec![0; config.pe_count],
            next_pe: 0,
            config,
        }
    }

    /// The backend's configuration.
    pub fn config(&self) -> &BackendConfig {
        &self.config
    }

    /// Data-cache statistics.
    pub fn dcache_stats(&self) -> &tpc_mem::DataCacheStats {
        self.dcache.stats()
    }

    /// Whether a processing element is free at `cycle` to accept a
    /// dispatch.
    pub fn pe_available(&self, cycle: u64) -> bool {
        self.pe_free_at.iter().any(|&f| f <= cycle)
    }

    /// Marks the PE of a retired trace free from `cycle` on.
    pub fn release_pe(&mut self, pe: usize, cycle: u64) {
        self.pe_free_at[pe] = cycle;
    }

    fn claim_pe(&mut self, cycle: u64) -> usize {
        // Round-robin over free PEs, matching the sequencer's trace
        // distribution.
        for k in 0..self.config.pe_count {
            let pe = (self.next_pe + k) % self.config.pe_count;
            if self.pe_free_at[pe] <= cycle {
                self.next_pe = (pe + 1) % self.config.pe_count;
                self.pe_free_at[pe] = u64::MAX; // busy until released
                return pe;
            }
        }
        panic!("dispatch without a free processing element");
    }

    /// Schedules a trace dispatched at `dispatch_cycle` onto a free
    /// PE and returns its timing. The caller must have checked
    /// [`Backend::pe_available`], and must not dispatch at an earlier
    /// cycle than its previous dispatch.
    ///
    /// `use_preprocess` selects whether the trace's preprocessing
    /// annotations (if present) drive dependences and issue order.
    pub fn dispatch(
        &mut self,
        dt: &DynTrace,
        dispatch_cycle: u64,
        use_preprocess: bool,
    ) -> TraceTiming {
        /// Issue order of a trace without preprocessing annotations.
        const PROGRAM_ORDER: [u8; MAX_TRACE_LEN] =
            [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];

        let pe = self.claim_pe(dispatch_cycle);
        let instrs = dt.trace.instrs();
        let n = instrs.len();
        let info = if use_preprocess {
            dt.trace.preprocess_info()
        } else {
            None
        };
        let earliest = dispatch_cycle + 1;

        // One decode pass in program order: each instruction's class,
        // its intra-trace producers as a bit mask (the last writer of
        // each source), and the cycle its values from earlier traces
        // are ready — sources with no writer in the trace read the
        // published register state, paying the bus delay when the
        // producer ran on another PE.
        let mut class = [OpClass::Nop; MAX_TRACE_LEN];
        let mut deps = [0u16; MAX_TRACE_LEN];
        let mut ext_ready = [earliest; MAX_TRACE_LEN];
        let mut last_writer = [NO_WRITER; tpc_isa::NUM_REGS];
        // Registers with a writer in the trace, one bit each.
        let mut written = 0u64;
        for (i, ti) in instrs.iter().enumerate() {
            class[i] = ti.op.class();
            for src in ti.op.sources() {
                match last_writer[src.index()] {
                    NO_WRITER => {
                        let (avail, producer_pe) = self.reg_ready[src.index()];
                        let penalty = if producer_pe == pe {
                            0
                        } else {
                            self.config.bus_delay
                        };
                        ext_ready[i] = ext_ready[i].max(avail + penalty);
                    }
                    w => deps[i] |= 1 << w,
                }
            }
            if let Some(rd) = ti.op.dest() {
                last_writer[rd.index()] = i as u8; // narrow: i < MAX_TRACE_LEN
                written |= 1 << rd.index();
            }
        }
        let order: &[u8] = match info {
            Some(inf) => {
                deps = inf.deps;
                inf.order()
            }
            None => &PROGRAM_ORDER[..n],
        };

        let (issue, mem) = (
            CycleUsage::issue(pe),
            CycleUsage::mem(pe, self.config.pe_count),
        );
        let issue_uses = CycleUsage::unit(issue);
        let mem_uses =
            issue_uses + CycleUsage::unit(CycleUsage::MEM_GLOBAL) + CycleUsage::unit(mem);
        // done[i]: last execution cycle of instruction i.
        let mut done = [0u64; MAX_TRACE_LEN];
        let mut started = [0u64; MAX_TRACE_LEN];
        let mut complete = dispatch_cycle;
        let mut last_resolve = None;
        for &oi in order {
            let i = usize::from(oi);
            let ready = if info.is_some_and(|inf| inf.const_folded[i]) {
                // Computed at fill time: no input dependences.
                earliest
            } else {
                let mut ready = ext_ready[i];
                let mut m = deps[i];
                while m != 0 {
                    // Producer in the same trace ⇒ same PE ⇒ bypass:
                    // consumer may execute the cycle after it is done.
                    ready = ready.max(done[m.trailing_zeros() as usize] + 1);
                    m &= m - 1;
                }
                ready
            };

            let is_mem = matches!(class[i], OpClass::Load | OpClass::Store);
            // Find the first cycle with a free issue slot (and memory
            // port, when needed).
            let mut c = ready;
            loop {
                let word = self.usage.word(c);
                let slots_ok = CycleUsage::lane(word, issue) < self.config.issue_per_pe;
                let ports_ok = !is_mem
                    || (CycleUsage::lane(word, CycleUsage::MEM_GLOBAL)
                        < self.config.mem_ports_global
                        && CycleUsage::lane(word, mem) < self.config.mem_ports_per_pe);
                if slots_ok && ports_ok {
                    break;
                }
                c += 1;
            }
            let uses = if is_mem { mem_uses } else { issue_uses };
            self.usage.add(c, uses, earliest);

            let lat = match class[i] {
                OpClass::Load => {
                    let addr = dt.mem_addrs[i].expect("loads carry addresses");
                    op_latency(OpClass::Load) as u64 + self.dcache.load(addr) as u64
                }
                OpClass::Store => {
                    // Stores complete into the write buffer; latency
                    // is hidden from the dependence graph.
                    let addr = dt.mem_addrs[i].expect("stores carry addresses");
                    let _ = self.dcache.store(addr);
                    op_latency(OpClass::Store) as u64
                }
                class => op_latency(class) as u64,
            };
            started[i] = c;
            done[i] = c + lat - 1;
            complete = complete.max(done[i]);
            if class[i] == OpClass::Branch {
                last_resolve = last_resolve.max(Some(done[i]));
            }
        }

        // Publish each register's final in-trace writer for later
        // traces.
        while written != 0 {
            let r = written.trailing_zeros() as usize;
            self.reg_ready[r] = (done[usize::from(last_writer[r])] + 1, pe);
            written &= written - 1;
        }

        TraceTiming {
            pe,
            complete,
            last_resolve: last_resolve.unwrap_or(complete),
            len: n,
            exec_start: started,
            exec_done: done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpc_core::{preprocess, PushResult, Resolution, TraceBuilder};
    use tpc_isa::{Addr, Op, Reg};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    fn dyn_trace(ops: &[Op]) -> DynTrace {
        let mut b = TraceBuilder::new(Addr::new(0));
        let mut trace = None;
        for (i, &op) in ops.iter().enumerate() {
            match b.push(Addr::new(i as u32), op, Resolution::None) {
                PushResult::Continue(_) => {}
                PushResult::Complete(t) => {
                    trace = Some(t);
                    break;
                }
            }
        }
        let trace = trace.unwrap_or_else(|| {
            match b.push(Addr::new(ops.len() as u32), Op::Return, Resolution::None) {
                PushResult::Complete(t) => t,
                other => panic!("{other:?}"),
            }
        });
        let mem_addrs = trace
            .instrs()
            .iter()
            .map(|ti| matches!(ti.op.class(), OpClass::Load | OpClass::Store).then_some(0x100))
            .collect();
        DynTrace {
            trace,
            mem_addrs,
            branch_outcomes: Default::default(),
        }
    }

    #[test]
    fn independent_ops_dual_issue() {
        let mut be = Backend::new(BackendConfig::default());
        // 4 independent ALU ops → 2 cycles of issue; complete at
        // dispatch+2.
        let dt = dyn_trace(&[
            Op::AddImm {
                rd: r(1),
                rs1: r(10),
                imm: 1,
            },
            Op::AddImm {
                rd: r(2),
                rs1: r(11),
                imm: 1,
            },
            Op::AddImm {
                rd: r(3),
                rs1: r(12),
                imm: 1,
            },
            Op::AddImm {
                rd: r(4),
                rs1: r(13),
                imm: 1,
            },
        ]);
        let t = be.dispatch(&dt, 0, false);
        // 4 ALU ops dual-issue over cycles 1–2; the terminating ret
        // (appended by the helper) takes cycle 3.
        assert_eq!(t.complete, 3);
    }

    #[test]
    fn dependent_chain_serializes() {
        let mut be = Backend::new(BackendConfig::default());
        let dt = dyn_trace(&[
            Op::AddImm {
                rd: r(1),
                rs1: r(1),
                imm: 1,
            },
            Op::AddImm {
                rd: r(1),
                rs1: r(1),
                imm: 1,
            },
            Op::AddImm {
                rd: r(1),
                rs1: r(1),
                imm: 1,
            },
            Op::AddImm {
                rd: r(1),
                rs1: r(1),
                imm: 1,
            },
        ]);
        let t = be.dispatch(&dt, 0, false);
        // Back-to-back chain: cycles 1,2,3,4.
        assert_eq!(t.complete, 4);
    }

    #[test]
    fn cross_pe_dependence_pays_bus_delay() {
        let mut be = Backend::new(BackendConfig::default());
        // Trace A writes r5 on PE 0.
        let a = dyn_trace(&[Op::AddImm {
            rd: r(5),
            rs1: r(9),
            imm: 1,
        }]);
        let ta = be.dispatch(&a, 0, false);
        assert_eq!(ta.pe, 0);
        // Trace B (PE 1) reads r5: executes at done(A) + 1 + bus.
        let b = dyn_trace(&[Op::AddImm {
            rd: r(6),
            rs1: r(5),
            imm: 1,
        }]);
        let tb = be.dispatch(&b, 0, false);
        assert_eq!(tb.pe, 1);
        assert_eq!(tb.complete, ta.complete + 2);
    }

    #[test]
    fn same_pe_readback_after_release() {
        let mut be = Backend::new(BackendConfig::default());
        let a = dyn_trace(&[Op::AddImm {
            rd: r(5),
            rs1: r(9),
            imm: 1,
        }]);
        let ta = be.dispatch(&a, 0, false);
        be.release_pe(ta.pe, ta.complete + 1);
        // Fill the other PEs so the next dispatch reuses PE 0.
        for _ in 0..3 {
            let f = dyn_trace(&[Op::Nop]);
            be.dispatch(&f, 0, false);
        }
        let b = dyn_trace(&[Op::AddImm {
            rd: r(6),
            rs1: r(5),
            imm: 1,
        }]);
        let tb = be.dispatch(&b, ta.complete + 1, false);
        assert_eq!(tb.pe, ta.pe, "round-robin returns to the freed PE");
        // Same PE: no bus delay; bounded by dispatch+1.
        assert_eq!(tb.complete, ta.complete + 2);
    }

    #[test]
    fn load_latency_includes_dcache() {
        let mut be = Backend::new(BackendConfig::default());
        let dt = dyn_trace(&[Op::Load {
            rd: r(1),
            base: r(2),
            offset: 0,
        }]);
        let t = be.dispatch(&dt, 0, false);
        // Cold load: 1 (AGU) + 2 (hit) + 10 (L2 miss) = 13 cycles
        // starting at cycle 1 → done at 13.
        assert_eq!(t.complete, 13);
        // Warm load on the same line: 1 + 2 = 3 cycles.
        let dt2 = dyn_trace(&[Op::Load {
            rd: r(3),
            base: r(2),
            offset: 0,
        }]);
        let t2 = be.dispatch(&dt2, 0, false);
        assert_eq!(t2.complete, 3);
    }

    #[test]
    fn mem_ports_limit_parallel_loads() {
        let mut be = Backend::new(BackendConfig::default());
        // Warm the line first.
        let warm = dyn_trace(&[Op::Load {
            rd: r(9),
            base: r(2),
            offset: 0,
        }]);
        be.dispatch(&warm, 0, false);
        be.release_pe(0, 0);
        // 3 independent loads on one PE: 2 ports/PE → issue over 2 cycles.
        let dt = dyn_trace(&[
            Op::Load {
                rd: r(1),
                base: r(2),
                offset: 0,
            },
            Op::Load {
                rd: r(3),
                base: r(2),
                offset: 0,
            },
            Op::Load {
                rd: r(4),
                base: r(2),
                offset: 0,
            },
        ]);
        let t = be.dispatch(&dt, 100, false);
        // First two issue at 101, third at 102 → done 102+2 = 104.
        assert_eq!(t.complete, 104);
    }

    #[test]
    fn branch_resolve_times_reported() {
        let mut be = Backend::new(BackendConfig::default());
        let mut b = TraceBuilder::new(Addr::new(0));
        b.push(
            Addr::new(0),
            Op::AddImm {
                rd: r(1),
                rs1: r(1),
                imm: 1,
            },
            Resolution::None,
        );
        let trace = match b.push(
            Addr::new(1),
            Op::Branch {
                cond: tpc_isa::BranchCond::Ne,
                rs1: r(1),
                rs2: r(2),
                target: Addr::new(40),
            },
            Resolution::Branch {
                taken: false,
                next_pc: Addr::new(2),
            },
        ) {
            PushResult::Continue(_) => match b.push(Addr::new(2), Op::Return, Resolution::None) {
                PushResult::Complete(t) => t,
                other => panic!("{other:?}"),
            },
            PushResult::Complete(t) => t,
        };
        let dt = DynTrace {
            trace,
            mem_addrs: std::iter::repeat_n(None, 3).collect(),
            branch_outcomes: [false].into_iter().collect(),
        };
        let t = be.dispatch(&dt, 0, false);
        assert_eq!(t.len, 3);
        // Branch depends on the addi: resolves at cycle 2.
        assert_eq!(t.exec_done[1], 2);
        assert_eq!(t.last_resolve, 2);
    }

    #[test]
    fn preprocessing_shortens_folded_chains() {
        // li; addi(dep); addi(dep); addi(dep) — all foldable.
        let ops = [
            Op::LoadImm { rd: r(1), imm: 5 },
            Op::AddImm {
                rd: r(1),
                rs1: r(1),
                imm: 1,
            },
            Op::AddImm {
                rd: r(1),
                rs1: r(1),
                imm: 1,
            },
            Op::AddImm {
                rd: r(1),
                rs1: r(1),
                imm: 1,
            },
        ];
        let mut plain = dyn_trace(&ops);
        let info = preprocess::preprocess(&plain.trace);
        plain.trace.set_preprocess(info);

        let mut be1 = Backend::new(BackendConfig::default());
        let without = be1.dispatch(&plain, 0, false).complete;
        let mut be2 = Backend::new(BackendConfig::default());
        let with = be2.dispatch(&plain, 0, true).complete;
        assert!(
            with < without,
            "preprocessed {with} must beat unprocessed {without}"
        );
    }

    #[test]
    fn pe_exhaustion_detected() {
        let be = Backend::new(BackendConfig::default());
        assert!(be.pe_available(0));
    }

    #[test]
    #[should_panic(expected = "free processing element")]
    fn dispatch_without_free_pe_panics() {
        let mut be = Backend::new(BackendConfig::default());
        for _ in 0..5 {
            let dt = dyn_trace(&[Op::Nop]);
            be.dispatch(&dt, 0, false);
        }
    }
}
