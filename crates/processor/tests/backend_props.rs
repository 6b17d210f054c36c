//! Property tests over the backend scheduler: every computed
//! schedule must respect the machine's structural and dataflow
//! constraints, for seeded random traces, and equal the schedule of a
//! reference that counts each resource in a ring of its own.

use std::collections::{BTreeMap, VecDeque};
use tpc_core::preprocess::{latency::op_latency, preprocess, trace_producers};
use tpc_core::{PushResult, Resolution, TraceBuilder, MAX_TRACE_LEN};
use tpc_isa::model::XorShift64;
use tpc_isa::{Addr, Op, OpClass, Reg, NUM_REGS};
use tpc_mem::DataCache;
use tpc_processor::backend::{
    Backend, BackendConfig, TraceTiming, BUS_DELAY, ISSUE_PER_PE, MEM_PORTS_GLOBAL,
    MEM_PORTS_PER_PE,
};
use tpc_processor::DynTrace;

const CASES: u32 = 256;

/// 1 to 14 ALU, multiply, load and store ops over registers 0..12.
fn random_ops(rng: &mut XorShift64) -> Vec<Op> {
    let n = rng.next_in(1, 14);
    (0..n)
        .map(|_| {
            let mut reg = || Reg::new(rng.next_below(12) as u8); // narrow: < 12
            let (a, b, c) = (reg(), reg(), reg());
            let offset = rng.next_below(512) as i32; // narrow: < 512
            match rng.next_below(5) {
                0 => Op::Add {
                    rd: a,
                    rs1: b,
                    rs2: c,
                },
                1 => Op::AddImm {
                    rd: a,
                    rs1: b,
                    imm: 1,
                },
                2 => Op::Mul {
                    rd: a,
                    rs1: b,
                    rs2: c,
                },
                3 => Op::Load {
                    rd: a,
                    base: b,
                    offset,
                },
                _ => Op::Store {
                    src: a,
                    base: b,
                    offset,
                },
            }
        })
        .collect()
}

/// The trace of `ops` (ended by a `ret` when shorter than a full
/// trace), each memory op on a line of its own.
fn build_dyn_trace(ops: &[Op]) -> DynTrace {
    let mut b = TraceBuilder::new(Addr::new(0));
    let mut trace = None;
    for (i, &op) in ops.iter().chain(&[Op::Return]).enumerate() {
        if let PushResult::Complete(t) = b.push(Addr::new(i as u32), op, Resolution::None) {
            trace = Some(t);
            break;
        }
    }
    let trace = trace.expect("a return ends the trace");
    let mem_addrs = trace
        .instrs()
        .iter()
        .enumerate()
        .map(|(i, ti)| {
            matches!(ti.op.class(), OpClass::Load | OpClass::Store)
                .then_some(0x1000 + i as u64 * 64)
        })
        .collect();
    DynTrace {
        trace,
        mem_addrs,
        branch_outcomes: Default::default(),
    }
}

/// For any single trace: issue-after-dispatch, latency and
/// intra-trace dependence constraints hold, and per-cycle issue
/// width and memory ports are never exceeded.
#[test]
fn schedule_respects_machine_constraints() {
    let mut rng = XorShift64::new(0xBAC4_E5EE);
    for case in 0..CASES {
        let ops = random_ops(&mut rng);
        let dispatch = u64::from(rng.next_below(1000));
        let at = format!("case {case} at {dispatch}: {ops:?}");
        let mut be = Backend::new(BackendConfig::default());
        let dt = build_dyn_trace(&ops);
        let t = be.dispatch(&dt, dispatch, false);
        let n = dt.trace.len();
        assert_eq!(t.len, n, "{at}");
        let (start, done) = (&t.exec_start[..n], &t.exec_done[..n]);

        let producers = trace_producers(&dt.trace);
        for (i, ti) in dt.trace.instrs().iter().enumerate() {
            // Nothing executes before the cycle after dispatch.
            assert!(start[i] > dispatch, "{at}: instr {i} too early");
            // Latency lower bound (loads add cache latency on top).
            let lat = op_latency(ti.op.class()) as u64;
            assert!(done[i] >= start[i] + lat - 1, "{at}: instr {i}");
            // Same-PE bypass: consumers start after producers finish.
            for &j in producers[i].as_slice() {
                let j = usize::from(j);
                assert!(
                    start[i] > done[j],
                    "{at}: instr {i} started at {} but dep {j} finished at {}",
                    start[i],
                    done[j]
                );
            }
        }
        // Issue width: at most `ISSUE_PER_PE` starts per cycle, and at
        // most `MEM_PORTS_PER_PE` of them memory ops.
        let mut per_cycle = BTreeMap::new();
        let mut mem_per_cycle = BTreeMap::new();
        for (ti, &c) in dt.trace.instrs().iter().zip(start) {
            *per_cycle.entry(c).or_insert(0u32) += 1;
            if matches!(ti.op.class(), OpClass::Load | OpClass::Store) {
                *mem_per_cycle.entry(c).or_insert(0u32) += 1;
            }
        }
        for (&c, &count) in &per_cycle {
            assert!(
                count <= u32::from(ISSUE_PER_PE),
                "{at}: {count} instructions issued in cycle {c}"
            );
        }
        for (&c, &count) in &mem_per_cycle {
            assert!(
                count <= u32::from(MEM_PORTS_PER_PE),
                "{at}: {count} memory ops issued in cycle {c}"
            );
        }
        // The aggregate completion matches the per-instruction data;
        // a branchless trace resolves when it completes.
        assert_eq!(t.complete, done.iter().copied().max().unwrap(), "{at}");
        assert_eq!(t.last_resolve, t.complete, "{at}");
    }
}

/// Values cross traces through the published register state: an
/// instruction reading a register no earlier instruction of its own
/// trace wrote starts no earlier than the cycle after the register's
/// last writer in an earlier trace finished, plus the bus delay when
/// that writer ran on another processing element.
#[test]
fn values_cross_traces_after_their_producers() {
    let mut rng = XorShift64::new(0xC055_7EAC);
    let config = BackendConfig::default();
    for case in 0..CASES / 8 {
        let mut be = Backend::new(config);
        // Per register: (cycle a same-PE consumer may start, PE) of
        // its last writer so far, or `None` before any write.
        let mut written: [Option<(u64, usize)>; NUM_REGS] = [None; NUM_REGS];
        let mut cycle = 0;
        for k in 0..12 {
            let ops = random_ops(&mut rng);
            let at = format!("case {case}, trace {k}: {ops:?}");
            let dt = build_dyn_trace(&ops);
            cycle += u64::from(rng.next_below(4));
            if !be.pe_available(cycle) {
                be.release_pe(k % config.pe_count, cycle);
            }
            let t = be.dispatch(&dt, cycle, false);
            let mut in_trace = [false; NUM_REGS];
            for (i, ti) in dt.trace.instrs().iter().enumerate() {
                for src in ti.op.sources() {
                    if let (false, Some((ready, pe))) =
                        (in_trace[src.index()], written[src.index()])
                    {
                        let bus = if pe == t.pe { 0 } else { BUS_DELAY };
                        assert!(
                            t.exec_start[i] >= ready + bus,
                            "{at}: instr {i} read {src:?} at {} before {}",
                            t.exec_start[i],
                            ready + bus
                        );
                    }
                }
                if let Some(rd) = ti.op.dest() {
                    in_trace[rd.index()] = true;
                    written[rd.index()] = Some((t.exec_done[i] + 1, t.pe));
                }
            }
        }
    }
}

/// Dependence chains serialize even under preprocessing (the
/// schedule may reorder issue priority but never break dataflow).
#[test]
fn preprocessing_never_breaks_dataflow() {
    let mut rng = XorShift64::new(0x9E9E_5EED);
    for case in 0..CASES {
        let ops = random_ops(&mut rng);
        let mut dt = build_dyn_trace(&ops);
        let info = preprocess(&dt.trace);
        dt.trace.set_preprocess(info.clone());
        let mut be = Backend::new(BackendConfig::default());
        let t = be.dispatch(&dt, 0, true);
        for (i, &d) in info.deps[..info.len()].iter().enumerate() {
            assert_eq!(d >> i, 0, "case {case}: a dep of {i} is not earlier");
            for j in (0..i).filter(|&j| d & 1 << j != 0) {
                assert!(
                    t.exec_start[i] > t.exec_done[j],
                    "case {case}: preprocessed dep {j}→{i} violated in {ops:?}"
                );
            }
        }
    }
}

/// One resource's per-cycle use count, in a ring of its own.
struct RefRing(Vec<(u64, u8)>);

impl RefRing {
    fn new() -> Self {
        RefRing(vec![(u64::MAX, 0); 8192])
    }

    fn count(&self, cycle: u64) -> u8 {
        let (tag, n) = self.0[cycle as usize % 8192];
        if tag == cycle {
            n
        } else {
            0
        }
    }

    fn inc(&mut self, cycle: u64) {
        let slot = &mut self.0[cycle as usize % 8192];
        if slot.0 == cycle {
            slot.1 += 1;
        } else {
            *slot = (cycle, 1);
        }
    }
}

/// Cycles an instruction waited past its ready cycle, by the one
/// resource that held it there.
#[derive(Debug, Default)]
struct Delays {
    /// Its PE's issue slots were full; no memory port was.
    issue: u64,
    /// The global memory ports were full; its PE's issue slots and
    /// memory ports were not.
    mem_global: u64,
    /// Its PE's memory ports were full, and the global ones were not.
    /// (At the paper's limits its issue slots are then full too.)
    mem_per_pe: u64,
}

/// Reference backend scheduler: the same dataflow list scheduling as
/// `Backend`, with separate rings (issue slots and memory ports per
/// PE, global memory ports). It also counts why instructions waited.
struct RefBackend {
    config: BackendConfig,
    reg_ready: [(u64, usize); NUM_REGS],
    issue_slots: Vec<RefRing>,
    mem_global: RefRing,
    mem_per_pe: Vec<RefRing>,
    dcache: DataCache,
    pe_free_at: Vec<u64>,
    next_pe: usize,
    delays: Delays,
}

impl RefBackend {
    fn new(config: BackendConfig) -> Self {
        RefBackend {
            config,
            reg_ready: [(0, 0); NUM_REGS],
            issue_slots: (0..config.pe_count).map(|_| RefRing::new()).collect(),
            mem_global: RefRing::new(),
            mem_per_pe: (0..config.pe_count).map(|_| RefRing::new()).collect(),
            dcache: DataCache::new(),
            pe_free_at: vec![0; config.pe_count],
            next_pe: 0,
            delays: Delays::default(),
        }
    }

    fn dispatch(
        &mut self,
        dt: &DynTrace,
        dispatch_cycle: u64,
        use_preprocess: bool,
    ) -> TraceTiming {
        let pe = (0..self.config.pe_count)
            .map(|k| (self.next_pe + k) % self.config.pe_count)
            .find(|&pe| self.pe_free_at[pe] <= dispatch_cycle)
            .expect("a free PE");
        self.next_pe = (pe + 1) % self.config.pe_count;
        self.pe_free_at[pe] = u64::MAX;

        let instrs = dt.trace.instrs();
        let n = instrs.len();
        let info = dt.trace.preprocess_info().filter(|_| use_preprocess);
        let earliest = dispatch_cycle + 1;
        let mut deps = [0u16; MAX_TRACE_LEN];
        let mut ext_ready = [earliest; MAX_TRACE_LEN];
        let mut last_writer: [Option<usize>; NUM_REGS] = [None; NUM_REGS];
        for (i, ti) in instrs.iter().enumerate() {
            for src in ti.op.sources() {
                match last_writer[src.index()] {
                    Some(w) => deps[i] |= 1 << w,
                    None => {
                        let (avail, producer) = self.reg_ready[src.index()];
                        let bus = if producer == pe { 0 } else { BUS_DELAY };
                        ext_ready[i] = ext_ready[i].max(avail + bus);
                    }
                }
            }
            if let Some(rd) = ti.op.dest() {
                last_writer[rd.index()] = Some(i);
            }
        }
        let order: Vec<usize> = match info {
            Some(inf) => {
                deps = inf.deps;
                inf.order().iter().map(|&i| usize::from(i)).collect()
            }
            None => (0..n).collect(),
        };

        let mut done = [0u64; MAX_TRACE_LEN];
        let mut started = [0u64; MAX_TRACE_LEN];
        for i in order {
            let class = instrs[i].op.class();
            let ready = if info.is_some_and(|inf| inf.const_folded[i]) {
                earliest
            } else {
                (0..n)
                    .filter(|&j| deps[i] & 1 << j != 0)
                    .map(|j| done[j] + 1)
                    .fold(ext_ready[i], u64::max)
            };
            let is_mem = matches!(class, OpClass::Load | OpClass::Store);
            let mut c = ready;
            loop {
                let issue_full = self.issue_slots[pe].count(c) >= ISSUE_PER_PE;
                let global_full = is_mem && self.mem_global.count(c) >= MEM_PORTS_GLOBAL;
                let pe_ports_full = is_mem && self.mem_per_pe[pe].count(c) >= MEM_PORTS_PER_PE;
                match (issue_full, global_full, pe_ports_full) {
                    (false, false, false) => break,
                    (true, false, false) => self.delays.issue += 1,
                    (false, true, false) => self.delays.mem_global += 1,
                    (_, false, true) => self.delays.mem_per_pe += 1,
                    _ => {}
                }
                c += 1;
            }
            self.issue_slots[pe].inc(c);
            if is_mem {
                self.mem_global.inc(c);
                self.mem_per_pe[pe].inc(c);
            }
            let lat = u64::from(op_latency(class))
                + match class {
                    OpClass::Load => u64::from(self.dcache.load(dt.mem_addrs[i].unwrap())),
                    OpClass::Store => {
                        let _ = self.dcache.store(dt.mem_addrs[i].unwrap());
                        0
                    }
                    _ => 0,
                };
            started[i] = c;
            done[i] = c + lat - 1;
        }
        for (ready, w) in self.reg_ready.iter_mut().zip(last_writer) {
            if let Some(i) = w {
                *ready = (done[i] + 1, pe);
            }
        }
        let complete = done[..n].iter().copied().max().unwrap_or(dispatch_cycle);
        let last_resolve = (0..n)
            .filter(|&i| instrs[i].op.class() == OpClass::Branch)
            .map(|i| done[i])
            .max()
            .unwrap_or(complete);
        TraceTiming {
            pe,
            complete,
            last_resolve,
            len: n,
            exec_start: started,
            exec_done: done,
        }
    }
}

/// A random configuration the backend accepts: 1 to 7 PEs.
fn random_config(rng: &mut XorShift64) -> BackendConfig {
    BackendConfig {
        pe_count: rng.next_in(1, 7) as usize,
    }
}

/// The one shared per-cycle ring schedules exactly like separate
/// rings per resource: over long random dispatch streams whose cycles
/// wrap the ring many times, with and without preprocessing, on the
/// paper's configuration and on random PE counts (so every lane
/// offset of the packed usage word is exercised), every `TraceTiming`
/// is equal. Retirement follows the simulator's discipline: in order,
/// once a trace has completed or its PE is needed. On the paper's
/// configuration, each issue and port limit alone delays some
/// instruction.
#[test]
fn shared_ring_matches_separate_rings() {
    let mut rng = XorShift64::new(0x5E9A_4A7E);
    let paper = BackendConfig::default();
    let mut paper_delays = Delays::default();
    for case in 0..CASES / 8 {
        let config = if case % 2 == 0 {
            paper
        } else {
            random_config(&mut rng)
        };
        let use_preprocess = rng.chance(1, 2);
        let mut dut = Backend::new(config);
        let mut reference = RefBackend::new(config);
        let mut inflight: VecDeque<(usize, u64)> = VecDeque::new();
        let mut cycle = 0;
        for k in 0..rng.next_in(200, 1500) {
            let mut dt = build_dyn_trace(&random_ops(&mut rng));
            for a in dt.mem_addrs.iter_mut().flatten() {
                *a = u64::from(rng.next_below(1 << 18));
            }
            if use_preprocess {
                let info = preprocess(&dt.trace);
                dt.trace.set_preprocess(info);
            }
            cycle += u64::from(match rng.next_below(16) {
                0 => rng.next_below(9000),
                1..=8 => 0,
                _ => rng.next_below(8),
            });
            while let Some(&(pe, complete)) = inflight.front() {
                let full = inflight.len() >= config.pe_count || !dut.pe_available(cycle);
                if complete > cycle && !full {
                    break;
                }
                cycle = cycle.max(complete);
                dut.release_pe(pe, cycle);
                reference.pe_free_at[pe] = cycle;
                inflight.pop_front();
            }
            let t = dut.dispatch(&dt, cycle, use_preprocess);
            let r = reference.dispatch(&dt, cycle, use_preprocess);
            let at = format!("case {case} ({config:?}), trace {k} at cycle {cycle}");
            assert_eq!(
                (t.pe, t.complete, t.last_resolve, t.len),
                (r.pe, r.complete, r.last_resolve, r.len),
                "{at}"
            );
            assert_eq!(t.exec_start, r.exec_start, "{at}");
            assert_eq!(t.exec_done, r.exec_done, "{at}");
            inflight.push_back((t.pe, t.complete));
        }
        if config == paper {
            let d = &reference.delays;
            paper_delays.issue += d.issue;
            paper_delays.mem_global += d.mem_global;
            paper_delays.mem_per_pe += d.mem_per_pe;
        }
    }
    let d = &paper_delays;
    assert!(
        d.issue > 0 && d.mem_global > 0 && d.mem_per_pe > 0,
        "a limit never delayed an instruction alone: {d:?}"
    );
}

/// The backend rejects PE counts its packed per-cycle usage word
/// cannot count: more than 7, or none.
#[test]
fn out_of_range_configs_are_rejected() {
    for pe_count in [0, 8] {
        let result = std::panic::catch_unwind(|| Backend::new(BackendConfig { pe_count }));
        assert!(result.is_err(), "{pe_count} PEs were accepted");
    }
}
