//! Property tests over the backend scheduler: every computed
//! schedule must respect the machine's structural and dataflow
//! constraints, for seeded random traces.

use std::collections::BTreeMap;
use tpc_core::preprocess::{latency::op_latency, preprocess, trace_producers};
use tpc_core::{PushResult, Resolution, TraceBuilder};
use tpc_isa::model::XorShift64;
use tpc_isa::{Addr, Op, OpClass, Reg, NUM_REGS};
use tpc_processor::backend::{Backend, BackendConfig};
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
        let config = BackendConfig::default();
        let mut be = Backend::new(config);
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
        // Issue width: at most `issue_per_pe` starts per cycle, and at
        // most `mem_ports_per_pe` of them memory ops.
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
                count <= u32::from(config.issue_per_pe),
                "{at}: {count} instructions issued in cycle {c}"
            );
        }
        for (&c, &count) in &mem_per_cycle {
            assert!(
                count <= u32::from(config.mem_ports_per_pe),
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
                        let bus = if pe == t.pe { 0 } else { config.bus_delay };
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
