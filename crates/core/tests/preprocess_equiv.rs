//! The inline-array preprocessing pipeline against a reference port
//! of the `Vec`-based pipeline it replaced, on seeded random traces:
//! dependence sets, constant folds, collapses and the issue schedule
//! must all agree.

use tpc_core::preprocess::{latency::op_latency, preprocess};
use tpc_core::{PushResult, Resolution, Trace, TraceBuilder, MAX_TRACE_LEN};
use tpc_isa::model::XorShift64;
use tpc_isa::{Addr, BranchCond, Op, OpClass, Reg};

const CASES: u32 = 4000;

/// The pipeline's output as the reference computes it: dependence
/// lists (in the order the reference builds them), folds, collapses
/// and the issue schedule.
struct Reference {
    deps: Vec<Vec<u8>>,
    const_folded: Vec<bool>,
    collapsed: Vec<Option<u8>>,
    schedule: Vec<u8>,
}

fn ref_trace_deps(trace: &Trace) -> Vec<Vec<u8>> {
    let mut last_writer: [Option<u8>; tpc_isa::NUM_REGS] = [None; tpc_isa::NUM_REGS];
    let mut deps = Vec::with_capacity(trace.len());
    for (i, ti) in trace.instrs().iter().enumerate() {
        let mut d: Vec<u8> = Vec::new();
        for src in ti.op.sources().iter() {
            if let Some(w) = last_writer[src.index()] {
                if !d.contains(&w) {
                    d.push(w);
                }
            }
        }
        deps.push(d);
        if let Some(rd) = ti.op.dest() {
            last_writer[rd.index()] = Some(i as u8); // narrow: i < 16
        }
    }
    deps
}

fn ref_simple_producer(op: &Op) -> bool {
    matches!(
        op,
        Op::Add { .. }
            | Op::Sub { .. }
            | Op::AddImm { .. }
            | Op::LoadImm { .. }
            | Op::Shl { shamt: 0..=3, .. }
    )
}

fn ref_simple_consumer(op: &Op) -> bool {
    matches!(
        op,
        Op::Add { .. }
            | Op::Sub { .. }
            | Op::AddImm { .. }
            | Op::And { .. }
            | Op::Or { .. }
            | Op::Xor { .. }
    )
}

fn ref_preprocess(trace: &Trace) -> Reference {
    let n = trace.len();
    let instrs = trace.instrs();
    let mut known: [Option<i64>; tpc_isa::NUM_REGS] = [None; tpc_isa::NUM_REGS];
    let mut const_folded = vec![false; n];
    for (i, ti) in instrs.iter().enumerate() {
        let op = &ti.op;
        let val = |r: Reg| -> Option<i64> {
            if r.is_zero() {
                Some(0)
            } else {
                known[r.index()]
            }
        };
        let computed: Option<i64> = (|| match *op {
            Op::LoadImm { imm, .. } => Some(imm as i64),
            Op::Add { rs1, rs2, .. } => Some(val(rs1)?.wrapping_add(val(rs2)?)),
            Op::Sub { rs1, rs2, .. } => Some(val(rs1)?.wrapping_sub(val(rs2)?)),
            Op::And { rs1, rs2, .. } => Some(val(rs1)? & val(rs2)?),
            Op::Or { rs1, rs2, .. } => Some(val(rs1)? | val(rs2)?),
            Op::Xor { rs1, rs2, .. } => Some(val(rs1)? ^ val(rs2)?),
            Op::Shl { rs1, shamt, .. } => {
                Some((val(rs1)? as u64).wrapping_shl(shamt as u32) as i64)
            }
            Op::Shr { rs1, shamt, .. } => Some(((val(rs1)? as u64) >> shamt as u32) as i64),
            Op::AddImm { rs1, imm, .. } => Some(val(rs1)?.wrapping_add(imm as i64)),
            Op::Mul { rs1, rs2, .. } => Some(val(rs1)?.wrapping_mul(val(rs2)?)),
            Op::Call { .. } => Some(ti.pc.next().word() as i64),
            _ => None,
        })();
        match (op.dest(), computed) {
            (Some(rd), Some(v)) => {
                known[rd.index()] = Some(v);
                if !matches!(op, Op::LoadImm { .. }) {
                    const_folded[i] = true;
                }
            }
            (Some(rd), None) => known[rd.index()] = None,
            _ => {}
        }
    }

    let raw = ref_trace_deps(trace);
    let mut deps: Vec<Vec<u8>> = raw
        .iter()
        .enumerate()
        .map(|(i, d)| {
            if const_folded[i] {
                Vec::new()
            } else {
                d.clone()
            }
        })
        .collect();

    let mut collapsed = vec![None; n];
    for i in 0..n {
        if const_folded[i] || !ref_simple_consumer(&instrs[i].op) {
            continue;
        }
        let candidate = deps[i].iter().copied().find(|&j| {
            let j = j as usize;
            ref_simple_producer(&instrs[j].op) && collapsed[j].is_none() && !const_folded[j]
        });
        if let Some(j) = candidate {
            collapsed[i] = Some(j);
            let mut nd: Vec<u8> = deps[i].iter().copied().filter(|&d| d != j).collect();
            for &jd in &deps[j as usize] {
                if !nd.contains(&jd) {
                    nd.push(jd);
                }
            }
            deps[i] = nd;
        }
    }

    let mut consumers: Vec<Vec<u8>> = vec![Vec::new(); n];
    for (i, d) in deps.iter().enumerate() {
        for &j in d {
            consumers[j as usize].push(i as u8);
        }
    }
    let mut height = vec![0u32; n];
    for i in (0..n).rev() {
        let lat = op_latency(instrs[i].op.class());
        let tail = consumers[i]
            .iter()
            .map(|&c| height[c as usize])
            .max()
            .unwrap_or(0);
        height[i] = lat + tail;
    }
    let mut schedule: Vec<u8> = (0..n as u8).collect();
    schedule.sort_by(|&a, &b| height[b as usize].cmp(&height[a as usize]).then(a.cmp(&b)));

    Reference {
        deps,
        const_folded,
        collapsed,
        schedule,
    }
}

/// A random op over registers 0..6 (register 0 is the zero
/// register), biased towards the simple ALU ops that fold and
/// collapse; a few branches, calls, loads, stores and multiplies
/// break constant chains and add control flow.
fn random_op(rng: &mut XorShift64, pc: Addr) -> Op {
    let mut reg = || Reg::new(rng.next_below(6) as u8); // narrow: < 6
    let (rd, rs1, rs2) = (reg(), reg(), reg());
    let imm = rng.next_in(0, 8) as i32 - 4; // narrow: in 0..=8
    match rng.next_below(16) {
        0 => Op::LoadImm { rd, imm },
        1 | 2 => Op::Add { rd, rs1, rs2 },
        3 => Op::Sub { rd, rs1, rs2 },
        4 | 5 => Op::AddImm { rd, rs1, imm },
        6 => Op::And { rd, rs1, rs2 },
        7 => Op::Or { rd, rs1, rs2 },
        8 => Op::Xor { rd, rs1, rs2 },
        9 => Op::Shl {
            rd,
            rs1,
            shamt: rng.next_below(6) as u8, // narrow: < 6
        },
        10 => Op::Shr {
            rd,
            rs1,
            shamt: rng.next_below(6) as u8, // narrow: < 6
        },
        11 => Op::Mul { rd, rs1, rs2 },
        12 => Op::Load {
            rd,
            base: rs1,
            offset: imm,
        },
        13 => Op::Store {
            src: rd,
            base: rs1,
            offset: imm,
        },
        14 => Op::Branch {
            cond: BranchCond::Ne,
            rs1,
            rs2,
            target: Addr::new(pc.word() + 2),
        },
        _ => Op::Call {
            target: Addr::new(pc.word() + 3),
        },
    }
}

/// Builds one trace of random ops along its own path (up to the
/// 16-instruction cap, or ended early by a `ret`).
fn random_trace(rng: &mut XorShift64) -> Trace {
    let len = rng.next_in(1, MAX_TRACE_LEN as u32 + 2);
    let mut b = TraceBuilder::new(Addr::ZERO);
    let mut pc = Addr::ZERO;
    for i in 0..len {
        let op = if i + 1 == len {
            Op::Return
        } else {
            random_op(rng, pc)
        };
        let res = if op.class() == OpClass::Branch {
            let taken = rng.chance(1, 2);
            Resolution::Branch {
                taken,
                next_pc: if taken {
                    op.static_target().expect("branches have targets")
                } else {
                    pc.next()
                },
            }
        } else {
            Resolution::None
        };
        match b.push(pc, op, res) {
            PushResult::Continue(next) => pc = next,
            PushResult::Complete(t) => return t,
        }
    }
    unreachable!("the final return completes the trace")
}

fn mask(list: &[u8]) -> u16 {
    list.iter().fold(0, |m, &j| m | 1 << j)
}

#[test]
fn inline_pipeline_matches_the_vec_reference() {
    let mut rng = XorShift64::new(0x005E_ED0F_C0DE);
    let (mut folds, mut collapses, mut contested, mut reversed) = (0, 0, 0, 0);
    for case in 0..CASES {
        let trace = random_trace(&mut rng);
        let at = format!("case {case}: {:?}", trace.instrs());
        let info = preprocess(&trace);
        let want = ref_preprocess(&trace);
        let n = trace.len();
        assert_eq!(info.len(), n, "{at}");
        for i in 0..n {
            assert_eq!(info.deps[i], mask(&want.deps[i]), "{at}: deps of {i}");
            assert_eq!(
                info.const_folded[i], want.const_folded[i],
                "{at}: fold of {i}"
            );
            assert_eq!(
                info.collapsed[i], want.collapsed[i],
                "{at}: collapse of {i}"
            );
        }
        assert_eq!(info.order(), &want.schedule[..], "{at}: schedule");
        // The unused tail stays at its zero values.
        for i in n..MAX_TRACE_LEN {
            assert_eq!(
                (info.deps[i], info.const_folded[i], info.collapsed[i]),
                (0, false, None),
                "{at}: tail entry {i}"
            );
        }

        folds += info.folded_count();
        collapses += info.collapsed_count();
        // Count the collapses where both sources' producers qualified,
        // the case where source order (not trace order) picks one.
        let raw = ref_trace_deps(&trace);
        let instrs = trace.instrs();
        for (i, c) in want.collapsed.iter().enumerate() {
            if c.is_some()
                && raw[i].len() == 2
                && raw[i].iter().all(|&j| {
                    let j = usize::from(j);
                    matches!(
                        instrs[j].op,
                        Op::Add { .. }
                            | Op::Sub { .. }
                            | Op::AddImm { .. }
                            | Op::LoadImm { .. }
                            | Op::Shl { shamt: 0..=3, .. }
                    ) && want.collapsed[j].is_none()
                        && !want.const_folded[j]
                })
            {
                contested += 1;
                // The first source's producer is the later one: a
                // lowest-bit pick from a mask would choose wrongly.
                if raw[i][0] > raw[i][1] {
                    reversed += 1;
                }
            }
        }
    }
    // The generator must exercise every transformation, including
    // the contested-collapse ordering in both directions.
    assert!(folds > 1000, "only {folds} folds");
    assert!(collapses > 1000, "only {collapses} collapses");
    assert!(contested > 100, "only {contested} contested collapses");
    assert!(
        reversed > 50,
        "only {reversed} reversed contested collapses"
    );
}
