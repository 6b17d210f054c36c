//! Property test: the executor's ALU semantics agree with an
//! independent reference interpreter on seeded random straight-line
//! programs.

use tpc_exec::Executor;
use tpc_isa::model::XorShift64;
use tpc_isa::{Op, ProgramBuilder, Reg};

const CASES: u32 = 512;

#[derive(Debug, Clone, Copy)]
enum AluShape {
    Add(u8, u8, u8),
    Sub(u8, u8, u8),
    And(u8, u8, u8),
    Or(u8, u8, u8),
    Xor(u8, u8, u8),
    Shl(u8, u8, u8),
    Shr(u8, u8, u8),
    AddImm(u8, u8, i32),
    LoadImm(u8, i32),
    Mul(u8, u8, u8),
    Div(u8, u8, u8),
}

/// 1 to 59 ALU instructions over r0..r15, every shape equally likely.
fn shapes(rng: &mut XorShift64) -> Vec<AluShape> {
    let n = rng.next_in(1, 59);
    (0..n)
        .map(|_| {
            let mut reg = || rng.next_below(16) as u8;
            let (a, b, c) = (reg(), reg(), reg());
            let shamt = rng.next_below(32) as u8;
            let imm = rng.next_in(0, 1999) as i32 - 1000;
            match rng.next_below(11) {
                0 => AluShape::Add(a, b, c),
                1 => AluShape::Sub(a, b, c),
                2 => AluShape::And(a, b, c),
                3 => AluShape::Or(a, b, c),
                4 => AluShape::Xor(a, b, c),
                5 => AluShape::Shl(a, b, shamt),
                6 => AluShape::Shr(a, b, shamt),
                7 => AluShape::AddImm(a, b, imm),
                8 => AluShape::LoadImm(a, imm),
                9 => AluShape::Mul(a, b, c),
                _ => AluShape::Div(a, b, c),
            }
        })
        .collect()
}

fn to_op(s: AluShape) -> Op {
    let r = Reg::new;
    match s {
        AluShape::Add(a, b, c) => Op::Add {
            rd: r(a),
            rs1: r(b),
            rs2: r(c),
        },
        AluShape::Sub(a, b, c) => Op::Sub {
            rd: r(a),
            rs1: r(b),
            rs2: r(c),
        },
        AluShape::And(a, b, c) => Op::And {
            rd: r(a),
            rs1: r(b),
            rs2: r(c),
        },
        AluShape::Or(a, b, c) => Op::Or {
            rd: r(a),
            rs1: r(b),
            rs2: r(c),
        },
        AluShape::Xor(a, b, c) => Op::Xor {
            rd: r(a),
            rs1: r(b),
            rs2: r(c),
        },
        AluShape::Shl(a, b, s) => Op::Shl {
            rd: r(a),
            rs1: r(b),
            shamt: s,
        },
        AluShape::Shr(a, b, s) => Op::Shr {
            rd: r(a),
            rs1: r(b),
            shamt: s,
        },
        AluShape::AddImm(a, b, i) => Op::AddImm {
            rd: r(a),
            rs1: r(b),
            imm: i,
        },
        AluShape::LoadImm(a, i) => Op::LoadImm { rd: r(a), imm: i },
        AluShape::Mul(a, b, c) => Op::Mul {
            rd: r(a),
            rs1: r(b),
            rs2: r(c),
        },
        AluShape::Div(a, b, c) => Op::Div {
            rd: r(a),
            rs1: r(b),
            rs2: r(c),
        },
    }
}

/// Independent interpretation of the same semantics.
fn reference(shapes: &[AluShape]) -> [i64; 32] {
    let mut regs = [0i64; 32];
    fn write(regs: &mut [i64; 32], rd: u8, v: i64) {
        if rd != 0 {
            regs[rd as usize] = v;
        }
    }
    for &s in shapes {
        match s {
            AluShape::Add(a, b, c) => {
                let v = regs[b as usize].wrapping_add(regs[c as usize]);
                write(&mut regs, a, v)
            }
            AluShape::Sub(a, b, c) => {
                let v = regs[b as usize].wrapping_sub(regs[c as usize]);
                write(&mut regs, a, v)
            }
            AluShape::And(a, b, c) => {
                let v = regs[b as usize] & regs[c as usize];
                write(&mut regs, a, v)
            }
            AluShape::Or(a, b, c) => {
                let v = regs[b as usize] | regs[c as usize];
                write(&mut regs, a, v)
            }
            AluShape::Xor(a, b, c) => {
                let v = regs[b as usize] ^ regs[c as usize];
                write(&mut regs, a, v)
            }
            AluShape::Shl(a, b, s) => {
                let v = (regs[b as usize] as u64).wrapping_shl(s as u32) as i64;
                write(&mut regs, a, v)
            }
            AluShape::Shr(a, b, s) => {
                let v = ((regs[b as usize] as u64) >> s as u32) as i64;
                write(&mut regs, a, v)
            }
            AluShape::AddImm(a, b, i) => {
                let v = regs[b as usize].wrapping_add(i as i64);
                write(&mut regs, a, v)
            }
            AluShape::LoadImm(a, i) => {
                let v = i as i64;
                write(&mut regs, a, v)
            }
            AluShape::Mul(a, b, c) => {
                let v = regs[b as usize].wrapping_mul(regs[c as usize]);
                write(&mut regs, a, v)
            }
            AluShape::Div(a, b, c) => {
                let d = regs[c as usize];
                let v = if d == 0 {
                    0
                } else {
                    regs[b as usize].wrapping_div(d)
                };
                write(&mut regs, a, v)
            }
        }
    }
    regs
}

#[test]
fn alu_semantics_match_reference() {
    let mut rng = XorShift64::new(0xA1B5_EED5);
    for case in 0..CASES {
        let shapes = shapes(&mut rng);
        // The executor reveals register values through store
        // effective addresses (mem_addr = value & footprint mask).
        let mut b = ProgramBuilder::new();
        for &s in &shapes {
            b.push(to_op(s));
        }
        for i in 0..16u8 {
            b.push(Op::Store {
                src: Reg::ZERO,
                base: Reg::new(i),
                offset: 0,
            });
        }
        b.push(Op::Halt);
        let p = b.build().expect("valid straight-line program");
        let expected = reference(&shapes);

        let mut ex = Executor::new(&p);
        for _ in 0..shapes.len() {
            ex.next();
        }
        const MASK: u64 = (1 << 20) - 1; // executor's data footprint
        for (i, &want) in expected.iter().take(16).enumerate() {
            let d = ex.next().expect("store");
            assert_eq!(
                d.mem_addr,
                Some((want as u64) & MASK),
                "case {case}: register r{i} value mismatch in {shapes:?}"
            );
        }
    }
}
