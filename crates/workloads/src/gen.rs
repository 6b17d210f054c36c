//! CFG-structured program generation.

use crate::profile::{Benchmark, Profile};
use tpc_isa::model::{IndirectModel, OutcomeModel, XorShift64};
use tpc_isa::{Addr, BranchCond, Op, Program, ProgramBuilder, Reg};

/// Builder for a synthetic benchmark program.
///
/// ```
/// use tpc_workloads::{Benchmark, WorkloadBuilder};
///
/// let p = WorkloadBuilder::new(Benchmark::Compress).seed(42).build();
/// let q = WorkloadBuilder::new(Benchmark::Compress).seed(42).build();
/// assert_eq!(p.len(), q.len()); // deterministic for a given seed
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    benchmark: Option<Benchmark>,
    profile: Profile,
    label: String,
    seed: u64,
    scale_permille: u32,
}

impl WorkloadBuilder {
    /// Starts a builder for `benchmark` with seed 0 at natural scale.
    pub fn new(benchmark: Benchmark) -> Self {
        WorkloadBuilder {
            benchmark: Some(benchmark),
            profile: benchmark.profile(),
            label: benchmark.name().to_string(),
            seed: 0,
            scale_permille: 1000,
        }
    }

    /// Starts a builder over a custom [`Profile`] — for sensitivity
    /// studies (e.g. sweeping the branch-bias mix) and user-defined
    /// workloads.
    pub fn from_profile(label: impl Into<String>, profile: Profile) -> Self {
        WorkloadBuilder {
            benchmark: None,
            profile,
            label: label.into(),
            seed: 0,
            scale_permille: 1000,
        }
    }

    /// Sets the generation seed (different seeds give different —
    /// but statistically equivalent — programs).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Scales the static footprint: 500 halves the function count,
    /// 2000 doubles it. Used by ablation studies.
    pub fn scale_permille(mut self, scale: u32) -> Self {
        self.scale_permille = scale.max(1);
        self
    }

    /// The benchmark this builder mirrors, when it is one of the
    /// SPECint95 profiles rather than a custom profile.
    pub fn benchmark(&self) -> Option<Benchmark> {
        self.benchmark
    }

    /// Human-readable workload label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The profile the builder will generate from.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Generates the program.
    ///
    /// # Panics
    ///
    /// Panics only on internal generator bugs (the emitted program
    /// fails `Program` validation) — generation itself cannot fail.
    pub fn build(&self) -> Program {
        let mut g = Generator::new(&self.profile, self.seed, self.scale_permille);
        g.emit(&self.label)
    }
}

/// Scratch registers the generator cycles through for block bodies
/// (avoiding r0/LINK and the loop-counter registers r26–r28).
const SCRATCH: [u8; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];
/// Registers carrying per-function base addresses for loads/stores.
const BASE: [u8; 4] = [20, 21, 22, 23];

struct Generator<'p> {
    profile: &'p Profile,
    rng: XorShift64,
    b: ProgramBuilder,
    fn_entries: Vec<Addr>,
    functions: u32,
    /// Call constructs emitted in the function being generated; the
    /// per-function cap keeps the dynamic call tree subcritical
    /// (expected calls per activation < 1), which bounds pass length.
    calls_in_fn: u32,
}

impl<'p> Generator<'p> {
    fn new(profile: &'p Profile, seed: u64, scale_permille: u32) -> Self {
        let functions = ((profile.functions as u64 * scale_permille as u64) / 1000).max(1) as u32;
        Generator {
            profile,
            rng: XorShift64::new(profile.base_seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            b: ProgramBuilder::new(),
            fn_entries: Vec::with_capacity(functions as usize),
            functions,
            calls_in_fn: 0,
        }
    }

    fn range(&mut self, (lo, hi): (u32, u32)) -> u32 {
        debug_assert!(lo <= hi);
        lo + self.rng.next_below(hi - lo + 1)
    }

    fn reg(&mut self) -> Reg {
        Reg::new(SCRATCH[self.rng.next_below(SCRATCH.len() as u32) as usize])
    }

    fn base_reg(&mut self) -> Reg {
        Reg::new(BASE[self.rng.next_below(BASE.len() as u32) as usize])
    }

    fn emit(&mut self, label: &str) -> Program {
        for i in 0..self.functions {
            self.emit_function(i);
        }
        self.emit_main();
        let program = std::mem::take(&mut self.b)
            .build()
            .expect("generator emits valid programs");
        debug_assert!(!program.is_empty(), "generated {label} is non-empty");
        program
    }

    /// One function: base-register setup, a few constructs, return.
    fn emit_function(&mut self, index: u32) {
        self.calls_in_fn = 0;
        let entry = self.b.here();
        // Seed the function's memory base registers so load/store
        // addresses differ per function but stay in the footprint.
        for (i, &br) in BASE.iter().enumerate() {
            let offset = (self.rng.next_below(1 << 18) as i32) + i as i32 * 64;
            self.b.push(Op::LoadImm {
                rd: Reg::new(br),
                imm: offset,
            });
        }
        let constructs = self.range(self.profile.constructs_per_fn);
        for _ in 0..constructs {
            self.emit_construct(index, entry, 0);
        }
        self.b.push(Op::Return);
        self.b.record_function(format!("f{index}"), entry);
        self.fn_entries.push(entry);
    }

    fn emit_construct(&mut self, fn_index: u32, fn_entry: Addr, depth: u32) {
        let w = self.profile.weights;
        // Nested constructs (inside loop/if bodies) are restricted to
        // non-call shapes: a call inside a loop multiplies the whole
        // callee subtree by the trip count, which makes dynamic pass
        // length explode combinatorially for deep call DAGs.
        if depth > 0 {
            if self.rng.chance(w.if_else, (w.straight + w.if_else).max(1)) {
                self.emit_if_else(fn_index, fn_entry, depth);
            } else {
                self.emit_block();
            }
            return;
        }
        let mut pick = self.rng.next_below(w.total());
        let mut choose = |weight: u32| {
            if pick < weight {
                true
            } else {
                pick -= weight;
                false
            }
        };
        if choose(w.straight) {
            self.emit_block();
        } else if choose(w.looped) {
            self.emit_loop(fn_index, fn_entry, depth);
        } else if choose(w.if_else) {
            self.emit_if_else(fn_index, fn_entry, depth);
        } else if choose(w.call) {
            self.emit_call(fn_index);
        } else if choose(w.switch) {
            self.emit_switch();
        } else {
            self.emit_recursion(fn_entry);
        }
    }

    /// A straight-line block with a realistic mix: ~45 % ALU, ~25 %
    /// loads, ~10 % stores, ~8 % logic, small tail of mul/shift.
    ///
    /// Dependences are chain-heavy, as in integer code: roughly half
    /// the operations consume the previous result (accumulator and
    /// address chains), and some loads chase the previous load's
    /// value as a base (pointer chasing) — the serial chains that
    /// trace preprocessing's collapsing pays off on.
    fn emit_block(&mut self) {
        let len = self.range(self.profile.block_len);
        let mut last_dest: Option<Reg> = None;
        for _ in 0..len {
            let rd = self.reg();
            let mut rs1 = self.reg();
            let rs2 = self.reg();
            if let Some(prev) = last_dest {
                if self.rng.chance(1, 2) {
                    rs1 = prev; // chain on the previous result
                }
            }
            let op = match self.rng.next_below(100) {
                0..=24 => Op::Add { rd, rs1, rs2 },
                25..=44 => Op::AddImm {
                    rd,
                    rs1,
                    imm: self.rng.next_below(256) as i32 - 128,
                },
                45..=69 => {
                    let base = match last_dest {
                        // Pointer chase: the previous value is the base.
                        Some(prev) if self.rng.chance(3, 10) => prev,
                        _ => self.base_reg(),
                    };
                    Op::Load {
                        rd,
                        base,
                        offset: (self.rng.next_below(64) * 8) as i32,
                    }
                }
                70..=79 => {
                    let base = self.base_reg();
                    Op::Store {
                        src: rs1,
                        base,
                        offset: (self.rng.next_below(64) * 8) as i32,
                    }
                }
                80..=87 => Op::Xor { rd, rs1, rs2 },
                88..=93 => Op::Sub { rd, rs1, rs2 },
                94..=96 => Op::Shl {
                    rd,
                    rs1,
                    shamt: (self.rng.next_below(3) + 1) as u8,
                },
                _ => Op::Mul { rd, rs1, rs2 },
            };
            if op.dest().is_some() {
                last_dest = op.dest();
            }
            self.b.push(op);
        }
    }

    /// `top: body...; bne --, --, top` with a `Loop{trip}` model.
    fn emit_loop(&mut self, fn_index: u32, fn_entry: Addr, depth: u32) {
        let trip = self.range(self.profile.loop_trip);
        let top = self.b.here();
        self.emit_block();
        // Shallow nesting keeps loop bodies interesting without
        // exploding function size.
        if depth < 1 && self.rng.chance(1, 3) {
            self.emit_construct(fn_index, fn_entry, depth + 1);
        }
        let (rs1, rs2) = (self.reg(), self.reg());
        self.b.push_branch(
            Op::Branch {
                cond: BranchCond::Ne,
                rs1,
                rs2,
                target: top,
            },
            OutcomeModel::Loop { trip },
        );
    }

    /// A diamond: `b<cond> else; then...; jmp join; else: ...; join:`.
    fn emit_if_else(&mut self, fn_index: u32, fn_entry: Addr, depth: u32) {
        let model = self.branch_bias();
        let (rs1, rs2) = (self.reg(), self.reg());
        let branch_at = self.b.push_branch(
            // Target patched once the else arm's address is known.
            Op::Branch {
                cond: BranchCond::Eq,
                rs1,
                rs2,
                target: Addr::ZERO,
            },
            model,
        );
        // Then arm.
        self.emit_block();
        if depth < 1 && self.rng.chance(1, 4) {
            self.emit_construct(fn_index, fn_entry, depth + 1);
        }
        let jmp_at = self.b.push(Op::Jump { target: Addr::ZERO });
        // Else arm.
        let else_at = self.b.here();
        self.emit_block();
        let join = self.b.here();
        self.b.patch(
            branch_at,
            Op::Branch {
                cond: BranchCond::Eq,
                rs1,
                rs2,
                target: else_at,
            },
        );
        self.b.patch(jmp_at, Op::Jump { target: join });
    }

    /// A call to an earlier-generated function in the same phase
    /// group (bounding call depth and keeping each phase's code
    /// working set within its group).
    fn emit_call(&mut self, fn_index: u32) {
        let group_size = (self.functions / self.profile.phase_groups.max(1)).max(1);
        let group_start = (fn_index / group_size) * group_size;
        if fn_index == group_start || self.calls_in_fn >= 1 {
            // First function of its group (nothing below to call), or
            // the subcriticality cap is reached.
            self.emit_block();
            return;
        }
        self.calls_in_fn += 1;
        // Half the calls go to a near-below neighbour (covering the
        // group densely), half anywhere below in the group.
        let span = fn_index - group_start;
        let callee = if self.rng.chance(1, 2) {
            fn_index - 1 - self.rng.next_below(span.min(4))
        } else {
            group_start + self.rng.next_below(span)
        };
        let target = self.fn_entries[callee as usize];
        self.b.push(Op::Call { target });
    }

    /// `jr` over 3–8 arms, each a small block jumping to the join.
    fn emit_switch(&mut self) {
        let arms = 3 + self.rng.next_below(6);
        let seed = self.rng.next_u64();
        let jr_reg = self.reg();
        let jr_at = self.b.push_indirect(
            Op::IndirectJump { rs1: jr_reg },
            // Placeholder: arm addresses are patched in below.
            IndirectModel::uniform(vec![Addr::ZERO], seed),
        );
        let mut arm_addrs = Vec::with_capacity(arms as usize);
        let mut jumps = Vec::with_capacity(arms as usize);
        for _ in 0..arms {
            arm_addrs.push(self.b.here());
            self.emit_block();
            jumps.push(self.b.push(Op::Jump { target: Addr::ZERO }));
        }
        let join = self.b.here();
        for j in jumps {
            self.b.patch(j, Op::Jump { target: join });
        }
        // Skewed arm weights: interpreters execute a few opcodes most
        // of the time.
        let weights: Vec<u32> = (0..arms).map(|i| 1 + arms - i).collect();
        self.b
            .set_indirect_model(jr_at, IndirectModel::weighted(arm_addrs, weights, seed));
    }

    /// Bounded self-recursion: `beq --,--, skip; call self; skip:`
    /// guarded by a `Loop{trip}` model, so each activation recurses
    /// `trip - 1` levels deep before unwinding.
    fn emit_recursion(&mut self, fn_entry: Addr) {
        if self.calls_in_fn >= 1 {
            self.emit_block();
            return;
        }
        self.calls_in_fn += 1;
        let depth = 2 + self.rng.next_below(4);
        let (rs1, rs2) = (self.reg(), self.reg());
        let branch_at = self.b.push_branch(
            Op::Branch {
                cond: BranchCond::Eq,
                rs1,
                rs2,
                target: Addr::ZERO,
            },
            // taken = recurse again; exits (not-taken) every `depth`.
            OutcomeModel::Loop { trip: depth },
        );
        self.b.push(Op::Call { target: fn_entry });
        let skip = self.b.here();
        // Ensure `skip` differs from the call address by at least one
        // instruction so the branch target is meaningful.
        self.b.push(Op::Nop);
        self.b.patch(
            branch_at,
            Op::Branch {
                cond: BranchCond::Eq,
                rs1,
                rs2,
                target: skip,
            },
        );
    }

    /// Draws an if-else branch bias from the profile's mix.
    fn branch_bias(&mut self) -> OutcomeModel {
        let seed = self.rng.next_u64();
        if self.rng.chance(self.profile.strongly_biased_permille, 1000) {
            if self.rng.chance(1, 2) {
                OutcomeModel::Biased {
                    num: 39,
                    denom: 40,
                    seed,
                }
            } else {
                OutcomeModel::Biased {
                    num: 1,
                    denom: 40,
                    seed,
                }
            }
        } else {
            let num = 6 + self.rng.next_below(9); // 30–70 %
            OutcomeModel::Biased {
                num,
                denom: 20,
                seed,
            }
        }
    }

    /// `main`: for each phase group, a counted loop calling the
    /// group's root functions — the working-set rotation that drives
    /// trace-cache capacity behaviour.
    fn emit_main(&mut self) {
        let main_entry = self.b.here();
        let groups = self.profile.phase_groups.max(1);
        let group_size = (self.functions / groups).max(1);
        for g in 0..groups {
            let lo = g * group_size;
            let hi = if g == groups - 1 {
                self.functions
            } else {
                (g + 1) * group_size
            };
            let top = self.b.here();
            // Call the top few functions of the group: they sit at
            // the root of the group's call DAG.
            let roots = self.profile.roots_per_group.min(hi - lo);
            for r in 0..roots {
                let target = self.fn_entries[(hi - 1 - r) as usize];
                self.b.push(Op::Call { target });
            }
            let (rs1, rs2) = (self.reg(), self.reg());
            self.b.push_branch(
                Op::Branch {
                    cond: BranchCond::Ne,
                    rs1,
                    rs2,
                    target: top,
                },
                OutcomeModel::Loop {
                    trip: self.profile.reps_per_group.max(1),
                },
            );
        }
        self.b.push(Op::Halt);
        self.b.record_function("main", main_entry);
        self.b.set_entry(main_entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpc_exec::Executor;
    use tpc_isa::OpClass;

    #[test]
    fn all_benchmarks_generate_valid_programs() {
        for b in Benchmark::ALL {
            let p = WorkloadBuilder::new(b).seed(1).build();
            assert!(p.len() > 50, "{b} too small: {}", p.len());
            assert!(p.functions().len() as u32 >= b.profile().functions);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = WorkloadBuilder::new(Benchmark::Perl).seed(9).build();
        let b = WorkloadBuilder::new(Benchmark::Perl).seed(9).build();
        assert_eq!(a.code(), b.code());
    }

    #[test]
    fn different_seeds_differ() {
        let a = WorkloadBuilder::new(Benchmark::Li).seed(1).build();
        let b = WorkloadBuilder::new(Benchmark::Li).seed(2).build();
        assert_ne!(a.code(), b.code());
    }

    #[test]
    fn footprint_ordering_matches_profiles() {
        let size = |b: Benchmark| WorkloadBuilder::new(b).seed(1).build().len();
        assert!(size(Benchmark::Gcc) > 4 * size(Benchmark::Li));
        assert!(size(Benchmark::Compress) < 2_000);
        assert!(size(Benchmark::Gcc) > 15_000);
    }

    #[test]
    fn scale_shrinks_footprint() {
        let full = WorkloadBuilder::new(Benchmark::Gcc).seed(1).build().len();
        let half = WorkloadBuilder::new(Benchmark::Gcc)
            .seed(1)
            .scale_permille(500)
            .build()
            .len();
        assert!(half < full * 6 / 10, "half {half} vs full {full}");
    }

    #[test]
    fn every_benchmark_executes_a_million_instructions() {
        for b in Benchmark::ALL {
            let p = WorkloadBuilder::new(b).seed(1).build();
            let mut ex = Executor::new(&p);
            for _ in 0..1_000_000 {
                ex.next();
            }
            assert_eq!(ex.retired(), 1_000_000);
        }
    }

    #[test]
    fn dynamic_stream_covers_phases() {
        // Running long enough must revisit main (completions > 0) or
        // at least touch a decent fraction of the static code.
        let p = WorkloadBuilder::new(Benchmark::Li).seed(1).build();
        let mut ex = Executor::new(&p);
        let mut touched = std::collections::BTreeSet::new();
        for _ in 0..2_000_000 {
            let d = ex.next().unwrap();
            touched.insert(d.pc);
        }
        let coverage = touched.len() as f64 / p.len() as f64;
        assert!(coverage > 0.3, "dynamic coverage {coverage:.2}");
    }

    #[test]
    fn branch_mix_reflects_profile() {
        let p = WorkloadBuilder::new(Benchmark::Vortex).seed(1).build();
        let mut strong = 0u32;
        let mut total = 0u32;
        for (addr, op) in p.iter() {
            if op.class() == OpClass::Branch {
                let model = p.branch_model(addr).expect("model attached");
                // Only classify if-else biased branches (loops are
                // always strongly biased by construction).
                if let tpc_isa::model::OutcomeModel::Biased { .. } = model {
                    total += 1;
                    if model.is_strongly_biased() {
                        strong += 1;
                    }
                }
            }
        }
        assert!(total > 100);
        let permille = strong * 1000 / total;
        assert!(
            (820..=980).contains(&permille),
            "vortex strong-bias fraction {permille}‰"
        );
    }

    #[test]
    fn go_explores_more_paths_than_vortex() {
        // Weak biases mean more distinct branch outcomes; sample the
        // dynamic stream and count unique (pc → direction) pairs that
        // flip.
        let count_flippy = |b: Benchmark| {
            let p = WorkloadBuilder::new(b).seed(1).build();
            let mut ex = Executor::new(&p);
            let mut seen: std::collections::BTreeMap<u32, (bool, bool)> =
                std::collections::BTreeMap::new();
            for _ in 0..500_000 {
                let d = ex.next().unwrap();
                if matches!(d.op.class(), OpClass::Branch) {
                    let e = seen.entry(d.pc.word()).or_insert((false, false));
                    if d.taken {
                        e.0 = true;
                    } else {
                        e.1 = true;
                    }
                }
            }
            let both = seen.values().filter(|(t, n)| *t && *n).count();
            let total = seen.len().max(1);
            both * 1000 / total
        };
        assert!(
            count_flippy(Benchmark::Go) > count_flippy(Benchmark::Vortex),
            "go's branches flip direction more often"
        );
    }

    #[test]
    fn calls_and_returns_balance_in_stream() {
        let p = WorkloadBuilder::new(Benchmark::Gcc).seed(1).build();
        let mut ex = Executor::new(&p);
        let mut depth: i64 = 0;
        let mut max_depth: i64 = 0;
        for _ in 0..500_000 {
            let d = ex.next().unwrap();
            match d.op.class() {
                OpClass::Call => depth += 1,
                OpClass::Return => depth -= 1,
                OpClass::Halt => depth = 0, // restart clears the stack
                _ => {}
            }
            max_depth = max_depth.max(depth);
        }
        assert!(depth >= 0, "returns never outnumber calls");
        assert!(max_depth >= 2, "some nesting occurs (max {max_depth})");
    }

    #[test]
    fn switch_benchmarks_execute_indirect_jumps() {
        let p = WorkloadBuilder::new(Benchmark::Perl).seed(1).build();
        let mut ex = Executor::new(&p);
        let indirects = (0..500_000)
            .filter(|_| ex.next().unwrap().op.class() == OpClass::IndirectJump)
            .count();
        assert!(indirects > 100, "perl executes switches: {indirects}");
    }
}
