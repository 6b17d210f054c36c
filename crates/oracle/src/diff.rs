//! The differential runner.
//!
//! Executes every simulator configuration over a program and asserts
//! that each one's retired-instruction stream is *identical* to the
//! stream the golden-model [`Oracle`] produces — the fundamental
//! correctness property of a trace-cache frontend: no matter how
//! traces are built, cached, preconstructed, or promoted, the machine
//! must retire exactly the architectural instruction sequence.
//!
//! The comparison is a probe on the simulator: each instruction is
//! checked against the oracle as it retires, and against the static
//! code at its claimed address. Alongside it the runner re-checks the
//! conservation invariants after every chunk (fetch accounting,
//! buffer occupancy ≤ capacity, start-stack depth ≤ 16+4).
//!
//! Two static-analysis gates bracket every run. Before simulating,
//! the program is linted ([`tpc_analysis::lint()`]) and rejected on
//! structural errors — a malformed fuzzer input would make any
//! divergence report meaningless. During simulation, the same probe
//! checks the engine's activity against the program's
//! [`StaticEnumeration`]: every start point the dispatch
//! stage pushes must name a real call-return or loop-exit construct,
//! and every trace a constructor emits must be statically
//! constructible from its start. These conformance checks run in both
//! the fault-free and fault-injected suites (faults drop or delay
//! preconstruction work but never fabricate it).

use crate::interp::Oracle;
use tpc_analysis::StaticEnumeration;
use tpc_core::{EngineProbe, FaultPlan, Filed, StartReason, TraceBuilder};
use tpc_exec::{Frontend, FrontendSource};
use tpc_isa::{Addr, Program};
use tpc_processor::{Probe, SimConfig, SimStats, Simulator};

/// How many instructions run between invariant checks. Chunking
/// localises invariant failures.
const CHUNK: u64 = 4096;

/// A named simulator configuration under differential test.
#[derive(Debug, Clone)]
pub struct NamedConfig {
    /// Short human-readable name, used in divergence reports.
    pub name: &'static str,
    /// The configuration.
    pub config: SimConfig,
}

/// The standard configuration matrix: every frontend the experiments
/// exercise, sized small so fuzzed programs actually stress
/// replacement, eviction, and the region-priority rules.
pub fn standard_configs() -> Vec<NamedConfig> {
    vec![
        NamedConfig {
            name: "baseline",
            config: SimConfig::baseline(64),
        },
        NamedConfig {
            name: "precon",
            config: SimConfig::with_precon(64, 64),
        },
        NamedConfig {
            name: "combined",
            config: SimConfig::with_precon(64, 64).with_preprocess(),
        },
        NamedConfig {
            name: "unified",
            config: SimConfig::unified(64, 1, 256),
        },
    ]
}

/// A single divergence between a simulator configuration and the
/// oracle (or a violated invariant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Which configuration diverged.
    pub config: &'static str,
    /// Zero-based index into the retired-instruction stream (or the
    /// retirement count at which an invariant failed).
    pub index: u64,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] at retired instruction {}: {}",
            self.config, self.index, self.detail
        )
    }
}

/// Summary of a clean differential run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiffReport {
    /// Configurations exercised.
    pub configs: usize,
    /// Instructions compared per configuration.
    pub instructions: u64,
    /// Instructions compared in the executor cross-check.
    pub executor_checked: u64,
}

/// Cross-checks the source's frontend against the oracle, then runs
/// every configuration in `configs` for at least `instructions`
/// retirements each, comparing retirement streams chunk by chunk.
///
/// Generic over the [`FrontendSource`]: a synthetic [`Program`] runs
/// through the architectural executor, a loaded
/// [`AsmProgram`](tpc_exec::AsmProgram) through the `"asm"` frontend,
/// and so on — statically dispatched, one compiled pipeline per
/// frontend kind.
///
/// Returns the first divergence found, or a summary when everything
/// agrees.
pub fn run_differential<S: FrontendSource>(
    source: &S,
    configs: &[NamedConfig],
    instructions: u64,
) -> Result<DiffReport, Divergence> {
    lint_gate(source.code())?;
    check_frontend(source, instructions)?;

    let enumeration = StaticEnumeration::build(source.code());
    for nc in configs {
        check_config(source, nc, instructions, &enumeration)?;
    }

    Ok(DiffReport {
        configs: configs.len(),
        instructions,
        executor_checked: instructions,
    })
}

/// Summary of a clean fault-injected differential run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultedDiffReport {
    /// Configurations exercised.
    pub configs: usize,
    /// Instructions compared per configuration.
    pub instructions: u64,
    /// Faults injected, summed across configurations.
    pub faults_injected: u64,
    /// Faults that landed on live state, summed across configurations.
    pub faults_landed: u64,
}

/// Runs every configuration with `plan` attached and asserts the
/// retirement stream still matches the golden model exactly — the
/// correctness-neutrality property: preconstruction is hint hardware,
/// so an adversarial fault schedule over its every mechanism may move
/// hit rates and IPC but can never change what retires.
///
/// The frontend cross-check is skipped (faults cannot reach it); the
/// per-chunk invariant checks still run, so a fault that corrupted a
/// structure into an illegal state is caught even if retirement
/// happened to survive.
pub fn run_differential_faulted<S: FrontendSource>(
    source: &S,
    configs: &[NamedConfig],
    instructions: u64,
    plan: FaultPlan,
) -> Result<FaultedDiffReport, Divergence> {
    let mut report = FaultedDiffReport {
        configs: configs.len(),
        instructions,
        ..FaultedDiffReport::default()
    };
    lint_gate(source.code())?;
    let enumeration = StaticEnumeration::build(source.code());
    for nc in configs {
        let faulted = NamedConfig {
            name: nc.name,
            config: nc.config.clone().with_faults(plan),
        };
        let stats = check_config(source, &faulted, instructions, &enumeration)?;
        report.faults_injected += stats.faults.injected();
        report.faults_landed += stats.faults.landed();
    }
    Ok(report)
}

/// Rejects structurally malformed programs before simulation: lint
/// *errors* (a backward branch that is not a loop latch, an indirect
/// jump without targets) make any downstream divergence report
/// meaningless, so they are divergences in their own right.
fn lint_gate(program: &Program) -> Result<(), Divergence> {
    let cfg = tpc_analysis::Cfg::build(program);
    let lints = tpc_analysis::lint(program, &cfg);
    if tpc_analysis::has_errors(&lints) {
        let detail = lints
            .iter()
            .filter(|l| l.level() == tpc_analysis::LintLevel::Error)
            .map(|l| l.to_string())
            .collect::<Vec<_>>()
            .join("; ");
        return Err(Divergence {
            config: "lint",
            index: 0,
            detail,
        });
    }
    Ok(())
}

/// Step-by-step comparison of the source's production [`Frontend`]
/// (e.g. the [`tpc_exec::Executor`]) against the oracle: pc, opcode,
/// branch direction, successor, and effective memory address must all
/// agree at every instruction.
fn check_frontend<S: FrontendSource>(source: &S, instructions: u64) -> Result<(), Divergence> {
    let mut oracle = Oracle::new(source.code());
    let mut fe = source.frontend();
    for i in 0..instructions {
        let want = oracle.step();
        let got = fe.next_retired();
        if got.pc != want.pc
            || got.op != want.op
            || got.taken != want.taken
            || got.next_pc != want.next_pc
            || got.mem_addr != want.mem_addr
        {
            return Err(Divergence {
                config: "executor",
                index: i,
                detail: format!("oracle {want:?} but {} frontend {got:?}", source.id()),
            });
        }
    }
    Ok(())
}

/// The probe that checks a run as it happens: every retired
/// instruction against an oracle stepped in lockstep, every start
/// point and emitted trace against the static enumeration. It keeps
/// the first divergence, with the count of instructions matched
/// before it.
#[derive(Debug)]
struct Lockstep<'a> {
    program: &'a Program,
    oracle: Oracle<'a>,
    enumeration: &'a StaticEnumeration,
    /// Instructions retired and matched so far.
    compared: u64,
    divergence: Option<(u64, String)>,
}

impl Lockstep<'_> {
    fn check(&mut self, result: Result<(), String>) {
        if let Err(detail) = result {
            self.divergence.get_or_insert((self.compared, detail));
        }
    }
}

/// Conformance: every start point pushed and every trace emitted must
/// be in the static enumeration.
impl EngineProbe for Lockstep<'_> {
    fn start_point(&mut self, addr: Addr, reason: StartReason, _seq: u64) {
        if !self.enumeration.is_valid_push(addr, reason) {
            self.check(Err(format!(
                "engine conformance violated: start point {addr:?} pushed with reason \
                 {reason:?} has no matching construct at {:?}",
                Addr::new(addr.word().wrapping_sub(1))
            )));
        }
    }

    fn trace_emitted(&mut self, trace: &TraceBuilder, _filed: Filed) {
        let result = self.enumeration.check_trace(&trace.build());
        self.check(result.map_err(|e| {
            format!(
                "engine conformance violated: emitted trace {:?}: {e}",
                trace.key()
            )
        }));
    }
}

impl Probe for Lockstep<'_> {
    fn retired(&mut self, pc: Addr, taken: bool) {
        if self.divergence.is_some() {
            return;
        }
        let want = self.oracle.step();
        // Conservation: the retired instruction must exist verbatim
        // in the static code at its claimed address — a trace-cache
        // hit can never supply fabricated instructions.
        let static_op = self.program.fetch(pc);
        if static_op != Some(&want.op) {
            let detail = format!("retired pc {pc} does not match static code ({static_op:?})");
            self.check(Err(detail));
        } else if (pc, taken) != (want.pc, want.taken) {
            self.check(Err(format!(
                "oracle retired pc={} taken={} but simulator pc={pc} taken={taken}",
                want.pc, want.taken
            )));
        } else {
            self.compared += 1;
        }
    }
}

/// Runs one simulator configuration and compares its retirement
/// stream against a fresh oracle advanced in lockstep, checking the
/// invariants after every chunk. Returns the final statistics so
/// faulted runs can report injection counts.
fn check_config<S: FrontendSource>(
    source: &S,
    nc: &NamedConfig,
    instructions: u64,
    enumeration: &StaticEnumeration,
) -> Result<SimStats, Divergence> {
    let program = source.code();
    let lockstep = Lockstep {
        program,
        oracle: Oracle::new(program),
        enumeration,
        compared: 0,
        divergence: None,
    };
    let mut sim = Simulator::with_probe(source.frontend(), nc.config.clone(), lockstep);
    while sim.probe().compared < instructions {
        let retired = sim
            .run(CHUNK.min(instructions - sim.probe().compared))
            .retired_instructions;
        let probe = sim.probe();
        let failed = match &probe.divergence {
            Some((index, detail)) => Some((*index, detail.clone())),
            None if probe.compared != retired => {
                let detail = format!("{retired} instructions retired, {} seen", probe.compared);
                Some((probe.compared, detail))
            }
            None => sim
                .check_invariants()
                .err()
                .map(|e| (probe.compared, format!("invariant violated: {e}"))),
        };
        if let Some((index, detail)) = failed {
            return Err(Divergence {
                config: nc.name,
                index,
                detail,
            });
        }
    }
    Ok(sim.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpc_isa::model::OutcomeModel;
    use tpc_isa::{BranchCond, Op, ProgramBuilder, Reg};

    fn tiny_loop() -> Program {
        let mut b = ProgramBuilder::new();
        let top = b.here();
        b.push(Op::AddImm {
            rd: Reg::new(1),
            rs1: Reg::new(1),
            imm: 1,
        });
        b.push_branch(
            Op::Branch {
                cond: BranchCond::Ne,
                rs1: Reg::new(1),
                rs2: Reg::ZERO,
                target: top,
            },
            OutcomeModel::Loop { trip: 3 },
        );
        b.push(Op::Halt);
        b.build().unwrap()
    }

    #[test]
    fn standard_matrix_has_all_frontends() {
        let names: Vec<_> = standard_configs().iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["baseline", "precon", "combined", "unified"]);
    }

    #[test]
    fn tiny_loop_matches_everywhere() {
        let p = tiny_loop();
        let report = run_differential(&p, &standard_configs(), 2_000).unwrap();
        assert_eq!(report.configs, 4);
        assert!(report.instructions >= 2_000);
    }

    #[test]
    fn asm_source_matches_everywhere() {
        // The second frontend through the same generic pipeline: a
        // hand-written program, differentially checked clean and
        // under faults.
        let src = "main:\n    li r1, 4\n\
                   top:\n    addi r1, r1, -1\n\
                   \x20   st r1, 8(r1)\n\
                   \x20   bne r1, r0, top @loop(4)\n\
                   \x20   halt\n";
        let asm = tpc_exec::AsmProgram::from_source("loop", src).unwrap();
        let report = run_differential(&asm, &standard_configs(), 2_000).unwrap();
        assert_eq!(report.configs, 4);
        let plan = FaultPlan::all(7, 100);
        let faulted = run_differential_faulted(&asm, &standard_configs(), 1_000, plan).unwrap();
        assert!(faulted.faults_injected > 0);
    }

    #[test]
    fn tiny_loop_matches_under_heavy_faults() {
        let p = tiny_loop();
        let plan = FaultPlan::all(0xD15EA5E, 200);
        let report = run_differential_faulted(&p, &standard_configs(), 2_000, plan).unwrap();
        assert_eq!(report.configs, 4);
        assert!(report.faults_injected > 0, "200‰ per kind must inject");
        assert!(report.faults_landed > 0, "some must land on live state");
    }

    #[test]
    fn zero_intensity_faulted_run_matches_clean_run() {
        let p = tiny_loop();
        let plan = FaultPlan::all(1, 0);
        let report = run_differential_faulted(&p, &standard_configs(), 1_000, plan).unwrap();
        assert_eq!(report.faults_injected, 0);
    }
}
