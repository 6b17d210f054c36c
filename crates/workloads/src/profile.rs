//! Per-benchmark workload profiles.

use std::fmt;
use std::str::FromStr;

/// The eight SPECint95 benchmarks the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Benchmark {
    /// `compress` — tiny kernel, trivially small working set.
    Compress,
    /// `gcc` — the largest instruction working set in the suite.
    Gcc,
    /// `go` — large working set with notoriously weak branch biases.
    Go,
    /// `ijpeg` — small, loop-dominated working set.
    Ijpeg,
    /// `li` (xlisp) — medium working set, recursion-heavy.
    Li,
    /// `m88ksim` — medium working set.
    M88ksim,
    /// `perl` — medium-large working set, switch/indirect heavy.
    Perl,
    /// `vortex` — large working set with strongly biased branches.
    Vortex,
}

impl Benchmark {
    /// All benchmarks, in the order the paper lists them.
    pub const ALL: [Benchmark; 8] = [
        Benchmark::Compress,
        Benchmark::Gcc,
        Benchmark::Go,
        Benchmark::Ijpeg,
        Benchmark::Li,
        Benchmark::M88ksim,
        Benchmark::Perl,
        Benchmark::Vortex,
    ];

    /// The benchmark's SPEC name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Compress => "compress",
            Benchmark::Gcc => "gcc",
            Benchmark::Go => "go",
            Benchmark::Ijpeg => "ijpeg",
            Benchmark::Li => "li",
            Benchmark::M88ksim => "m88ksim",
            Benchmark::Perl => "perl",
            Benchmark::Vortex => "vortex",
        }
    }

    /// The calibrated generation profile (see [`Profile`]).
    pub fn profile(self) -> Profile {
        match self {
            // Tiny kernels: even a 64-entry trace cache holds the
            // whole trace working set (paper: "little room to
            // improve").
            Benchmark::Compress => Profile {
                functions: 6,
                constructs_per_fn: (3, 6),
                block_len: (4, 10),
                loop_trip: (16, 64),
                weights: ConstructWeights {
                    straight: 30,
                    looped: 40,
                    if_else: 20,
                    call: 10,
                    switch: 0,
                    recurse: 0,
                },
                strongly_biased_permille: 850,
                phase_groups: 1,
                reps_per_group: 8,
                roots_per_group: 6,
                base_seed: 0xC0_4411,
            },
            // The largest static footprint, many phases (gcc runs
            // pass after pass over functions), mixed biases.
            Benchmark::Gcc => Profile {
                functions: 480,
                constructs_per_fn: (4, 9),
                block_len: (3, 8),
                loop_trip: (2, 8),
                weights: ConstructWeights {
                    straight: 22,
                    looped: 18,
                    if_else: 38,
                    call: 16,
                    switch: 4,
                    recurse: 2,
                },
                strongly_biased_permille: 700,
                phase_groups: 6,
                reps_per_group: 3,
                roots_per_group: 16,
                base_seed: 0x6CC_0001,
            },
            // Large footprint and the suite's weakest branch biases:
            // the trace working set explodes combinatorially.
            Benchmark::Go => Profile {
                functions: 300,
                constructs_per_fn: (4, 9),
                block_len: (3, 8),
                loop_trip: (2, 6),
                weights: ConstructWeights {
                    straight: 22,
                    looped: 16,
                    if_else: 44,
                    call: 16,
                    switch: 2,
                    recurse: 0,
                },
                strongly_biased_permille: 420,
                phase_groups: 4,
                reps_per_group: 3,
                roots_per_group: 20,
                base_seed: 0x60_0002,
            },
            // Small, loop-dominated (DCT kernels): long trips, biased.
            Benchmark::Ijpeg => Profile {
                functions: 14,
                constructs_per_fn: (3, 6),
                block_len: (5, 12),
                loop_trip: (16, 64),
                weights: ConstructWeights {
                    straight: 30,
                    looped: 42,
                    if_else: 18,
                    call: 10,
                    switch: 0,
                    recurse: 0,
                },
                strongly_biased_permille: 880,
                phase_groups: 1,
                reps_per_group: 8,
                roots_per_group: 6,
                base_seed: 0x1395_0007,
            },
            // Lisp interpreter: medium footprint, deep recursion,
            // dispatch through indirect jumps.
            Benchmark::Li => Profile {
                functions: 70,
                constructs_per_fn: (3, 7),
                block_len: (3, 7),
                loop_trip: (2, 8),
                weights: ConstructWeights {
                    straight: 24,
                    looped: 14,
                    if_else: 30,
                    call: 16,
                    switch: 8,
                    recurse: 8,
                },
                strongly_biased_permille: 680,
                phase_groups: 2,
                reps_per_group: 5,
                roots_per_group: 8,
                base_seed: 0x11_0003,
            },
            Benchmark::M88ksim => Profile {
                functions: 90,
                constructs_per_fn: (4, 8),
                block_len: (3, 8),
                loop_trip: (3, 10),
                weights: ConstructWeights {
                    straight: 26,
                    looped: 22,
                    if_else: 32,
                    call: 16,
                    switch: 4,
                    recurse: 0,
                },
                strongly_biased_permille: 760,
                phase_groups: 3,
                reps_per_group: 4,
                roots_per_group: 8,
                base_seed: 0x88_0004,
            },
            // Interpreter loop: switch-heavy dispatch.
            Benchmark::Perl => Profile {
                functions: 200,
                constructs_per_fn: (4, 8),
                block_len: (3, 8),
                loop_trip: (2, 8),
                weights: ConstructWeights {
                    straight: 22,
                    looped: 16,
                    if_else: 30,
                    call: 16,
                    switch: 12,
                    recurse: 4,
                },
                strongly_biased_permille: 700,
                phase_groups: 4,
                reps_per_group: 4,
                roots_per_group: 12,
                base_seed: 0x9E51_0005,
            },
            // Large footprint but *strongly* biased branches —
            // preconstruction's best case (80 % miss reduction).
            Benchmark::Vortex => Profile {
                functions: 300,
                constructs_per_fn: (6, 12),
                block_len: (4, 9),
                loop_trip: (2, 8),
                weights: ConstructWeights {
                    straight: 22,
                    looped: 16,
                    if_else: 34,
                    call: 26,
                    switch: 2,
                    recurse: 0,
                },
                strongly_biased_permille: 950,
                phase_groups: 3,
                reps_per_group: 3,
                roots_per_group: 10,
                base_seed: 0x40_0006,
            },
        }
    }

    /// The benchmarks whose working sets stress the trace cache
    /// (paper Sections 5.3 and 6 report performance for these).
    pub fn large_working_set() -> [Benchmark; 4] {
        [
            Benchmark::Gcc,
            Benchmark::Go,
            Benchmark::Perl,
            Benchmark::Vortex,
        ]
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error from parsing a benchmark name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBenchmarkError {
    /// The unrecognised input.
    pub input: String,
}

impl fmt::Display for ParseBenchmarkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown benchmark {:?} (expected one of: ", self.input)?;
        for (i, b) in Benchmark::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(b.name())?;
        }
        f.write_str(")")
    }
}

impl std::error::Error for ParseBenchmarkError {}

impl FromStr for Benchmark {
    type Err = ParseBenchmarkError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        Benchmark::ALL
            .into_iter()
            .find(|b| b.name() == lower || (lower == "lisp" && *b == Benchmark::Li))
            .ok_or(ParseBenchmarkError {
                input: s.to_string(),
            })
    }
}

/// Relative frequencies of the code constructs a generated function
/// is built from (weights need not sum to anything in particular).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstructWeights {
    /// Straight-line arithmetic/memory block.
    pub straight: u32,
    /// A counted loop around a block.
    pub looped: u32,
    /// An if-then-else diamond.
    pub if_else: u32,
    /// A call to an earlier-generated function.
    pub call: u32,
    /// An indirect-jump switch over several arms.
    pub switch: u32,
    /// A bounded self-recursive call.
    pub recurse: u32,
}

impl ConstructWeights {
    /// Sum of all weights.
    pub fn total(&self) -> u32 {
        self.straight + self.looped + self.if_else + self.call + self.switch + self.recurse
    }
}

/// Everything the generator needs to emit one benchmark's program.
///
/// The fields are the knobs the paper's behaviour depends on; see the
/// module docs of [`crate`] and `DESIGN.md` §2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Profile {
    /// Number of generated functions (static footprint driver).
    pub functions: u32,
    /// Range of top-level constructs per function.
    pub constructs_per_fn: (u32, u32),
    /// Range of instructions per straight-line block.
    pub block_len: (u32, u32),
    /// Range of loop trip counts.
    pub loop_trip: (u32, u32),
    /// Construct mix.
    pub weights: ConstructWeights,
    /// Fraction (in 1/1000ths) of if-else branches that are strongly
    /// biased (~95/5); the rest are weak (30–70 %).
    pub strongly_biased_permille: u32,
    /// Number of working-set phases the main loop rotates through.
    pub phase_groups: u32,
    /// Iterations of each phase before moving to the next.
    pub reps_per_group: u32,
    /// Group root functions `main` calls per phase iteration (drives
    /// how much of the group's code each phase touches).
    pub roots_per_group: u32,
    /// Base PRNG seed mixed with the user seed.
    pub base_seed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_have_distinct_names() {
        let names: std::collections::BTreeSet<_> =
            Benchmark::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn parsing_round_trips() {
        for b in Benchmark::ALL {
            assert_eq!(b.name().parse::<Benchmark>().unwrap(), b);
        }
        assert_eq!("GCC".parse::<Benchmark>().unwrap(), Benchmark::Gcc);
        assert_eq!("lisp".parse::<Benchmark>().unwrap(), Benchmark::Li);
        assert!("mcf".parse::<Benchmark>().is_err());
    }

    #[test]
    fn parse_error_lists_alternatives() {
        let err = "nope".parse::<Benchmark>().unwrap_err();
        assert!(err.to_string().contains("vortex"));
    }

    #[test]
    fn working_set_ordering_is_calibrated() {
        // The paper's key size relationships must hold in the
        // profiles: gcc > vortex/go ≫ compress/ijpeg.
        let f = |b: Benchmark| b.profile().functions;
        assert!(f(Benchmark::Gcc) > f(Benchmark::Vortex));
        assert!(f(Benchmark::Vortex) > f(Benchmark::Go) || f(Benchmark::Go) > 100);
        assert!(f(Benchmark::Compress) < 20);
        assert!(f(Benchmark::Ijpeg) < 20);
    }

    #[test]
    fn go_has_the_weakest_biases() {
        let bias = |b: Benchmark| b.profile().strongly_biased_permille;
        for b in Benchmark::ALL {
            if b != Benchmark::Go {
                assert!(bias(Benchmark::Go) < bias(b), "go weaker than {b}");
            }
        }
        assert!(bias(Benchmark::Vortex) >= 940, "vortex strongly biased");
    }

    #[test]
    fn weights_total_nonzero() {
        for b in Benchmark::ALL {
            assert!(b.profile().weights.total() > 0);
        }
    }
}
