//! Deterministic control-flow behaviour models.
//!
//! Generated programs attach an [`OutcomeModel`] to every conditional
//! branch and an [`IndirectModel`] to every indirect jump. The
//! architectural executor resolves control flow from these models,
//! which gives workload profiles *exact* control over the statistics
//! the paper's mechanisms depend on (branch bias mix, loop trip
//! counts, switch-target spread) while keeping execution fully
//! deterministic. See `DESIGN.md` §6.1 for the rationale.

use crate::Addr;

/// A small, fast, deterministic PRNG (xorshift64*).
///
/// Used for biased-branch outcome streams and indirect-target
/// selection. Not cryptographic; chosen for reproducibility and
/// speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator; a zero seed is remapped to a fixed
    /// non-zero constant (xorshift has a zero fixed point).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A value uniform in `[0, bound)`; `bound` must be non-zero.
    #[inline]
    pub fn next_below(&mut self, bound: u32) -> u32 {
        debug_assert!(bound != 0);
        (self.next_u64() % bound as u64) as u32
    }

    /// A biased coin: `true` with probability `num/denom`.
    #[inline]
    pub fn chance(&mut self, num: u32, denom: u32) -> bool {
        self.next_below(denom) < num
    }

    /// A value uniform in `[lo, hi]` (inclusive); `lo <= hi`.
    ///
    /// Generator hook for the structure-aware program fuzzer (sizes,
    /// trip counts, arm counts).
    #[inline]
    pub fn next_in(&mut self, lo: u32, hi: u32) -> u32 {
        debug_assert!(lo <= hi);
        lo + self.next_below(hi - lo + 1)
    }

    /// Splits off an independent child generator whose stream is
    /// decorrelated from this one's continuation.
    ///
    /// Generator hook for the fuzzer: each program construct forks
    /// its own stream so inserting one construct does not perturb the
    /// randomness of every later construct (which keeps shrinking
    /// effective).
    pub fn fork(&mut self) -> XorShift64 {
        // Draw one value to advance self, then decorrelate the child
        // with an odd constant (golden-ratio increment).
        XorShift64::new(self.next_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
}

/// Deterministic outcome model for one static conditional branch.
///
/// The per-branch dynamic state (loop counters, PRNG positions) lives
/// in the executor; the model itself is immutable program metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeModel {
    /// A loop back-edge: taken `trip - 1` consecutive times, then
    /// not-taken once (loop exit), repeating. `trip` must be ≥ 1;
    /// `trip == 1` is a loop whose body runs once per entry.
    Loop {
        /// Iterations per loop entry.
        trip: u32,
    },
    /// Taken with fixed probability `num/denom`, outcomes drawn from
    /// a branch-private xorshift stream seeded with `seed`.
    Biased {
        /// Numerator of the taken probability.
        num: u32,
        /// Denominator of the taken probability.
        denom: u32,
        /// Seed of the branch-private xorshift stream.
        seed: u64,
    },
    /// Repeating fixed pattern of `len` outcomes (LSB first) — models
    /// correlated branches.
    Pattern {
        /// The outcome bits, least-significant bit first.
        bits: u32,
        /// Number of pattern bits in use (1–32).
        len: u8,
    },
    /// Always taken.
    AlwaysTaken,
    /// Never taken.
    NeverTaken,
}

impl OutcomeModel {
    /// The long-run probability (in 1/1000ths) that the branch is
    /// taken — used by tests and workload calibration.
    pub fn taken_permille(&self) -> u32 {
        match *self {
            OutcomeModel::Loop { trip } => ((trip.saturating_sub(1)) * 1000) / trip.max(1),
            OutcomeModel::Biased { num, denom, .. } => num * 1000 / denom.max(1),
            OutcomeModel::Pattern { bits, len } => {
                let len = len.max(1) as u32;
                let ones = (bits & ((1u32 << len) - 1)).count_ones();
                ones * 1000 / len
            }
            OutcomeModel::AlwaysTaken => 1000,
            OutcomeModel::NeverTaken => 0,
        }
    }

    /// Whether a bimodal predictor would sit in a strong state for
    /// this branch essentially all the time — i.e. whether the
    /// preconstruction engine will treat it as strongly biased.
    pub fn is_strongly_biased(&self) -> bool {
        let p = self.taken_permille();
        p >= 900 || p <= 100
    }
}

/// Dynamic per-branch state advancing an [`OutcomeModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutcomeState {
    counter: u32,
    rng: XorShift64,
}

impl OutcomeState {
    /// Initial state for one static branch.
    pub fn new(model: &OutcomeModel) -> Self {
        let seed = match *model {
            OutcomeModel::Biased { seed, .. } => seed,
            _ => 1,
        };
        OutcomeState {
            counter: 0,
            rng: XorShift64::new(seed),
        }
    }

    /// Produces the next dynamic outcome of the branch.
    pub fn next_outcome(&mut self, model: &OutcomeModel) -> bool {
        match *model {
            OutcomeModel::Loop { trip } => {
                let trip = trip.max(1);
                self.counter += 1;
                if self.counter >= trip {
                    self.counter = 0;
                    false // loop exit
                } else {
                    true // back edge taken
                }
            }
            OutcomeModel::Biased { num, denom, .. } => self.rng.chance(num, denom.max(1)),
            OutcomeModel::Pattern { bits, len } => {
                let len = len.max(1) as u32;
                let bit = (bits >> self.counter) & 1 == 1;
                self.counter = (self.counter + 1) % len;
                bit
            }
            OutcomeModel::AlwaysTaken => true,
            OutcomeModel::NeverTaken => false,
        }
    }
}

/// Deterministic target model for one static indirect jump.
///
/// Targets are selected from a fixed set with fixed weights — the
/// shape of a switch statement's jump table or a virtual call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndirectModel {
    targets: Vec<Addr>,
    weights: Vec<u32>,
    total_weight: u32,
    seed: u64,
}

impl IndirectModel {
    /// Creates a model over `targets` with uniform weights.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty.
    pub fn uniform(targets: Vec<Addr>, seed: u64) -> Self {
        assert!(
            !targets.is_empty(),
            "indirect model needs at least one target"
        );
        let weights = vec![1; targets.len()];
        let total_weight = targets.len() as u32;
        IndirectModel {
            targets,
            weights,
            total_weight,
            seed,
        }
    }

    /// Creates a model with explicit per-target weights.
    ///
    /// # Panics
    ///
    /// Panics if the slices are empty, differ in length, or all
    /// weights are zero.
    pub fn weighted(targets: Vec<Addr>, weights: Vec<u32>, seed: u64) -> Self {
        assert!(
            !targets.is_empty(),
            "indirect model needs at least one target"
        );
        assert_eq!(
            targets.len(),
            weights.len(),
            "targets/weights length mismatch"
        );
        let total_weight: u32 = weights.iter().sum();
        assert!(total_weight > 0, "weights must not all be zero");
        IndirectModel {
            targets,
            weights,
            total_weight,
            seed,
        }
    }

    /// The possible targets of this jump.
    pub fn targets(&self) -> &[Addr] {
        &self.targets
    }

    /// The per-target selection weights (parallel to [`targets`]).
    ///
    /// [`targets`]: IndirectModel::targets
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// The seed for the selection stream.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Selects a target given a draw from the jump's PRNG stream.
    pub fn select(&self, rng: &mut XorShift64) -> Addr {
        let mut pick = rng.next_below(self.total_weight);
        for (t, w) in self.targets.iter().zip(&self.weights) {
            if pick < *w {
                return *t;
            }
            pick -= w;
        }
        *self.targets.last().expect("non-empty by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xorshift_zero_seed_is_remapped() {
        let mut z = XorShift64::new(0);
        assert_ne!(z.next_u64(), 0);
    }

    #[test]
    fn loop_model_exits_every_trip() {
        let model = OutcomeModel::Loop { trip: 4 };
        let mut st = OutcomeState::new(&model);
        let outcomes: Vec<bool> = (0..8).map(|_| st.next_outcome(&model)).collect();
        assert_eq!(
            outcomes,
            vec![true, true, true, false, true, true, true, false]
        );
    }

    #[test]
    fn trip_one_loop_never_takes_back_edge() {
        let model = OutcomeModel::Loop { trip: 1 };
        let mut st = OutcomeState::new(&model);
        assert!(!st.next_outcome(&model));
        assert!(!st.next_outcome(&model));
    }

    #[test]
    fn biased_model_hits_its_bias() {
        let model = OutcomeModel::Biased {
            num: 9,
            denom: 10,
            seed: 7,
        };
        let mut st = OutcomeState::new(&model);
        let taken = (0..10_000).filter(|_| st.next_outcome(&model)).count();
        assert!((8_700..=9_300).contains(&taken), "taken = {taken}");
    }

    #[test]
    fn pattern_model_repeats() {
        // pattern 1,0,1 (LSB first)
        let model = OutcomeModel::Pattern {
            bits: 0b101,
            len: 3,
        };
        let mut st = OutcomeState::new(&model);
        let outcomes: Vec<bool> = (0..6).map(|_| st.next_outcome(&model)).collect();
        assert_eq!(outcomes, vec![true, false, true, true, false, true]);
    }

    #[test]
    fn permille_values() {
        assert_eq!(OutcomeModel::Loop { trip: 10 }.taken_permille(), 900);
        assert_eq!(OutcomeModel::AlwaysTaken.taken_permille(), 1000);
        assert_eq!(OutcomeModel::NeverTaken.taken_permille(), 0);
        assert_eq!(
            OutcomeModel::Biased {
                num: 1,
                denom: 2,
                seed: 0
            }
            .taken_permille(),
            500
        );
    }

    #[test]
    fn strong_bias_classification() {
        assert!(OutcomeModel::Biased {
            num: 19,
            denom: 20,
            seed: 0
        }
        .is_strongly_biased());
        assert!(!OutcomeModel::Biased {
            num: 3,
            denom: 5,
            seed: 0
        }
        .is_strongly_biased());
        assert!(OutcomeModel::Loop { trip: 100 }.is_strongly_biased());
    }

    #[test]
    fn indirect_uniform_covers_all_targets() {
        let targets = vec![Addr::new(10), Addr::new(20), Addr::new(30)];
        let model = IndirectModel::uniform(targets.clone(), 3);
        let mut rng = XorShift64::new(model.seed());
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            seen.insert(model.select(&mut rng));
        }
        assert_eq!(seen.len(), targets.len());
    }

    #[test]
    fn indirect_weighted_respects_weights() {
        let model = IndirectModel::weighted(vec![Addr::new(1), Addr::new(2)], vec![9, 1], 11);
        let mut rng = XorShift64::new(model.seed());
        let hits = (0..10_000)
            .filter(|_| model.select(&mut rng) == Addr::new(1))
            .count();
        assert!(hits > 8_500, "heavy target hit {hits}/10000");
    }

    #[test]
    #[should_panic(expected = "at least one target")]
    fn indirect_empty_targets_panics() {
        let _ = IndirectModel::uniform(vec![], 0);
    }
}
