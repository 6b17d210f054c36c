//! Path-based next-trace predictor (Jacobson, Rotenberg & Smith,
//! MICRO 1997), in the hybrid configuration used by the paper.
//!
//! The predictor treats traces as the unit of prediction: it keeps a
//! short history of recently-committed trace identities, hashes that
//! path into a correlating table, and predicts the *entire next
//! trace* (start PC plus all embedded branch outcomes) in one shot —
//! implicitly predicting several branches per cycle. A secondary
//! table indexed by only the last trace reduces cold-start and
//! aliasing losses, and a return history stack saves path history
//! across procedure calls and returns.

use std::collections::VecDeque;
use tpc_isa::Addr;

/// The identity of a trace: its start address plus the outcomes of
/// the conditional branches inside it.
///
/// Two dynamic instruction sequences with equal keys are the same
/// trace; the trace cache and preconstruction buffers index by a hash
/// of this key (paper Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceKey {
    /// Address of the first instruction.
    pub start: Addr,
    /// Number of conditional branches in the trace.
    pub branch_count: u8,
    /// Outcome of the i-th conditional branch in bit i (1 = taken).
    pub outcomes: u16,
}

impl TraceKey {
    /// A 64-bit mixture of the key's fields, used for table indexing.
    #[inline]
    pub fn hash64(&self) -> u64 {
        let raw = (self.start.word() as u64)
            ^ ((self.outcomes as u64) << 32)
            ^ ((self.branch_count as u64) << 48);
        // splitmix64 finalizer: spreads low-entropy fields across bits.
        let mut z = raw.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// How a trace ends, as far as the return history stack cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEnd {
    /// Ends in neither a call nor a return.
    Fallthrough,
    /// Ends in (or contains as last control transfer) a procedure
    /// call.
    Call,
    /// Ends in a procedure return.
    Return,
}

/// Configuration of the [`NextTracePredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NtpConfig {
    /// Number of trace identities kept in the path history.
    pub history_depth: usize,
    /// log2 of the primary (correlating) table size.
    pub table_bits: u32,
    /// log2 of the secondary (last-trace-indexed) table size.
    pub secondary_bits: u32,
    /// Depth of the return history stack.
    pub rhs_depth: usize,
}

impl Default for NtpConfig {
    fn default() -> Self {
        NtpConfig {
            history_depth: 4,
            table_bits: 16,
            secondary_bits: 14,
            rhs_depth: 16,
        }
    }
}

/// One table entry packed into a word: the predicted key's start in
/// bits 0..32, its outcomes in bits 32..48, `branch_count + 1` in
/// bits 48..57, and the 2-bit confidence counter in bits 62..64. The
/// word 0 is the empty entry (no prediction, counter 0), so a table
/// is a zero-initialised `Vec<u64>` whose pages are touched only
/// where it is trained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TableEntry(u64);

impl TableEntry {
    const EMPTY: TableEntry = TableEntry(0);
    const KEY_BITS: u64 = (1 << 57) - 1;
    const COUNTER_SHIFT: u32 = 62;

    /// The packed form of `key`: never 0, and never overlapping the
    /// counter bits.
    fn key_bits(key: TraceKey) -> u64 {
        u64::from(key.start.word())
            | u64::from(key.outcomes) << 32
            | (u64::from(key.branch_count) + 1) << 48
    }

    fn with(key_bits: u64, counter: u8) -> TableEntry {
        TableEntry(key_bits | u64::from(counter) << Self::COUNTER_SHIFT)
    }

    fn pred(self) -> Option<TraceKey> {
        let branches_plus_one = (self.0 >> 48) & 0x1FF;
        (branches_plus_one != 0).then(|| TraceKey {
            start: Addr::new(self.0 as u32),             // narrow: bits 0..32
            outcomes: (self.0 >> 32) as u16,             // narrow: bits 32..48
            branch_count: (branches_plus_one - 1) as u8, // narrow: a u8 plus one
        })
    }

    fn counter(self) -> u8 {
        (self.0 >> Self::COUNTER_SHIFT) as u8 // narrow: the top 2 bits
    }

    fn trained(self, actual: TraceKey) -> TableEntry {
        let actual = Self::key_bits(actual);
        let counter = self.counter();
        if self.0 & Self::KEY_BITS == actual {
            Self::with(actual, (counter + 1).min(3))
        } else if counter == 0 {
            // A cold entry, or a wrong one whose confidence ran out.
            Self::with(actual, 1)
        } else {
            Self::with(self.0 & Self::KEY_BITS, counter - 1)
        }
    }
}

/// The hybrid path-based next-trace predictor.
///
/// Drive it with [`NextTracePredictor::predict`] (read-only) and
/// [`NextTracePredictor::observe`] once the actual next trace is
/// known. History is advanced with *actual* trace identities — the
/// standard trace-driven simplification: real hardware advances
/// speculatively and repairs on mispredictions, converging to the
/// same history contents on the correct path.
#[derive(Debug, Clone)]
pub struct NextTracePredictor {
    config: NtpConfig,
    /// Packed [`TableEntry`] words; zero-initialised, so a fresh
    /// predictor's tables are not paged in until trained.
    primary: Vec<u64>,
    secondary: Vec<u64>,
    history: VecDeque<TraceKey>,
    rhs: Vec<VecDeque<TraceKey>>,
    /// History buffers released by returns, reused by later calls'
    /// saves: the return history stack allocates nothing once warm.
    spare: Vec<VecDeque<TraceKey>>,
}

impl NextTracePredictor {
    /// Creates a predictor with the given configuration.
    pub fn new(config: NtpConfig) -> Self {
        NextTracePredictor {
            config,
            primary: vec![0; 1usize << config.table_bits],
            secondary: vec![0; 1usize << config.secondary_bits],
            history: VecDeque::with_capacity(config.history_depth + 1),
            rhs: Vec::with_capacity(config.rhs_depth),
            spare: Vec::with_capacity(config.rhs_depth + 1),
        }
    }

    /// The primary and secondary table indices for the current path.
    /// The primary index is a DOLC-style fold of the path history:
    /// recent traces contribute more index bits than older ones. The
    /// secondary index is the last trace alone (none while the
    /// history is empty).
    fn indices(&self) -> (usize, Option<usize>) {
        let mut idx: u64 = 0;
        let mut last = None;
        for (age, key) in self.history.iter().rev().enumerate() {
            // age 0 = most recent. Older entries are shifted right:
            // fewer of their bits survive the mask.
            let h = key.hash64();
            last.get_or_insert(h);
            idx ^= h >> (age as u32 * 5);
        }
        let primary = (idx as usize) & ((1usize << self.config.table_bits) - 1);
        let secondary = last.map(|h| (h as usize) & ((1usize << self.config.secondary_bits) - 1));
        (primary, secondary)
    }

    /// The prediction of the entries at `indices`.
    fn prediction(&self, (pi, si): (usize, Option<usize>)) -> Option<TraceKey> {
        let p = TableEntry(self.primary[pi]);
        let s = si.map_or(TableEntry::EMPTY, |i| TableEntry(self.secondary[i]));
        // Hybrid selection: the correlating table wins unless the
        // secondary is strictly more confident (cold start/aliasing).
        let chosen = if p != TableEntry::EMPTY && p.counter() >= s.counter() {
            p
        } else {
            s
        };
        chosen.pred().or(p.pred()).or(s.pred())
    }

    /// Predicts the next trace, or `None` when both tables are cold
    /// for the current path.
    pub fn predict(&self) -> Option<TraceKey> {
        self.prediction(self.indices())
    }

    /// Scores and trains with the actual next trace, advances the
    /// path history (and return history stack, per `end`), and
    /// returns the prediction it scored: what [`Self::predict`]
    /// returned just before the call.
    pub fn observe(&mut self, actual: TraceKey, end: TraceEnd) -> Option<TraceKey> {
        let (pi, si) = self.indices();
        let predicted = self.prediction((pi, si));
        self.primary[pi] = TableEntry(self.primary[pi]).trained(actual).0;
        if let Some(si) = si {
            self.secondary[si] = TableEntry(self.secondary[si]).trained(actual).0;
        }

        // Return history stack (paper Section 6, item 1): save the
        // path history across a call so post-return predictions see
        // the caller's path instead of the callee's.
        match end {
            TraceEnd::Call => {
                let mut saved = if self.rhs.len() == self.config.rhs_depth {
                    self.rhs.remove(0)
                } else {
                    self.spare
                        .pop()
                        .unwrap_or_else(|| VecDeque::with_capacity(self.config.history_depth + 1))
                };
                saved.clear();
                saved.extend(self.history.iter().copied());
                self.rhs.push(saved);
            }
            TraceEnd::Return => {
                if let Some(saved) = self.rhs.pop() {
                    self.spare.push(std::mem::replace(&mut self.history, saved));
                }
            }
            TraceEnd::Fallthrough => {}
        }

        self.history.push_back(actual);
        while self.history.len() > self.config.history_depth {
            self.history.pop_front();
        }
        predicted
    }

    /// The current path history, most recent last (for tests).
    pub fn history(&self) -> impl Iterator<Item = &TraceKey> {
        self.history.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(start: u32, outcomes: u16, branches: u8) -> TraceKey {
        TraceKey {
            start: Addr::new(start),
            branch_count: branches,
            outcomes,
        }
    }

    #[test]
    fn learns_a_repeating_trace_sequence() {
        let mut p = NextTracePredictor::new(NtpConfig::default());
        let seq = [key(0, 0b01, 2), key(16, 0b1, 1), key(32, 0, 0)];
        // Warm up twice around the loop, then measure.
        for _ in 0..2 {
            for k in seq {
                p.observe(k, TraceEnd::Fallthrough);
            }
        }
        let mut correct = 0;
        for _ in 0..10 {
            for k in seq {
                if p.predict() == Some(k) {
                    correct += 1;
                }
                p.observe(k, TraceEnd::Fallthrough);
            }
        }
        assert_eq!(
            correct, 30,
            "fully predictable loop must be fully predicted"
        );
    }

    #[test]
    fn cold_predictor_returns_none() {
        let p = NextTracePredictor::new(NtpConfig::default());
        assert_eq!(p.predict(), None);
    }

    #[test]
    fn path_history_disambiguates_shared_successor() {
        // A→C and B→C, but C's successor depends on which path led
        // in: A→C→X, B→C→Y. A last-trace predictor cannot separate
        // these; the path-based one can.
        let (a, b, c, x, y) = (
            key(0, 0, 0),
            key(100, 0, 0),
            key(200, 0, 0),
            key(300, 0, 0),
            key(400, 0, 0),
        );
        let mut p = NextTracePredictor::new(NtpConfig::default());
        for _ in 0..8 {
            p.observe(a, TraceEnd::Fallthrough);
            p.observe(c, TraceEnd::Fallthrough);
            p.observe(x, TraceEnd::Fallthrough);
            p.observe(b, TraceEnd::Fallthrough);
            p.observe(c, TraceEnd::Fallthrough);
            p.observe(y, TraceEnd::Fallthrough);
        }
        // Measure a full round.
        let mut hits = 0;
        for (k, _) in [(a, 0), (c, 0), (x, 0), (b, 0), (c, 0), (y, 0)] {
            if p.predict() == Some(k) {
                hits += 1;
            }
            p.observe(k, TraceEnd::Fallthrough);
        }
        assert_eq!(hits, 6, "path history must disambiguate X vs Y after C");
    }

    #[test]
    fn return_history_stack_restores_caller_path() {
        let caller_a = key(0, 0, 0);
        let call_tr = key(16, 0, 0);
        let callee = key(500, 0, 0);
        let ret_tr = key(516, 0, 0);
        let after = key(32, 0, 0);
        let mut p = NextTracePredictor::new(NtpConfig::default());
        for _ in 0..6 {
            p.observe(caller_a, TraceEnd::Fallthrough);
            p.observe(call_tr, TraceEnd::Call);
            p.observe(callee, TraceEnd::Fallthrough);
            p.observe(ret_tr, TraceEnd::Return);
            p.observe(after, TraceEnd::Fallthrough);
        }
        // After the return trace, history was restored to the
        // caller's path; `after` must be predicted.
        p.observe(caller_a, TraceEnd::Fallthrough);
        p.observe(call_tr, TraceEnd::Call);
        p.observe(callee, TraceEnd::Fallthrough);
        p.observe(ret_tr, TraceEnd::Return);
        assert_eq!(p.predict(), Some(after));
    }

    #[test]
    fn history_bounded_by_depth() {
        let cfg = NtpConfig {
            history_depth: 2,
            ..NtpConfig::default()
        };
        let mut p = NextTracePredictor::new(cfg);
        for i in 0..10 {
            p.observe(key(i * 16, 0, 0), TraceEnd::Fallthrough);
        }
        assert_eq!(p.history().count(), 2);
    }

    #[test]
    fn recycled_history_buffers_match_cloned_saves() {
        // The return history stack reuses released buffers; its
        // history must evolve exactly as with a fresh clone per call,
        // including when the stack overflows its depth.
        let cfg = NtpConfig {
            rhs_depth: 3,
            ..NtpConfig::default()
        };
        let mut p = NextTracePredictor::new(cfg);
        let mut history: VecDeque<TraceKey> = VecDeque::new();
        let mut rhs: Vec<VecDeque<TraceKey>> = Vec::new();
        let mut rng = tpc_isa::model::XorShift64::new(0x4A5);
        for i in 0..2_000u32 {
            let k = key(rng.next_below(64) * 16, 0, 0);
            let end = match rng.next_below(3) {
                0 => TraceEnd::Call,
                1 => TraceEnd::Return,
                _ => TraceEnd::Fallthrough,
            };
            p.observe(k, end);
            match end {
                TraceEnd::Call => {
                    if rhs.len() == cfg.rhs_depth {
                        rhs.remove(0);
                    }
                    rhs.push(history.clone());
                }
                TraceEnd::Return => {
                    if let Some(saved) = rhs.pop() {
                        history = saved;
                    }
                }
                TraceEnd::Fallthrough => {}
            }
            history.push_back(k);
            while history.len() > cfg.history_depth {
                history.pop_front();
            }
            assert!(p.history().eq(history.iter()), "step {i}");
        }
    }

    #[test]
    fn hash64_spreads_close_keys() {
        let a = key(0, 0, 0).hash64();
        let b = key(1, 0, 0).hash64();
        let c = key(0, 1, 1).hash64();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // Low bits should differ for adjacent starts (table indexing
        // uses the low bits).
        assert_ne!(a & 0xffff, b & 0xffff);
    }
}
