//! Property tests for the predictors, over seeded random operation
//! sequences.

use std::collections::VecDeque;
use tpc_isa::model::XorShift64;
use tpc_isa::Addr;
use tpc_predict::{
    Bias, Bimodal, NextTracePredictor, NtpConfig, ReturnAddressStack, TraceEnd, TraceKey,
};

const CASES: u32 = 256;

/// Reference 2-bit saturating counter.
fn ref_update(c: u8, taken: bool) -> u8 {
    if taken {
        (c + 1).min(3)
    } else {
        c.saturating_sub(1)
    }
}

/// The bimodal predictor behaves exactly like an array of 2-bit
/// saturating counters under arbitrary update sequences.
#[test]
fn bimodal_matches_reference() {
    let mut rng = XorShift64::new(0x0B13_0DA1);
    for case in 0..CASES {
        let entries = 16usize;
        let mut dut = Bimodal::new(entries);
        let mut reference = vec![1u8; entries];
        for _ in 0..rng.next_below(300) {
            let pc = rng.next_below(32);
            let taken = rng.chance(1, 2);
            let idx = pc as usize % entries;
            let addr = Addr::new(pc);
            assert_eq!(dut.predict(addr), reference[idx] >= 2, "case {case}");
            assert_eq!(dut.counter(addr), reference[idx], "case {case}");
            let expected_bias = match reference[idx] {
                0 => Bias::StronglyNotTaken,
                3 => Bias::StronglyTaken,
                _ => Bias::Weak,
            };
            assert_eq!(dut.bias(addr), expected_bias, "case {case}");
            dut.update(addr, taken);
            reference[idx] = ref_update(reference[idx], taken);
        }
    }
}

/// The RAS behaves as a bounded stack that drops its oldest entry on
/// overflow.
#[test]
fn ras_matches_reference() {
    let mut rng = XorShift64::new(0x04A5_57AC);
    for case in 0..CASES {
        let cap = rng.next_in(1, 15) as usize;
        let mut dut = ReturnAddressStack::new(cap);
        let mut reference: Vec<u32> = Vec::new();
        for _ in 0..rng.next_below(200) {
            let is_push = rng.chance(1, 2);
            let v = rng.next_below(1000);
            if is_push {
                dut.push(Addr::new(v));
                if reference.len() == cap {
                    reference.remove(0);
                }
                reference.push(v);
            } else {
                assert_eq!(dut.pop().map(|a| a.word()), reference.pop(), "case {case}");
            }
            assert_eq!(dut.depth(), reference.len(), "case {case}");
            assert_eq!(
                dut.top().map(|a| a.word()),
                reference.last().copied(),
                "case {case}"
            );
        }
    }
}

/// A deterministic, repeating trace sequence is eventually fully
/// predicted regardless of its content (as long as each trace has a
/// unique successor along the cycle).
#[test]
fn ntp_learns_any_cycle() {
    let mut rng = XorShift64::new(0x47BC_1C1E);
    for case in 0..CASES {
        // 2 to 9 distinct start points, in generation order.
        let len = rng.next_in(2, 9) as usize;
        let mut starts: Vec<u32> = Vec::new();
        while starts.len() < len {
            let s = rng.next_below(10_000);
            if !starts.contains(&s) {
                starts.push(s);
            }
        }
        let keys: Vec<TraceKey> = starts
            .into_iter()
            .map(|s| TraceKey {
                start: Addr::new(s * 16),
                branch_count: 0,
                outcomes: 0,
            })
            .collect();
        let mut p = NextTracePredictor::new(NtpConfig::default());
        // Warm up around the cycle a few times.
        for _ in 0..6 {
            for &k in &keys {
                p.observe(k, TraceEnd::Fallthrough);
            }
        }
        let mut correct = 0;
        for &k in &keys {
            if p.predict() == Some(k) {
                correct += 1;
            }
            p.observe(k, TraceEnd::Fallthrough);
        }
        assert_eq!(
            correct,
            keys.len(),
            "case {case}: a fixed cycle {keys:?} must be fully learned"
        );
    }
}

/// Reference next-trace predictor: entries hold an `Option<TraceKey>`
/// and a separate counter, and the return history stack saves a clone
/// of the path history.
struct RefNtp {
    config: NtpConfig,
    primary: Vec<(Option<TraceKey>, u8)>,
    secondary: Vec<(Option<TraceKey>, u8)>,
    history: VecDeque<TraceKey>,
    rhs: Vec<VecDeque<TraceKey>>,
}

impl RefNtp {
    fn new(config: NtpConfig) -> Self {
        RefNtp {
            config,
            primary: vec![(None, 0); 1 << config.table_bits],
            secondary: vec![(None, 0); 1 << config.secondary_bits],
            history: VecDeque::new(),
            rhs: Vec::new(),
        }
    }

    fn primary_index(&self) -> usize {
        let mut idx = 0;
        for (age, key) in self.history.iter().rev().enumerate() {
            idx ^= key.hash64() >> (age * 5);
        }
        idx as usize & ((1 << self.config.table_bits) - 1)
    }

    fn secondary_index(&self) -> Option<usize> {
        let last = self.history.back()?;
        Some(last.hash64() as usize & ((1 << self.config.secondary_bits) - 1))
    }

    fn predict(&self) -> Option<TraceKey> {
        let p = self.primary[self.primary_index()];
        let s = self
            .secondary_index()
            .map_or((None, 0), |i| self.secondary[i]);
        let chosen = if p.0.is_some() && p.1 >= s.1 { p } else { s };
        chosen.0.or(p.0).or(s.0)
    }

    fn train(entry: &mut (Option<TraceKey>, u8), actual: TraceKey) {
        match entry.0 {
            Some(p) if p == actual => entry.1 = (entry.1 + 1).min(3),
            Some(_) if entry.1 > 0 => entry.1 -= 1,
            _ => *entry = (Some(actual), 1),
        }
    }

    fn observe(&mut self, actual: TraceKey, end: TraceEnd) {
        let pi = self.primary_index();
        Self::train(&mut self.primary[pi], actual);
        if let Some(si) = self.secondary_index() {
            Self::train(&mut self.secondary[si], actual);
        }
        match end {
            TraceEnd::Call => {
                if self.rhs.len() == self.config.rhs_depth {
                    self.rhs.remove(0);
                }
                self.rhs.push(self.history.clone());
            }
            TraceEnd::Return => {
                if let Some(saved) = self.rhs.pop() {
                    self.history = saved;
                }
            }
            TraceEnd::Fallthrough => {}
        }
        self.history.push_back(actual);
        while self.history.len() > self.config.history_depth {
            self.history.pop_front();
        }
    }
}

/// The packed one-word table entries predict exactly like
/// the reference's `Option<TraceKey>`-plus-counter entries, over
/// random key streams covering every start word, all 16 outcome bits
/// and 0 to 16 branches. Small tables make entries alias, so wrong
/// predictions wear counters down and get replaced.
#[test]
fn packed_ntp_matches_reference() {
    let mut rng = XorShift64::new(0x9AC4_ED17);
    let mut correct = 0;
    for case in 0..CASES {
        let config = NtpConfig {
            history_depth: rng.next_in(1, 6) as usize,
            table_bits: rng.next_in(2, 10),
            secondary_bits: rng.next_in(1, 8),
            rhs_depth: rng.next_in(1, 8) as usize,
        };
        let pool: Vec<TraceKey> = (0..rng.next_in(1, 40))
            .map(|_| {
                let branch_count = rng.next_below(17) as u8; // narrow: ≤ 16
                TraceKey {
                    start: Addr::new(rng.next_u64() as u32), // narrow: any start word
                    branch_count,
                    outcomes: rng.next_below(0x1_0000) as u16, // narrow: ≤ 0xFFFF
                }
            })
            .collect();
        let mut dut = NextTracePredictor::new(config);
        let mut reference = RefNtp::new(config);
        let mut at = 0;
        for step in 0..rng.next_below(600) {
            // Mostly walk the pool in order (learnable), sometimes jump.
            at = if rng.chance(3, 4) {
                (at + 1) % pool.len()
            } else {
                rng.next_below(pool.len() as u32) as usize
            };
            let actual = pool[at];
            let end = match rng.next_below(8) {
                0 => TraceEnd::Call,
                1 => TraceEnd::Return,
                _ => TraceEnd::Fallthrough,
            };
            let expected = reference.predict();
            let ctx = format!("case {case} {config:?}, step {step}");
            assert_eq!(dut.predict(), expected, "{ctx}");
            reference.observe(actual, end);
            assert_eq!(dut.observe(actual, end), expected, "{ctx}");
            correct += u32::from(expected == Some(actual));
        }
    }
    assert!(correct > 0, "the streams exercise correct predictions");
}
