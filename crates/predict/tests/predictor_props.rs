//! Property tests for the predictors, over seeded random operation
//! sequences.

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
