//! Bimodal (2-bit saturating counter) branch predictor.

use tpc_isa::Addr;

/// The preconstruction engine's view of one branch's bias
/// (paper Section 2.1: "If the branch is strongly taken (or strongly
/// not taken) only the strongly biased path is followed").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bias {
    /// Counter saturated at 3: follow only the taken path.
    StronglyTaken,
    /// Counter saturated at 0: follow only the not-taken path.
    StronglyNotTaken,
    /// Weak states 1–2: explore both paths.
    Weak,
}

/// A table of 2-bit saturating counters indexed by branch address.
///
/// ```
/// use tpc_predict::{Bimodal, Bias};
/// use tpc_isa::Addr;
///
/// let mut p = Bimodal::new(1024);
/// let pc = Addr::new(100);
/// for _ in 0..3 { p.update(pc, true); }
/// assert!(p.predict(pc));
/// assert_eq!(p.bias(pc), Bias::StronglyTaken);
/// ```
#[derive(Debug, Clone)]
pub struct Bimodal {
    counters: Vec<u8>,
    mask: usize,
    lookups: u64,
    correct: u64,
}

impl Bimodal {
    /// Creates a predictor with `entries` counters (power of two),
    /// initialized to weakly-not-taken (1).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or not a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "entry count must be a power of two"
        );
        Bimodal {
            counters: vec![1; entries],
            mask: entries - 1,
            lookups: 0,
            correct: 0,
        }
    }

    #[inline]
    fn index(&self, pc: Addr) -> usize {
        pc.word() as usize & self.mask
    }

    /// Predicts the branch at `pc` (true = taken). Does not update
    /// any state; call [`Bimodal::update`] with the real outcome.
    #[inline]
    pub fn predict(&self, pc: Addr) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    /// Raw counter value (0–3) for the branch at `pc`.
    #[inline]
    pub fn counter(&self, pc: Addr) -> u8 {
        self.counters[self.index(pc)]
    }

    /// The preconstruction engine's bias classification for `pc`.
    #[inline]
    pub fn bias(&self, pc: Addr) -> Bias {
        match self.counter(pc) {
            0 => Bias::StronglyNotTaken,
            3 => Bias::StronglyTaken,
            _ => Bias::Weak,
        }
    }

    /// Trains the counter with the resolved outcome and records
    /// accuracy of the prediction that would have been made.
    #[inline]
    pub fn update(&mut self, pc: Addr, taken: bool) {
        self.lookups += 1;
        if self.predict(pc) == taken {
            self.correct += 1;
        }
        let idx = self.index(pc);
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Fraction of updates where the pre-update prediction matched,
    /// in 1/1000ths; `None` before any update.
    pub fn accuracy_permille(&self) -> Option<u32> {
        (self.lookups > 0).then(|| (self.correct * 1000 / self.lookups) as u32)
    }

    /// Fault-injection hook: flips one bit (`bit & 1`) of the counter
    /// at `entry` (masked into range). A 2-bit counter stays in
    /// `0..=3`, so the predictor remains structurally valid — the
    /// flip can only change predictions and bias classifications,
    /// which are performance hints, never architectural state.
    pub fn flip_bit(&mut self, entry: usize, bit: u8) {
        let idx = entry & self.mask;
        self.counters[idx] ^= 1 << (bit & 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initializes_weakly_not_taken() {
        let p = Bimodal::new(16);
        assert!(!p.predict(Addr::new(0)));
        assert_eq!(p.bias(Addr::new(0)), Bias::Weak);
    }

    #[test]
    fn saturates_up_and_down() {
        let mut p = Bimodal::new(16);
        let pc = Addr::new(5);
        for _ in 0..10 {
            p.update(pc, true);
        }
        assert_eq!(p.counter(pc), 3);
        for _ in 0..10 {
            p.update(pc, false);
        }
        assert_eq!(p.counter(pc), 0);
        assert_eq!(p.bias(pc), Bias::StronglyNotTaken);
    }

    #[test]
    fn hysteresis_keeps_prediction_through_one_anomaly() {
        let mut p = Bimodal::new(16);
        let pc = Addr::new(3);
        for _ in 0..3 {
            p.update(pc, true);
        }
        p.update(pc, false); // one loop exit
        assert!(p.predict(pc), "still predicts taken after one not-taken");
    }

    #[test]
    fn aliasing_maps_by_low_bits() {
        let mut p = Bimodal::new(16);
        p.update(Addr::new(1), true);
        p.update(Addr::new(17), true); // same entry
        assert_eq!(p.counter(Addr::new(1)), 3);
    }

    #[test]
    fn accuracy_tracks_correct_predictions() {
        let mut p = Bimodal::new(16);
        let pc = Addr::new(2);
        assert_eq!(p.accuracy_permille(), None);
        for _ in 0..100 {
            p.update(pc, true);
        }
        assert!(p.accuracy_permille().unwrap() > 950);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = Bimodal::new(12);
    }
}
