//! Shared single-pass probe logic for the set-associative payload
//! arrays (`TraceCache`, `PreconBuffers`, `UnifiedStore`), and the
//! victim choice of their fault-injection hooks.

use std::ops::Range;

/// Where a fill should land within one set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProbeSlot {
    /// A slot already holds a matching entry (refresh in place).
    Match(usize),
    /// No match; this is the first free slot inside the replacement
    /// window.
    Free(usize),
    /// No match and no free slot: the caller's replacement policy
    /// must pick a victim.
    Evict,
}

/// Scans one set's slots in a single pass: a match anywhere in the
/// set wins; otherwise the first free slot inside `replace_window`
/// (the ways this fill is allowed to claim) is reported; otherwise
/// the caller must evict.
///
/// Factored from the fill paths of the trace cache, preconstruction
/// buffers and unified store, which all used to walk the set twice
/// (`range.clone()` refresh pass, then a free-way pass).
pub(crate) fn probe_or_free<T>(
    slots: &[Option<T>],
    replace_window: Range<usize>,
    is_match: impl Fn(&T) -> bool,
) -> ProbeSlot {
    let mut free = None;
    for (i, slot) in slots.iter().enumerate() {
        match slot {
            Some(entry) => {
                if is_match(entry) {
                    return ProbeSlot::Match(i);
                }
            }
            None => {
                if free.is_none() && replace_window.contains(&i) {
                    free = Some(i);
                }
            }
        }
    }
    match free {
        Some(i) => ProbeSlot::Free(i),
        None => ProbeSlot::Evict,
    }
}

/// The slot a fault injected with `salt` strikes: the
/// `salt % count`-th, in slot order, of the `count` occupied slots
/// whose entry `eligible` accepts; `None` when there is none. It counts
/// and then walks the slots, so it allocates nothing.
pub(crate) fn fault_victim<T>(
    slots: &[Option<T>],
    salt: u64,
    eligible: impl Fn(&T) -> bool,
) -> Option<usize> {
    let candidates = || {
        slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.as_ref().is_some_and(&eligible))
            .map(|(i, _)| i)
    };
    let count = candidates().count() as u64;
    if count == 0 {
        return None;
    }
    candidates().nth((salt % count) as usize) // narrow: < count ≤ slots.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_beats_free() {
        let slots = [None, Some(3), Some(7)];
        assert_eq!(
            probe_or_free(&slots, 0..3, |&v| v == 7),
            ProbeSlot::Match(2)
        );
    }

    #[test]
    fn first_free_in_window() {
        let slots: [Option<u32>; 4] = [None, Some(1), None, None];
        assert_eq!(probe_or_free(&slots, 2..4, |_| false), ProbeSlot::Free(2));
    }

    #[test]
    fn free_outside_window_ignored() {
        let slots: [Option<u32>; 3] = [None, Some(1), Some(2)];
        assert_eq!(probe_or_free(&slots, 1..3, |_| false), ProbeSlot::Evict);
    }

    #[test]
    fn fault_victim_indexes_eligible_slots_by_salt() {
        let slots = [Some(1), None, Some(2), Some(3), None, Some(4)];
        let odd = |&v: &u32| v % 2 == 1;
        // Eligible slots in order: 0 (1) and 3 (3).
        assert_eq!(fault_victim(&slots, 0, odd), Some(0));
        assert_eq!(fault_victim(&slots, 1, odd), Some(3));
        assert_eq!(fault_victim(&slots, 6, odd), Some(0));
        // Occupied slots in order: 0, 2, 3 and 5.
        assert_eq!(fault_victim(&slots, 9, |_| true), Some(2));
        assert_eq!(fault_victim(&slots, 9, |_| false), None);
        assert_eq!(fault_victim::<u32>(&[None, None], 3, |_| true), None);
    }

    #[test]
    fn full_set_requires_eviction() {
        let slots = [Some(1), Some(2)];
        assert_eq!(probe_or_free(&slots, 0..2, |_| false), ProbeSlot::Evict);
    }
}
