//! Prefetch caches feeding the preconstruction trace constructors.

use crate::{line_of, INSTRS_PER_LINE};
use tpc_isa::Addr;

/// One of the small instruction buffers that decouple I-cache fetch
/// from trace construction (paper Section 3.3.1).
///
/// Holds a fixed number of instructions (256 by default = 16 lines),
/// fully associative, and — as in the paper — lines are never
/// replaced: when the cache is full, preconstruction for its region
/// terminates. The cache is cleared wholesale, in place, when it is
/// re-assigned to a new region: its storage is allocated once, at
/// construction.
#[derive(Debug, Clone)]
pub struct PrefetchCache {
    lines: Vec<u64>,
    capacity_lines: usize,
}

impl PrefetchCache {
    /// Creates a prefetch cache holding `capacity_instrs` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_instrs` is not a positive multiple of the
    /// line size (16 instructions).
    pub fn new(capacity_instrs: u32) -> Self {
        assert!(
            capacity_instrs > 0 && capacity_instrs.is_multiple_of(INSTRS_PER_LINE),
            "capacity must be a positive multiple of {INSTRS_PER_LINE}"
        );
        let capacity_lines = (capacity_instrs / INSTRS_PER_LINE) as usize;
        PrefetchCache {
            lines: Vec::with_capacity(capacity_lines),
            capacity_lines,
        }
    }

    /// Creates the paper's 256-instruction prefetch cache.
    pub fn paper_default() -> Self {
        Self::new(256)
    }

    /// Whether the instruction at `addr` is resident.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        self.lines.contains(&line_of(addr))
    }

    /// Whether there is room for another line.
    pub fn has_room(&self) -> bool {
        self.lines.len() < self.capacity_lines
    }

    /// Whether the cache has filled up (region must terminate).
    pub fn is_full(&self) -> bool {
        !self.has_room()
    }

    /// Inserts the line containing `addr`.
    ///
    /// Returns `false` — and inserts nothing — when the cache is full
    /// (the caller then terminates preconstruction for the region).
    /// Inserting an already-present line succeeds and changes nothing.
    pub fn insert_line(&mut self, addr: Addr) -> bool {
        let line = line_of(addr);
        if self.lines.contains(&line) {
            return true;
        }
        if self.lines.len() >= self.capacity_lines {
            return false;
        }
        self.lines.push(line);
        true
    }

    /// Empties the cache for reuse by a new region.
    pub fn clear(&mut self) {
        self.lines.clear();
    }

    /// Capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.capacity_lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains_whole_line() {
        let mut p = PrefetchCache::paper_default();
        assert!(p.insert_line(Addr::new(20)));
        assert!(p.contains(Addr::new(16)));
        assert!(p.contains(Addr::new(31)));
        assert!(!p.contains(Addr::new(32)));
    }

    #[test]
    fn fills_up_and_refuses() {
        let mut p = PrefetchCache::new(32); // 2 lines
        assert!(p.insert_line(Addr::new(0)));
        assert!(p.insert_line(Addr::new(16)));
        assert!(p.is_full());
        assert!(!p.insert_line(Addr::new(32)));
        // Re-inserting a resident line still succeeds.
        assert!(p.insert_line(Addr::new(0)));
    }

    #[test]
    fn clear_resets_for_new_region() {
        let mut p = PrefetchCache::new(16);
        p.insert_line(Addr::new(0));
        assert!(p.is_full());
        p.clear();
        assert!(p.has_room());
        assert!(!p.contains(Addr::new(0)));
    }

    #[test]
    fn paper_default_capacity() {
        let p = PrefetchCache::paper_default();
        assert_eq!(p.capacity_lines(), 16);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn non_line_multiple_capacity_rejected() {
        let _ = PrefetchCache::new(17);
    }
}
