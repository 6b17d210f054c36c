//! An exactly counting global allocator.
//!
//! The simulator is single-threaded and deterministic, so the number
//! of allocations it makes over a measure window is an exact count
//! that repeats bit for bit. Binaries that want the counts install
//! [`CountingAlloc`] as their `#[global_allocator]`; without it the
//! counters stay at zero. The counters are per thread, so tests
//! running side by side do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const`-initialised `Cell`s of a `Drop`-free type: reading them
    // never allocates and stays valid while the thread exits.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus two counters: calls to `alloc`,
/// `alloc_zeroed` and `realloc`, and the bytes those calls asked for.
pub struct CountingAlloc;

fn note(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the
// counting touches only two thread-local cells and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`, and the
        // caller upholds `realloc`'s size contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls and requested bytes so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub calls: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
}

impl AllocCount {
    /// This thread's counters now.
    pub fn now() -> AllocCount {
        AllocCount {
            calls: ALLOCS.with(Cell::get),
            bytes: BYTES.with(Cell::get),
        }
    }

    /// What was counted since `earlier`.
    pub fn since(earlier: AllocCount) -> AllocCount {
        let now = AllocCount::now();
        AllocCount {
            calls: now.calls - earlier.calls,
            bytes: now.bytes - earlier.bytes,
        }
    }
}
