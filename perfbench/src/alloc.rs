//! A counting global allocator for the traced run.
//!
//! Every allocation (and reallocation) on the current thread is counted
//! into one of three regions: the simulator and benchmark code
//! ([`Region::Sim`]), the protocol stack behind `Process::on_start` /
//! `on_batch` ([`Region::Stack`]), and the invariant monitor behind
//! `Observer::after_event` ([`Region::Monitor`]). The trace wrappers
//! switch the region around each call. Counting is off unless
//! [`set_counting`] turned it on, so the untraced run pays one
//! thread-local flag test per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Which layer an allocation is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Region {
    /// The simulator's event loop and everything outside process calls.
    Sim = 0,
    /// Inside `Process::on_start` / `Process::on_batch`.
    Stack = 1,
    /// Inside `Observer::after_event`.
    Monitor = 2,
}

struct State {
    counting: Cell<bool>,
    region: Cell<Region>,
    counts: [Cell<u64>; 3],
}

thread_local! {
    // Const-initialized and drop-free: reading it never allocates, so it
    // is safe to touch from inside the allocator.
    static STATE: State = const {
        State {
            counting: Cell::new(false),
            region: Cell::new(Region::Sim),
            counts: [Cell::new(0), Cell::new(0), Cell::new(0)],
        }
    };
}

/// The allocator installed by `main`: the system allocator plus counts.
pub struct Counting;

fn count() {
    let _ = STATE.try_with(|s| {
        if s.counting.get() {
            let c = &s.counts[s.region.get() as usize];
            c.set(c.get() + 1);
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only extra work is a thread-local counter update, which
// neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

/// Turns counting on or off for the current thread and zeroes the counts.
pub fn set_counting(on: bool) {
    STATE.with(|s| {
        s.counting.set(on);
        s.region.set(Region::Sim);
        for c in &s.counts {
            c.set(0);
        }
    });
}

/// Charges the current thread's allocations to `region` until the
/// returned previous region is restored with [`leave`].
pub fn enter(region: Region) -> Region {
    STATE.with(|s| s.region.replace(region))
}

/// Restores the region [`enter`] returned.
pub fn leave(prev: Region) {
    STATE.with(|s| s.region.set(prev));
}

/// Allocations counted so far per region, indexed by `Region as usize`.
pub fn counts() -> [u64; 3] {
    STATE.with(|s| [s.counts[0].get(), s.counts[1].get(), s.counts[2].get()])
}
