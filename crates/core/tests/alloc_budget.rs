//! Allocation budget of the per-machine half of the back end, on every
//! benchmark: once a profile's traces are picked, compacting it for a
//! machine allocates little beyond each emitted word's slot vector,
//! lowering allocates a fixed handful of tables, and simulation
//! allocates nothing per cycle.
//!
//! A counting global allocator tallies the allocations of each thread
//! on its own, so the other tests of this binary, running in parallel,
//! do not disturb the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use symbol_compactor::{CompactMode, Compactor, TracePolicy};
use symbol_core::benchmarks;
use symbol_core::pipeline::Compiled;
use symbol_vliw::{DecodedVliw, DecodedVliwSim, MachineConfig, SimConfig};

thread_local! {
    /// Allocations made by this thread so far. A `const` initializer
    /// and no destructor: counting never allocates and works until the
    /// thread is gone.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation on
/// the calling thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the count is a thread-local
// `Cell` that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `alloc` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `alloc_zeroed` are passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`, and
        // the caller's guarantees for `realloc` are passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Runs `f`, returning its result and the allocations it made.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn compaction_lowering_and_simulation_stay_within_their_budgets() {
    let machine = MachineConfig::units(3);
    let mode = CompactMode::TraceSchedule;
    for b in benchmarks::ALL {
        let compiled = Compiled::from_source(b.source).expect("compiles");
        let run = compiled.run_sequential().expect("runs");
        let compactor = Compactor::new(&compiled.ici, &run.stats, &TracePolicy::default());
        // The first call picks the traces; the second is the
        // per-machine pass alone.
        compactor.compact(&machine, mode).expect("compacts");
        let (compacted, n) = allocations(|| compactor.compact(&machine, mode).expect("compacts"));
        let words = compacted.program.len() as u64;
        assert!(
            n <= 2 * words,
            "{}: compaction made {n} allocations for {words} words",
            b.name
        );

        let (decoded, n) = allocations(|| DecodedVliw::new(&compacted.program, machine));
        assert!(n <= 8, "{}: lowering made {n} allocations", b.name);

        let mut sim = DecodedVliwSim::new(&decoded, &compiled.layout);
        let (result, n) = allocations(|| sim.run(&SimConfig::default()));
        let cycles = result.expect("simulates").cycles;
        assert!(
            n <= 8,
            "{}: simulation made {n} allocations in {cycles} cycles",
            b.name
        );
    }
}
