//! Allocation-count tests: the scheduler constructs one Bloom filter per
//! transaction begin, so filters at the paper's evaluated sizes (≤ 2048
//! bits) must not touch the heap — neither on construction nor in the
//! signature algebra (union, intersects, intersection_estimate).
//!
//! Allocations are counted per thread, so the test harness running
//! sibling tests (or its own bookkeeping) in parallel cannot leak
//! allocations into a measured window.

use bfgts_bloomsig::BloomFilter;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::spin_loop;
use std::sync::atomic::{AtomicU8, Ordering};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates every operation to the system allocator unchanged;
// the counter is a thread-local side effect that never allocates
// (`const`-initialised, no destructor), and `try_with` skips counting
// once the thread's locals are torn down.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Runs `f` and returns how many heap allocations it performed on the
/// calling thread.
fn allocations_during<R>(f: impl FnOnce() -> R) -> u64 {
    let before = allocations();
    let result = f();
    let after = allocations();
    drop(result);
    after - before
}

#[test]
fn small_and_medium_filters_allocate_nothing() {
    for bits in [64u32, 512, 1024, 2048] {
        let allocs = allocations_during(|| {
            let mut f = BloomFilter::new(bits, 4);
            for k in 0..64u64 {
                f.insert(k);
            }
            f
        });
        assert_eq!(allocs, 0, "BloomFilter::new({bits}) touched the heap");
    }
}

#[test]
fn inline_signature_algebra_allocates_nothing() {
    let mut a = BloomFilter::new(2048, 4);
    let mut b = BloomFilter::new(2048, 4);
    for k in 0..100u64 {
        a.insert(k);
        b.insert(k + 50);
    }
    let allocs = allocations_during(|| {
        let u = a.union(&b);
        let hit = a.intersects(&b);
        let est = a.intersection_estimate(&b);
        (u, hit, est)
    });
    assert_eq!(allocs, 0, "inline signature algebra touched the heap");
}

#[test]
fn large_filters_fall_back_to_the_heap() {
    let allocs = allocations_during(|| BloomFilter::new(8192, 4));
    assert!(allocs > 0, "8192-bit filter should heap-allocate");
}

#[test]
fn sibling_thread_allocations_stay_out_of_the_window() {
    // Handshake: the window opens (1), the sibling allocates and reports
    // back (2), the window closes. A process-global counter would see
    // the sibling's allocation inside the window.
    let stage = AtomicU8::new(0);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while stage.load(Ordering::Acquire) != 1 {
                spin_loop();
            }
            drop(std::hint::black_box(BloomFilter::new(8192, 4)));
            stage.store(2, Ordering::Release);
        });
        let allocs = allocations_during(|| {
            stage.store(1, Ordering::Release);
            while stage.load(Ordering::Acquire) != 2 {
                spin_loop();
            }
        });
        assert_eq!(allocs, 0, "a sibling thread's allocation was counted");
    });
}
