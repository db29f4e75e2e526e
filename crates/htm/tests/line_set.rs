//! Property tests of the gap-coded `LineSet`: it must give back exactly
//! the set it was given, count shared lines as a `BTreeSet` does, and
//! re-encode in place without allocating while a new encoding fits the
//! buffer. Driven by the deterministic case generator in
//! `bfgts-testkit`.
//!
//! Allocations are counted per thread, so sibling tests running in
//! parallel cannot leak into a measured window.

use bfgts_htm::{LineAddr, LineSet};
use bfgts_testkit::{run_cases, Gen};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes the last allocation or reallocation asked for.
    static LAST_SIZE: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates every operation to the system allocator unchanged;
// the counters are thread-local side effects that never allocate
// (`const`-initialised, no destructor), and `try_with` skips counting
// once the thread's locals are torn down.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = LAST_SIZE.try_with(|s| s.set(layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = LAST_SIZE.try_with(|s| s.set(new_size));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Sets every case draws besides its random ones: the empty set, line
/// 0, the last line, a run, and gaps of 2⁶³ and more up to `u64::MAX`.
fn edge_sets() -> Vec<Vec<u64>> {
    vec![
        vec![],
        vec![0],
        vec![u64::MAX],
        vec![0, u64::MAX],
        (0..300).collect(),
        (u64::MAX - 200..=u64::MAX).collect(),
        vec![1, 1 << 63, u64::MAX],
        vec![0, 1, 2, (1 << 63) + 2, (1 << 63) + 3],
    ]
}

/// An ascending, duplicate-free set of up to 300 lines. Gaps mix runs
/// of consecutive lines, gaps of one to three bytes, and gaps of 2⁶³ or
/// more; a gap that would pass `u64::MAX` ends the set, at `u64::MAX`
/// half the time.
fn random_set(g: &mut Gen) -> Vec<u64> {
    let len = g.usize_in(0, 300);
    let mut line = if g.bool() { 0 } else { g.below(1 << 20) };
    let mut set = Vec::with_capacity(len);
    while set.len() < len {
        set.push(line);
        let gap = match g.below(8) {
            0..=3 => 1,
            4 => g.u64_in(2, 1 << 7),
            5 => g.u64_in(1 << 7, 1 << 14),
            6 => g.u64_in(1 << 14, 1 << 21),
            _ => g.u64_in(1 << 63, u64::MAX),
        };
        match line.checked_add(gap) {
            Some(next) => line = next,
            None => {
                if line < u64::MAX && g.bool() {
                    set.push(u64::MAX);
                }
                break;
            }
        }
    }
    set
}

fn addrs(set: &[u64]) -> Vec<LineAddr> {
    set.iter().map(|&line| LineAddr(line)).collect()
}

#[test]
fn iteration_returns_the_assigned_set() {
    run_cases("line_set_roundtrip", 200, |g| {
        let mut held = LineSet::new();
        for set in edge_sets().into_iter().chain((0..8).map(|_| random_set(g))) {
            held.assign(&addrs(&set));
            let lines = held.iter();
            assert_eq!(lines.len(), set.len(), "exact size");
            let back: Vec<u64> = lines.map(LineAddr::get).collect();
            assert_eq!(back, set);
            assert_eq!(held.len(), set.len());
            assert_eq!(held.is_empty(), set.is_empty());
        }
    });
}

#[test]
fn intersection_len_matches_a_btreeset() {
    run_cases("line_set_intersection", 200, |g| {
        let sets: Vec<Vec<u64>> = edge_sets()
            .into_iter()
            .chain((0..6).map(|_| random_set(g)))
            .collect();
        // Pairs of related sets too: `b` keeps part of `a` and adds
        // lines of its own, so the merge meets shared runs and gaps.
        let mut pairs: Vec<(Vec<u64>, Vec<u64>)> = Vec::new();
        for a in &sets {
            let b: &Vec<u64> = g.choose(&sets);
            pairs.push((a.clone(), b.clone()));
            let mut related: BTreeSet<u64> = a.iter().copied().filter(|_| g.bool()).collect();
            related.extend(b.iter().copied().filter(|_| g.bool()));
            pairs.push((a.clone(), related.into_iter().collect()));
        }
        for (a, b) in pairs {
            let mut held = LineSet::new();
            held.assign(&addrs(&a));
            let reference: BTreeSet<u64> = a.iter().copied().collect();
            let expected = b.iter().filter(|line| reference.contains(line)).count();
            assert_eq!(held.intersection_len(&addrs(&b)), expected, "{a:?} ∩ {b:?}");
        }
    });
}

#[test]
fn reassigning_within_the_largest_encoding_allocates_nothing() {
    run_cases("line_set_in_place", 100, |g| {
        let sets: Vec<Vec<LineAddr>> = edge_sets()
            .into_iter()
            .chain((0..24).map(|_| random_set(g)))
            .map(|set| addrs(&set))
            .collect();
        let mut held = LineSet::new();
        let mut largest = 0;
        for _ in 0..48 {
            let set = g.choose(&sets);
            let before = allocations();
            held.assign(set);
            let allocated = allocations() - before;
            let len = held.encoded_len();
            if len <= largest {
                assert_eq!(allocated, 0, "{len} bytes fit the {largest} held");
            } else {
                assert_eq!(allocated, 1, "growing to {len} bytes");
                assert_eq!(
                    LAST_SIZE.with(Cell::get),
                    len,
                    "the buffer grows to the exact encoding"
                );
                largest = len;
            }
        }
    });
}
