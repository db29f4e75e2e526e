//! Std-only test support for the BFGTS reproduction.
//!
//! The workspace builds against an offline registry, so the usual
//! third-party testing crates (proptest) are not available. This crate
//! supplies the piece of them the repository actually uses, with
//! deterministic behaviour and zero dependencies: [`Gen`] +
//! [`run_cases`], randomised-property testing with a splitmix64-fed value
//! generator and a case driver that reruns a property over many derived
//! seeds and reports the failing seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, AssertUnwindSafe};

/// A small deterministic pseudo-random value generator (splitmix64).
///
/// Every value drawn from a `Gen` is a pure function of the seed, so a
/// failing property case can be replayed by constructing `Gen::new` with
/// the seed printed by [`run_cases`].
#[derive(Debug, Clone)]
pub struct Gen {
    state: u64,
}

impl Gen {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Next 64 uniformly distributed bits.
    pub fn u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`. Returns 0 when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            // Multiply-shift rejection-free mapping; bias is < 2^-32 for
            // every bound this test suite uses.
            ((self.u64() as u128 * n as u128) >> 64) as u64
        }
    }

    /// Uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below((hi - lo) as u64) as usize
    }

    /// Uniform `u32` in `[lo, hi)`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below((hi - lo) as u64) as u32
    }

    /// Uniform `u64` in `[lo, hi)`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Uniform `u16`.
    pub fn u16(&mut self) -> u16 {
        self.u64() as u16
    }

    /// Uniform `u8`.
    pub fn u8(&mut self) -> u8 {
        self.u64() as u8
    }

    /// Fair coin flip.
    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    /// A vector of `len in [min_len, max_len)` elements drawn by `f`.
    pub fn vec_with<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut f: impl FnMut(&mut Self) -> T,
    ) -> Vec<T> {
        let len = self.usize_in(min_len, max_len);
        (0..len).map(|_| f(self)).collect()
    }

    /// A vector of uniform `u64` keys.
    pub fn u64_vec(&mut self, min_len: usize, max_len: usize) -> Vec<u64> {
        self.vec_with(min_len, max_len, |g| g.u64())
    }

    /// Picks one element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.usize_in(0, items.len())]
    }
}

/// Runs `property` over `cases` deterministic seeds derived from `name`.
///
/// On a panic inside the property, re-panics with the offending seed so
/// the case can be replayed in isolation with `Gen::new(seed)`.
pub fn run_cases(name: &str, cases: u32, property: impl Fn(&mut Gen)) {
    // FNV-1a over the name gives each property its own seed stream.
    let mut base = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        base ^= b as u64;
        base = base.wrapping_mul(0x100_0000_01b3);
    }
    for case in 0..cases {
        let seed = base ^ (case as u64).wrapping_mul(0xa076_1d64_78bd_642f);
        let mut gen = Gen::new(seed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| property(&mut gen))) {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!("property '{name}' failed on case {case} (Gen seed {seed:#x}): {msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_is_deterministic() {
        let mut a = Gen::new(7);
        let mut b = Gen::new(7);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut g = Gen::new(1);
        for _ in 0..1000 {
            assert!(g.below(10) < 10);
        }
        assert_eq!(g.below(0), 0);
    }

    #[test]
    fn ranges_are_inclusive_exclusive() {
        let mut g = Gen::new(2);
        let mut seen_lo = false;
        for _ in 0..2000 {
            let v = g.usize_in(3, 6);
            assert!((3..6).contains(&v));
            seen_lo |= v == 3;
        }
        assert!(seen_lo, "lower bound never drawn");
    }

    #[test]
    fn vec_lengths_in_range() {
        let mut g = Gen::new(3);
        for _ in 0..100 {
            let v = g.u64_vec(0, 5);
            assert!(v.len() < 5);
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut g = Gen::new(4);
        for _ in 0..1000 {
            let x = g.f64_in(0.0, 1.0);
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn run_cases_reports_seed_on_failure() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_cases("always-fails", 3, |_| panic!("boom"))
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(
            msg.contains("always-fails") && msg.contains("boom"),
            "{msg}"
        );
    }

    #[test]
    fn run_cases_passes_quietly() {
        run_cases("trivial", 10, |g| {
            let _ = g.u64();
        });
    }
}
