//! The [`BloomFilter`] signature representation.

use crate::estimate::{self, EstimateParams};
use crate::hash::probe_positions;
use std::fmt;

/// Words of inline storage for the small-filter variant (≤ 512 bits).
const INLINE_SMALL: usize = 8;
/// Words of inline storage for the medium-filter variant (≤ 2048 bits).
const INLINE_MEDIUM: usize = 32;

/// Backing storage for the filter's bit array.
///
/// The simulator allocates one filter per transaction begin on the
/// scheduler's hot path, and the paper's evaluated geometries are small
/// (512–2048 bits for every headline configuration). Filters up to 2048
/// bits therefore live entirely inline — constructing them performs zero
/// heap allocations — and only the 4096/8192-bit sweep sizes fall back to
/// a `Vec`. The active length is always `params.bits / 64` words; unused
/// tail words of an inline array are kept zero as an invariant so
/// whole-variant comparisons and hashes agree with active-slice semantics.
#[derive(Clone)]
enum Words {
    /// Up to 512 bits inline.
    Small([u64; INLINE_SMALL]),
    /// Up to 2048 bits inline.
    Medium([u64; INLINE_MEDIUM]),
    /// Larger filters (the Figure 6 sweep's 4096/8192-bit points).
    Heap(Vec<u64>),
}

impl Words {
    fn with_words(n: usize) -> Self {
        if n <= INLINE_SMALL {
            Words::Small([0; INLINE_SMALL])
        } else if n <= INLINE_MEDIUM {
            Words::Medium([0; INLINE_MEDIUM])
        } else {
            Words::Heap(vec![0; n])
        }
    }
}

/// A fixed-geometry Bloom filter over 64-bit keys (cache-line addresses).
///
/// This models the hardware signatures of the paper: `m` bits (512–8192 in
/// the evaluation), `k` hash functions, with the union / population-count /
/// intersection-estimate operations of §3.2 implemented over 64-bit words
/// so the scheduler's cost model can charge one `popcnt` per word.
///
/// Filters of at most 2048 bits store their words inline (no heap
/// allocation), and the three population counts behind
/// [`intersection_estimate`](BloomFilter::intersection_estimate) are fused
/// into a single pass over the word pairs.
///
/// # Example
///
/// ```
/// use bfgts_bloomsig::BloomFilter;
///
/// let mut f = BloomFilter::new(512, 4);
/// f.insert(0xdead);
/// assert!(f.may_contain(0xdead));
/// assert!(f.count_ones() <= 4);
/// ```
#[derive(Clone)]
pub struct BloomFilter {
    words: Words,
    params: EstimateParams,
}

impl BloomFilter {
    /// Creates an empty filter of `bits` total size using `hashes` hash
    /// functions.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 2` or `hashes == 0` (see [`EstimateParams::new`]),
    /// or if `bits` is not a multiple of 64 (hardware signatures are built
    /// from 64-bit registers; the cost model counts whole words).
    pub fn new(bits: u32, hashes: u32) -> Self {
        assert!(
            bits.is_multiple_of(64),
            "filter size must be a multiple of 64 bits"
        );
        let params = EstimateParams::new(bits, hashes);
        Self {
            words: Words::with_words((bits / 64) as usize),
            params,
        }
    }

    /// Filter geometry (size and hash count) used for estimation.
    pub fn params(&self) -> EstimateParams {
        self.params
    }

    /// Total size in bits (`m`).
    pub fn bits(&self) -> u32 {
        self.params.bits
    }

    /// Number of hash functions (`k`).
    pub fn hashes(&self) -> u32 {
        self.params.hashes
    }

    /// Number of 64-bit words backing the filter. The scheduler cost model
    /// charges one `popcnt` instruction per word.
    pub fn word_count(&self) -> usize {
        (self.params.bits / 64) as usize
    }

    /// The active words of the filter.
    #[inline]
    fn words(&self) -> &[u64] {
        let n = self.word_count();
        match &self.words {
            Words::Small(a) => &a[..n],
            Words::Medium(a) => &a[..n],
            Words::Heap(v) => v,
        }
    }

    /// The active words of the filter, mutably.
    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        let n = (self.params.bits / 64) as usize;
        match &mut self.words {
            Words::Small(a) => &mut a[..n],
            Words::Medium(a) => &mut a[..n],
            Words::Heap(v) => v,
        }
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: u64) {
        let (hashes, bits) = (self.params.hashes, self.params.bits);
        let words = self.words_mut();
        for pos in probe_positions(key, hashes, bits) {
            *words
                .get_mut((pos / 64) as usize)
                .expect("probe positions stay below the bit count") |= 1u64 << (pos % 64);
        }
    }

    /// Forces a single bit position high — the fault-injection corruption
    /// hook (DESIGN.md §9). A forced bit manufactures false positives
    /// without inserting a key, inflating intersection estimates and
    /// exercising the `intersection_size` clamp path; legitimate inserts
    /// only ever go through hashed probe positions. The caller supplies
    /// the position so this crate stays a leaf (no RNG dependency).
    ///
    /// # Panics
    ///
    /// Panics if `pos >= bits`.
    pub fn set_bit(&mut self, pos: u32) {
        assert!(
            pos < self.params.bits,
            "bit {pos} out of range for a {}-bit filter",
            self.params.bits
        );
        *self
            .words_mut()
            .get_mut((pos / 64) as usize)
            .expect("bit position bounds-checked above") |= 1u64 << (pos % 64);
    }

    /// Membership test. False positives are possible, false negatives are
    /// not.
    pub fn may_contain(&self, key: u64) -> bool {
        let words = self.words();
        probe_positions(key, self.params.hashes, self.params.bits).all(|pos| {
            let word = words
                .get((pos / 64) as usize)
                .copied()
                .expect("probe positions stay below the bit count");
            word & (1u64 << (pos % 64)) != 0
        })
    }

    /// Population count `t`: number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words().iter().map(|w| w.count_ones()).sum()
    }

    /// True if no key has been inserted.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        match &mut self.words {
            Words::Small(a) => a.fill(0),
            Words::Medium(a) => a.fill(0),
            Words::Heap(v) => v.fill(0),
        }
    }

    /// Bitwise union with `other`, returning a new filter. Inline-stored
    /// filters (≤ 2048 bits) build the result without touching the heap.
    ///
    /// # Panics
    ///
    /// Panics if the two filters have different geometry.
    pub fn union(&self, other: &Self) -> Self {
        self.check_compatible(other);
        let mut out = self.clone();
        out.union_in_place(other);
        out
    }

    /// In-place bitwise union.
    ///
    /// # Panics
    ///
    /// Panics if the two filters have different geometry.
    pub fn union_in_place(&mut self, other: &Self) {
        self.check_compatible(other);
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a |= b;
        }
    }

    /// True if the bitwise intersection is non-empty. This is the
    /// `intersectBlooms` test used by `commitTx` (paper Example 4) to decide
    /// whether a serialisation decision was justified.
    ///
    /// # Panics
    ///
    /// Panics if the two filters have different geometry.
    pub fn intersects(&self, other: &Self) -> bool {
        self.check_compatible(other);
        self.words()
            .iter()
            .zip(other.words())
            .any(|(a, b)| a & b != 0)
    }

    /// Estimated number of elements encoded in this filter (paper eq. 2).
    pub fn estimate_len(&self) -> f64 {
        estimate::set_size(self.params, self.count_ones())
    }

    /// Estimated `|A ∩ B|` via inclusion–exclusion on population counts
    /// (paper eq. 3).  May be slightly negative for disjoint sets.
    ///
    /// The three population counts the equation needs (`|A|`, `|B|` and
    /// `|A ∪ B|`) are gathered in one fused pass over the word pairs —
    /// three popcounts per word pair, one traversal — instead of three
    /// separate traversals with an allocated union filter in the middle.
    ///
    /// # Panics
    ///
    /// Panics if the two filters have different geometry.
    pub fn intersection_estimate(&self, other: &Self) -> f64 {
        self.check_compatible(other);
        let (mut ones_a, mut ones_b, mut ones_union) = (0u32, 0u32, 0u32);
        for (&a, &b) in self.words().iter().zip(other.words()) {
            ones_a += a.count_ones();
            ones_b += b.count_ones();
            ones_union += (a | b).count_ones();
        }
        estimate::intersection_size(self.params, ones_a, ones_b, ones_union)
    }

    fn check_compatible(&self, other: &Self) {
        assert_eq!(
            self.params, other.params,
            "bloom filter geometry mismatch: {:?} vs {:?}",
            self.params, other.params
        );
    }
}

impl PartialEq for BloomFilter {
    fn eq(&self, other: &Self) -> bool {
        self.params == other.params && self.words() == other.words()
    }
}

impl Eq for BloomFilter {}

impl std::hash::Hash for BloomFilter {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.params.hash(state);
        self.words().hash(state);
    }
}

impl fmt::Debug for BloomFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BloomFilter")
            .field("bits", &self.params.bits)
            .field("hashes", &self.params.hashes)
            .field("ones", &self.count_ones())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_filter_is_empty() {
        let f = BloomFilter::new(512, 4);
        assert!(f.is_empty());
        assert_eq!(f.count_ones(), 0);
        assert_eq!(f.word_count(), 8);
    }

    #[test]
    fn storage_variant_matches_size() {
        assert!(matches!(BloomFilter::new(64, 4).words, Words::Small(_)));
        assert!(matches!(BloomFilter::new(512, 4).words, Words::Small(_)));
        assert!(matches!(BloomFilter::new(576, 4).words, Words::Medium(_)));
        assert!(matches!(BloomFilter::new(1024, 4).words, Words::Medium(_)));
        assert!(matches!(BloomFilter::new(2048, 4).words, Words::Medium(_)));
        assert!(matches!(BloomFilter::new(4096, 4).words, Words::Heap(_)));
        assert!(matches!(BloomFilter::new(8192, 4).words, Words::Heap(_)));
    }

    #[test]
    fn active_slice_length_is_geometry_not_capacity() {
        for bits in [64u32, 512, 1024, 2048, 4096] {
            let f = BloomFilter::new(bits, 4);
            assert_eq!(f.words().len(), (bits / 64) as usize, "bits={bits}");
            assert_eq!(f.word_count(), (bits / 64) as usize);
        }
    }

    #[test]
    fn inline_tail_words_stay_zero() {
        // 1024 bits uses 16 of the 32 medium words; operations must never
        // touch the tail (the equality/hash invariant).
        let mut f = BloomFilter::new(1024, 4);
        for k in 0..500u64 {
            f.insert(k);
        }
        let mut g = BloomFilter::new(1024, 4);
        g.union_in_place(&f);
        match (&f.words, &g.words) {
            (Words::Medium(a), Words::Medium(b)) => {
                assert!(a[16..].iter().all(|&w| w == 0));
                assert!(b[16..].iter().all(|&w| w == 0));
            }
            _ => panic!("expected medium storage"),
        }
    }

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(1024, 4);
        for key in 0..200u64 {
            f.insert(key * 7919);
        }
        for key in 0..200u64 {
            assert!(f.may_contain(key * 7919));
        }
    }

    #[test]
    fn false_positive_rate_is_reasonable() {
        let mut f = BloomFilter::new(2048, 4);
        for key in 0..100u64 {
            f.insert(key);
        }
        let fp = (10_000..20_000u64).filter(|&k| f.may_contain(k)).count();
        // theoretical fp rate for m=2048, k=4, n=100 is ~0.1%
        assert!(fp < 200, "false positive count too high: {fp}");
    }

    #[test]
    fn insert_is_idempotent() {
        let mut f = BloomFilter::new(512, 4);
        f.insert(99);
        let ones = f.count_ones();
        f.insert(99);
        assert_eq!(f.count_ones(), ones);
    }

    #[test]
    fn set_bit_forces_exact_positions() {
        let mut f = BloomFilter::new(512, 4);
        f.set_bit(0);
        f.set_bit(63);
        f.set_bit(64);
        f.set_bit(511);
        assert_eq!(f.count_ones(), 4);
        f.set_bit(64); // idempotent
        assert_eq!(f.count_ones(), 4);
        assert_eq!(f.words()[0], 1 | (1u64 << 63));
        assert_eq!(f.words()[1], 1);
        assert_eq!(f.words()[7], 1u64 << 63);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_bit_rejects_out_of_range_positions() {
        BloomFilter::new(512, 4).set_bit(512);
    }

    #[test]
    fn clear_resets() {
        let mut f = BloomFilter::new(512, 4);
        f.insert(1);
        f.clear();
        assert!(f.is_empty());
    }

    #[test]
    fn union_contains_both() {
        let mut a = BloomFilter::new(512, 4);
        let mut b = BloomFilter::new(512, 4);
        a.insert(1);
        b.insert(2);
        let u = a.union(&b);
        assert!(u.may_contain(1) && u.may_contain(2));
    }

    #[test]
    fn union_in_place_matches_union() {
        let mut a = BloomFilter::new(512, 4);
        let mut b = BloomFilter::new(512, 4);
        for k in 0..50 {
            a.insert(k);
            b.insert(k + 25);
        }
        let u = a.union(&b);
        a.union_in_place(&b);
        assert_eq!(a, u);
    }

    #[test]
    fn intersects_detects_shared_key() {
        let mut a = BloomFilter::new(512, 4);
        let mut b = BloomFilter::new(512, 4);
        a.insert(42);
        b.insert(42);
        assert!(a.intersects(&b));
    }

    #[test]
    fn empty_filters_do_not_intersect() {
        let a = BloomFilter::new(512, 4);
        let b = BloomFilter::new(512, 4);
        assert!(!a.intersects(&b));
    }

    #[test]
    fn estimate_len_tracks_inserted_count() {
        let mut f = BloomFilter::new(4096, 4);
        for key in 0..150u64 {
            f.insert(key.wrapping_mul(0x9e3779b9));
        }
        let est = f.estimate_len();
        assert!((est - 150.0).abs() < 10.0, "estimate {est} far from 150");
    }

    #[test]
    fn intersection_estimate_tracks_overlap() {
        let mut a = BloomFilter::new(4096, 4);
        let mut b = BloomFilter::new(4096, 4);
        for key in 0..100u64 {
            a.insert(key);
        }
        for key in 60..160u64 {
            b.insert(key);
        }
        let est = a.intersection_estimate(&b);
        assert!((est - 40.0).abs() < 12.0, "estimate {est} far from 40");
    }

    #[test]
    fn fused_estimate_matches_unfused_reference() {
        // The fused single-pass popcounts must agree exactly with the
        // textbook three-pass computation for every storage variant.
        for bits in [512u32, 1024, 2048, 4096] {
            let mut a = BloomFilter::new(bits, 4);
            let mut b = BloomFilter::new(bits, 4);
            for key in 0..80u64 {
                a.insert(key.wrapping_mul(0x9e3779b9));
                b.insert((key + 40).wrapping_mul(0x9e3779b9));
            }
            let union_ones = a.union(&b).count_ones();
            let reference =
                estimate::intersection_size(a.params(), a.count_ones(), b.count_ones(), union_ones);
            assert_eq!(a.intersection_estimate(&b), reference, "bits={bits}");
        }
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn mismatched_geometry_panics() {
        let a = BloomFilter::new(512, 4);
        let b = BloomFilter::new(1024, 4);
        let _ = a.intersects(&b);
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn non_word_size_rejected() {
        BloomFilter::new(100, 4);
    }

    #[test]
    fn debug_is_nonempty() {
        let f = BloomFilter::new(512, 4);
        assert!(!format!("{f:?}").is_empty());
    }

    #[test]
    fn eq_and_hash_use_active_slice() {
        // detlint: allow(D001,D004) -- test asserts Hash-impl consistency within one process; no ordering or cross-run value is derived
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut a = BloomFilter::new(1024, 4);
        let mut b = BloomFilter::new(1024, 4);
        for k in 0..30u64 {
            a.insert(k);
            b.insert(k);
        }
        assert_eq!(a, b);
        let hash = |f: &BloomFilter| {
            let mut h = DefaultHasher::new(); // detlint: allow(D004) -- same-process hash comparison only
            f.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        b.insert(31);
        assert_ne!(a, b);
    }
}
