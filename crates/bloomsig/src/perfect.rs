//! Exact-set ("perfect") signatures.

use std::cmp::Ordering;

/// An exact-set signature: stores the precise set of keys.
///
/// The paper's evaluation uses perfect signatures in two places: the LogTM
/// substrate's conflict detection ("perfect signature used for conflict
/// detection", Table 2) and the `BFGTS-NoOverhead` configuration, which
/// computes similarity from exact read/write sets instead of Bloom
/// estimates.
///
/// # Example
///
/// ```
/// use bfgts_bloomsig::PerfectSignature;
///
/// let mut a = PerfectSignature::new();
/// let mut b = PerfectSignature::new();
/// a.insert(1);
/// a.insert(2);
/// b.insert(2);
/// assert_eq!(a.intersection_estimate(&b), 1.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PerfectSignature {
    // Ascending and without duplicates, so two sets intersect in one
    // merge.
    keys: Vec<u64>,
}

impl PerfectSignature {
    /// Creates an empty signature.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a key. This shifts the larger keys up one place, so a set
    /// of many keys is cheaper to build with `collect` or `extend`.
    pub fn insert(&mut self, key: u64) {
        if let Err(i) = self.keys.binary_search(&key) {
            self.keys.insert(i, key);
        }
    }

    /// Exact membership test.
    pub fn may_contain(&self, key: u64) -> bool {
        self.keys.binary_search(&key).is_ok()
    }

    /// Exact number of keys stored.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// [`PerfectSignature::len`] as an `f64`, the form Bloom estimates
    /// take.
    pub fn estimate_len(&self) -> f64 {
        self.keys.len() as f64
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// True if the two signatures share a key.
    pub fn intersects(&self, other: &Self) -> bool {
        self.shared(other).next().is_some()
    }

    /// Exact size of the intersection with `other`.
    pub fn intersection_len(&self, other: &Self) -> usize {
        self.shared(other).count()
    }

    /// [`PerfectSignature::intersection_len`] as an `f64`, the form
    /// Bloom estimates take.
    pub fn intersection_estimate(&self, other: &Self) -> f64 {
        self.intersection_len(other) as f64
    }

    /// Merges `other` into `self`.
    pub fn union_in_place(&mut self, other: &Self) {
        self.extend(other.iter());
    }

    /// Removes all keys.
    pub fn clear(&mut self) {
        self.keys.clear();
    }

    /// Iterates over the stored keys in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.keys.iter().copied()
    }

    /// The keys both signatures hold, ascending: one merge of the two
    /// sorted key lists.
    fn shared<'a>(&'a self, other: &'a Self) -> impl Iterator<Item = u64> + 'a {
        let (mut i, mut j) = (0, 0);
        std::iter::from_fn(move || {
            while let (Some(&x), Some(&y)) = (self.keys.get(i), other.keys.get(j)) {
                match x.cmp(&y) {
                    Ordering::Less => i += 1,
                    Ordering::Greater => j += 1,
                    Ordering::Equal => {
                        (i, j) = (i + 1, j + 1);
                        return Some(x);
                    }
                }
            }
            None
        })
    }
}

impl FromIterator<u64> for PerfectSignature {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut sig = Self::new();
        sig.extend(iter);
        sig
    }
}

impl Extend<u64> for PerfectSignature {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        self.keys.extend(iter);
        self.keys.sort_unstable();
        self.keys.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_membership() {
        let mut s = PerfectSignature::new();
        s.insert(5);
        assert!(s.may_contain(5));
        assert!(!s.may_contain(6));
    }

    #[test]
    fn exact_len() {
        let s: PerfectSignature = (0..100).collect();
        assert_eq!(s.len(), 100);
        assert_eq!(s.estimate_len(), 100.0);
    }

    #[test]
    fn duplicate_inserts_counted_once() {
        let mut s = PerfectSignature::new();
        s.insert(1);
        s.insert(1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn intersection_is_exact() {
        let a: PerfectSignature = (0..100).collect();
        let b: PerfectSignature = (60..160).collect();
        assert_eq!(a.intersection_len(&b), 40);
        assert_eq!(a.intersection_estimate(&b), 40.0);
        assert!(a.intersects(&b));
    }

    #[test]
    fn disjoint_sets_do_not_intersect() {
        let a: PerfectSignature = (0..10).collect();
        let b: PerfectSignature = (10..20).collect();
        assert!(!a.intersects(&b));
        assert_eq!(a.intersection_estimate(&b), 0.0);
    }

    #[test]
    fn union_in_place_merges() {
        let mut a: PerfectSignature = (0..10).collect();
        let b: PerfectSignature = (5..15).collect();
        a.union_in_place(&b);
        assert_eq!(a.len(), 15);
    }

    #[test]
    fn clear_empties() {
        let mut a: PerfectSignature = (0..10).collect();
        a.clear();
        assert!(a.is_empty());
    }
}
