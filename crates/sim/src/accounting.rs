//! Cycle-bucket accounting matching the paper's Figure 5 breakdown.
//!
//! The five categories are [`Bucket`], the trace vocabulary's own type
//! (re-exported as `bfgts_sim::Bucket`): the engine charges the same
//! value its `Charge` event names, so nothing converts between the two.

use bfgts_trace::Bucket;
use std::ops::{Add, AddAssign};

/// Per-bucket cycle totals for one thread or one whole run.
///
/// # Example
///
/// ```
/// use bfgts_sim::{Bucket, TimeBuckets};
/// let mut t = TimeBuckets::default();
/// t.charge(Bucket::Tx, 75);
/// t.charge(Bucket::Abort, 25);
/// assert_eq!(t.total_cycles(), 100);
/// assert!((t.fraction(Bucket::Tx) - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeBuckets {
    non_tx: u64,
    kernel: u64,
    tx: u64,
    abort: u64,
    scheduling: u64,
}

impl TimeBuckets {
    /// Adds `cycles` to `bucket`. (Named `charge` to avoid clashing with
    /// [`std::ops::Add::add`].)
    pub fn charge(&mut self, bucket: Bucket, cycles: u64) {
        let slot = self.slot(bucket);
        *slot = slot
            .checked_add(cycles)
            .expect("bucket accounting overflowed u64");
    }

    /// Cycles recorded in `bucket`.
    pub fn get(&self, bucket: Bucket) -> u64 {
        match bucket {
            Bucket::NonTx => self.non_tx,
            Bucket::Kernel => self.kernel,
            Bucket::Tx => self.tx,
            Bucket::Abort => self.abort,
            Bucket::Scheduling => self.scheduling,
        }
    }

    fn slot(&mut self, bucket: Bucket) -> &mut u64 {
        match bucket {
            Bucket::NonTx => &mut self.non_tx,
            Bucket::Kernel => &mut self.kernel,
            Bucket::Tx => &mut self.tx,
            Bucket::Abort => &mut self.abort,
            Bucket::Scheduling => &mut self.scheduling,
        }
    }

    /// Moves up to `cycles` from one bucket to another (saturating at the
    /// source bucket's balance) and returns how many cycles actually
    /// moved. Used when work charged optimistically to [`Bucket::Tx`]
    /// turns out to be wasted: an abort re-files it under
    /// [`Bucket::Abort`]. A return value smaller than `cycles` means the
    /// caller asked to move cycles it never charged — correct accounting
    /// never saturates here, and the tracing audit treats it as a
    /// violation (see `bfgts_trace::audit`).
    pub fn transfer(&mut self, from: Bucket, to: Bucket, cycles: u64) -> u64 {
        let moved = cycles.min(self.get(from));
        let src = self.slot(from);
        *src = src
            .checked_sub(moved)
            .expect("transfer moves at most the source balance");
        let dst = self.slot(to);
        *dst = dst
            .checked_add(moved)
            .expect("bucket accounting overflowed u64");
        moved
    }

    /// Sum over all buckets.
    pub fn total_cycles(&self) -> u64 {
        self.non_tx + self.kernel + self.tx + self.abort + self.scheduling
    }

    /// Fraction of the total in `bucket`; 0 when empty.
    pub fn fraction(&self, bucket: Bucket) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            0.0
        } else {
            self.get(bucket) as f64 / total as f64
        }
    }

    /// Normalised `(bucket, fraction)` pairs in report order.
    pub fn breakdown(&self) -> [(Bucket, f64); 5] {
        Bucket::ALL.map(|b| (b, self.fraction(b)))
    }
}

impl Add for TimeBuckets {
    type Output = TimeBuckets;
    fn add(self, rhs: TimeBuckets) -> TimeBuckets {
        TimeBuckets {
            non_tx: self.non_tx + rhs.non_tx,
            kernel: self.kernel + rhs.kernel,
            tx: self.tx + rhs.tx,
            abort: self.abort + rhs.abort,
            scheduling: self.scheduling + rhs.scheduling,
        }
    }
}

impl AddAssign for TimeBuckets {
    fn add_assign(&mut self, rhs: TimeBuckets) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for TimeBuckets {
    fn sum<I: Iterator<Item = TimeBuckets>>(iter: I) -> TimeBuckets {
        iter.fold(TimeBuckets::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut t = TimeBuckets::default();
        t.charge(Bucket::Kernel, 10);
        t.charge(Bucket::Kernel, 5);
        assert_eq!(t.get(Bucket::Kernel), 15);
        assert_eq!(t.get(Bucket::Tx), 0);
    }

    #[test]
    fn total_sums_all_buckets() {
        let mut t = TimeBuckets::default();
        for (i, b) in Bucket::ALL.into_iter().enumerate() {
            t.charge(b, (i + 1) as u64);
        }
        assert_eq!(t.total_cycles(), 15);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut t = TimeBuckets::default();
        t.charge(Bucket::NonTx, 30);
        t.charge(Bucket::Tx, 50);
        t.charge(Bucket::Abort, 20);
        let sum: f64 = t.breakdown().iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let t = TimeBuckets::default();
        assert_eq!(t.fraction(Bucket::Tx), 0.0);
        assert_eq!(t.total_cycles(), 0);
    }

    #[test]
    fn buckets_combine_with_add() {
        let mut a = TimeBuckets::default();
        a.charge(Bucket::Tx, 1);
        let mut b = TimeBuckets::default();
        b.charge(Bucket::Tx, 2);
        b.charge(Bucket::Abort, 3);
        let c = a + b;
        assert_eq!(c.get(Bucket::Tx), 3);
        assert_eq!(c.get(Bucket::Abort), 3);
        let s: TimeBuckets = [a, b].into_iter().sum();
        assert_eq!(s, c);
    }

    #[test]
    fn transfer_moves_between_buckets() {
        let mut t = TimeBuckets::default();
        t.charge(Bucket::Tx, 100);
        assert_eq!(t.transfer(Bucket::Tx, Bucket::Abort, 60), 60);
        assert_eq!(t.get(Bucket::Tx), 40);
        assert_eq!(t.get(Bucket::Abort), 60);
        assert_eq!(t.total_cycles(), 100);
    }

    #[test]
    fn transfer_saturates_at_source_balance() {
        let mut t = TimeBuckets::default();
        t.charge(Bucket::Tx, 10);
        assert_eq!(t.transfer(Bucket::Tx, Bucket::Abort, 999), 10);
        assert_eq!(t.get(Bucket::Tx), 0);
        assert_eq!(t.get(Bucket::Abort), 10);
    }
}
