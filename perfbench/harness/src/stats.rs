//! Order statistics for host-time samples.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// The nearest-rank `pct`-th percentile of `samples` (sorted internally):
/// the smallest value with at least `pct`% of the samples at or below
/// it. `None` for an empty slice or `pct` outside 1..=100.
pub fn nearest_rank(samples: &[f64], pct: u32) -> Option<f64> {
    if samples.is_empty() || !(1..=100).contains(&pct) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = rank_of(sorted.len(), pct);
    sorted.get(rank - 1).copied()
}

/// The 1-based nearest rank of the `pct`-th percentile among `n` samples.
fn rank_of(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).max(1)
}

/// How many of `n` samples lie beyond the nearest-rank `pct`-th
/// percentile.
pub fn beyond(n: usize, pct: u32) -> usize {
    n.saturating_sub(rank_of(n, pct))
}

/// Whether a `pct`-th percentile of `n` samples may be reported: at
/// least [`MIN_TAIL`] samples must lie beyond it.
pub fn reportable(n: usize, pct: u32) -> bool {
    beyond(n, pct) >= MIN_TAIL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50), Some(5.0));
        assert_eq!(nearest_rank(&xs, 90), Some(9.0));
        assert_eq!(nearest_rank(&xs, 91), Some(10.0));
        assert_eq!(nearest_rank(&xs, 100), Some(10.0));
        assert_eq!(nearest_rank(&xs, 1), Some(1.0));
        assert_eq!(nearest_rank(&[], 50), None);
        assert_eq!(nearest_rank(&xs, 0), None);
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let xs = [7.0, 1.0, 9.0, 3.0, 5.0];
        assert_eq!(nearest_rank(&xs, 50), Some(5.0));
        assert_eq!(nearest_rank(&xs, 80), Some(7.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 100 samples: p90 is rank 90, leaving exactly ten beyond.
        assert_eq!(beyond(100, 90), 10);
        assert!(reportable(100, 90));
        // 99 samples: p90 is rank 90 (ceil 89.1), leaving nine.
        assert_eq!(beyond(99, 90), 9);
        assert!(!reportable(99, 90));
        assert!(reportable(120, 90));
        assert!(reportable(20, 50));
        assert!(!reportable(19, 50));
    }
}
