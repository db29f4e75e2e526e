//! Whole-benchmark specifications.

use crate::class::TxClass;
use crate::source::WorkloadSource;
use std::borrow::Cow;
use std::sync::Arc;

/// The paper-reported profile of a benchmark (Tables 1 and 4), kept with
/// the spec so calibration tests and experiment reports can print
/// paper-vs-measured side by side.
#[derive(Debug, Clone)]
pub struct ExpectedProfile {
    /// Per-sTxID measured similarity from Table 1.
    pub similarity: Vec<(u32, f64)>,
    /// Per-sTxID conflict-partner lists from Table 1's matrix.
    pub conflict_rows: Vec<(u32, Vec<u32>)>,
    /// Contention rate under plain Backoff from Table 4.
    pub backoff_contention: f64,
}

/// A complete synthetic benchmark: class mix, total transaction count
/// and the paper profile it is calibrated against.
#[derive(Debug, Clone)]
pub struct BenchmarkSpec {
    /// Benchmark name as used in the paper's tables. Presets borrow a
    /// literal; a workload parsed from a scenario owns its name.
    pub name: Cow<'static, str>,
    /// The static transactions.
    pub classes: Arc<[TxClass]>,
    /// Total dynamic transactions across all threads.
    pub total_txs: u64,
    /// Paper-reported profile.
    pub expected: ExpectedProfile,
}

impl BenchmarkSpec {
    /// Splits the benchmark across `threads` threads, one source each.
    /// The total transaction count is preserved exactly (remainder goes
    /// to the lowest-indexed threads), so a 1-thread split is the serial
    /// baseline of the same work.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn sources(&self, threads: usize) -> Vec<WorkloadSource> {
        assert!(threads > 0, "need at least one thread");
        let per = self.total_txs / threads as u64;
        let extra = (self.total_txs % threads as u64) as usize;
        (0..threads)
            .map(|t| {
                let count = per + u64::from(t < extra);
                WorkloadSource::new(self.classes.clone(), t, count)
            })
            .collect()
    }

    /// Returns a copy with the workload scaled by `factor` (at least one
    /// transaction). Used to keep unit tests fast.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.total_txs = ((self.total_txs as f64 * factor).round() as u64).max(1);
        self
    }

    /// The static transaction ids this benchmark uses, in order.
    pub fn stx_ids(&self) -> Vec<u32> {
        self.classes.iter().map(|c| c.stx).collect()
    }
}

#[cfg(test)]
mod tests {

    use crate::presets;
    use bfgts_htm::TxSource;
    use bfgts_sim::SimRng;

    #[test]
    fn sources_split_preserves_total() {
        let spec = presets::genome();
        for threads in [1, 3, 16, 64] {
            let total: u64 = spec.sources(threads).iter().map(|s| s.remaining()).sum();
            assert_eq!(total, spec.total_txs, "split over {threads} threads");
        }
    }

    #[test]
    fn scaled_changes_total() {
        let spec = presets::genome().scaled(0.25);
        assert_eq!(spec.total_txs, presets::genome().total_txs / 4);
        let tiny = presets::genome().scaled(0.0);
        assert_eq!(tiny.total_txs, 1);
    }

    #[test]
    fn single_thread_source_yields_everything() {
        let spec = presets::kmeans().scaled(0.05);
        let mut src = spec.sources(1).remove(0);
        let mut rng = SimRng::seed_from(1);
        let mut n = 0;
        while src.next_tx(&mut rng).is_some() {
            n += 1;
        }
        assert_eq!(n, spec.total_txs);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = presets::genome().sources(0);
    }
}
