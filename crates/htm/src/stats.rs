//! Run statistics: contention rates, the observed conflict graph and
//! measured per-transaction similarity (the paper's Tables 1 and 4).

use crate::dtx_map::DtxMap;
use crate::ids::{DTxId, LineAddr, STxId};
use crate::line_set::LineSet;
use std::collections::{BTreeMap, BTreeSet};

/// Measured statistics of one simulation run.
///
/// Everything here is *measurement infrastructure*, independent of the
/// contention manager under test: it observes the ground-truth behaviour
/// of the transactional workload the way the paper's Table 1 (conflict
/// graph + similarity) and Table 4 (contention rate) do.
///
/// The similarity trackers are the bulk of it: one per dTxID, each
/// holding that dTxID's previous read/write set gap-coded (about 1.1–2.5
/// bytes a line on the Fig. 4 presets), in per-thread rows.
#[derive(Debug, Clone, Default)]
pub struct TmStats {
    commits: u64,
    aborts: u64,
    stalls: u64,
    per_stx: BTreeMap<STxId, StxCounters>,
    conflict_edges: BTreeSet<(STxId, STxId)>,
    // `measured_similarity` sums floats in iteration order, so the order
    // must not vary between runs: `DtxMap` iterates in (thread, sTxID)
    // order whatever order the dTxIDs first committed in.
    similarity: DtxMap<SimTracker>,
    // Sojourn times (commit − arrival, in cycles) of open-system
    // transactions, in commit order. Empty for batch runs.
    sojourns: Vec<u64>,
}

#[derive(Debug, Clone, Copy, Default)]
struct StxCounters {
    commits: u64,
    aborts: u64,
}

/// Exact similarity measurement for one dynamic transaction, mirroring
/// the paper's definition (eq. 1): intersection of consecutive
/// read/write sets over the historical average set size, smoothed the
/// same way the runtime smooths it (`sim = 0.5·(sim + newSim)`).
#[derive(Debug, Clone, Default)]
struct SimTracker {
    /// The previous commit's read/write set. Re-encoded in place on each
    /// commit, so its buffer is reused and grows only to the longest
    /// encoding this dTxID has stored.
    prev_set: LineSet,
    avg_size: f64,
    sim: f64,
    commits: u64,
}

impl TmStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total committed transactions.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Total aborted transaction attempts.
    pub fn aborts(&self) -> u64 {
        self.aborts
    }

    /// Total conflict stalls (NACKed accesses that later succeeded).
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Contention rate: aborted attempts over all attempts, the metric of
    /// the paper's Table 4. Zero for an empty run.
    pub fn contention_rate(&self) -> f64 {
        let attempts = self.commits + self.aborts;
        if attempts == 0 {
            0.0
        } else {
            self.aborts as f64 / attempts as f64
        }
    }

    /// Commit/abort counts for one static transaction.
    pub fn stx_counts(&self, stx: STxId) -> (u64, u64) {
        self.per_stx
            .get(&stx)
            .map(|c| (c.commits, c.aborts))
            .unwrap_or((0, 0))
    }

    /// Static transaction ids seen during the run, in order.
    pub fn stx_ids(&self) -> Vec<STxId> {
        self.per_stx.keys().copied().collect()
    }

    /// The observed conflict graph as normalised `(low, high)` sTxID
    /// pairs; self-conflicts appear as `(x, x)` (Table 1's matrix).
    pub fn conflict_edges(&self) -> impl Iterator<Item = (STxId, STxId)> + '_ {
        self.conflict_edges.iter().copied()
    }

    /// The sTxIDs that `stx` was observed conflicting with (one row of the
    /// paper's Table 1 conflict matrix).
    pub fn conflict_row(&self, stx: STxId) -> Vec<STxId> {
        let mut row: Vec<STxId> = self
            .conflict_edges
            .iter()
            .filter_map(|&(a, b)| {
                if a == stx {
                    Some(b)
                } else if b == stx {
                    Some(a)
                } else {
                    None
                }
            })
            .collect();
        row.dedup();
        row
    }

    /// Measured similarity of a static transaction: commit-weighted mean
    /// over its dynamic instances. `None` until something commits twice.
    pub fn measured_similarity(&self, stx: STxId) -> Option<f64> {
        let mut weight = 0u64;
        let mut acc = 0.0;
        for (dtx, t) in self.similarity.iter() {
            if dtx.stx == stx && t.commits >= 2 {
                acc += t.sim * t.commits as f64;
                weight += t.commits;
            }
        }
        if weight == 0 {
            None
        } else {
            Some(acc / weight as f64)
        }
    }

    /// Records a committed transaction and updates the exact similarity
    /// tracker from its read/write set, which must be sorted ascending
    /// without duplicates (as [`crate::TmState::commit_tx`] writes it).
    ///
    /// # Panics
    ///
    /// Panics if `rw_set` is not strictly ascending ([`LineSet::assign`]).
    pub fn record_commit(&mut self, dtx: DTxId, rw_set: &[LineAddr]) {
        self.commits += 1;
        self.per_stx.entry(dtx.stx).or_default().commits += 1;
        let t = self.similarity.get_or_insert_with(dtx, SimTracker::default);
        t.commits += 1;
        if t.commits == 1 {
            t.avg_size = rw_set.len() as f64;
        } else {
            let inter = t.prev_set.intersection_len(rw_set) as f64;
            let new_sim = if t.avg_size > 0.0 {
                (inter / t.avg_size).clamp(0.0, 1.0)
            } else {
                0.0
            };
            t.sim = if t.commits == 2 {
                new_sim
            } else {
                0.5 * (t.sim + new_sim)
            };
            t.avg_size = 0.5 * (t.avg_size + rw_set.len() as f64);
        }
        t.prev_set.assign(rw_set);
    }

    /// Records an aborted attempt.
    pub fn record_abort(&mut self, dtx: DTxId) {
        self.aborts += 1;
        self.per_stx.entry(dtx.stx).or_default().aborts += 1;
    }

    /// Records a conflict between two transactions (stall or abort), which
    /// adds an edge to the observed conflict graph.
    pub fn record_conflict(&mut self, a: STxId, b: STxId) {
        let edge = if a <= b { (a, b) } else { (b, a) };
        self.conflict_edges.insert(edge);
    }

    /// Records a NACK stall that did not lead to an abort.
    pub fn record_stall(&mut self) {
        self.stalls += 1;
    }

    /// Records one open-system sojourn: cycles from a transaction's
    /// arrival (entering its thread's queue) to its commit. Batch runs
    /// never call this.
    pub fn record_sojourn(&mut self, cycles: u64) {
        self.sojourns.push(cycles);
    }

    /// Number of recorded sojourns (committed open-system transactions).
    pub fn sojourn_count(&self) -> u64 {
        self.sojourns.len() as u64
    }

    /// Sum of all recorded sojourns, in cycles.
    pub fn sojourn_total(&self) -> u64 {
        self.sojourns
            .iter()
            .try_fold(0u64, |acc, &s| acc.checked_add(s))
            .expect("sojourn total overflowed u64")
    }

    /// The `pcts`-th percentile sojourns (nearest-rank on the sorted
    /// sample), or `None` for a batch run. Each percentile is clamped to
    /// `1..=100`. The sample is copied and sorted once for all of them.
    pub fn sojourn_percentiles<const N: usize>(&self, pcts: [u32; N]) -> Option<[u64; N]> {
        if self.sojourns.is_empty() {
            return None;
        }
        let mut sorted = self.sojourns.clone();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        Some(pcts.map(|pct| {
            // Nearest-rank: the smallest value with at least pct% of the
            // sample at or below it.
            let rank = (u64::from(pct.clamp(1, 100)) * n).div_ceil(100).max(1);
            sorted[rank as usize - 1]
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfgts_sim::ThreadId;

    fn dtx(t: usize, s: u32) -> DTxId {
        DTxId::new(ThreadId(t), STxId(s))
    }

    fn lines(v: &[u64]) -> Vec<LineAddr> {
        v.iter().map(|&x| LineAddr(x)).collect()
    }

    #[test]
    fn contention_rate_basic() {
        let mut s = TmStats::new();
        for _ in 0..3 {
            s.record_commit(dtx(0, 0), &lines(&[1]));
        }
        s.record_abort(dtx(0, 0));
        assert_eq!(s.commits(), 3);
        assert_eq!(s.aborts(), 1);
        assert!((s.contention_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_run_has_zero_contention() {
        assert_eq!(TmStats::new().contention_rate(), 0.0);
    }

    #[test]
    fn per_stx_counts() {
        let mut s = TmStats::new();
        s.record_commit(dtx(0, 1), &lines(&[1]));
        s.record_commit(dtx(1, 1), &lines(&[2]));
        s.record_abort(dtx(0, 2));
        assert_eq!(s.stx_counts(STxId(1)), (2, 0));
        assert_eq!(s.stx_counts(STxId(2)), (0, 1));
        assert_eq!(s.stx_counts(STxId(9)), (0, 0));
        assert_eq!(s.stx_ids(), vec![STxId(1), STxId(2)]);
    }

    #[test]
    fn conflict_edges_normalised() {
        let mut s = TmStats::new();
        s.record_conflict(STxId(2), STxId(1));
        s.record_conflict(STxId(1), STxId(2));
        s.record_conflict(STxId(3), STxId(3));
        let edges: Vec<_> = s.conflict_edges().collect();
        assert_eq!(edges, vec![(STxId(1), STxId(2)), (STxId(3), STxId(3))]);
        assert_eq!(s.conflict_row(STxId(1)), vec![STxId(2)]);
        assert_eq!(s.conflict_row(STxId(3)), vec![STxId(3)]);
    }

    #[test]
    fn identical_sets_give_similarity_one() {
        let mut s = TmStats::new();
        let set = lines(&[1, 2, 3, 4]);
        for _ in 0..5 {
            s.record_commit(dtx(0, 0), &set);
        }
        let sim = s.measured_similarity(STxId(0)).unwrap();
        assert!((sim - 1.0).abs() < 1e-9, "sim={sim}");
    }

    #[test]
    fn disjoint_sets_give_similarity_zero() {
        let mut s = TmStats::new();
        for i in 0..5u64 {
            let set = lines(&[i * 10, i * 10 + 1]);
            s.record_commit(dtx(0, 0), &set);
        }
        let sim = s.measured_similarity(STxId(0)).unwrap();
        assert!(sim < 1e-9, "sim={sim}");
    }

    #[test]
    fn half_overlap_gives_intermediate_similarity() {
        let mut s = TmStats::new();
        // consecutive sets share half their lines
        s.record_commit(dtx(0, 0), &lines(&[0, 1, 2, 3]));
        s.record_commit(dtx(0, 0), &lines(&[2, 3, 4, 5]));
        s.record_commit(dtx(0, 0), &lines(&[4, 5, 6, 7]));
        let sim = s.measured_similarity(STxId(0)).unwrap();
        assert!(sim > 0.2 && sim < 0.8, "sim={sim}");
    }

    #[test]
    fn similarity_none_before_two_commits() {
        let mut s = TmStats::new();
        assert!(s.measured_similarity(STxId(0)).is_none());
        s.record_commit(dtx(0, 0), &lines(&[1]));
        assert!(s.measured_similarity(STxId(0)).is_none());
    }

    #[test]
    fn similarity_sums_in_thread_order_whatever_order_threads_commit_in() {
        // 64 threads × 2 sTxIDs commit random sets, with threads taking
        // their turns in a scrambled order. The reference keeps each
        // dTxID's eq. 1 average itself and sums the weighted terms in
        // (thread, sTxID) order; the measured bits must be those.
        const THREADS: usize = 64;
        let mut rng = bfgts_sim::SimRng::seed_from(31);
        let mut order: Vec<usize> = (0..THREADS).collect();
        for i in (1..THREADS).rev() {
            order.swap(i, rng.gen_range(i as u64 + 1) as usize);
        }
        let mut stats = TmStats::new();
        // Per dTxID: (previous set, average size, similarity, commits).
        let mut reference: BTreeMap<DTxId, (BTreeSet<u64>, f64, f64, u64)> = BTreeMap::new();
        for _ in 0..5 {
            for &t in &order {
                for s in [3, 1] {
                    let set: BTreeSet<u64> = (0..1 + rng.gen_range(40))
                        .map(|_| rng.gen_range(64))
                        .collect();
                    let v: Vec<u64> = set.iter().copied().collect();
                    stats.record_commit(dtx(t, s), &lines(&v));
                    let r = reference.entry(dtx(t, s)).or_default();
                    r.3 += 1;
                    let size = set.len() as f64;
                    if r.3 == 1 {
                        r.1 = size;
                    } else {
                        let inter = r.0.intersection(&set).count() as f64;
                        let new_sim = (inter / r.1).clamp(0.0, 1.0);
                        r.2 = if r.3 == 2 {
                            new_sim
                        } else {
                            0.5 * (r.2 + new_sim)
                        };
                        r.1 = 0.5 * (r.1 + size);
                    }
                    r.0 = set;
                }
            }
        }
        // Which other orders gave other bits: the threads' first-commit
        // order, and descending thread order.
        let mut order_mattered = [false; 2];
        for s in [1, 3] {
            let terms: Vec<(f64, u64)> = reference
                .iter()
                .filter(|(d, _)| d.stx == STxId(s))
                .map(|(_, r)| (r.2 * r.3 as f64, r.3))
                .collect();
            let sum_in = |threads: &mut dyn Iterator<Item = usize>| {
                let (acc, weight) = threads
                    .map(|t| terms[t])
                    .fold((0.0, 0), |(a, w), (x, c)| (a + x, w + c));
                acc / weight as f64
            };
            let expected = sum_in(&mut (0..THREADS)).to_bits();
            let measured = stats.measured_similarity(STxId(s)).unwrap();
            assert_eq!(measured.to_bits(), expected, "sTx{s}");
            order_mattered[0] |= sum_in(&mut order.iter().copied()).to_bits() != expected;
            order_mattered[1] |= sum_in(&mut (0..THREADS).rev()).to_bits() != expected;
        }
        assert_eq!(order_mattered, [true; 2], "the summation order must show");
    }

    #[test]
    fn sojourn_percentiles_are_nearest_rank() {
        let mut s = TmStats::new();
        assert_eq!(s.sojourn_percentiles([50]), None, "a batch run");
        // 1..=200, recorded out of order.
        for i in 0..200u64 {
            s.record_sojourn(1 + (i * 77) % 200);
        }
        assert_eq!(
            s.sojourn_percentiles([50, 95, 99, 100, 0, 150]),
            Some([100, 190, 198, 200, 2, 200]),
            "0 and 150 clamp to 1 and 100"
        );
    }

    #[test]
    fn stall_counter() {
        let mut s = TmStats::new();
        s.record_stall();
        s.record_stall();
        assert_eq!(s.stalls(), 2);
    }
}
