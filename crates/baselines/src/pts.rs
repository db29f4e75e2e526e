//! Proactive Transaction Scheduling (Blake et al., MICRO'09).

use bfgts_bloomsig::BloomFilter;
use bfgts_htm::{
    AbortPlan, BeginDecision, BeginOutcome, BeginQuery, CommitOutcome, CommitRecord, ConflictEvent,
    ContentionManager, DTxId, TmState,
};
use bfgts_sim::{CostModel, SimRng, TraceSink};
use std::collections::BTreeMap;

/// Confidence above which a predicted conflict serialises.
const THRESHOLD: f64 = 50.0;

/// Constant confidence increment on conflicts / justified waits.
const INC: f64 = 60.0;

/// Constant confidence decrement on unjustified waits.
const DEC: f64 = 40.0;

/// Bloom filter size in bits for the saved read/write sets.
const BLOOM_BITS: u32 = 2048;

/// Bloom hash-function count.
const BLOOM_HASHES: u32 = 4;

/// Post-abort backoff window (jittered).
const BACKOFF_WINDOW: u64 = 300;

/// Fixed begin-scan cost before per-entry lookups.
const SCAN_BASE_COST: u64 = 40;

/// Per-CPU-table-entry lookup cost. PTS's conflict graph is keyed by
/// dTxID pairs and grows to tens of megabytes, so lookups regularly
/// leave the L1; the paper calls out "overhead of executing a scan of
/// software structures on every transaction begin".
const SCAN_ENTRY_COST: u64 = 40;

/// Cost of one confidence-graph update (abort/commit paths).
const GRAPH_UPDATE_COST: u64 = 60;

/// *Proactive Transaction Scheduling*: profiles the pattern of conflicts
/// between *dynamic* transactions in a global conflict graph. Before each
/// transaction begins, a software scan of the currently-running
/// transactions looks up the confidence of a conflict; above the
/// threshold, the transaction serialises behind the predicted enemy. At
/// commit, the saved Bloom-filter read/write sets of the transactions it
/// waited for are intersected with its own to decide whether the wait was
/// justified (strengthen) or wasted (weaken).
///
/// Compared to BFGTS it has three structural handicaps the paper lists:
/// a dTxID×dTxID graph that is large and slow to scan, a software-only
/// begin-time scan, and constant-weight (similarity-blind) confidence
/// updates.
///
/// # Example
///
/// ```
/// use bfgts_baselines::PtsCm;
/// use bfgts_htm::ContentionManager;
/// assert_eq!(PtsCm::default().name(), "PTS");
/// ```
#[derive(Debug, Clone, Default)]
pub struct PtsCm {
    /// Confidence of future conflict between ordered dTxID pairs.
    confidence: BTreeMap<(u64, u64), f64>,
    /// Most recent committed read/write-set Bloom filter per dTxID.
    blooms: BTreeMap<u64, BloomFilter>,
    /// Who each dTxID serialised behind in its current attempt.
    waiting_on: BTreeMap<u64, u64>,
}

impl PtsCm {
    /// Creates a PTS manager.
    pub fn new() -> Self {
        Self::default()
    }

    fn conf(&self, a: DTxId, b: DTxId) -> f64 {
        self.confidence
            .get(&(a.pack(), b.pack()))
            .copied()
            .unwrap_or(0.0)
    }

    fn bump(&mut self, a: DTxId, b: DTxId, delta: f64) {
        let e = self.confidence.entry((a.pack(), b.pack())).or_insert(0.0);
        *e = (*e + delta).max(0.0);
    }

    /// Number of confidence edges learned so far (for reports/tests).
    pub fn graph_edges(&self) -> usize {
        self.confidence.len()
    }
}

impl ContentionManager for PtsCm {
    fn name(&self) -> &'static str {
        "PTS"
    }

    fn on_begin(
        &mut self,
        q: &BeginQuery,
        tm: &TmState,
        _costs: &CostModel,
        _rng: &mut SimRng,
        _trace: &mut TraceSink,
    ) -> BeginOutcome {
        let mut cost = SCAN_BASE_COST;
        for (_, target) in tm.running() {
            if target.thread == q.thread {
                continue;
            }
            cost += SCAN_ENTRY_COST;
            if self.conf(q.dtx, target) > THRESHOLD && tm.is_active(target) {
                self.waiting_on.insert(q.dtx.pack(), target.pack());
                return BeginOutcome {
                    decision: BeginDecision::YieldUntilDone { target },
                    cost,
                };
            }
        }
        BeginOutcome {
            decision: BeginDecision::Proceed,
            cost,
        }
    }

    fn on_conflict_abort(
        &mut self,
        ev: &ConflictEvent,
        _tm: &TmState,
        _costs: &CostModel,
        rng: &mut SimRng,
        _trace: &mut TraceSink,
    ) -> AbortPlan {
        self.bump(ev.aborter, ev.enemy, INC);
        self.bump(ev.enemy, ev.aborter, INC);
        AbortPlan {
            backoff: rng.jitter(BACKOFF_WINDOW << ev.retries.min(6)),
            cost: 2 * GRAPH_UPDATE_COST,
        }
    }

    fn on_commit(
        &mut self,
        rec: &CommitRecord<'_>,
        _tm: &TmState,
        _costs: &CostModel,
        _rng: &mut SimRng,
        _trace: &mut TraceSink,
    ) -> CommitOutcome {
        let mut bloom = BloomFilter::new(BLOOM_BITS, BLOOM_HASHES);
        for addr in rec.rw_set {
            bloom.insert(addr.get());
        }
        // Copying the hardware signature out: a couple of cycles per word.
        let mut cost = 50 + 2 * bloom.word_count() as u64;
        if let Some(target) = self.waiting_on.remove(&rec.dtx.pack()) {
            cost += GRAPH_UPDATE_COST;
            let justified = self
                .blooms
                .get(&target)
                .map(|b| b.intersects(&bloom))
                .unwrap_or(false);
            cost += 2 * bloom.word_count() as u64;
            let target = DTxId::unpack(target);
            if justified {
                self.bump(rec.dtx, target, INC);
            } else {
                self.bump(rec.dtx, target, -DEC);
            }
        }
        self.blooms.insert(rec.dtx.pack(), bloom);
        CommitOutcome {
            cost,
            wake: Vec::new(),
        }
    }

    fn on_wait_skipped(&mut self, dtx: DTxId) {
        self.waiting_on.remove(&dtx.pack());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfgts_htm::{LineAddr, STxId};
    use bfgts_sim::{Cycle, ThreadId};

    fn dtx(t: usize, s: u32) -> DTxId {
        DTxId::new(ThreadId(t), STxId(s))
    }

    fn env() -> (TmState, CostModel, SimRng) {
        (
            TmState::new(4, 8),
            CostModel::default(),
            SimRng::seed_from(5),
        )
    }

    fn query(t: usize, s: u32) -> BeginQuery {
        BeginQuery {
            thread: ThreadId(t),
            cpu: 0,
            dtx: dtx(t, s),
            now: Cycle::ZERO,
            retries: 0,
            waits: 0,
        }
    }

    fn conflict(a: DTxId, b: DTxId) -> ConflictEvent {
        ConflictEvent {
            aborter: a,
            enemy: b,
            addr: LineAddr(0),
            now: Cycle::ZERO,
            retries: 0,
        }
    }

    #[test]
    fn cold_graph_proceeds() {
        let (tm, costs, mut rng) = env();
        let mut cm = PtsCm::default();
        let out = cm.on_begin(
            &query(0, 0),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        assert_eq!(out.decision, BeginDecision::Proceed);
        assert!(out.cost >= SCAN_BASE_COST);
    }

    #[test]
    fn conflicts_build_confidence_symmetrically() {
        let (tm, costs, mut rng) = env();
        let mut cm = PtsCm::default();
        cm.on_conflict_abort(
            &conflict(dtx(0, 0), dtx(1, 1)),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        assert_eq!(cm.conf(dtx(0, 0), dtx(1, 1)), 60.0);
        assert_eq!(cm.conf(dtx(1, 1), dtx(0, 0)), 60.0);
        assert_eq!(cm.graph_edges(), 2);
    }

    #[test]
    fn hot_confidence_serializes_behind_running_tx() {
        let (mut tm, costs, mut rng) = env();
        let mut cm = PtsCm::default();
        // Learn a strong conflict between t0/sTx0 and t1/sTx1.
        for _ in 0..2 {
            cm.on_conflict_abort(
                &conflict(dtx(0, 0), dtx(1, 1)),
                &tm,
                &costs,
                &mut rng,
                &mut TraceSink::disabled(),
            );
        }
        // t1/sTx1 is running on cpu1.
        tm.begin_tx(ThreadId(1), 1, dtx(1, 1), Cycle::ZERO);
        let out = cm.on_begin(
            &query(0, 0),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        assert_eq!(
            out.decision,
            BeginDecision::YieldUntilDone { target: dtx(1, 1) }
        );
    }

    #[test]
    fn scan_cost_scales_with_running_transactions() {
        let (mut tm, costs, mut rng) = env();
        let mut cm = PtsCm::default();
        let empty = cm
            .on_begin(
                &query(0, 0),
                &tm,
                &costs,
                &mut rng,
                &mut TraceSink::disabled(),
            )
            .cost;
        tm.begin_tx(ThreadId(1), 1, dtx(1, 0), Cycle::ZERO);
        tm.begin_tx(ThreadId(2), 2, dtx(2, 0), Cycle::ZERO);
        let busy = cm
            .on_begin(
                &query(0, 0),
                &tm,
                &costs,
                &mut rng,
                &mut TraceSink::disabled(),
            )
            .cost;
        assert_eq!(busy - empty, 2 * SCAN_ENTRY_COST);
    }

    #[test]
    fn justified_wait_strengthens_confidence() {
        let (tm, costs, mut rng) = env();
        let mut cm = PtsCm::default();
        // The enemy commits a set overlapping ours.
        let enemy_rec = CommitRecord {
            dtx: dtx(1, 1),
            rw_set: &[LineAddr(5), LineAddr(6)],
            now: Cycle::ZERO,
            retries: 0,
            remaining: None,
        };
        cm.on_commit(
            &enemy_rec,
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        // We waited behind the enemy, then commit an overlapping set.
        cm.waiting_on.insert(dtx(0, 0).pack(), dtx(1, 1).pack());
        let before = cm.conf(dtx(0, 0), dtx(1, 1));
        let my_rec = CommitRecord {
            dtx: dtx(0, 0),
            rw_set: &[LineAddr(6), LineAddr(9)],
            now: Cycle::ZERO,
            retries: 0,
            remaining: None,
        };
        cm.on_commit(&my_rec, &tm, &costs, &mut rng, &mut TraceSink::disabled());
        assert!(cm.conf(dtx(0, 0), dtx(1, 1)) > before);
    }

    #[test]
    fn unjustified_wait_weakens_confidence() {
        let (tm, costs, mut rng) = env();
        let mut cm = PtsCm::default();
        cm.bump(dtx(0, 0), dtx(1, 1), 120.0);
        let enemy_rec = CommitRecord {
            dtx: dtx(1, 1),
            rw_set: &[LineAddr(100)],
            now: Cycle::ZERO,
            retries: 0,
            remaining: None,
        };
        cm.on_commit(
            &enemy_rec,
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        cm.waiting_on.insert(dtx(0, 0).pack(), dtx(1, 1).pack());
        let my_rec = CommitRecord {
            dtx: dtx(0, 0),
            rw_set: &[LineAddr(200)],
            now: Cycle::ZERO,
            retries: 0,
            remaining: None,
        };
        cm.on_commit(&my_rec, &tm, &costs, &mut rng, &mut TraceSink::disabled());
        assert!(cm.conf(dtx(0, 0), dtx(1, 1)) < 120.0);
    }

    #[test]
    fn confidence_never_negative() {
        let (tm, costs, mut rng) = env();
        let mut cm = PtsCm::default();
        for _ in 0..10 {
            cm.waiting_on.insert(dtx(0, 0).pack(), dtx(1, 1).pack());
            let rec = CommitRecord {
                dtx: dtx(0, 0),
                rw_set: &[LineAddr(1)],
                now: Cycle::ZERO,
                retries: 0,
                remaining: None,
            };
            cm.on_commit(&rec, &tm, &costs, &mut rng, &mut TraceSink::disabled());
        }
        assert!(cm.conf(dtx(0, 0), dtx(1, 1)) >= 0.0);
    }

    #[test]
    fn wait_skipped_clears_record() {
        let mut cm = PtsCm::default();
        cm.waiting_on.insert(dtx(0, 0).pack(), dtx(1, 1).pack());
        cm.on_wait_skipped(dtx(0, 0));
        assert!(cm.waiting_on.is_empty());
    }
}
