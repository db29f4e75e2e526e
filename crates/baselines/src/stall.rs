//! Stall-on-abort (Zilles & Baugh / Ansari et al. "steal-on-abort"
//! family): after a conflict, wait out the *specific* enemy instead of
//! backing off blindly.

use bfgts_htm::{
    AbortPlan, BeginDecision, BeginOutcome, BeginQuery, CommitOutcome, CommitRecord, ConflictEvent,
    ContentionManager, DTxId, TmState,
};
use bfgts_sim::{CostModel, SimRng, TraceSink};
use std::collections::BTreeMap;

/// Fallback backoff window when the enemy is already gone.
const FALLBACK_WINDOW: u64 = 400;

/// Cycles to look up/record the enemy at begin/abort.
const BOOKKEEPING_COST: u64 = 6;

/// The paper's §2 cites Zilles & Baugh (and Ansari's steal-on-abort) as
/// "stalling a transaction to disallow repeated conflicts": when a
/// transaction aborts, its retry waits until the transaction it lost to
/// has finished, rather than retrying into the same conflict or backing
/// off a blind random time.
///
/// This is the minimal *targeted* reactive scheme: no prediction, no
/// conflict history, just "don't run into the same wall twice in a row".
/// It sits between Backoff and the proactive schedulers in both
/// machinery and (on dense benchmarks) behaviour.
///
/// # Example
///
/// ```
/// use bfgts_baselines::StallCm;
/// use bfgts_htm::ContentionManager;
/// assert_eq!(StallCm::default().name(), "StallOnAbort");
/// ```
#[derive(Debug, Clone, Default)]
pub struct StallCm {
    /// Enemy each dTxID last aborted on, consumed at its next begin.
    grudge: BTreeMap<u64, DTxId>,
}

impl StallCm {
    /// Creates a manager.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ContentionManager for StallCm {
    fn name(&self) -> &'static str {
        "StallOnAbort"
    }

    fn on_begin(
        &mut self,
        q: &BeginQuery,
        tm: &TmState,
        _costs: &CostModel,
        _rng: &mut SimRng,
        _trace: &mut TraceSink,
    ) -> BeginOutcome {
        let cost = BOOKKEEPING_COST;
        if let Some(enemy) = self.grudge.remove(&q.dtx.pack()) {
            if tm.is_active(enemy) {
                return BeginOutcome {
                    decision: BeginDecision::SpinUntilDone { target: enemy },
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
        tm: &TmState,
        _costs: &CostModel,
        rng: &mut SimRng,
        _trace: &mut TraceSink,
    ) -> AbortPlan {
        let backoff = if tm.is_active(ev.enemy) {
            // The begin-time stall will wait the enemy out; retry soon.
            self.grudge.insert(ev.aborter.pack(), ev.enemy);
            0
        } else {
            rng.jitter(FALLBACK_WINDOW << ev.retries.min(6))
        };
        AbortPlan {
            backoff,
            cost: BOOKKEEPING_COST,
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
        self.grudge.remove(&rec.dtx.pack());
        CommitOutcome {
            cost: 1,
            wake: Vec::new(),
        }
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
            SimRng::seed_from(9),
        )
    }

    fn query(t: usize) -> BeginQuery {
        BeginQuery {
            thread: ThreadId(t),
            cpu: 0,
            dtx: dtx(t, 0),
            now: Cycle::ZERO,
            retries: 0,
            waits: 0,
        }
    }

    #[test]
    fn no_grudge_proceeds() {
        let (tm, costs, mut rng) = env();
        let mut cm = StallCm::default();
        let out = cm.on_begin(&query(0), &tm, &costs, &mut rng, &mut TraceSink::disabled());
        assert_eq!(out.decision, BeginDecision::Proceed);
    }

    #[test]
    fn retry_stalls_behind_running_enemy() {
        let (mut tm, costs, mut rng) = env();
        let mut cm = StallCm::default();
        tm.begin_tx(ThreadId(1), 1, dtx(1, 2), Cycle::ZERO);
        let ev = ConflictEvent {
            aborter: dtx(0, 0),
            enemy: dtx(1, 2),
            addr: LineAddr(0),
            now: Cycle::ZERO,
            retries: 0,
        };
        let plan = cm.on_conflict_abort(&ev, &tm, &costs, &mut rng, &mut TraceSink::disabled());
        assert_eq!(plan.backoff, 0, "stalling replaces blind backoff");
        let out = cm.on_begin(&query(0), &tm, &costs, &mut rng, &mut TraceSink::disabled());
        assert_eq!(
            out.decision,
            BeginDecision::SpinUntilDone { target: dtx(1, 2) }
        );
        // The grudge is consumed: a second begin proceeds.
        let out = cm.on_begin(&query(0), &tm, &costs, &mut rng, &mut TraceSink::disabled());
        assert_eq!(out.decision, BeginDecision::Proceed);
    }

    #[test]
    fn gone_enemy_falls_back_to_backoff() {
        let (tm, costs, mut rng) = env();
        let mut cm = StallCm::default();
        let ev = ConflictEvent {
            aborter: dtx(0, 0),
            enemy: dtx(1, 2), // never began
            addr: LineAddr(0),
            now: Cycle::ZERO,
            retries: 1,
        };
        let plan = cm.on_conflict_abort(&ev, &tm, &costs, &mut rng, &mut TraceSink::disabled());
        assert!(plan.backoff <= 400 << 1);
        let out = cm.on_begin(&query(0), &tm, &costs, &mut rng, &mut TraceSink::disabled());
        assert_eq!(out.decision, BeginDecision::Proceed);
    }

    #[test]
    fn commit_clears_grudge() {
        let (mut tm, costs, mut rng) = env();
        let mut cm = StallCm::default();
        tm.begin_tx(ThreadId(1), 1, dtx(1, 2), Cycle::ZERO);
        let ev = ConflictEvent {
            aborter: dtx(0, 0),
            enemy: dtx(1, 2),
            addr: LineAddr(0),
            now: Cycle::ZERO,
            retries: 0,
        };
        cm.on_conflict_abort(&ev, &tm, &costs, &mut rng, &mut TraceSink::disabled());
        let rec = CommitRecord {
            dtx: dtx(0, 0),
            rw_set: &[LineAddr(0)],
            now: Cycle::ZERO,
            retries: 1,
            remaining: None,
        };
        cm.on_commit(&rec, &tm, &costs, &mut rng, &mut TraceSink::disabled());
        let out = cm.on_begin(&query(0), &tm, &costs, &mut rng, &mut TraceSink::disabled());
        assert_eq!(out.decision, BeginDecision::Proceed);
    }
}
