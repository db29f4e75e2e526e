//! Reactive randomised exponential backoff.

use bfgts_htm::{
    AbortPlan, BeginOutcome, BeginQuery, CommitOutcome, CommitRecord, ConflictEvent,
    ContentionManager, TmState,
};
use bfgts_sim::{CostModel, SimRng, TraceSink};

/// Base backoff window in cycles after the first abort (DESIGN.md §2,
/// calibration decision 3).
const BASE: u64 = 3000;

/// Maximum left-shift applied to the window (caps the window at
/// `BASE << MAX_SHIFT`).
const MAX_SHIFT: u32 = 8;

/// The classic reactive contention manager: on abort, wait a uniformly
/// random time drawn from an exponentially growing window, then retry.
/// No prediction, no bookkeeping, (almost) no overhead — ideal at low
/// contention, pathological at high contention (paper Table 4: 73.5%
/// contention on Delaunay).
///
/// # Example
///
/// ```
/// use bfgts_baselines::BackoffCm;
/// use bfgts_htm::ContentionManager;
/// let cm = BackoffCm::default();
/// assert_eq!(cm.name(), "Backoff");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct BackoffCm {}

impl BackoffCm {
    /// Creates a manager.
    pub fn new() -> Self {
        Self {}
    }
}

impl ContentionManager for BackoffCm {
    fn name(&self) -> &'static str {
        "Backoff"
    }

    fn on_begin(
        &mut self,
        _q: &BeginQuery,
        _tm: &TmState,
        _costs: &CostModel,
        _rng: &mut SimRng,
        _trace: &mut TraceSink,
    ) -> BeginOutcome {
        BeginOutcome::PROCEED_FREE
    }

    fn on_conflict_abort(
        &mut self,
        ev: &ConflictEvent,
        _tm: &TmState,
        _costs: &CostModel,
        rng: &mut SimRng,
        _trace: &mut TraceSink,
    ) -> AbortPlan {
        let window = BASE << ev.retries.min(MAX_SHIFT);
        AbortPlan {
            backoff: rng.jitter(window),
            cost: 0,
        }
    }

    fn on_commit(
        &mut self,
        _rec: &CommitRecord<'_>,
        _tm: &TmState,
        _costs: &CostModel,
        _rng: &mut SimRng,
        _trace: &mut TraceSink,
    ) -> CommitOutcome {
        CommitOutcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfgts_htm::{DTxId, LineAddr, STxId};
    use bfgts_sim::{Cycle, ThreadId};

    fn ev(retries: u32) -> ConflictEvent {
        ConflictEvent {
            aborter: DTxId::new(ThreadId(0), STxId(0)),
            enemy: DTxId::new(ThreadId(1), STxId(0)),
            addr: LineAddr(0),
            now: Cycle::ZERO,
            retries,
        }
    }

    #[test]
    fn begin_is_free() {
        let mut cm = BackoffCm::default();
        let tm = TmState::new(1, 1);
        let q = BeginQuery {
            thread: ThreadId(0),
            cpu: 0,
            dtx: DTxId::new(ThreadId(0), STxId(0)),
            now: Cycle::ZERO,
            retries: 0,
            waits: 0,
        };
        let out = cm.on_begin(
            &q,
            &tm,
            &CostModel::default(),
            &mut SimRng::seed_from(1),
            &mut TraceSink::disabled(),
        );
        assert_eq!(out.cost, 0);
    }

    #[test]
    fn backoff_is_bounded() {
        let mut cm = BackoffCm::new();
        let tm = TmState::new(1, 2);
        let mut rng = SimRng::seed_from(7);
        for r in 0..1000u32 {
            let plan = cm.on_conflict_abort(
                &ev(r),
                &tm,
                &CostModel::default(),
                &mut rng,
                &mut TraceSink::disabled(),
            );
            assert!(plan.backoff <= BASE << MAX_SHIFT);
            assert_eq!(plan.cost, 0);
        }
    }

    #[test]
    fn backoff_varies() {
        let mut cm = BackoffCm::default();
        let tm = TmState::new(1, 2);
        let mut rng = SimRng::seed_from(7);
        let draws: Vec<u64> = (0..50)
            .map(|_| {
                cm.on_conflict_abort(
                    &ev(3),
                    &tm,
                    &CostModel::default(),
                    &mut rng,
                    &mut TraceSink::disabled(),
                )
                .backoff
            })
            .collect();
        let distinct: std::collections::BTreeSet<_> = draws.iter().collect();
        assert!(distinct.len() > 10, "backoff should be randomised");
    }
}
