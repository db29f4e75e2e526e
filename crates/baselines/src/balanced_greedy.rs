//! Balanced-workload greedy scheduling (Sharma & Busch, arXiv:1009.0056).

use crate::{WindowGreedyCm, WindowGreedyConfig};
use bfgts_htm::{
    AbortPlan, BeginOutcome, BeginQuery, CommitOutcome, CommitRecord, ConflictEvent,
    ContentionManager, TmState,
};
use bfgts_sim::{CostModel, SimRng, ThreadId, TraceSink};

/// Tunables of the balanced-greedy manager. The losing side's backoff
/// quantum is [`WindowGreedyConfig`]'s default `base_delay`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BalancedGreedyConfig {
    /// Commits per execution window (the randomized tie-break redraws at
    /// this pace, exactly as in [`WindowGreedyConfig::window_size`]).
    pub window_size: u32,
}

impl Default for BalancedGreedyConfig {
    fn default() -> Self {
        Self {
            window_size: WindowGreedyConfig::default().window_size,
        }
    }
}

/// The balanced-workload greedy manager: conflicts are won by the thread
/// with *more remaining work* (the load-balancing rule of
/// arXiv:1009.0056 — letting the longest pending queue proceed first
/// keeps per-thread completion times balanced, which bounds the makespan
/// against the clairvoyant schedule). Remaining work comes from the
/// commit-time [`CommitRecord::remaining`] hints; when either side has
/// never reported a hint the manager falls back to the window-greedy
/// randomized priority, so it degrades gracefully to
/// [`WindowGreedyCm`] on hint-free sources.
///
/// Window bookkeeping (positions, priority redraws, the
/// `WindowAdvance` trace announcements checked by invariant I11) is
/// delegated to an inner [`WindowGreedyCm`], so both managers share one
/// audited code path.
///
/// # Example
///
/// ```
/// use bfgts_baselines::BalancedGreedyCm;
/// use bfgts_htm::ContentionManager;
/// assert_eq!(BalancedGreedyCm::default().name(), "BalancedGreedy");
/// ```
#[derive(Debug, Clone, Default)]
pub struct BalancedGreedyCm {
    inner: WindowGreedyCm,
    /// Last remaining-work hint seen per thread (`None` until a thread
    /// commits with a counted source).
    remaining: Vec<Option<u64>>,
}

impl BalancedGreedyCm {
    /// Creates a manager with the given tunables.
    pub fn new(cfg: BalancedGreedyConfig) -> Self {
        Self {
            inner: WindowGreedyCm::new(WindowGreedyConfig {
                window_size: cfg.window_size,
                ..WindowGreedyConfig::default()
            }),
            remaining: Vec::new(),
        }
    }

    fn remaining_of(&self, thread: ThreadId) -> Option<u64> {
        self.remaining.get(thread.0).copied().flatten()
    }
}

impl ContentionManager for BalancedGreedyCm {
    fn name(&self) -> &'static str {
        "BalancedGreedy"
    }

    fn on_run_start(&mut self, seed: u64, num_threads: usize) {
        self.inner.on_run_start(seed, num_threads);
        self.remaining = vec![None; num_threads];
    }

    fn window_seed(&self) -> Option<u64> {
        self.inner.window_seed()
    }

    fn window_position(&self, thread: ThreadId) -> Option<u64> {
        self.inner.window_position(thread)
    }

    fn on_begin(
        &mut self,
        q: &BeginQuery,
        tm: &TmState,
        costs: &CostModel,
        rng: &mut SimRng,
        trace: &mut TraceSink,
    ) -> BeginOutcome {
        self.inner.on_begin(q, tm, costs, rng, trace)
    }

    fn on_conflict_abort(
        &mut self,
        ev: &ConflictEvent,
        tm: &TmState,
        costs: &CostModel,
        rng: &mut SimRng,
        trace: &mut TraceSink,
    ) -> AbortPlan {
        // The balancing rule: more remaining work wins. Only when both
        // sides have reported hints is the comparison meaningful;
        // otherwise defer to the inner randomized-priority rule.
        match (
            self.remaining_of(ev.aborter.thread),
            self.remaining_of(ev.enemy.thread),
        ) {
            (Some(mine), Some(theirs)) if mine != theirs => AbortPlan {
                backoff: self.inner.greedy_backoff(mine < theirs, ev.retries, rng),
                cost: 1,
            },
            _ => self.inner.on_conflict_abort(ev, tm, costs, rng, trace),
        }
    }

    fn on_commit(
        &mut self,
        rec: &CommitRecord<'_>,
        tm: &TmState,
        costs: &CostModel,
        rng: &mut SimRng,
        trace: &mut TraceSink,
    ) -> CommitOutcome {
        if let Some(slot) = self.remaining.get_mut(rec.dtx.thread.0) {
            if rec.remaining.is_some() {
                *slot = rec.remaining;
            }
        }
        self.inner.on_commit(rec, tm, costs, rng, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfgts_htm::{DTxId, LineAddr, STxId};
    use bfgts_sim::{window_priority, Cycle, TraceEvent, TraceMode};

    fn dtx(t: usize) -> DTxId {
        DTxId::new(ThreadId(t), STxId(0))
    }

    fn commit_rec(t: usize, remaining: Option<u64>) -> CommitRecord<'static> {
        CommitRecord {
            dtx: dtx(t),
            rw_set: &[LineAddr(1)],
            now: Cycle::ZERO,
            retries: 0,
            remaining,
        }
    }

    fn conflict(aborter: usize, enemy: usize) -> ConflictEvent {
        ConflictEvent {
            aborter: dtx(aborter),
            enemy: dtx(enemy),
            addr: LineAddr(0),
            now: Cycle::ZERO,
            retries: 0,
        }
    }

    fn env() -> (TmState, CostModel, SimRng) {
        (
            TmState::new(2, 4),
            CostModel::default(),
            SimRng::seed_from(3),
        )
    }

    fn sum_backoff(
        cm: &mut BalancedGreedyCm,
        tm: &TmState,
        costs: &CostModel,
        rng: &mut SimRng,
        a: usize,
        e: usize,
    ) -> u64 {
        (0..200)
            .map(|_| {
                cm.on_conflict_abort(&conflict(a, e), tm, costs, rng, &mut TraceSink::disabled())
                    .backoff
            })
            .sum()
    }

    #[test]
    fn thread_with_less_remaining_work_yields() {
        let (tm, costs, mut rng) = env();
        let mut cm = BalancedGreedyCm::default();
        cm.on_run_start(7, 2);
        let disabled = &mut TraceSink::disabled();
        cm.on_commit(&commit_rec(0, Some(2)), &tm, &costs, &mut rng, disabled);
        cm.on_commit(&commit_rec(1, Some(90)), &tm, &costs, &mut rng, disabled);
        let poor_loses = sum_backoff(&mut cm, &tm, &costs, &mut rng, 0, 1);
        let rich_wins = sum_backoff(&mut cm, &tm, &costs, &mut rng, 1, 0);
        assert!(
            poor_loses > rich_wins * 2,
            "the lighter-loaded thread should yield ({poor_loses} vs {rich_wins})"
        );
    }

    #[test]
    fn missing_hints_fall_back_to_window_priorities() {
        let (tm, costs, mut rng) = env();
        let seed = 7;
        let mut cm = BalancedGreedyCm::default();
        cm.on_run_start(seed, 2);
        // No hints reported yet: behaviour must match the inner
        // window-greedy rule, i.e. the lower randomized priority yields.
        let (p0, p1) = (window_priority(seed, 0, 0), window_priority(seed, 1, 0));
        let (loser, winner) = if p0 < p1 { (0, 1) } else { (1, 0) };
        let losing = sum_backoff(&mut cm, &tm, &costs, &mut rng, loser, winner);
        let winning = sum_backoff(&mut cm, &tm, &costs, &mut rng, winner, loser);
        assert!(
            losing > winning * 2,
            "hint-free conflicts use the randomized priorities ({losing} vs {winning})"
        );
    }

    #[test]
    fn windows_advance_and_announce_like_window_greedy() {
        let (tm, costs, mut rng) = env();
        let mut cm = BalancedGreedyCm::new(BalancedGreedyConfig { window_size: 2 });
        cm.on_run_start(9, 2);
        assert_eq!(cm.window_seed(), Some(9));
        let mut trace = TraceSink::new(TraceMode::Full);
        cm.on_commit(&commit_rec(1, Some(5)), &tm, &costs, &mut rng, &mut trace);
        cm.on_commit(&commit_rec(1, Some(4)), &tm, &costs, &mut rng, &mut trace);
        assert_eq!(cm.window_position(ThreadId(1)), Some(1));
        let rec = trace.take();
        assert_eq!(rec.events.len(), 1);
        assert_eq!(
            rec.events[0].ev,
            TraceEvent::WindowAdvance {
                thread: 1,
                window: 1,
                priority: window_priority(9, 1, 1),
            }
        );
    }

    #[test]
    fn hints_persist_across_hintless_commits() {
        let (tm, costs, mut rng) = env();
        let mut cm = BalancedGreedyCm::default();
        cm.on_run_start(7, 2);
        let disabled = &mut TraceSink::disabled();
        cm.on_commit(&commit_rec(0, Some(40)), &tm, &costs, &mut rng, disabled);
        cm.on_commit(&commit_rec(0, None), &tm, &costs, &mut rng, disabled);
        assert_eq!(cm.remaining_of(ThreadId(0)), Some(40));
    }
}
