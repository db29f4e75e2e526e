//! Adaptive Transaction Scheduling (Yoo & Lee, SPAA'08).

use bfgts_htm::{
    AbortPlan, BeginDecision, BeginOutcome, BeginQuery, CommitOutcome, CommitRecord, ConflictEvent,
    ContentionManager, TmState,
};
use bfgts_sim::{CostModel, SimRng, ThreadId, TraceSink};
use std::collections::VecDeque;

/// Weight of past history in the contention-intensity moving average
/// (`ci = ALPHA·ci + (1−ALPHA)·event`).
const ALPHA: f64 = 0.8;

/// Intensity above which transactions serialise on the central queue.
const THRESHOLD: f64 = 0.4;

/// Post-abort backoff window (jittered).
const BACKOFF_WINDOW: u64 = 300;

/// Cycles to check the intensity at begin.
const CHECK_COST: u64 = 4;

/// Cycles of queue manipulation (lock + enqueue/dequeue) beyond the
/// kernel block/wake costs the OS model charges.
const QUEUE_COST: u64 = 400;

/// *Adaptive Transaction Scheduling*: each thread keeps a contention
/// intensity (a moving average that rises on aborts and decays on
/// commits). When intensity exceeds the threshold, the transaction joins
/// one central wait queue and executes serially with respect to the other
/// queued transactions.
///
/// Cheap and graceful under very high contention, but pessimistic: it
/// never asks *which* transactions conflict, so independent transactions
/// serialise too (the paper's Delaunay/Kmeans/Intruder losses, with the
/// queue's pthread operations showing up as kernel time in Figure 5).
///
/// # Example
///
/// ```
/// use bfgts_baselines::AtsCm;
/// use bfgts_htm::ContentionManager;
/// assert_eq!(AtsCm::default().name(), "ATS");
/// ```
#[derive(Debug, Clone, Default)]
pub struct AtsCm {
    intensity: Vec<f64>,
    /// Thread currently holding the serial-execution token.
    runner: Option<ThreadId>,
    /// Thread woken at the last commit, entitled to take the token.
    designated: Option<ThreadId>,
    parked: VecDeque<ThreadId>,
}

impl AtsCm {
    /// Creates an ATS manager.
    pub fn new() -> Self {
        Self::default()
    }

    fn ci(&mut self, thread: ThreadId) -> &mut f64 {
        if self.intensity.len() <= thread.index() {
            self.intensity.resize(thread.index() + 1, 0.0);
        }
        &mut self.intensity[thread.index()]
    }

    /// Current contention intensity of `thread` (for tests/reports).
    pub fn intensity_of(&self, thread: ThreadId) -> f64 {
        self.intensity.get(thread.index()).copied().unwrap_or(0.0)
    }
}

impl ContentionManager for AtsCm {
    fn name(&self) -> &'static str {
        "ATS"
    }

    fn on_begin(
        &mut self,
        q: &BeginQuery,
        _tm: &TmState,
        _costs: &CostModel,
        _rng: &mut SimRng,
        _trace: &mut TraceSink,
    ) -> BeginOutcome {
        let mut cost = CHECK_COST;
        // A designated thread takes the serial token regardless of its
        // (decayed) intensity, keeping the queue draining.
        if self.designated == Some(q.thread) {
            self.designated = None;
            self.runner = Some(q.thread);
            return BeginOutcome {
                decision: BeginDecision::Proceed,
                cost: cost + QUEUE_COST,
            };
        }
        // The current runner retries after an abort without re-queueing.
        if self.runner == Some(q.thread) {
            return BeginOutcome {
                decision: BeginDecision::Proceed,
                cost,
            };
        }
        if *self.ci(q.thread) <= THRESHOLD {
            return BeginOutcome {
                decision: BeginDecision::Proceed,
                cost,
            };
        }
        cost += QUEUE_COST;
        if self.runner.is_none() && self.designated.is_none() {
            self.runner = Some(q.thread);
            BeginOutcome {
                decision: BeginDecision::Proceed,
                cost,
            }
        } else {
            self.parked.push_back(q.thread);
            BeginOutcome {
                decision: BeginDecision::Block,
                cost,
            }
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
        let ci = self.ci(ev.aborter.thread);
        *ci = ALPHA * *ci + (1.0 - ALPHA);
        AbortPlan {
            backoff: rng.jitter(BACKOFF_WINDOW),
            cost: 2,
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
        let ci = self.ci(rec.dtx.thread);
        *ci *= ALPHA;
        let mut out = CommitOutcome {
            cost: 2,
            wake: Vec::new(),
        };
        if self.runner == Some(rec.dtx.thread) {
            self.runner = None;
            out.cost += QUEUE_COST;
            if let Some(next) = self.parked.pop_front() {
                self.designated = Some(next);
                out.wake.push(next);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfgts_htm::{DTxId, LineAddr, STxId};
    use bfgts_sim::Cycle;

    fn query(thread: usize) -> BeginQuery {
        BeginQuery {
            thread: ThreadId(thread),
            cpu: 0,
            dtx: DTxId::new(ThreadId(thread), STxId(0)),
            now: Cycle::ZERO,
            retries: 0,
            waits: 0,
        }
    }

    fn conflict(thread: usize) -> ConflictEvent {
        ConflictEvent {
            aborter: DTxId::new(ThreadId(thread), STxId(0)),
            enemy: DTxId::new(ThreadId(9), STxId(0)),
            addr: LineAddr(0),
            now: Cycle::ZERO,
            retries: 0,
        }
    }

    fn env() -> (TmState, CostModel, SimRng) {
        (
            TmState::new(4, 8),
            CostModel::default(),
            SimRng::seed_from(5),
        )
    }

    #[test]
    fn low_intensity_proceeds() {
        let (tm, costs, mut rng) = env();
        let mut cm = AtsCm::default();
        let out = cm.on_begin(&query(0), &tm, &costs, &mut rng, &mut TraceSink::disabled());
        assert_eq!(out.decision, BeginDecision::Proceed);
    }

    #[test]
    fn intensity_rises_on_abort_and_decays_on_commit() {
        let (tm, costs, mut rng) = env();
        let mut cm = AtsCm::default();
        cm.on_conflict_abort(
            &conflict(0),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        let after_abort = cm.intensity_of(ThreadId(0));
        assert!(after_abort > 0.0);
        let rec = CommitRecord {
            dtx: DTxId::new(ThreadId(0), STxId(0)),
            rw_set: &[],
            now: Cycle::ZERO,
            retries: 0,
            remaining: None,
        };
        cm.on_commit(&rec, &tm, &costs, &mut rng, &mut TraceSink::disabled());
        assert!(cm.intensity_of(ThreadId(0)) < after_abort);
    }

    fn saturate(cm: &mut AtsCm, thread: usize, tm: &TmState, costs: &CostModel, rng: &mut SimRng) {
        for _ in 0..10 {
            cm.on_conflict_abort(
                &conflict(thread),
                tm,
                costs,
                rng,
                &mut TraceSink::disabled(),
            );
        }
    }

    #[test]
    fn high_intensity_threads_serialize() {
        let (tm, costs, mut rng) = env();
        let mut cm = AtsCm::default();
        saturate(&mut cm, 0, &tm, &costs, &mut rng);
        saturate(&mut cm, 1, &tm, &costs, &mut rng);
        // First hot thread becomes the runner.
        let a = cm.on_begin(&query(0), &tm, &costs, &mut rng, &mut TraceSink::disabled());
        assert_eq!(a.decision, BeginDecision::Proceed);
        // Second parks.
        let b = cm.on_begin(&query(1), &tm, &costs, &mut rng, &mut TraceSink::disabled());
        assert_eq!(b.decision, BeginDecision::Block);
    }

    #[test]
    fn commit_of_runner_wakes_next_in_queue() {
        let (tm, costs, mut rng) = env();
        let mut cm = AtsCm::default();
        saturate(&mut cm, 0, &tm, &costs, &mut rng);
        saturate(&mut cm, 1, &tm, &costs, &mut rng);
        cm.on_begin(&query(0), &tm, &costs, &mut rng, &mut TraceSink::disabled());
        cm.on_begin(&query(1), &tm, &costs, &mut rng, &mut TraceSink::disabled());
        let rec = CommitRecord {
            dtx: DTxId::new(ThreadId(0), STxId(0)),
            rw_set: &[],
            now: Cycle::ZERO,
            retries: 0,
            remaining: None,
        };
        let out = cm.on_commit(&rec, &tm, &costs, &mut rng, &mut TraceSink::disabled());
        assert_eq!(out.wake, vec![ThreadId(1)]);
        // The woken thread claims the token even though its intensity
        // decayed in the meantime.
        let again = cm.on_begin(&query(1), &tm, &costs, &mut rng, &mut TraceSink::disabled());
        assert_eq!(again.decision, BeginDecision::Proceed);
    }

    #[test]
    fn runner_retries_without_requeueing() {
        let (tm, costs, mut rng) = env();
        let mut cm = AtsCm::default();
        saturate(&mut cm, 0, &tm, &costs, &mut rng);
        cm.on_begin(&query(0), &tm, &costs, &mut rng, &mut TraceSink::disabled());
        // Abort and retry: still the runner, still proceeds.
        cm.on_conflict_abort(
            &conflict(0),
            &tm,
            &costs,
            &mut rng,
            &mut TraceSink::disabled(),
        );
        let out = cm.on_begin(&query(0), &tm, &costs, &mut rng, &mut TraceSink::disabled());
        assert_eq!(out.decision, BeginDecision::Proceed);
    }

    #[test]
    fn non_runner_commit_does_not_wake() {
        let (tm, costs, mut rng) = env();
        let mut cm = AtsCm::default();
        saturate(&mut cm, 0, &tm, &costs, &mut rng);
        saturate(&mut cm, 1, &tm, &costs, &mut rng);
        cm.on_begin(&query(0), &tm, &costs, &mut rng, &mut TraceSink::disabled());
        cm.on_begin(&query(1), &tm, &costs, &mut rng, &mut TraceSink::disabled());
        // A cool third thread commits; the queue must not drain.
        let rec = CommitRecord {
            dtx: DTxId::new(ThreadId(2), STxId(0)),
            rw_set: &[],
            now: Cycle::ZERO,
            retries: 0,
            remaining: None,
        };
        let out = cm.on_commit(&rec, &tm, &costs, &mut rng, &mut TraceSink::disabled());
        assert!(out.wake.is_empty());
    }

    #[test]
    fn intensity_converges_under_repeated_aborts() {
        let (tm, costs, mut rng) = env();
        let mut cm = AtsCm::default();
        for _ in 0..200 {
            cm.on_conflict_abort(
                &conflict(3),
                &tm,
                &costs,
                &mut rng,
                &mut TraceSink::disabled(),
            );
        }
        let ci = cm.intensity_of(ThreadId(3));
        assert!(ci > 0.95 && ci <= 1.0, "ci should converge to 1, got {ci}");
    }
}
