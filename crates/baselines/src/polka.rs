//! Polka-style reactive backoff (Scherer & Scott, PODC'05 family).

use bfgts_htm::{
    AbortPlan, BeginOutcome, BeginQuery, CommitOutcome, CommitRecord, ConflictEvent,
    ContentionManager, TmState,
};
use bfgts_sim::{CostModel, SimRng, TraceSink};
use std::collections::BTreeMap;

/// Backoff cycles per line of investment difference.
const PER_LINE: u64 = 40;

/// Exponential growth cap (left-shift of the window per retry).
const MAX_SHIFT: u32 = 6;

/// Window floor in cycles.
const FLOOR: u64 = 400;

/// A Polka-flavoured reactive manager: the paper's §2 surveys the
/// Scherer & Scott contention managers, of which *Polka* (priorities from
/// accumulated *investment* + randomised exponential backoff) was the
/// best all-rounder. In our LogTM setting the HTM fixes who aborts
/// (timestamp order), so the Polka idea survives as investment-scaled
/// backoff: a transaction that had accumulated a large read/write set
/// when it lost waits longer before retrying, giving its (presumably
/// still-running) enemy time to finish; a cheap transaction retries
/// quickly.
///
/// # Example
///
/// ```
/// use bfgts_baselines::PolkaCm;
/// use bfgts_htm::ContentionManager;
/// assert_eq!(PolkaCm::default().name(), "Polka");
/// ```
#[derive(Debug, Clone, Default)]
pub struct PolkaCm {
    /// Last known investment (average set size) per dTxID.
    investment: BTreeMap<u64, f64>,
}

impl PolkaCm {
    /// Creates a manager.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ContentionManager for PolkaCm {
    fn name(&self) -> &'static str {
        "Polka"
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
        // Window scales with the *enemy's* investment (give a big enemy
        // room to finish) and grows exponentially with our retries.
        let enemy_investment = self
            .investment
            .get(&ev.enemy.pack())
            .copied()
            .unwrap_or(0.0);
        let base = FLOOR + (enemy_investment * PER_LINE as f64) as u64;
        let window = base << ev.retries.min(MAX_SHIFT);
        AbortPlan {
            backoff: rng.jitter(window),
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
        // Track investment as a smoothed set size.
        let e = self.investment.entry(rec.dtx.pack()).or_insert(0.0);
        *e = 0.5 * (*e + rec.rw_set.len() as f64);
        CommitOutcome {
            cost: 2,
            wake: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfgts_htm::{DTxId, LineAddr, STxId};
    use bfgts_sim::{Cycle, ThreadId};

    fn dtx(t: usize) -> DTxId {
        DTxId::new(ThreadId(t), STxId(0))
    }

    fn conflict(enemy: DTxId, retries: u32) -> ConflictEvent {
        ConflictEvent {
            aborter: dtx(0),
            enemy,
            addr: LineAddr(0),
            now: Cycle::ZERO,
            retries,
        }
    }

    fn env() -> (TmState, CostModel, SimRng) {
        (
            TmState::new(2, 4),
            CostModel::default(),
            SimRng::seed_from(3),
        )
    }

    #[test]
    fn begin_is_free() {
        let (tm, costs, mut rng) = env();
        let mut cm = PolkaCm::default();
        let q = BeginQuery {
            thread: ThreadId(0),
            cpu: 0,
            dtx: dtx(0),
            now: Cycle::ZERO,
            retries: 0,
            waits: 0,
        };
        assert_eq!(
            cm.on_begin(&q, &tm, &costs, &mut rng, &mut TraceSink::disabled())
                .cost,
            0
        );
    }

    #[test]
    fn backoff_scales_with_enemy_investment() {
        let (tm, costs, mut rng) = env();
        let mut cm = PolkaCm::default();
        // Teach the manager that t1's transaction is big.
        let big: Vec<LineAddr> = (0..200).map(LineAddr).collect();
        for _ in 0..4 {
            let rec = CommitRecord {
                dtx: dtx(1),
                rw_set: &big,
                now: Cycle::ZERO,
                retries: 0,
                remaining: None,
            };
            cm.on_commit(&rec, &tm, &costs, &mut rng, &mut TraceSink::disabled());
        }
        let sum = |cm: &mut PolkaCm, rng: &mut SimRng, enemy| -> u64 {
            (0..100)
                .map(|_| {
                    cm.on_conflict_abort(
                        &conflict(enemy, 0),
                        &tm,
                        &costs,
                        rng,
                        &mut TraceSink::disabled(),
                    )
                    .backoff
                })
                .sum()
        };
        let vs_big = sum(&mut cm, &mut rng, dtx(1));
        let vs_unknown = sum(&mut cm, &mut rng, dtx(2));
        assert!(
            vs_big > vs_unknown * 2,
            "big enemies should earn longer backoff ({vs_big} vs {vs_unknown})"
        );
    }

    #[test]
    fn backoff_grows_with_retries() {
        let (tm, costs, mut rng) = env();
        let mut cm = PolkaCm::default();
        let early: u64 = (0..100)
            .map(|_| {
                cm.on_conflict_abort(
                    &conflict(dtx(1), 0),
                    &tm,
                    &costs,
                    &mut rng,
                    &mut TraceSink::disabled(),
                )
                .backoff
            })
            .sum();
        let late: u64 = (0..100)
            .map(|_| {
                cm.on_conflict_abort(
                    &conflict(dtx(1), 6),
                    &tm,
                    &costs,
                    &mut rng,
                    &mut TraceSink::disabled(),
                )
                .backoff
            })
            .sum();
        assert!(late > early * 8);
    }
}
