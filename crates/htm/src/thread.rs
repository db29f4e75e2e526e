//! The per-thread transaction driver: runs a [`TxSource`]'s transactions
//! through the LogTM protocol under a contention manager's decisions.

use crate::cm::{BeginDecision, BeginQuery, CommitRecord, ConflictEvent};
use crate::ids::{DTxId, LineAddr};
use crate::state::{AccessResult, TmWorld};
use crate::txn::{TxInstance, TxPoll, TxSource};
use bfgts_sim::{
    Action, Bucket, Cycle, DecisionKind, ThreadCtx, ThreadLogic, TraceEvent, NO_TARGET,
};

/// Spin-slice length while NACK-stalled on a conflicting line.
const CONFLICT_POLL: u64 = 25;

/// Spin-slice length while serialised behind a predicted conflictor.
const PREDICT_POLL: u64 = 30;

/// How long a predicted-conflict wait spins before falling back to
/// `pthread_yield` (adaptive spin-then-yield).
const SPIN_BEFORE_YIELD: u64 = 8000;

/// Largest single slice of non-transactional work (keeps quantum
/// preemption responsive).
const PREWORK_CHUNK: u64 = 2000;

/// Largest single slice of post-abort backoff or begin-time delay.
const BACKOFF_CHUNK: u64 = 500;

/// Tunables of the thread driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxThreadConfig {
    /// Cycles per transactional access (models an L1 hit plus a couple of
    /// ALU operations; misses are folded into the average).
    pub access_cost: u64,
}

impl Default for TxThreadConfig {
    fn default() -> Self {
        Self { access_cost: 3 }
    }
}

impl TxThreadConfig {
    /// Tunables for a software-TM substrate: each transactional access
    /// pays read/write-barrier instrumentation on top of the memory
    /// access itself.
    pub fn stm_like() -> Self {
        Self { access_cost: 12 }
    }
}

/// Why the current attempt is rolling back. Carried from the point of
/// detection (inside `InTx`) to the post-rollback dispatch, where it
/// decides whether the contention manager hears about the abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbortCause {
    /// A conflict lost age arbitration to `enemy`. Covers
    /// bounded-signature false positives too: the contention manager
    /// still hears about `enemy` — the noisy oracle is exactly what the
    /// scheduler must learn from.
    Conflict { enemy: DTxId },
    /// The bounded signature overflowed its tracking capacity. A pure
    /// hardware event: no enemy, no contention-manager consult.
    Capacity,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    FetchNext,
    PreWork { left: u64 },
    BeginQuery,
    DoBegin,
    PredictSpin { target: DTxId, spun: u64 },
    PredictYield { target: DTxId },
    BlockedWait { issued: bool },
    InTx { next: usize },
    ConflictStall { next: usize },
    AbortRollback,
    AbortCm { enemy: DTxId },
    Backoff { left: u64 },
    CommitHtm,
    CommitCm,
    Finished,
}

/// Drives one thread's transaction stream through the TM machine.
///
/// Implements [`ThreadLogic`] over [`TmWorld`]; see the crate-level
/// example.
pub struct TxThreadLogic<S> {
    source: S,
    cfg: TxThreadConfig,
    phase: Phase,
    cur: Option<TxInstance>,
    /// Arrival cycle of the current transaction (open-system sources
    /// only); drives sojourn accounting at commit.
    cur_arrival: Option<u64>,
    timestamp: Option<Cycle>,
    retries: u32,
    waits: u32,
    tx_work: u64,
    in_stall_episode: bool,
    commit_rw: Vec<LineAddr>,
    commit_dtx: Option<DTxId>,
    abort_cause: Option<AbortCause>,
}

impl<S: TxSource> TxThreadLogic<S> {
    /// Creates a driver over `source` with default tunables.
    pub fn new(source: S) -> Self {
        Self::with_config(source, TxThreadConfig::default())
    }

    /// Creates a driver with explicit tunables.
    pub fn with_config(source: S, cfg: TxThreadConfig) -> Self {
        Self {
            source,
            cfg,
            phase: Phase::FetchNext,
            cur: None,
            cur_arrival: None,
            timestamp: None,
            retries: 0,
            waits: 0,
            tx_work: 0,
            in_stall_episode: false,
            commit_rw: Vec::new(),
            commit_dtx: None,
            abort_cause: None,
        }
    }

    fn cur_dtx(&self, ctx: &ThreadCtx) -> DTxId {
        DTxId::new(
            ctx.thread,
            self.cur.as_ref().expect("no current transaction").stx,
        )
    }

    /// Handles one phase; returns `Some(action)` or `None` to fall
    /// through to the next phase within the same step.
    fn advance(&mut self, world: &mut TmWorld, ctx: &mut ThreadCtx) -> Option<Action> {
        match self.phase {
            Phase::FetchNext => {
                self.retries = 0;
                self.waits = 0;
                self.timestamp = None;
                match self.source.poll_tx(ctx.now.as_u64(), ctx.rng) {
                    TxPoll::Exhausted => {
                        self.phase = Phase::Finished;
                        Some(Action::Finish)
                    }
                    TxPoll::NotBefore(deadline) => {
                        // Open system, queue empty: park on the clock
                        // until the next arrival instead of finishing.
                        // The phase stays FetchNext; the next step polls
                        // again at (or after) the deadline.
                        Some(Action::SleepUntil { deadline })
                    }
                    TxPoll::Ready { tx, arrival, depth } => {
                        if let Some(at) = arrival {
                            let stx = tx.stx.0;
                            let thread = ctx.thread.index() as u32;
                            ctx.trace.emit(ctx.now.as_u64(), || TraceEvent::TxArrival {
                                thread,
                                stx,
                                arrival: at,
                            });
                            ctx.trace.emit(ctx.now.as_u64(), || TraceEvent::QueueDepth {
                                thread,
                                depth,
                            });
                        }
                        self.cur_arrival = arrival;
                        let pre = tx.pre_work;
                        self.cur = Some(tx);
                        self.phase = if pre > 0 {
                            Phase::PreWork { left: pre }
                        } else {
                            Phase::BeginQuery
                        };
                        None
                    }
                }
            }
            Phase::PreWork { left } => {
                let chunk = left.min(PREWORK_CHUNK);
                let rest = left.checked_sub(chunk).expect("chunk is clamped to left");
                self.phase = if rest > 0 {
                    Phase::PreWork { left: rest }
                } else {
                    Phase::BeginQuery
                };
                Some(Action::work(chunk, Bucket::NonTx))
            }
            Phase::BeginQuery => {
                if self.timestamp.is_none() {
                    self.timestamp = Some(ctx.now);
                }
                let dtx = self.cur_dtx(ctx);
                let q = BeginQuery {
                    thread: ctx.thread,
                    cpu: ctx.cpu.index(),
                    dtx,
                    now: ctx.now,
                    retries: self.retries,
                    waits: self.waits,
                };
                let out = world
                    .cm
                    .on_begin(&q, &world.tm, ctx.costs(), ctx.rng, ctx.trace);
                let (kind, verdict_target) = match out.decision {
                    BeginDecision::Proceed => (DecisionKind::Proceed, None),
                    BeginDecision::SpinUntilDone { target } => (DecisionKind::Spin, Some(target)),
                    BeginDecision::YieldUntilDone { target } => (DecisionKind::Yield, Some(target)),
                    BeginDecision::Block => (DecisionKind::Block, None),
                    BeginDecision::Delay { .. } => (DecisionKind::Delay, None),
                };
                ctx.trace
                    .emit(ctx.now.as_u64(), || TraceEvent::SchedDecision {
                        thread: ctx.thread.index() as u32,
                        stx: dtx.stx.0,
                        kind,
                        target_thread: verdict_target
                            .map(|t| t.thread.index() as u32)
                            .unwrap_or(NO_TARGET),
                        target_stx: verdict_target.map(|t| t.stx.0).unwrap_or(NO_TARGET),
                        cost: out.cost,
                    });
                match out.decision {
                    BeginDecision::Proceed => self.phase = Phase::DoBegin,
                    BeginDecision::SpinUntilDone { target }
                    | BeginDecision::YieldUntilDone { target } => {
                        let yielding = matches!(out.decision, BeginDecision::YieldUntilDone { .. });
                        if !world.tm.is_active(target) {
                            // The predicted conflictor already finished.
                            self.waits += 1;
                            self.phase = Phase::BeginQuery;
                        } else if world.tm.would_deadlock(ctx.thread, target.thread) {
                            world.cm.on_wait_skipped(dtx);
                            self.phase = Phase::DoBegin;
                        } else {
                            world.tm.set_waiting(ctx.thread, target.thread);
                            ctx.trace.emit(ctx.now.as_u64(), || TraceEvent::TxSuspend {
                                thread: ctx.thread.index() as u32,
                                stx: dtx.stx.0,
                                target_thread: target.thread.index() as u32,
                                target_stx: target.stx.0,
                                yielding,
                            });
                            self.phase = if yielding {
                                Phase::PredictYield { target }
                            } else {
                                Phase::PredictSpin { target, spun: 0 }
                            };
                        }
                    }
                    BeginDecision::Block => {
                        self.phase = Phase::BlockedWait { issued: false };
                    }
                    BeginDecision::Delay { cycles } => {
                        self.phase = Phase::Backoff { left: cycles };
                    }
                }
                if out.cost > 0 {
                    Some(Action::work(out.cost, Bucket::Scheduling))
                } else {
                    None
                }
            }
            Phase::DoBegin => {
                let dtx = self.cur_dtx(ctx);
                let ts = self.timestamp.expect("timestamp set at begin query");
                world.tm.begin_tx(ctx.thread, ctx.cpu.index(), dtx, ts);
                self.tx_work = 0;
                self.phase = Phase::InTx { next: 0 };
                let retries = self.retries;
                ctx.trace.emit(ctx.now.as_u64(), || TraceEvent::TxBegin {
                    thread: ctx.thread.index() as u32,
                    stx: dtx.stx.0,
                    retries,
                });
                // Detection-signature corruption fault (armed via the
                // harness): rolled against the fresh attempt's signatures,
                // declared in the trace only when bits actually flipped.
                let corrupted = world.tm.maybe_corrupt_detection(ctx.thread);
                if corrupted > 0 {
                    ctx.trace
                        .emit(ctx.now.as_u64(), || TraceEvent::FaultBloomCorrupt {
                            thread: ctx.thread.index() as u32,
                            stx: dtx.stx.0,
                            bits: corrupted,
                        });
                }
                Some(Action::work(ctx.costs().tx_begin, Bucket::Tx))
            }
            Phase::PredictSpin { target, spun } => {
                if !world.tm.is_active(target) {
                    world.tm.clear_waiting(ctx.thread);
                    self.waits += 1;
                    self.phase = Phase::BeginQuery;
                    return None;
                }
                if spun < SPIN_BEFORE_YIELD {
                    self.phase = Phase::PredictSpin {
                        target,
                        spun: spun
                            .checked_add(PREDICT_POLL)
                            .expect("spin accounting overflowed u64"),
                    };
                    Some(Action::work(PREDICT_POLL, Bucket::Scheduling))
                } else {
                    Some(Action::Yield)
                }
            }
            Phase::PredictYield { target } => {
                if !world.tm.is_active(target) {
                    world.tm.clear_waiting(ctx.thread);
                    self.waits += 1;
                    self.phase = Phase::BeginQuery;
                    None
                } else {
                    Some(Action::Yield)
                }
            }
            Phase::BlockedWait { issued } => {
                if issued {
                    self.phase = Phase::BeginQuery;
                    None
                } else {
                    self.phase = Phase::BlockedWait { issued: true };
                    Some(Action::Block)
                }
            }
            Phase::InTx { next } => {
                let tx = self.cur.as_ref().expect("in transaction without instance");
                if next >= tx.accesses.len() {
                    self.phase = Phase::CommitHtm;
                    return None;
                }
                let access = tx
                    .accesses
                    .get(next)
                    .copied()
                    .expect("access index bounds-checked above");
                let my_stx = tx.stx;
                let result = if access.is_write {
                    world.tm.write(ctx.thread, access.addr)
                } else {
                    world.tm.read(ctx.thread, access.addr)
                };
                match result {
                    AccessResult::Granted => {
                        self.in_stall_episode = false;
                        // Sharded platforms: record the first touch of
                        // each conflict-detection shard (no-op, and no
                        // event, when `shards == 1`).
                        if let Some(shard) = world.tm.note_shard_touch(ctx.thread, access.addr) {
                            ctx.trace.emit(ctx.now.as_u64(), || TraceEvent::ShardTouch {
                                thread: ctx.thread.index() as u32,
                                stx: my_stx.0,
                                shard,
                            });
                        }
                        self.tx_work = self
                            .tx_work
                            .checked_add(self.cfg.access_cost)
                            .expect("transactional work accounting overflowed u64");
                        self.phase = Phase::InTx { next: next + 1 };
                        Some(Action::work(self.cfg.access_cost, Bucket::Tx))
                    }
                    AccessResult::Conflict { owner } | AccessResult::FalseConflict { owner } => {
                        if let Some(enemy_stx) = world.tm.active_stx(owner) {
                            world.tm.stats_mut().record_conflict(my_stx, enemy_stx);
                        }
                        // LogTM-style conservative deadlock avoidance:
                        // an older requester stalls (it will win
                        // eventually), a younger requester aborts
                        // itself. Timestamps persist across retries, so
                        // a repeatedly-aborted transaction ages into
                        // the oldest and is guaranteed forward
                        // progress; stall chains are ordered by age and
                        // therefore acyclic. A bounded-signature false
                        // positive (an intersection the exact line table
                        // disproves) looks the same to the hardware, so
                        // it arbitrates under the same age order and the
                        // deadlock-freedom argument carries over.
                        let my_key = (self.timestamp.expect("in tx"), ctx.thread);
                        let owner_key = match world.tm.active_timestamp(owner) {
                            Some(ts) => (ts, owner),
                            // Owner finished between detection and now:
                            // just retry the access.
                            None => {
                                self.phase = Phase::InTx { next };
                                return None;
                            }
                        };
                        if my_key > owner_key {
                            let enemy = world
                                .tm
                                .active_dtx(owner)
                                .unwrap_or(DTxId::new(owner, my_stx));
                            self.in_stall_episode = false;
                            self.phase = Phase::AbortRollback;
                            // Remember who beat us for the conflict hook.
                            self.abort_cause = Some(AbortCause::Conflict { enemy });
                            let thread = ctx.thread.index() as u32;
                            let (enemy_thread, enemy_stx) =
                                (enemy.thread.index() as u32, enemy.stx.0);
                            if matches!(result, AccessResult::FalseConflict { .. }) {
                                // Recompute the ground truth while both
                                // exact sets are still intact; the audit
                                // (I10) re-derives this count and
                                // requires zero.
                                let true_conflicts = world.tm.true_conflict_count(
                                    ctx.thread,
                                    access.addr,
                                    access.is_write,
                                );
                                ctx.trace.emit(ctx.now.as_u64(), || {
                                    TraceEvent::FalsePositiveConflict {
                                        thread,
                                        stx: my_stx.0,
                                        enemy_thread,
                                        enemy_stx,
                                        true_conflicts,
                                    }
                                });
                            } else {
                                ctx.trace.emit(ctx.now.as_u64(), || TraceEvent::TxConflict {
                                    thread,
                                    stx: my_stx.0,
                                    enemy_thread,
                                    enemy_stx,
                                    stalled: false,
                                });
                            }
                            None
                        } else {
                            if !self.in_stall_episode {
                                self.in_stall_episode = true;
                                world.tm.stats_mut().record_stall();
                                ctx.trace.emit(ctx.now.as_u64(), || TraceEvent::TxStall {
                                    thread: ctx.thread.index() as u32,
                                    stx: my_stx.0,
                                });
                            }
                            world.tm.set_waiting(ctx.thread, owner);
                            let enemy_stx =
                                world.tm.active_stx(owner).map(|s| s.0).unwrap_or(NO_TARGET);
                            ctx.trace.emit(ctx.now.as_u64(), || TraceEvent::TxConflict {
                                thread: ctx.thread.index() as u32,
                                stx: my_stx.0,
                                enemy_thread: owner.index() as u32,
                                enemy_stx,
                                stalled: true,
                            });
                            self.phase = Phase::ConflictStall { next };
                            // Jitter the retry interval so two
                            // deterministic retry loops cannot
                            // phase-lock into a livelock (LogTM
                            // randomises its retry for the same reason).
                            // A false positive's NACK clears when the
                            // aliasing owner's signature does.
                            let poll = CONFLICT_POLL
                                .checked_add(ctx.rng.jitter(CONFLICT_POLL))
                                .expect("retry interval overflowed u64");
                            Some(Action::work(poll, Bucket::Abort))
                        }
                    }
                    AccessResult::CapacityExceeded { tracked, capacity } => {
                        // Signature overflow: the bounded filter cannot
                        // track another address. Abort, fall back to
                        // unbounded tracking for the retry (the latch in
                        // `TmState` clears at the next commit), and skip
                        // the contention manager — overflow is a hardware
                        // capacity event, not contention.
                        self.in_stall_episode = false;
                        self.phase = Phase::AbortRollback;
                        self.abort_cause = Some(AbortCause::Capacity);
                        ctx.trace
                            .emit(ctx.now.as_u64(), || TraceEvent::CapacityAbort {
                                thread: ctx.thread.index() as u32,
                                stx: my_stx.0,
                                tracked,
                                capacity,
                            });
                        None
                    }
                }
            }
            Phase::ConflictStall { next } => {
                world.tm.clear_waiting(ctx.thread);
                self.phase = Phase::InTx { next };
                None
            }
            Phase::AbortRollback => {
                world.tm.clear_waiting(ctx.thread);
                let (dtx, undo_lines) = world.tm.abort_tx(ctx.thread);
                // One refile covers both the access work and the begin
                // cost charged optimistically to Tx; `ctx.refile` records
                // the move so the audit can prove it never saturates.
                ctx.refile(
                    Bucket::Tx,
                    Bucket::Abort,
                    self.tx_work
                        .checked_add(ctx.costs().tx_begin)
                        .expect("refiled work overflowed u64"),
                );
                self.tx_work = 0;
                ctx.trace.emit(ctx.now.as_u64(), || TraceEvent::TxAbort {
                    thread: ctx.thread.index() as u32,
                    stx: dtx.stx.0,
                    undo_lines: undo_lines as u32,
                });
                match self
                    .abort_cause
                    .take()
                    .expect("abort without recorded cause")
                {
                    AbortCause::Conflict { enemy } => {
                        self.phase = Phase::AbortCm { enemy };
                    }
                    AbortCause::Capacity => {
                        // No contention-manager consult and no backoff:
                        // nobody beat us, so retry immediately under the
                        // software fallback.
                        self.retries += 1;
                        self.phase = Phase::Backoff { left: 0 };
                    }
                }
                let rollback = ctx
                    .costs()
                    .abort_per_line
                    .checked_mul(undo_lines as u64)
                    .and_then(|undo| ctx.costs().abort_trap.checked_add(undo))
                    .expect("rollback cost overflowed u64");
                Some(Action::work(rollback, Bucket::Abort))
            }
            Phase::AbortCm { enemy } => {
                let ev = ConflictEvent {
                    aborter: self.cur_dtx(ctx),
                    enemy,
                    addr: LineAddr(0),
                    now: ctx.now,
                    retries: self.retries,
                };
                let plan =
                    world
                        .cm
                        .on_conflict_abort(&ev, &world.tm, ctx.costs(), ctx.rng, ctx.trace);
                self.retries += 1;
                self.phase = Phase::Backoff { left: plan.backoff };
                if plan.cost > 0 {
                    Some(Action::work(plan.cost, Bucket::Scheduling))
                } else {
                    None
                }
            }
            Phase::Backoff { left } => {
                if left == 0 {
                    self.phase = Phase::BeginQuery;
                    return None;
                }
                let chunk = left.min(BACKOFF_CHUNK);
                self.phase = Phase::Backoff {
                    left: left.checked_sub(chunk).expect("chunk is clamped to left"),
                };
                Some(Action::work(chunk, Bucket::Abort))
            }
            Phase::CommitHtm => {
                let touched = world.tm.active_shard_count(ctx.thread);
                // The read/write set lands in `commit_rw`, reused across
                // commits, where the contention manager reads it next.
                let dtx = world.tm.commit_tx(ctx.thread, &mut self.commit_rw);
                let rw_lines = self.commit_rw.len() as u32;
                let retries = self.retries;
                let mut commit_cost = ctx.costs().tx_commit;
                if touched >= 2 {
                    // Cross-shard commit coordination: one directory hop
                    // per remote shard, folded into this commit's
                    // Tx-bucket charge so the accounting invariants hold
                    // unchanged. Emitted before TxCommit, while the
                    // attempt is still open, so the audit (I8) can match
                    // it against the attempt's ShardTouch set.
                    let extra = ctx
                        .costs()
                        .cross_shard_hop
                        .checked_mul(u64::from(touched - 1))
                        .expect("cross-shard coordination cost overflowed u64");
                    commit_cost = commit_cost
                        .checked_add(extra)
                        .expect("commit cost overflowed u64");
                    ctx.trace
                        .emit(ctx.now.as_u64(), || TraceEvent::CrossShardCommit {
                            thread: ctx.thread.index() as u32,
                            stx: dtx.stx.0,
                            shards: touched,
                            cost: extra,
                        });
                }
                ctx.trace.emit(ctx.now.as_u64(), || TraceEvent::TxCommit {
                    thread: ctx.thread.index() as u32,
                    stx: dtx.stx.0,
                    retries,
                    rw_lines,
                });
                if let Some(arrived) = self.cur_arrival.take() {
                    // Sojourn = commit − arrival. A fetch never happens
                    // before the arrival, so this cannot underflow
                    // (invariant I9 re-proves it from the trace).
                    let sojourn = ctx
                        .now
                        .as_u64()
                        .checked_sub(arrived)
                        .expect("transaction committed before it arrived");
                    world.tm.stats_mut().record_sojourn(sojourn);
                }
                self.commit_dtx = Some(dtx);
                self.phase = Phase::CommitCm;
                Some(Action::work(commit_cost, Bucket::Tx))
            }
            Phase::CommitCm => {
                let rec = CommitRecord {
                    dtx: self.commit_dtx.take().expect("commit without dtx"),
                    rw_set: &self.commit_rw,
                    now: ctx.now,
                    retries: self.retries,
                    remaining: self.source.remaining_hint(),
                };
                let out = world
                    .cm
                    .on_commit(&rec, &world.tm, ctx.costs(), ctx.rng, ctx.trace);
                for t in out.wake {
                    ctx.wake(t);
                }
                self.phase = Phase::FetchNext;
                if out.cost > 0 {
                    Some(Action::work(out.cost, Bucket::Scheduling))
                } else {
                    None
                }
            }
            Phase::Finished => Some(Action::Finish),
        }
    }
}

impl<S: TxSource> ThreadLogic<TmWorld> for TxThreadLogic<S> {
    fn step(&mut self, world: &mut TmWorld, ctx: &mut ThreadCtx) -> Action {
        // Fall through zero-time phases until a real action emerges; the
        // loop is bounded because every cycle of phases contains at least
        // one action-producing transition.
        for _ in 0..64 {
            if let Some(action) = self.advance(world, ctx) {
                return action;
            }
        }
        // detlint: allow(P002) -- documented panic: a phase machine that spins without producing an action is a logic bug
        panic!(
            "thread {} made no progress in 64 phase transitions (phase {:?})",
            ctx.thread, self.phase
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cm::{AbortPlan, BeginOutcome, CommitOutcome, ContentionManager, NullCm};
    use crate::ids::STxId;
    use crate::state::TmState;
    use crate::txn::{Access, ScriptSource};
    use bfgts_sim::{CostModel, SimRng, ThreadId, TimeBuckets, TraceSink};

    fn quiet_costs() -> CostModel {
        CostModel {
            context_switch: 0,
            yield_syscall: 0,
            futex_block: 0,
            futex_wake: 0,
            tx_begin: 0,
            tx_commit: 0,
            abort_trap: 0,
            abort_per_line: 0,
            ..CostModel::default()
        }
    }

    use crate::harness::{run_workload, TmRunConfig};

    fn one_tx(stx: u32, lines: std::ops::Range<u64>, pre: u64) -> TxInstance {
        TxInstance::writer_over(STxId(stx), lines, pre)
    }

    #[test]
    fn single_thread_commits_all() {
        let cfg = TmRunConfig::new(1, 1).seed(7).costs(quiet_costs());
        let script = vec![one_tx(0, 0..5, 100), one_tx(1, 5..9, 50)];
        let report = run_workload(&cfg, vec![ScriptSource::new(script)], Box::new(NullCm));
        assert_eq!(report.stats.commits(), 2);
        assert_eq!(report.stats.aborts(), 0);
        let total = report.sim.total();
        assert_eq!(total.get(Bucket::NonTx), 150);
        // 5 + 4 accesses at 3 cycles each
        assert_eq!(total.get(Bucket::Tx), 27);
    }

    #[test]
    fn disjoint_threads_run_conflict_free() {
        let cfg = TmRunConfig::new(4, 4).seed(7).costs(quiet_costs());
        let scripts: Vec<_> = (0..4u64)
            .map(|t| {
                ScriptSource::new(vec![
                    one_tx(0, t * 100..t * 100 + 10, 20),
                    one_tx(1, t * 100 + 50..t * 100 + 55, 20),
                ])
            })
            .collect();
        let report = run_workload(&cfg, scripts, Box::new(NullCm));
        assert_eq!(report.stats.commits(), 8);
        assert_eq!(report.stats.aborts(), 0);
        assert_eq!(report.stats.stalls(), 0);
    }

    #[test]
    fn conflicting_writers_serialize_via_stall() {
        // Two threads write the same lines; the later one stalls (LogTM
        // requester-stalls) and proceeds after the first commits. No
        // deadlock, both commit.
        let cfg = TmRunConfig::new(2, 2).seed(7).costs(quiet_costs());
        let scripts = vec![
            ScriptSource::new(vec![one_tx(0, 0..20, 0)]),
            ScriptSource::new(vec![one_tx(1, 0..20, 0)]),
        ];
        let report = run_workload(&cfg, scripts, Box::new(NullCm));
        assert_eq!(report.stats.commits(), 2);
        // The conflict graph saw the 0-1 edge.
        let edges: Vec<_> = report.stats.conflict_edges().collect();
        assert!(edges.contains(&(STxId(0), STxId(1))));
        assert!(report.stats.stalls() > 0 || report.stats.aborts() > 0);
    }

    #[test]
    fn symmetric_deadlock_aborts_one() {
        // Thread A writes 0 then 1; thread B writes 1 then 0. If they
        // interleave they deadlock; cycle detection must abort one.
        let a = TxInstance::new(STxId(0), vec![Access::write(0), Access::write(1)], 0);
        let b = TxInstance::new(STxId(1), vec![Access::write(1), Access::write(0)], 0);
        let cfg = TmRunConfig::new(2, 2).seed(3).costs(quiet_costs());
        let report = run_workload(
            &cfg,
            vec![ScriptSource::new(vec![a]), ScriptSource::new(vec![b])],
            Box::new(NullCm),
        );
        assert_eq!(report.stats.commits(), 2, "both must eventually commit");
    }

    #[test]
    fn aborted_work_moves_to_abort_bucket() {
        // Force an abort via deadlock; wasted tx cycles must land in the
        // Abort bucket, not Tx.
        let a = TxInstance::new(STxId(0), vec![Access::write(0), Access::write(1)], 0);
        let b = TxInstance::new(STxId(1), vec![Access::write(1), Access::write(0)], 0);
        let cfg = TmRunConfig::new(2, 2).seed(3).costs(quiet_costs());
        let report = run_workload(
            &cfg,
            vec![ScriptSource::new(vec![a]), ScriptSource::new(vec![b])],
            Box::new(NullCm),
        );
        if report.stats.aborts() > 0 {
            assert!(report.sim.total().get(Bucket::Abort) > 0);
        }
        // Committed work: 2 txs * 2 accesses * 3 cycles.
        assert_eq!(report.sim.total().get(Bucket::Tx), 12);
    }

    /// A manager that serialises every transaction behind whatever the
    /// CPU table shows, to exercise the predict-wait paths.
    struct AlwaysWait {
        yielding: bool,
    }

    impl ContentionManager for AlwaysWait {
        fn name(&self) -> &'static str {
            "AlwaysWait"
        }
        fn on_begin(
            &mut self,
            q: &BeginQuery,
            tm: &TmState,
            _costs: &CostModel,
            _rng: &mut SimRng,
            _trace: &mut TraceSink,
        ) -> BeginOutcome {
            // Wait for any *other* running transaction, at most once per
            // attempt (waits cap keeps the test fast).
            if q.waits == 0 {
                if let Some(target) = tm
                    .cpu_table()
                    .iter()
                    .flatten()
                    .find(|d| d.thread != q.thread)
                {
                    let decision = if self.yielding {
                        BeginDecision::YieldUntilDone { target: *target }
                    } else {
                        BeginDecision::SpinUntilDone { target: *target }
                    };
                    return BeginOutcome { decision, cost: 10 };
                }
            }
            BeginOutcome {
                decision: BeginDecision::Proceed,
                cost: 10,
            }
        }
        fn on_conflict_abort(
            &mut self,
            _ev: &ConflictEvent,
            _tm: &TmState,
            _costs: &CostModel,
            _rng: &mut SimRng,
            _trace: &mut TraceSink,
        ) -> AbortPlan {
            AbortPlan {
                backoff: 100,
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

    #[test]
    fn predicted_spin_wait_serializes() {
        let cfg = TmRunConfig::new(2, 2).seed(9).costs(quiet_costs());
        let scripts = vec![
            ScriptSource::new(vec![one_tx(0, 0..30, 0)]),
            ScriptSource::new(vec![one_tx(1, 0..30, 0)]),
        ];
        let report = run_workload(&cfg, scripts, Box::new(AlwaysWait { yielding: false }));
        assert_eq!(report.stats.commits(), 2);
        // Scheduling bucket saw the decision costs and spin slices.
        assert!(report.sim.total().get(Bucket::Scheduling) > 0);
    }

    #[test]
    fn predicted_yield_wait_serializes() {
        let cfg = TmRunConfig::new(1, 2).seed(9).costs(quiet_costs());
        let scripts = vec![
            ScriptSource::new(vec![one_tx(0, 0..30, 0)]),
            ScriptSource::new(vec![one_tx(1, 0..30, 0)]),
        ];
        let report = run_workload(&cfg, scripts, Box::new(AlwaysWait { yielding: true }));
        assert_eq!(report.stats.commits(), 2);
    }

    /// Blocks the second arrival until the first commits.
    struct BlockSecond {
        runner: Option<ThreadId>,
        parked: Vec<ThreadId>,
    }

    impl ContentionManager for BlockSecond {
        fn name(&self) -> &'static str {
            "BlockSecond"
        }
        fn on_begin(
            &mut self,
            q: &BeginQuery,
            _tm: &TmState,
            _costs: &CostModel,
            _rng: &mut SimRng,
            _trace: &mut TraceSink,
        ) -> BeginOutcome {
            match self.runner {
                None => {
                    self.runner = Some(q.thread);
                    BeginOutcome::PROCEED_FREE
                }
                Some(r) if r == q.thread => BeginOutcome::PROCEED_FREE,
                Some(_) => {
                    self.parked.push(q.thread);
                    BeginOutcome {
                        decision: BeginDecision::Block,
                        cost: 0,
                    }
                }
            }
        }
        fn on_conflict_abort(
            &mut self,
            _ev: &ConflictEvent,
            _tm: &TmState,
            _costs: &CostModel,
            _rng: &mut SimRng,
            _trace: &mut TraceSink,
        ) -> AbortPlan {
            AbortPlan {
                backoff: 0,
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
            self.runner = None;
            CommitOutcome {
                cost: 0,
                wake: std::mem::take(&mut self.parked),
            }
        }
    }

    #[test]
    fn blocked_threads_are_woken_on_commit() {
        let cfg = TmRunConfig::new(2, 2).seed(5).costs(quiet_costs());
        let scripts = vec![
            ScriptSource::new(vec![one_tx(0, 0..50, 0)]),
            ScriptSource::new(vec![one_tx(1, 0..50, 0)]),
        ];
        let report = run_workload(
            &cfg,
            scripts,
            Box::new(BlockSecond {
                runner: None,
                parked: Vec::new(),
            }),
        );
        assert_eq!(report.stats.commits(), 2);
        assert_eq!(report.stats.aborts(), 0, "full serialization avoids aborts");
    }

    #[test]
    fn delay_decision_retries_after_wait() {
        struct DelayOnce {
            delayed: bool,
        }
        impl ContentionManager for DelayOnce {
            fn name(&self) -> &'static str {
                "DelayOnce"
            }
            fn on_begin(
                &mut self,
                _q: &BeginQuery,
                _tm: &TmState,
                _costs: &CostModel,
                _rng: &mut SimRng,
                _trace: &mut TraceSink,
            ) -> BeginOutcome {
                if !self.delayed {
                    self.delayed = true;
                    BeginOutcome {
                        decision: BeginDecision::Delay { cycles: 777 },
                        cost: 0,
                    }
                } else {
                    BeginOutcome::PROCEED_FREE
                }
            }
            fn on_conflict_abort(
                &mut self,
                _ev: &ConflictEvent,
                _tm: &TmState,
                _costs: &CostModel,
                _rng: &mut SimRng,
                _trace: &mut TraceSink,
            ) -> AbortPlan {
                AbortPlan {
                    backoff: 0,
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
        let cfg = TmRunConfig::new(1, 1).seed(5).costs(quiet_costs());
        let report = run_workload(
            &cfg,
            vec![ScriptSource::new(vec![one_tx(0, 0..3, 0)])],
            Box::new(DelayOnce { delayed: false }),
        );
        assert_eq!(report.stats.commits(), 1);
        assert_eq!(report.sim.total().get(Bucket::Abort), 777);
    }

    #[test]
    fn empty_source_finishes_immediately() {
        let cfg = TmRunConfig::new(1, 1).seed(5).costs(quiet_costs());
        let report = run_workload(&cfg, vec![ScriptSource::new(Vec::new())], Box::new(NullCm));
        assert_eq!(report.stats.commits(), 0);
        assert_eq!(report.sim.makespan, Cycle::ZERO);
        let _ = TimeBuckets::default(); // keep import used
    }
}
