//! The typed event vocabulary.
//!
//! Events carry only primitives (`u32` ids, `u64` cycle counts, `u64`
//! IEEE-754 bit patterns) and this crate's own small enums, so the crate
//! stays a leaf: the simulator, HTM model and scheduler convert their own
//! id types at the emission site. The cycle [`Bucket`] needs no
//! conversion, since the simulator charges this very type.

/// Sentinel for "no target thread/transaction" in events whose target is
/// optional (e.g. a [`TraceEvent::SchedDecision`] that proceeds).
pub const NO_TARGET: u32 = u32::MAX;

/// The execution-time category a slice of cycles belongs to: the five
/// categories of the paper's Figure 5 runtime breakdown. The simulator
/// charges them (`bfgts_sim` re-exports this type) and the trace names
/// them, so one type serves both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Bucket {
    /// Useful work outside any transaction.
    NonTx,
    /// Kernel mode: context switches, yields, futex waits, OS bookkeeping.
    Kernel,
    /// Useful work inside transactions that eventually committed.
    Tx,
    /// Wasted work: cycles spent in transactions that aborted, plus
    /// rollback costs and post-abort backoff stalls.
    Abort,
    /// Contention-manager overhead: begin-time prediction scans, commit
    /// bookkeeping, similarity calculations, confidence updates.
    Scheduling,
}

impl Bucket {
    /// All buckets in report order, which is also the order used for
    /// array indexing and the per-thread totals in [`crate::AuditInputs`].
    pub const ALL: [Bucket; 5] = [
        Bucket::NonTx,
        Bucket::Kernel,
        Bucket::Tx,
        Bucket::Abort,
        Bucket::Scheduling,
    ];

    /// Number of buckets.
    pub const COUNT: usize = 5;

    /// Position of this bucket in [`Bucket::ALL`].
    pub fn index(self) -> usize {
        match self {
            Bucket::NonTx => 0,
            Bucket::Kernel => 1,
            Bucket::Tx => 2,
            Bucket::Abort => 3,
            Bucket::Scheduling => 4,
        }
    }

    /// Inverse of [`Bucket::index`].
    pub fn from_index(i: usize) -> Option<Bucket> {
        Bucket::ALL.get(i).copied()
    }

    /// Stable lowercase label, used in exports.
    pub fn label(self) -> &'static str {
        match self {
            Bucket::NonTx => "non_tx",
            Bucket::Kernel => "kernel",
            Bucket::Tx => "tx",
            Bucket::Abort => "abort",
            Bucket::Scheduling => "scheduling",
        }
    }

    /// Inverse of [`Bucket::label`].
    pub fn from_label(s: &str) -> Option<Bucket> {
        Bucket::ALL.into_iter().find(|b| b.label() == s)
    }
}

/// What a contention manager told a transaction to do at begin time
/// (mirrors `bfgts_htm::BeginDecision` without its payloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// Start immediately.
    Proceed,
    /// Suspend by spinning until a predicted enemy finishes.
    Spin,
    /// Suspend by yielding the CPU until a predicted enemy finishes.
    Yield,
    /// Block on a futex.
    Block,
    /// Back off for a fixed delay.
    Delay,
}

impl DecisionKind {
    /// Every verdict.
    pub const ALL: [DecisionKind; 5] = [
        DecisionKind::Proceed,
        DecisionKind::Spin,
        DecisionKind::Yield,
        DecisionKind::Block,
        DecisionKind::Delay,
    ];

    /// Stable lowercase label, used in exports.
    pub fn label(self) -> &'static str {
        match self {
            DecisionKind::Proceed => "proceed",
            DecisionKind::Spin => "spin",
            DecisionKind::Yield => "yield",
            DecisionKind::Block => "block",
            DecisionKind::Delay => "delay",
        }
    }

    /// Inverse of [`DecisionKind::label`].
    pub fn from_label(s: &str) -> Option<DecisionKind> {
        DecisionKind::ALL.into_iter().find(|d| d.label() == s)
    }
}

/// Which confidence-table update rule produced a [`TraceEvent::ConfUpdate`].
///
/// The four rules are the paper's Examples 2–4 weightings; the audit
/// recomputes each from the recorded similarity inputs and requires
/// bit-exact agreement with the applied delta:
///
/// * `ConflictInc` — `txConflict`: `+inc_val · sim` (Example 3).
/// * `SuspendDecay` — `suspendTx`: `−decay_val · (1 − sim)` (Example 2).
/// * `WaitJustified` — `commitTx`, the suspended enemy *would* have
///   conflicted: `+inc_val · sim` (Example 4).
/// * `WaitUnjustified` — `commitTx`, the wait was for nothing:
///   `−dec_val · (1 − sim)` (Example 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfKind {
    /// Conflict-driven increase, weighted by pairwise similarity.
    ConflictInc,
    /// Suspension-driven decay, weighted by dissimilarity.
    SuspendDecay,
    /// Commit-time reinforcement of a justified wait.
    WaitJustified,
    /// Commit-time decay of an unjustified wait.
    WaitUnjustified,
}

impl ConfKind {
    /// Every update rule.
    pub const ALL: [ConfKind; 4] = [
        ConfKind::ConflictInc,
        ConfKind::SuspendDecay,
        ConfKind::WaitJustified,
        ConfKind::WaitUnjustified,
    ];

    /// Stable lowercase label, used in exports.
    pub fn label(self) -> &'static str {
        match self {
            ConfKind::ConflictInc => "conflict_inc",
            ConfKind::SuspendDecay => "suspend_decay",
            ConfKind::WaitJustified => "wait_justified",
            ConfKind::WaitUnjustified => "wait_unjustified",
        }
    }

    /// Inverse of [`ConfKind::label`].
    pub fn from_label(s: &str) -> Option<ConfKind> {
        ConfKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

/// One trace event. The timestamp lives on the enclosing
/// [`crate::TraceRec`].
///
/// `Charge` timestamps are *interval starts*: the engine serialises the
/// charges of one scheduling step so that on any single CPU charge
/// intervals `[at, at + cycles)` never overlap — that is invariant I2 of
/// the audit. All other events are instants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// `cycles` charged to `bucket` for `thread` executing on `cpu`.
    Charge {
        /// Executing CPU.
        cpu: u32,
        /// Charged thread.
        thread: u32,
        /// Destination bucket.
        bucket: Bucket,
        /// Interval length in cycles (never zero; zero-cost operations
        /// emit nothing).
        cycles: u64,
    },
    /// Cycles moved between buckets after the fact (abort rollback
    /// refiling Tx work into Abort). `moved < requested` means the source
    /// bucket saturated — the audit flags it, because a correct
    /// accounting never asks for more than it previously charged.
    Refile {
        /// Thread whose buckets were adjusted.
        thread: u32,
        /// Source bucket.
        from: Bucket,
        /// Destination bucket.
        to: Bucket,
        /// Cycles the caller asked to move.
        requested: u64,
        /// Cycles actually moved.
        moved: u64,
    },
    /// The OS scheduler put a different thread on a CPU (same-thread
    /// re-arms emit nothing).
    ContextSwitch {
        /// The CPU switching.
        cpu: u32,
        /// Incoming thread.
        thread: u32,
        /// Switch cost in cycles, charged to the incoming thread's
        /// kernel bucket.
        cost: u64,
    },
    /// A transaction attempt entered the HTM (`XBEGIN` equivalent).
    TxBegin {
        /// Executing thread.
        thread: u32,
        /// Static transaction id.
        stx: u32,
        /// Abort count of this dynamic transaction so far.
        retries: u32,
    },
    /// A transactional access was NACKed by an enemy transaction.
    TxConflict {
        /// The requesting (losing) thread.
        thread: u32,
        /// Its static transaction id.
        stx: u32,
        /// The owning (winning) thread, or [`NO_TARGET`].
        enemy_thread: u32,
        /// The owner's static transaction id, or [`NO_TARGET`].
        enemy_stx: u32,
        /// `true` if the requester stalls and retries, `false` if this
        /// conflict aborts it.
        stalled: bool,
    },
    /// First NACK of a stall episode (counted once per episode, matching
    /// `TmStats::stalls`).
    TxStall {
        /// Stalling thread.
        thread: u32,
        /// Its static transaction id.
        stx: u32,
    },
    /// The scheduler suspended a transaction before it began, predicting
    /// a conflict with a running enemy (the paper's `suspendTx`).
    TxSuspend {
        /// Suspended thread.
        thread: u32,
        /// Its static transaction id.
        stx: u32,
        /// The predicted enemy's thread.
        target_thread: u32,
        /// The predicted enemy's static transaction id.
        target_stx: u32,
        /// `true` for yield-wait, `false` for spin-wait.
        yielding: bool,
    },
    /// A transaction attempt rolled back.
    TxAbort {
        /// Aborting thread.
        thread: u32,
        /// Its static transaction id.
        stx: u32,
        /// Log entries undone (drives the rollback cost).
        undo_lines: u32,
    },
    /// A transaction attempt committed.
    TxCommit {
        /// Committing thread.
        thread: u32,
        /// Its static transaction id.
        stx: u32,
        /// Aborts this dynamic transaction survived before committing.
        retries: u32,
        /// Size of its read/write set in cache lines.
        rw_lines: u32,
    },
    /// A contention manager's begin-time verdict, with its inputs.
    SchedDecision {
        /// Asking thread.
        thread: u32,
        /// Its static transaction id.
        stx: u32,
        /// The verdict.
        kind: DecisionKind,
        /// Predicted enemy thread ([`NO_TARGET`] when not applicable).
        target_thread: u32,
        /// Predicted enemy static transaction id ([`NO_TARGET`] when not
        /// applicable).
        target_stx: u32,
        /// Decision overhead in cycles (charged to Scheduling).
        cost: u64,
    },
    /// A confidence-table delta, with the inputs needed to recompute it.
    ConfUpdate {
        /// Update rule (determines the recomputation formula).
        kind: ConfKind,
        /// Row transaction (the one whose entry `conf[a][b]` moved).
        a_stx: u32,
        /// Column transaction.
        b_stx: u32,
        /// Similarity of `a` as an `f64` bit pattern.
        sim_a_bits: u64,
        /// Similarity of `b` as an `f64` bit pattern.
        sim_b_bits: u64,
        /// The rule's rate parameter (`inc_val` / `dec_val` /
        /// `decay_val`) as an `f64` bit pattern.
        param_bits: u64,
        /// The delta actually added to the table, as an `f64` bit
        /// pattern.
        applied_bits: u64,
    },
    /// A Bloom intersection-size estimate feeding eq. 4, before and
    /// after the clamp contract.
    BloomSample {
        /// Sampling thread.
        thread: u32,
        /// Its static transaction id.
        stx: u32,
        /// Raw estimate (may be slightly negative for disjoint sets) as
        /// an `f64` bit pattern.
        raw_bits: u64,
        /// Estimate after clamping at zero, as an `f64` bit pattern.
        clamped_bits: u64,
    },
    /// A fault-injection layer forced false-positive bits into a freshly
    /// built commit signature (Bloom corruption fault, DESIGN.md §9).
    /// Recorded so audited traces stay exact under injection: the
    /// corruption happens *before* the [`TraceEvent::BloomSample`] it
    /// perturbs, so I5/I6 recomputation still agrees bit for bit.
    FaultBloomCorrupt {
        /// Committing thread whose new signature was corrupted.
        thread: u32,
        /// Its static transaction id.
        stx: u32,
        /// Bit positions forced high (overlapping positions are
        /// idempotent, so fewer *new* bits may have appeared).
        bits: u32,
    },
    /// A transaction touched a conflict-detection shard for the first
    /// time in this attempt (sharded platforms only, `shards > 1`).
    /// Emitted at most once per shard per attempt; the set of shards
    /// named between a [`TraceEvent::TxBegin`] and its commit is exactly
    /// the set the transaction accessed, which invariant I8 checks
    /// against the matching [`TraceEvent::CrossShardCommit`].
    ShardTouch {
        /// Accessing thread.
        thread: u32,
        /// Its static transaction id.
        stx: u32,
        /// The shard first touched by this access.
        shard: u32,
    },
    /// A committing transaction spanned multiple conflict-detection
    /// shards and paid the cross-shard coordination cost (sharded
    /// platforms only). Emitted before the matching
    /// [`TraceEvent::TxCommit`], while the attempt is still open.
    CrossShardCommit {
        /// Committing thread.
        thread: u32,
        /// Its static transaction id.
        stx: u32,
        /// Distinct shards the attempt touched (always ≥ 2).
        shards: u32,
        /// Extra commit cycles charged: `cross_shard_hop · (shards − 1)`,
        /// folded into the commit's Tx-bucket charge.
        cost: u64,
    },
    /// An open-system transaction was fetched from its thread's arrival
    /// queue (open-system runs only; batch runs never emit this).
    /// `arrival` is the cycle the transaction *entered* the queue — the
    /// anchor of invariant I9: the next [`TraceEvent::TxBegin`] on this
    /// thread must not precede it, and the sojourn (commit − arrival) is
    /// non-negative.
    TxArrival {
        /// Fetching thread.
        thread: u32,
        /// Static transaction id of the fetched instance.
        stx: u32,
        /// Cycle the transaction arrived (entered the queue). Never
        /// after the fetch instant on the enclosing record.
        arrival: u64,
    },
    /// Arrival-queue depth observed at a fetch: transactions already due
    /// but still queued behind the one just fetched (open-system runs
    /// only). Emitted immediately after the matching
    /// [`TraceEvent::TxArrival`].
    QueueDepth {
        /// Observing thread.
        thread: u32,
        /// Due-but-queued arrivals behind the fetched transaction.
        depth: u64,
    },
    /// A fault-injection layer rewrote the confidence table mid-run
    /// (poisoning fault, DESIGN.md §9).
    FaultConfPoison {
        /// Thread whose commit triggered the poisoning.
        thread: u32,
        /// `true` saturates every allocated entry to a large constant,
        /// `false` resets them all to zero.
        saturate: bool,
        /// Table entries rewritten.
        entries: u64,
    },
    /// A bounded-signature access was denied by a Bloom intersection that
    /// the exact line table *dis*confirms (capacity-limited detection,
    /// DESIGN.md §13): the signatures overlapped, the real sets did not.
    /// The false positive is a real abort — the requester rolls back —
    /// which is exactly the noisy-oracle regime the scheduler must
    /// survive. Invariant I10 recomputes `true_conflicts` from the
    /// ground-truth sets and requires it to be zero.
    FalsePositiveConflict {
        /// The requesting (aborting) thread.
        thread: u32,
        /// Its static transaction id.
        stx: u32,
        /// The thread whose signature collided with the access.
        enemy_thread: u32,
        /// The signature owner's static transaction id.
        enemy_stx: u32,
        /// Genuinely conflicting lines for the denied access, recomputed
        /// from the exact line table at emission. Always 0 — a non-zero
        /// value means a real conflict was mislabeled, and I10 rejects
        /// the trace.
        true_conflicts: u32,
    },
    /// A bounded-signature transaction tried to track one address more
    /// than its hardware `capacity` allows and aborted on overflow
    /// (capacity-limited detection, DESIGN.md §13). Invariant I10
    /// requires `tracked > capacity`: the recorded set size must actually
    /// exceed the configured bound. The retry runs in the software
    /// fallback with exact tracking, so the instance still commits.
    CapacityAbort {
        /// The overflowing thread.
        thread: u32,
        /// Its static transaction id.
        stx: u32,
        /// Distinct addresses the attempt would have had to track,
        /// including the one that overflowed (always `capacity + 1`).
        tracked: u32,
        /// The configured hardware tracking bound (always ≥ 1).
        capacity: u32,
    },
    /// A window-based greedy contention manager moved a thread into its
    /// next execution window and drew the window's randomized priority
    /// (DESIGN.md §14). Invariant I11 requires the run header to declare
    /// a window seed and recomputes `priority` as
    /// `window_priority(seed, thread, window)` bit-for-bit; per-thread
    /// windows are strictly increasing, and no advance happens while
    /// that thread's transaction attempt is open.
    WindowAdvance {
        /// The advancing thread.
        thread: u32,
        /// The window just entered (threads start in window 0, so the
        /// first advance announces window 1).
        window: u64,
        /// The priority drawn for this window, higher wins conflicts.
        priority: u64,
    },
}

impl TraceEvent {
    /// Stable snake_case name of the variant, used as the JSONL `ev` key.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Charge { .. } => "charge",
            TraceEvent::Refile { .. } => "refile",
            TraceEvent::ContextSwitch { .. } => "context_switch",
            TraceEvent::TxBegin { .. } => "tx_begin",
            TraceEvent::TxConflict { .. } => "tx_conflict",
            TraceEvent::TxStall { .. } => "tx_stall",
            TraceEvent::TxSuspend { .. } => "tx_suspend",
            TraceEvent::TxAbort { .. } => "tx_abort",
            TraceEvent::TxCommit { .. } => "tx_commit",
            TraceEvent::SchedDecision { .. } => "sched_decision",
            TraceEvent::ConfUpdate { .. } => "conf_update",
            TraceEvent::BloomSample { .. } => "bloom_sample",
            TraceEvent::ShardTouch { .. } => "shard_touch",
            TraceEvent::CrossShardCommit { .. } => "cross_shard_commit",
            TraceEvent::FaultBloomCorrupt { .. } => "fault_bloom_corrupt",
            TraceEvent::TxArrival { .. } => "tx_arrival",
            TraceEvent::QueueDepth { .. } => "queue_depth",
            TraceEvent::FaultConfPoison { .. } => "fault_conf_poison",
            TraceEvent::FalsePositiveConflict { .. } => "false_positive_conflict",
            TraceEvent::CapacityAbort { .. } => "capacity_abort",
            TraceEvent::WindowAdvance { .. } => "window_advance",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_roundtrip() {
        for (i, b) in Bucket::ALL.into_iter().enumerate() {
            assert_eq!(b.index(), i);
            assert_eq!(Bucket::from_index(i), Some(b));
            assert_eq!(Bucket::from_label(b.label()), Some(b));
        }
        assert_eq!(Bucket::from_index(5), None);
        assert_eq!(Bucket::from_label("bogus"), None);
    }

    #[test]
    fn decision_and_conf_labels_roundtrip() {
        for d in DecisionKind::ALL {
            assert_eq!(DecisionKind::from_label(d.label()), Some(d));
        }
        for k in ConfKind::ALL {
            assert_eq!(ConfKind::from_label(k.label()), Some(k));
        }
        assert_eq!(DecisionKind::from_label("bogus"), None);
        assert_eq!(ConfKind::from_label("bogus"), None);
    }
}
