//! LogTM-style hardware transactional memory model.
//!
//! The BFGTS paper evaluates its contention managers on a LogTM baseline
//! (Moore et al., HPCA'06): eager version management (an undo log) and
//! eager conflict detection (conflicts surface at the offending memory
//! access). This crate models that substrate on top of the
//! [`bfgts_sim`] discrete-event engine:
//!
//! * [`TmState`] tracks per-thread read/write sets with *perfect*
//!   (exact-set) conflict detection, the hardware CPU table that BFGTS's
//!   predictor snoops, the waits-for graph used for deadlock avoidance,
//!   and run statistics (commits, aborts, conflict graph, measured
//!   similarity — the paper's Tables 1 and 4).
//! * [`ContentionManager`] is the interface every scheduler implements:
//!   `on_begin` (the paper's `TX_BEGIN` prediction point), `on_conflict_abort`
//!   (the `txConflict` hook), and `on_commit` (the `commitTx` hook). All
//!   hooks return the cycle cost of their bookkeeping so the simulator can
//!   charge it to the right accounting bucket.
//! * [`TxThreadLogic`] drives a stream of transactions from a
//!   [`TxSource`] through the full lifecycle: non-transactional work →
//!   begin (with scheduling decision) → accesses with conflict
//!   stall/abort arbitration → commit, with LogTM's requester-stalls
//!   policy and timestamp-based cycle breaking.
//! * [`run_workload`] wires sources, a manager and the engine together
//!   and returns a [`TmRunReport`].
//!
//! # Example
//!
//! ```
//! use bfgts_htm::{run_workload, NullCm, ScriptSource, TmRunConfig, TxInstance, STxId};
//!
//! // Two threads each run one small transaction over disjoint lines.
//! let mk = |base: u64| {
//!     ScriptSource::new(vec![TxInstance::writer_over(STxId(0), base..base + 4, 100)])
//! };
//! let cfg = TmRunConfig::new(2, 2).seed(1);
//! let report = run_workload(&cfg, vec![mk(0), mk(100)], Box::new(NullCm));
//! assert_eq!(report.stats.commits(), 2);
//! assert_eq!(report.stats.aborts(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cm;
mod dtx_map;
mod harness;
pub mod history;
pub mod ids;
mod line_set;
mod lines;
pub mod state;
pub mod stats;
mod thread;
pub mod txn;

pub use cm::{
    AbortPlan, BeginDecision, BeginOutcome, BeginQuery, CommitOutcome, CommitRecord, ConflictEvent,
    ContentionManager, NullCm,
};
pub use dtx_map::DtxMap;
pub use harness::{
    run_workload, try_run_workload, LatencyDigest, TmRunConfig, TmRunReport, DEFAULT_RUN_SEED,
    PAPER_CPUS, PAPER_THREADS, SMALL_CPUS, SMALL_THREADS,
};
pub use history::{AttemptId, History, HistoryEvent, SerializabilityResult};
pub use ids::{DTxId, LineAddr, STxId};
pub use line_set::LineSet;
pub use state::{AccessResult, Detection, TmState, TmWorld, SHARD_BLOCK_LINES};
pub use stats::TmStats;
pub use thread::{TxThreadConfig, TxThreadLogic};
pub use txn::{Access, ScriptSource, TxInstance, TxPoll, TxSource};
