//! Deterministic event tracing for the BFGTS simulation stack.
//!
//! The paper's evaluation (§5, Figure 5) rests on cycle-bucket
//! breakdowns — non-transactional / kernel / transactional / abort /
//! scheduling time per run. The simulator accumulates those buckets as it
//! goes, but an aggregate alone cannot be audited: a charge posted to the
//! wrong bucket, a cycle double-counted at a context switch, or a
//! subtraction silently saturating in release builds all produce
//! plausible-looking totals. This crate is the dynamic counterpart to the
//! workspace's static determinism lint (`detlint`): an event-level record
//! of *everything* that moves cycles or drives a scheduling decision,
//! plus an invariant checker ([`audit()`]) that replays the record and
//! proves the aggregates correct.
//!
//! Three pieces:
//!
//! * [`TraceEvent`] / [`TraceRec`] — typed events: cycle charges and
//!   bucket refiles, context switches, transaction lifecycle
//!   (begin/conflict/stall/suspend/abort/commit), contention-manager
//!   decisions with their confidence and similarity inputs, and Bloom
//!   intersection-estimate samples. Every floating-point input is carried
//!   as an IEEE-754 bit pattern (`u64`) so traces are byte-reproducible.
//!   The five Figure 5 buckets are this crate's [`Bucket`], which the
//!   simulator's accounting charges directly, so no emission site
//!   converts a bucket.
//! * [`TraceSink`] — the collector. Disabled it is a single `None` check
//!   per emission with the event constructor never run; enabled it is an
//!   unbounded or ring-buffered recorder. The simulation engine owns one
//!   and threads it through to thread logic and contention managers.
//! * [`audit()`] — replays a [`TraceRecording`] against the run's reported
//!   accounting and checks the invariants of DESIGN.md §8: bucket
//!   conservation, per-CPU non-overlap (busy + idle = makespan on every
//!   CPU), transaction lifecycle well-formedness (every abort preceded by
//!   a conflict), bit-exact confidence-update arithmetic (the paper's
//!   Examples 2–4 weighting) and the clamp contract on Bloom estimates.
//!
//! The crate is dependency-free and deterministic by construction: no
//! wall-clock, no hash-ordered containers, no I/O. Serialisation lives in
//! `bfgts-bench` (`trace_export`), which is the only layer that touches
//! files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
mod event;
mod sink;

pub use audit::{audit, window_priority, AuditInputs, AuditSummary, Violation};
pub use event::{Bucket, ConfKind, DecisionKind, TraceEvent, NO_TARGET};
pub use sink::{TraceMode, TraceRec, TraceRecording, TraceSink};
