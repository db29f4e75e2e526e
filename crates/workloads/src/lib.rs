//! STAMP-like synthetic transactional workloads.
//!
//! The paper evaluates on the STAMP benchmark suite (Cao Minh et al.,
//! IISWC'08). Distributing and compiling STAMP's C sources inside a
//! full-system simulator is out of scope for this reproduction; what the
//! schedulers under test actually *observe* is the address stream each
//! benchmark generates — which transactions run, what they read and
//! write, how much their sets overlap across threads (the conflict
//! graph) and across time (similarity).
//!
//! This crate generates synthetic workloads that reproduce those three
//! statistics per benchmark, calibrated against the paper's Table 1
//! (conflict graph + measured similarity per static transaction) and
//! Table 4 (contention under a plain backoff manager):
//!
//! * each static transaction is a [`TxClass`] mixing three kinds of
//!   accesses: **private-hot** lines a thread reuses on every execution
//!   (similarity without conflicts), **shared-hot** picks from a small
//!   global pool (persistent conflicts: queue heads, shared counters),
//!   and **random** picks from a large region (transient conflicts:
//!   hash-table inserts);
//! * the [`presets`] module defines the seven evaluated benchmarks
//!   (`delaunay`, `genome`, `kmeans`, `vacation`, `intruder`, `ssca2`,
//!   `labyrinth`).
//!
//! # Example
//!
//! ```
//! use bfgts_workloads::presets;
//!
//! let spec = presets::intruder();
//! let sources = spec.sources(64);
//! assert_eq!(sources.len(), 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversarial;
mod arrivals;
mod class;
mod conflict;
pub mod presets;
mod source;
mod spec;

pub use adversarial::{AdversarialSource, AdversarialSpec};
pub use arrivals::{open_sources, ArrivalProcess, ArrivalSpec, OpenSource};
pub use class::{RandomRegion, Region, TxClass, MAX_CLASS_ACCESSES, MAX_STX};
pub use conflict::{drain_canonical, ConflictGraph, LowerBound, TxNode};
pub use source::WorkloadSource;
pub use spec::{BenchmarkSpec, ExpectedProfile};
