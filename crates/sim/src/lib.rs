//! Deterministic discrete-event multicore simulator substrate.
//!
//! The BFGTS paper evaluates contention managers on the M5 full-system
//! simulator: 16 single-IPC Alpha cores at 2 GHz running a modified Linux
//! kernel, with 64 application threads (four per core). This crate is the
//! reproduction's stand-in for that substrate: a single-threaded,
//! bit-deterministic discrete-event simulator that models
//!
//! * **CPUs** with per-CPU run queues and an OS scheduler (round-robin with
//!   a time quantum, `yield`, block/wake) so thread overcommit behaves like
//!   the paper's pthread environment,
//! * a **cost model** carrying the latency parameters of the paper's
//!   Table 2 (cache/memory latencies, `popcnt`/`fyl2x` instruction costs,
//!   kernel operation costs), and
//! * **cycle-bucket accounting** (non-transactional / kernel /
//!   transactional / abort / scheduling) matching the runtime breakdown of
//!   the paper's Figure 5.
//!
//! Thread behaviour is supplied by the caller through the [`ThreadLogic`]
//! trait, which is generic over a `World` — shared state such as a
//! transactional memory model (see the `bfgts-htm` crate). The engine calls
//! `step` each time a thread is scheduled and executes the returned
//! [`Action`].
//!
//! # Example: two threads ping-pong on one CPU
//!
//! ```
//! use bfgts_sim::{Action, Bucket, Engine, EngineConfig, ThreadCtx, ThreadLogic};
//!
//! struct Worker { remaining: u32 }
//! impl ThreadLogic<()> for Worker {
//!     fn step(&mut self, _world: &mut (), _ctx: &mut ThreadCtx) -> Action {
//!         if self.remaining == 0 {
//!             return Action::Finish;
//!         }
//!         self.remaining -= 1;
//!         Action::work(100, Bucket::NonTx)
//!     }
//! }
//!
//! let mut engine = Engine::new(EngineConfig::with_cpus(1), ());
//! engine.spawn(Box::new(Worker { remaining: 3 }));
//! engine.spawn(Box::new(Worker { remaining: 3 }));
//! let report = engine.run();
//! assert_eq!(report.total().get(Bucket::NonTx), 600);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;
pub mod cost;
mod engine;
pub mod equeue;
pub mod ids;
pub mod rng;
pub mod time;

pub use accounting::TimeBuckets;
pub use cost::CostModel;
pub use engine::{Action, Engine, EngineConfig, RunError, RunReport, ThreadCtx, ThreadLogic};
pub use equeue::EventQueueKind;
pub use ids::{CpuId, ThreadId};
pub use rng::SimRng;
pub use time::Cycle;
// Re-exported so downstream crates can name cycle buckets and configure
// tracing without a direct `bfgts-trace` dependency.
pub use bfgts_trace::{
    window_priority, Bucket, ConfKind, DecisionKind, TraceEvent, TraceMode, TraceRecording,
    TraceSink, NO_TARGET,
};
