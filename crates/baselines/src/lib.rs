//! Baseline contention managers the paper compares BFGTS against.
//!
//! * [`BackoffCm`] — reactive randomised exponential backoff, the
//!   "do-nothing-clever" baseline every HTM ships with.
//! * [`AtsCm`] — *Adaptive Transaction Scheduling* (Yoo & Lee, SPAA'08):
//!   a per-thread conflict-pressure moving average; when pressure exceeds
//!   a threshold, transactions serialise on one central queue.
//! * [`PtsCm`] — *Proactive Transaction Scheduling* (Blake et al.,
//!   MICRO'09): a global dTxID×dTxID conflict-confidence graph consulted
//!   by a software scan at every transaction begin, updated at commit by
//!   intersecting saved Bloom-filter read/write sets.
//! * [`PolkaCm`] — investment-scaled reactive backoff in the spirit of
//!   Scherer & Scott's best all-round manager (paper §2).
//! * [`StallCm`] — stall-on-abort (Zilles & Baugh / Ansari et al.):
//!   a retry waits out the specific transaction it lost to.
//! * [`WindowGreedyCm`] — window-based randomized greedy (Sharma,
//!   Estrade & Busch, arXiv:1002.4182): per-window randomized priorities,
//!   the lower-priority side of a conflict yields.
//! * [`BalancedGreedyCm`] — balanced-workload greedy (Sharma & Busch,
//!   arXiv:1009.0056): conflicts won by the thread with more remaining
//!   work, randomized-priority tie-break.
//!
//! All of these implement [`bfgts_htm::ContentionManager`]; their modelled
//! cycle costs reflect their software footprint the way the paper's
//! Figure 5 breakdown does (ATS pays kernel time for its queue, PTS pays
//! scheduling time for its scans and its very large graph).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ats;
mod backoff;
mod balanced_greedy;
mod polka;
mod pts;
mod stall;
mod window_greedy;

pub use ats::AtsCm;
pub use backoff::BackoffCm;
pub use balanced_greedy::{BalancedGreedyCm, BalancedGreedyConfig};
pub use polka::PolkaCm;
pub use pts::PtsCm;
pub use stall::StallCm;
pub use window_greedy::{WindowGreedyCm, WindowGreedyConfig};
