//! Umbrella crate for the BFGTS reproduction: re-exports the workspace
//! crates and hosts the runnable examples (`examples/`) and cross-crate
//! integration tests (`tests/`).
//!
//! Start with the `quickstart` example or the crate docs of
//! [`bfgts_core`].

pub use bfgts_baselines as baselines;
pub use bfgts_bloomsig as bloomsig;
pub use bfgts_core as core;
pub use bfgts_htm as htm;
pub use bfgts_sim as sim;
pub use bfgts_workloads as workloads;

/// Compiles the README's Rust blocks as doctests, so `cargo test` fails
/// when the quickstart's API drifts.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
