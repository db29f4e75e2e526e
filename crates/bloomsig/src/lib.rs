//! Bloom filter signatures and the set-size estimation algebra used by
//! *Bloom Filter Guided Transaction Scheduling* (BFGTS, HPCA 2011).
//!
//! A transactional memory system summarises the set of cache lines a
//! transaction has read or written as a *signature*. BFGTS goes further: it
//! manipulates signatures algebraically to estimate how many addresses two
//! read/write sets have in common, which drives its *similarity* metric
//! (paper §3.2, equations 2–4).
//!
//! This crate provides:
//!
//! * [`BloomFilter`] — a fixed-size, `k`-hash Bloom filter over 64-bit keys
//!   with union, bit-count and intersection queries.
//! * [`estimate`] — the set-size estimation equations of Michael et al.
//!   (eqs. 2 and 3 of the paper) and the similarity metric (eq. 4).
//! * [`PerfectSignature`] — an exact-set signature (a sorted key list),
//!   which the paper's `BFGTS-NoOverhead` configuration uses in place of
//!   Bloom filters.
//! * [`SignatureKind`] — which of the two a scheduler configuration
//!   selects.
//!
//! # Example
//!
//! ```
//! use bfgts_bloomsig::BloomFilter;
//!
//! let mut a = BloomFilter::new(1024, 4);
//! let mut b = BloomFilter::new(1024, 4);
//! for addr in 0..100u64 {
//!     a.insert(addr);
//!     b.insert(addr + 50); // 50 addresses overlap
//! }
//! let est = a.intersection_estimate(&b);
//! assert!((est - 50.0).abs() < 15.0, "estimate {est} too far from 50");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimate;
mod filter;
mod hash;
mod perfect;
mod signature;

pub use estimate::{
    intersection_size, intersection_size_clamped, set_size, similarity, EstimateParams,
};
pub use filter::BloomFilter;
pub use perfect::PerfectSignature;
pub use signature::SignatureKind;
