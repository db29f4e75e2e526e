//! Which signature representation a scheduler configuration selects.

/// Which signature representation a scheduler configuration uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignatureKind {
    /// Bloom filter of the given size in bits (the paper sweeps 512–8192).
    Bloom {
        /// Filter size in bits.
        bits: u32,
    },
    /// Exact sets (the `BFGTS-NoOverhead` configuration).
    Perfect,
}
