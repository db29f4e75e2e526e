//! BFGTS configuration.

use bfgts_bloomsig::SignatureKind;

/// Which of the paper's four evaluated BFGTS flavours to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BfgtsVariant {
    /// All scheduling operations in software, including the begin-time
    /// CPU-table scan.
    Sw,
    /// The begin-time scan runs on the per-CPU hardware predictor with
    /// its dedicated confidence cache (§4.1); commit bookkeeping stays in
    /// software.
    Hw,
    /// `Hw` gated by ATS-style conflict pressure (§4.3): below the
    /// pressure threshold neither prediction nor commit bookkeeping runs.
    HwBackoff,
    /// Idealised best case (§5.1): every scheduling operation completes
    /// in one cycle and similarity is computed from perfect (exact-set)
    /// signatures.
    NoOverhead,
}

impl BfgtsVariant {
    /// Report label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            BfgtsVariant::Sw => "BFGTS-SW",
            BfgtsVariant::Hw => "BFGTS-HW",
            BfgtsVariant::HwBackoff => "BFGTS-HW/Backoff",
            BfgtsVariant::NoOverhead => "BFGTS-NoOverhead",
        }
    }
}

/// The parameters of a BFGTS manager that experiments vary.
///
/// Defaults reflect the paper's evaluation: 2048-bit Bloom filters and
/// similarity updates for small transactions every 20 commits. The
/// parameters the paper holds fixed (hash count, confidence rates,
/// thresholds, smoothing) are constants beside the code that reads them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BfgtsConfig {
    /// Which flavour to run.
    pub variant: BfgtsVariant,
    /// Signature representation used for similarity estimation.
    pub signature: SignatureKind,
    /// Small transactions update similarity once every this many commits
    /// (paper: 20).
    pub small_tx_interval: u32,
    /// When false, confidence updates ignore similarity and use the raw
    /// confidence rates (ablation of the paper's central idea;
    /// PTS-style updates).
    pub similarity_weighting: bool,
    /// Bound the confidence table to `n`×`n` slots with sTxID hashing
    /// (the paper's §4.2.1 future-work *aliasing* scheme for programs
    /// with very many static transactions). `None` (the default) grows
    /// the exact table as the paper evaluates it. Scenario parsing
    /// accepts 1 to `MAX_STX` slots (the unaliased table's own bound), so
    /// an untrusted document cannot ask for a slot-count-squared table.
    pub alias_slots: Option<u32>,
}

impl BfgtsConfig {
    /// The paper-default configuration of `variant`: perfect signatures
    /// for the idealised variant, 2048-bit Bloom filters otherwise.
    pub fn new(variant: BfgtsVariant) -> Self {
        Self {
            variant,
            signature: match variant {
                BfgtsVariant::NoOverhead => SignatureKind::Perfect,
                _ => SignatureKind::Bloom { bits: 2048 },
            },
            small_tx_interval: 20,
            similarity_weighting: true,
            alias_slots: None,
        }
    }

    /// The all-software variant.
    pub fn sw() -> Self {
        Self::new(BfgtsVariant::Sw)
    }

    /// The hardware-accelerated variant.
    pub fn hw() -> Self {
        Self::new(BfgtsVariant::Hw)
    }

    /// The pressure-gated hybrid.
    pub fn hw_backoff() -> Self {
        Self::new(BfgtsVariant::HwBackoff)
    }

    /// The idealised zero-overhead variant (perfect signatures).
    pub fn no_overhead() -> Self {
        Self::new(BfgtsVariant::NoOverhead)
    }

    /// Sets the Bloom filter size in bits (the paper sweeps 512–8192).
    /// Ignored by `NoOverhead`, which uses perfect signatures.
    pub fn bloom_bits(mut self, bits: u32) -> Self {
        if self.variant != BfgtsVariant::NoOverhead {
            self.signature = SignatureKind::Bloom { bits };
        }
        self
    }

    /// Sets the small-transaction similarity update interval (§5.3.2).
    pub fn small_tx_interval(mut self, every: u32) -> Self {
        self.small_tx_interval = every;
        self
    }

    /// Disables similarity weighting (ablation).
    pub fn without_similarity_weighting(mut self) -> Self {
        self.similarity_weighting = false;
        self
    }

    /// Bounds the confidence table with sTxID aliasing (§4.2.1 future
    /// work).
    pub fn with_alias_slots(mut self, slots: u32) -> Self {
        self.alias_slots = Some(slots);
        self
    }

    /// Bloom filter size in bits, if the configuration uses Bloom
    /// signatures.
    pub fn bloom_bits_get(&self) -> Option<u32> {
        match self.signature {
            SignatureKind::Bloom { bits } => Some(bits),
            SignatureKind::Perfect => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_labels_match_paper() {
        assert_eq!(BfgtsVariant::Sw.label(), "BFGTS-SW");
        assert_eq!(BfgtsVariant::Hw.label(), "BFGTS-HW");
        assert_eq!(BfgtsVariant::HwBackoff.label(), "BFGTS-HW/Backoff");
        assert_eq!(BfgtsVariant::NoOverhead.label(), "BFGTS-NoOverhead");
    }

    #[test]
    fn no_overhead_uses_perfect_signatures() {
        let cfg = BfgtsConfig::no_overhead();
        assert_eq!(cfg.signature, SignatureKind::Perfect);
        // bloom_bits is a no-op for NoOverhead
        let cfg = cfg.bloom_bits(512);
        assert_eq!(cfg.signature, SignatureKind::Perfect);
        assert_eq!(cfg.bloom_bits_get(), None);
    }

    #[test]
    fn bloom_bits_builder() {
        let cfg = BfgtsConfig::hw().bloom_bits(8192);
        assert_eq!(cfg.bloom_bits_get(), Some(8192));
    }

    #[test]
    fn defaults_match_paper_parameters() {
        let cfg = BfgtsConfig::hw_backoff();
        assert_eq!(cfg.small_tx_interval, 20);
        assert_eq!(cfg.bloom_bits_get(), Some(2048));
        assert!(cfg.similarity_weighting);
    }

    #[test]
    fn ablation_builder() {
        let cfg = BfgtsConfig::hw().without_similarity_weighting();
        assert!(!cfg.similarity_weighting);
    }

    #[test]
    fn alias_builder() {
        assert_eq!(BfgtsConfig::hw().alias_slots, None);
        assert_eq!(BfgtsConfig::hw().with_alias_slots(8).alias_slots, Some(8));
    }
}
