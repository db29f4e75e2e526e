//! Runtime-selected signature representation (Bloom vs perfect).

use bfgts_bloomsig::{BloomFilter, PerfectSignature, SignatureKind};
use bfgts_htm::LineAddr;

/// A read/write-set signature in whichever representation the
/// configuration selected.
// The Bloom variant embeds up to 2048 bits inline so per-transaction
// signature construction never heap-allocates; boxing it to shrink the
// enum would reintroduce exactly that allocation.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Sig {
    Bloom(BloomFilter),
    Perfect(PerfectSignature),
}

impl Sig {
    /// The signature of `set`, in any order and possibly repeating lines.
    pub(crate) fn from_set(
        kind: SignatureKind,
        hashes: u32,
        set: impl IntoIterator<Item = LineAddr>,
    ) -> Self {
        let keys = set.into_iter().map(LineAddr::get);
        match kind {
            SignatureKind::Bloom { bits } => {
                let mut filter = BloomFilter::new(bits, hashes);
                keys.for_each(|key| filter.insert(key));
                Sig::Bloom(filter)
            }
            SignatureKind::Perfect => Sig::Perfect(keys.collect()),
        }
    }

    /// Estimated `|self ∩ other|` (exact for perfect signatures).
    ///
    /// Mismatched representations cannot occur in practice (one manager,
    /// one configuration); we treat it as a logic error.
    pub(crate) fn intersection_estimate(&self, other: &Sig) -> f64 {
        match (self, other) {
            (Sig::Bloom(a), Sig::Bloom(b)) => a.intersection_estimate(b),
            (Sig::Perfect(a), Sig::Perfect(b)) => a.intersection_estimate(b),
            // detlint: allow(P002) -- documented logic-error guard: one manager keeps every signature in one representation
            _ => panic!("signature representation mismatch"),
        }
    }

    /// [`Sig::intersection_estimate`] clamped at zero: the form required
    /// wherever the estimate is consumed as a set size (similarity
    /// averages, confidence weights). The raw estimate of disjoint Bloom
    /// signatures is slightly negative, and a negative "size" in a
    /// running average poisons every later update.
    pub(crate) fn intersection_estimate_clamped(&self, other: &Sig) -> f64 {
        self.intersection_estimate(other).max(0.0)
    }

    /// Whether the signatures (may) overlap.
    pub(crate) fn intersects(&self, other: &Sig) -> bool {
        match (self, other) {
            (Sig::Bloom(a), Sig::Bloom(b)) => a.intersects(b),
            (Sig::Perfect(a), Sig::Perfect(b)) => a.intersects(b),
            // detlint: allow(P002) -- documented logic-error guard: one manager keeps every signature in one representation
            _ => panic!("signature representation mismatch"),
        }
    }

    /// 64-bit words per filter (0 for perfect signatures, which model the
    /// idealised no-overhead configuration).
    pub(crate) fn word_count(&self) -> u64 {
        match self {
            Sig::Bloom(b) => b.word_count() as u64,
            Sig::Perfect(_) => 0,
        }
    }

    /// Forces `count` randomly drawn bit positions high — the Bloom
    /// corruption fault (DESIGN.md §9) — and appends them to `forced` in
    /// draw order. Returns the number of positions forced. Perfect
    /// signatures are exact sets with no bit array to corrupt, so they
    /// draw nothing and return 0, and the caller emits no fault event (a
    /// no-op fault must not claim it happened).
    pub(crate) fn force_bits(
        &mut self,
        rng: &mut bfgts_sim::SimRng,
        count: u32,
        forced: &mut Vec<u32>,
    ) -> u32 {
        match self {
            Sig::Bloom(b) => {
                let bits = b.bits() as u64;
                for _ in 0..count {
                    let pos = rng.gen_range(bits) as u32;
                    b.set_bit(pos);
                    forced.push(pos);
                }
                count
            }
            Sig::Perfect(_) => 0,
        }
    }

    /// Sets `positions` high again: replays bits [`Sig::force_bits`]
    /// forced. Perfect signatures never had any.
    pub(crate) fn set_bits(&mut self, positions: &[u32]) {
        if let Sig::Bloom(b) = self {
            for &pos in positions {
                b.set_bit(pos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(v: &[u64]) -> Vec<LineAddr> {
        v.iter().map(|&x| LineAddr(x)).collect()
    }

    #[test]
    fn bloom_roundtrip() {
        let kind = SignatureKind::Bloom { bits: 1024 };
        let a = Sig::from_set(kind, 4, addrs(&[1, 2, 3]));
        let b = Sig::from_set(kind, 4, addrs(&[3, 4, 5]));
        assert!(a.intersects(&b));
        assert!(a.word_count() > 0);
    }

    #[test]
    fn perfect_is_exact() {
        let kind = SignatureKind::Perfect;
        let a = Sig::from_set(kind, 4, addrs(&[1, 2, 3]));
        let b = Sig::from_set(kind, 4, addrs(&[3, 4, 5]));
        assert_eq!(a.intersection_estimate(&b), 1.0);
        assert_eq!(a.word_count(), 0);
    }

    #[test]
    fn disjoint_perfect_does_not_intersect() {
        let kind = SignatureKind::Perfect;
        let a = Sig::from_set(kind, 4, addrs(&[1]));
        let b = Sig::from_set(kind, 4, addrs(&[2]));
        assert!(!a.intersects(&b));
    }

    #[test]
    fn forced_bits_inflate_estimates_between_corrupted_sigs() {
        use bfgts_sim::SimRng;
        // Model what the manager actually does: consecutive commit
        // signatures each get bits forced from the SAME fault stream, so
        // they share forced bits — disjoint sets start looking
        // overlapping. (One-sided corruption alone *deflates* the
        // inclusion–exclusion estimate: the union estimate grows faster
        // than the smaller set's.)
        let kind = SignatureKind::Bloom { bits: 512 };
        let mut a = Sig::from_set(kind, 4, addrs(&[1, 2, 3]));
        let mut b = Sig::from_set(kind, 4, addrs(&[100, 200, 300]));
        let clean = a.intersection_estimate(&b);
        let mut rng = SimRng::seed_from(11);
        let mut forced = Vec::new();
        assert_eq!(a.force_bits(&mut rng, 96, &mut forced), 96);
        let mut rng = SimRng::seed_from(11);
        assert_eq!(b.force_bits(&mut rng, 96, &mut Vec::new()), 96);
        let corrupted = a.intersection_estimate(&b);
        assert!(
            corrupted > clean,
            "shared forced bits must inflate the estimate ({clean} -> {corrupted})"
        );

        // Replaying the recorded positions rebuilds the corrupted filter.
        let mut replayed = Sig::from_set(kind, 4, addrs(&[1, 2, 3]));
        replayed.set_bits(&forced);
        assert_eq!(replayed, a);

        let mut p = Sig::from_set(SignatureKind::Perfect, 4, addrs(&[1]));
        let mut none = Vec::new();
        assert_eq!(
            p.force_bits(&mut rng, 64, &mut none),
            0,
            "perfect sigs are immune"
        );
        assert!(none.is_empty());
    }

    #[test]
    #[should_panic(expected = "representation mismatch")]
    fn mixed_representations_panic() {
        let a = Sig::from_set(SignatureKind::Perfect, 4, addrs(&[1]));
        let b = Sig::from_set(SignatureKind::Bloom { bits: 512 }, 4, addrs(&[1]));
        let _ = a.intersects(&b);
    }
}
