//! Hash functions for Bloom filter indexing.
//!
//! Uses the classic double-hashing scheme of Kirsch & Mitzenmacher: two
//! independent 64-bit mixes `h1`, `h2` generate the `k` probe positions as
//! `h1 + i * h2`. Hardware signature implementations (Sanchez et al.,
//! MICRO'07) use the same idea with H3/PBX hash matrices; a multiplicative
//! mix is an adequate software stand-in with equivalent distribution
//! quality for our purposes.

/// First 64-bit mixer (SplitMix64 finalizer).
#[inline]
pub(crate) fn mix1(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Second 64-bit mixer (Murmur3 finalizer with distinct constants).
#[inline]
pub(crate) fn mix2(key: u64) -> u64 {
    let mut z = key ^ 0xff51_afd7_ed55_8ccd;
    z = z.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^= z >> 33;
    z = z.wrapping_mul(0xff51_afd7_ed55_8ccd);
    z ^ (z >> 33)
}

/// Iterator over the `k` bit positions for `key` in a filter of `m` bits.
#[inline]
pub(crate) fn probe_positions(key: u64, k: u32, m: u32) -> impl Iterator<Item = u32> {
    let h1 = mix1(key);
    // Force h2 odd so successive probes cycle through distinct positions
    // even when m is a power of two.
    let h2 = mix2(key) | 1;
    let m = u64::from(m);
    // Every evaluated filter size is a power of two, where masking gives
    // `% m` without a 64-bit division.
    let pow2 = m.is_power_of_two();
    (0..k as u64).map(move |i| {
        let h = h1.wrapping_add(i.wrapping_mul(h2));
        (if pow2 { h & (m - 1) } else { h % m }) as u32
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixers_differ() {
        for key in [0u64, 1, 42, u64::MAX] {
            assert_ne!(mix1(key), mix2(key), "mixers collide for {key}");
        }
    }

    #[test]
    fn mix1_is_deterministic() {
        assert_eq!(mix1(12345), mix1(12345));
        assert_eq!(mix2(12345), mix2(12345));
    }

    #[test]
    fn probes_in_range() {
        for key in 0..1000u64 {
            for pos in probe_positions(key, 8, 513) {
                assert!(pos < 513);
            }
        }
    }

    #[test]
    fn masking_matches_the_modulo_for_power_of_two_sizes() {
        for m in [64u32, 320, 512, 2048, 8192] {
            for key in 0..1000u64 {
                let (h1, h2) = (mix1(key), mix2(key) | 1);
                let reference: Vec<u32> = (0..4u64)
                    .map(|i| (h1.wrapping_add(i.wrapping_mul(h2)) % u64::from(m)) as u32)
                    .collect();
                let probes: Vec<u32> = probe_positions(key, 4, m).collect();
                assert_eq!(probes, reference, "key {key} in {m} bits");
            }
        }
    }

    #[test]
    fn probes_count_matches_k() {
        assert_eq!(probe_positions(7, 4, 512).count(), 4);
        assert_eq!(probe_positions(7, 1, 512).count(), 1);
    }

    #[test]
    fn probes_mostly_distinct_for_pow2_m() {
        // With h2 forced odd, the k positions for one key should rarely
        // collide for power-of-two m.
        let mut collisions = 0;
        for key in 0..1000u64 {
            let v: Vec<u32> = probe_positions(key, 4, 1024).collect();
            let mut s = v.clone();
            s.sort_unstable();
            s.dedup();
            if s.len() != v.len() {
                collisions += 1;
            }
        }
        assert!(
            collisions < 20,
            "too many intra-key collisions: {collisions}"
        );
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let m = 256u32;
        let mut counts = vec![0u32; m as usize];
        for key in 0..10_000u64 {
            for pos in probe_positions(key, 2, m) {
                counts[pos as usize] += 1;
            }
        }
        let expected = 10_000.0 * 2.0 / m as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > expected * 0.5 && (c as f64) < expected * 1.5,
                "bucket {i} count {c} far from expected {expected}"
            );
        }
    }
}
