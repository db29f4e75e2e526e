//! Property-based tests for the Bloom signature algebra, driven by the
//! deterministic case generator in `bfgts-testkit`.

use bfgts_bloomsig::{estimate, BloomFilter, EstimateParams, PerfectSignature};
use bfgts_testkit::{run_cases, Gen};
use std::collections::BTreeSet;

const CASES: u32 = 64;

fn filter_from(keys: &[u64], bits: u32) -> BloomFilter {
    let mut f = BloomFilter::new(bits, 4);
    for &k in keys {
        f.insert(k);
    }
    f
}

fn key_set(g: &mut Gen, lo: u64, hi: u64, max_len: usize) -> BTreeSet<u64> {
    let len = g.usize_in(0, max_len);
    let mut set = BTreeSet::new();
    while set.len() < len {
        set.insert(g.u64_in(lo, hi));
    }
    set
}

/// No false negatives, ever.
#[test]
fn prop_no_false_negatives() {
    run_cases("no_false_negatives", CASES, |g| {
        let keys = g.u64_vec(0, 200);
        let f = filter_from(&keys, 2048);
        for k in &keys {
            assert!(f.may_contain(*k));
        }
    });
}

/// Union is commutative and idempotent on the bit level.
#[test]
fn prop_union_commutative() {
    run_cases("union_commutative", CASES, |g| {
        let a = g.u64_vec(0, 100);
        let b = g.u64_vec(0, 100);
        let fa = filter_from(&a, 1024);
        let fb = filter_from(&b, 1024);
        assert_eq!(fa.union(&fb), fb.union(&fa));
        assert_eq!(fa.union(&fa), fa.clone());
    });
}

/// A union filter equals the filter of the concatenated key sets.
#[test]
fn prop_union_equals_bulk_insert() {
    run_cases("union_equals_bulk_insert", CASES, |g| {
        let a = g.u64_vec(0, 100);
        let b = g.u64_vec(0, 100);
        let fa = filter_from(&a, 1024);
        let fb = filter_from(&b, 1024);
        let mut both = a.clone();
        both.extend_from_slice(&b);
        assert_eq!(fa.union(&fb), filter_from(&both, 1024));
    });
}

/// If two key sets truly intersect, the filters must report intersection
/// (no false negatives on the intersect test).
#[test]
fn prop_intersects_has_no_false_negatives() {
    run_cases("intersects_no_false_negatives", CASES, |g| {
        let shared = g.u64_vec(1, 20);
        let mut ka = g.u64_vec(0, 50);
        ka.extend_from_slice(&shared);
        let mut kb = g.u64_vec(0, 50);
        kb.extend_from_slice(&shared);
        let fa = filter_from(&ka, 1024);
        let fb = filter_from(&kb, 1024);
        assert!(fa.intersects(&fb));
    });
}

/// Set-size estimates are monotone under insertion.
#[test]
fn prop_estimate_monotone() {
    run_cases("estimate_monotone", CASES, |g| {
        let keys = g.u64_vec(0, 300);
        let mut f = BloomFilter::new(4096, 4);
        let mut last = 0.0f64;
        for k in keys {
            f.insert(k);
            let est = f.estimate_len();
            assert!(est >= last - 1e-9, "estimate shrank: {est} < {last}");
            last = est;
        }
    });
}

/// The Bloom set-size estimate is within a tolerance of the true count for
/// moderately loaded filters.
#[test]
fn prop_estimate_accuracy() {
    run_cases("estimate_accuracy", CASES, |g| {
        let keys: Vec<u64> = key_set(g, 0, u64::MAX, 200).into_iter().collect();
        let f = filter_from(&keys, 8192);
        let est = f.estimate_len();
        let n = keys.len() as f64;
        // Loose statistical bound: estimation error grows with load; for
        // n<=200 on an 8192-bit filter the relative error stays small.
        assert!((est - n).abs() <= 5.0 + 0.1 * n, "est={est} n={n}");
    });
}

/// Intersection estimates roughly match true overlap for exact sets.
#[test]
fn prop_intersection_estimate_tracks_truth() {
    run_cases("intersection_estimate_tracks_truth", CASES, |g| {
        let a = key_set(g, 0, 5000, 150);
        let b = key_set(g, 0, 5000, 150);
        let va: Vec<u64> = a.iter().copied().collect();
        let vb: Vec<u64> = b.iter().copied().collect();
        let fa = filter_from(&va, 8192);
        let fb = filter_from(&vb, 8192);
        let truth = a.intersection(&b).count() as f64;
        let est = fa.intersection_estimate(&fb);
        assert!(
            (est - truth).abs() <= 10.0 + 0.15 * (va.len() + vb.len()) as f64,
            "est={est} truth={truth}"
        );
    });
}

/// Perfect signatures agree exactly with ordinary set semantics.
#[test]
fn prop_perfect_signature_is_exact() {
    run_cases("perfect_signature_is_exact", CASES, |g| {
        let a = g.u64_vec(0, 100);
        let b = g.u64_vec(0, 100);
        let sa: PerfectSignature = a.iter().copied().collect();
        let sb: PerfectSignature = b.iter().copied().collect();
        let ha: BTreeSet<u64> = a.iter().copied().collect();
        let hb: BTreeSet<u64> = b.iter().copied().collect();
        assert_eq!(sa.estimate_len(), ha.len() as f64);
        assert_eq!(
            sa.intersection_estimate(&sb),
            ha.intersection(&hb).count() as f64
        );
        assert_eq!(sa.intersects(&sb), ha.intersection(&hb).next().is_some());
    });
}

/// The estimation equations are internally consistent: inverting the
/// expected fill level recovers the element count.
#[test]
fn prop_estimate_inverts_expectation() {
    run_cases("estimate_inverts_expectation", CASES, |g| {
        let n = g.u32_in(1, 400);
        let bits = *g.choose(&[1024u32, 2048, 4096, 8192]);
        let params = EstimateParams::new(bits, 4);
        let m = bits as f64;
        let expected_bits = m * (1.0 - (1.0 - 1.0 / m).powf(4.0 * n as f64));
        let est = estimate::set_size(params, expected_bits.round() as u32);
        assert!(
            (est - n as f64).abs() < 3.0 + 0.02 * n as f64,
            "est={est} n={n}"
        );
    });
}

/// Saturation: driving the fill ratio to 1 keeps every estimate finite,
/// and a fully saturated filter reports exactly the documented
/// one-unset-bit clamp (the largest value eq. 2 can express).
#[test]
fn prop_saturated_filters_estimate_finitely() {
    run_cases("saturated_filters_estimate_finitely", CASES, |g| {
        let bits = *g.choose(&[64u32, 128, 256]);
        let mut f = BloomFilter::new(bits, 4);
        let mut last = 0.0f64;
        for round in 0.. {
            assert!(round < 100_000, "filter never saturated");
            f.insert(g.u64());
            let est = f.estimate_len();
            assert!(
                est.is_finite(),
                "estimate diverged at fill {}",
                f.count_ones()
            );
            assert!(est >= last - 1e-9, "estimate shrank under insertion");
            last = est;
            if f.count_ones() == bits {
                break;
            }
        }
        assert_eq!(
            f.estimate_len().to_bits(),
            estimate::set_size(f.params(), bits).to_bits(),
            "saturated estimate must be the one-unset-bit clamp"
        );
        // Two saturated filters: the inclusion–exclusion estimate stays
        // finite and collapses to the saturated set-size estimate.
        let est = f.intersection_estimate(&f.clone());
        assert!(est.is_finite());
        assert!((est - f.estimate_len()).abs() < 1e-9);
    });
}

/// False positives are monotone in fill: bits are only ever set, so a
/// probe that aliases once aliases forever, and at saturation every
/// probe aliases. This is the monotone false-positive rate the bounded
/// detection mode turns into (monotone) abort pressure.
#[test]
fn prop_false_positive_rate_monotone_in_fill() {
    run_cases("fp_rate_monotone_in_fill", CASES, |g| {
        let mut f = BloomFilter::new(256, 2);
        // Probes are drawn from a key range disjoint from every insert,
        // so any positive membership answer is a false positive.
        let probes: Vec<u64> = (0..128).map(|_| g.u64_in(1 << 32, u64::MAX)).collect();
        let mut last_fp = 0usize;
        while f.count_ones() < f.bits() {
            for _ in 0..8 {
                f.insert(g.u64_in(0, 1 << 31));
            }
            let fp = probes.iter().filter(|&&p| f.may_contain(p)).count();
            assert!(
                fp >= last_fp,
                "false-positive count dropped: {fp} < {last_fp}"
            );
            last_fp = fp;
        }
        assert_eq!(
            last_fp,
            probes.len(),
            "a saturated filter aliases everything"
        );
    });
}

/// The clamp contract of eq. 3 holds over the whole popcount lattice:
/// the clamped intersection is bit-for-bit `raw.max(0.0)` and never
/// negative, for any geometry up to and including saturation.
#[test]
fn prop_intersection_clamp_contract() {
    run_cases("intersection_clamp_contract", 256, |g| {
        let bits = *g.choose(&[64u32, 256, 2048]);
        let params = EstimateParams::new(bits, g.u32_in(1, 9));
        let a = g.u32_in(0, bits + 1);
        let b = g.u32_in(0, bits + 1);
        let union = g.u32_in(a.max(b), (a + b).min(bits) + 1);
        let raw = estimate::intersection_size(params, a, b, union);
        let clamped = estimate::intersection_size_clamped(params, a, b, union);
        assert!(clamped >= 0.0, "clamped estimate {clamped} went negative");
        assert_eq!(
            clamped.to_bits(),
            raw.max(0.0).to_bits(),
            "clamp must be exactly raw.max(0.0) (invariant I6 replays it bit-for-bit)"
        );
    });
}

/// Similarity is always within [0, 1].
#[test]
fn prop_similarity_bounded() {
    run_cases("similarity_bounded", 256, |g| {
        let inter = g.f64_in(-1e6, 1e6);
        let avg = g.f64_in(-100.0, 1e6);
        let s = estimate::similarity(inter, avg);
        assert!((0.0..=1.0).contains(&s), "similarity {s} out of range");
    });
}
