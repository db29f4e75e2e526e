//! Adversarial workload generators for the fault-injection campaign
//! (DESIGN.md §9).
//!
//! The STAMP-like presets are *stationary*: each benchmark's conflict
//! graph and similarity profile hold for the whole run, which is exactly
//! the regime BFGTS's learning thrives in. These generators attack the
//! scheduler's assumptions instead:
//!
//! * [`AdversarialSpec::phase_shift`] rotates *which* classes conflict
//!   every phase, so the learned pairwise confidence goes stale the
//!   moment it becomes useful;
//! * [`AdversarialSpec::hotspot_skew`] funnels a heavily skewed class
//!   mix through a two-line pool, the densest conflict structure the
//!   paper's Table 4 contention rates imply;
//! * [`AdversarialSpec::contention_storm`] alternates calm and
//!   white-hot phases so the §4.3 hybrid pressure gate (EMA threshold
//!   0.25) keeps flipping between backoff and full prediction.
//!
//! All generation is driven by the caller's [`SimRng`], so a seeded run
//! is byte-reproducible like every other workload in this crate.

use crate::class::{RandomRegion, Region, TxClass};
use crate::source::WorkloadSource;
use bfgts_htm::{TxInstance, TxSource};
use bfgts_sim::SimRng;
use std::sync::Arc;

/// A phased adversarial benchmark: the class mix switches every
/// `phase_len` transactions (per thread), cycling through `phases`.
///
/// Static transaction ids are kept stable across phases on purpose: the
/// scheduler's per-sTx state (similarity averages, confidence rows)
/// persists while the behaviour behind the ids changes under it.
#[derive(Debug, Clone)]
pub struct AdversarialSpec {
    /// Generator name (appears in fuzz-campaign cell keys).
    pub name: &'static str,
    /// One class mix per phase, cycled in order.
    pub phases: Vec<Arc<[TxClass]>>,
    /// Transactions a thread draws from one phase before switching.
    pub phase_len: u64,
    /// Total dynamic transactions across all threads.
    pub total_txs: u64,
}

impl AdversarialSpec {
    /// Rotating conflict graph: three classes, two shared pools. In
    /// phase `p` classes `p % 3` and `(p + 1) % 3` collide in the hot
    /// pair pool while the third runs alone, so the conflicting pair
    /// changes every phase and yesterday's serialisation decisions
    /// penalise today's innocent pairings.
    pub fn phase_shift() -> Self {
        let pair_pool = Region::new(0x2000, 8);
        let solo_pool = Region::new(0x2400, 64);
        let phases = (0..3u32)
            .map(|p| {
                let classes: Vec<TxClass> = (0..3u32)
                    .map(|i| {
                        let in_pair = i == p % 3 || i == (p + 1) % 3;
                        TxClass {
                            stx: i,
                            weight: 1.0,
                            private_hot: 6,
                            shared_picks: 3,
                            shared_pool: Some(if in_pair { pair_pool } else { solo_pool }),
                            shared_writes: true,
                            random_picks: 3,
                            random_region: RandomRegion::Shared(Region::new(0x1_0000, 20_000)),
                            write_frac: 0.5,
                            pre_work: (100, 300),
                        }
                    })
                    .collect();
                Arc::from(classes)
            })
            .collect();
        Self {
            name: "adv-phase-shift",
            phases,
            phase_len: 150,
            total_txs: 2_000,
        }
    }

    /// Extreme hotspot skew: a dominant class (8× the weight of the
    /// background class) hammering a two-line pool with writes. Nearly
    /// every concurrent pair conflicts persistently, and the skew means
    /// the confidence table's hot rows absorb almost all updates.
    pub fn hotspot_skew() -> Self {
        let classes: Arc<[TxClass]> = Arc::from(vec![
            TxClass {
                stx: 0,
                weight: 8.0,
                private_hot: 4,
                shared_picks: 4,
                shared_pool: Some(Region::new(0x3000, 2)),
                shared_writes: true,
                random_picks: 2,
                random_region: RandomRegion::Shared(Region::new(0x1_0000, 5_000)),
                write_frac: 0.5,
                pre_work: (50, 150),
            },
            TxClass {
                stx: 1,
                weight: 1.0,
                private_hot: 8,
                shared_picks: 0,
                shared_pool: None,
                shared_writes: false,
                random_picks: 4,
                random_region: RandomRegion::PerThread { lines: 512 },
                write_frac: 0.5,
                pre_work: (200, 400),
            },
        ]);
        Self {
            name: "adv-hotspot-skew",
            phases: vec![classes],
            phase_len: u64::MAX,
            total_txs: 2_000,
        }
    }

    /// Calm/storm alternation tuned against the §4.3 hybrid gate: calm
    /// phases are thread-partitioned with long think times (pressure
    /// EMA decays below the 0.25 threshold → prediction gated off),
    /// storm phases slam a four-line write-hot pool with no think time
    /// (pressure spikes → gate reopens). A manager that reacts slowly
    /// pays for the whole storm; one that overreacts serialises the
    /// calm.
    pub fn contention_storm() -> Self {
        let calm: Arc<[TxClass]> = Arc::from(vec![TxClass {
            stx: 0,
            weight: 1.0,
            private_hot: 8,
            shared_picks: 0,
            shared_pool: None,
            shared_writes: false,
            random_picks: 4,
            random_region: RandomRegion::PerThread { lines: 1024 },
            write_frac: 0.3,
            pre_work: (400, 800),
        }]);
        let storm: Arc<[TxClass]> = Arc::from(vec![TxClass {
            stx: 0,
            weight: 1.0,
            private_hot: 4,
            shared_picks: 5,
            shared_pool: Some(Region::new(0x4000, 4)),
            shared_writes: true,
            random_picks: 3,
            random_region: RandomRegion::Shared(Region::new(0x1_0000, 2_000)),
            write_frac: 0.7,
            pre_work: (0, 50),
        }]);
        Self {
            name: "adv-contention-storm",
            phases: vec![calm, storm],
            phase_len: 120,
            total_txs: 2_000,
        }
    }

    /// All three generators, in a fixed order the fuzz campaign indexes
    /// by cell number.
    pub fn all() -> Vec<Self> {
        vec![
            Self::phase_shift(),
            Self::hotspot_skew(),
            Self::contention_storm(),
        ]
    }

    /// Scales the workload by `factor` (at least one transaction), like
    /// [`crate::BenchmarkSpec::scaled`].
    pub fn scaled(mut self, factor: f64) -> Self {
        self.total_txs = ((self.total_txs as f64 * factor).round() as u64).max(1);
        self
    }

    /// Splits the benchmark across `threads` threads, preserving the
    /// total transaction count exactly (remainder to the lowest-indexed
    /// threads).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn sources(&self, threads: usize) -> Vec<AdversarialSource> {
        assert!(threads > 0, "need at least one thread");
        let per = self.total_txs / threads as u64;
        let extra = (self.total_txs % threads as u64) as usize;
        (0..threads)
            .map(|t| {
                let count = per + u64::from(t < extra);
                AdversarialSource::new(self, t, count)
            })
            .collect()
    }
}

/// One thread's share of an [`AdversarialSpec`]: cycles through the
/// spec's phases every [`AdversarialSpec::phase_len`] transactions.
#[derive(Debug, Clone)]
pub struct AdversarialSource {
    /// One inner source per phase; each holds enough budget to cover the
    /// whole run, and the global `remaining` bounds the output.
    phase_sources: Vec<WorkloadSource>,
    phase_len: u64,
    produced: u64,
    remaining: u64,
}

impl AdversarialSource {
    /// Creates the source for thread `thread_index`, yielding `count`
    /// transactions.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no phases, a zero `phase_len`, or any
    /// class fails validation.
    pub fn new(spec: &AdversarialSpec, thread_index: usize, count: u64) -> Self {
        assert!(!spec.phases.is_empty(), "spec needs at least one phase");
        assert!(spec.phase_len > 0, "phase length must be positive");
        let phase_sources = spec
            .phases
            .iter()
            .map(|classes| WorkloadSource::new(classes.clone(), thread_index, count))
            .collect();
        Self {
            phase_sources,
            phase_len: spec.phase_len,
            produced: 0,
            remaining: count,
        }
    }

    /// Transactions left to generate.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// The phase the next transaction will be drawn from.
    pub fn current_phase(&self) -> usize {
        ((self.produced / self.phase_len) % self.phase_sources.len() as u64) as usize
    }
}

impl TxSource for AdversarialSource {
    fn next_tx(&mut self, rng: &mut SimRng) -> Option<TxInstance> {
        if self.remaining == 0 {
            return None;
        }
        let phase = self.current_phase();
        self.produced += 1;
        self.remaining -= 1;
        self.phase_sources[phase].next_tx(rng)
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.remaining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn drain(spec: &AdversarialSpec, thread: usize, count: u64, seed: u64) -> Vec<TxInstance> {
        let mut src = AdversarialSource::new(spec, thread, count);
        let mut rng = SimRng::seed_from(seed);
        let mut v = Vec::new();
        while let Some(tx) = src.next_tx(&mut rng) {
            v.push(tx);
        }
        v
    }

    #[test]
    fn all_generators_build_valid_classes() {
        for spec in AdversarialSpec::all() {
            assert!(!spec.phases.is_empty());
            for phase in &spec.phases {
                for class in phase.iter() {
                    assert_eq!(class.validate(), Ok(()), "{}", spec.name);
                }
            }
            let total: u64 = spec.sources(7).iter().map(|s| s.remaining()).sum();
            assert_eq!(total, spec.total_txs, "{} split", spec.name);
        }
    }

    #[test]
    fn yields_exactly_count_across_phases() {
        let spec = AdversarialSpec::phase_shift();
        let txs = drain(&spec, 0, 500, 1);
        assert_eq!(txs.len(), 500);
    }

    #[test]
    fn phase_shift_rotates_the_conflicting_pair() {
        let spec = AdversarialSpec::phase_shift();
        // In phase p, classes p%3 and (p+1)%3 draw from the pair pool
        // [0x2000, 0x2008); the third class must not.
        let txs = drain(&spec, 0, spec.phase_len * 3, 2);
        for (i, tx) in txs.iter().enumerate() {
            let phase = (i as u64 / spec.phase_len) as u32 % 3;
            let stx = tx.stx.get();
            let in_pair = stx == phase % 3 || stx == (phase + 1) % 3;
            let hits_pair_pool = tx
                .accesses
                .iter()
                .any(|a| (0x2000..0x2008).contains(&a.addr.get()));
            assert_eq!(
                hits_pair_pool, in_pair,
                "tx {i} (phase {phase}, stx {stx}) pool membership"
            );
        }
    }

    #[test]
    fn hotspot_class_dominates_and_hits_the_tiny_pool() {
        let spec = AdversarialSpec::hotspot_skew();
        let txs = drain(&spec, 1, 2000, 3);
        let hot = txs.iter().filter(|t| t.stx.get() == 0).count();
        let frac = hot as f64 / txs.len() as f64;
        assert!(frac > 0.8, "hot class should be ~8/9 of picks, got {frac}");
        let pool_lines: BTreeSet<u64> = txs
            .iter()
            .flat_map(|t| t.accesses.iter())
            .map(|a| a.addr.get())
            .filter(|a| (0x3000..0x3000 + 2).contains(a))
            .collect();
        assert!(!pool_lines.is_empty(), "hot pool must be exercised");
        assert!(pool_lines.len() <= 2, "pool is two lines wide");
    }

    #[test]
    fn storm_phases_alternate_with_calm() {
        let spec = AdversarialSpec::contention_storm();
        let txs = drain(&spec, 0, spec.phase_len * 4, 4);
        for (i, tx) in txs.iter().enumerate() {
            let phase = (i as u64 / spec.phase_len) % 2;
            let hits_storm_pool = tx
                .accesses
                .iter()
                .any(|a| (0x4000..0x4004).contains(&a.addr.get()));
            if phase == 0 {
                assert!(!hits_storm_pool, "tx {i}: calm phase is pool-free");
                assert!(tx.pre_work >= 400, "tx {i}: calm phase thinks");
            } else {
                assert!(hits_storm_pool, "tx {i}: storm phase hits the pool");
                assert!(tx.pre_work <= 50, "tx {i}: storm phase is back-to-back");
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        for spec in AdversarialSpec::all() {
            let a = drain(&spec, 2, 300, 42);
            let b = drain(&spec, 2, 300, 42);
            assert_eq!(a, b, "{} replay", spec.name);
            let c = drain(&spec, 2, 300, 43);
            assert_ne!(a, c, "{} seed sensitivity", spec.name);
        }
    }

    #[test]
    fn scaled_changes_total() {
        let spec = AdversarialSpec::hotspot_skew().scaled(0.25);
        assert_eq!(spec.total_txs, 500);
        assert_eq!(AdversarialSpec::hotspot_skew().scaled(0.0).total_txs, 1);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phases_rejected() {
        let spec = AdversarialSpec {
            name: "empty",
            phases: Vec::new(),
            phase_len: 1,
            total_txs: 1,
        };
        let _ = AdversarialSource::new(&spec, 0, 1);
    }
}
