//! The per-thread transaction stream generator.

use crate::class::{RandomRegion, TxClass};
use bfgts_htm::{Access, STxId, TxInstance, TxSource};
use bfgts_sim::SimRng;
use std::sync::Arc;

/// Base of the per-thread private address space, far above any shared
/// region the presets allocate.
const PRIVATE_SPACE: u64 = 1 << 40;
/// Address stride per thread within the private space.
const THREAD_STRIDE: u64 = 1 << 22;
/// Address stride per class within a thread's slice.
const CLASS_STRIDE: u64 = 1 << 14;

/// One thread's share of a benchmark: yields `remaining` transaction
/// instances drawn from the benchmark's class mix.
#[derive(Debug, Clone)]
pub struct WorkloadSource {
    classes: Arc<[TxClass]>,
    total_weight: f64,
    thread_index: u64,
    remaining: u64,
}

impl WorkloadSource {
    /// Creates the source for thread `thread_index`, yielding `count`
    /// transactions.
    ///
    /// Duplicate `stx` ids across classes are explicitly allowed: each
    /// class is picked by its own weight and keeps its own private-line
    /// slice (indexed by class position, not `stx`), so two classes may
    /// model one static transaction with different dynamic shapes.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty, or with [`TxClass::validate`]'s
    /// message if a class breaks a rule.
    pub fn new(classes: Arc<[TxClass]>, thread_index: usize, count: u64) -> Self {
        assert!(!classes.is_empty(), "benchmark needs at least one class");
        if let Err(e) = classes.iter().try_for_each(TxClass::validate) {
            // detlint: allow(P002) -- documented panic contract: an invalid class is a configuration bug, caught before any instance is generated
            panic!("{e}");
        }
        let total_weight = classes.iter().map(|c| c.weight).sum();
        Self {
            classes,
            total_weight,
            thread_index: thread_index as u64,
            remaining: count,
        }
    }

    /// Transactions left to generate.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    fn pick_class(&self, rng: &mut SimRng) -> usize {
        let mut roll = rng.gen_f64() * self.total_weight;
        for (i, c) in self.classes.iter().enumerate() {
            if roll < c.weight {
                return i;
            }
            roll -= c.weight;
        }
        self.classes.len() - 1
    }

    fn private_base(&self, class_index: u64) -> u64 {
        PRIVATE_SPACE + self.thread_index * THREAD_STRIDE + class_index * CLASS_STRIDE
    }

    fn build_instance(&self, class_index: usize, rng: &mut SimRng) -> TxInstance {
        let class = &self.classes[class_index];
        let mut accesses = Vec::with_capacity(class.size());
        let pbase = self.private_base(class_index as u64);
        for j in 0..class.private_hot as u64 {
            accesses.push(Access {
                addr: (pbase + j).into(),
                is_write: rng.gen_bool(class.write_frac),
            });
        }
        if let Some(pool) = class.shared_pool {
            for _ in 0..class.shared_picks {
                accesses.push(Access {
                    addr: (pool.base + rng.gen_range(pool.lines)).into(),
                    is_write: class.shared_writes,
                });
            }
        }
        for _ in 0..class.random_picks {
            let addr = match class.random_region {
                RandomRegion::Shared(region) => region.base + rng.gen_range(region.lines),
                RandomRegion::PerThread { lines } => {
                    // Private region placed in the upper half of the
                    // class's slice, clear of the hot lines.
                    pbase + CLASS_STRIDE / 2 + rng.gen_range(lines.min(CLASS_STRIDE / 2))
                }
            };
            accesses.push(Access {
                addr: addr.into(),
                is_write: rng.gen_bool(class.write_frac),
            });
        }
        // Shuffle into a program order (Fisher–Yates).
        for i in (1..accesses.len()).rev() {
            let j = rng.gen_range(i as u64 + 1) as usize;
            accesses.swap(i, j);
        }
        let (lo, hi) = class.pre_work;
        let pre_work = lo + rng.gen_range(hi - lo + 1);
        TxInstance::new(STxId(class.stx), accesses, pre_work)
    }
}

impl TxSource for WorkloadSource {
    fn next_tx(&mut self, rng: &mut SimRng) -> Option<TxInstance> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let class_index = self.pick_class(rng);
        Some(self.build_instance(class_index, rng))
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.remaining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::Region;
    use std::collections::BTreeSet;

    fn classes() -> Arc<[TxClass]> {
        vec![
            TxClass {
                stx: 0,
                weight: 3.0,
                private_hot: 4,
                shared_picks: 2,
                shared_pool: Some(Region::new(500, 8)),
                shared_writes: true,
                random_picks: 4,
                random_region: RandomRegion::Shared(Region::new(10_000, 1000)),
                write_frac: 0.5,
                pre_work: (10, 20),
            },
            TxClass {
                stx: 1,
                weight: 1.0,
                private_hot: 2,
                shared_picks: 0,
                shared_pool: None,
                shared_writes: false,
                random_picks: 3,
                random_region: RandomRegion::PerThread { lines: 512 },
                write_frac: 1.0,
                pre_work: (5, 5),
            },
        ]
        .into()
    }

    #[test]
    fn yields_exactly_count() {
        let mut src = WorkloadSource::new(classes(), 0, 10);
        let mut rng = SimRng::seed_from(1);
        let mut n = 0;
        while src.next_tx(&mut rng).is_some() {
            n += 1;
        }
        assert_eq!(n, 10);
        assert_eq!(src.remaining(), 0);
    }

    #[test]
    fn instance_size_matches_class() {
        let mut src = WorkloadSource::new(classes(), 0, 100);
        let mut rng = SimRng::seed_from(2);
        while let Some(tx) = src.next_tx(&mut rng) {
            match tx.stx.get() {
                0 => assert_eq!(tx.len(), 10),
                1 => assert_eq!(tx.len(), 5),
                other => panic!("unexpected stx {other}"),
            }
        }
    }

    #[test]
    fn private_hot_lines_repeat_across_instances() {
        let mut src = WorkloadSource::new(classes(), 3, 50);
        let mut rng = SimRng::seed_from(3);
        let mut sets: Vec<BTreeSet<u64>> = Vec::new();
        while let Some(tx) = src.next_tx(&mut rng) {
            if tx.stx.get() == 0 {
                sets.push(tx.accesses.iter().map(|a| a.addr.get()).collect());
            }
        }
        // every pair of consecutive class-0 instances shares >= the 4
        // private lines
        for pair in sets.windows(2) {
            let common = pair[0].intersection(&pair[1]).count();
            assert!(common >= 4, "expected >=4 repeated lines, got {common}");
        }
    }

    #[test]
    fn different_threads_have_disjoint_private_lines() {
        let mut a = WorkloadSource::new(classes(), 0, 20);
        let mut b = WorkloadSource::new(classes(), 1, 20);
        let mut rng_a = SimRng::seed_from(4);
        let mut rng_b = SimRng::seed_from(5);
        let mut lines_a = BTreeSet::new();
        let mut lines_b = BTreeSet::new();
        while let Some(tx) = a.next_tx(&mut rng_a) {
            if tx.stx.get() == 1 {
                lines_a.extend(tx.accesses.iter().map(|x| x.addr.get()));
            }
        }
        while let Some(tx) = b.next_tx(&mut rng_b) {
            if tx.stx.get() == 1 {
                lines_b.extend(tx.accesses.iter().map(|x| x.addr.get()));
            }
        }
        assert!(
            lines_a.is_disjoint(&lines_b),
            "class 1 is fully thread-private"
        );
    }

    #[test]
    fn shared_pool_addresses_stay_in_pool() {
        let mut src = WorkloadSource::new(classes(), 0, 200);
        let mut rng = SimRng::seed_from(6);
        while let Some(tx) = src.next_tx(&mut rng) {
            for a in &tx.accesses {
                let addr = a.addr.get();
                if (500..508).contains(&addr) {
                    assert!(a.is_write, "pool accesses of class 0 are writes");
                }
            }
        }
    }

    #[test]
    fn class_weights_respected() {
        let mut src = WorkloadSource::new(classes(), 0, 4000);
        let mut rng = SimRng::seed_from(7);
        let mut count0 = 0u32;
        let mut total = 0u32;
        while let Some(tx) = src.next_tx(&mut rng) {
            total += 1;
            if tx.stx.get() == 0 {
                count0 += 1;
            }
        }
        let frac = count0 as f64 / total as f64;
        assert!(
            (frac - 0.75).abs() < 0.05,
            "class 0 should be ~75% of picks, got {frac}"
        );
    }

    #[test]
    fn pre_work_within_range() {
        let mut src = WorkloadSource::new(classes(), 0, 100);
        let mut rng = SimRng::seed_from(8);
        while let Some(tx) = src.next_tx(&mut rng) {
            match tx.stx.get() {
                0 => assert!((10..=20).contains(&tx.pre_work)),
                _ => assert_eq!(tx.pre_work, 5),
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let gen = |seed| {
            let mut src = WorkloadSource::new(classes(), 2, 30);
            let mut rng = SimRng::seed_from(seed);
            let mut v = Vec::new();
            while let Some(tx) = src.next_tx(&mut rng) {
                v.push(tx);
            }
            v
        };
        assert_eq!(gen(42), gen(42));
        assert_ne!(gen(42), gen(43));
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_classes_rejected() {
        let empty: Arc<[TxClass]> = Vec::new().into();
        WorkloadSource::new(empty, 0, 1);
    }

    #[test]
    fn duplicate_stx_classes_keep_their_own_shapes() {
        // Regression: the weighted pick used to be recovered via
        // `position(|c| c.stx == picked.stx)`, which collapsed every
        // duplicate-stx class onto the first match — the second shape
        // below could never be generated.
        let dup: Arc<[TxClass]> = vec![
            TxClass {
                stx: 7,
                weight: 1.0,
                private_hot: 2,
                shared_picks: 0,
                shared_pool: None,
                shared_writes: false,
                random_picks: 0,
                random_region: RandomRegion::PerThread { lines: 1 },
                write_frac: 0.0,
                pre_work: (0, 0),
            },
            TxClass {
                stx: 7,
                weight: 1.0,
                private_hot: 9,
                shared_picks: 0,
                shared_pool: None,
                shared_writes: false,
                random_picks: 0,
                random_region: RandomRegion::PerThread { lines: 1 },
                write_frac: 0.0,
                pre_work: (0, 0),
            },
        ]
        .into();
        let mut src = WorkloadSource::new(dup, 0, 400);
        let mut rng = SimRng::seed_from(11);
        let mut sizes = BTreeSet::new();
        while let Some(tx) = src.next_tx(&mut rng) {
            assert_eq!(tx.stx.get(), 7);
            sizes.insert(tx.len());
        }
        assert_eq!(
            sizes.into_iter().collect::<Vec<_>>(),
            vec![2, 9],
            "both duplicate-stx shapes must be generated"
        );
    }
}
