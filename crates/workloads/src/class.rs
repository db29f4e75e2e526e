//! Transaction classes: the building blocks of a synthetic benchmark.

/// A contiguous range of cache lines in the simulated address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First line number.
    pub base: u64,
    /// Number of lines.
    pub lines: u64,
}

impl Region {
    /// Creates a region.
    ///
    /// # Panics
    ///
    /// Panics if `lines == 0`.
    pub fn new(base: u64, lines: u64) -> Self {
        assert!(lines > 0, "region must contain at least one line");
        Self { base, lines }
    }

    /// Whether two regions share any line.
    pub fn overlaps(&self, other: &Region) -> bool {
        self.base < other.base + other.lines && other.base < self.base + self.lines
    }
}

/// The largest static transaction id a class may carry.
///
/// Scheduler state is indexed by sTxID: the BFGTS confidence table is a
/// dense square of at most `(MAX_STX + 1)²` `f64` entries (8.4 MB) and the
/// hybrid variant's pressure vector holds one entry per id. Scenario
/// parsing rejects a larger id, so an untrusted document cannot turn one
/// class into a multi-gigabyte allocation. Every preset, adversarial
/// generator and committed fixture uses single-digit ids.
pub const MAX_STX: u32 = 1024;

/// The most accesses one class may perform per instance: the bound on
/// each of `private_hot`, `shared_picks` and `random_picks`, and on their
/// sum ([`TxClass::size`]).
///
/// Every instance materialises its access list, so a class's size is an
/// allocation request. [`TxClass::validate`] rejects a larger class, so
/// an untrusted scenario document cannot ask for terabytes with one
/// field. The largest preset or adversarial class performs 229 accesses.
pub const MAX_CLASS_ACCESSES: usize = 4096;

/// Where a class draws its random (transient) accesses from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RandomRegion {
    /// A region shared by all threads (and possibly other classes):
    /// produces transient conflicts.
    Shared(Region),
    /// A per-thread region of this many lines: no conflicts at all
    /// (models thread-partitioned data).
    PerThread {
        /// Lines in each thread's private region.
        lines: u64,
    },
}

/// One static transaction of a benchmark: a recipe for generating its
/// dynamic read/write sets.
///
/// An instance's accesses are the union of three pools, shuffled into a
/// random program order:
///
/// 1. `private_hot` lines unique to (thread, class), reused verbatim on
///    every execution — they create *similarity* without conflicts;
/// 2. `shared_picks` draws from the small `shared_pool` all threads
///    share — they create *persistent* conflicts (and similarity when
///    the pool is small enough to repeat);
/// 3. `random_picks` draws from the large random region — *transient*
///    conflicts.
#[derive(Debug, Clone, PartialEq)]
pub struct TxClass {
    /// Static transaction id this class generates.
    pub stx: u32,
    /// Relative selection weight among the benchmark's classes.
    pub weight: f64,
    /// Per-thread lines reused on every execution.
    pub private_hot: usize,
    /// Accesses drawn from the shared pool per execution.
    pub shared_picks: usize,
    /// The shared pool, if the class has one.
    pub shared_pool: Option<Region>,
    /// Whether shared-pool accesses are writes (`true`, e.g. a queue
    /// head) or reads (`false`, e.g. a lookup table another class
    /// writes).
    pub shared_writes: bool,
    /// Accesses drawn from the random region per execution.
    pub random_picks: usize,
    /// Where random accesses land.
    pub random_region: RandomRegion,
    /// Probability that a private/random access is a write.
    pub write_frac: f64,
    /// Uniform range of non-transactional cycles preceding each
    /// execution.
    pub pre_work: (u64, u64),
}

impl TxClass {
    /// Total accesses each instance performs.
    pub fn size(&self) -> usize {
        self.private_hot + self.shared_picks + self.random_picks
    }

    /// The similarity this class should exhibit: the hot fraction of its
    /// accesses (private lines always repeat; shared-pool picks repeat
    /// when the pool is small).
    pub fn nominal_similarity(&self) -> f64 {
        if self.size() == 0 {
            return 0.0;
        }
        let repeating_shared = match self.shared_pool {
            // Picks from a pool no larger than ~4x the pick count mostly
            // repeat between consecutive executions.
            Some(pool) if pool.lines <= 4 * self.shared_picks as u64 => self.shared_picks as f64,
            _ => 0.0,
        };
        (self.private_hot as f64 + repeating_shared) / self.size() as f64
    }

    /// Checks every rule a class must obey, naming the class and the
    /// first rule it breaks. This is the one home of the rules: scenario
    /// resolution returns its error and [`WorkloadSource::new`] panics
    /// with it.
    ///
    /// A class must have an id at most [`MAX_STX`]; each access pool and
    /// their sum at most [`MAX_CLASS_ACCESSES`] (each pool is checked
    /// first, so the sum cannot wrap) and at least one access; shared
    /// picks only from a defined, non-empty pool; random picks only from
    /// a non-empty region (a zero-sized one would feed `gen_range` a
    /// degenerate bound deep in instance generation); a `write_frac` in
    /// `0..=1`; and a `pre_work` range `lo <= hi` whose `hi - lo + 1`
    /// values fit `u64`.
    ///
    /// [`WorkloadSource::new`]: crate::WorkloadSource::new
    pub fn validate(&self) -> Result<(), String> {
        let stx = self.stx;
        if stx > MAX_STX {
            return Err(format!(
                "class sTx{stx}: 'stx' is above the static transaction id bound {MAX_STX}"
            ));
        }
        let too_many = |field: &str, accesses: usize| {
            format!(
                "class sTx{stx}: '{field}' is {accesses} accesses, above the class bound \
                 {MAX_CLASS_ACCESSES}"
            )
        };
        for (field, accesses) in [
            ("private_hot", self.private_hot),
            ("shared_picks", self.shared_picks),
            ("random_picks", self.random_picks),
        ] {
            if accesses > MAX_CLASS_ACCESSES {
                return Err(too_many(field, accesses));
            }
        }
        match self.size() {
            0 => return Err(format!("class sTx{stx} performs no accesses")),
            size if size > MAX_CLASS_ACCESSES => return Err(too_many("size", size)),
            _ => {}
        }
        if self.shared_picks > 0 {
            match self.shared_pool {
                None => return Err(format!("class sTx{stx} draws from a missing shared pool")),
                // Region::new rejects lines == 0, but literal construction
                // bypasses it.
                Some(pool) if pool.lines == 0 => {
                    return Err(format!("class sTx{stx} draws from an empty shared pool"))
                }
                Some(_) => {}
            }
        }
        let random_lines = match self.random_region {
            RandomRegion::Shared(region) => region.lines,
            RandomRegion::PerThread { lines } => lines,
        };
        if self.random_picks > 0 && random_lines == 0 {
            return Err(format!(
                "class sTx{stx} draws random picks from an empty region"
            ));
        }
        if !(0.0..=1.0).contains(&self.write_frac) {
            return Err(format!("class sTx{stx}: write_frac out of range"));
        }
        let (lo, hi) = self.pre_work;
        if lo > hi {
            return Err(format!("class sTx{stx}: pre_work range inverted"));
        }
        if hi - lo == u64::MAX {
            return Err(format!(
                "class sTx{stx}: pre_work range [{lo}, {hi}] has more values than u64 can count"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class() -> TxClass {
        TxClass {
            stx: 0,
            weight: 1.0,
            private_hot: 6,
            shared_picks: 2,
            shared_pool: Some(Region::new(100, 8)),
            shared_writes: true,
            random_picks: 4,
            random_region: RandomRegion::Shared(Region::new(1000, 4096)),
            write_frac: 0.5,
            pre_work: (100, 200),
        }
    }

    #[test]
    fn size_sums_pools() {
        assert_eq!(class().size(), 12);
    }

    #[test]
    fn nominal_similarity_counts_hot_fractions() {
        // 6 private + 2 repeating shared of 12 accesses.
        let sim = class().nominal_similarity();
        assert!((sim - 8.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn large_pool_does_not_count_as_repeating() {
        let mut c = class();
        c.shared_pool = Some(Region::new(100, 1000));
        let sim = c.nominal_similarity();
        assert!((sim - 0.5).abs() < 1e-12);
    }

    #[test]
    fn region_overlap() {
        let a = Region::new(0, 10);
        let b = Region::new(9, 5);
        let c = Region::new(10, 5);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn empty_region_rejected() {
        Region::new(0, 0);
    }

    /// The error `validate` returns for `c`, which must be invalid.
    fn rejection(c: &TxClass) -> String {
        c.validate().expect_err("class should be rejected")
    }

    #[test]
    fn missing_pool_rejected() {
        let mut c = class();
        c.shared_pool = None;
        assert!(rejection(&c).contains("missing shared pool"));
    }

    #[test]
    fn valid_class_passes() {
        assert_eq!(class().validate(), Ok(()));
    }

    #[test]
    fn zero_line_shared_pool_rejected() {
        let mut c = class();
        // Literal construction dodges Region::new's own assert.
        c.shared_pool = Some(Region {
            base: 100,
            lines: 0,
        });
        assert!(rejection(&c).contains("empty shared pool"));
    }

    #[test]
    fn zero_line_shared_random_region_rejected() {
        let mut c = class();
        c.random_region = RandomRegion::Shared(Region {
            base: 1000,
            lines: 0,
        });
        assert!(rejection(&c).contains("empty region"));
    }

    #[test]
    fn zero_line_per_thread_random_region_rejected() {
        let mut c = class();
        c.random_region = RandomRegion::PerThread { lines: 0 };
        assert!(rejection(&c).contains("empty region"));
    }

    #[test]
    fn inverted_pre_work_rejected() {
        let mut c = class();
        c.pre_work = (200, 100);
        assert!(rejection(&c).contains("pre_work range inverted"));
        // A range of all 2^64 values cannot count its own span.
        c.pre_work = (0, u64::MAX);
        assert!(rejection(&c).contains("more values than u64 can count"));
        for widest in [(1, u64::MAX), (0, u64::MAX - 1), (u64::MAX, u64::MAX)] {
            c.pre_work = widest;
            assert_eq!(c.validate(), Ok(()), "{widest:?}");
        }
    }

    #[test]
    fn zero_regions_allowed_when_unused() {
        // A zero-sized random region is fine when nothing draws from it.
        let mut c = class();
        c.random_picks = 0;
        c.random_region = RandomRegion::PerThread { lines: 0 };
        assert_eq!(c.validate(), Ok(()));
    }
}
