//! The scenario layer (DESIGN.md §10): one serializable descriptor of a
//! run.
//!
//! A [`Scenario`] is a pure-data value describing everything that can
//! change the outcome of one simulation: the platform shape and seed,
//! the cost-model flavour, the workload (a named preset, a named
//! adversarial generator, or an inline class mix), the contention
//! manager configuration, an optional fault plan and the trace mode. It
//! round-trips through canonical JSON ([`crate::json`]: sorted object
//! keys, `f64`s as bit patterns) and its FNV content hash
//! ([`Scenario::id`]) is *the* run identity — the result cache, the fuzz
//! repro format and the trace header all key on it, and the `bfgts_run`
//! binary executes scenario files directly.
//!
//! Everything here is data plus resolution: [`WorkloadSpec::resolve`]
//! turns a workload description back into runnable sources,
//! [`ManagerSpec::build`] instantiates the described contention manager,
//! and [`CostKind::run_config`] produces the engine configuration.
//! Execution (worker pools, caching, summaries) stays in `bfgts-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use bfgts_baselines::{
    AtsCm, BackoffCm, BalancedGreedyCm, BalancedGreedyConfig, PolkaCm, PtsCm, StallCm,
    WindowGreedyCm, WindowGreedyConfig,
};
/// The scenario layer's former name for [`BfgtsConfig`], kept for
/// callers outside this workspace.
pub use bfgts_core::BfgtsConfig as BfgtsTunables;
use bfgts_core::{BfgtsCm, BfgtsConfig, BfgtsVariant, CmFaults};
use bfgts_faultsim::{Fault, FaultPlan};
pub use bfgts_htm::Detection;
use bfgts_htm::{ContentionManager, TmRunConfig};
use bfgts_sim::TraceMode;
use bfgts_workloads::{
    presets, AdversarialSpec, ArrivalProcess, ArrivalSpec, BenchmarkSpec, ExpectedProfile,
    RandomRegion, Region, TxClass, MAX_STX,
};
use json::{Fields, Json};
use std::sync::Arc;

/// Format version of a scenario document. Bump on any change to the
/// JSON schema *or* to anything the content hash commits to — a bumped
/// version changes every scenario id, which is exactly the
/// cache-invalidation semantics run identity needs.
pub const SCENARIO_VERSION: u64 = 1;

/// Default master seed of the experiment grids (`bench::Platform`).
/// Distinct from [`bfgts_htm::DEFAULT_RUN_SEED`], which is the harness
/// default when no seed is chosen at all: experiments deliberately pin
/// their own seed so harness-level reseeding can never silently shift
/// published figures.
pub const EXPERIMENT_SEED: u64 = 0xB16_B00B5;

/// Offset-basis tweak of the second FNV digest, so two independent
/// 64-bit hashes can be concatenated into a 128-bit identity.
pub const FNV_TWEAK: u64 = 0x9e37_79b9_7f4a_7c15;

/// FNV-1a over `text`, with an offset-basis tweak so independent
/// digests of the same text can be combined collision-resistantly.
pub fn fnv1a(text: &str, tweak: u64) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ tweak;
    for byte in text.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Platform parameters for one experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Platform {
    /// Number of CPUs.
    pub cpus: usize,
    /// Number of threads.
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
    /// Conflict-detection shards (DESIGN.md §11). 1 — the default, and
    /// the only value any pre-sharding scenario ever had — is the
    /// classic monolithic table. Serialised only when ≠ 1, so every
    /// historical scenario id is unchanged.
    pub shards: u32,
    /// Conflict-detection mode (DESIGN.md §13).
    /// [`Detection::Perfect`] — the default, and the only mode any
    /// pre-capacity scenario ever had — is serialised as an *absent*
    /// key, the same identity protocol as `shards`/`faults`/`arrivals`,
    /// so every historical scenario id is unchanged.
    pub detection: Detection,
}

impl Platform {
    /// The largest CPU count a scenario document may ask for.
    ///
    /// The engine and the HTM model allocate per-CPU state up front (run
    /// queues, the CPU table, its occupancy bitmap), so parsing rejects a
    /// larger count: an untrusted document cannot turn one field into a
    /// multi-terabyte allocation. This is 4× the largest committed
    /// platform (1024 CPUs).
    pub const MAX_CPUS: usize = 4096;

    /// The largest thread count a scenario document may ask for.
    ///
    /// Per-thread state (contexts, transaction drivers, detection
    /// signatures) is allocated up front, so parsing rejects a larger
    /// count for the same reason as [`Platform::MAX_CPUS`]. This is 4×
    /// the largest committed platform (4096 threads).
    pub const MAX_THREADS: usize = 16_384;

    /// The paper's platform: 16 CPUs, 64 threads.
    pub fn paper() -> Self {
        Self {
            cpus: bfgts_htm::PAPER_CPUS,
            threads: bfgts_htm::PAPER_THREADS,
            seed: EXPERIMENT_SEED,
            shards: 1,
            detection: Detection::Perfect,
        }
    }

    /// A smaller platform for quick runs and tests.
    pub fn small() -> Self {
        Self {
            cpus: bfgts_htm::SMALL_CPUS,
            threads: bfgts_htm::SMALL_THREADS,
            seed: EXPERIMENT_SEED,
            shards: 1,
            detection: Detection::Perfect,
        }
    }

    /// Replaces the conflict-detection shard count (0 is clamped to 1).
    pub fn sharded(mut self, shards: u32) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Selects bounded-signature conflict detection (DESIGN.md §13).
    pub fn bounded(mut self, bits: u32, hashes: u32, capacity: u32) -> Self {
        self.detection = Detection::BoundedSig {
            bits,
            hashes,
            capacity,
        };
        self
    }

    fn to_json(self) -> Json {
        let mut pairs = vec![
            ("cpus", Json::UInt(self.cpus as u64)),
            ("seed", Json::UInt(self.seed)),
            ("threads", Json::UInt(self.threads as u64)),
        ];
        if self.shards != 1 {
            pairs.push(("shards", Json::UInt(u64::from(self.shards))));
        }
        if let Detection::BoundedSig {
            bits,
            hashes,
            capacity,
        } = self.detection
        {
            pairs.push((
                "detection",
                Json::obj([
                    ("bits", Json::UInt(u64::from(bits))),
                    ("capacity", Json::UInt(u64::from(capacity))),
                    ("hashes", Json::UInt(u64::from(hashes))),
                ]),
            ));
        }
        Json::obj(pairs)
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        value.read("platform", |f| {
            let cpus: u64 = f.req("cpus")?;
            let threads: u64 = f.req("threads")?;
            if cpus == 0 || threads == 0 {
                return Err("platform needs at least one cpu and one thread".into());
            }
            if cpus > Self::MAX_CPUS as u64 {
                return Err(format!(
                    "platform 'cpus' {cpus} exceeds the maximum of {}",
                    Self::MAX_CPUS
                ));
            }
            if threads > Self::MAX_THREADS as u64 {
                return Err(format!(
                    "platform 'threads' {threads} exceeds the maximum of {}",
                    Self::MAX_THREADS
                ));
            }
            let shards = f.opt("shards")?.unwrap_or(1);
            if shards == 0 {
                return Err("platform field 'shards' must be an integer ≥ 1 fitting u32".into());
            }
            let detection = match f.opt::<&Json>("detection")? {
                None => Detection::Perfect,
                Some(doc) => {
                    let detection = doc.read("platform detection", |d| {
                        Ok(Detection::BoundedSig {
                            bits: d.req("bits")?,
                            hashes: d.req("hashes")?,
                            capacity: d.req("capacity")?,
                        })
                    })?;
                    detection
                        .validate()
                        .map_err(|e| format!("platform detection: {e}"))?;
                    detection
                }
            };
            Ok(Self {
                cpus: cpus as usize,
                threads: threads as usize,
                seed: f.req("seed")?,
                shards,
                detection,
            })
        })
    }
}

/// Which cost model a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostKind {
    /// Hardware-TM costs ([`TmRunConfig::new`]), the paper's platform.
    Htm,
    /// Software-TM costs ([`TmRunConfig::stm_like`]), the adaptation
    /// study.
    Stm,
}

impl CostKind {
    /// Stable serialisation key.
    pub fn key(self) -> &'static str {
        match self {
            CostKind::Htm => "htm",
            CostKind::Stm => "stm",
        }
    }

    /// Parses a [`CostKind::key`] back.
    pub fn from_key(key: &str) -> Option<Self> {
        match key {
            "htm" => Some(CostKind::Htm),
            "stm" => Some(CostKind::Stm),
            _ => None,
        }
    }

    /// The engine configuration this cost flavour selects.
    pub fn run_config(self, cpus: usize, threads: usize, seed: u64) -> TmRunConfig {
        match self {
            CostKind::Htm => TmRunConfig::new(cpus, threads).seed(seed),
            CostKind::Stm => TmRunConfig::stm_like(cpus, threads).seed(seed),
        }
    }
}

/// The seven contention-manager configurations of the paper's Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ManagerKind {
    /// Reactive randomised backoff.
    Backoff,
    /// Proactive Transaction Scheduling (Blake et al.).
    Pts,
    /// Adaptive Transaction Scheduling (Yoo & Lee).
    Ats,
    /// BFGTS, all-software.
    BfgtsSw,
    /// BFGTS with the hardware predictor.
    BfgtsHw,
    /// BFGTS-HW gated by conflict pressure.
    BfgtsHwBackoff,
    /// Idealised BFGTS: free scheduling ops, perfect signatures.
    BfgtsNoOverhead,
}

impl ManagerKind {
    /// All managers in the paper's presentation order (Figure 4 legend).
    pub const ALL: [ManagerKind; 7] = [
        ManagerKind::Backoff,
        ManagerKind::Pts,
        ManagerKind::Ats,
        ManagerKind::BfgtsSw,
        ManagerKind::BfgtsHw,
        ManagerKind::BfgtsHwBackoff,
        ManagerKind::BfgtsNoOverhead,
    ];

    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            ManagerKind::Backoff => "Backoff",
            ManagerKind::Pts => "PTS",
            ManagerKind::Ats => "ATS",
            ManagerKind::BfgtsSw => "BFGTS-SW",
            ManagerKind::BfgtsHw => "BFGTS-HW",
            ManagerKind::BfgtsHwBackoff => "BFGTS-HW/Backoff",
            ManagerKind::BfgtsNoOverhead => "BFGTS-NoOverhead",
        }
    }

    /// Stable serialisation key (scenario JSON).
    pub fn key(self) -> &'static str {
        match self {
            ManagerKind::Backoff => "backoff",
            ManagerKind::Pts => "pts",
            ManagerKind::Ats => "ats",
            ManagerKind::BfgtsSw => "bfgts-sw",
            ManagerKind::BfgtsHw => "bfgts-hw",
            ManagerKind::BfgtsHwBackoff => "bfgts-hw-backoff",
            ManagerKind::BfgtsNoOverhead => "bfgts-no-overhead",
        }
    }

    /// Parses a [`ManagerKind::key`] back.
    pub fn from_key(key: &str) -> Option<Self> {
        ManagerKind::ALL.into_iter().find(|k| k.key() == key)
    }

    /// Whether this manager actually consults the Bloom geometry: only
    /// the Bloom-signature BFGTS variants do (PTS carries its own fixed
    /// 2048-bit filters and the idealised variant uses perfect
    /// signatures).
    pub fn uses_bloom(self) -> bool {
        matches!(
            self,
            ManagerKind::BfgtsSw | ManagerKind::BfgtsHw | ManagerKind::BfgtsHwBackoff
        )
    }

    /// Instantiates the manager with the given Bloom filter size (BFGTS
    /// variants only; baselines ignore it except PTS, which always uses
    /// its fixed 2048-bit filters).
    pub fn build(self, bloom_bits: u32) -> Box<dyn ContentionManager> {
        self.build_with_faults(bloom_bits, None)
    }

    /// Like [`ManagerKind::build`], but arms the BFGTS variants with a
    /// manager-level fault plan (DESIGN.md §9). Baselines have no Bloom
    /// signatures or confidence table to sabotage, so they ignore the
    /// plan — which is exactly what the degradation bound compares
    /// against.
    pub fn build_with_faults(
        self,
        bloom_bits: u32,
        faults: Option<CmFaults>,
    ) -> Box<dyn ContentionManager> {
        let bfgts = |cfg: BfgtsConfig| -> Box<dyn ContentionManager> {
            match faults {
                Some(faults) => Box::new(BfgtsCm::with_faults(cfg, faults)),
                None => Box::new(BfgtsCm::new(cfg)),
            }
        };
        match self {
            ManagerKind::Backoff => Box::new(BackoffCm::default()),
            ManagerKind::Pts => Box::new(PtsCm::default()),
            ManagerKind::Ats => Box::new(AtsCm::default()),
            ManagerKind::BfgtsSw => bfgts(BfgtsConfig::sw().bloom_bits(bloom_bits)),
            ManagerKind::BfgtsHw => bfgts(BfgtsConfig::hw().bloom_bits(bloom_bits)),
            ManagerKind::BfgtsHwBackoff => bfgts(BfgtsConfig::hw_backoff().bloom_bits(bloom_bits)),
            ManagerKind::BfgtsNoOverhead => bfgts(BfgtsConfig::no_overhead()),
        }
    }

    /// The best-performing Bloom filter size per benchmark, measured by
    /// this reproduction's Figure 6 sweep (`bfgts_run --report
    /// fig6_bloom_sweep`). As in the paper (§5.2), the headline results
    /// use each benchmark's optimal size. The paper's qualitative
    /// findings hold: overhead-sensitive
    /// benchmarks peak at 512 bits, Delaunay/Genome tolerate larger
    /// filters, and the pressure-gated hybrid is much less sensitive and
    /// prefers larger filters than plain BFGTS-HW (notably on Vacation).
    pub fn optimal_bloom_bits(self, benchmark: &str) -> u32 {
        let hybrid = matches!(self, ManagerKind::BfgtsHwBackoff);
        match (benchmark, hybrid) {
            ("Delaunay", true) => 512,
            ("Delaunay", false) => 2048,
            ("Genome", _) => 1024,
            ("Vacation", true) => 2048,
            ("Intruder", true) => 2048,
            ("Labyrinth", true) => 1024,
            _ => 512,
        }
    }
}

/// Stable serialisation key of a BFGTS flavour. Matches the fuzz
/// campaign's historical repro keys.
pub fn variant_key(variant: BfgtsVariant) -> &'static str {
    match variant {
        BfgtsVariant::Sw => "sw",
        BfgtsVariant::Hw => "hw",
        BfgtsVariant::HwBackoff => "hw_backoff",
        BfgtsVariant::NoOverhead => "no_overhead",
    }
}

/// Parses a [`variant_key`] back.
pub fn variant_from_key(key: &str) -> Option<BfgtsVariant> {
    match key {
        "sw" => Some(BfgtsVariant::Sw),
        "hw" => Some(BfgtsVariant::Hw),
        "hw_backoff" => Some(BfgtsVariant::HwBackoff),
        "no_overhead" => Some(BfgtsVariant::NoOverhead),
        _ => None,
    }
}

/// Serialises a BFGTS configuration: every field, with the Bloom size
/// present only for Bloom signatures.
fn bfgts_to_json(cfg: &BfgtsConfig) -> Json {
    let mut pairs = vec![
        ("kind", Json::Str("bfgts".into())),
        ("similarity_weighting", Json::Bool(cfg.similarity_weighting)),
        (
            "small_tx_interval",
            Json::UInt(u64::from(cfg.small_tx_interval)),
        ),
        ("variant", Json::Str(variant_key(cfg.variant).into())),
    ];
    if let Some(bits) = cfg.bloom_bits_get() {
        pairs.push(("bloom_bits", Json::UInt(u64::from(bits))));
    }
    if let Some(slots) = cfg.alias_slots {
        pairs.push(("alias_slots", Json::UInt(u64::from(slots))));
    }
    Json::obj(pairs)
}

/// Parses [`bfgts_to_json`]'s fields back. An absent `bloom_bits` keeps
/// the variant's default signature.
fn bfgts_from_json(f: &mut Fields) -> Result<BfgtsConfig, String> {
    let variant = variant_from_key(f.req("variant")?)
        .ok_or("bfgts manager needs a 'variant' of sw|hw|hw_backoff|no_overhead")?;
    let mut cfg = BfgtsConfig::new(variant);
    if let Some(bits) = ManagerSpec::opt_bloom_bits(f)? {
        cfg = cfg.bloom_bits(bits);
    }
    cfg.small_tx_interval = f.req("small_tx_interval")?;
    // The aliased confidence table is a dense slots × slots square, the
    // unaliased one is at most (MAX_STX + 1)²: aliasing only ever
    // shrinks it, so MAX_STX bounds the slot count as it bounds sTxIDs.
    cfg.alias_slots = match f.opt("alias_slots")? {
        Some(slots) if !(1..=MAX_STX).contains(&slots) => {
            return Err(format!(
                "manager field 'alias_slots' must be in 1..={MAX_STX}, got {slots}"
            ))
        }
        slots => slots,
    };
    cfg.similarity_weighting = f.req("similarity_weighting")?;
    Ok(cfg)
}

/// The contention-manager half of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ManagerSpec {
    /// The serial baseline: the same total work on 1 CPU / 1 thread
    /// under plain Backoff (no conflicts are possible, so the manager
    /// choice is irrelevant and adds zero overhead).
    Serial,
    /// A roster manager; `bloom_bits: None` selects the workload's
    /// measured-optimal size at execution time.
    Kind {
        /// Which roster manager.
        kind: ManagerKind,
        /// Explicit Bloom geometry (the Figure 6 sweep), or `None` for
        /// the per-benchmark optimum.
        bloom_bits: Option<u32>,
    },
    /// A BFGTS flavour with an explicit configuration (interval sweep,
    /// aliasing and similarity ablations, fuzz campaign cells).
    Bfgts(BfgtsConfig),
    /// The Polka-style investment baseline (extended roster).
    Polka,
    /// The stall-on-abort baseline (extended roster).
    Stall,
    /// The window-based randomized greedy baseline (extended roster,
    /// arXiv:1002.4182). `None` tunables select the manager defaults
    /// and stay absent from the canonical JSON, so pre-window scenario
    /// ids are untouched by this schema extension.
    WindowGreedy {
        /// Commits per execution window, or `None` for the default.
        window_size: Option<u32>,
        /// Losing-side backoff quantum in cycles, or `None` for the
        /// default.
        base_delay: Option<u32>,
    },
    /// The balanced-workload greedy baseline (extended roster,
    /// arXiv:1009.0056): remaining-work hints win conflicts, windows
    /// pace the randomized tie-break.
    BalancedGreedy {
        /// Commits per execution window, or `None` for the default.
        window_size: Option<u32>,
    },
}

impl ManagerSpec {
    /// The largest Bloom signature, in bits, a scenario's manager may
    /// ask for.
    ///
    /// The scheduler builds a signature of this size per transaction
    /// and its cost model charges the signature algebra per 64-bit word,
    /// so a size must be a whole, non-zero number of words: the filter
    /// and its estimator panic on anything else. Parsing rejects such a
    /// size and anything above this bound, so an untrusted document can
    /// neither panic a run nor make every transaction begin allocate an
    /// outsized filter. This is the largest size the Figure 6 sweep
    /// evaluates.
    pub const MAX_BLOOM_BITS: u32 = 8192;

    /// A human-readable label for result tables and error messages.
    pub fn label(&self) -> String {
        match self {
            ManagerSpec::Serial => "Serial".to_string(),
            ManagerSpec::Kind { kind, bloom_bits } => match bloom_bits {
                Some(bits) => format!("{} ({bits}b)", kind.label()),
                None => kind.label().to_string(),
            },
            ManagerSpec::Bfgts(cfg) => cfg.variant.label().to_string(),
            ManagerSpec::Polka => "Polka".to_string(),
            ManagerSpec::Stall => "Stall".to_string(),
            ManagerSpec::WindowGreedy { window_size, .. } => match window_size {
                Some(w) => format!("WindowGreedy (w{w})"),
                None => "WindowGreedy".to_string(),
            },
            ManagerSpec::BalancedGreedy { window_size } => match window_size {
                Some(w) => format!("BalancedGreedy (w{w})"),
                None => "BalancedGreedy".to_string(),
            },
        }
    }

    /// Instantiates the described manager. `workload_name` selects the
    /// measured-optimal Bloom geometry when none is pinned; `faults` arms
    /// BFGTS variants with manager-level fault injection.
    ///
    /// Every variant builds from data, so the result is always `Some`.
    /// The `Option` stays because out-of-workspace callers (the
    /// `perfbench` harness) unwrap it with `.expect`.
    pub fn build(
        &self,
        workload_name: &str,
        faults: Option<CmFaults>,
    ) -> Option<Box<dyn ContentionManager>> {
        match self {
            ManagerSpec::Serial => Some(Box::new(BackoffCm::default())),
            ManagerSpec::Kind { kind, bloom_bits } => {
                let bits = bloom_bits.unwrap_or_else(|| kind.optimal_bloom_bits(workload_name));
                Some(kind.build_with_faults(bits, faults))
            }
            ManagerSpec::Bfgts(cfg) => Some(match faults {
                Some(faults) => Box::new(BfgtsCm::with_faults(*cfg, faults)),
                None => Box::new(BfgtsCm::new(*cfg)),
            }),
            ManagerSpec::Polka => Some(Box::new(PolkaCm::default())),
            ManagerSpec::Stall => Some(Box::new(StallCm::default())),
            ManagerSpec::WindowGreedy {
                window_size,
                base_delay,
            } => {
                let defaults = WindowGreedyConfig::default();
                Some(Box::new(WindowGreedyCm::new(WindowGreedyConfig {
                    window_size: window_size.unwrap_or(defaults.window_size),
                    base_delay: base_delay.map_or(defaults.base_delay, u64::from),
                })))
            }
            ManagerSpec::BalancedGreedy { window_size } => {
                Some(Box::new(BalancedGreedyCm::new(BalancedGreedyConfig {
                    window_size: window_size.unwrap_or(BalancedGreedyConfig::default().window_size),
                })))
            }
        }
    }

    fn to_json(&self) -> Json {
        match self {
            ManagerSpec::Serial => Json::obj([("kind", Json::Str("serial".into()))]),
            ManagerSpec::Kind { kind, bloom_bits } => {
                let mut pairs = vec![
                    ("kind", Json::Str("roster".into())),
                    ("manager", Json::Str(kind.key().into())),
                ];
                if let Some(bits) = bloom_bits {
                    pairs.push(("bloom_bits", Json::UInt(u64::from(*bits))));
                }
                Json::obj(pairs)
            }
            ManagerSpec::Bfgts(cfg) => bfgts_to_json(cfg),
            ManagerSpec::Polka => Json::obj([("kind", Json::Str("polka".into()))]),
            ManagerSpec::Stall => Json::obj([("kind", Json::Str("stall".into()))]),
            ManagerSpec::WindowGreedy {
                window_size,
                base_delay,
            } => {
                // Default tunables serialise away (absent-key protocol):
                // a defaults-only spec prints as {"kind":"window_greedy"}.
                let mut pairs = vec![("kind", Json::Str("window_greedy".into()))];
                if let Some(w) = window_size {
                    pairs.push(("window_size", Json::UInt(u64::from(*w))));
                }
                if let Some(d) = base_delay {
                    pairs.push(("base_delay", Json::UInt(u64::from(*d))));
                }
                Json::obj(pairs)
            }
            ManagerSpec::BalancedGreedy { window_size } => {
                let mut pairs = vec![("kind", Json::Str("balanced_greedy".into()))];
                if let Some(w) = window_size {
                    pairs.push(("window_size", Json::UInt(u64::from(*w))));
                }
                Json::obj(pairs)
            }
        }
    }

    /// Parses [`ManagerSpec::to_json`] back. An absent optional tunable
    /// means "use the manager default" and never re-serialises.
    fn from_json(value: &Json) -> Result<Self, String> {
        value.read("manager", |f| {
            Ok(match f.req::<&str>("kind")? {
                "serial" => ManagerSpec::Serial,
                "roster" => ManagerSpec::Kind {
                    kind: ManagerKind::from_key(f.req("manager")?)
                        .ok_or("roster manager needs a known 'manager' key")?,
                    bloom_bits: Self::opt_bloom_bits(f)?,
                },
                "bfgts" => ManagerSpec::Bfgts(bfgts_from_json(f)?),
                "polka" => ManagerSpec::Polka,
                "stall" => ManagerSpec::Stall,
                "window_greedy" => ManagerSpec::WindowGreedy {
                    window_size: f.opt("window_size")?,
                    base_delay: f.opt("base_delay")?,
                },
                "balanced_greedy" => ManagerSpec::BalancedGreedy {
                    window_size: f.opt("window_size")?,
                },
                other => return Err(format!("unknown manager kind '{other}'")),
            })
        })
    }

    /// An optional `bloom_bits`, checked against
    /// [`ManagerSpec::MAX_BLOOM_BITS`].
    fn opt_bloom_bits(f: &mut Fields) -> Result<Option<u32>, String> {
        let bits: Option<u32> = f.opt("bloom_bits")?;
        match bits {
            Some(b) if !b.is_multiple_of(64) || !(64..=Self::MAX_BLOOM_BITS).contains(&b) => {
                Err(format!(
                    "manager field 'bloom_bits' must be a multiple of 64 in 64..={}, got {b}",
                    Self::MAX_BLOOM_BITS
                ))
            }
            _ => Ok(bits),
        }
    }
}

/// The workload half of a scenario. Named presets and adversarial
/// generators serialise by `(name, total_txs)`; anything else carries
/// its full class mix inline.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// A STAMP-like preset ([`presets::by_name`]), possibly rescaled.
    Preset {
        /// Canonical preset name (e.g. `"Kmeans"`).
        name: String,
        /// Total dynamic transactions across all threads.
        total_txs: u64,
    },
    /// A named adversarial generator ([`AdversarialSpec::all`]),
    /// possibly rescaled.
    Adversarial {
        /// Generator name (e.g. `"adv-hotspot-skew"`).
        name: String,
        /// Total dynamic transactions across all threads.
        total_txs: u64,
    },
    /// A fully inline benchmark: the class mix travels with the
    /// scenario.
    Inline {
        /// Display name of the workload.
        name: String,
        /// Total dynamic transactions across all threads.
        total_txs: u64,
        /// The static transactions.
        classes: Vec<TxClass>,
    },
}

/// A workload resolved back into a runnable specification.
#[derive(Debug, Clone)]
pub enum ResolvedWorkload {
    /// A benchmark spec ([`BenchmarkSpec::sources`]).
    Benchmark(BenchmarkSpec),
    /// An adversarial generator ([`AdversarialSpec::sources`]).
    Adversarial(AdversarialSpec),
}

impl ResolvedWorkload {
    /// The workload's display name.
    pub fn name(&self) -> &str {
        match self {
            ResolvedWorkload::Benchmark(spec) => &spec.name,
            ResolvedWorkload::Adversarial(spec) => spec.name,
        }
    }
}

impl WorkloadSpec {
    /// Describes `spec`: a preset reference when the name and class mix
    /// match a known preset exactly, otherwise the full inline form.
    pub fn from_benchmark(spec: &BenchmarkSpec) -> Self {
        if let Some(preset) = presets::by_name(&spec.name) {
            if preset.name == spec.name && preset.classes[..] == spec.classes[..] {
                return WorkloadSpec::Preset {
                    name: spec.name.to_string(),
                    total_txs: spec.total_txs,
                };
            }
        }
        WorkloadSpec::Inline {
            name: spec.name.to_string(),
            total_txs: spec.total_txs,
            classes: spec.classes.to_vec(),
        }
    }

    /// Describes `spec` by generator name. The name must be one of
    /// [`AdversarialSpec::all`] for the description to resolve again.
    pub fn from_adversarial(spec: &AdversarialSpec) -> Self {
        WorkloadSpec::Adversarial {
            name: spec.name.to_string(),
            total_txs: spec.total_txs,
        }
    }

    /// The workload's display name.
    pub fn name(&self) -> &str {
        match self {
            WorkloadSpec::Preset { name, .. }
            | WorkloadSpec::Adversarial { name, .. }
            | WorkloadSpec::Inline { name, .. } => name,
        }
    }

    /// Total dynamic transactions across all threads.
    pub fn total_txs(&self) -> u64 {
        match self {
            WorkloadSpec::Preset { total_txs, .. }
            | WorkloadSpec::Adversarial { total_txs, .. }
            | WorkloadSpec::Inline { total_txs, .. } => *total_txs,
        }
    }

    /// Resolves the description back into a runnable workload.
    pub fn resolve(&self) -> Result<ResolvedWorkload, String> {
        match self {
            WorkloadSpec::Preset { name, total_txs } => {
                let mut spec = presets::by_name(name)
                    .ok_or_else(|| format!("unknown benchmark preset '{name}'"))?;
                spec.total_txs = *total_txs;
                Ok(ResolvedWorkload::Benchmark(spec))
            }
            WorkloadSpec::Adversarial { name, total_txs } => {
                let mut spec = AdversarialSpec::all()
                    .into_iter()
                    .find(|w| w.name == name)
                    .ok_or_else(|| format!("unknown adversarial generator '{name}'"))?;
                spec.total_txs = *total_txs;
                Ok(ResolvedWorkload::Adversarial(spec))
            }
            WorkloadSpec::Inline {
                name,
                total_txs,
                classes,
            } => {
                if classes.is_empty() {
                    return Err(format!("inline workload '{name}' has no classes"));
                }
                for class in classes {
                    class.validate().map_err(|e| format!("inline {e}"))?;
                }
                Ok(ResolvedWorkload::Benchmark(BenchmarkSpec {
                    name: name.clone().into(),
                    classes: Arc::from(classes.clone()),
                    total_txs: *total_txs,
                    expected: ExpectedProfile {
                        similarity: Vec::new(),
                        conflict_rows: Vec::new(),
                        backoff_contention: 0.0,
                    },
                }))
            }
        }
    }

    fn to_json(&self) -> Json {
        match self {
            WorkloadSpec::Preset { name, total_txs } => Json::obj([
                ("kind", Json::Str("preset".into())),
                ("name", Json::Str(name.clone())),
                ("total_txs", Json::UInt(*total_txs)),
            ]),
            WorkloadSpec::Adversarial { name, total_txs } => Json::obj([
                ("kind", Json::Str("adversarial".into())),
                ("name", Json::Str(name.clone())),
                ("total_txs", Json::UInt(*total_txs)),
            ]),
            WorkloadSpec::Inline {
                name,
                total_txs,
                classes,
            } => Json::obj([
                (
                    "classes",
                    Json::Arr(classes.iter().map(class_to_json).collect()),
                ),
                ("kind", Json::Str("inline".into())),
                ("name", Json::Str(name.clone())),
                ("total_txs", Json::UInt(*total_txs)),
            ]),
        }
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        value.read("workload", |f| {
            let name = f.req::<&str>("name")?.to_string();
            let total_txs = f.req("total_txs")?;
            Ok(match f.req::<&str>("kind")? {
                "preset" => WorkloadSpec::Preset { name, total_txs },
                "adversarial" => WorkloadSpec::Adversarial { name, total_txs },
                "inline" => WorkloadSpec::Inline {
                    name,
                    total_txs,
                    classes: f
                        .req::<Vec<&Json>>("classes")?
                        .into_iter()
                        .map(class_from_json)
                        .collect::<Result<_, _>>()?,
                },
                other => return Err(format!("unknown workload kind '{other}'")),
            })
        })
    }
}

fn region_to_json(region: Region) -> Json {
    Json::obj([
        ("base", Json::UInt(region.base)),
        ("lines", Json::UInt(region.lines)),
    ])
}

/// Reads [`region_to_json`]'s fields from `f`, whose object may carry
/// more (a shared random region's `kind`).
fn region_from_json(f: &mut Fields) -> Result<Region, String> {
    let lines = f.req("lines")?;
    if lines == 0 {
        return Err("region must contain at least one line".into());
    }
    Ok(Region::new(f.req("base")?, lines))
}

fn class_to_json(class: &TxClass) -> Json {
    let mut pairs = vec![
        (
            "pre_work",
            Json::Arr(vec![
                Json::UInt(class.pre_work.0),
                Json::UInt(class.pre_work.1),
            ]),
        ),
        ("private_hot", Json::UInt(class.private_hot as u64)),
        ("random_picks", Json::UInt(class.random_picks as u64)),
        (
            "random_region",
            match class.random_region {
                RandomRegion::Shared(region) => Json::obj([
                    ("base", Json::UInt(region.base)),
                    ("kind", Json::Str("shared".into())),
                    ("lines", Json::UInt(region.lines)),
                ]),
                RandomRegion::PerThread { lines } => Json::obj([
                    ("kind", Json::Str("per_thread".into())),
                    ("lines", Json::UInt(lines)),
                ]),
            },
        ),
        ("shared_picks", Json::UInt(class.shared_picks as u64)),
        ("shared_writes", Json::Bool(class.shared_writes)),
        ("stx", Json::UInt(u64::from(class.stx))),
        // f64s as bit patterns: the scenario hash is over the JSON text,
        // so the text must be byte-stable.
        ("weight_bits", Json::UInt(class.weight.to_bits())),
        ("write_frac_bits", Json::UInt(class.write_frac.to_bits())),
    ];
    if let Some(pool) = class.shared_pool {
        pairs.push(("shared_pool", region_to_json(pool)));
    }
    Json::obj(pairs)
}

fn class_from_json(value: &Json) -> Result<TxClass, String> {
    value.read("class", |f| {
        // Scheduler tables are indexed by sTxID, so an unbounded id is an
        // allocation request (see `MAX_STX`).
        let stx: u64 = f.req("stx")?;
        if stx > u64::from(MAX_STX) {
            return Err(format!(
                "class field 'stx' is {stx}, above the static transaction id bound {MAX_STX}"
            ));
        }
        let random_region = f.req::<&Json>("random_region")?;
        let random_region = random_region.read("random_region", |r| {
            Ok(match r.req::<&str>("kind")? {
                "shared" => RandomRegion::Shared(region_from_json(r)?),
                "per_thread" => RandomRegion::PerThread {
                    lines: r.req("lines")?,
                },
                _ => return Err("random_region needs a kind of shared|per_thread".into()),
            })
        })?;
        Ok(TxClass {
            stx: stx as u32,
            weight: f64::from_bits(f.req("weight_bits")?),
            private_hot: f.req("private_hot")?,
            shared_picks: f.req("shared_picks")?,
            shared_pool: f
                .opt::<&Json>("shared_pool")?
                .map(|pool| pool.read("shared_pool", region_from_json))
                .transpose()?,
            shared_writes: f.req("shared_writes")?,
            random_picks: f.req("random_picks")?,
            random_region,
            write_frac: f64::from_bits(f.req("write_frac_bits")?),
            pre_work: f.req("pre_work")?,
        })
    })
}

/// Serialises a fault to the repro/scenario JSON form.
pub fn fault_to_json(fault: &Fault) -> Json {
    match *fault {
        Fault::CostPerturb { max_percent } => Json::obj([
            ("kind", Json::Str("cost_perturb".into())),
            ("max_percent", Json::UInt(u64::from(max_percent))),
        ]),
        Fault::BloomCorrupt { rate_pct, bits } => Json::obj([
            ("kind", Json::Str("bloom_corrupt".into())),
            ("rate_pct", Json::UInt(u64::from(rate_pct))),
            ("bits", Json::UInt(u64::from(bits))),
        ]),
        Fault::ConfPoison { period, saturate } => Json::obj([
            ("kind", Json::Str("conf_poison".into())),
            ("period", Json::UInt(period)),
            ("saturate", Json::Bool(saturate)),
        ]),
    }
}

/// Parses a fault from its JSON form.
pub fn fault_from_json(value: &Json) -> Result<Fault, String> {
    let fault = value.read("fault", |f| {
        Ok(match f.req::<&str>("kind")? {
            "cost_perturb" => Fault::CostPerturb {
                max_percent: f.req("max_percent")?,
            },
            "bloom_corrupt" => Fault::BloomCorrupt {
                rate_pct: f.req("rate_pct")?,
                bits: f.req("bits")?,
            },
            "conf_poison" => Fault::ConfPoison {
                period: f.req("period")?,
                saturate: f.req("saturate")?,
            },
            other => return Err(format!("unknown fault kind '{other}'")),
        })
    })?;
    fault.validate()?;
    Ok(fault)
}

/// Serialises a fault plan to the repro/scenario JSON form.
pub fn plan_to_json(plan: &FaultPlan) -> Json {
    Json::obj([
        ("seed", Json::UInt(plan.seed)),
        (
            "faults",
            Json::Arr(plan.faults.iter().map(fault_to_json).collect()),
        ),
    ])
}

/// Parses a fault plan from its JSON form.
pub fn plan_from_json(value: &Json) -> Result<FaultPlan, String> {
    value.read("fault plan", |f| {
        Ok(FaultPlan {
            seed: f.req("seed")?,
            faults: f
                .req::<Vec<&Json>>("faults")?
                .into_iter()
                .map(fault_from_json)
                .collect::<Result<_, _>>()?,
        })
    })
}

/// Serialises one arrival process to its scenario JSON form (a
/// `"kind"`-discriminated object, like faults and workloads).
pub fn process_to_json(process: &ArrivalProcess) -> Json {
    match *process {
        ArrivalProcess::Poisson { mean_gap } => Json::obj([
            ("kind", Json::Str("poisson".into())),
            ("mean_gap", Json::UInt(mean_gap)),
        ]),
        ArrivalProcess::Bursty {
            burst,
            gap_in,
            gap_out,
        } => Json::obj([
            ("burst", Json::UInt(burst as u64)),
            ("gap_in", Json::UInt(gap_in)),
            ("gap_out", Json::UInt(gap_out)),
            ("kind", Json::Str("bursty".into())),
        ]),
        ArrivalProcess::Diurnal {
            period,
            peak_gap,
            trough_gap,
        } => Json::obj([
            ("kind", Json::Str("diurnal".into())),
            ("peak_gap", Json::UInt(peak_gap)),
            ("period", Json::UInt(period)),
            ("trough_gap", Json::UInt(trough_gap)),
        ]),
    }
}

/// Decodes one arrival process; [`arrivals_from_json`] validates it
/// with the rest of the spec.
fn process_from_json(value: &Json) -> Result<ArrivalProcess, String> {
    value.read("arrival process", |f| {
        Ok(match f.req::<&str>("kind")? {
            "poisson" => ArrivalProcess::Poisson {
                mean_gap: f.req("mean_gap")?,
            },
            "bursty" => ArrivalProcess::Bursty {
                burst: f.req("burst")?,
                gap_in: f.req("gap_in")?,
                gap_out: f.req("gap_out")?,
            },
            "diurnal" => ArrivalProcess::Diurnal {
                period: f.req("period")?,
                peak_gap: f.req("peak_gap")?,
                trough_gap: f.req("trough_gap")?,
            },
            other => return Err(format!("unknown arrival process kind '{other}'")),
        })
    })
}

/// Serialises an arrival spec (the open-system half of a scenario).
pub fn arrivals_to_json(spec: &ArrivalSpec) -> Json {
    Json::obj([
        (
            "per_stx",
            Json::Arr(
                spec.per_stx
                    .iter()
                    .map(|(stx, process)| {
                        Json::Arr(vec![Json::UInt(*stx as u64), process_to_json(process)])
                    })
                    .collect(),
            ),
        ),
        ("process", process_to_json(&spec.process)),
    ])
}

/// Parses an arrival spec and checks it with [`ArrivalSpec::validate`],
/// which also holds the canonical strictly-increasing override order.
pub fn arrivals_from_json(value: &Json) -> Result<ArrivalSpec, String> {
    let spec = value.read("arrivals", |f| {
        Ok(ArrivalSpec {
            process: process_from_json(f.req("process")?)?,
            per_stx: f
                .req::<Vec<(u32, &Json)>>("per_stx")?
                .into_iter()
                .map(|(stx, process)| Ok((stx, process_from_json(process)?)))
                .collect::<Result<_, String>>()?,
        })
    })?;
    spec.validate()?;
    Ok(spec)
}

fn trace_to_json(mode: TraceMode) -> Json {
    match mode {
        TraceMode::Off => Json::Str("off".into()),
        TraceMode::Full => Json::Str("full".into()),
        TraceMode::Ring(cap) => Json::obj([("ring", Json::UInt(cap as u64))]),
    }
}

fn trace_from_json(value: &Json) -> Result<TraceMode, String> {
    match value {
        Json::Str(s) if s == "off" => Ok(TraceMode::Off),
        Json::Str(s) if s == "full" => Ok(TraceMode::Full),
        obj @ Json::Obj(_) => {
            let cap = obj.read("trace", |f| f.req("ring"))?;
            // Matches TraceSink::new, which rejects zero-capacity rings.
            if cap == 0 {
                return Err("ring trace mode needs a capacity >= 1 (use \"off\")".into());
            }
            Ok(TraceMode::Ring(cap))
        }
        _ => Err("trace mode must be \"off\", \"full\" or {\"ring\": N}".into()),
    }
}

/// One run, described completely: platform, cost flavour, workload,
/// manager, optional fault plan and trace mode. The canonical JSON text
/// of the [canonicalised](Scenario::canonical) value is what the content
/// hash — the run's identity — commits to.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// CPUs / threads / master seed.
    pub platform: Platform,
    /// Cost-model flavour.
    pub costs: CostKind,
    /// The workload.
    pub workload: WorkloadSpec,
    /// The contention-manager configuration.
    pub manager: ManagerSpec,
    /// Optional fault-injection plan (DESIGN.md §9). Serial baselines
    /// always run clean.
    pub faults: Option<FaultPlan>,
    /// Optional open-system arrival spec (DESIGN.md §12). `None` is the
    /// closed (batch) system every scenario before this field described;
    /// like `faults`, the key is serialised only when present, so every
    /// historical scenario id is unchanged.
    pub arrivals: Option<ArrivalSpec>,
    /// The event-recording mode the run is meant to execute with.
    /// Descriptive for summary-producing paths (which choose their own
    /// recording), binding for trace/fingerprint paths.
    pub trace: TraceMode,
}

impl Scenario {
    /// A clean HTM scenario with no tracing.
    pub fn new(workload: WorkloadSpec, manager: ManagerSpec, platform: Platform) -> Self {
        Self {
            platform,
            costs: CostKind::Htm,
            workload,
            manager,
            faults: None,
            arrivals: None,
            trace: TraceMode::Off,
        }
    }

    /// The canonical form equal runs map to: serial baselines pin the
    /// 1×1 unsharded platform shape and drop fault plans (they always
    /// run clean),
    /// empty fault plans normalise to none, Bloom geometry is dropped
    /// from managers that never consult it, and a BFGTS signature is
    /// re-derived from its variant and Bloom size (so e.g. an explicit
    /// Bloom size on the perfect-signature variant cannot mint a second
    /// identity for the same run). Arrival specs pass through
    /// untouched — unlike faults they change *what* runs, not how it is
    /// perturbed, so even a serial baseline keeps them.
    pub fn canonical(mut self) -> Self {
        if let ManagerSpec::Kind { kind, bloom_bits } = &mut self.manager {
            if !kind.uses_bloom() {
                *bloom_bits = None;
            }
        }
        if let ManagerSpec::Bfgts(cfg) = &mut self.manager {
            // Only the Bloom size is serialised: re-derive the signature
            // from the variant and that size, exactly as parsing does.
            let base = BfgtsConfig::new(cfg.variant);
            cfg.signature = match cfg.bloom_bits_get() {
                Some(bits) => base.bloom_bits(bits).signature,
                None => base.signature,
            };
        }
        if matches!(self.manager, ManagerSpec::Serial) {
            self.platform.cpus = 1;
            self.platform.threads = 1;
            // A serial execution has no conflict detection to shard, so
            // the shard count cannot change its outcome. Detection is
            // pinned to Perfect for the same reason faults are dropped:
            // the serial baseline is the *ideal* single-CPU reference
            // every speedup divides by, so it never pays capacity
            // aborts (the runner's serial path ignores both knobs).
            self.platform.shards = 1;
            self.platform.detection = Detection::Perfect;
            self.faults = None;
        }
        if self.faults.as_ref().is_some_and(FaultPlan::is_empty) {
            self.faults = None;
        }
        self
    }

    /// Serialises to the canonical scenario JSON document.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("costs", Json::Str(self.costs.key().into())),
            ("manager", self.manager.to_json()),
            ("platform", self.platform.to_json()),
            ("trace", trace_to_json(self.trace)),
            ("version", Json::UInt(SCENARIO_VERSION)),
            ("workload", self.workload.to_json()),
        ];
        if let Some(plan) = &self.faults {
            pairs.push(("faults", plan_to_json(plan)));
        }
        if let Some(spec) = &self.arrivals {
            pairs.push(("arrivals", arrivals_to_json(spec)));
        }
        Json::obj(pairs)
    }

    /// Parses a scenario from its JSON document.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        value.read("scenario", |f| {
            let version: u64 = f.req("version")?;
            if version != SCENARIO_VERSION {
                return Err(format!(
                    "scenario version {version} unsupported (expected {SCENARIO_VERSION})"
                ));
            }
            Ok(Self {
                platform: Platform::from_json(f.req("platform")?)?,
                costs: CostKind::from_key(f.req("costs")?)
                    .ok_or("scenario needs a 'costs' of htm|stm")?,
                workload: WorkloadSpec::from_json(f.req("workload")?)?,
                manager: ManagerSpec::from_json(f.req("manager")?)?,
                faults: f.opt("faults")?.map(plan_from_json).transpose()?,
                arrivals: f.opt("arrivals")?.map(arrivals_from_json).transpose()?,
                trace: trace_from_json(f.req("trace")?)?,
            })
        })
    }

    /// The two FNV-1a digests over the canonical JSON text of the
    /// canonicalised scenario.
    pub fn content_hash(&self) -> (u64, u64) {
        let text = self.clone().canonical().to_json().to_string();
        (fnv1a(&text, 0), fnv1a(&text, FNV_TWEAK))
    }

    /// The run identity: both content-hash digests as 32 hex digits.
    /// Equal ids mean equal canonicalised descriptors — this string is
    /// what cache keys, repro files and trace headers agree on.
    pub fn id(&self) -> String {
        let (a, b) = self.content_hash();
        format!("{a:016x}{b:016x}")
    }
}

/// Serialises a scenario list as a JSON array (the `--emit` format).
pub fn scenarios_to_json(scenarios: &[Scenario]) -> Json {
    Json::Arr(scenarios.iter().map(Scenario::to_json).collect())
}

/// Parses a scenario file: either a single scenario object or an array
/// of them.
pub fn scenarios_from_json(value: &Json) -> Result<Vec<Scenario>, String> {
    match value {
        Json::Arr(items) => items.iter().map(Scenario::from_json).collect(),
        obj @ Json::Obj(_) => Ok(vec![Scenario::from_json(obj)?]),
        _ => Err("a scenario document must be a JSON object or an array of objects".into()),
    }
}

/// Parses a scenario file from raw text.
pub fn scenarios_from_str(text: &str) -> Result<Vec<Scenario>, String> {
    scenarios_from_json(&Json::parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfgts_faultsim::{MAX_CORRUPT_BITS, MAX_PERTURB_PERCENT};
    use bfgts_workloads::MAX_CLASS_ACCESSES;

    fn sample() -> Scenario {
        Scenario::new(
            WorkloadSpec::Preset {
                name: "Kmeans".into(),
                total_txs: 400,
            },
            ManagerSpec::Kind {
                kind: ManagerKind::BfgtsHw,
                bloom_bits: None,
            },
            Platform::small(),
        )
    }

    #[test]
    fn json_round_trips_to_a_fixed_point() {
        let mut scenarios = vec![
            sample(),
            Scenario::new(
                WorkloadSpec::Adversarial {
                    name: "adv-hotspot-skew".into(),
                    total_txs: 200,
                },
                ManagerSpec::Bfgts(BfgtsConfig::hw_backoff().bloom_bits(512)),
                Platform::paper(),
            ),
            Scenario::new(
                WorkloadSpec::from_benchmark(&presets::kmeans().scaled(0.01)),
                ManagerSpec::Serial,
                Platform::small(),
            ),
        ];
        scenarios[1].faults = Some(FaultPlan::randomized(7));
        scenarios[1].trace = TraceMode::Full;
        for scenario in &scenarios {
            let text = scenario.to_json().to_string();
            let parsed = Scenario::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(&parsed, scenario);
            assert_eq!(parsed.to_json().to_string(), text, "fixed point");
            assert_eq!(parsed.id(), scenario.id());
        }
    }

    #[test]
    fn inline_workloads_round_trip_and_resolve() {
        let spec = {
            let mut spec = presets::kmeans().scaled(0.01);
            spec.name = "Kmeans-modified".into();
            spec
        };
        let workload = WorkloadSpec::from_benchmark(&spec);
        assert!(matches!(workload, WorkloadSpec::Inline { .. }));
        let scenario = Scenario::new(
            workload,
            ManagerSpec::Kind {
                kind: ManagerKind::Backoff,
                bloom_bits: None,
            },
            Platform::small(),
        );
        let text = scenario.to_json().to_string();
        let parsed = Scenario::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, scenario);
        match parsed.workload.resolve().unwrap() {
            ResolvedWorkload::Benchmark(resolved) => {
                assert_eq!(resolved.name, "Kmeans-modified");
                assert_eq!(resolved.total_txs, spec.total_txs);
                assert_eq!(resolved.classes[..], spec.classes[..]);
            }
            other => panic!("resolved to {other:?}"),
        }
    }

    #[test]
    fn stx_above_the_bound_is_a_parse_error() {
        let with_stx = |stx: u32| {
            let mut spec = presets::kmeans().scaled(0.01);
            let mut classes = spec.classes.to_vec();
            classes[0].stx = stx;
            spec.classes = Arc::from(classes);
            let scenario = Scenario::new(
                WorkloadSpec::from_benchmark(&spec),
                ManagerSpec::Kind {
                    kind: ManagerKind::BfgtsHw,
                    bloom_bits: None,
                },
                Platform::small(),
            );
            let text = scenario.to_json().to_string();
            (scenario, Scenario::from_json(&Json::parse(&text).unwrap()))
        };
        let (at_bound, parsed) = with_stx(MAX_STX);
        assert_eq!(parsed.unwrap(), at_bound);
        assert!(at_bound.workload.resolve().is_ok());
        for hostile in [MAX_STX + 1, u32::MAX] {
            let (built, parsed) = with_stx(hostile);
            let err = parsed.unwrap_err();
            assert!(err.contains("static transaction id bound 1024"), "{err}");
            // A programmatic spec is held to the same bound at resolve.
            assert!(built.workload.resolve().is_err());
        }
    }

    #[test]
    fn class_sizes_above_the_bound_are_rejected() {
        // Each instance allocates its access list, so an inline class of
        // 10^12 accesses must fail at resolve, field by field and in sum,
        // and a sum past usize::MAX must not wrap into a valid size.
        let resolve = |private_hot, shared_picks, random_picks| {
            let class = TxClass {
                stx: 3,
                weight: 1.0,
                private_hot,
                shared_picks,
                shared_pool: Some(Region::new(0x100, 64)),
                shared_writes: true,
                random_picks,
                random_region: RandomRegion::PerThread { lines: 1024 },
                write_frac: 0.5,
                pre_work: (0, 10),
            };
            WorkloadSpec::Inline {
                name: "sized".into(),
                total_txs: 10,
                classes: vec![class],
            }
            .resolve()
        };
        let max = MAX_CLASS_ACCESSES;
        for ok in [(max, 0, 0), (0, max, 0), (0, 0, max), (max - 2, 1, 1)] {
            assert!(resolve(ok.0, ok.1, ok.2).is_ok(), "{ok:?}");
        }
        for (sizes, field) in [
            ((max + 1, 0, 0), "'private_hot' is 4097"),
            ((0, max + 1, 0), "'shared_picks' is 4097"),
            ((0, 0, max + 1), "'random_picks' is 4097"),
            ((1_000_000_000_000, 0, 0), "'private_hot' is 1000000000000"),
            ((0, 1_000_000_000_000, 0), "'shared_picks' is 1000000000000"),
            ((0, 0, 1_000_000_000_000), "'random_picks' is 1000000000000"),
            ((max - 1, 1, 1), "'size' is 4097"),
            (
                (usize::MAX, usize::MAX, 2),
                "'private_hot' is 18446744073709551615",
            ),
        ] {
            let err = resolve(sizes.0, sizes.1, sizes.2).unwrap_err();
            assert!(err.contains(field), "{err}");
            assert!(err.contains("above the class bound 4096"), "{err}");
        }
    }

    #[test]
    fn every_preset_and_adversarial_class_is_within_the_class_bound() {
        let preset_classes = presets::all().into_iter().flat_map(|b| b.classes.to_vec());
        let adversarial_classes = AdversarialSpec::all()
            .into_iter()
            .flat_map(|a| a.phases)
            .flat_map(|phase| phase.to_vec());
        let classes: Vec<TxClass> = preset_classes.chain(adversarial_classes).collect();
        // Every rule, the pre_work span included, accepts every class in
        // use.
        for class in &classes {
            assert_eq!(class.validate(), Ok(()), "{class:?}");
        }
        let largest = classes.iter().map(TxClass::size).max();
        assert_eq!(largest, Some(229));
        assert!(largest <= Some(MAX_CLASS_ACCESSES));
    }

    #[test]
    fn platform_above_the_bounds_is_a_parse_error() {
        let parse = |cpus: usize, threads: usize| {
            let mut scenario = sample();
            scenario.platform.cpus = cpus;
            scenario.platform.threads = threads;
            Scenario::from_json(&scenario.to_json()).map(|s| s.platform)
        };
        let at_bound = parse(Platform::MAX_CPUS, Platform::MAX_THREADS).unwrap();
        assert_eq!(at_bound.cpus, Platform::MAX_CPUS);
        assert_eq!(at_bound.threads, Platform::MAX_THREADS);
        for (cpus, threads, field) in [
            (Platform::MAX_CPUS + 1, 8, "'cpus' 4097"),
            (1_000_000_000_000, 8, "'cpus' 1000000000000"),
            (4, Platform::MAX_THREADS + 1, "'threads' 16385"),
            (4, usize::MAX, "'threads' 18446744073709551615"),
        ] {
            let err = parse(cpus, threads).unwrap_err();
            assert!(err.contains(field), "{err}");
            assert!(err.contains("exceeds the maximum"), "{err}");
        }
    }

    #[test]
    fn manager_and_fault_bounds_accept_their_edges() {
        let parse = |manager: ManagerSpec, faults: Option<FaultPlan>| {
            let mut scenario = sample();
            scenario.manager = manager;
            scenario.faults = faults;
            Scenario::from_json(&scenario.to_json())
        };
        let roster = |bits| ManagerSpec::Kind {
            kind: ManagerKind::BfgtsHw,
            bloom_bits: Some(bits),
        };
        for bits in [64, ManagerSpec::MAX_BLOOM_BITS] {
            assert!(parse(roster(bits), None).is_ok(), "{bits} bits");
            let tuned = ManagerSpec::Bfgts(BfgtsConfig::hw().bloom_bits(bits));
            assert!(parse(tuned, None).is_ok(), "{bits} bits");
        }
        for bits in [0, 32, 100, ManagerSpec::MAX_BLOOM_BITS + 64] {
            assert!(parse(roster(bits), None).is_err(), "{bits} bits");
        }
        for (slots, ok) in [(0, false), (1, true), (MAX_STX, true), (MAX_STX + 1, false)] {
            let tuned = ManagerSpec::Bfgts(BfgtsConfig::hw().with_alias_slots(slots));
            assert_eq!(parse(tuned, None).is_ok(), ok, "{slots} slots");
        }
        let perturb = |max_percent| Fault::CostPerturb { max_percent };
        let corrupt = |rate_pct, bits| Fault::BloomCorrupt { rate_pct, bits };
        for (fault, ok) in [
            (perturb(MAX_PERTURB_PERCENT), true),
            (perturb(MAX_PERTURB_PERCENT + 1), false),
            (corrupt(100, MAX_CORRUPT_BITS), true),
            (corrupt(101, 16), false),
            (corrupt(60, MAX_CORRUPT_BITS + 1), false),
            (corrupt(60, u32::MAX), false),
        ] {
            let plan = FaultPlan::new(1).fault(fault);
            let manager = ManagerSpec::Kind {
                kind: ManagerKind::Backoff,
                bloom_bits: None,
            };
            assert_eq!(parse(manager, Some(plan)).is_ok(), ok, "{fault:?}");
        }
    }

    #[test]
    fn preset_detection_requires_matching_classes() {
        let spec = presets::kmeans().scaled(0.25);
        assert!(matches!(
            WorkloadSpec::from_benchmark(&spec),
            WorkloadSpec::Preset { .. }
        ));
        let mut tweaked = spec;
        let mut classes = tweaked.classes.to_vec();
        classes[0].private_hot += 1;
        tweaked.classes = Arc::from(classes);
        assert!(matches!(
            WorkloadSpec::from_benchmark(&tweaked),
            WorkloadSpec::Inline { .. }
        ));
    }

    #[test]
    fn canonicalisation_collapses_equal_runs() {
        // Serial baselines ignore the platform shape.
        let mut a = sample();
        a.manager = ManagerSpec::Serial;
        let mut b = a.clone();
        b.platform = Platform::paper();
        b.platform.seed = a.platform.seed;
        b.faults = Some(FaultPlan::new(3));
        assert_eq!(a.id(), b.id());
        // An explicit Bloom size on the perfect-signature variant is
        // inert and must not mint a second identity.
        let c = Scenario::new(
            a.workload.clone(),
            ManagerSpec::Bfgts(BfgtsConfig::no_overhead().bloom_bits(512)),
            Platform::small(),
        );
        let d = Scenario::new(
            a.workload.clone(),
            ManagerSpec::Bfgts(BfgtsConfig::no_overhead()),
            Platform::small(),
        );
        assert_eq!(c.id(), d.id());
        // Bloom geometry on a manager that never consults it is inert.
        let e = Scenario::new(
            a.workload.clone(),
            ManagerSpec::Kind {
                kind: ManagerKind::Backoff,
                bloom_bits: Some(4096),
            },
            Platform::small(),
        );
        let f = Scenario::new(
            a.workload.clone(),
            ManagerSpec::Kind {
                kind: ManagerKind::Backoff,
                bloom_bits: None,
            },
            Platform::small(),
        );
        assert_eq!(e.id(), f.id());
    }

    #[test]
    fn distinct_inputs_get_distinct_ids() {
        let base = sample();
        let mut variants = vec![base.clone()];
        let mut v = base.clone();
        v.platform.seed ^= 1;
        variants.push(v);
        let mut v = base.clone();
        v.costs = CostKind::Stm;
        variants.push(v);
        let mut v = base.clone();
        v.manager = ManagerSpec::Kind {
            kind: ManagerKind::BfgtsHw,
            bloom_bits: Some(8192),
        };
        variants.push(v);
        let mut v = base.clone();
        v.faults = Some(FaultPlan::randomized(3));
        variants.push(v);
        let mut v = base.clone();
        v.faults = Some(FaultPlan::randomized(4));
        variants.push(v);
        let mut v = base.clone();
        v.workload = WorkloadSpec::Preset {
            name: "Kmeans".into(),
            total_txs: 401,
        };
        variants.push(v);
        let mut v = base.clone();
        v.trace = TraceMode::Full;
        variants.push(v);
        let mut v = base.clone();
        v.platform = v.platform.sharded(4);
        variants.push(v);
        let ids: std::collections::BTreeSet<String> = variants.iter().map(Scenario::id).collect();
        assert_eq!(ids.len(), variants.len(), "colliding ids");
    }

    #[test]
    fn manager_kind_keys_round_trip() {
        for kind in ManagerKind::ALL {
            assert_eq!(ManagerKind::from_key(kind.key()), Some(kind));
        }
        assert_eq!(ManagerKind::from_key("turbo"), None);
        for variant in [
            BfgtsVariant::Sw,
            BfgtsVariant::Hw,
            BfgtsVariant::HwBackoff,
            BfgtsVariant::NoOverhead,
        ] {
            assert_eq!(variant_from_key(variant_key(variant)), Some(variant));
        }
    }

    #[test]
    fn build_produces_matching_names() {
        for kind in ManagerKind::ALL {
            assert_eq!(kind.build(2048).name(), kind.label());
        }
    }

    #[test]
    fn custom_managers_are_rejected_at_parse_time() {
        // Every manager is data: there is no opaque, tag-only kind.
        let mut doc = sample().to_json();
        if let Json::Obj(map) = &mut doc {
            map.insert(
                "manager".into(),
                Json::obj([
                    ("kind", Json::Str("custom".into())),
                    ("tag", Json::Str("x".into())),
                ]),
            );
        }
        let err = Scenario::from_json(&doc).unwrap_err();
        assert!(err.contains("unknown manager kind 'custom'"), "{err}");
        assert!(ManagerSpec::Polka.build("Kmeans", None).is_some());
    }

    #[test]
    fn scenario_files_accept_object_or_array() {
        let one = sample();
        let solo = scenarios_from_str(&one.to_json().to_string()).unwrap();
        assert_eq!(solo, vec![one.clone()]);
        let many = scenarios_from_str(&scenarios_to_json(&[one.clone(), one.clone()]).to_string())
            .unwrap();
        assert_eq!(many.len(), 2);
        assert!(scenarios_from_str("42").is_err());
        assert!(scenarios_from_str("{}").is_err());
    }

    #[test]
    fn ring_zero_trace_mode_rejected() {
        // Regression: {"ring": 0} used to parse and then be silently
        // clamped to Ring(1) by the sink.
        let mut doc = sample().to_json();
        if let Json::Obj(map) = &mut doc {
            map.insert("trace".into(), Json::obj([("ring", Json::UInt(0))]));
        }
        let err = Scenario::from_json(&doc).unwrap_err();
        assert!(err.contains("capacity >= 1"), "{err}");
        if let Json::Obj(map) = &mut doc {
            map.insert("trace".into(), Json::obj([("ring", Json::UInt(1))]));
        }
        assert!(Scenario::from_json(&doc).is_ok());
    }

    #[test]
    fn zero_sized_inline_regions_rejected() {
        let zero_random = TxClass {
            stx: 0,
            weight: 1.0,
            private_hot: 1,
            shared_picks: 0,
            shared_pool: None,
            shared_writes: false,
            random_picks: 2,
            random_region: RandomRegion::PerThread { lines: 0 },
            write_frac: 0.0,
            pre_work: (0, 0),
        };
        let workload = WorkloadSpec::Inline {
            name: "degenerate".into(),
            total_txs: 10,
            classes: vec![zero_random],
        };
        let err = workload.resolve().unwrap_err();
        assert!(err.contains("empty region"), "{err}");
    }

    /// An open spec exercising all three processes plus overrides.
    fn open_spec() -> ArrivalSpec {
        ArrivalSpec::poisson(1500)
            .with_override(
                1,
                ArrivalProcess::Bursty {
                    burst: 4,
                    gap_in: 10,
                    gap_out: 900,
                },
            )
            .with_override(
                3,
                ArrivalProcess::Diurnal {
                    period: 40_000,
                    peak_gap: 200,
                    trough_gap: 2_000,
                },
            )
    }

    #[test]
    fn open_scenarios_round_trip_to_a_fixed_point() {
        let mut scenario = sample();
        scenario.arrivals = Some(open_spec());
        let text = scenario.to_json().to_string();
        let parsed = Scenario::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, scenario);
        assert_eq!(parsed.to_json().to_string(), text, "fixed point");
        assert_eq!(parsed.id(), scenario.id());
    }

    #[test]
    fn absent_arrivals_serialise_to_no_key_at_all() {
        // The shards/faults identity protocol: a closed-system scenario
        // must serialise exactly as it did before the field existed, so
        // every historical id, cache entry and trace header stays valid.
        let closed = sample();
        assert!(!closed.to_json().to_string().contains("arrivals"));
        let mut open = closed.clone();
        open.arrivals = Some(ArrivalSpec::poisson(1000));
        assert_ne!(open.id(), closed.id(), "arrivals must be part of the id");
        let mut other = closed.clone();
        other.arrivals = Some(ArrivalSpec::poisson(1001));
        assert_ne!(other.id(), open.id(), "the mean gap is part of the id");
        // Serial canonicalisation keeps arrivals: an open serial baseline
        // is a different run from a closed one.
        let mut serial = open.clone();
        serial.manager = ManagerSpec::Serial;
        assert_eq!(serial.clone().canonical().arrivals, open.arrivals);
    }

    #[test]
    fn absent_detection_serialises_to_no_key_at_all() {
        // Same identity protocol as shards/faults/arrivals: perfect
        // detection — the only semantics any pre-capacity scenario ever
        // had — serialises without the key, so every historical id,
        // cache entry and trace header stays valid.
        let perfect = sample();
        assert!(!perfect.to_json().to_string().contains("detection"));
        let mut bounded = perfect.clone();
        bounded.platform = bounded.platform.bounded(256, 2, 48);
        assert_ne!(bounded.id(), perfect.id(), "detection must be in the id");
        let mut other = perfect.clone();
        other.platform = other.platform.bounded(256, 2, 49);
        assert_ne!(other.id(), bounded.id(), "capacity is part of the id");
        let text = bounded.to_json().to_string();
        let parsed = Scenario::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, bounded);
        assert_eq!(parsed.to_json().to_string(), text, "fixed point");
        // Serial canonicalisation pins Perfect: the serial baseline is
        // the ideal reference and never pays capacity aborts.
        let mut serial = bounded.clone();
        serial.manager = ManagerSpec::Serial;
        let mut serial_perfect = perfect.clone();
        serial_perfect.manager = ManagerSpec::Serial;
        assert_eq!(serial.id(), serial_perfect.id());
    }

    #[test]
    fn invalid_detection_documents_are_rejected_not_panicked() {
        let bounded = {
            let mut s = sample();
            s.platform = s.platform.bounded(128, 2, 16);
            s
        };
        let patch = |key: &str, value: u64| {
            let mut doc = bounded.to_json();
            if let Json::Obj(map) = &mut doc {
                if let Some(Json::Obj(platform)) = map.get_mut("platform") {
                    if let Some(Json::Obj(detection)) = platform.get_mut("detection") {
                        detection.insert(key.into(), Json::UInt(value));
                    }
                }
            }
            Scenario::from_json(&doc)
        };
        assert!(patch("bits", 63).unwrap_err().contains("bits"));
        assert!(patch("bits", 8192).unwrap_err().contains("bits"));
        assert!(patch("hashes", 0).unwrap_err().contains("hash"));
        assert!(patch("hashes", 17).unwrap_err().contains("hash"));
        assert!(patch("capacity", 0).unwrap_err().contains("capacity"));
    }

    #[test]
    fn invalid_arrival_documents_are_rejected_not_panicked() {
        let mut base = sample();
        base.arrivals = Some(ArrivalSpec::poisson(1000));
        let patch = |process: Json| {
            let mut doc = base.to_json();
            if let Json::Obj(map) = &mut doc {
                map.insert(
                    "arrivals".into(),
                    Json::obj([("per_stx", Json::Arr(vec![])), ("process", process)]),
                );
            }
            Scenario::from_json(&doc)
        };
        let poisson0 = patch(Json::obj([
            ("kind", Json::Str("poisson".into())),
            ("mean_gap", Json::UInt(0)),
        ]));
        assert!(poisson0.unwrap_err().contains("mean_gap"));
        let bursty0 = patch(Json::obj([
            ("burst", Json::UInt(2)),
            ("gap_in", Json::UInt(5)),
            ("gap_out", Json::UInt(0)),
            ("kind", Json::Str("bursty".into())),
        ]));
        assert!(bursty0.unwrap_err().contains("gap_out"));
        let inverted = patch(Json::obj([
            ("kind", Json::Str("diurnal".into())),
            ("peak_gap", Json::UInt(500)),
            ("period", Json::UInt(100)),
            ("trough_gap", Json::UInt(100)),
        ]));
        assert!(inverted.unwrap_err().contains("trough_gap"));
        assert!(patch(Json::obj([("kind", Json::Str("steady".into()))]))
            .unwrap_err()
            .contains("unknown arrival process kind"));
        // Out-of-order overrides are non-canonical: reject, don't sort.
        let dup = arrivals_from_json(&Json::obj([
            (
                "per_stx",
                Json::Arr(vec![
                    Json::Arr(vec![
                        Json::UInt(2),
                        process_to_json(&ArrivalProcess::Poisson { mean_gap: 7 }),
                    ]),
                    Json::Arr(vec![
                        Json::UInt(2),
                        process_to_json(&ArrivalProcess::Poisson { mean_gap: 9 }),
                    ]),
                ]),
            ),
            (
                "process",
                process_to_json(&ArrivalProcess::Poisson { mean_gap: 5 }),
            ),
        ]));
        assert!(dup.unwrap_err().contains("strictly increasing"));
    }

    #[test]
    fn unknown_names_and_versions_are_rejected() {
        let mut bad = sample();
        bad.workload = WorkloadSpec::Preset {
            name: "NoSuchBench".into(),
            total_txs: 10,
        };
        assert!(bad.workload.resolve().is_err());
        let mut doc = sample().to_json();
        if let Json::Obj(map) = &mut doc {
            map.insert("version".into(), Json::UInt(99));
        }
        assert!(Scenario::from_json(&doc).is_err());
        // Every object rejects a key no read asked for, and a boolean is
        // read only from a boolean: each document errs naming its key.
        let mut bounded = sample();
        bounded.platform = bounded.platform.bounded(256, 2, 16);
        let mut classes = presets::kmeans().classes.to_vec();
        classes[0].shared_writes = true;
        let mut inline = sample();
        inline.workload = WorkloadSpec::Inline {
            name: "inline".into(),
            total_txs: 10,
            classes,
        };
        let mut poisoned = sample();
        poisoned.faults = Some(FaultPlan::new(1).fault(Fault::ConfPoison {
            period: 5,
            saturate: true,
        }));
        for (scenario, from, to, key) in [
            (sample(), "\"costs\"", "\"extra\":1,\"costs\"", "'extra'"),
            (bounded, "\"detection\"", "\"detecton\"", "'detecton'"),
            (
                inline,
                "\"shared_writes\":true",
                "\"shared_writes\":1",
                "'shared_writes'",
            ),
            (
                poisoned,
                "\"saturate\":true",
                "\"saturate\":\"yes\"",
                "'saturate'",
            ),
        ] {
            let text = scenario.to_json().to_string();
            assert!(text.contains(from), "{text}");
            let err = scenarios_from_str(&text.replacen(from, to, 1)).unwrap_err();
            assert!(err.contains(key), "{key}: {err}");
        }
    }
}
