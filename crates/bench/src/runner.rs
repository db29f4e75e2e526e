//! The parallel experiment runner.
//!
//! Every figure and table of the paper is a grid of *independent,
//! deterministic* simulations: a benchmark spec × a contention manager ×
//! a Bloom geometry × a seed. Each cell's outcome depends only on its own
//! inputs (fixed seeds, per-run RNG streams), which makes the grid
//! embarrassingly parallel with bitwise-identical results regardless of
//! execution order. This module exploits that:
//!
//! * [`RunCell`] describes one cell declaratively; reports and scenario
//!   files build their whole grid up front and call [`run_grid`].
//! * [`run_grid`] executes cells across a [`std::thread::scope`] worker
//!   pool (an atomic work index hands out jobs; `--jobs N` sets the pool
//!   size) and reassembles [`CellSummary`] results in grid order, so the
//!   printed output is byte-identical to a sequential run. The fuzz
//!   campaign shares the same pool.
//! * Cells with identical cache keys are computed once per grid — the
//!   serial baselines every benchmark needs are therefore memoised
//!   automatically instead of being re-simulated per manager.
//! * Completed cells are persisted to `results/cache/<hash>.json`
//!   (hand-rolled JSON, see [`crate::json`]); re-running a report after a
//!   code-irrelevant change skips finished cells. `--no-cache` bypasses
//!   the cache, and bumping [`CACHE_VERSION`] invalidates it wholesale.
//! * Under `--audit`, [`run_grid_audited`] runs each distinct cell once,
//!   fully traced, and audits its recording in the same worker, so the
//!   summary and the audit come from one simulation. `--trace` implies
//!   `--audit`, and its file is written from that same recording.
//!
//! Since cache version 2 a cell *is* a [`Scenario`] (DESIGN.md §10): the
//! cache key is the scenario's content hash, `--emit` dumps any grid as
//! a scenario file, and `bfgts_run` executes such files through this
//! same runner. [`RunCell::execute_report`] is the one place a run
//! description becomes a simulation: grid cells, scenario files, served
//! requests and fuzz-campaign cells all execute through it.
//!
//! Floating-point statistics are cached as `u64` bit patterns, so a
//! cache hit reproduces the fresh run's output byte for byte.

use crate::json::Json;
use crate::trace_export::{chrome_trace_path, write_trace_files};
use crate::{CommonArgs, ManagerKind, Platform};
use bfgts_baselines::BackoffCm;
use bfgts_faultsim::FaultPlan;
use bfgts_htm::{try_run_workload, ContentionManager, LatencyDigest, TmRunReport};
use bfgts_scenario::{fnv1a, ManagerSpec, ResolvedWorkload, Scenario, WorkloadSpec};
use bfgts_sim::{Bucket, RunError, TimeBuckets, TraceMode};
use bfgts_trace::{AuditSummary, Violation};
use bfgts_workloads::{open_sources, ArrivalSpec, BenchmarkSpec};
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

pub use bfgts_scenario::CostKind;

/// Bump to invalidate every cached cell (e.g. after a change to the
/// simulator, the cost model or the summary layout). Version 2 moved the
/// key to the scenario content hash; version 3 added the optional
/// open-system latency digest to the summary layout.
pub const CACHE_VERSION: u64 = 3;

/// One cell of an experiment grid: a canonical [`Scenario`]. The
/// constructors below are shorthand for the common scenario shapes.
#[derive(Clone)]
pub struct RunCell {
    /// The complete, canonicalised run description. Its content hash is
    /// the cell's cache identity.
    pub scenario: Scenario,
}

impl RunCell {
    /// A cell running `spec` under `kind` with its optimal Bloom size.
    pub fn one(spec: &BenchmarkSpec, kind: ManagerKind, platform: Platform) -> Self {
        Self::with_manager(
            spec,
            platform,
            ManagerSpec::Kind {
                kind,
                bloom_bits: None,
            },
        )
    }

    /// A cell running `spec` under `kind` with an explicit Bloom size.
    pub fn with_bloom(
        spec: &BenchmarkSpec,
        kind: ManagerKind,
        platform: Platform,
        bits: u32,
    ) -> Self {
        Self::with_manager(
            spec,
            platform,
            ManagerSpec::Kind {
                kind,
                bloom_bits: Some(bits),
            },
        )
    }

    /// A cell running `spec` under any structured manager configuration
    /// (the interval sweep, the ablations, the extended roster).
    pub fn with_manager(spec: &BenchmarkSpec, platform: Platform, manager: ManagerSpec) -> Self {
        Self {
            scenario: Scenario::new(WorkloadSpec::from_benchmark(spec), manager, platform)
                .canonical(),
        }
    }

    /// The serial baseline cell for `spec` (1 CPU / 1 thread).
    pub fn serial(spec: &BenchmarkSpec, platform: Platform) -> Self {
        Self::with_manager(spec, platform, ManagerSpec::Serial)
    }

    /// A cell executing `scenario` exactly as described. Fails on a
    /// workload that does not resolve (unknown preset name, invalid
    /// inline class).
    pub fn from_scenario(scenario: Scenario) -> Result<Self, String> {
        scenario.workload.resolve()?;
        Ok(Self {
            scenario: scenario.canonical(),
        })
    }

    /// Switches the cell to software-TM costs.
    pub fn stm(mut self) -> Self {
        self.scenario.costs = CostKind::Stm;
        self
    }

    /// Arms the cell with the randomized fault plan derived from `seed`.
    pub fn faulted(mut self, seed: u64) -> Self {
        self.scenario.faults = Some(FaultPlan::randomized(seed));
        self.scenario = self.scenario.canonical();
        self
    }

    /// Switches the cell to open-system mode: transactions stream in
    /// under `spec`'s arrival processes instead of being queued up front.
    pub fn open(mut self, spec: ArrivalSpec) -> Self {
        self.scenario.arrivals = Some(spec);
        self.scenario = self.scenario.canonical();
        self
    }

    /// The canonical cache key: the scenario's content hash under the
    /// current cache version. Every input that can change the outcome is
    /// committed to the hash through the canonical scenario JSON.
    pub fn cache_key(&self) -> String {
        format!("v{CACHE_VERSION}|scenario:{}", self.scenario.id())
    }

    /// Runs the cell to completion (no caching).
    pub fn execute(&self) -> CellSummary {
        CellSummary::from_report(&self.execute_report(TraceMode::Off))
    }

    /// Runs the cell with the given trace mode and returns the full run
    /// report. Never consults the cell cache — a cached summary has no
    /// event recording, and the recording is the point.
    ///
    /// # Panics
    ///
    /// Panics with the engine's [`RunError`] on a deadlock or a run past
    /// the cell's `max_cycles`.
    pub fn execute_report(&self, trace: TraceMode) -> TmRunReport {
        self.try_execute_report(trace)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`RunCell::execute_report`], but a deadlock or a run past the
    /// cell's `max_cycles` comes back as an `Err`: a scenario from
    /// untrusted input (an arrival gap beyond the cycle budget, say) gets
    /// an error, not a crash.
    pub fn try_execute_report(&self, trace: TraceMode) -> Result<TmRunReport, RunError> {
        let scenario = &self.scenario;
        let seed = scenario.platform.seed;
        let resolved = scenario
            .workload
            .resolve()
            .expect("cell workloads resolve (checked at construction for scenario files)");
        if matches!(scenario.manager, ManagerSpec::Serial) {
            // Serial baselines stay clean even under --faults: a
            // perturbed denominator would make every speedup
            // incomparable across plans. Arrival specs are kept — an
            // open serial baseline answers "what latency would a single
            // CPU sustain under this offered load".
            let cfg = scenario.costs.run_config(1, 1, seed).trace(trace);
            let cm: Box<dyn ContentionManager> = Box::new(BackoffCm::default());
            return dispatch_sources(&cfg, resolved, scenario.arrivals.as_ref(), seed, 1, cm);
        }
        let plan = scenario.faults.as_ref();
        let mut cfg = scenario
            .costs
            .run_config(scenario.platform.cpus, scenario.platform.threads, seed)
            .shards(scenario.platform.shards)
            .detection(scenario.platform.detection)
            .trace(trace);
        if let Some(plan) = plan {
            let pct = plan.cost_percent();
            if pct > 0 {
                cfg = cfg.perturb_costs(plan.seed, pct);
            }
            // On capacity-limited hardware a BloomCorrupt fault also
            // flips live detection-signature bits (traced per begin).
            if scenario.platform.detection.is_bounded() {
                if let Some((rate_pct, bits)) = plan.bloom_corrupt() {
                    cfg = cfg.detection_fault(u64::from(rate_pct), bits, plan.seed);
                }
            }
        }
        let cm = scenario
            .manager
            .build(resolved.name(), plan.and_then(FaultPlan::cm_faults))
            .expect("every manager builds from data");
        let threads = scenario.platform.threads;
        dispatch_sources(
            &cfg,
            resolved,
            scenario.arrivals.as_ref(),
            seed,
            threads,
            cm,
        )
    }
}

/// Builds the per-thread sources a resolved workload describes — wrapped
/// into [`open_sources`] streams when an arrival spec is present — and
/// runs them. The arrival streams derive from the run's master seed, so
/// the schedule is pinned by the scenario id like every other input.
fn dispatch_sources(
    cfg: &bfgts_htm::TmRunConfig,
    resolved: ResolvedWorkload,
    arrivals: Option<&ArrivalSpec>,
    seed: u64,
    threads: usize,
    cm: Box<dyn ContentionManager>,
) -> Result<TmRunReport, RunError> {
    match (resolved, arrivals) {
        (ResolvedWorkload::Benchmark(spec), None) => {
            try_run_workload(cfg, spec.sources(threads), cm)
        }
        (ResolvedWorkload::Benchmark(spec), Some(arrivals)) => {
            try_run_workload(cfg, open_sources(spec.sources(threads), arrivals, seed), cm)
        }
        (ResolvedWorkload::Adversarial(spec), None) => {
            try_run_workload(cfg, spec.sources(threads), cm)
        }
        (ResolvedWorkload::Adversarial(spec), Some(arrivals)) => {
            try_run_workload(cfg, open_sources(spec.sources(threads), arrivals, seed), cm)
        }
    }
}

/// The persistable summary of one completed cell: everything the
/// reports print, in exactly-round-trippable form.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// Name of the contention manager that ran.
    pub cm_name: String,
    /// Parallel makespan in cycles.
    pub makespan: u64,
    /// Whole-run cycle accounting summed over threads (Figure 5).
    pub buckets: TimeBuckets,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// NACK stalls that did not abort.
    pub stalls: u64,
    /// Per-static-transaction `(stx, commits, aborts)`, sorted by stx.
    pub per_stx: Vec<(u32, u64, u64)>,
    /// Observed conflict edges as normalised `(low, high)` pairs, sorted.
    pub conflict_edges: Vec<(u32, u32)>,
    /// Measured similarity per static transaction (only entries that
    /// committed at least twice), sorted by stx.
    pub similarity: Vec<(u32, f64)>,
    /// Open-system latency digest (sojourn percentiles + sustained
    /// throughput); `None` for closed (batch) runs.
    pub latency: Option<LatencyDigest>,
}

impl CellSummary {
    /// Summarises a full run report.
    pub fn from_report(report: &TmRunReport) -> Self {
        let stats = &report.stats;
        let per_stx = stats
            .stx_ids()
            .into_iter()
            .map(|stx| {
                let (c, a) = stats.stx_counts(stx);
                (stx.get(), c, a)
            })
            .collect();
        let similarity = stats
            .stx_ids()
            .into_iter()
            .filter_map(|stx| stats.measured_similarity(stx).map(|s| (stx.get(), s)))
            .collect();
        Self {
            cm_name: report.cm_name.to_string(),
            makespan: report.sim.makespan.as_u64(),
            buckets: report.sim.total(),
            commits: stats.commits(),
            aborts: stats.aborts(),
            stalls: stats.stalls(),
            per_stx,
            conflict_edges: stats
                .conflict_edges()
                .map(|(a, b)| (a.get(), b.get()))
                .collect(),
            similarity,
            latency: report.latency(),
        }
    }

    /// Speedup of this run over a serial makespan.
    pub fn speedup_over(&self, serial_makespan: u64) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            serial_makespan as f64 / self.makespan as f64
        }
    }

    /// Contention rate: aborted attempts over all attempts (Table 4).
    pub fn contention_rate(&self) -> f64 {
        let attempts = self.commits + self.aborts;
        if attempts == 0 {
            0.0
        } else {
            self.aborts as f64 / attempts as f64
        }
    }

    /// Fraction of all cycles in `bucket` (Figure 5).
    pub fn fraction(&self, bucket: Bucket) -> f64 {
        self.buckets.fraction(bucket)
    }

    /// Throughput proxy: commits per million cycles of makespan.
    pub fn commits_per_mcycle(&self) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            self.commits as f64 * 1.0e6 / self.makespan as f64
        }
    }

    /// The sTxIDs observed conflicting with `stx` (one row of Table 1).
    pub fn conflict_row(&self, stx: u32) -> Vec<u32> {
        let mut row: Vec<u32> = self
            .conflict_edges
            .iter()
            .filter_map(|&(a, b)| {
                if a == stx {
                    Some(b)
                } else if b == stx {
                    Some(a)
                } else {
                    None
                }
            })
            .collect();
        row.dedup();
        row
    }

    /// Measured similarity of `stx`, if it committed at least twice.
    pub fn measured_similarity(&self, stx: u32) -> Option<f64> {
        self.similarity
            .iter()
            .find(|(s, _)| *s == stx)
            .map(|(_, sim)| *sim)
    }

    fn to_json(&self, key: &str) -> Json {
        let mut pairs = vec![
            ("v", Json::UInt(CACHE_VERSION)),
            ("key", Json::Str(key.to_string())),
            ("cm_name", Json::Str(self.cm_name.clone())),
            ("makespan", Json::UInt(self.makespan)),
            (
                "buckets",
                Json::Arr(
                    Bucket::ALL
                        .iter()
                        .map(|&b| Json::UInt(self.buckets.get(b)))
                        .collect(),
                ),
            ),
            ("commits", Json::UInt(self.commits)),
            ("aborts", Json::UInt(self.aborts)),
            ("stalls", Json::UInt(self.stalls)),
            (
                "per_stx",
                Json::Arr(
                    self.per_stx
                        .iter()
                        .map(|&(stx, c, a)| {
                            Json::Arr(vec![Json::UInt(stx as u64), Json::UInt(c), Json::UInt(a)])
                        })
                        .collect(),
                ),
            ),
            (
                "conflict_edges",
                Json::Arr(
                    self.conflict_edges
                        .iter()
                        .map(|&(a, b)| Json::Arr(vec![Json::UInt(a as u64), Json::UInt(b as u64)]))
                        .collect(),
                ),
            ),
            (
                // f64 as IEEE-754 bit patterns: cache hits must reproduce
                // the fresh run's formatted output byte for byte.
                "similarity_bits",
                Json::Arr(
                    self.similarity
                        .iter()
                        .map(|&(stx, sim)| {
                            Json::Arr(vec![Json::UInt(stx as u64), Json::UInt(sim.to_bits())])
                        })
                        .collect(),
                ),
            ),
        ];
        // Mirrors the scenario's own protocol: closed runs serialise
        // exactly as they did before latency existed.
        if let Some(latency) = &self.latency {
            pairs.push(("latency", latency_to_json(latency)));
        }
        Json::obj(pairs)
    }

    /// Parses [`CellSummary::to_json`] back. The entry must have been
    /// written for `key` under the current [`CACHE_VERSION`]: a
    /// filename-hash collision or a stale entry is rejected, never
    /// silently trusted.
    fn from_json(value: &Json, key: &str) -> Result<Self, String> {
        value.read("cache entry", |f| {
            if f.req::<u64>("v")? != CACHE_VERSION || f.req::<&str>("key")? != key {
                return Err(format!("cache entry is not for {key}"));
            }
            let mut buckets = TimeBuckets::default();
            let cycles = f.req::<[u64; Bucket::COUNT]>("buckets")?;
            for (bucket, cycles) in Bucket::ALL.into_iter().zip(cycles) {
                buckets.charge(bucket, cycles);
            }
            let latency = f.opt::<&Json>("latency")?.map(|doc| {
                doc.read("latency", |l| {
                    Ok(LatencyDigest {
                        count: l.req("count")?,
                        total_cycles: l.req("total_cycles")?,
                        p50: l.req("p50")?,
                        p95: l.req("p95")?,
                        p99: l.req("p99")?,
                        tx_per_sec: f64::from_bits(l.req("tx_per_sec_bits")?),
                    })
                })
            });
            Ok(Self {
                cm_name: f.req::<&str>("cm_name")?.to_string(),
                makespan: f.req("makespan")?,
                buckets,
                commits: f.req("commits")?,
                aborts: f.req("aborts")?,
                stalls: f.req("stalls")?,
                per_stx: f.req("per_stx")?,
                conflict_edges: f.req("conflict_edges")?,
                similarity: f
                    .req::<Vec<(u32, u64)>>("similarity_bits")?
                    .into_iter()
                    .map(|(stx, bits)| (stx, f64::from_bits(bits)))
                    .collect(),
                latency: latency.transpose()?,
            })
        })
    }
}

/// The open-system latency digest as JSON, the one form the cell cache
/// and `bfgts_serve`'s summary rows both write. The throughput is stored
/// as its `f64` bit pattern, so cache hits and replays are byte-exact.
pub fn latency_to_json(latency: &LatencyDigest) -> Json {
    Json::obj([
        ("count", Json::UInt(latency.count)),
        ("p50", Json::UInt(latency.p50)),
        ("p95", Json::UInt(latency.p95)),
        ("p99", Json::UInt(latency.p99)),
        ("total_cycles", Json::UInt(latency.total_cycles)),
        ("tx_per_sec_bits", Json::UInt(latency.tx_per_sec.to_bits())),
    ])
}

/// Parses a scenario document (one scenario object or an array of them)
/// into executable cells. Errors start with `label`, and an entry whose
/// workload does not resolve is named by its index.
pub fn load_cells(label: &str, text: &str) -> Result<Vec<RunCell>, String> {
    bfgts_scenario::scenarios_from_str(text)
        .map_err(|e| format!("{label}: {e}"))?
        .into_iter()
        .enumerate()
        .map(|(i, scenario)| {
            RunCell::from_scenario(scenario).map_err(|e| format!("{label}: scenario {i}: {e}"))
        })
        .collect()
}

/// Execution options for [`run_grid`], usually derived from
/// [`CommonArgs`].
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// Worker threads. 0 or 1 runs the grid on the calling thread.
    pub jobs: usize,
    /// Cell cache directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        Self {
            jobs: default_jobs(),
            cache_dir: Some(PathBuf::from(DEFAULT_CACHE_DIR)),
        }
    }
}

/// Where completed cells are cached, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = "results/cache";

/// The default worker count: one per available hardware thread.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl RunnerOptions {
    /// Options selected by the common command-line flags.
    pub fn from_args(args: &CommonArgs) -> Self {
        Self {
            jobs: args.jobs,
            cache_dir: args.use_cache.then(|| PathBuf::from(DEFAULT_CACHE_DIR)),
        }
    }
}

/// Executes every cell of `cells` and returns their summaries in grid
/// order.
///
/// Cells with identical [`RunCell::cache_key`]s are simulated once and
/// the summary shared — the automatic memoisation of serial baselines.
/// With a cache directory, previously completed cells are loaded instead
/// of re-simulated and fresh results are persisted. Workers claim cells
/// through an atomic index; because each simulation is deterministic and
/// results are reassembled by position, the returned vector (and thus any
/// output printed from it) is identical for every `jobs` value.
pub fn run_grid(cells: &[RunCell], opts: &RunnerOptions) -> Vec<CellSummary> {
    run_distinct(cells, opts, |cell, key, disk| {
        if let Some(summary) = disk.and_then(|dir| load_cached(dir, key)) {
            return summary;
        }
        let summary = cell.execute();
        if let Some(dir) = disk {
            store_cached(dir, key, &summary);
        }
        summary
    })
}

/// [`run_grid`] with the accounting audit: each distinct cell runs once,
/// fully traced, in its worker, and its recording is replayed through
/// `bfgts_trace::audit` there before it is dropped, so a worker holds at
/// most one recording. Returns every cell's summary beside its audit
/// summary, in grid order, or the violations of the first failing cell
/// in grid order, each prefixed with that cell's cache key.
///
/// With `trace`, the worker that runs the grid's first parallel cell
/// (or, without one, its first cell) also writes that cell's audited
/// recording there ([`export_cell_trace`]).
///
/// The cache is never read, since a cached summary has no recording, but
/// each summary is stored as [`run_grid`] would store it; a traced run's
/// summary equals the untraced one.
pub fn run_grid_audited(
    cells: &[RunCell],
    opts: &RunnerOptions,
    trace: Option<&Path>,
) -> Result<Vec<(CellSummary, AuditSummary)>, Vec<Violation>> {
    let trace_key = trace.and(trace_cell(cells)).map(RunCell::cache_key);
    run_distinct(cells, opts, |cell, key, disk| {
        let report = cell.execute_report(TraceMode::Full);
        let summary = CellSummary::from_report(&report);
        if let Some(dir) = disk {
            store_cached(dir, key, &summary);
        }
        let audit = report.audit().map_err(|violations| {
            violations
                .into_iter()
                .map(|v| Violation {
                    what: format!("{key}: {}", v.what),
                    ..v
                })
                .collect::<Vec<_>>()
        })?;
        if let Some(path) = trace.filter(|_| trace_key.as_deref() == Some(key)) {
            match export_cell_trace(&report, &cell.scenario, path) {
                Ok(()) => eprintln!(
                    "trace: wrote {} and {}",
                    path.display(),
                    chrome_trace_path(path).display()
                ),
                Err(err) => eprintln!("warning: could not write {}: {err}", path.display()),
            }
        }
        Ok((summary, audit))
    })
    .into_iter()
    .collect()
}

/// The cell `--trace` records: the first parallel cell, which makes the
/// most interesting trace (serial baselines have no conflicts to look
/// at), or else the first cell.
fn trace_cell(cells: &[RunCell]) -> Option<&RunCell> {
    cells
        .iter()
        .find(|c| !matches!(c.scenario.manager, ManagerSpec::Serial))
        .or_else(|| cells.first())
}

/// Runs `run(cell, cache key, cache dir)` once per distinct cache key of
/// `cells`, across [`RunnerOptions::jobs`] workers, and returns one result
/// per grid cell, in grid order: duplicated cells share a clone of their
/// first occurrence's result.
fn run_distinct<T: Clone + Send + Sync>(
    cells: &[RunCell],
    opts: &RunnerOptions,
    run: impl Fn(&RunCell, &str, Option<&Path>) -> T + Sync,
) -> Vec<T> {
    let keys: Vec<String> = cells.iter().map(RunCell::cache_key).collect();
    // The distinct keys' first cell indices, in grid order, and each
    // cell's position in that list.
    let mut first_of: HashMap<&str, usize> = HashMap::new();
    let mut unique: Vec<usize> = Vec::new();
    let slots: Vec<usize> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| {
            *first_of.entry(key).or_insert_with(|| {
                unique.push(i);
                unique.len() - 1
            })
        })
        .collect();

    if let Some(dir) = &opts.cache_dir {
        // Best-effort: a read-only tree simply runs without persistence.
        let _ = std::fs::create_dir_all(dir);
    }
    let disk = opts.cache_dir.as_deref();
    let results = parallel_map(unique.len(), opts.jobs, |j| {
        run(&cells[unique[j]], &keys[unique[j]], disk)
    });
    slots.iter().map(|&j| results[j].clone()).collect()
}

/// Computes `task(i)` for every `i` in `0..n` and returns the results in
/// index order. With more than one job, `jobs` scoped workers claim
/// indices through an atomic counter; at `jobs <= 1` every task runs on
/// the calling thread. Because results are placed by index, the output
/// is identical for every `jobs` value whenever `task` is deterministic.
pub(crate) fn parallel_map<T: Send + Sync>(
    n: usize,
    jobs: usize,
    task: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let workers = jobs.min(n);
    if workers <= 1 {
        return (0..n).map(task).collect();
    }
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                assert!(slots[i].set(task(i)).is_ok(), "index {i} claimed twice");
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every index was claimed"))
        .collect()
}

/// Runs the grid with the options selected on the command line and, when
/// `--json PATH` was given, writes every cell summary there. Under
/// `--audit` the grid runs through [`run_grid_audited`]: each distinct
/// cell once, fully traced and audited in its worker, with every cell's
/// audit summary handed back beside the summaries; a violation exits 1.
/// `--trace PATH` implies `--audit`: the worker that audits the first
/// parallel cell writes its recording to disk. `--emit PATH` writes the
/// (fault-armed) grid as a scenario file and exits without running
/// anything.
pub fn run_grid_with_args(
    cells: &[RunCell],
    args: &CommonArgs,
) -> (Vec<CellSummary>, Option<Vec<AuditSummary>>) {
    // --faults arms every non-serial cell; the owned grid then feeds the
    // run, the audit and the trace export alike, so fault events show up
    // everywhere downstream.
    let armed: Vec<RunCell>;
    let cells: &[RunCell] = match args.faults {
        Some(seed) => {
            armed = cells
                .iter()
                .map(|cell| match cell.scenario.manager {
                    ManagerSpec::Serial => cell.clone(),
                    _ => cell.clone().faulted(seed),
                })
                .collect();
            &armed
        }
        None => cells,
    };
    if let Some(path) = &args.emit {
        match emit_scenarios(path, cells) {
            Ok(()) => {
                eprintln!(
                    "emit: wrote {} scenario(s) to {}",
                    cells.len(),
                    path.display()
                );
                std::process::exit(0);
            }
            Err(err) => {
                eprintln!("error: could not write {}: {err}", path.display());
                std::process::exit(2);
            }
        }
    }
    let opts = RunnerOptions::from_args(args);
    if args.trace.is_some() && cells.is_empty() {
        eprintln!("warning: --trace given but the grid has no cells");
    }
    let (results, audits) = if args.audit || args.trace.is_some() {
        match run_grid_audited(cells, &opts, args.trace.as_deref()) {
            Ok(audited) => {
                let (results, audits): (Vec<_>, Vec<_>) = audited.into_iter().unzip();
                eprintln!("audit: {}", clean_audit_line(cells, &audits));
                (results, Some(audits))
            }
            Err(violations) => {
                for v in violations.iter().take(10) {
                    eprintln!("audit violation: {v}");
                }
                eprintln!(
                    "error: accounting audit failed with {} violation(s)",
                    violations.len()
                );
                std::process::exit(1);
            }
        }
    } else {
        (run_grid(cells, &opts), None)
    };
    if let Some(path) = &args.json {
        if let Err(err) = write_grid_json(path, cells, &results) {
            eprintln!("warning: could not write {}: {err}", path.display());
        }
    }
    (results, audits)
}

/// The totals of a clean audited grid, over its distinct cells: "N cells
/// clean (E events, C confidence updates, B bloom samples verified)".
fn clean_audit_line(cells: &[RunCell], audits: &[AuditSummary]) -> String {
    let mut seen = BTreeSet::new();
    let distinct: Vec<&AuditSummary> = cells
        .iter()
        .zip(audits)
        .filter(|(cell, _)| seen.insert(cell.cache_key()))
        .map(|(_, audit)| audit)
        .collect();
    format!(
        "{} cells clean ({} events, {} confidence updates, {} bloom samples verified)",
        distinct.len(),
        distinct.iter().map(|a| a.events).sum::<usize>(),
        distinct.iter().map(|a| a.conf_updates).sum::<u64>(),
        distinct.iter().map(|a| a.bloom_samples).sum::<u64>()
    )
}

/// Streams the fully traced `report` of `scenario` as JSONL to `path`
/// plus a Chrome trace to [`chrome_trace_path`]. The JSONL header embeds
/// the scenario (with the trace mode it actually ran under), so the file
/// is self-describing: the run can be reproduced from the trace alone.
pub fn export_cell_trace(
    report: &TmRunReport,
    scenario: &Scenario,
    path: &Path,
) -> std::io::Result<()> {
    let inputs = report.audit_inputs();
    let mut scenario = scenario.clone();
    scenario.trace = TraceMode::Full;
    write_trace_files(path, &report.sim.trace, &inputs, Some(&scenario))
}

/// Writes `cells` as a scenario file (a JSON array in grid order, the
/// `--emit` format) that `bfgts_run` executes directly.
pub fn emit_scenarios(path: &Path, cells: &[RunCell]) -> std::io::Result<()> {
    let scenarios: Vec<Scenario> = cells.iter().map(|c| c.scenario.clone()).collect();
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(
        path,
        bfgts_scenario::scenarios_to_json(&scenarios).to_string() + "\n",
    )
}

/// Serialises a completed grid to `path` as a JSON document.
pub fn write_grid_json(
    path: &Path,
    cells: &[RunCell],
    results: &[CellSummary],
) -> std::io::Result<()> {
    let doc = Json::obj([
        ("version", Json::UInt(CACHE_VERSION)),
        (
            "cells",
            Json::Arr(
                cells
                    .iter()
                    .zip(results)
                    .map(|(cell, summary)| {
                        let mut entry = summary.to_json(&cell.cache_key());
                        if let Json::Obj(map) = &mut entry {
                            map.insert("scenario".to_string(), cell.scenario.to_json());
                        }
                        entry
                    })
                    .collect(),
            ),
        ),
    ]);
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, doc.to_string() + "\n")
}

fn cache_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!(
        "{:016x}{:016x}.json",
        fnv1a(key, 0),
        fnv1a(key, 0x9e37_79b9_7f4a_7c15)
    ))
}

fn load_cached(dir: &Path, key: &str) -> Option<CellSummary> {
    let text = std::fs::read_to_string(cache_path(dir, key)).ok()?;
    CellSummary::from_json(&Json::parse(&text).ok()?, key).ok()
}

fn store_cached(dir: &Path, key: &str, summary: &CellSummary) {
    let path = cache_path(dir, key);
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    // Best-effort persistence: failures only cost a future recompute.
    if std::fs::write(&tmp, summary.to_json(key).to_string() + "\n").is_ok() {
        let _ = std::fs::rename(&tmp, &path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Platform;
    use bfgts_workloads::presets;

    fn tiny_spec() -> BenchmarkSpec {
        presets::kmeans().scaled(0.01)
    }

    fn no_cache() -> RunnerOptions {
        RunnerOptions {
            jobs: 2,
            cache_dir: None,
        }
    }

    #[test]
    fn cache_keys_separate_configurations() {
        let spec = tiny_spec();
        let p = Platform::small();
        let base = RunCell::one(&spec, ManagerKind::Backoff, p);
        let mut keys = vec![
            base.cache_key(),
            RunCell::one(&spec, ManagerKind::BfgtsHw, p).cache_key(),
            RunCell::with_bloom(&spec, ManagerKind::BfgtsHw, p, 8192).cache_key(),
            RunCell::serial(&spec, p).cache_key(),
            RunCell::one(&spec, ManagerKind::Backoff, p)
                .stm()
                .cache_key(),
        ];
        let mut seeded = RunCell::one(&spec, ManagerKind::Backoff, p);
        seeded.scenario.platform.seed ^= 1;
        keys.push(seeded.cache_key());
        let unique: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(unique.len(), keys.len(), "colliding keys: {keys:#?}");
    }

    #[test]
    fn roster_constructors_round_trip_through_scenarios() {
        // Every constructor a roster report uses must produce cells that
        // emit and replay from data alone.
        let spec = tiny_spec();
        let p = Platform::small();
        let mut cells = vec![
            RunCell::serial(&spec, p),
            RunCell::with_bloom(&spec, ManagerKind::BfgtsHw, p, 1024),
            RunCell::with_manager(&spec, p, ManagerSpec::Polka),
            RunCell::with_manager(&spec, p, ManagerSpec::Stall),
            RunCell::with_manager(
                &spec,
                p,
                ManagerSpec::WindowGreedy {
                    window_size: None,
                    base_delay: None,
                },
            ),
            RunCell::with_manager(&spec, p, ManagerSpec::BalancedGreedy { window_size: None }),
        ];
        for kind in ManagerKind::ALL {
            cells.push(RunCell::one(&spec, kind, p));
        }
        for cell in &cells {
            let rebuilt = RunCell::from_scenario(cell.scenario.clone())
                .unwrap_or_else(|e| panic!("{}: {e}", cell.scenario.manager.label()));
            assert_eq!(rebuilt.cache_key(), cell.cache_key());
        }
    }

    #[test]
    fn serial_cells_ignore_platform_shape() {
        let spec = tiny_spec();
        let a = RunCell::serial(&spec, Platform::small()).cache_key();
        let b = RunCell::serial(&spec, Platform::paper()).cache_key();
        assert_eq!(a, b, "serial key must not depend on cpus/threads");
    }

    #[test]
    fn grid_matches_direct_execution() {
        let spec = tiny_spec();
        let p = Platform::small();
        let cells = vec![
            RunCell::serial(&spec, p),
            RunCell::one(&spec, ManagerKind::Backoff, p),
        ];
        let grid = run_grid(&cells, &no_cache());
        assert_eq!(grid[0], cells[0].execute());
        assert_eq!(grid[1], cells[1].execute());
    }

    #[test]
    fn duplicate_cells_share_one_computation() {
        let spec = tiny_spec();
        let p = Platform::small();
        let cells: Vec<RunCell> = (0..6).map(|_| RunCell::serial(&spec, p)).collect();
        let grid = run_grid(&cells, &no_cache());
        assert!(grid.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn summary_json_round_trips_exactly() {
        let spec = tiny_spec();
        let summary = RunCell::one(&spec, ManagerKind::BfgtsHw, Platform::small()).execute();
        let round = CellSummary::from_json(&summary.to_json("k"), "k").expect("parses");
        assert_eq!(summary, round);
        // Bit-exact similarity is what makes cached output byte-identical.
        for ((_, a), (_, b)) in summary.similarity.iter().zip(&round.similarity) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn cache_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!(
            "bfgts-cache-test-{}-{:x}",
            std::process::id(),
            fnv1a("cache_round_trip_on_disk", 0)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunnerOptions {
            jobs: 2,
            cache_dir: Some(dir.clone()),
        };
        let spec = tiny_spec();
        let p = Platform::small();
        let cells = vec![
            RunCell::serial(&spec, p),
            RunCell::one(&spec, ManagerKind::Ats, p),
        ];
        let fresh = run_grid(&cells, &opts);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        let cached = run_grid(&cells, &opts);
        assert_eq!(fresh, cached);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_entries_are_recomputed() {
        let dir =
            std::env::temp_dir().join(format!("bfgts-cache-test-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = tiny_spec();
        let cell = RunCell::serial(&spec, Platform::small());
        std::fs::write(cache_path(&dir, &cell.cache_key()), "{not json").unwrap();
        let opts = RunnerOptions {
            jobs: 1,
            cache_dir: Some(dir.clone()),
        };
        let grid = run_grid(std::slice::from_ref(&cell), &opts);
        assert_eq!(grid[0], cell.execute());
        // An otherwise valid entry with a field no read asks for is not
        // trusted either: its wrong makespan must not come back.
        let mut entry = grid[0].to_json(&cell.cache_key());
        if let Json::Obj(map) = &mut entry {
            map.insert("makespan".into(), Json::UInt(1));
            map.insert("extra".into(), Json::Bool(true));
        }
        std::fs::write(cache_path(&dir, &cell.cache_key()), entry.to_string()).unwrap();
        let grid = run_grid(std::slice::from_ref(&cell), &opts);
        assert_eq!(grid[0], cell.execute());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenario_round_trip_preserves_key_and_summary() {
        let spec = tiny_spec();
        let cell = RunCell::one(&spec, ManagerKind::BfgtsHw, Platform::small());
        let text = cell.scenario.to_json().to_string();
        let parsed = Scenario::from_json(&Json::parse(&text).unwrap()).unwrap();
        let rebuilt = RunCell::from_scenario(parsed).unwrap();
        assert_eq!(rebuilt.cache_key(), cell.cache_key());
        assert_eq!(rebuilt.execute(), cell.execute());
    }

    #[test]
    fn faulted_cells_key_separately_and_audit_clean() {
        let spec = tiny_spec();
        let p = Platform::small();
        let clean = RunCell::one(&spec, ManagerKind::BfgtsHw, p);
        let faulted = clean.clone().faulted(3);
        assert_ne!(clean.cache_key(), faulted.cache_key());
        assert_ne!(
            faulted.cache_key(),
            clean.clone().faulted(4).cache_key(),
            "the plan seed is part of the key"
        );
        // Fault events are accounted instants: the audit must stay exact
        // under injection, for several distinct plans.
        for seed in [3u64, 4, 5] {
            let report = clean.clone().faulted(seed).execute_report(TraceMode::Full);
            report.audit_or_panic();
        }
    }

    #[test]
    fn conflict_row_and_similarity_lookups() {
        let summary = CellSummary {
            cm_name: "X".into(),
            makespan: 100,
            buckets: TimeBuckets::default(),
            commits: 4,
            aborts: 1,
            stalls: 0,
            per_stx: vec![(0, 2, 1), (1, 2, 0)],
            conflict_edges: vec![(0, 1), (1, 1)],
            similarity: vec![(1, 0.5)],
            latency: None,
        };
        assert_eq!(summary.conflict_row(1), vec![0, 1]);
        assert_eq!(summary.measured_similarity(1), Some(0.5));
        assert_eq!(summary.measured_similarity(9), None);
        assert!((summary.contention_rate() - 0.2).abs() < 1e-12);
        assert_eq!(summary.speedup_over(200), 2.0);
    }

    fn open_cell() -> RunCell {
        RunCell::one(&tiny_spec(), ManagerKind::BfgtsHw, Platform::small())
            .open(bfgts_workloads::ArrivalSpec::poisson(1500))
    }

    #[test]
    fn open_cells_key_separately_and_report_latency() {
        let closed = RunCell::one(&tiny_spec(), ManagerKind::BfgtsHw, Platform::small());
        let open = open_cell();
        assert_ne!(closed.cache_key(), open.cache_key());
        let summary = open.execute();
        let latency = summary.latency.expect("open runs report latency");
        assert!(latency.count > 0);
        assert!(latency.p50 <= latency.p95 && latency.p95 <= latency.p99);
        assert!(latency.tx_per_sec > 0.0);
        assert_eq!(closed.execute().latency, None, "closed runs report none");
    }

    #[test]
    fn open_summaries_round_trip_and_audit_clean() {
        let cell = open_cell();
        let summary = cell.execute();
        let round = CellSummary::from_json(&summary.to_json("k"), "k").expect("parses");
        assert_eq!(summary, round);
        assert_eq!(
            round.latency.unwrap().tx_per_sec.to_bits(),
            summary.latency.unwrap().tx_per_sec.to_bits()
        );
        // The I9 arrival-causality invariant holds through the full
        // scenario -> sources -> engine -> trace path.
        let report = cell.execute_report(TraceMode::Full);
        let audit = report.audit().expect("open-system audit clean");
        assert!(audit.tx_arrivals > 0);
        assert_eq!(audit.sojourn_cycles, report.stats.sojourn_total());
    }

    #[test]
    fn open_scenarios_replay_from_their_files() {
        let cell = open_cell();
        let text = cell.scenario.to_json().to_string();
        let parsed = bfgts_scenario::Scenario::from_json(&Json::parse(&text).unwrap()).unwrap();
        let rebuilt = RunCell::from_scenario(parsed).unwrap();
        assert_eq!(rebuilt.cache_key(), cell.cache_key());
        assert_eq!(rebuilt.execute(), cell.execute());
    }

    #[test]
    fn open_system_jsonl_identical_across_queue_kinds() {
        // The arrival schedule is a pure function of (spec, seed,
        // thread): the event-queue flavour must not leak into the
        // open-system stream, down to the exported bytes.
        let spec = tiny_spec();
        let arrivals = bfgts_workloads::ArrivalSpec::poisson(1200);
        let mk = |queue| {
            let cfg = bfgts_htm::TmRunConfig::new(4, 8)
                .seed(0xB16_B00B5)
                .queue(queue)
                .trace(TraceMode::Full);
            let report = bfgts_htm::run_workload(
                &cfg,
                open_sources(spec.sources(8), &arrivals, 0xB16_B00B5),
                Box::new(BackoffCm::default()),
            );
            report.audit_or_panic();
            let inputs = report.audit_inputs();
            crate::trace_export::to_jsonl(&report.sim.trace, &inputs)
        };
        let heap = mk(bfgts_sim::EventQueueKind::Heap);
        let calendar = mk(bfgts_sim::EventQueueKind::Calendar);
        assert!(heap.contains("tx_arrival"), "stream records arrivals");
        assert_eq!(heap, calendar, "queue flavour changed the stream");
    }

    #[test]
    fn queue_kinds_record_identical_traces_at_256_cpus() {
        // The scale sweep's 256-CPU shape (1024 threads, 16 detection
        // shards) at 4 transactions per thread: the heap and the calendar
        // queue must record the same run, event for event.
        let mut spec = presets::kmeans();
        spec.total_txs = 4096;
        let run = |queue| {
            let cfg = bfgts_htm::TmRunConfig::new(256, 1024)
                .seed(bfgts_scenario::EXPERIMENT_SEED)
                .shards(16)
                .queue(queue)
                .trace(TraceMode::Full);
            let cm = ManagerKind::BfgtsHw.build(512);
            bfgts_htm::run_workload(&cfg, spec.sources(1024), cm)
        };
        let heap = run(bfgts_sim::EventQueueKind::Heap);
        let calendar = run(bfgts_sim::EventQueueKind::Calendar);
        assert!(heap.stats.aborts() > 0, "no contention to order");
        let events = &heap.sim.trace.events;
        assert!(events.iter().any(|r| r.ev.name() == "cross_shard_commit"));
        assert_eq!(heap.sim.makespan, calendar.sim.makespan);
        assert!(
            heap.sim.trace == calendar.sim.trace,
            "queue flavour changed the recording"
        );
    }

    #[test]
    fn open_grids_identical_across_worker_counts() {
        let spec = tiny_spec();
        let p = Platform::small();
        let cells = vec![
            RunCell::serial(&spec, p),
            open_cell(),
            RunCell::one(&spec, ManagerKind::Backoff, p)
                .open(bfgts_workloads::ArrivalSpec::poisson(900)),
        ];
        let solo = run_grid(
            &cells,
            &RunnerOptions {
                jobs: 1,
                cache_dir: None,
            },
        );
        let four = run_grid(
            &cells,
            &RunnerOptions {
                jobs: 4,
                cache_dir: None,
            },
        );
        assert_eq!(solo, four, "worker count changed an open-system grid");
    }

    #[test]
    fn committed_open_fixtures_keep_their_golden_ids() {
        // Golden ids of the committed open-system fixtures, plus the
        // absent-key protocol: deleting the `arrivals` key from an open
        // document must yield exactly the id the closed scenario had
        // before the field existed.
        let read = |name: &str| {
            let path = format!("../../examples/scenarios/{name}");
            let text = std::fs::read_to_string(&path).expect("fixture exists");
            Json::parse(&text).expect("fixture parses")
        };
        let poisson = read("open_poisson_kmeans_paper.scenario.json");
        let open = bfgts_scenario::Scenario::from_json(&poisson).unwrap();
        assert_eq!(open.id(), "bae0d7f48138d24b95c6da12829a6ace");
        assert_eq!(
            bfgts_scenario::Scenario::from_json(&read("open_bursty_diurnal_small.scenario.json"))
                .unwrap()
                .id(),
            "d3a1037bd7f0d0573ee3b7a4c1cd7018"
        );
        let mut closed_doc = poisson;
        if let Json::Obj(map) = &mut closed_doc {
            map.remove("arrivals");
        }
        let closed = bfgts_scenario::Scenario::from_json(&closed_doc).unwrap();
        assert_eq!(closed.arrivals, None);
        assert_eq!(closed.id(), "57d48c145435d44253daa69da69644fd");
        let mut stripped = open.clone();
        stripped.arrivals = None;
        assert_eq!(stripped.id(), closed.id(), "absent-key id protocol");
    }
}
