//! Convenience harness: run a set of per-thread transaction sources under
//! a contention manager and collect both simulator and TM statistics.

use crate::cm::ContentionManager;
use crate::state::{Detection, TmWorld};
use crate::stats::TmStats;
use crate::thread::{TxThreadConfig, TxThreadLogic};
use crate::txn::TxSource;
use bfgts_sim::{CostModel, Engine, EngineConfig, EventQueueKind, RunError, RunReport, TraceMode};

/// Default master seed of a run when none is given — the single source
/// of truth shared by [`TmRunConfig::new`] and every layer above that
/// needs "the default run seed" (DESIGN.md §10).
pub const DEFAULT_RUN_SEED: u64 = 0xB10_0F17;

/// CPUs of the paper's evaluation platform.
pub const PAPER_CPUS: usize = 16;

/// Threads of the paper's evaluation platform (4 per CPU).
pub const PAPER_THREADS: usize = 64;

/// CPUs of the small CI/test platform.
pub const SMALL_CPUS: usize = 4;

/// Threads of the small CI/test platform.
pub const SMALL_THREADS: usize = 8;

/// Parameters of one workload run.
#[derive(Debug, Clone)]
pub struct TmRunConfig {
    /// Number of CPUs (paper: 16).
    pub num_cpus: usize,
    /// Number of threads (paper: 64, i.e. 4 per CPU).
    pub num_threads: usize,
    /// Master seed for all random streams.
    pub seed: u64,
    /// Machine latency parameters.
    pub costs: CostModel,
    /// Thread-driver tunables.
    pub thread_cfg: TxThreadConfig,
    /// Live-lock guard passed to the engine.
    pub max_cycles: u64,
    /// Record the full execution history for serializability checking
    /// (memory-heavy; off by default).
    pub record_history: bool,
    /// Event-trace recording mode ([`TraceMode::Off`] by default; the
    /// accounting audit needs [`TraceMode::Full`]).
    pub trace: TraceMode,
    /// Engine pending-event structure. Results are byte-identical for
    /// every kind (a pure wall-clock knob; a test compares whole
    /// recordings at 256 CPUs), so it is not part of any scenario's
    /// identity.
    pub queue: EventQueueKind,
    /// Conflict-detection shards the address space is partitioned into
    /// (DESIGN.md §11). 1 (the default) is the classic monolithic table;
    /// with more, cross-shard commits pay
    /// `cross_shard_hop · (shards_touched − 1)` extra cycles and the
    /// trace carries `ShardTouch`/`CrossShardCommit` events.
    pub shards: u32,
    /// Conflict-detection mode (DESIGN.md §13). [`Detection::Perfect`]
    /// (the default) is byte-identical to the pre-capacity simulator;
    /// [`Detection::BoundedSig`] tracks read/write sets in bounded Bloom
    /// signatures with false-positive and capacity aborts.
    pub detection: Detection,
    /// Detection-signature corruption fault `(rate_pct, bits, seed)`:
    /// at each bounded transaction begin, with probability `rate_pct`%,
    /// `bits` random signature positions are forced high. Not part of
    /// any scenario's identity — a fault layer, like `perturb_costs`.
    pub detection_fault: Option<(u64, u32, u64)>,
}

impl TmRunConfig {
    /// A run with `num_cpus` CPUs and `num_threads` threads, default
    /// everything else.
    pub fn new(num_cpus: usize, num_threads: usize) -> Self {
        Self {
            num_cpus,
            num_threads,
            seed: DEFAULT_RUN_SEED,
            costs: CostModel::default(),
            thread_cfg: TxThreadConfig::default(),
            max_cycles: 50_000_000_000,
            record_history: false,
            trace: TraceMode::Off,
            queue: EventQueueKind::default(),
            shards: 1,
            detection: Detection::Perfect,
            detection_fault: None,
        }
    }

    /// The paper's evaluation platform: 16 CPUs, 64 threads.
    pub fn paper_platform() -> Self {
        Self::new(PAPER_CPUS, PAPER_THREADS)
    }

    /// A software-TM flavoured run: STM per-operation costs
    /// ([`CostModel::stm_like`]) and instrumented accesses
    /// ([`TxThreadConfig::stm_like`]).
    pub fn stm_like(num_cpus: usize, num_threads: usize) -> Self {
        let mut cfg = Self::new(num_cpus, num_threads);
        cfg.costs = CostModel::stm_like();
        cfg.thread_cfg = TxThreadConfig::stm_like();
        cfg
    }

    /// Replaces the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the cost model.
    pub fn costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Replaces the trace mode.
    pub fn trace(mut self, trace: TraceMode) -> Self {
        self.trace = trace;
        self
    }

    /// Replaces the engine's pending-event structure.
    pub fn queue(mut self, queue: EventQueueKind) -> Self {
        self.queue = queue;
        self
    }

    /// Replaces the conflict-detection shard count (0 is clamped to 1).
    pub fn shards(mut self, shards: u32) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Replaces the conflict-detection mode.
    pub fn detection(mut self, detection: Detection) -> Self {
        self.detection = detection;
        self
    }

    /// Arms the detection-signature corruption fault (see
    /// [`TmRunConfig::detection_fault`]). A `rate_pct` or `bits` of 0
    /// disarms it.
    pub fn detection_fault(mut self, rate_pct: u64, bits: u32, seed: u64) -> Self {
        self.detection_fault = (rate_pct > 0 && bits > 0).then_some((rate_pct, bits, seed));
        self
    }

    /// Applies the fault-injection layer's cost-perturbation fault
    /// (DESIGN.md §9): every latency of the current cost model is
    /// independently jittered within `±max_percent`% (never below
    /// 1 cycle), drawn from a stream derived from `seed` — independent of
    /// the run's own seed, so the same workload decisions replay under
    /// the perturbed latencies.
    pub fn perturb_costs(mut self, seed: u64, max_percent: u64) -> Self {
        let mut rng = bfgts_sim::SimRng::seed_from(seed).derive(0xC0_57F4);
        self.costs = self.costs.perturbed(&mut rng, max_percent);
        self
    }
}

/// Result of a workload run: the simulator's cycle accounting plus the TM
/// machine's statistics.
#[derive(Debug, Clone)]
pub struct TmRunReport {
    /// Simulator report (makespan, per-thread cycle buckets).
    pub sim: RunReport,
    /// TM statistics (commits, aborts, conflict graph, similarity).
    pub stats: TmStats,
    /// Name of the contention manager that ran.
    pub cm_name: &'static str,
    /// The execution history, when [`TmRunConfig::record_history`] was
    /// set.
    pub history: Option<crate::history::History>,
    /// The contention manager's window-priority seed
    /// ([`ContentionManager::window_seed`]): `Some` only for runs under
    /// a window-based greedy manager. Declared to the audit (I11) and
    /// stamped into exported trace headers.
    pub window_seed: Option<u64>,
}

/// Open-system latency digest: sojourn (arrival → commit) percentiles
/// plus sustained throughput. Only produced for runs whose sources
/// stamped arrivals; a batch run has no meaningful sojourn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyDigest {
    /// Committed open-system transactions.
    pub count: u64,
    /// Sum of all sojourns, in cycles.
    pub total_cycles: u64,
    /// Median sojourn (nearest-rank), in cycles.
    pub p50: u64,
    /// 95th-percentile sojourn, in cycles.
    pub p95: u64,
    /// 99th-percentile sojourn, in cycles.
    pub p99: u64,
    /// Sustained throughput: committed transactions per second of
    /// simulated time at the nominal 2 GHz clock.
    pub tx_per_sec: f64,
}

impl TmRunReport {
    /// Throughput proxy: committed transactions per million cycles of
    /// makespan. Zero for an empty run.
    pub fn commits_per_mcycle(&self) -> f64 {
        let span = self.sim.makespan.as_u64();
        if span == 0 {
            0.0
        } else {
            self.stats.commits() as f64 * 1.0e6 / span as f64
        }
    }

    /// The open-system latency digest, or `None` for a batch run (no
    /// arrivals were stamped, so no sojourns exist).
    pub fn latency(&self) -> Option<LatencyDigest> {
        let count = self.stats.sojourn_count();
        if count == 0 {
            return None;
        }
        let span_secs = self.sim.makespan.as_seconds_at_2ghz();
        Some(LatencyDigest {
            count,
            total_cycles: self.stats.sojourn_total(),
            p50: self.stats.sojourn_percentile(50)?,
            p95: self.stats.sojourn_percentile(95)?,
            p99: self.stats.sojourn_percentile(99)?,
            tx_per_sec: if span_secs > 0.0 {
                count as f64 / span_secs
            } else {
                0.0
            },
        })
    }

    /// Replays this run's event trace through the accounting invariant
    /// checker (`bfgts_trace::audit`, invariants I1–I7 of DESIGN.md §8).
    ///
    /// The run must have been made with [`TmRunConfig::trace`] set to
    /// [`TraceMode::Full`]: an untraced or ring-buffered recording cannot
    /// reproduce the reported buckets and fails the audit.
    pub fn audit(&self) -> Result<bfgts_trace::AuditSummary, Vec<bfgts_trace::Violation>> {
        bfgts_trace::audit(&self.sim.trace, &self.audit_inputs())
    }

    /// The run's audit ground truth: the simulator's accounting plus
    /// the manager's declared window seed (I11). Prefer this over
    /// `self.sim.audit_inputs()`, which cannot know about windows.
    pub fn audit_inputs(&self) -> bfgts_trace::AuditInputs {
        let mut inputs = self.sim.audit_inputs();
        inputs.window_seed = self.window_seed;
        inputs
    }

    /// Like [`TmRunReport::audit`] but panics with a readable report of
    /// every violation. For tests and experiment binaries.
    pub fn audit_or_panic(&self) -> bfgts_trace::AuditSummary {
        match self.audit() {
            Ok(summary) => summary,
            Err(violations) => {
                let mut msg = format!(
                    "accounting audit failed with {} violation(s):\n",
                    violations.len()
                );
                for v in &violations {
                    msg.push_str(&format!("  {v}\n"));
                }
                // detlint: allow(P002) -- panicking on audit violations is this helper's documented contract
                panic!("{msg}");
            }
        }
    }
}

/// Runs `sources` (one per thread) under `cm` and returns the combined
/// report.
///
/// # Panics
///
/// Panics if `sources.len() != cfg.num_threads`, or with the engine's
/// [`RunError`] on a deadlock or a run past `max_cycles` (which indicate
/// a buggy contention manager).
pub fn run_workload<S>(
    cfg: &TmRunConfig,
    sources: Vec<S>,
    cm: Box<dyn ContentionManager>,
) -> TmRunReport
where
    S: TxSource + 'static,
{
    match try_run_workload(cfg, sources, cm) {
        Ok(report) => report,
        // detlint: allow(P002) -- documented panic contract of run_workload, the engine's own run_into contract
        Err(e) => panic!("{e}"),
    }
}

/// Like [`run_workload`], but a deadlock or a run past `max_cycles`
/// comes back as an `Err` instead of a panic.
///
/// # Panics
///
/// Panics if `sources.len() != cfg.num_threads`.
pub fn try_run_workload<S>(
    cfg: &TmRunConfig,
    sources: Vec<S>,
    cm: Box<dyn ContentionManager>,
) -> Result<TmRunReport, RunError>
where
    S: TxSource + 'static,
{
    assert_eq!(
        sources.len(),
        cfg.num_threads,
        "need exactly one source per thread"
    );
    let cm_name = cm.name();
    let mut cm = cm;
    // Window-based greedy managers derive their priority stream from
    // the run seed here; every other manager's default is a no-op, so
    // the pre-window roster is untouched (golden byte-identity).
    cm.on_run_start(cfg.seed, cfg.num_threads);
    let window_seed = cm.window_seed();
    let mut world = TmWorld::new(cfg.num_cpus, cfg.num_threads, cm);
    world.tm.configure_shards(cfg.shards);
    world.tm.configure_detection(cfg.detection);
    if let Some((rate_pct, bits, seed)) = cfg.detection_fault {
        world.tm.configure_detection_fault(rate_pct, bits, seed);
    }
    if cfg.record_history {
        world.tm.enable_history();
    }
    let mut engine_cfg = EngineConfig::with_cpus(cfg.num_cpus)
        .costs(cfg.costs.clone())
        .seed(cfg.seed)
        .trace(cfg.trace)
        .queue(cfg.queue);
    engine_cfg.max_cycles = cfg.max_cycles;
    let mut engine = Engine::new(engine_cfg, world);
    for source in sources {
        engine.spawn(Box::new(TxThreadLogic::with_config(source, cfg.thread_cfg)));
    }
    let (sim, mut world) = engine.try_run_into()?;
    Ok(TmRunReport {
        sim,
        stats: world.tm.stats().clone(),
        cm_name,
        history: world.tm.take_history(),
        window_seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cm::NullCm;
    use crate::ids::STxId;
    use crate::txn::{ScriptSource, TxInstance};

    #[test]
    fn report_carries_cm_name() {
        let cfg = TmRunConfig::new(1, 1);
        let report = run_workload(
            &cfg,
            vec![ScriptSource::new(vec![TxInstance::writer_over(
                STxId(0),
                0..3,
                10,
            )])],
            Box::new(NullCm),
        );
        assert_eq!(report.cm_name, "Null");
        assert_eq!(report.stats.commits(), 1);
        assert!(report.commits_per_mcycle() > 0.0);
    }

    #[test]
    #[should_panic(expected = "one source per thread")]
    fn source_count_mismatch_panics() {
        let cfg = TmRunConfig::new(1, 2);
        let _ = run_workload(&cfg, vec![ScriptSource::new(Vec::new())], Box::new(NullCm));
    }

    #[test]
    fn paper_platform_shape() {
        let cfg = TmRunConfig::paper_platform();
        assert_eq!(cfg.num_cpus, 16);
        assert_eq!(cfg.num_threads, 64);
    }

    #[test]
    fn perturbed_costs_are_deterministic_and_leave_the_seed_alone() {
        let a = TmRunConfig::new(2, 4).perturb_costs(9, 25);
        let b = TmRunConfig::new(2, 4).perturb_costs(9, 25);
        assert_eq!(a.costs, b.costs);
        assert_eq!(a.seed, b.seed, "run seed is not consumed");
        let c = TmRunConfig::new(2, 4).perturb_costs(10, 25);
        assert_ne!(a.costs, c.costs);
        // A perturbed run still completes and audits clean.
        let cfg = a.trace(TraceMode::Full);
        let report = run_workload(
            &cfg,
            (0..4u32)
                .map(|t| ScriptSource::new(vec![TxInstance::writer_over(STxId(t % 2), 0..12, 40)]))
                .collect(),
            Box::new(NullCm),
        );
        report.audit_or_panic();
    }

    #[test]
    fn empty_run_has_zero_throughput() {
        let cfg = TmRunConfig::new(1, 1);
        let report = run_workload(&cfg, vec![ScriptSource::new(Vec::new())], Box::new(NullCm));
        assert_eq!(report.commits_per_mcycle(), 0.0);
    }

    #[test]
    fn traced_contentious_run_passes_the_audit() {
        // Overcommitted CPUs with conflicting scripts under real OS
        // costs: commits, aborts, stalls, preemptions and refiles all
        // appear in the trace and must reconcile exactly.
        let cfg = TmRunConfig::new(2, 4).seed(0xA0D17).trace(TraceMode::Full);
        let scripts: Vec<_> = (0..4u32)
            .map(|t| {
                ScriptSource::new(vec![
                    TxInstance::writer_over(STxId(t % 2), 0..12, 40),
                    TxInstance::writer_over(STxId(2), 0..12, 10),
                ])
            })
            .collect();
        let report = run_workload(&cfg, scripts, Box::new(NullCm));
        let summary = report.audit_or_panic();
        assert_eq!(summary.commits, report.stats.commits());
        assert_eq!(summary.aborts, report.stats.aborts());
        assert_eq!(summary.stalls, report.stats.stalls());
        assert_eq!(
            summary.charged.iter().sum::<u64>(),
            report.sim.total().total_cycles()
        );
    }

    #[test]
    fn sharded_contentious_run_pays_and_audits_cross_shard_charges() {
        // Scripts straddle the 64-line shard blocks (lines 60..70 touch
        // shards 0 and 1 of a 4-shard platform), so cross-shard commits
        // must appear, pay their hop charge, and reconcile under I8.
        let cfg = TmRunConfig::new(2, 4)
            .seed(0xA0D17)
            .shards(4)
            .trace(TraceMode::Full);
        let scripts: Vec<_> = (0..4u32)
            .map(|t| {
                ScriptSource::new(vec![
                    TxInstance::writer_over(STxId(t % 2), 60..70, 40),
                    TxInstance::writer_over(STxId(2), 120..132, 10),
                ])
            })
            .collect();
        let report = run_workload(&cfg, scripts, Box::new(NullCm));
        let summary = report.audit_or_panic();
        assert!(summary.cross_shard_commits > 0, "straddling txs must pay");
        assert!(summary.shard_touches >= 2 * summary.cross_shard_commits);
        // Identical run on one shard: same commits, strictly cheaper —
        // the hop charge is the only behavioural delta.
        let base = run_workload(
            &TmRunConfig::new(2, 4).seed(0xA0D17).trace(TraceMode::Full),
            (0..4u32)
                .map(|t| {
                    ScriptSource::new(vec![
                        TxInstance::writer_over(STxId(t % 2), 60..70, 40),
                        TxInstance::writer_over(STxId(2), 120..132, 10),
                    ])
                })
                .collect(),
            Box::new(NullCm),
        );
        let base_summary = base.audit_or_panic();
        assert_eq!(base_summary.cross_shard_commits, 0);
        assert_eq!(base_summary.shard_touches, 0);
        assert_eq!(base.stats.commits(), report.stats.commits());
        assert!(report.sim.makespan >= base.sim.makespan);
    }

    fn bounded_cfg() -> TmRunConfig {
        // A deliberately starved geometry: 64-bit 1-hash signatures alias
        // readily, and capacity 8 cannot hold a 12-line transaction, so
        // both new abort causes must appear.
        TmRunConfig::new(2, 4)
            .seed(0xA0D17)
            .detection(Detection::BoundedSig {
                bits: 64,
                hashes: 1,
                capacity: 8,
            })
            .trace(TraceMode::Full)
    }

    fn bounded_scripts() -> Vec<ScriptSource> {
        (0..4u64)
            .map(|t| {
                ScriptSource::new(vec![
                    TxInstance::writer_over(STxId(t as u32), t * 100..t * 100 + 12, 40),
                    TxInstance::writer_over(STxId(4), t * 100 + 50..t * 100 + 56, 10),
                ])
            })
            .collect()
    }

    #[test]
    fn bounded_detection_overflows_falls_back_and_audits_clean_under_i10() {
        let report = run_workload(&bounded_cfg(), bounded_scripts(), Box::new(NullCm));
        let summary = report.audit_or_panic();
        assert_eq!(report.stats.commits(), 8, "fallback guarantees progress");
        // Every thread's 12-line transaction overflows capacity 8 at
        // least once before its retry runs in the exact fallback.
        assert!(summary.capacity_aborts >= 4, "12-line txs must overflow");
        // Each fatal detection event aborted its attempt.
        assert!(
            report.stats.aborts() >= summary.capacity_aborts + summary.false_positive_conflicts
        );
    }

    #[test]
    fn manufactured_alias_aborts_as_a_false_positive() {
        // Thread 0 holds a long transaction over lines 0..8 (padded with
        // repeat writes so its signature stays live); thread 1 starts
        // later — strictly younger — and touches one address chosen by
        // construction to alias thread 0's signature while being disjoint
        // from its exact sets. The younger requester must abort with a
        // FalsePositiveConflict the audit disconfirms (I10).
        use crate::txn::Access;
        use bfgts_bloomsig::BloomFilter;
        let mut f = BloomFilter::new(64, 1);
        for a in 0..8u64 {
            f.insert(a);
        }
        let alias = (1000..u64::MAX)
            .find(|&a| f.may_contain(a))
            .expect("a 64-bit 1-hash filter aliases quickly");
        let mut long_accesses: Vec<Access> = (0..8u64).map(Access::write).collect();
        long_accesses.extend((0..200).map(|i| Access::write(i % 8)));
        let scripts = vec![
            ScriptSource::new(vec![TxInstance::new(STxId(0), long_accesses, 0)]),
            ScriptSource::new(vec![TxInstance::new(
                STxId(1),
                vec![Access::write(alias)],
                50,
            )]),
        ];
        let cfg = TmRunConfig::new(2, 2)
            .seed(0xA0D17)
            .detection(Detection::BoundedSig {
                bits: 64,
                hashes: 1,
                capacity: 16,
            })
            .trace(TraceMode::Full);
        let report = run_workload(&cfg, scripts, Box::new(NullCm));
        let summary = report.audit_or_panic();
        assert_eq!(report.stats.commits(), 2);
        assert!(
            summary.false_positive_conflicts >= 1,
            "the manufactured alias must surface as a false-positive abort"
        );
        assert_eq!(summary.capacity_aborts, 0);
    }

    #[test]
    fn perfect_detection_emits_no_bounded_events() {
        // The same contentious workload under the default mode: I10's
        // quiet side — no capacity or false-positive events at all.
        let cfg = TmRunConfig::new(2, 4).seed(0xA0D17).trace(TraceMode::Full);
        let report = run_workload(&cfg, bounded_scripts(), Box::new(NullCm));
        let summary = report.audit_or_panic();
        assert_eq!(report.stats.commits(), 8);
        assert_eq!(summary.capacity_aborts, 0);
        assert_eq!(summary.false_positive_conflicts, 0);
    }

    #[test]
    fn detection_fault_is_deterministic_and_audits_clean() {
        // Force corruption on every begin: the run must still terminate,
        // audit clean (the audit recomputes ground truth per event, so
        // injected aliases are genuine false positives), and replay
        // bit-identically.
        let run = || {
            run_workload(
                &bounded_cfg().detection_fault(100, 8, 0xFA_17),
                bounded_scripts(),
                Box::new(NullCm),
            )
        };
        let report = run();
        let summary = report.audit_or_panic();
        assert_eq!(report.stats.commits(), 8);
        assert!(summary.faults > 0, "armed fault must declare itself");
        let replay = run();
        assert_eq!(report.sim.makespan, replay.sim.makespan);
        assert_eq!(report.stats.aborts(), replay.stats.aborts());
    }

    /// A scripted open-system source: yields each instance at its fixed
    /// arrival time, parking the thread in between.
    struct OpenScript {
        items: std::collections::VecDeque<(u64, TxInstance)>,
    }

    impl crate::txn::TxSource for OpenScript {
        fn next_tx(&mut self, _rng: &mut bfgts_sim::SimRng) -> Option<TxInstance> {
            self.items.pop_front().map(|(_, tx)| tx)
        }

        fn poll_tx(&mut self, now: u64, _rng: &mut bfgts_sim::SimRng) -> crate::txn::TxPoll {
            match self.items.front() {
                None => crate::txn::TxPoll::Exhausted,
                Some(&(t, _)) if t > now => crate::txn::TxPoll::NotBefore(t),
                Some(_) => {
                    let (t, tx) = self.items.pop_front().expect("front checked");
                    let depth = self.items.iter().take_while(|&&(u, _)| u <= now).count() as u64;
                    crate::txn::TxPoll::Ready {
                        tx,
                        arrival: Some(t),
                        depth,
                    }
                }
            }
        }
    }

    #[test]
    fn open_system_run_parks_audits_i9_and_reports_latency() {
        // Two threads, arrivals spread far enough apart that each thread
        // sleeps between transactions; the audit must verify I9 and its
        // summed sojourn must equal the stats' latency accounting.
        let cfg = TmRunConfig::new(2, 2).seed(0x0BE7).trace(TraceMode::Full);
        let script = |base: u64, lines: std::ops::Range<u64>| OpenScript {
            items: (0..4u64)
                .map(|i| {
                    (
                        base + i * 5_000,
                        TxInstance::writer_over(STxId(0), lines.clone(), 25),
                    )
                })
                .collect(),
        };
        let report = run_workload(
            &cfg,
            vec![script(100, 0..6), script(2_600, 100..106)],
            Box::new(NullCm),
        );
        assert_eq!(report.stats.commits(), 8);
        let summary = report.audit_or_panic();
        assert_eq!(summary.tx_arrivals, 8);
        assert_eq!(summary.queue_depth_samples, 8);
        // I9 conservation: audit-summed sojourn == run-reported sojourn.
        assert_eq!(summary.sojourn_cycles, report.stats.sojourn_total());
        let latency = report.latency().expect("open run has a digest");
        assert_eq!(latency.count, 8);
        assert!(latency.p50 <= latency.p95 && latency.p95 <= latency.p99);
        assert!(latency.tx_per_sec > 0.0);
        // The makespan covers the last arrival; threads really parked.
        assert!(report.sim.makespan.as_u64() >= 2_600 + 3 * 5_000);
    }

    #[test]
    fn batch_runs_have_no_latency_digest() {
        let cfg = TmRunConfig::new(1, 1);
        let report = run_workload(
            &cfg,
            vec![ScriptSource::new(vec![TxInstance::writer_over(
                STxId(0),
                0..3,
                10,
            )])],
            Box::new(NullCm),
        );
        assert!(report.latency().is_none());
    }

    #[test]
    fn untraced_run_fails_the_audit() {
        let cfg = TmRunConfig::new(1, 1);
        let report = run_workload(
            &cfg,
            vec![ScriptSource::new(vec![TxInstance::writer_over(
                STxId(0),
                0..3,
                10,
            )])],
            Box::new(NullCm),
        );
        assert!(report.audit().is_err(), "empty trace cannot reconcile");
    }
}
