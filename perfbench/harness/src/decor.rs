//! Timing decorators for the traced run.
//!
//! A decorated cell is rebuilt from public parts — `TmWorld::new` plus
//! its `configure_*` calls, an `EngineConfig`, and
//! `Engine::spawn(TxThreadLogic::with_config(..))` — exactly as
//! `RunCell::execute_report` and `run_workload` build it, with three
//! decorators slipped in:
//!
//! * [`TimedStep`] around every `ThreadLogic::step` (the htm layer);
//! * [`TimedCm`] around every `ContentionManager` hook, defaulted hooks
//!   included (the cm layer);
//! * [`TimedSource`] around `TxSource::{next_tx, poll_tx,
//!   remaining_hint}` (the workloads layer).
//!
//! Millions of steps run per cell, so the fine boundaries keep only
//! aggregated counts and nanoseconds in [`Counters`]; the coarse
//! per-cell phases are returned as [`BuildTimes`] and the run span.

use crate::clock;
use bfgts_bench::runner::RunCell;
use bfgts_htm::{
    AbortPlan, BeginOutcome, BeginQuery, CommitOutcome, CommitRecord, ConflictEvent,
    ContentionManager, DTxId, TmRunConfig, TmRunReport, TmState, TmWorld, TxInstance, TxPoll,
    TxSource, TxThreadLogic,
};
use bfgts_scenario::{ManagerSpec, ResolvedWorkload};
use bfgts_sim::{
    Action, CostModel, Engine, EngineConfig, SimRng, ThreadCtx, ThreadId, ThreadLogic, TraceMode,
    TraceSink,
};
use bfgts_workloads::{open_sources, ArrivalSpec};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Duration;

/// Aggregated fine-boundary counters of one or more decorated runs.
#[derive(Debug, Default)]
pub struct Counters {
    /// `ThreadLogic::step` calls.
    pub steps: Cell<u64>,
    /// Nanoseconds inside `step`, children included.
    pub step_ns: Cell<u64>,
    /// Nanoseconds of cm hooks and source calls made inside a step.
    pub step_child_ns: Cell<u64>,
    in_step: Cell<bool>,
    /// `on_begin` calls.
    pub cm_begin: Cell<u64>,
    /// Nanoseconds inside `on_begin`.
    pub cm_begin_ns: Cell<u64>,
    /// `on_conflict_abort` calls.
    pub cm_abort: Cell<u64>,
    /// `on_commit` calls.
    pub cm_commit: Cell<u64>,
    /// Calls of the defaulted hooks (`on_run_start`, `window_seed`,
    /// `window_position`, `on_wait_skipped`).
    pub cm_other: Cell<u64>,
    /// Nanoseconds inside every cm hook.
    pub cm_ns: Cell<u64>,
    /// `TxSource` calls.
    pub src_calls: Cell<u64>,
    /// Nanoseconds inside `TxSource` calls.
    pub src_ns: Cell<u64>,
}

fn bump(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get().saturating_add(by));
}

impl Counters {
    /// Charges a child call (cm hook or source call) of `ns` nanoseconds.
    fn child(&self, ns: u64) {
        if self.in_step.get() {
            bump(&self.step_child_ns, ns);
        }
    }

    /// Times one cm hook, counted in `calls`; returns its result and
    /// nanoseconds.
    fn cm_call<T>(&self, calls: &Cell<u64>, f: impl FnOnce() -> T) -> (T, u64) {
        let (out, d) = clock::timed(f);
        let ns = clock::ns(d);
        bump(calls, 1);
        bump(&self.cm_ns, ns);
        self.child(ns);
        (out, ns)
    }

    fn src_call<T>(&self, f: impl FnOnce() -> T) -> T {
        let (out, d) = clock::timed(f);
        let ns = clock::ns(d);
        bump(&self.src_calls, 1);
        bump(&self.src_ns, ns);
        self.child(ns);
        out
    }
}

/// A copy of the time counters, for per-cell deltas.
#[derive(Debug, Default, Clone, Copy)]
pub struct Snapshot {
    /// [`Counters::step_ns`].
    pub step_ns: u64,
    /// [`Counters::step_child_ns`].
    pub child_ns: u64,
    /// [`Counters::cm_ns`].
    pub cm_ns: u64,
    /// [`Counters::src_ns`].
    pub src_ns: u64,
}

impl Counters {
    /// The current time counters.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            step_ns: self.step_ns.get(),
            child_ns: self.step_child_ns.get(),
            cm_ns: self.cm_ns.get(),
            src_ns: self.src_ns.get(),
        }
    }
}

/// Times every hook of the wrapped manager, defaulted ones included:
/// a hook left to the trait default here would silently drop the inner
/// manager's override (window-based managers depend on four of them).
pub struct TimedCm {
    inner: Box<dyn ContentionManager>,
    counters: Rc<Counters>,
}

impl TimedCm {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn ContentionManager>, counters: Rc<Counters>) -> Self {
        Self { inner, counters }
    }
}

impl ContentionManager for TimedCm {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_begin(
        &mut self,
        q: &BeginQuery,
        tm: &TmState,
        costs: &CostModel,
        rng: &mut SimRng,
        trace: &mut TraceSink,
    ) -> BeginOutcome {
        let c = Rc::clone(&self.counters);
        let (out, ns) = c.cm_call(&c.cm_begin, || {
            self.inner.on_begin(q, tm, costs, rng, trace)
        });
        bump(&c.cm_begin_ns, ns);
        out
    }

    fn on_conflict_abort(
        &mut self,
        ev: &ConflictEvent,
        tm: &TmState,
        costs: &CostModel,
        rng: &mut SimRng,
        trace: &mut TraceSink,
    ) -> AbortPlan {
        let c = Rc::clone(&self.counters);
        c.cm_call(&c.cm_abort, || {
            self.inner.on_conflict_abort(ev, tm, costs, rng, trace)
        })
        .0
    }

    fn on_commit(
        &mut self,
        rec: &CommitRecord<'_>,
        tm: &TmState,
        costs: &CostModel,
        rng: &mut SimRng,
        trace: &mut TraceSink,
    ) -> CommitOutcome {
        let c = Rc::clone(&self.counters);
        c.cm_call(&c.cm_commit, || {
            self.inner.on_commit(rec, tm, costs, rng, trace)
        })
        .0
    }

    fn on_wait_skipped(&mut self, dtx: DTxId) {
        let c = Rc::clone(&self.counters);
        c.cm_call(&c.cm_other, || self.inner.on_wait_skipped(dtx));
    }

    fn on_run_start(&mut self, seed: u64, num_threads: usize) {
        let c = Rc::clone(&self.counters);
        c.cm_call(&c.cm_other, || self.inner.on_run_start(seed, num_threads));
    }

    fn window_seed(&self) -> Option<u64> {
        let c = &self.counters;
        c.cm_call(&c.cm_other, || self.inner.window_seed()).0
    }

    fn window_position(&self, thread: ThreadId) -> Option<u64> {
        let c = &self.counters;
        c.cm_call(&c.cm_other, || self.inner.window_position(thread))
            .0
    }
}

/// Times every call into the wrapped transaction source.
pub struct TimedSource<S> {
    inner: S,
    counters: Rc<Counters>,
}

impl<S: TxSource> TxSource for TimedSource<S> {
    fn next_tx(&mut self, rng: &mut SimRng) -> Option<TxInstance> {
        let c = Rc::clone(&self.counters);
        c.src_call(|| self.inner.next_tx(rng))
    }

    fn poll_tx(&mut self, now: u64, rng: &mut SimRng) -> TxPoll {
        let c = Rc::clone(&self.counters);
        c.src_call(|| self.inner.poll_tx(now, rng))
    }

    fn remaining_hint(&self) -> Option<u64> {
        self.counters.src_call(|| self.inner.remaining_hint())
    }
}

/// Times every `step` of the wrapped thread logic.
pub struct TimedStep<L> {
    inner: L,
    counters: Rc<Counters>,
}

impl<L: ThreadLogic<TmWorld>> ThreadLogic<TmWorld> for TimedStep<L> {
    fn step(&mut self, world: &mut TmWorld, ctx: &mut ThreadCtx) -> Action {
        let c = &self.counters;
        c.in_step.set(true);
        let (action, d) = clock::timed(|| self.inner.step(world, ctx));
        c.in_step.set(false);
        bump(&c.steps, 1);
        bump(&c.step_ns, clock::ns(d));
        action
    }
}

/// Host time of one decorated cell's coarse phases.
#[derive(Debug, Default, Clone, Copy)]
pub struct BuildTimes {
    /// Workload resolution and source construction.
    pub workloads: Duration,
    /// Manager construction.
    pub cm: Duration,
    /// `TmWorld::new` and its `configure_*` calls.
    pub htm: Duration,
    /// `Engine::new` and every `spawn`.
    pub sim: Duration,
    /// `Engine::run_into`.
    pub run: Duration,
}

/// Runs `cell` with the decorators in place and trace mode `trace`.
/// Produces the same report `cell.execute_report(trace)` does.
pub fn run_decorated(
    cell: &RunCell,
    trace: TraceMode,
    counters: &Rc<Counters>,
) -> (TmRunReport, BuildTimes) {
    let mut times = BuildTimes::default();
    let scenario = &cell.scenario;
    let seed = scenario.platform.seed;
    let (resolved, d) = clock::timed(|| {
        scenario
            .workload
            .resolve()
            .expect("cells are built from resolvable scenarios")
    });
    times.workloads += d;
    let name = resolved.name();
    let serial = matches!(scenario.manager, ManagerSpec::Serial);
    let mut cfg;
    let cm_faults;
    let threads;
    if serial {
        cfg = scenario.costs.run_config(1, 1, seed).trace(trace);
        cm_faults = None;
        threads = 1;
    } else {
        let platform = &scenario.platform;
        cfg = scenario
            .costs
            .run_config(platform.cpus, platform.threads, seed)
            .shards(platform.shards)
            .detection(platform.detection)
            .trace(trace);
        let plan = scenario.faults.as_ref();
        if let Some(plan) = plan {
            let pct = plan.cost_percent();
            if pct > 0 {
                cfg = cfg.perturb_costs(plan.seed, pct);
            }
            if platform.detection.is_bounded() {
                if let Some((rate_pct, bits)) = plan.bloom_corrupt() {
                    cfg = cfg.detection_fault(u64::from(rate_pct), bits, plan.seed);
                }
            }
        }
        cm_faults = plan.and_then(|p| p.cm_faults());
        threads = platform.threads;
    }
    let manager = if serial {
        &ManagerSpec::Serial
    } else {
        &scenario.manager
    };
    let (cm, d) = clock::timed(|| {
        manager
            .build(name, cm_faults)
            .expect("benchmark cells use data-built managers")
    });
    times.cm += d;
    let arrivals = scenario.arrivals.as_ref();
    let report = match resolved {
        ResolvedWorkload::Benchmark(spec) => run_sources(
            || spec.sources(threads),
            arrivals,
            &cfg,
            cm,
            counters,
            &mut times,
        ),
        ResolvedWorkload::Adversarial(spec) => run_sources(
            || spec.sources(threads),
            arrivals,
            &cfg,
            cm,
            counters,
            &mut times,
        ),
    };
    (report, times)
}

/// Builds the sources (`make`), opens them to `arrivals` if given, and
/// runs them as `run_workload` does, with the decorators in place.
fn run_sources<S: TxSource + 'static>(
    make: impl FnOnce() -> Vec<S>,
    arrivals: Option<&ArrivalSpec>,
    cfg: &TmRunConfig,
    cm: Box<dyn ContentionManager>,
    counters: &Rc<Counters>,
    times: &mut BuildTimes,
) -> TmRunReport {
    let (sources, d) = clock::timed(make);
    times.workloads += d;
    match arrivals {
        None => run_decorated_sources(cfg, sources, cm, counters, times),
        Some(a) => {
            let (open, d) = clock::timed(|| open_sources(sources, a, cfg.seed));
            times.workloads += d;
            run_decorated_sources(cfg, open, cm, counters, times)
        }
    }
}

/// `run_workload` with the decorators in place.
fn run_decorated_sources<S: TxSource + 'static>(
    cfg: &TmRunConfig,
    sources: Vec<S>,
    cm: Box<dyn ContentionManager>,
    counters: &Rc<Counters>,
    times: &mut BuildTimes,
) -> TmRunReport {
    let mut cm: Box<dyn ContentionManager> = Box::new(TimedCm::new(cm, Rc::clone(counters)));
    let cm_name = cm.name();
    cm.on_run_start(cfg.seed, cfg.num_threads);
    let window_seed = cm.window_seed();
    let (world, d) = clock::timed(|| {
        let mut world = TmWorld::new(cfg.num_cpus, cfg.num_threads, cm);
        world.tm.configure_shards(cfg.shards);
        world.tm.configure_detection(cfg.detection);
        if let Some((rate_pct, bits, seed)) = cfg.detection_fault {
            world.tm.configure_detection_fault(rate_pct, bits, seed);
        }
        world
    });
    times.htm += d;
    let (engine, d) = clock::timed(|| {
        let mut engine_cfg = EngineConfig::with_cpus(cfg.num_cpus)
            .costs(cfg.costs.clone())
            .seed(cfg.seed)
            .trace(cfg.trace)
            .queue(cfg.queue);
        engine_cfg.max_cycles = cfg.max_cycles;
        let mut engine = Engine::new(engine_cfg, world);
        for source in sources {
            let source = TimedSource {
                inner: source,
                counters: Rc::clone(counters),
            };
            engine.spawn(Box::new(TimedStep {
                inner: TxThreadLogic::with_config(source, cfg.thread_cfg),
                counters: Rc::clone(counters),
            }));
        }
        engine
    });
    times.sim += d;
    let ((sim, world), d) = clock::timed(|| engine.run_into());
    times.run += d;
    TmRunReport {
        sim,
        stats: world.tm.stats().clone(),
        cm_name,
        history: None,
        window_seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfgts_bench::runner::CellSummary;
    use bfgts_bench::trace_export::to_jsonl;
    use bfgts_core::BfgtsVariant;
    use bfgts_faultsim::{Fault, FaultPlan};
    use bfgts_scenario::{BfgtsTunables, ManagerKind, Platform, Scenario, WorkloadSpec};

    fn managers() -> Vec<ManagerSpec> {
        let mut all = vec![
            ManagerSpec::Serial,
            ManagerSpec::Bfgts(BfgtsTunables::new(BfgtsVariant::Sw).small_tx_interval(4)),
            ManagerSpec::Polka,
            ManagerSpec::Stall,
            ManagerSpec::WindowGreedy {
                window_size: None,
                base_delay: None,
            },
            ManagerSpec::WindowGreedy {
                window_size: Some(4),
                base_delay: Some(200),
            },
            ManagerSpec::BalancedGreedy { window_size: None },
        ];
        all.extend(ManagerKind::ALL.into_iter().map(|kind| ManagerSpec::Kind {
            kind,
            bloom_bits: None,
        }));
        all
    }

    fn small(manager: ManagerSpec) -> Scenario {
        Scenario::new(
            WorkloadSpec::Preset {
                name: "Kmeans".into(),
                total_txs: 160,
            },
            manager,
            Platform::small(),
        )
    }

    /// Asserts the decorated build is byte-identical to the runner's:
    /// same summary, same full recording down to the exported JSONL.
    fn assert_transparent(scenario: Scenario) {
        let label = scenario.manager.label();
        let cell = RunCell::from_scenario(scenario).expect("valid scenario");
        let counters = Rc::new(Counters::default());
        let plain = cell.execute_report(TraceMode::Full);
        let (decorated, _) = run_decorated(&cell, TraceMode::Full, &counters);
        assert_eq!(
            CellSummary::from_report(&plain),
            CellSummary::from_report(&decorated),
            "{label}: summary diverged"
        );
        assert_eq!(plain.window_seed, decorated.window_seed, "{label}");
        assert_eq!(
            to_jsonl(&plain.sim.trace, &plain.audit_inputs()),
            to_jsonl(&decorated.sim.trace, &decorated.audit_inputs()),
            "{label}: trace bytes diverged"
        );
        decorated.audit_or_panic();
        assert_eq!(
            CellSummary::from_report(&cell.execute_report(TraceMode::Off)),
            CellSummary::from_report(&run_decorated(&cell, TraceMode::Off, &counters).0),
            "{label}: untraced summary diverged"
        );
        assert!(counters.steps.get() > 0 && counters.src_calls.get() > 0);
        assert!(counters.cm_begin.get() > 0, "{label}: on_begin never timed");
    }

    #[test]
    fn decorators_are_transparent_for_every_manager_kind() {
        for manager in managers() {
            assert_transparent(small(manager));
        }
    }

    #[test]
    fn decorators_are_transparent_on_open_bounded_faulted_and_sharded_cells() {
        for manager in managers() {
            let mut open = small(manager.clone());
            open.arrivals = Some(ArrivalSpec::poisson(1200));
            assert_transparent(open);
            let mut bounded = small(manager.clone());
            bounded.platform = Platform::small().bounded(64, 1, 24).sharded(2);
            bounded.faults = Some(FaultPlan::new(9).fault(Fault::BloomCorrupt {
                rate_pct: 60,
                bits: 16,
            }));
            assert_transparent(bounded);
        }
    }

    #[test]
    fn window_managers_reach_their_defaulted_hooks() {
        let counters = Rc::new(Counters::default());
        let cell = RunCell::from_scenario(small(ManagerSpec::BalancedGreedy { window_size: None }))
            .expect("valid scenario");
        let (report, _) = run_decorated(&cell, TraceMode::Off, &counters);
        assert!(report.window_seed.is_some(), "window seed forwarded");
        assert!(
            counters.cm_other.get() >= 2,
            "on_run_start + window_seed timed"
        );
    }

    #[test]
    fn step_children_never_exceed_step_time() {
        let counters = Rc::new(Counters::default());
        let cell = RunCell::from_scenario(small(ManagerSpec::Kind {
            kind: ManagerKind::BfgtsHw,
            bloom_bits: None,
        }))
        .expect("valid scenario");
        let _ = run_decorated(&cell, TraceMode::Off, &counters);
        assert!(counters.step_child_ns.get() <= counters.step_ns.get());
        assert!(counters.cm_commit.get() > 0);
    }
}
