//! Regression tests pinning the engine's event tie-break contract.
//!
//! Pending events order by `(time, seq)` — the arming sequence number,
//! not the CPU index, breaks same-cycle ties, and both pending-event
//! structures must agree on that order exactly (it is what makes
//! simulation results byte-identical under either queue). The
//! starvation clamps are part of the same contract: a zero-cost action
//! stream must still advance time by at least one cycle per step, or
//! one CPU could pin the queue to a single timestamp forever. Engine
//! runs under both queues must also record byte-identical full traces
//! where the CPU being serviced runs ahead of the queue, with timed
//! sleepers and with a wake that supersedes an idle timer. Each of the
//! conditions that ends a run-ahead burst has a scripted run whose full
//! trace is pinned event by event.

use bfgts_sim::equeue::{EventQueue, EventQueueKind};
use bfgts_sim::{
    Action, Bucket, CostModel, Cycle, Engine, EngineConfig, RunError, RunReport, ThreadCtx,
    ThreadId, ThreadLogic, TraceEvent, TraceMode,
};
use std::cell::RefCell;
use std::rc::Rc;

fn drain(q: &mut EventQueue) -> Vec<(Cycle, u64, usize)> {
    std::iter::from_fn(|| q.pop()).collect()
}

#[test]
fn same_cycle_ties_break_by_seq_never_by_cpu() {
    // CPU indices deliberately run *against* seq order: if either
    // structure consulted the cpu field, the drain order would flip.
    for kind in [EventQueueKind::Heap, EventQueueKind::Calendar] {
        let mut q = EventQueue::new(kind);
        q.push(Cycle::new(40), 1, 9);
        q.push(Cycle::new(40), 2, 5);
        q.push(Cycle::new(40), 3, 0);
        q.push(Cycle::new(7), 4, 8);
        q.push(Cycle::new(7), 5, 2);
        assert_eq!(
            drain(&mut q),
            vec![
                (Cycle::new(7), 4, 8),
                (Cycle::new(7), 5, 2),
                (Cycle::new(40), 1, 9),
                (Cycle::new(40), 2, 5),
                (Cycle::new(40), 3, 0),
            ],
            "{kind:?}"
        );
    }
}

/// One scripted step: an optional wake issued during the step, then the
/// action it returns.
type Step = (Option<ThreadId>, Action);

/// `(thread, now)` of every step of one run, in step order.
type StepLog = Rc<RefCell<Vec<(usize, u64)>>>;

/// A thread that runs a fixed schedule of steps, waking as told, then
/// finishes. It can log the time of each of its steps.
struct Script {
    steps: Vec<Step>,
    next: usize,
    log: Option<StepLog>,
}

impl Script {
    fn new(actions: Vec<Action>) -> Self {
        Self::waking(actions.into_iter().map(|a| (None, a)).collect())
    }

    fn waking(steps: Vec<Step>) -> Self {
        Self {
            steps,
            next: 0,
            log: None,
        }
    }
}

impl ThreadLogic<()> for Script {
    fn step(&mut self, _world: &mut (), ctx: &mut ThreadCtx) -> Action {
        if let Some(log) = &self.log {
            log.borrow_mut()
                .push((ctx.thread.index(), ctx.now.as_u64()));
        }
        let step = self.steps.get(self.next).cloned();
        self.next += 1;
        let Some((wake, action)) = step else {
            return Action::Finish;
        };
        if let Some(target) = wake {
            ctx.wake(target);
        }
        action
    }
}

#[test]
fn zero_cost_work_still_advances_time() {
    // engine.rs clamps a Work arm to >= 1 cycle. Without it, 1000
    // zero-cost steps would re-arm at one timestamp and the run would
    // finish with a makespan no larger than the setup costs.
    let mut engine = Engine::new(EngineConfig::with_cpus(1), ());
    engine.spawn(Box::new(Script::new(vec![
        Action::work(0, Bucket::NonTx);
        1000
    ])));
    let report = engine.run();
    assert!(
        report.makespan.as_u64() >= 1000,
        "zero-cost work steps must each advance >= 1 cycle, makespan {}",
        report.makespan.as_u64()
    );
}

#[test]
fn zero_cost_yield_cannot_starve_the_run_queue() {
    // engine.rs clamps a Yield arm to >= 1 cycle. With a free yield
    // syscall a lone yielder would otherwise monopolise the timestamp;
    // the worker sharing its CPU must still finish its real work.
    let mut cfg = EngineConfig::with_cpus(1);
    cfg.costs.yield_syscall = 0;
    cfg.costs.context_switch = 0;
    let mut engine = Engine::new(cfg, ());
    engine.spawn(Box::new(Script::new(vec![Action::Yield; 500])));
    engine.spawn(Box::new(Script::new(vec![
        Action::work(10, Bucket::NonTx);
        20
    ])));
    let report = engine.run();
    assert_eq!(report.total().get(Bucket::NonTx), 200, "worker ran dry");
    assert!(
        report.makespan.as_u64() >= 500,
        "zero-cost yields must each advance >= 1 cycle, makespan {}",
        report.makespan.as_u64()
    );
}

#[test]
fn engine_results_are_identical_under_both_queues() {
    // The queue kind is a pure wall-clock knob: an engine run with
    // mixed work/yield traffic over several overcommitted CPUs must
    // produce the same makespan and the same cycle accounting under
    // the heap and the calendar.
    let run = |kind: EventQueueKind| {
        let mut engine = Engine::new(EngineConfig::with_cpus(3).queue(kind), ());
        for t in 0..9u64 {
            let mut actions = Vec::new();
            for i in 0..40u64 {
                if (t + i) % 5 == 0 {
                    actions.push(Action::Yield);
                } else {
                    actions.push(Action::work(1 + (t * 31 + i * 7) % 400, Bucket::NonTx));
                }
            }
            engine.spawn(Box::new(Script::new(actions)));
        }
        engine.run()
    };
    let heap = run(EventQueueKind::Heap);
    let calendar = run(EventQueueKind::Calendar);
    assert_eq!(heap.makespan, calendar.makespan);
    assert_eq!(heap.total(), calendar.total());
    assert_eq!(heap.per_thread, calendar.per_thread);
}

/// Runs `threads` (spawned round-robin) under `cfg` with full tracing
/// under both queue kinds, requires byte-identical reports, and returns
/// the calendar run's report after auditing it.
fn identical_full_traces(cfg: EngineConfig, threads: &[Vec<Step>]) -> RunReport {
    let run = |kind: EventQueueKind| {
        let cfg = cfg.clone().queue(kind).trace(TraceMode::Full);
        let mut engine = Engine::new(cfg, ());
        for steps in threads {
            engine.spawn(Box::new(Script::waking(steps.clone())));
        }
        engine.run()
    };
    let heap = run(EventQueueKind::Heap);
    let calendar = run(EventQueueKind::Calendar);
    assert_eq!(heap.makespan, calendar.makespan);
    assert_eq!(heap.per_thread, calendar.per_thread);
    assert!(!calendar.trace.is_empty());
    assert_eq!(heap.trace, calendar.trace, "the queues' traces diverged");
    bfgts_trace::audit(&calendar.trace, &calendar.audit_inputs())
        .unwrap_or_else(|v| panic!("audit violations: {v:#?}"));
    calendar
}

#[test]
fn timed_sleepers_on_several_cpus_trace_identically_under_both_queues() {
    // Twelve threads on four CPUs park on staggered deadlines between
    // bursts of work, some far past the calendar window. While the other
    // CPUs sleep, the one awake CPU's re-arm is strictly below the queue
    // minimum, so it runs ahead for whole bursts; where deadlines
    // cluster, run-ahead ends and the queue orders the CPUs again.
    let threads: Vec<Vec<Step>> = (0..12u64)
        .map(|t| {
            let mut steps = Vec::new();
            let mut deadline = 0;
            for round in 0..6u64 {
                for slice in 0..(1 + (t + round) % 4) {
                    steps.push((None, Action::work(40 + 13 * slice + t, Bucket::NonTx)));
                }
                deadline += match (t + round) % 3 {
                    0 => 700 + 31 * t,
                    1 => 2_500,
                    _ => 20_000 + 97 * t,
                };
                steps.push((None, Action::SleepUntil { deadline }));
            }
            steps
        })
        .collect();
    let report = identical_full_traces(EngineConfig::with_cpus(4), &threads);
    // Deadlines reach several calendar windows (8192 cycles) ahead.
    assert!(report.makespan.as_u64() > 40_000, "{}", report.makespan);
}

#[test]
fn a_wake_superseding_an_idle_timer_traces_identically_under_both_queues() {
    // cpu0 holds t0, parked until 30_000, and t2, which blocks at about
    // 4_100; cpu0 then goes idle on an idle timer for t0's deadline.
    // cpu1's t1 wakes t2 at 10_000 (a context switch plus an 8_000-cycle
    // slice): the wake supersedes cpu0's timer, whose stale event stays
    // queued. cpu0 picks t2 up without a switch and runs ahead through
    // its slices, since t1 has one short step left and then nothing is
    // pending before the stale timer. When t2 finishes, cpu0 arms a
    // fresh timer at the stale event's own time; the stale one, with
    // its older seq, pops first and is discarded.
    let t0 = vec![
        (None, Action::work(100, Bucket::NonTx)),
        (None, Action::SleepUntil { deadline: 30_000 }),
        (None, Action::work(50, Bucket::NonTx)),
    ];
    let t1 = vec![
        (None, Action::work(8_000, Bucket::NonTx)),
        (Some(ThreadId(2)), Action::work(10, Bucket::NonTx)),
    ];
    let mut t2 = vec![(None, Action::Block)];
    t2.extend((0..8).map(|i| (None, Action::work(60 + 5 * i, Bucket::Tx))));
    let report = identical_full_traces(EngineConfig::with_cpus(2), &[t0, t1, t2]);
    let woken_at = report
        .trace
        .events
        .iter()
        .find(|r| matches!(r.ev, TraceEvent::Charge { thread: 2, bucket, .. } if bucket == Bucket::Tx))
        .map(|r| r.at)
        .expect("t2 ran after its wake");
    assert_eq!(woken_at, 10_000, "the wake waited for the timer");
    assert!(report.makespan.as_u64() >= 30_000, "t0 still wakes on time");
}

/// Small OS costs, so pinned traces stay short and readable.
fn small_os(cpus: usize, quantum: u64) -> EngineConfig {
    EngineConfig::with_cpus(cpus).costs(CostModel {
        context_switch: 5,
        yield_syscall: 3,
        futex_block: 4,
        futex_wake: 7,
        quantum,
        ..CostModel::default()
    })
}

/// One line per trace event: `at cpu thread bucket-or-switch cycles`.
fn render(report: &RunReport) -> Vec<String> {
    report
        .trace
        .events
        .iter()
        .map(|r| match r.ev {
            TraceEvent::Charge {
                cpu,
                thread,
                bucket,
                cycles,
            } => format!("{} c{cpu} t{thread} {bucket:?} {cycles}", r.at),
            TraceEvent::ContextSwitch { cpu, thread, cost } => {
                format!("{} c{cpu} t{thread} switch {cost}", r.at)
            }
            ev => format!("{} {ev:?}", r.at),
        })
        .collect()
}

/// Requires the full trace of `threads` under `cfg` to be identical
/// under both queue kinds and equal to `pinned`. The pinned lines are
/// what an engine that queues the re-arm of every step records, so a
/// burst that ends one step early or late changes them.
fn assert_pinned(cfg: EngineConfig, threads: &[Vec<Step>], pinned: &[&str]) {
    let got = render(&identical_full_traces(cfg, threads));
    assert_eq!(got, pinned, "the trace moved; it is now {got:#?}");
}

fn work(cycles: u64) -> Step {
    (None, Action::work(cycles, Bucket::NonTx))
}

#[test]
fn a_queued_event_at_the_next_step_time_goes_first() {
    // cpu0's t0 steps every 10 cycles from 5. cpu1's t1 is busy from 5
    // to 45, so t0 runs ahead through 15, 25 and 35. Its next step would
    // come at 45, where t1's event, armed earlier with a lower seq, is
    // queued: the tie ends the burst and t1 charges at 45 before t0.
    let t0 = vec![work(10); 6];
    let t1 = vec![work(40), work(10)];
    assert_pinned(
        small_os(2, 1_000_000),
        &[t0, t1],
        &[
            "0 c0 t0 switch 5",
            "0 c0 t0 Kernel 5",
            "0 c1 t1 switch 5",
            "0 c1 t1 Kernel 5",
            "5 c0 t0 NonTx 10",
            "5 c1 t1 NonTx 40",
            "15 c0 t0 NonTx 10",
            "25 c0 t0 NonTx 10",
            "35 c0 t0 NonTx 10",
            "45 c1 t1 NonTx 10",
            "45 c0 t0 NonTx 10",
            "55 c0 t0 NonTx 10",
        ],
    );
}

#[test]
fn a_sleeper_due_at_the_next_step_time_ends_the_burst() {
    // One CPU, quantum 20. t1 parks until 66 while t0 runs steps of 10
    // from 36, past its quantum with nobody waiting. Its step after 56
    // would come at 66, when t1 is due: the burst ends there, t1 is
    // promoted and preempts t0, whose quantum is used up.
    let t0 = vec![work(10); 8];
    let t1 = vec![(None, Action::SleepUntil { deadline: 66 }), work(10)];
    assert_pinned(
        small_os(1, 20),
        &[t0, t1],
        &[
            "0 c0 t0 switch 5",
            "0 c0 t0 Kernel 5",
            "5 c0 t0 NonTx 10",
            "15 c0 t0 NonTx 10",
            "25 c0 t1 switch 5",
            "25 c0 t1 Kernel 5",
            "31 c0 t0 switch 5",
            "31 c0 t0 Kernel 5",
            "36 c0 t0 NonTx 10",
            "46 c0 t0 NonTx 10",
            "56 c0 t0 NonTx 10",
            "66 c0 t1 switch 5",
            "66 c0 t1 Kernel 5",
            "71 c0 t1 NonTx 10",
            "81 c0 t0 switch 5",
            "81 c0 t0 Kernel 5",
            "86 c0 t0 NonTx 10",
            "96 c0 t0 NonTx 10",
            "106 c0 t0 NonTx 10",
        ],
    );
}

#[test]
fn quantum_expiry_ends_a_burst_only_when_another_thread_waits() {
    // One CPU, quantum 25. t0's third step uses its quantum up while t1
    // waits, so the burst ends and t1 gets the CPU. Once t1 is done, t0
    // runs past its quantum with an empty run queue and keeps running
    // ahead to the end.
    let t0 = vec![work(10); 7];
    let t1 = vec![work(10)];
    assert_pinned(
        small_os(1, 25),
        &[t0, t1],
        &[
            "0 c0 t0 switch 5",
            "0 c0 t0 Kernel 5",
            "5 c0 t0 NonTx 10",
            "15 c0 t0 NonTx 10",
            "25 c0 t0 NonTx 10",
            "35 c0 t1 switch 5",
            "35 c0 t1 Kernel 5",
            "40 c0 t1 NonTx 10",
            "50 c0 t0 switch 5",
            "50 c0 t0 Kernel 5",
            "55 c0 t0 NonTx 10",
            "65 c0 t0 NonTx 10",
            "75 c0 t0 NonTx 10",
            "85 c0 t0 NonTx 10",
        ],
    );
}

#[test]
fn a_wake_mid_burst_ends_it_only_when_it_arms_another_cpu() {
    // t1 blocks on cpu1. cpu0's t0 runs ahead and wakes it at 25: the
    // wake arms the idle cpu1 at 25, which ends t0's burst. t0's second
    // wake finds t1 running a long step: it is only remembered, arms
    // nothing, and t0 runs ahead to the end. t1's next block consumes it.
    let wake_t1 = |cycles| (Some(ThreadId(1)), Action::work(cycles, Bucket::NonTx));
    let t0 = vec![
        work(10),
        work(10),
        wake_t1(10),
        work(10),
        wake_t1(10),
        work(10),
        work(10),
    ];
    let t1 = vec![
        (None, Action::Block),
        work(100),
        (None, Action::Block),
        work(10),
    ];
    assert_pinned(
        small_os(2, 1_000_000),
        &[t0, t1],
        &[
            "0 c0 t0 switch 5",
            "0 c0 t0 Kernel 5",
            "0 c1 t1 switch 5",
            "0 c1 t1 Kernel 5",
            "5 c0 t0 NonTx 10",
            "5 c1 t1 Kernel 4",
            "15 c0 t0 NonTx 10",
            "25 c0 t0 Kernel 7",
            "32 c0 t0 NonTx 10",
            "25 c1 t1 NonTx 100",
            "42 c0 t0 NonTx 10",
            "52 c0 t0 Kernel 7",
            "59 c0 t0 NonTx 10",
            "69 c0 t0 NonTx 10",
            "79 c0 t0 NonTx 10",
            "125 c1 t1 Kernel 4",
            "129 c1 t1 NonTx 10",
        ],
    );
}

#[test]
fn zero_cycle_work_runs_ahead_one_cycle_at_a_time() {
    // Zero-cycle steps still advance one cycle each (the starvation
    // clamp), interleaved with cpu1's 7-cycle steps.
    let t0 = vec![
        work(0),
        work(0),
        work(0),
        work(0),
        work(10),
        work(0),
        work(10),
    ];
    let t1 = vec![work(7), work(7), work(0), work(7)];
    assert_pinned(
        small_os(2, 1_000_000),
        &[t0, t1],
        &[
            "0 c0 t0 switch 5",
            "0 c0 t0 Kernel 5",
            "0 c1 t1 switch 5",
            "0 c1 t1 Kernel 5",
            "5 c1 t1 NonTx 7",
            "9 c0 t0 NonTx 10",
            "12 c1 t1 NonTx 7",
            "20 c0 t0 NonTx 10",
            "20 c1 t1 NonTx 7",
        ],
    );
}

#[test]
fn max_cycles_mid_burst_fails_after_the_same_step() {
    // t0 steps every 10 cycles from 5 with nothing else queued, so it
    // runs ahead until its next step would pass the limit. That step is
    // queued, popped and rejected: the run fails with the limit, and the
    // last step taken is the last one within it.
    for (limit, pinned) in [
        (55, &[5, 15, 25, 35, 45, 55][..]),
        (54, &[5, 15, 25, 35, 45][..]),
    ] {
        for kind in [EventQueueKind::Heap, EventQueueKind::Calendar] {
            let mut cfg = small_os(1, 1_000_000).queue(kind);
            cfg.max_cycles = limit;
            let mut engine = Engine::new(cfg, ());
            let log = StepLog::default();
            let mut t0 = Script::new(vec![Action::work(10, Bucket::NonTx); 20]);
            t0.log = Some(Rc::clone(&log));
            engine.spawn(Box::new(t0));
            let err = engine
                .try_run_into()
                .expect_err("the run passes max_cycles");
            assert_eq!(err, RunError::MaxCycles { limit }, "{kind:?}");
            let steps: Vec<u64> = log.borrow().iter().map(|&(_, at)| at).collect();
            assert_eq!(steps, pinned, "{kind:?}, limit {limit}");
        }
    }
}
