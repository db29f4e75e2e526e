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
//! where the CPU just serviced runs ahead of the queue, with timed
//! sleepers and with a wake that supersedes an idle timer.

use bfgts_sim::equeue::{EventQueue, EventQueueKind};
use bfgts_sim::{
    Action, Bucket, BucketKind, Cycle, Engine, EngineConfig, RunReport, ThreadCtx, ThreadId,
    ThreadLogic, TraceEvent, TraceMode,
};

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

/// A thread that runs a fixed schedule of steps, waking as told, then
/// finishes.
struct Script {
    steps: Vec<Step>,
    next: usize,
}

impl Script {
    fn new(actions: Vec<Action>) -> Self {
        Self::waking(actions.into_iter().map(|a| (None, a)).collect())
    }

    fn waking(steps: Vec<Step>) -> Self {
        Self { steps, next: 0 }
    }
}

impl ThreadLogic<()> for Script {
    fn step(&mut self, _world: &mut (), ctx: &mut ThreadCtx) -> Action {
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

/// Runs `threads` (spawned round-robin) on `cpus` CPUs with full tracing
/// under both queue kinds, requires byte-identical reports, and returns
/// the calendar run's report after auditing it.
fn identical_full_traces(cpus: usize, threads: &[Vec<Step>]) -> RunReport {
    let run = |kind: EventQueueKind| {
        let cfg = EngineConfig::with_cpus(cpus)
            .queue(kind)
            .trace(TraceMode::Full);
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
    let report = identical_full_traces(4, &threads);
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
    let report = identical_full_traces(2, &[t0, t1, t2]);
    let woken_at = report
        .trace
        .events
        .iter()
        .find(|r| matches!(r.ev, TraceEvent::Charge { thread: 2, bucket, .. } if bucket == BucketKind::Tx))
        .map(|r| r.at)
        .expect("t2 ran after its wake");
    assert_eq!(woken_at, 10_000, "the wake waited for the timer");
    assert!(report.makespan.as_u64() >= 30_000, "t0 still wakes on time");
}
