//! Steady-state heap allocations per commit on the simulator's hot path.
//!
//! Each cell runs one scenario at two lengths through the one execution
//! path. Set-up (sources, tables, the run report) costs the same at both
//! lengths, so the difference in allocations over the difference in
//! commits is what one more committed transaction costs. The counts are
//! deterministic: a change that makes the HTM access path, the
//! per-thread transaction logic or a contention manager allocate per
//! access or per attempt again fails here without timing anything.
//!
//! A per-commit difference cannot see what a run pays once, so one
//! short open-system run also has its whole allocation count bounded:
//! the engine's event loop, calendar queue and trace sink must not
//! allocate per bucket or per event either.
//!
//! Allocations are counted per thread (the idiom of
//! `crates/bloomsig/tests/alloc_counts.rs`), so sibling tests running in
//! parallel cannot leak into a measured window.

use bfgts_bench::runner::RunCell;
use bfgts_scenario::{ManagerKind, Platform};
use bfgts_sim::TraceMode;
use bfgts_workloads::{presets, ArrivalSpec, BenchmarkSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates every operation to the system allocator unchanged;
// the counter is a thread-local side effect that never allocates
// (`const`-initialised, no destructor), and `try_with` skips counting
// once the thread's locals are torn down.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Most allocations one steady-state commit may cost on the paper
/// platform (16 CPUs, one detection shard).
const PAPER_BOUND: f64 = 4.0;

/// Most allocations one steady-state commit may cost on the sharded
/// 256-CPU platform.
const SHARDED_BOUND: f64 = 8.0;

/// Runs `spec` with `total_txs` transactions under `kind` and returns
/// (allocations during the run, commits).
fn run(spec: &BenchmarkSpec, total_txs: u64, kind: ManagerKind, platform: Platform) -> (u64, u64) {
    let mut spec = spec.clone();
    spec.total_txs = total_txs;
    let cell = RunCell::one(&spec, kind, platform);
    let before = allocations();
    let report = cell.execute_report(TraceMode::Off);
    let allocs = allocations() - before;
    (allocs, report.stats.commits())
}

/// Steady-state allocations per commit of `spec` under `kind`: the
/// run at `long` transactions minus the run at `short`, per extra commit.
fn per_commit(
    spec: &BenchmarkSpec,
    (short, long): (u64, u64),
    kind: ManagerKind,
    platform: Platform,
) -> f64 {
    let (a_short, c_short) = run(spec, short, kind, platform);
    let (a_long, c_long) = run(spec, long, kind, platform);
    assert_eq!(
        (c_short, c_long),
        (short, long),
        "every transaction commits"
    );
    a_long.saturating_sub(a_short) as f64 / (c_long - c_short) as f64
}

fn assert_cell(spec: BenchmarkSpec, lengths: (u64, u64), platform: Platform, bound: f64) {
    for kind in [ManagerKind::BfgtsHw, ManagerKind::Backoff] {
        let n = per_commit(&spec, lengths, kind, platform);
        assert!(
            n <= bound,
            "{} under {}: {n:.2} allocations per commit, bound {bound}",
            spec.name,
            kind.label()
        );
    }
}

fn sharded_256() -> Platform {
    Platform {
        cpus: 256,
        threads: 1024,
        ..Platform::paper()
    }
    .sharded(16)
}

#[test]
fn kmeans_on_the_paper_platform() {
    assert_cell(
        presets::kmeans(),
        (800, 1600),
        Platform::paper(),
        PAPER_BOUND,
    );
}

#[test]
fn delaunay_on_the_paper_platform() {
    assert_cell(
        presets::delaunay(),
        (200, 400),
        Platform::paper(),
        PAPER_BOUND,
    );
}

#[test]
fn kmeans_on_256_sharded_cpus() {
    assert_cell(
        presets::kmeans(),
        (2000, 4000),
        sharded_256(),
        SHARDED_BOUND,
    );
}

/// Most allocations the whole open-system run below may cost, fully
/// traced: set-up, the run and the report.
const OPEN_RUN_BOUND: u64 = 800;

#[test]
fn whole_open_run_on_the_small_platform() {
    // The Poisson Kmeans request shape `bfgts_serve` answers most often,
    // shortened. Its arrivals keep threads parked on deadlines, so the
    // run exercises sleepers, idle timers and waking CPUs, and its
    // makespan spans many calendar windows (8192 cycles each): a queue
    // that allocated per bucket on first use would pay it here.
    let mut spec = presets::kmeans();
    spec.total_txs = 240;
    let cell = RunCell::one(&spec, ManagerKind::BfgtsHw, Platform::small())
        .open(ArrivalSpec::poisson(1200));
    let before = allocations();
    let report = cell.execute_report(TraceMode::Full);
    let allocs = allocations() - before;
    assert_eq!(report.stats.commits(), 240, "every transaction commits");
    assert!(
        report.sim.makespan.as_u64() > 4 * 8192,
        "makespan {} spans too few calendar windows",
        report.sim.makespan
    );
    assert!(
        allocs <= OPEN_RUN_BOUND,
        "{allocs} allocations for one open run, bound {OPEN_RUN_BOUND}"
    );
}
