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
//! Counts cannot see how much a run holds, so the sharded 256-CPU Kmeans
//! run also has its peak live heap bounded: a contention manager that
//! keeps more bytes per dTxID fails here, again without any timing.
//!
//! Allocations and live bytes are counted per thread (the idiom of
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
    /// Bytes this thread allocated minus bytes it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` since [`peak_live_bytes`] last restarted it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates every operation to the system allocator unchanged;
// the counters are thread-local side effects that never allocate
// (`const`-initialised, no destructor), and `try_with` skips counting
// once the thread's locals are torn down.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + layout.size() as i64);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
        });
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The most bytes `f` held live at once on this thread, beyond what was
/// live when it started.
fn peak_live_bytes(f: impl FnOnce()) -> u64 {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    f();
    (PEAK.with(Cell::get) - before) as u64
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

/// Most bytes the 4,000-transaction BFGTS-HW run below may hold live at
/// once. Keeping a 2048-bit filter for every shard a dTxID's last commit
/// touched held 8,465,368 bytes; keeping its lines holds 4,453,152.
const SHARDED_PEAK_BOUND: u64 = 6 << 20;

#[test]
fn peak_heap_of_kmeans_on_256_sharded_cpus() {
    let mut spec = presets::kmeans();
    spec.total_txs = 4000;
    let cell = RunCell::one(&spec, ManagerKind::BfgtsHw, sharded_256());
    let mut commits = 0;
    let peak = peak_live_bytes(|| commits = cell.execute_report(TraceMode::Off).stats.commits());
    assert_eq!(commits, 4000, "every transaction commits");
    assert!(
        peak <= SHARDED_PEAK_BOUND,
        "{peak} bytes live at the peak, bound {SHARDED_PEAK_BOUND}"
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
