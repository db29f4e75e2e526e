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
//! On bounded detection with the `bloom_corrupt` fault the unit of work
//! is the attempt, so that shape bounds the allocations of one more
//! attempt: a begin that allocates its signatures or its corrupted bit
//! positions fails there.
//!
//! Counts cannot see how much a run holds, so Kmeans runs at 256 and at
//! 1024 CPUs, and a Delaunay run whose stored read/write sets are long,
//! also have their peak live heap bounded: a thread slot, the run's
//! statistics or a contention manager that keeps more bytes per thread
//! or per dTxID fails here, again without any timing. One 1024-CPU run
//! commits each dTxID several times, so the sets kept across commits
//! are re-encoded over and over: a set that reallocates or grows its
//! buffer by doubling fails there.
//!
//! Allocations and live bytes are counted per thread (the idiom of
//! `crates/bloomsig/tests/alloc_counts.rs`), so sibling tests running in
//! parallel cannot leak into a measured window.

use bfgts_bench::runner::RunCell;
use bfgts_scenario::{ManagerKind, Platform, WorkloadSpec};
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

/// Most allocations one more attempt may cost on bounded 64-bit, 1-hash
/// signatures of capacity 24, with the `bloom_corrupt` fault forcing 16
/// bits into 60% of begins (`bfgts_serve`'s bounded Hotspot request).
/// Collecting a begin's forced positions in a fresh vector cost 1.55;
/// forcing each as it is drawn costs 0.96.
const BOUNDED_ATTEMPT_BOUND: f64 = 1.25;

/// The committed bounded, corrupted Hotspot scenario at `total_txs`,
/// run untraced: (allocations during the run, commits, attempts).
fn run_bounded_hotspot(total_txs: u64) -> (u64, u64, u64) {
    let text = include_str!("../examples/scenarios/bounded_sig_corrupt_hotspot.scenario.json");
    let mut scenario = bfgts_scenario::scenarios_from_str(text)
        .expect("the example scenario parses")
        .remove(0);
    scenario.workload = WorkloadSpec::Adversarial {
        name: scenario.workload.name().to_string(),
        total_txs,
    };
    let cell = RunCell::from_scenario(scenario).expect("the workload resolves");
    let before = allocations();
    let report = cell.execute_report(TraceMode::Off);
    let allocs = allocations() - before;
    let commits = report.stats.commits();
    (allocs, commits, commits + report.stats.aborts())
}

#[test]
fn bounded_corrupted_hotspot_per_attempt() {
    let (a_short, c_short, t_short) = run_bounded_hotspot(900);
    let (a_long, c_long, t_long) = run_bounded_hotspot(1800);
    assert_eq!((c_short, c_long), (900, 1800), "every transaction commits");
    let n = a_long.saturating_sub(a_short) as f64 / (t_long - t_short) as f64;
    assert!(
        n <= BOUNDED_ATTEMPT_BOUND,
        "{n:.2} allocations per attempt, bound {BOUNDED_ATTEMPT_BOUND}"
    );
}

/// Bounds the peak live heap of `spec` at `total_txs` under `kind`.
fn assert_peak(
    mut spec: BenchmarkSpec,
    total_txs: u64,
    kind: ManagerKind,
    platform: Platform,
    bound: u64,
) {
    spec.total_txs = total_txs;
    let cell = RunCell::one(&spec, kind, platform);
    let mut commits = 0;
    let peak = peak_live_bytes(|| commits = cell.execute_report(TraceMode::Off).stats.commits());
    assert_eq!(commits, total_txs, "every transaction commits");
    assert!(
        peak <= bound,
        "{} under {}: {peak} bytes live at the peak, bound {bound}",
        spec.name,
        kind.label()
    );
}

/// Most bytes the 4,000-transaction BFGTS-HW run below may hold live at
/// once. Keeping a 2048-bit filter for every shard a dTxID's last commit
/// touched held 8,465,368 bytes. Keeping its lines beside a 2048-bit
/// whole-set filter held 4,453,152, keeping its lines alone 2,906,696,
/// and keeping them gap-coded, in the signature table and in the
/// similarity trackers, holds 2,173,946.
const SHARDED_PEAK_BOUND: u64 = 2_400_000;

#[test]
fn peak_heap_of_kmeans_on_256_sharded_cpus() {
    assert_peak(
        presets::kmeans(),
        4000,
        ManagerKind::BfgtsHw,
        sharded_256(),
        SHARDED_PEAK_BOUND,
    );
}

/// Most bytes the 1024-CPU runs below may hold live at once, under
/// Backoff and under BFGTS-HW. With room for two 2048-bit detection
/// filters in every thread slot, and BFGTS-HW keeping a 2048-bit filter
/// per dTxID, they held 8,233,096 and 15,255,504 bytes. Without, and
/// with the sets kept across commits as `Vec<LineAddr>`s, they held
/// 5,972,104 and 9,062,592. Gap-coded, in per-thread rows that grow one
/// entry at a time, they hold 5,565,342 and 6,820,580; rows grown by
/// doubling held 6,253,514 under Backoff.
const SCALE_PEAK_BOUNDS: [(ManagerKind, u64); 2] = [
    (ManagerKind::Backoff, 5_750_000),
    (ManagerKind::BfgtsHw, 7_500_000),
];

#[test]
fn peak_heap_of_kmeans_on_1024_sharded_cpus() {
    // `bench_scale`'s widest platform (4 threads per CPU, one shard per
    // 16 CPUs), one transaction per thread.
    let platform = Platform {
        cpus: 1024,
        threads: 4096,
        ..Platform::paper()
    }
    .sharded(64);
    for (kind, bound) in SCALE_PEAK_BOUNDS {
        assert_peak(presets::kmeans(), 4096, kind, platform, bound);
    }
}

/// Most bytes the 12,288-transaction runs below may hold live at once,
/// under Backoff and under BFGTS-HW. Keeping each dTxID's previous set
/// as a `Vec<LineAddr>` held 2,603,088 and 3,886,912 bytes; gap-coded,
/// re-encoded in place, they hold 2,184,391 and 3,076,538.
const RECOMMIT_PEAK_BOUNDS: [(ManagerKind, u64); 2] = [
    (ManagerKind::Backoff, 2_350_000),
    (ManagerKind::BfgtsHw, 3_300_000),
];

#[test]
fn peak_heap_of_kmeans_recommitting_on_1024_sharded_cpus() {
    // One thread per CPU and twelve transactions each, so every thread
    // commits each of Kmeans' three static transactions about four
    // times.
    let platform = Platform {
        cpus: 1024,
        threads: 1024,
        ..Platform::paper()
    }
    .sharded(64);
    for (kind, bound) in RECOMMIT_PEAK_BOUNDS {
        assert_peak(presets::kmeans(), 12_288, kind, platform, bound);
    }
}

/// Most bytes the 640-transaction Delaunay run below may hold live at
/// once under BFGTS-HW on the paper platform. Its stored commits average
/// 170 lines. Keeping a 2048-bit filter per stored entry held 1,242,656
/// bytes; keeping the lines at 8 bytes each held 1,457,528, and 1,574,040
/// when an entry's buffer grew by doubling. Gap-coded, at about 1.1
/// bytes a line, the run's stored sets and its similarity trackers'
/// previous sets hold 792,964.
const LONG_SET_PEAK_BOUND: u64 = 850_000;

#[test]
fn peak_heap_of_delaunay_on_the_paper_platform() {
    assert_peak(
        presets::delaunay(),
        640,
        ManagerKind::BfgtsHw,
        Platform::paper(),
        LONG_SET_PEAK_BOUND,
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
