//! The closed-batch workloads, `paper_grid` and `scale_1024`, driven
//! through `bfgts_bench::runner` exactly as the experiment binaries
//! drive them: `run_grid` with the cache off and one worker.

use crate::clock;
use crate::decor::{run_decorated, BuildTimes, Snapshot};
use crate::gen;
use crate::ledger::Ledger;
use crate::report::{Gate, Metrics, Outcome};
use crate::stats;
use bfgts_bench::runner::{run_grid, CellSummary, RunCell, RunnerOptions};
use bfgts_htm::TmRunReport;
use bfgts_scenario::{ManagerKind, ManagerSpec, Scenario};
use bfgts_sim::TraceMode;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// What a run must reproduce: (makespan, commits, aborts).
pub type Fingerprint = (u64, u64, u64);

/// Fingerprint of a cell summary.
pub fn fp_summary(s: &CellSummary) -> Fingerprint {
    (s.makespan, s.commits, s.aborts)
}

/// Fingerprint of a full run report.
pub fn fp_report(r: &TmRunReport) -> Fingerprint {
    (r.sim.makespan.as_u64(), r.stats.commits(), r.stats.aborts())
}

/// The simulated end-to-end metrics of one pass: makespan summed over
/// cells, abort ratio, and BFGTS-HW's mean speedup over serial.
/// `serial` maps scenario ids to serial makespans ([`serial_makespans`]).
pub fn simulated(
    scenarios: &[Scenario],
    fps: &[Fingerprint],
    serial: &BTreeMap<String, u64>,
    m: &mut Metrics,
) {
    let makespan: u64 = fps.iter().map(|f| f.0).sum();
    let commits: u64 = fps.iter().map(|f| f.1).sum();
    let aborts: u64 = fps.iter().map(|f| f.2).sum();
    m.push("makespan_mcycles", makespan as f64 / 1e6, "Mcycles");
    m.push(
        "abort_ratio",
        aborts as f64 / (commits + aborts).max(1) as f64,
        "ratio",
    );
    m.push("bfgts_hw_speedup", hw_speedup(scenarios, fps, serial), "x");
}

fn is_hw(s: &Scenario) -> bool {
    matches!(
        s.manager,
        ManagerSpec::Kind {
            kind: ManagerKind::BfgtsHw,
            ..
        }
    )
}

/// Mean over BFGTS-HW scenarios of serial-twin makespan / own makespan.
fn hw_speedup(scenarios: &[Scenario], fps: &[Fingerprint], serial: &BTreeMap<String, u64>) -> f64 {
    let ratios: Vec<f64> = scenarios
        .iter()
        .zip(fps)
        .filter(|(s, f)| is_hw(s) && f.0 > 0)
        .filter_map(|(s, f)| {
            let reference = serial.get(&gen::serial_twin(s).id())?;
            Some(*reference as f64 / f.0 as f64)
        })
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        ratios.iter().sum::<f64>() / ratios.len() as f64
    }
}

/// Serial makespans by scenario id: the workload's own serial cells, and
/// one run of the serial twin of every BFGTS-HW scenario that has none
/// among them (`scale_1024` and `serve_mix`; the grid has its own).
pub fn serial_makespans(
    scenarios: &[Scenario],
    fps: &[Fingerprint],
    gate: &mut Gate,
) -> BTreeMap<String, u64> {
    let mut serial: BTreeMap<String, u64> = scenarios
        .iter()
        .zip(fps)
        .filter(|(s, _)| matches!(s.manager, ManagerSpec::Serial))
        .map(|(s, f)| (s.id(), f.0))
        .collect();
    let mut twins: BTreeMap<String, RunCell> = BTreeMap::new();
    for s in scenarios.iter().filter(|s| is_hw(s)) {
        let twin = gen::serial_twin(s);
        let id = twin.id();
        if !serial.contains_key(&id) {
            match RunCell::from_scenario(twin) {
                Ok(cell) => {
                    twins.insert(id, cell);
                }
                Err(e) => gate.check(false, || format!("serial twin {id}: {e}")),
            }
        }
    }
    let cells: Vec<RunCell> = twins.into_values().collect();
    match grid(&cells) {
        Some(done) => {
            for (cell, summary) in cells.iter().zip(&done) {
                gate.check(true, String::new);
                serial.insert(cell.scenario.id(), summary.makespan);
            }
        }
        None => gate.check(false, || "serial twin run panicked".into()),
    }
    serial
}

/// Which batch workload.
#[derive(Debug, Clone, Copy)]
pub enum Batch {
    /// The Figure 4 grid on the paper platform.
    PaperGrid,
    /// Two Kmeans cells at 1024 CPUs.
    Scale1024,
}

impl Batch {
    fn generate(self, seed: u64) -> Vec<Scenario> {
        match self {
            Batch::PaperGrid => gen::paper_grid(seed),
            Batch::Scale1024 => gen::scale_1024(seed),
        }
    }
}

/// Scenario generation, text parsing and `RunCell` construction.
fn build_cells(text: &str) -> Result<Vec<RunCell>, String> {
    bfgts_scenario::scenarios_from_str(text)?
        .into_iter()
        .map(RunCell::from_scenario)
        .collect()
}

fn opts() -> RunnerOptions {
    RunnerOptions {
        jobs: 1,
        cache_dir: None,
    }
}

/// One `run_grid` call; `None` when it panicked.
pub fn grid(cells: &[RunCell]) -> Option<Vec<CellSummary>> {
    catch_unwind(AssertUnwindSafe(|| run_grid(cells, &opts()))).ok()
}

/// Runs one batch workload for at least `seconds` of timed phase.
/// `started` is when the process started: set-up runs from there to the
/// start of the timed phase.
pub fn run(
    batch: Batch,
    seed: u64,
    seconds: f64,
    traced: bool,
    started: Instant,
) -> (Outcome, Option<Ledger>) {
    let mut out = Outcome::default();
    let text = gen::to_text(&batch.generate(seed));
    let cells = match build_cells(&text) {
        Ok(cells) => cells,
        Err(e) => {
            out.gate.check(false, || format!("set-up: {e}"));
            return (out, None);
        }
    };
    let scenarios: Vec<Scenario> = cells.iter().map(|c| c.scenario.clone()).collect();
    // Untimed warm-up pass; the reference every later run must match.
    let Some(warm) = grid(&cells) else {
        out.gate.check(false, || "warm-up pass panicked".into());
        return (out, None);
    };
    let warm_fp: Vec<Fingerprint> = warm.iter().map(fp_summary).collect();
    out.gate.attempted += warm.len() as u64;
    for (cell, f) in cells.iter().zip(&warm_fp) {
        out.info.push(format!(
            "cell {} {} {}: makespan {} commits {} aborts {}",
            cell.scenario.workload.name(),
            cell.scenario.manager.label(),
            cell.scenario.id(),
            f.0,
            f.1,
            f.2
        ));
    }
    let serial = serial_makespans(&scenarios, &warm_fp, &mut out.gate);
    if traced {
        let ledger = traced_pass(&cells, &text, &warm_fp, &mut out.gate, &mut out.info);
        out.metrics = ledger.metrics();
        return (out, Some(ledger));
    }
    let setup = started.elapsed();
    // Timed phase: whole passes, each one `run_grid` call over every
    // cell, until `seconds` have elapsed.
    let mut passes = Vec::new();
    let mut commits = 0u64;
    let phase = clock::now();
    loop {
        let (res, d) = clock::timed(|| grid(&cells));
        for (i, want) in warm_fp.iter().enumerate() {
            let got = res.as_ref().and_then(|v| v.get(i)).map(fp_summary);
            out.gate.check(got == Some(*want), || {
                format!("cell {i} timed run {got:?} != warm-up {want:?}")
            });
            commits += got.map_or(0, |f| f.1);
        }
        passes.push(clock::ms(d));
        if phase.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let elapsed = phase.elapsed().as_secs_f64();
    out.info.push(format!(
        "timed phase: {} pass(es), {elapsed:.3} s; reply = one pass, {} beyond p90",
        passes.len(),
        stats::beyond(passes.len(), 90)
    ));
    let m = &mut out.metrics;
    m.push("setup_s", setup.as_secs_f64(), "s");
    m.push("sim_tx_per_s", commits as f64 / elapsed, "tx/s");
    simulated(&scenarios, &warm_fp, &serial, m);
    m.push(
        "reply_p50_ms",
        stats::nearest_rank(&passes, 50).unwrap_or(0.0),
        "ms",
    );
    m.push(
        "reply_p90_ms",
        stats::nearest_rank(&passes, 90).unwrap_or(0.0),
        "ms",
    );
    (out, None)
}

/// The traced run: per-cell undecorated timings (for the runner
/// residual and the overhead ratio), then the decorated pass.
fn traced_pass(
    cells: &[RunCell],
    text: &str,
    warm_fp: &[Fingerprint],
    gate: &mut Gate,
    info: &mut Vec<String>,
) -> Ledger {
    let mut ledger = Ledger::default();
    // Each cell twice, back to back: through `run_grid` and bare. The
    // order alternates so slow host drift cancels out of the difference.
    let mut grid_wall = Duration::ZERO;
    let mut cell_wall = Duration::ZERO;
    for (i, cell) in cells.iter().enumerate() {
        let via_grid = || clock::timed(|| grid(std::slice::from_ref(cell)));
        let bare = || clock::timed(|| catch_unwind(AssertUnwindSafe(|| cell.execute())).ok());
        let ((g, dg), (b, db)) = if i % 2 == 0 {
            let g = via_grid();
            (g, bare())
        } else {
            let b = bare();
            (via_grid(), b)
        };
        grid_wall += dg;
        cell_wall += db;
        let got_g = g.as_ref().and_then(|v| v.first()).map(fp_summary);
        let got_b = b.as_ref().map(fp_summary);
        gate.check(got_g == Some(warm_fp[i]), || {
            format!(
                "cell {i} run_grid run {got_g:?} != warm-up {:?}",
                warm_fp[i]
            )
        });
        gate.check(got_b == Some(warm_fp[i]), || {
            format!("cell {i} bare run {got_b:?} != warm-up {:?}", warm_fp[i])
        });
    }
    ledger.untraced_run = cell_wall;
    ledger.runner_ms = clock::ms(grid_wall) - clock::ms(cell_wall);
    ledger.start();
    let (parsed, d) = ledger.span(None, "parse", || build_cells(text));
    ledger.parse += d;
    let parsed = match parsed {
        Ok(cells) => cells,
        Err(e) => {
            gate.check(false, || format!("traced parse: {e}"));
            return ledger;
        }
    };
    let counters = ledger.counters.clone();
    for (i, cell) in parsed.iter().enumerate() {
        let before = counters.snapshot();
        let (res, _) = ledger.span(Some(i), "cell", || {
            catch_unwind(AssertUnwindSafe(|| {
                run_decorated(cell, TraceMode::Off, &counters)
            }))
            .ok()
        });
        let got = res.as_ref().map(|(r, _)| fp_report(r));
        gate.check(got == Some(warm_fp[i]), || {
            format!("cell {i} traced run {got:?} != warm-up {:?}", warm_fp[i])
        });
        if let Some((report, times)) = res {
            info.push(cell_shares(cell, &times, before, counters.snapshot()));
            ledger.add_build(Some(i), &times);
            ledger.commits += report.stats.commits();
            ledger.aborts += report.stats.aborts();
        }
    }
    ledger.stop();
    ledger
}

/// One cell's layer split in the traced pass, as a printable line.
fn cell_shares(cell: &RunCell, t: &BuildTimes, before: Snapshot, after: Snapshot) -> String {
    let ms = |ns: u64| ns as f64 / 1e6;
    let step = after.step_ns - before.step_ns;
    let child = after.child_ns - before.child_ns;
    let htm = ms(step - child) + clock::ms(t.htm);
    let sim = clock::ms(t.run) - ms(step) + clock::ms(t.sim);
    let cm = ms(after.cm_ns - before.cm_ns) + clock::ms(t.cm);
    let workloads = ms(after.src_ns - before.src_ns) + clock::ms(t.workloads);
    let total = htm + sim + cm + workloads;
    let pct = |x: f64| 100.0 * x / total.max(f64::MIN_POSITIVE);
    format!(
        "ledger {} {}: {total:.1} ms: htm {:.1}% sim {:.1}% cm {:.1}% workloads {:.1}%",
        cell.scenario.workload.name(),
        cell.scenario.manager.label(),
        pct(htm),
        pct(sim),
        pct(cm),
        pct(workloads)
    )
}
