//! Measured competitive ratios: every online manager against the
//! clairvoyant makespan lower bound (DESIGN.md §14).
//!
//! ```text
//! cargo run -p bfgts-bench --release --bin bench_competitive -- [options]
//! ```
//!
//! For each workload the canonical per-thread streams are drained
//! (`bfgts_workloads::drain_canonical`, mirroring the engine's RNG
//! derivation), the realized conflict graph is built, and the
//! clairvoyant lower bound is computed as the max of the work, chain and
//! hot-line floors. Each manager's measured makespan divided by that
//! bound is its competitive ratio — provably ≥ 1, smaller is better.
//! Every cell is re-run with full tracing and audited through I1–I11
//! (the window managers' priority draws are recomputed bit for bit)
//! before its numbers are recorded.
//!
//! The whole artifact is deterministic — no wall-clock fields — and
//! lands in `results/BENCH_competitive.json` by default.

use bfgts_bench::json::Json;
use bfgts_bench::runner::RunCell;
use bfgts_bench::{ManagerKind, ManagerSpec, Platform, Scenario, WorkloadSpec};
use bfgts_scenario::CostKind;
use bfgts_sim::TraceMode;
use bfgts_workloads::{
    drain_canonical, presets, AdversarialSpec, BenchmarkSpec, ConflictGraph, LowerBound,
};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: bench_competitive [options]
options:
  --quick        divide every workload's transaction count by 4
  --out PATH     artifact path (default results/BENCH_competitive.json)
  --seed N       master RNG seed (default the experiment seed)
  -h, --help     show this help";

/// One workload of the sweep: a STAMP-like preset or a PR-4 adversarial
/// generator, at the committed scale.
enum Work {
    Preset(BenchmarkSpec),
    Adversarial(AdversarialSpec),
}

impl Work {
    fn name(&self) -> &'static str {
        match self {
            Work::Preset(s) => s.name,
            Work::Adversarial(s) => s.name,
        }
    }

    fn workload_spec(&self) -> WorkloadSpec {
        match self {
            Work::Preset(s) => WorkloadSpec::from_benchmark(s),
            Work::Adversarial(s) => WorkloadSpec::from_adversarial(s),
        }
    }

    /// The canonical realized streams on `threads` threads under `seed`.
    fn streams(&self, threads: usize, seed: u64) -> Vec<Vec<bfgts_htm::TxInstance>> {
        match self {
            Work::Preset(s) => drain_canonical(s.sources(threads), seed),
            Work::Adversarial(s) => drain_canonical(s.sources(threads), seed),
        }
    }
}

/// The sweep's workloads: four STAMP presets plus two adversarial
/// generators, scaled for a committed-artifact-sized run.
fn workloads(scale: f64) -> Vec<Work> {
    vec![
        Work::Preset(presets::kmeans().scaled(scale)),
        Work::Preset(presets::genome().scaled(scale)),
        Work::Preset(presets::vacation().scaled(scale)),
        Work::Preset(presets::intruder().scaled(scale)),
        Work::Adversarial(AdversarialSpec::hotspot_skew().scaled(scale)),
        Work::Adversarial(AdversarialSpec::contention_storm().scaled(scale)),
    ]
}

/// The roster under measurement: the reactive baselines, the
/// theory-grounded greedy pair, and both BFGTS flavours.
fn managers() -> Vec<ManagerSpec> {
    vec![
        ManagerSpec::Kind {
            kind: ManagerKind::Backoff,
            bloom_bits: None,
        },
        ManagerSpec::Polka,
        ManagerSpec::WindowGreedy {
            window_size: None,
            base_delay: None,
        },
        ManagerSpec::BalancedGreedy { window_size: None },
        ManagerSpec::Kind {
            kind: ManagerKind::BfgtsSw,
            bloom_bits: None,
        },
        ManagerSpec::Kind {
            kind: ManagerKind::BfgtsHw,
            bloom_bits: None,
        },
    ]
}

struct Args {
    quick: bool,
    out: PathBuf,
    seed: u64,
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut out = Args {
        quick: false,
        out: PathBuf::from("results/BENCH_competitive.json"),
        seed: bfgts_scenario::EXPERIMENT_SEED,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "-h" | "--help" => return Ok(None),
            "--quick" => out.quick = true,
            "--out" => {
                i += 1;
                out.out = PathBuf::from(argv.get(i).ok_or("--out needs a value")?);
            }
            "--seed" => {
                i += 1;
                let v = argv.get(i).ok_or("--seed needs a value")?;
                out.seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs an integer, got '{v}'"))?;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    Ok(Some(out))
}

struct Row {
    workload: &'static str,
    manager: String,
    makespan: u64,
    commits: u64,
    aborts: u64,
    window_advances: u64,
    /// Competitive ratio in milli-units (`makespan * 1000 / bound`,
    /// rounded down) — integer so the artifact diffs byte-exactly.
    ratio_milli: u64,
}

fn run_row(work: &Work, manager: ManagerSpec, platform: Platform, bound: u64) -> Row {
    let label = manager.label();
    let scenario = Scenario::new(work.workload_spec(), manager, platform);
    let cell = RunCell::from_scenario(scenario).expect("roster scenarios rebuild from data");
    let report = cell.execute_report(TraceMode::Full);
    let summary = match report.audit() {
        Ok(summary) => summary,
        Err(violations) => {
            for v in &violations {
                eprintln!("bench_competitive: audit violation: {v}");
            }
            panic!(
                "bench_competitive: {label} on {} failed its audit",
                work.name()
            );
        }
    };
    let makespan = report.sim.makespan.as_u64();
    assert!(
        makespan >= bound,
        "{label} on {} finished in {makespan} cycles, below the clairvoyant \
         bound {bound} — the bound is not a lower bound",
        work.name()
    );
    Row {
        workload: work.name(),
        manager: label,
        makespan,
        commits: report.stats.commits(),
        aborts: report.stats.aborts(),
        window_advances: summary.window_advances,
        ratio_milli: makespan * 1000 / bound,
    }
}

fn row_json(row: &Row) -> Json {
    Json::obj([
        ("workload", Json::Str(row.workload.to_string())),
        ("manager", Json::Str(row.manager.clone())),
        ("makespan", Json::UInt(row.makespan)),
        ("commits", Json::UInt(row.commits)),
        ("aborts", Json::UInt(row.aborts)),
        ("window_advances", Json::UInt(row.window_advances)),
        ("ratio_milli", Json::UInt(row.ratio_milli)),
    ])
}

fn bound_json(name: &str, lb: &LowerBound) -> Json {
    Json::obj([
        ("workload", Json::Str(name.to_string())),
        ("total_work", Json::UInt(lb.total_work)),
        ("work_bound", Json::UInt(lb.work_bound)),
        ("chain_bound", Json::UInt(lb.chain_bound)),
        ("hotline_bound", Json::UInt(lb.hotline_bound)),
        ("bound", Json::UInt(lb.bound)),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut platform = Platform::small();
    platform.seed = args.seed;
    let scale = if args.quick { 0.0625 } else { 0.25 };

    // Every row runs under `Scenario::new`'s HTM costs; the bound prices
    // transactions at exactly those costs.
    let run = CostKind::Htm.run_config(platform.cpus, platform.threads, platform.seed);
    let mut bounds = Vec::new();
    let mut rows = Vec::new();
    for work in workloads(scale) {
        let streams = work.streams(platform.threads, platform.seed);
        let graph = ConflictGraph::build(&streams, &run);
        let lb = graph.lower_bound(platform.cpus);
        println!(
            "bench_competitive: {:<20} bound {:>9} (work {}, chain {}, hotline {}; \
             {} nodes, {} edges)",
            work.name(),
            lb.bound,
            lb.work_bound,
            lb.chain_bound,
            lb.hotline_bound,
            graph.nodes().len(),
            graph.edges().len()
        );
        for manager in managers() {
            let row = run_row(&work, manager, platform, lb.bound);
            println!(
                "bench_competitive:   {:<18} ratio {}.{:03} (makespan {:>9}, {} commits, \
                 {} aborts, {} window advances)",
                row.manager,
                row.ratio_milli / 1000,
                row.ratio_milli % 1000,
                row.makespan,
                row.commits,
                row.aborts,
                row.window_advances
            );
            rows.push(row);
        }
        bounds.push(bound_json(work.name(), &lb));
    }

    // Shape checks: the acceptance contract of the sweep.
    assert!(
        rows.iter().all(|r| r.ratio_milli >= 1000),
        "a measured ratio fell below 1.0"
    );
    assert!(
        rows.iter()
            .any(|r| r.manager.starts_with("WindowGreedy") && r.window_advances > 0),
        "window managers never advanced a window — I11 has nothing to audit"
    );

    let doc = Json::obj([
        ("bin", Json::Str("bench_competitive".to_string())),
        ("version", Json::UInt(1)),
        ("seed", Json::UInt(args.seed)),
        ("quick", Json::Bool(args.quick)),
        ("cpus", Json::UInt(platform.cpus as u64)),
        ("threads", Json::UInt(platform.threads as u64)),
        ("bounds", Json::Arr(bounds)),
        ("rows", Json::Arr(rows.iter().map(row_json).collect())),
    ]);
    if let Some(parent) = args.out.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Err(err) = std::fs::create_dir_all(parent) {
            eprintln!("error: could not create {}: {err}", parent.display());
            return ExitCode::FAILURE;
        }
    }
    if let Err(err) = std::fs::write(&args.out, doc.to_string() + "\n") {
        eprintln!("error: could not write {}: {err}", args.out.display());
        return ExitCode::FAILURE;
    }
    println!("bench_competitive: wrote {}", args.out.display());
    ExitCode::SUCCESS
}
