//! Seeded fault-injection fuzz campaign driver (DESIGN.md §9).
//!
//! ```text
//! cargo run -p bfgts-bench --release --bin bfgts_fuzz -- [options]
//! ```
//!
//! Runs one cell per seed in the range: an adversarial workload, a BFGTS
//! flavour and a randomized fault plan, all derived from the seed as one
//! scenario. Every cell and its Backoff twin are audited through the
//! accounting invariants and checked against the graceful-degradation
//! bound versus Backoff. Violating
//! cells are auto-minimized and written as replayable repro JSON;
//! `--repro PATH` re-executes such a file and verifies both that the
//! violation still reproduces and that the event trace is byte-identical
//! (fingerprint match). `--seeded-violation` runs a control cell that is
//! guaranteed to violate, proving the harness catches failures.

use bfgts_bench::fuzz::{self, CampaignCell};
use bfgts_bench::runner;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: bfgts_fuzz [options]
options:
  --seeds A..B        half-open campaign seed range (default 0..32)
  --jobs N            worker threads (default: available parallelism)
  --out DIR           directory for repro JSON files
                      (default results/repros)
  --repro PATH        replay a repro file instead of running a campaign;
                      exit 0 only if it still violates with a
                      byte-identical trace
  --seeded-violation  run the known-violating control cell; it must be
                      caught (exit 1) and leave a minimized repro
  -h, --help          show this help";

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn parse_seed_range(text: &str) -> Option<(u64, u64)> {
    let (lo, hi) = text.split_once("..")?;
    let lo: u64 = lo.parse().ok()?;
    let hi: u64 = hi.parse().ok()?;
    (lo < hi).then_some((lo, hi))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seeds = (0u64, 32u64);
    let mut jobs = runner::default_jobs();
    let mut out = PathBuf::from("results/repros");
    let mut repro_path: Option<PathBuf> = None;
    let mut control = false;
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize, flag: &str| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match args[i].as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--seeds" => match value(&mut i, "--seeds") {
                Ok(v) => match parse_seed_range(&v) {
                    Some(range) => seeds = range,
                    None => return fail(&format!("--seeds needs A..B with A < B, got '{v}'")),
                },
                Err(msg) => return fail(&msg),
            },
            "--jobs" => match value(&mut i, "--jobs") {
                Ok(v) => match v.parse::<usize>() {
                    Ok(n) if n > 0 => jobs = n,
                    _ => return fail(&format!("--jobs needs a positive integer, got '{v}'")),
                },
                Err(msg) => return fail(&msg),
            },
            "--out" => match value(&mut i, "--out") {
                Ok(v) => out = PathBuf::from(v),
                Err(msg) => return fail(&msg),
            },
            "--repro" => match value(&mut i, "--repro") {
                Ok(v) => repro_path = Some(PathBuf::from(v)),
                Err(msg) => return fail(&msg),
            },
            "--seeded-violation" => control = true,
            other => return fail(&format!("unknown argument '{other}'")),
        }
        i += 1;
    }

    if let Some(path) = repro_path {
        return replay(&path);
    }
    if control {
        return seeded_violation(&out);
    }
    campaign(seeds, jobs, &out)
}

fn replay(path: &Path) -> ExitCode {
    let repro = match fuzz::load_repro(path) {
        Ok(repro) => repro,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    match fuzz::replay(&repro) {
        Ok(report) => {
            println!(
                "repro {} confirmed: {} on {} still violates with a \
                 byte-identical trace (fingerprint {:016x})",
                path.display(),
                fuzz::bfgts_key(&repro.scenario),
                repro.scenario.workload.name(),
                repro.fingerprint,
            );
            for v in &report.violations {
                println!("  {v}");
            }
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("repro {} did NOT reproduce: {msg}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// Minimizes a violating cell, re-scores the minimized scenario and
/// writes it as a repro under `out`. Returns the number of faults left
/// and where the repro went.
fn write_minimized(cell: &CampaignCell, out: &Path) -> (usize, std::io::Result<PathBuf>) {
    let minimized = fuzz::minimize_failure(&cell.scenario, cell.min_fraction_pct);
    let scored = fuzz::run_cell(&minimized, cell.min_fraction_pct);
    let faults = fuzz::fault_plan(&minimized).faults.len();
    let repro = fuzz::make_repro(
        cell.seed,
        minimized,
        cell.min_fraction_pct,
        scored.violations,
    );
    (faults, fuzz::write_repro(out, &repro))
}

fn seeded_violation(out: &Path) -> ExitCode {
    let control = fuzz::violating_control();
    let report = fuzz::run_cell(&control.scenario, control.min_fraction_pct);
    if report.passed() {
        // Exit 0 here: CI inverts this command's status, so a missed
        // control comes out as a red job.
        println!("seeded violation was NOT caught — the harness is broken");
        return ExitCode::SUCCESS;
    }
    println!(
        "seeded violation caught ({} finding(s)):",
        report.violations.len()
    );
    for v in &report.violations {
        println!("  {v}");
    }
    match write_minimized(&control, out) {
        (faults, Ok(path)) => println!(
            "minimized to {faults} fault(s); repro written to {}",
            path.display()
        ),
        (_, Err(err)) => eprintln!("warning: could not write repro: {err}"),
    }
    ExitCode::FAILURE
}

fn campaign(seeds: (u64, u64), jobs: usize, out: &Path) -> ExitCode {
    let seed_list: Vec<u64> = (seeds.0..seeds.1).collect();
    // The worker count is deliberately not echoed: stdout must be
    // byte-identical at any --jobs value.
    println!(
        "fuzz campaign: seeds {}..{} ({} cells)",
        seeds.0,
        seeds.1,
        seed_list.len()
    );
    let results = fuzz::run_campaign(&seed_list, jobs);
    let mut failures = Vec::new();
    for result in &results {
        let status = if result.report.passed() {
            "pass"
        } else {
            "FAIL"
        };
        let scenario = &result.cell.scenario;
        println!(
            "  seed {:>4}  {:<20} {:<11} {} faults  bfgts {:>9}c  backoff {:>9}c  {status}",
            result.cell.seed,
            scenario.workload.name(),
            fuzz::bfgts_key(scenario),
            fuzz::fault_plan(scenario).faults.len(),
            result.report.bfgts_makespan,
            result.report.backoff_makespan,
        );
        if !result.report.passed() {
            failures.push(result);
        }
    }
    if failures.is_empty() {
        println!(
            "campaign clean: {} cells passed the audit and the degradation bound",
            results.len()
        );
        return ExitCode::SUCCESS;
    }
    for result in &failures {
        let seed = result.cell.seed;
        for v in &result.report.violations {
            println!("seed {seed}: {v}");
        }
        match write_minimized(&result.cell, out) {
            (faults, Ok(path)) => println!(
                "seed {seed}: minimized {} -> {faults} fault(s); repro written to {}",
                fuzz::fault_plan(&result.cell.scenario).faults.len(),
                path.display()
            ),
            (_, Err(err)) => eprintln!("warning: could not write repro for seed {seed}: {err}"),
        }
    }
    println!(
        "campaign FAILED: {} of {} cells violated",
        failures.len(),
        results.len()
    );
    ExitCode::FAILURE
}
