//! The experiment driver (DESIGN.md §4 and §10).
//!
//! ```text
//! cargo run -p bfgts-bench --release --bin bfgts_run -- --report KEY [options]
//! cargo run -p bfgts-bench --release --bin bfgts_run -- FILE... [options]
//! ```
//!
//! `--report KEY` regenerates one of the paper's tables or figures, or
//! an extension study ([`bfgts_bench::report::Report`]). `FILE...`
//! executes scenario files: the JSON written by `--emit PATH` (or by
//! hand), each a single scenario object or an array of them, every entry
//! a complete run description — platform, cost model, workload, manager,
//! optional fault plan. Both inputs run through the same grid runner
//! with the same flags and cache keys, so a report's emitted scenario
//! file replays its cells byte-identically and shares its
//! `results/cache` entries.

use bfgts_bench::runner::{run_grid_with_args, RunCell};
use bfgts_bench::{parse_common_args, Input};
use std::process::ExitCode;

/// Loads every scenario in `path` as an executable cell, with the file
/// and entry index in any error.
fn load_cells(path: &std::path::Path) -> Result<Vec<RunCell>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let scenarios = bfgts_scenario::scenarios_from_str(&text)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    scenarios
        .into_iter()
        .enumerate()
        .map(|(i, scenario)| {
            RunCell::from_scenario(scenario)
                .map_err(|e| format!("{}: scenario {i}: {e}", path.display()))
        })
        .collect()
}

fn main() -> ExitCode {
    let (input, args) = parse_common_args();
    let files = match input {
        Input::Report(report) => {
            report.run(&args);
            return ExitCode::SUCCESS;
        }
        Input::Files(files) => files,
    };
    let mut cells = Vec::new();
    for file in &files {
        match load_cells(file) {
            Ok(mut loaded) => cells.append(&mut loaded),
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from(2);
            }
        }
    }
    let results = run_grid_with_args(&cells, &args);

    let unique: std::collections::BTreeSet<String> = cells.iter().map(RunCell::cache_key).collect();
    println!(
        "bfgts_run: {} scenario(s) from {} file(s), {} unique",
        cells.len(),
        files.len(),
        unique.len()
    );
    println!(
        "{:<12} {:<18} {:<14} {:>12} {:>10} {:>8} {:>8}",
        "scenario", "manager", "workload", "makespan", "commits", "aborts", "stalls"
    );
    for (cell, summary) in cells.iter().zip(&results) {
        println!(
            "{:<12} {:<18} {:<14} {:>12} {:>10} {:>8} {:>8}",
            &cell.scenario.id()[..12],
            cell.scenario.manager.label(),
            cell.scenario.workload.name(),
            summary.makespan,
            summary.commits,
            summary.aborts,
            summary.stalls
        );
    }
    ExitCode::SUCCESS
}
