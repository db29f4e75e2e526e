//! Shared experiment infrastructure for regenerating the paper's tables
//! and figures.
//!
//! `bfgts_run` is the one experiment driver. `--report KEY` runs one of
//! the built-in [`report::Report`]s, and `FILE...` runs scenario files.
//! Both describe each run as a [`runner::RunCell`]: a benchmark preset
//! under a [`ManagerKind`] on the paper platform (16 CPUs, 64 threads),
//! or the 1-thread serial baseline. Both execute the grid with
//! [`runner::run_grid_with_args`]. Speedups divide serial by parallel
//! makespans with [`runner::CellSummary::speedup_over`]. See
//! `DESIGN.md` §4 for the experiment-to-report index.
//!
//! The run descriptions themselves — [`Platform`], [`ManagerKind`], the
//! [`Scenario`] type unifying them — live in `bfgts-scenario`
//! (DESIGN.md §10) and are re-exported here; this crate adds execution:
//! the parallel grid runner, the result cache, summaries and the shared
//! CLI surface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod report;
pub mod runner;
pub mod trace_export;

pub use bfgts_scenario::json;
pub use bfgts_scenario::{ManagerKind, ManagerSpec, Platform, Scenario, WorkloadSpec};

/// Runs `f` and returns its result plus the elapsed wall-clock in
/// milliseconds. The one sanctioned wall-clock read in this crate, used
/// by `bench_scale`: wall time goes only into benchmark artifacts, never
/// into printed result tables or simulation state.
pub fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, u64) {
    // detlint: allow(D002) -- benchmark wall-clock measurement, not simulation state
    let started = std::time::Instant::now();
    let out = f();
    (out, started.elapsed().as_millis() as u64)
}

/// Geometric-mean helper for "AVG" columns (the paper averages speedups
/// arithmetically; both are provided).
pub fn arithmetic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Percent improvement of `x` over `baseline` (Figure 4(b)).
pub fn percent_improvement(x: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (x / baseline - 1.0) * 100.0
    }
}

/// The command-line options of `bfgts_run`, which apply to both of its
/// inputs.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Workload scale factor (`--quick` = 0.25, `--scale F`).
    pub scale: f64,
    /// Platform shape and master seed (`--small`, `--seed N`).
    pub platform: Platform,
    /// Worker threads for the experiment grid (`--jobs N`).
    pub jobs: usize,
    /// Whether the on-disk cell cache is consulted (`--no-cache` clears).
    pub use_cache: bool,
    /// Optional path for a machine-readable grid dump (`--json PATH`).
    pub json: Option<std::path::PathBuf>,
    /// Optional path for a JSONL event trace of the grid's first
    /// parallel cell (`--trace PATH`; a Chrome trace is written next to
    /// it). Implies [`CommonArgs::audit`]: the trace is the audited run.
    pub trace: Option<std::path::PathBuf>,
    /// Whether every distinct cell runs once with full tracing and its
    /// accounting is audited (`--audit`, or implied by `--trace`).
    pub audit: bool,
    /// Seed of a randomized fault plan injected into every non-serial
    /// cell (`--faults SEED`; see `bfgts_faultsim::FaultPlan`).
    pub faults: Option<u64>,
    /// Dump the exact scenarios the grid would run as a JSON array to
    /// PATH and exit without running them (`--emit PATH`). The file
    /// replays through `bfgts_run FILE`.
    pub emit: Option<std::path::PathBuf>,
}

impl Default for CommonArgs {
    fn default() -> Self {
        Self {
            scale: 1.0,
            platform: Platform::paper(),
            jobs: runner::default_jobs(),
            use_cache: true,
            json: None,
            trace: None,
            audit: false,
            faults: None,
            emit: None,
        }
    }
}

/// What `bfgts_run` runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// A built-in report's grid (`--report KEY`).
    Report(report::Report),
    /// The scenarios in these files, in order (`FILE...`).
    Files(Vec<std::path::PathBuf>),
}

/// The usage text printed on `--help` or an argument error.
pub const USAGE: &str = "\
usage: bfgts_run --report KEY [options]
       bfgts_run FILE... [options]
  --report KEY   run a built-in report: fig4_speedup, fig5_breakdown,
                 fig6_bloom_sweep, table1_conflict_graphs,
                 table4_contention, calibrate, sweep_interval,
                 ablation_similarity, ablation_aliasing, stm_adaptation,
                 extended_roster, or a JSON artifact: bench_capacity or
                 bench_competitive (always audited, run at a quarter of
                 the scale; with --small they print results/BENCH_*.json)
  FILE           scenario file: one JSON scenario object or an array of
                 them (the format --emit writes)
report options (a FILE fixes its own grid):
  --quick        run at 0.25x workload scale
  --small        use the small platform (4 CPUs, 8 threads)
  --scale F      workload scale factor (default 1.0)
  --seed N       master RNG seed (default 0xB16B00B5)
  --faults SEED  inject the randomized fault plan derived from SEED
                 (cost jitter, Bloom corruption, confidence poisoning;
                 see bfgts_fuzz) into every non-serial cell
options:
  --jobs N       worker threads for the experiment grid
                 (default: available parallelism)
  --no-cache     ignore and bypass results/cache
  --json PATH    also write per-cell results as JSON to PATH
  --trace PATH   implies --audit; write the audited recording of the
                 first parallel cell as JSONL to PATH (plus a Chrome
                 trace next to it)
  --audit        run every distinct cell once, fully traced, and verify
                 the accounting invariants (exits 1 on the first
                 violation)
  --emit PATH    write the exact scenarios the grid would run as a
                 JSON array to PATH and exit without running them
                 (replay the file with bfgts_run FILE)
  -h, --help     show this help";

/// Parses `bfgts_run`'s arguments from `args` (binary name already
/// stripped). Returns `Err` with a message on unknown flags, malformed
/// values, a missing or doubled input, or a report option given with
/// `FILE`; `Ok(None)` when help was requested.
pub fn parse_args_from(args: &[String]) -> Result<Option<(Input, CommonArgs)>, String> {
    let mut out = CommonArgs::default();
    let mut report = None;
    let mut files = Vec::new();
    // The first flag that reshapes a report's grid, which a FILE fixes.
    let mut grid_flag = None;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        let arg = args[i].as_str();
        if matches!(
            arg,
            "--quick" | "--small" | "--scale" | "--seed" | "--faults"
        ) {
            grid_flag.get_or_insert(arg);
        }
        match arg {
            "-h" | "--help" => return Ok(None),
            "--report" => {
                report = Some(report::Report::from_key(&value(&mut i, "--report")?)?);
            }
            "--quick" => out.scale = 0.25,
            "--small" => {
                let seed = out.platform.seed;
                out.platform = Platform::small();
                out.platform.seed = seed;
            }
            "--scale" => {
                let v = value(&mut i, "--scale")?;
                out.scale = v
                    .parse()
                    .map_err(|_| format!("--scale needs a number, got '{v}'"))?;
            }
            "--seed" => {
                let v = value(&mut i, "--seed")?;
                out.platform.seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs an integer, got '{v}'"))?;
            }
            "--jobs" => {
                let v = value(&mut i, "--jobs")?;
                let jobs: usize = v
                    .parse()
                    .map_err(|_| format!("--jobs needs an integer, got '{v}'"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                out.jobs = jobs;
            }
            "--no-cache" => out.use_cache = false,
            "--json" => {
                out.json = Some(std::path::PathBuf::from(value(&mut i, "--json")?));
            }
            "--trace" => {
                out.trace = Some(std::path::PathBuf::from(value(&mut i, "--trace")?));
            }
            "--audit" => out.audit = true,
            "--faults" => {
                let v = value(&mut i, "--faults")?;
                out.faults = Some(
                    v.parse()
                        .map_err(|_| format!("--faults needs an integer seed, got '{v}'"))?,
                );
            }
            "--emit" => {
                out.emit = Some(std::path::PathBuf::from(value(&mut i, "--emit")?));
            }
            flag if flag.starts_with('-') => return Err(format!("unknown argument '{flag}'")),
            file => files.push(std::path::PathBuf::from(file)),
        }
        i += 1;
    }
    let input = match (report, files.is_empty()) {
        (Some(report), true) => Input::Report(report),
        (Some(_), false) => return Err("give either --report KEY or FILE, not both".to_string()),
        (None, false) => match grid_flag {
            Some(flag) => return Err(format!("{flag} applies to --report only")),
            None => Input::Files(files),
        },
        (None, true) => return Err("give --report KEY or a scenario FILE".to_string()),
    };
    Ok(Some((input, out)))
}

/// Parses `bfgts_run`'s arguments from the process arguments. Prints
/// usage and exits with status 2 on any argument error (and with status
/// 0 on `--help`).
pub fn parse_common_args() -> (Input, CommonArgs) {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args_from(&argv) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            println!("{USAGE}");
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manager_labels_unique() {
        let labels: std::collections::HashSet<_> =
            ManagerKind::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), ManagerKind::ALL.len());
    }

    #[test]
    fn build_produces_matching_names() {
        for kind in ManagerKind::ALL {
            assert_eq!(kind.build(2048).name(), kind.label());
        }
    }

    #[test]
    fn optimal_bloom_sizes_match_fig6_sweep() {
        assert_eq!(ManagerKind::BfgtsHw.optimal_bloom_bits("Kmeans"), 512);
        assert_eq!(ManagerKind::BfgtsHw.optimal_bloom_bits("Delaunay"), 2048);
        // The hybrid tolerates larger filters than plain HW (paper §5.3.1).
        assert!(
            ManagerKind::BfgtsHwBackoff.optimal_bloom_bits("Vacation")
                > ManagerKind::BfgtsHw.optimal_bloom_bits("Vacation")
        );
    }

    #[test]
    fn speedup_math() {
        assert_eq!(percent_improvement(1.5, 1.0), 50.0);
        assert_eq!(arithmetic_mean(&[1.0, 3.0]), 2.0);
        assert_eq!(arithmetic_mean(&[]), 0.0);
    }

    fn parse(args: &[&str]) -> Result<Option<(Input, CommonArgs)>, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args_from(&owned)
    }

    #[test]
    fn common_args_parse_the_full_flag_set() {
        let (input, args) = parse(&[
            "--report",
            "calibrate",
            "--quick",
            "--small",
            "--seed",
            "7",
            "--jobs",
            "3",
            "--no-cache",
            "--json",
            "out.json",
            "--trace",
            "run.jsonl",
            "--audit",
            "--faults",
            "11",
            "--emit",
            "cells.scenarios.json",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(input, Input::Report(report::Report::Calibrate));
        assert_eq!(args.scale, 0.25);
        assert_eq!(args.platform.cpus, 4);
        assert_eq!(args.platform.seed, 7);
        assert_eq!(args.jobs, 3);
        assert!(!args.use_cache);
        assert_eq!(args.json.as_deref(), Some(std::path::Path::new("out.json")));
        assert_eq!(
            args.trace.as_deref(),
            Some(std::path::Path::new("run.jsonl"))
        );
        assert!(args.audit);
        assert_eq!(args.faults, Some(11));
        assert_eq!(
            args.emit.as_deref(),
            Some(std::path::Path::new("cells.scenarios.json"))
        );

        // Scenario files take every option that leaves the grid alone.
        let (input, args) = parse(&[
            "a.json",
            "--jobs",
            "2",
            "--no-cache",
            "--json",
            "out.json",
            "--audit",
            "b.json",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(input, Input::Files(vec!["a.json".into(), "b.json".into()]));
        assert_eq!(args.scale, 1.0);
        assert_eq!(args.jobs, 2);
        assert!(!args.use_cache && args.audit && args.json.is_some());
    }

    #[test]
    fn unknown_arguments_are_hard_errors() {
        let report = |rest: &[&str]| {
            let mut args = vec!["--report", "fig4_speedup"];
            args.extend(rest);
            parse(&args)
        };
        assert!(report(&[]).is_ok());
        assert!(report(&["--frobnicate"]).is_err());
        assert!(report(&["--scale"]).is_err());
        assert!(report(&["--scale", "fast"]).is_err());
        assert!(report(&["--jobs", "0"]).is_err());
        assert!(report(&["--faults", "xyzzy"]).is_err());
        assert!(report(&["extra"]).is_err(), "--report and FILE together");

        let err = parse(&["--report", "fig7_speedup"]).unwrap_err();
        for known in report::Report::ALL {
            assert!(err.contains(known.key()), "{err}");
        }
        let grid_flags: [&[&str]; 5] = [
            &["--quick"],
            &["--small"],
            &["--scale", "2"],
            &["--seed", "3"],
            &["--faults", "5"],
        ];
        for flag in grid_flags {
            let mut args = vec!["a.json"];
            args.extend(flag);
            let err = parse(&args).unwrap_err();
            assert!(err.contains(flag[0]), "{err}");
        }
        assert!(parse(&[]).is_err());
        assert!(parse(&["--jobs", "2"]).is_err());
    }

    #[test]
    fn help_short_circuits() {
        assert!(parse(&["--help"]).unwrap().is_none());
        assert!(parse(&["-h", "--frobnicate"]).unwrap().is_none());
        for known in report::Report::ALL {
            assert!(USAGE.contains(known.key()), "{} missing", known.key());
        }
    }
}
