//! Shared experiment infrastructure for regenerating the paper's tables
//! and figures.
//!
//! `bfgts_run` is the one experiment driver. `--report KEY` runs one of
//! the built-in [`report::Report`]s, and `FILE...` runs scenario files.
//! The same parser also takes the fuzz campaign and its repros
//! ([`fuzz`]) and the replay of a JSONL trace ([`trace_export::replay`]).
//! Reports and files describe each run as a [`runner::RunCell`]: a benchmark preset
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

/// The command-line options of `bfgts_run`. Each [`Input`] takes the
/// subset that applies to it.
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
    /// parallel cell, or of a replayed trace FILE (`--trace PATH`; a
    /// Chrome trace is written next to it). Implies
    /// [`CommonArgs::audit`]: the trace is the audited run.
    pub trace: Option<std::path::PathBuf>,
    /// Whether every distinct cell runs once with full tracing and its
    /// accounting is audited, or a trace FILE is audited (`--audit`, or
    /// implied by `--trace`).
    pub audit: bool,
    /// Seed of a randomized fault plan injected into every non-serial
    /// cell (`--faults SEED`; see `bfgts_faultsim::FaultPlan`).
    pub faults: Option<u64>,
    /// Dump the exact scenarios the grid would run as a JSON array to
    /// PATH and exit without running them (`--emit PATH`). The file
    /// replays through `bfgts_run FILE`.
    pub emit: Option<std::path::PathBuf>,
    /// The fuzz campaign's half-open range of cell seeds (`--seed A..B`,
    /// or `--seed N` for the one cell N).
    pub seeds: (u64, u64),
    /// The negative control run on a replayed trace (`--tamper KIND`).
    pub tamper: Option<trace_export::Tamper>,
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
            seeds: (0, 32),
            tamper: None,
        }
    }
}

/// What `bfgts_run` runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Input {
    /// A built-in report's grid (`--report KEY`).
    Report(report::Report),
    /// The fuzz campaign over [`CommonArgs::seeds`] (`--report
    /// fuzz_campaign`), or with `control` its seeded negative control
    /// (`--seeded-violation`).
    FuzzCampaign {
        /// Whether the known-violating control cell runs instead.
        control: bool,
    },
    /// The scenarios in these files, in order (`FILE...`).
    Files(Vec<std::path::PathBuf>),
    /// A JSONL trace written by `--trace`, replayed (`FILE.jsonl`).
    Trace(std::path::PathBuf),
    /// A fuzz repro, re-executed (`--repro PATH`).
    Repro(std::path::PathBuf),
}

impl Input {
    /// Whether this input takes the option `flag`.
    fn takes(&self, flag: &str) -> bool {
        match self {
            Input::Report(_) => GRID_FLAGS.contains(&flag) || RUN_FLAGS.contains(&flag),
            Input::FuzzCampaign { .. } => {
                ["--seed", "--jobs", "--audit", "--seeded-violation"].contains(&flag)
            }
            Input::Files(_) => RUN_FLAGS.contains(&flag),
            Input::Trace(_) => ["--audit", "--trace", "--tamper"].contains(&flag),
            Input::Repro(_) => false,
        }
    }

    /// How an argument error names this input.
    fn name(&self) -> String {
        match self {
            Input::Report(report) => format!("--report {}", report.key()),
            Input::FuzzCampaign { .. } => format!("--report {FUZZ_CAMPAIGN}"),
            Input::Files(_) => "a scenario FILE".to_string(),
            Input::Trace(_) => "a trace FILE".to_string(),
            Input::Repro(_) => "--repro".to_string(),
        }
    }
}

/// The `--report` key of the fuzz campaign.
const FUZZ_CAMPAIGN: &str = "fuzz_campaign";

/// The options that reshape a report's grid, which a scenario FILE fixes.
const GRID_FLAGS: [&str; 5] = ["--quick", "--small", "--scale", "--seed", "--faults"];

/// The options that run, cache and record a grid, a report's or a FILE's.
const RUN_FLAGS: [&str; 6] = [
    "--jobs",
    "--no-cache",
    "--json",
    "--trace",
    "--audit",
    "--emit",
];

/// The usage text printed on `--help` or an argument error.
pub const USAGE: &str = "\
usage: bfgts_run --report KEY [options]
       bfgts_run FILE... [options]
       bfgts_run TRACE.jsonl [--audit] [--tamper KIND] [--trace PATH]
       bfgts_run --repro PATH
  --report KEY   run a built-in report: fig4_speedup, fig5_breakdown,
                 fig6_bloom_sweep, table1_conflict_graphs,
                 table4_contention, calibrate, sweep_interval,
                 ablation_similarity, ablation_aliasing, stm_adaptation,
                 extended_roster; a JSON artifact: bench_capacity or
                 bench_competitive (always audited, run at a quarter of
                 the scale; with --small they print results/BENCH_*.json)
                 or bench_scale (BFGTS-HW Kmeans at 16 to 1024 CPUs; it
                 prints results/BENCH_scale.json); or fuzz_campaign (one
                 audited, fault-injected cell per seed, judged against
                 its Backoff twin; a violation leaves a minimized repro
                 in results/repros)
  FILE           scenario file: one JSON scenario object or an array of
                 them (the format --emit writes). A FILE ending in .jsonl
                 is a trace that --trace wrote, replayed on its own: its
                 shape and event counts, then --audit, --tamper, --trace
  --repro PATH   re-execute a fuzz repro; exit 0 only if it still
                 violates with a byte-identical trace
report options (a FILE fixes its own grid):
  --quick        run at 0.25x workload scale
  --small        use the small platform (4 CPUs, 8 threads)
  --scale F      workload scale factor (default 1.0)
  --seed N       master RNG seed (default 0xB16B00B5); fuzz_campaign
                 takes a half-open range A..B of cell seeds (default
                 0..32)
  --faults SEED  inject the randomized fault plan derived from SEED
                 (cost jitter, Bloom corruption, confidence poisoning;
                 see fuzz_campaign) into every non-serial cell
  --seeded-violation
                 with fuzz_campaign: run the known-violating control
                 cell instead; it must be caught (exit 1) and leave a
                 minimized repro
options:
  --jobs N       worker threads for the experiment grid
                 (default: available parallelism)
  --no-cache     ignore and bypass results/cache
  --json PATH    also write per-cell results as JSON to PATH
  --trace PATH   implies --audit; write the audited recording of the
                 first parallel cell, or the replayed trace, as JSONL to
                 PATH (plus a Chrome trace next to it)
  --audit        run every distinct cell once, fully traced, and verify
                 the accounting invariants (exits 1 on the first
                 violation); with a trace FILE, audit the file
  --tamper KIND  with a trace FILE, a negative control of the audit:
                 corrupt the first charge, capacity abort or window
                 advance (KIND is charge, capacity or window), then exit
                 0 only if the audit rejects the trace
  --emit PATH    write the exact scenarios the grid would run as a
                 JSON array to PATH and exit without running them
                 (replay the file with bfgts_run FILE)
  -h, --help     show this help";

/// Parses `bfgts_run`'s arguments from `args` (binary name already
/// stripped). Returns `Err` with a message on unknown flags, malformed
/// values, a missing or doubled input, or an option that does not apply
/// to the input given; `Ok(None)` when help was requested.
pub fn parse_args_from(args: &[String]) -> Result<Option<(Input, CommonArgs)>, String> {
    let mut out = CommonArgs::default();
    // `Some(None)` is the fuzz campaign.
    let mut report = None;
    let mut repro = None;
    let mut control = false;
    let mut seed_range = false;
    let mut files = Vec::new();
    // Every option given, in order, to check against what the input takes.
    let mut given = Vec::new();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        let arg = args[i].as_str();
        if arg.starts_with('-') {
            given.push(arg);
        }
        match arg {
            "-h" | "--help" => return Ok(None),
            "--report" => {
                let key = value(&mut i, "--report")?;
                report = Some(match key.as_str() {
                    FUZZ_CAMPAIGN => None,
                    _ => Some(
                        report::Report::from_key(&key)
                            .map_err(|e| format!("{e}, {FUZZ_CAMPAIGN}"))?,
                    ),
                });
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
                out.seeds = parse_seeds(&v).ok_or_else(|| {
                    format!("--seed needs an integer or a range A..B with A < B, got '{v}'")
                })?;
                out.platform.seed = out.seeds.0;
                seed_range = v.contains("..");
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
            "--repro" => repro = Some(std::path::PathBuf::from(value(&mut i, "--repro")?)),
            "--tamper" => {
                out.tamper = Some(trace_export::Tamper::from_key(&value(&mut i, "--tamper")?)?);
            }
            "--seeded-violation" => control = true,
            flag if flag.starts_with('-') => return Err(format!("unknown argument '{flag}'")),
            file => files.push(std::path::PathBuf::from(file)),
        }
        i += 1;
    }
    let is_trace = |file: &std::path::PathBuf| file.extension().is_some_and(|ext| ext == "jsonl");
    let input = match (report, repro, files.as_slice()) {
        (Some(None), None, []) => Input::FuzzCampaign { control },
        (Some(Some(report)), None, []) => Input::Report(report),
        (None, Some(path), []) => Input::Repro(path),
        (None, None, [file]) if is_trace(file) => Input::Trace(file.clone()),
        (None, None, [_, ..]) if !files.iter().any(is_trace) => Input::Files(files),
        (None, None, []) => return Err("give --report KEY, a FILE or --repro PATH".to_string()),
        _ => {
            return Err(
                "give one input: --report KEY, scenario FILEs, a trace FILE or --repro PATH"
                    .to_string(),
            )
        }
    };
    let misplaced = given
        .into_iter()
        .find(|&flag| !matches!(flag, "--report" | "--repro") && !input.takes(flag));
    if let Some(flag) = misplaced {
        return Err(format!("{flag} does not apply to {}", input.name()));
    }
    if seed_range && !matches!(input, Input::FuzzCampaign { .. }) {
        return Err(format!(
            "--seed A..B applies to --report {FUZZ_CAMPAIGN} only"
        ));
    }
    Ok(Some((input, out)))
}

/// `N` as the one seed `N..N+1`, or a half-open range `A..B` with
/// `A < B`.
fn parse_seeds(text: &str) -> Option<(u64, u64)> {
    match text.split_once("..") {
        Some((lo, hi)) => {
            let (lo, hi): (u64, u64) = (lo.parse().ok()?, hi.parse().ok()?);
            (lo < hi).then_some((lo, hi))
        }
        None => text.parse().ok().map(|n: u64| (n, n.saturating_add(1))),
    }
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
    fn the_fuzz_campaign_and_replays_share_the_parser() {
        let (input, args) = parse(&["--report", "fuzz_campaign", "--seed", "3..9", "--jobs", "2"])
            .unwrap()
            .unwrap();
        assert_eq!(input, Input::FuzzCampaign { control: false });
        assert_eq!((args.seeds, args.jobs), ((3, 9), 2));
        let (_, args) = parse(&["--report", "fuzz_campaign", "--seed", "7"])
            .unwrap()
            .unwrap();
        assert_eq!(args.seeds, (7, 8));
        let (_, args) = parse(&["--report", "fuzz_campaign"]).unwrap().unwrap();
        assert_eq!(args.seeds, (0, 32));
        let (input, _) = parse(&["--report", "fuzz_campaign", "--seeded-violation"])
            .unwrap()
            .unwrap();
        assert_eq!(input, Input::FuzzCampaign { control: true });
        let (input, _) = parse(&["--repro", "r/7.json"]).unwrap().unwrap();
        assert_eq!(input, Input::Repro("r/7.json".into()));

        let (input, args) = parse(&["t.jsonl", "--tamper", "window", "--audit"])
            .unwrap()
            .unwrap();
        assert_eq!(input, Input::Trace("t.jsonl".into()));
        assert_eq!(args.tamper, Some(trace_export::Tamper::Window));
        assert!(args.audit);
        let (_, args) = parse(&["t.jsonl", "--trace", "u.jsonl"]).unwrap().unwrap();
        assert_eq!(args.trace.as_deref(), Some(std::path::Path::new("u.jsonl")));

        // Each input refuses the options that do not apply to it, naming
        // the option.
        let misplaced: [&[&str]; 9] = [
            &["--report", "fuzz_campaign", "--quick"],
            &["--report", "fuzz_campaign", "--emit", "x.json"],
            &["--report", "fig4_speedup", "--seed", "0..4"],
            &["--report", "fig4_speedup", "--tamper", "charge"],
            &["--report", "fig4_speedup", "--seeded-violation"],
            &["a.json", "--repro", "r.json"],
            &["t.jsonl", "--jobs", "2"],
            &["t.jsonl", "a.json"],
            &["--repro", "r.json", "--audit"],
        ];
        for args in misplaced {
            assert!(parse(args).is_err(), "{args:?}");
        }
        let err = parse(&["t.jsonl", "--no-cache"]).unwrap_err();
        assert!(err.contains("--no-cache"), "{err}");
        assert!(parse(&["t.jsonl", "--tamper", "bogus"]).is_err());
        assert!(parse(&["--report", "fuzz_campaign", "--seed", "9..3"]).is_err());
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
        assert!(err.contains(FUZZ_CAMPAIGN), "{err}");
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
        assert!(USAGE.contains(FUZZ_CAMPAIGN));
        for tamper in trace_export::Tamper::ALL {
            assert!(USAGE.contains(tamper.key()), "{} missing", tamper.key());
        }
    }
}
