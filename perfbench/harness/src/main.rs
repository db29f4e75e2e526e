//! Benchmark harness for the BFGTS simulator.
//!
//! ```text
//! bfgts-perfbench --workload paper_grid|scale_1024|serve_mix --seed N
//!                 --seconds S --trace 0|1 [--serve-bin PATH] [--spans PATH]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation;
//! `--trace 1` runs the separate decorator-traced pass and reports the
//! per-layer ledger. Either way the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the exit code is
//! non-zero when the correctness gate failed. `perfbench/run.py` builds
//! this binary and `bfgts_serve`, and is the entry point to use.

mod batch;
mod clock;
mod decor;
mod gen;
mod ledger;
mod report;
mod serve;
mod stats;

use batch::Batch;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: bfgts-perfbench --workload NAME --seed N --seconds S --trace 0|1
                       [--serve-bin PATH] [--spans PATH]
  NAME is paper_grid, scale_1024 or serve_mix";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut spans = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed '{v}'"))?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or(format!("bad --seconds '{v}'"))?,
                );
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace '{v}'")),
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value()?)),
            "--spans" => spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        serve_bin,
        spans,
    })
}

fn main() -> ExitCode {
    // Set-up time (`setup_s`) runs from here to the timed phase.
    let started = clock::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (outcome, ledger) = match args.workload.as_str() {
        "paper_grid" => batch::run(
            Batch::PaperGrid,
            args.seed,
            args.seconds,
            args.trace,
            started,
        ),
        "scale_1024" => batch::run(
            Batch::Scale1024,
            args.seed,
            args.seconds,
            args.trace,
            started,
        ),
        "serve_mix" => {
            let Some(bin) = &args.serve_bin else {
                eprintln!("error: serve_mix needs --serve-bin\n{USAGE}");
                return ExitCode::from(2);
            };
            serve::run(bin, args.seed, args.seconds, args.trace, started)
        }
        other => {
            eprintln!("error: unknown workload '{other}'\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let (Some(ledger), Some(path)) = (&ledger, &args.spans) {
        if let Err(e) = std::fs::write(path, ledger.spans_jsonl(&args.workload)) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    report::print(&outcome);
    if outcome.gate.failed == 0 && outcome.gate.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
