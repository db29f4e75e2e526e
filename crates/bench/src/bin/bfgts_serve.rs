//! Long-lived scenario server: streams transactions through the
//! scheduler and per-interval stats out as JSONL (DESIGN.md §12).
//!
//! ```text
//! cargo run -p bfgts-bench --release --bin bfgts_serve -- [FILE...] [options]
//! ```
//!
//! Where `bfgts_run` executes a scenario file once and prints a summary
//! table, `bfgts_serve` runs a serving loop: scenario files arrive over
//! a watch directory (or stdin, or the command line), every scenario is
//! executed with full event tracing, and the recording is folded into a
//! stream of per-interval rows — arrivals, commits, aborts, peak queue
//! depth per slice of *simulated* time — followed by one summary row
//! with the open-system latency digest (sojourn p50/p95/p99, sustained
//! tx/sec). All stats derive from the deterministic recording, never
//! from wall clock, so serving the same scenario twice emits
//! byte-identical JSONL and the output can be diffed against a
//! `bfgts_run` replay of the same file.

use bfgts_bench::json::Json;
use bfgts_bench::runner::{latency_to_json, load_cells, RunCell};
use bfgts_sim::TraceMode;
use bfgts_trace::{TraceEvent, TraceRecording};
use std::collections::BTreeSet;
use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: bfgts_serve [FILE...] [options]
  FILE           scenario file(s) to serve immediately, in order (the
                 format any experiment binary's --emit writes)
options:
  --watch DIR    poll DIR every 200 ms for *.json scenario files and
                 serve each one as it appears (names sorted per scan,
                 served once)
  --stdin        read scenario documents from stdin, one complete JSON
                 document (object or array) per line
  --once         with --watch: serve what is present, then exit instead
                 of polling forever (the CI mode)
  --interval N   stats interval in simulated cycles (default 100000)
  --audit        replay every recording through the trace audit —
                 including the I9 arrival-causality invariant — and
                 exit 1 on a violation
  -h, --help     show this help";

/// How long `--watch` sleeps after a scan that found nothing new.
const POLL_PERIOD: std::time::Duration = std::time::Duration::from_millis(200);

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n{USAGE}");
    ExitCode::from(2)
}

struct Args {
    files: Vec<PathBuf>,
    watch: Option<PathBuf>,
    stdin: bool,
    once: bool,
    interval: u64,
    audit: bool,
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut out = Args {
        files: Vec::new(),
        watch: None,
        stdin: false,
        once: false,
        interval: 100_000,
        audit: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "-h" | "--help" => return Ok(None),
            "--watch" => out.watch = Some(PathBuf::from(value(&mut i, "--watch")?)),
            "--stdin" => out.stdin = true,
            "--once" => out.once = true,
            "--interval" => {
                let v = value(&mut i, "--interval")?;
                match v.parse::<u64>() {
                    Ok(n) if n > 0 => out.interval = n,
                    _ => return Err(format!("--interval needs a positive integer, got '{v}'")),
                }
            }
            "--audit" => out.audit = true,
            flag if flag.starts_with('-') => return Err(format!("unknown argument '{flag}'")),
            file => out.files.push(PathBuf::from(file)),
        }
        i += 1;
    }
    if out.files.is_empty() && out.watch.is_none() && !out.stdin {
        return Err("nothing to serve: give FILE arguments, --watch DIR or --stdin".to_string());
    }
    Ok(Some(out))
}

/// One slice of simulated time, folded from the recording.
#[derive(Debug, Default, Clone, Copy)]
struct IntervalRow {
    arrivals: u64,
    commits: u64,
    aborts: u64,
    max_depth: u64,
}

/// Folds a full recording into per-interval rows. Arrivals are counted
/// at their *arrival* stamp (when they entered the queue), commits and
/// aborts at their event instant, so a row shows offered load against
/// completed work for the same slice of simulated time.
fn fold_intervals(recording: &TraceRecording, makespan: u64, interval: u64) -> Vec<IntervalRow> {
    let buckets = (makespan / interval) as usize + 1;
    let mut rows = vec![IntervalRow::default(); buckets];
    let slot = |at: u64| (at / interval) as usize;
    for rec in &recording.events {
        match rec.ev {
            TraceEvent::TxArrival { arrival, .. } => {
                let i = slot(arrival).min(buckets - 1);
                rows[i].arrivals += 1;
            }
            TraceEvent::TxCommit { .. } => {
                let i = slot(rec.at).min(buckets - 1);
                rows[i].commits += 1;
            }
            TraceEvent::TxAbort { .. } => {
                let i = slot(rec.at).min(buckets - 1);
                rows[i].aborts += 1;
            }
            TraceEvent::QueueDepth { depth, .. } => {
                let i = slot(rec.at).min(buckets - 1);
                rows[i].max_depth = rows[i].max_depth.max(depth);
            }
            _ => {}
        }
    }
    rows
}

/// Serves one scenario: executes it with full tracing, streams interval
/// rows plus a summary row to `out`, and audits the recording when
/// asked. Returns the error message when the run ends early (a
/// deadlock, or simulated time past the cycle budget) or, with the
/// violations already printed, when the audit fails.
fn serve_scenario(
    cell: &RunCell,
    interval: u64,
    audit: bool,
    out: &mut impl std::io::Write,
) -> Result<(), String> {
    let report = cell
        .try_execute_report(TraceMode::Full)
        .map_err(|e| e.to_string())?;
    let id = cell.scenario.id();
    let makespan = report.sim.makespan.as_u64();
    if audit {
        if let Err(violations) = report.audit() {
            for v in violations.iter().take(10) {
                eprintln!("audit violation: {id}: {v}");
            }
            eprintln!(
                "error: audit failed for scenario {id} with {} violation(s)",
                violations.len()
            );
            return Err("audit failed".to_string());
        }
    }
    let rows = fold_intervals(&report.sim.trace, makespan, interval);
    for (i, row) in rows.iter().enumerate() {
        let t0 = i as u64 * interval;
        let line = Json::obj([
            ("aborts", Json::UInt(row.aborts)),
            ("arrivals", Json::UInt(row.arrivals)),
            ("commits", Json::UInt(row.commits)),
            ("kind", Json::Str("interval".into())),
            ("max_depth", Json::UInt(row.max_depth)),
            ("scenario", Json::Str(id.clone())),
            ("t0", Json::UInt(t0)),
            ("t1", Json::UInt(t0 + interval)),
        ]);
        let _ = writeln!(out, "{line}");
    }
    let mut pairs = vec![
        ("aborts", Json::UInt(report.stats.aborts())),
        ("commits", Json::UInt(report.stats.commits())),
        ("kind", Json::Str("summary".into())),
        ("makespan", Json::UInt(makespan)),
        ("manager", Json::Str(cell.scenario.manager.label())),
        ("scenario", Json::Str(id)),
        ("stalls", Json::UInt(report.stats.stalls())),
        ("workload", Json::Str(cell.scenario.workload.name().into())),
    ];
    if let Some(latency) = report.latency() {
        pairs.push(("latency", latency_to_json(&latency)));
        pairs.push((
            // Human-facing view of the same number; {:?}-formatted f64s
            // are shortest-round-trip, so equal bits print equal text.
            "tx_per_sec",
            Json::Float(latency.tx_per_sec),
        ));
    }
    let _ = writeln!(out, "{}", Json::obj(pairs));
    Ok(())
}

/// Loads and serves every scenario in `text`. Returns how many scenarios
/// were served, or the error message of the first entry that did not
/// parse, ended its run early or failed its audit.
fn serve_document(
    label: &str,
    text: &str,
    args: &Args,
    out: &mut impl std::io::Write,
) -> Result<usize, String> {
    let cells = load_cells(label, text)?;
    let served = cells.len();
    for cell in &cells {
        serve_scenario(cell, args.interval, args.audit, out)
            .map_err(|e| format!("{label}: {e}"))?;
    }
    out.flush().map_err(|e| format!("{label}: {e}"))?;
    Ok(served)
}

fn serve_file(path: &Path, args: &Args, out: &mut impl std::io::Write) -> Result<usize, String> {
    let label = path.display().to_string();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{label}: {e}"))?;
    serve_document(&label, &text, args, out)
}

/// The *.json files currently in `dir`, sorted by name.
fn scan_dir(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    files
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => return fail(&msg),
    };

    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let mut failed = false;

    for file in &args.files {
        match serve_file(file, &args, &mut out) {
            Ok(served) => eprintln!("serve: {}: {served} scenario(s)", file.display()),
            Err(msg) => {
                eprintln!("error: {msg}");
                failed = true;
            }
        }
    }

    if args.stdin {
        let stdin = std::io::stdin();
        for (n, line) in stdin.lock().lines().enumerate() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            match serve_document(&format!("stdin:{}", n + 1), &line, &args, &mut out) {
                Ok(served) => eprintln!("serve: stdin:{}: {served} scenario(s)", n + 1),
                Err(msg) => {
                    eprintln!("error: {msg}");
                    failed = true;
                }
            }
        }
    }

    if let Some(dir) = &args.watch {
        let mut seen: BTreeSet<PathBuf> = BTreeSet::new();
        loop {
            let mut fresh = 0usize;
            for path in scan_dir(dir) {
                if !seen.insert(path.clone()) {
                    continue;
                }
                fresh += 1;
                match serve_file(&path, &args, &mut out) {
                    Ok(served) => eprintln!("serve: {}: {served} scenario(s)", path.display()),
                    Err(msg) => {
                        eprintln!("error: {msg}");
                        failed = true;
                    }
                }
            }
            if args.once {
                break;
            }
            if fresh == 0 {
                std::thread::sleep(POLL_PERIOD);
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
