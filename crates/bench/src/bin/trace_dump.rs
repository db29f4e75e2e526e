//! Inspects a JSONL event trace written by `--trace PATH`.
//!
//! ```text
//! cargo run -p bfgts-bench --release --bin trace_dump -- FILE [options]
//! ```
//!
//! By default prints a summary: the run shape from the header and the
//! event counts by type. `--audit` replays the file through the
//! accounting invariant checker (DESIGN.md §8) and exits 1 on any
//! violation. `--tamper` is the checker's negative control: it perturbs
//! the first charge by one cycle before auditing and *succeeds only if
//! the audit fails* — a checker that accepts a corrupted trace is
//! broken. `--tamper-capacity` is the same control for invariant I10:
//! it lowers the first capacity abort's recorded set size to the
//! configured bound (so the abort no longer exceeded it) and requires
//! the audit to reject. `--tamper-window` is the control for I11: it
//! flips one bit in the first window advance's announced priority —
//! the audit recomputes every draw from the declared seed and must
//! notice. `--chrome PATH` converts the file for `chrome://tracing`.

use bfgts_bench::trace_export::{parse_jsonl_full, write_chrome};
use bfgts_trace::{audit, TraceEvent};
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str = "\
usage: trace_dump FILE [options]
options:
  --audit        replay the trace through the accounting invariant
                 checker; exit 1 on any violation
  --tamper       negative control: corrupt the first charge by one
                 cycle, then require the audit to fail
  --tamper-capacity
                 negative control for I10: lower the first capacity
                 abort's set size to the configured bound, then
                 require the audit to fail
  --tamper-window
                 negative control for I11: flip one bit in the first
                 window advance's announced priority, then require
                 the audit to fail
  --chrome PATH  also convert the trace to Chrome trace_event JSON
  -h, --help     show this help";

/// One negative control: the flag that selects it, the checker it
/// proves, what the trace must contain, and how one field of the first
/// such event is corrupted (`corrupt` returns false for any other kind).
struct Tamper {
    flag: &'static str,
    checker: &'static str,
    target: &'static str,
    corrupt: fn(&mut TraceEvent) -> bool,
}

/// The controls, in precedence order when several flags are given.
const TAMPERS: [Tamper; 3] = [
    // Invariant I1: one extra cycle in the first charge.
    Tamper {
        flag: "--tamper",
        checker: "the checker",
        target: "charge events",
        corrupt: |ev| match ev {
            TraceEvent::Charge { cycles, .. } => {
                *cycles += 1;
                true
            }
            _ => false,
        },
    },
    // I10: the first capacity abort's recorded set size no longer
    // exceeds the bound. A checker that still accepts the trace would
    // also accept a simulator whose capacity aborts fire below it.
    Tamper {
        flag: "--tamper-capacity",
        checker: "the I10 checker",
        target: "capacity aborts",
        corrupt: |ev| match ev {
            TraceEvent::CapacityAbort {
                tracked, capacity, ..
            } => {
                *tracked = *capacity;
                true
            }
            _ => false,
        },
    },
    // I11: one bit of the first announced window priority. The checker
    // recomputes every draw from the declared seed, so any divergence
    // (a manager rolling its own RNG, a doctored trace) must surface.
    Tamper {
        flag: "--tamper-window",
        checker: "the I11 checker",
        target: "window advances",
        corrupt: |ev| match ev {
            TraceEvent::WindowAdvance { priority, .. } => {
                *priority ^= 1;
                true
            }
            _ => false,
        },
    },
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut file = None;
    let mut do_audit = false;
    let mut tamper = None;
    let mut chrome_out = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--audit" => do_audit = true,
            "--chrome" => {
                i += 1;
                match args.get(i) {
                    Some(path) => chrome_out = Some(path.clone()),
                    None => return fail("--chrome needs a value"),
                }
            }
            other => match TAMPERS.iter().position(|t| t.flag == other) {
                // The earliest row wins, whatever the flag order.
                Some(row) => tamper = Some(tamper.map_or(row, |chosen: usize| chosen.min(row))),
                None if file.is_none() && !other.starts_with('-') => file = Some(other.to_string()),
                None => return fail(&format!("unknown argument '{other}'")),
            },
        }
        i += 1;
    }
    let Some(file) = file else {
        return fail("missing trace FILE");
    };

    let text = match std::fs::read_to_string(&file) {
        Ok(text) => text,
        Err(err) => return fail(&format!("cannot read {file}: {err}")),
    };
    let (mut recording, inputs, scenario) = match parse_jsonl_full(&text) {
        Ok(parsed) => parsed,
        Err(err) => return fail(&format!("{file}: {err}")),
    };

    println!(
        "{file}: {} events ({} dropped), makespan {} cycles, {} CPUs, {} threads",
        recording.events.len(),
        recording.dropped,
        inputs.makespan,
        inputs.num_cpus,
        inputs.per_thread.len()
    );
    if let Some(scenario) = &scenario {
        println!(
            "  scenario {}: {} on {} (replay with bfgts_run)",
            scenario.id(),
            scenario.manager.label(),
            scenario.workload.name()
        );
    }
    let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    for rec in &recording.events {
        *by_name.entry(rec.ev.name()).or_insert(0) += 1;
    }
    for (name, count) in &by_name {
        println!("  {name:<16} {count}");
    }

    if let Some(path) = chrome_out {
        let out = std::fs::File::create(&path).map(std::io::BufWriter::new);
        if let Err(err) = out.and_then(|mut out| write_chrome(&mut out, &recording, &inputs)) {
            return fail(&format!("cannot write {path}: {err}"));
        }
        println!("wrote {path}");
    }

    if let Some(tamper) = tamper.map(|row| &TAMPERS[row]) {
        let label = tamper.flag.trim_start_matches('-');
        if !recording
            .events
            .iter_mut()
            .any(|rec| (tamper.corrupt)(&mut rec.ev))
        {
            return fail(&format!(
                "{}: trace has no {} to corrupt",
                tamper.flag, tamper.target
            ));
        }
        return match audit(&recording, &inputs) {
            Err(violations) => {
                println!(
                    "{label} control: audit correctly rejected the corrupted trace ({} violations)",
                    violations.len()
                );
                ExitCode::SUCCESS
            }
            Ok(_) => {
                eprintln!(
                    "error: audit ACCEPTED a corrupted trace — {} is broken",
                    tamper.checker
                );
                ExitCode::FAILURE
            }
        };
    }

    if do_audit {
        return match audit(&recording, &inputs) {
            Ok(summary) => {
                println!(
                    "audit: clean — {} confidence updates and {} bloom samples verified bit-for-bit",
                    summary.conf_updates, summary.bloom_samples
                );
                for (cpu, (busy, idle)) in summary
                    .per_cpu_busy
                    .iter()
                    .zip(&summary.per_cpu_idle)
                    .enumerate()
                {
                    println!("  cpu{cpu}: busy {busy} + idle {idle} = {}", busy + idle);
                }
                ExitCode::SUCCESS
            }
            Err(violations) => {
                for v in violations.iter().take(20) {
                    eprintln!("audit violation: {v}");
                }
                eprintln!("error: audit failed with {} violation(s)", violations.len());
                ExitCode::FAILURE
            }
        };
    }
    ExitCode::SUCCESS
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n{USAGE}");
    ExitCode::from(2)
}
