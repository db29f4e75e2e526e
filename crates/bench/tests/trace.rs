//! End-to-end tests of the trace subsystem through the experiment
//! runner: golden-trace byte-identity (the JSONL export is part of the
//! determinism contract of DESIGN.md §7), the accounting audit on every
//! STAMP preset at the paper's platform shape, and randomised audits of
//! the full BFGTS stack.

use bfgts_bench::runner::{run_grid_with_args, RunCell};
use bfgts_bench::trace_export::{chrome_trace_path, parse_jsonl, to_jsonl};
use bfgts_bench::{CommonArgs, ManagerKind, Platform};
use bfgts_core::{BfgtsCm, BfgtsConfig};
use bfgts_htm::{
    run_workload, Access, ContentionManager, NullCm, STxId, ScriptSource, TmRunConfig, TmRunReport,
    TxInstance,
};
use bfgts_sim::TraceMode;
use bfgts_testkit::run_cases;
use bfgts_workloads::presets;
use std::path::PathBuf;
use std::process::Command;

/// The determinism regression workload of `crates/htm/tests/determinism.rs`:
/// four threads hammering an overlapping 8-line window.
fn conflicting_scripts(threads: usize, txs_per_thread: usize) -> Vec<ScriptSource> {
    (0..threads)
        .map(|t| {
            let txs = (0..txs_per_thread)
                .map(|i| {
                    let accesses = (0..6u64)
                        .map(|k| Access {
                            addr: ((t as u64 + i as u64 + k) % 8).into(),
                            is_write: k % 2 == 0,
                        })
                        .collect();
                    TxInstance::new(STxId((i % 3) as u32), accesses, 25)
                })
                .collect();
            ScriptSource::new(txs)
        })
        .collect()
}

fn traced_jsonl(cm: Box<dyn ContentionManager>) -> String {
    let cfg = TmRunConfig::new(2, 4)
        .seed(0x00D0_0D1E)
        .trace(TraceMode::Full);
    let report = run_workload(&cfg, conflicting_scripts(4, 5), cm);
    to_jsonl(&report.sim.trace, &report.audit_inputs())
}

#[test]
fn golden_trace_is_byte_identical_across_runs() {
    let first = traced_jsonl(Box::new(NullCm));
    let second = traced_jsonl(Box::new(NullCm));
    assert_eq!(first, second, "NullCm trace must not vary between runs");

    // The BFGTS manager adds confidence updates and Bloom samples; those
    // must be just as reproducible, bit patterns included.
    let bfgts = || Box::new(BfgtsCm::new(BfgtsConfig::hw()));
    assert_eq!(traced_jsonl(bfgts()), traced_jsonl(bfgts()));

    // And the export survives a parse → re-export round trip untouched.
    let (recording, inputs) = parse_jsonl(&first).expect("own export parses");
    assert_eq!(to_jsonl(&recording, &inputs), first);
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bfgts_trace_test_{}_{name}", std::process::id()))
}

#[test]
fn trace_replay_answers_hostile_headers_with_an_error() {
    // Header sizes a file can lie about: an event count no vector can
    // hold, one that would take 64 TiB, and a CPU count that would make
    // the audit allocate 8 TiB. Each gets an `error:` line and exit 2,
    // never a panic or an abort.
    let text = traced_jsonl(Box::new(NullCm));
    let (recording, inputs) = parse_jsonl(&text).expect("own export parses");
    let events = recording.events.len() as u64;
    let path = temp_path("hostile_header.jsonl");
    for (key, honest, hostile, error) in [
        ("events", events, u64::MAX, "header declares"),
        ("events", events, 1 << 40, "header declares"),
        ("num_cpus", inputs.num_cpus as u64, 1 << 40, "'num_cpus'"),
    ] {
        let (from, to) = (
            format!("\"{key}\":{honest}"),
            format!("\"{key}\":{hostile}"),
        );
        std::fs::write(&path, text.replacen(&from, &to, 1)).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_bfgts_run"))
            .arg(&path)
            .arg("--audit")
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{to}: {stderr}");
        assert!(stderr.starts_with("error: "), "{to}: {stderr}");
        assert!(stderr.contains(error), "{to}: {stderr}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trace_flag_output_is_byte_identical_across_jobs_counts() {
    let spec = presets::kmeans().scaled(0.02);
    let platform = Platform::small();
    let cells = vec![
        RunCell::serial(&spec, platform),
        RunCell::one(&spec, ManagerKind::BfgtsHw, platform),
        RunCell::one(&spec, ManagerKind::Backoff, platform),
    ];

    let run = |jobs: usize, trace: PathBuf| {
        let args = CommonArgs {
            platform,
            jobs,
            use_cache: false,
            trace: Some(trace),
            ..CommonArgs::default()
        };
        run_grid_with_args(&cells, &args)
    };
    let path_j1 = temp_path("j1.jsonl");
    let path_j4 = temp_path("j4.jsonl");
    let summaries_j1 = run(1, path_j1.clone());
    let summaries_j4 = run(4, path_j4.clone());
    assert_eq!(summaries_j1, summaries_j4, "grid results depend on --jobs");
    // --trace implies --audit: the traced cell is the audited one.
    assert!(summaries_j1.1.is_some(), "--trace ran without the audit");

    let bytes_j1 = std::fs::read(&path_j1).expect("jsonl written");
    let bytes_j4 = std::fs::read(&path_j4).expect("jsonl written");
    assert!(!bytes_j1.is_empty());
    assert_eq!(bytes_j1, bytes_j4, "JSONL trace depends on --jobs");
    let chrome_j1 = std::fs::read(chrome_trace_path(&path_j1)).expect("chrome written");
    let chrome_j4 = std::fs::read(chrome_trace_path(&path_j4)).expect("chrome written");
    assert_eq!(chrome_j1, chrome_j4, "Chrome trace depends on --jobs");

    for path in [&path_j1, &path_j4] {
        let _ = std::fs::remove_file(chrome_trace_path(path));
        let _ = std::fs::remove_file(path);
    }
}

/// Satellite of the tracing work: the audit must hold on every STAMP
/// preset at the paper's 16-CPU / 64-thread shape, not just on toy
/// workloads (scaled down so the traced re-runs stay fast).
#[test]
fn every_stamp_preset_audits_clean_at_the_paper_shape() {
    let platform = Platform::paper();
    for spec in presets::all() {
        let spec = spec.scaled(0.05);
        let report =
            RunCell::one(&spec, ManagerKind::BfgtsHw, platform).execute_report(TraceMode::Full);
        let summary = report.audit_or_panic();
        assert_eq!(
            summary.commits,
            report.stats.commits(),
            "{}: audit and stats disagree",
            spec.name
        );
        assert_eq!(summary.per_cpu_busy.len(), platform.cpus);
    }
}

#[test]
fn random_bfgts_workloads_audit_clean() {
    run_cases("bfgts_trace_audit", 12, |g| {
        let threads = g.usize_in(2, 6);
        let scripts: Vec<ScriptSource> = (0..threads)
            .map(|_| {
                let txs = (0..g.usize_in(1, 4))
                    .map(|_| {
                        let accesses = (0..g.usize_in(1, 14))
                            .map(|_| Access {
                                addr: g.below(20).into(),
                                is_write: g.bool(),
                            })
                            .collect();
                        TxInstance::new(STxId(g.u32_in(0, 3)), accesses, g.u64_in(10, 50))
                    })
                    .collect();
                ScriptSource::new(txs)
            })
            .collect();
        let cfg = TmRunConfig::new(2, threads)
            .seed(g.u64())
            .trace(TraceMode::Full);
        let report: TmRunReport =
            run_workload(&cfg, scripts, Box::new(BfgtsCm::new(BfgtsConfig::hw())));
        report.audit_or_panic();
    });
}
