//! End-to-end identity of the scenario path (DESIGN.md §10): a grid
//! emitted as a scenario file and re-executed through
//! [`RunCell::from_scenario`] — the `bfgts_run` path — must produce the
//! same cache keys, byte-identical summaries and the identical set of
//! disk-cache entries as the originating report's grid.

use bfgts_bench::json::Json;
use bfgts_bench::report::Report;
use bfgts_bench::runner::{emit_scenarios, run_grid, RunCell, RunnerOptions};
use bfgts_bench::{ManagerKind, ManagerSpec, Platform};
use bfgts_core::BfgtsConfig;
use bfgts_faultsim::{Fault, FaultPlan};
use bfgts_scenario::Scenario;
use bfgts_workloads::{presets, ArrivalSpec};
use std::collections::BTreeSet;
use std::io::{Read, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "bfgts-scenario-identity-{tag}-{}",
        std::process::id()
    ))
}

fn cache_entries(dir: &Path) -> BTreeSet<String> {
    match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect(),
        Err(_) => BTreeSet::new(),
    }
}

/// A small grid shaped like the reports build: serial
/// baseline, roster managers, a tuned BFGTS cell, a faulted cell.
fn sample_grid() -> Vec<RunCell> {
    let spec = presets::kmeans().scaled(0.02);
    let genome = presets::genome().scaled(0.02);
    let p = Platform::small();
    vec![
        RunCell::serial(&spec, p),
        RunCell::one(&spec, ManagerKind::Backoff, p),
        RunCell::one(&spec, ManagerKind::BfgtsHw, p),
        RunCell::with_manager(
            &spec,
            p,
            ManagerSpec::Bfgts(BfgtsConfig::hw().bloom_bits(512).small_tx_interval(10)),
        ),
        RunCell::one(&genome, ManagerKind::Pts, p).stm(),
        RunCell::one(&genome, ManagerKind::BfgtsSw, p).faulted(11),
    ]
}

#[test]
fn emitted_scenarios_replay_byte_identically() {
    let dir = temp_dir("emit");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("grid.scenarios.json");

    let cells = sample_grid();
    emit_scenarios(&file, &cells).unwrap();

    let text = std::fs::read_to_string(&file).unwrap();
    let scenarios = bfgts_scenario::scenarios_from_str(&text).unwrap();
    assert_eq!(scenarios.len(), cells.len());
    let replayed: Vec<RunCell> = scenarios
        .into_iter()
        .map(|s| RunCell::from_scenario(s).expect("emitted scenarios are executable"))
        .collect();

    for (original, replay) in cells.iter().zip(&replayed) {
        assert_eq!(
            original.cache_key(),
            replay.cache_key(),
            "the scenario file must preserve the cache identity"
        );
        assert_eq!(
            original.execute(),
            replay.execute(),
            "the scenario file must preserve the result, byte for byte"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn both_paths_share_one_disk_cache() {
    let grid_cache = temp_dir("grid-cache");
    let replay_cache = temp_dir("replay-cache");
    let _ = std::fs::remove_dir_all(&grid_cache);
    let _ = std::fs::remove_dir_all(&replay_cache);

    let cells = sample_grid();
    let direct = run_grid(
        &cells,
        &RunnerOptions {
            jobs: 2,
            cache_dir: Some(grid_cache.clone()),
        },
    );

    let file = temp_dir("emit2").join("grid.scenarios.json");
    emit_scenarios(&file, &cells).unwrap();
    let replayed: Vec<RunCell> =
        bfgts_scenario::scenarios_from_str(&std::fs::read_to_string(&file).unwrap())
            .unwrap()
            .into_iter()
            .map(|s| RunCell::from_scenario(s).unwrap())
            .collect();
    let via_file = run_grid(
        &replayed,
        &RunnerOptions {
            jobs: 2,
            cache_dir: Some(replay_cache.clone()),
        },
    );

    assert_eq!(direct, via_file, "summaries must match byte for byte");
    assert_eq!(
        cache_entries(&grid_cache),
        cache_entries(&replay_cache),
        "both execution paths must write the identical cache file set"
    );

    // And a second replay run is served entirely from the first run's
    // cache: the file set does not change.
    let before = cache_entries(&replay_cache);
    let again = run_grid(
        &replayed,
        &RunnerOptions {
            jobs: 1,
            cache_dir: Some(replay_cache.clone()),
        },
    );
    assert_eq!(again, via_file);
    assert_eq!(before, cache_entries(&replay_cache));

    let _ = std::fs::remove_dir_all(&grid_cache);
    let _ = std::fs::remove_dir_all(&replay_cache);
    let _ = std::fs::remove_dir_all(temp_dir("emit2"));
}

#[test]
fn every_report_emits_its_grid_and_prints_nothing() {
    // `--emit` writes a report's grid and exits before the first table
    // line. Calibrate runs Table 1's grid through the shared flags, so
    // `--faults` arms every one of its cells.
    let dir = temp_dir("reports");
    std::fs::create_dir_all(&dir).unwrap();
    let emit = |report: Report, faults: &[&str]| {
        let path = dir.join(format!("{}.scenarios.json", report.key()));
        let out = Command::new(env!("CARGO_BIN_EXE_bfgts_run"))
            .args(["--report", report.key(), "--quick", "--small", "--emit"])
            .arg(&path)
            .args(faults)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{}: {stderr}", report.key());
        assert!(out.stdout.is_empty(), "{} printed a table", report.key());
        std::fs::read_to_string(&path).unwrap()
    };
    let expected = dir.join("expected.scenarios.json");
    for report in Report::ALL {
        emit_scenarios(&expected, &report.grid(0.25, Platform::small()).concat()).unwrap();
        assert_eq!(
            emit(report, &[]),
            std::fs::read_to_string(&expected).unwrap(),
            "{}",
            report.key()
        );
    }
    assert_eq!(
        emit(Report::Calibrate, &[]),
        emit(Report::Table1ConflictGraphs, &[])
    );
    let faulted =
        bfgts_scenario::scenarios_from_str(&emit(Report::Calibrate, &["--faults", "2"])).unwrap();
    assert_eq!(faulted.len(), presets::all().len());
    assert!(faulted.iter().all(|s| s.faults.is_some()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn custom_managers_are_rejected_by_run_and_serve() {
    // `custom` is not a manager kind: a document naming it is a parse
    // error for both scenario front ends, and the server keeps serving
    // the lines after it.
    let valid = RunCell::one(
        &presets::kmeans().scaled(0.02),
        ManagerKind::Backoff,
        Platform::small(),
    )
    .scenario
    .to_json();
    let mut custom = valid.clone();
    if let Json::Obj(map) = &mut custom {
        map.insert(
            "manager".into(),
            Json::obj([
                ("kind", Json::Str("custom".into())),
                ("tag", Json::Str("x".into())),
            ]),
        );
    }
    let dir = temp_dir("custom");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("custom.scenario.json");
    std::fs::write(&file, custom.to_string()).unwrap();

    let run = Command::new(env!("CARGO_BIN_EXE_bfgts_run"))
        .arg(&file)
        .arg("--no-cache")
        .output()
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!run.status.success(), "bfgts_run accepted a custom manager");
    assert!(stderr.contains("unknown manager kind 'custom'"), "{stderr}");

    let mut serve = Command::new(env!("CARGO_BIN_EXE_bfgts_serve"))
        .arg("--stdin")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    serve
        .stdin
        .take()
        .unwrap()
        .write_all(format!("{custom}\n{valid}\n").as_bytes())
        .unwrap();
    let served = serve.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&served.stderr);
    assert_eq!(served.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("stdin:1: unknown manager kind 'custom'"),
        "{stderr}"
    );
    assert!(stderr.contains("serve: stdin:2: 1 scenario(s)"), "{stderr}");
    assert!(!served.stdout.is_empty(), "the valid line was not served");
}

/// A small valid scenario under `kind`, the line each hostile test
/// serves after its hostile one.
fn small_kmeans(kind: ManagerKind) -> Scenario {
    RunCell::one(&presets::kmeans().scaled(0.02), kind, Platform::small()).scenario
}

/// Pipes the `hostile` line and then a valid one into `bfgts_serve
/// --stdin` and requires an error reply naming `error` for line 1, exit
/// status 1, and the valid line 2 served, all within a minute: a line
/// that hangs the server fails the test instead of stalling the suite.
fn assert_serve_rejects_and_goes_on(hostile: &str, error: &str) {
    assert_serve_rejects_within(hostile, error, 60);
}

/// [`assert_serve_rejects_and_goes_on`] with a deadline of `secs`.
fn assert_serve_rejects_within(hostile: &str, error: &str, secs: u64) {
    let valid = small_kmeans(ManagerKind::Backoff).to_json();
    let mut serve = Command::new(env!("CARGO_BIN_EXE_bfgts_serve"))
        .arg("--stdin")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    serve
        .stdin
        .take()
        .unwrap()
        .write_all(format!("{hostile}\n{valid}\n").as_bytes())
        .unwrap();
    // Drain both pipes on their own threads so a full pipe cannot stall
    // the server while the deadline runs.
    let drain = |mut pipe: Box<dyn Read + Send>| {
        std::thread::spawn(move || {
            let mut bytes = Vec::new();
            pipe.read_to_end(&mut bytes).unwrap();
            bytes
        })
    };
    let stdout = drain(Box::new(serve.stdout.take().unwrap()));
    let stderr = drain(Box::new(serve.stderr.take().unwrap()));
    // Poll until the deadline, 20 ms apart.
    let status = (0..secs * 50).find_map(|_| {
        let status = serve.try_wait().unwrap();
        if status.is_none() {
            std::thread::sleep(Duration::from_millis(20));
        }
        status
    });
    let Some(status) = status else {
        serve.kill().unwrap();
        panic!("bfgts_serve gave no reply within {secs} s for stdin:1 ({error})");
    };
    let stderr = String::from_utf8(stderr.join().unwrap()).unwrap();
    assert_eq!(status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&format!("stdin:1: {error}")), "{stderr}");
    assert!(stderr.contains("serve: stdin:2: 1 scenario(s)"), "{stderr}");
    assert!(
        !stdout.join().unwrap().is_empty(),
        "the valid line was not served"
    );
}

#[test]
fn hostile_stx_gets_an_error_reply_from_serve() {
    // An inline class with sTxID u32::MAX would size the confidence
    // table at (2^32)^2 entries on its first conflict: the server must
    // reject the line at parse time and go on serving.
    let mut spec = presets::kmeans().scaled(0.02);
    let mut classes = spec.classes.to_vec();
    classes[0].stx = u32::MAX;
    spec.classes = classes.into();
    let hostile = RunCell::one(&spec, ManagerKind::BfgtsHw, Platform::small()).scenario;
    assert_serve_rejects_and_goes_on(
        &hostile.to_json().to_string(),
        "class field 'stx' is 4294967295",
    );
}

#[test]
fn hostile_class_size_gets_an_error_reply_from_serve() {
    // A class of 10^12 accesses per instance used to abort the server
    // while it allocated the first instance's access list (16 TB). Each
    // of the three pools must be rejected at resolve, and the server
    // must go on serving.
    for field in ["private_hot", "shared_picks", "random_picks"] {
        let mut spec = presets::kmeans().scaled(0.02);
        let mut classes = spec.classes.to_vec();
        let class = &mut classes[0];
        *match field {
            "private_hot" => &mut class.private_hot,
            "shared_picks" => &mut class.shared_picks,
            _ => &mut class.random_picks,
        } = 1_000_000_000_000;
        spec.classes = classes.into();
        let hostile = RunCell::one(&spec, ManagerKind::BfgtsHw, Platform::small()).scenario;
        assert_serve_rejects_and_goes_on(
            &hostile.to_json().to_string(),
            &format!("scenario 0: inline class sTx0: '{field}' is 1000000000000 accesses"),
        );
    }
}

#[test]
fn hostile_platform_gets_an_error_reply_from_serve() {
    // A platform of 10^12 CPUs would ask for terabytes of per-CPU state
    // before the first event: the server must reject the line at parse
    // time and go on serving.
    let mut hostile = small_kmeans(ManagerKind::Backoff);
    hostile.platform.cpus = 1_000_000_000_000;
    assert_serve_rejects_and_goes_on(
        &hostile.to_json().to_string(),
        "platform 'cpus' 1000000000000 exceeds the maximum of 4096",
    );
}

#[test]
fn hostile_roster_bloom_bits_get_an_error_reply_from_serve() {
    // 0 bits panics the estimator and 3 bits the filter's whole-word
    // assert, both at the first transaction begin.
    for bits in [0, 3, 8256, u32::MAX] {
        let mut hostile = small_kmeans(ManagerKind::BfgtsHw);
        hostile.manager = ManagerSpec::Kind {
            kind: ManagerKind::BfgtsHw,
            bloom_bits: Some(bits),
        };
        assert_serve_rejects_and_goes_on(
            &hostile.to_json().to_string(),
            &format!(
                "manager field 'bloom_bits' must be a multiple of 64 in 64..=8192, got {bits}"
            ),
        );
    }
}

#[test]
fn hostile_tuned_bloom_bits_get_an_error_reply_from_serve() {
    let mut hostile = small_kmeans(ManagerKind::BfgtsHw);
    hostile.manager = ManagerSpec::Bfgts(BfgtsConfig::hw().bloom_bits(0));
    assert_serve_rejects_and_goes_on(
        &hostile.to_json().to_string(),
        "manager field 'bloom_bits' must be a multiple of 64 in 64..=8192, got 0",
    );
}

#[test]
fn hostile_alias_slots_get_an_error_reply_from_serve() {
    // 0 slots panics the confidence table; u32::MAX slots asks it for a
    // (2^32)^2-entry square on the first conflict.
    for slots in [0, 1025, u32::MAX] {
        let mut hostile = small_kmeans(ManagerKind::BfgtsHw);
        hostile.manager = ManagerSpec::Bfgts(BfgtsConfig::hw().with_alias_slots(slots));
        assert_serve_rejects_and_goes_on(
            &hostile.to_json().to_string(),
            &format!("manager field 'alias_slots' must be in 1..=1024, got {slots}"),
        );
    }
}

#[test]
fn hostile_arrival_gap_gets_an_error_reply_from_serve() {
    // A Poisson gap of 10^12 cycles puts the first arrival past the
    // run's 5 * 10^10-cycle budget. The engine's max_cycles guard used to
    // panic the server here; it must answer the line and go on.
    let mut hostile = small_kmeans(ManagerKind::Backoff);
    hostile.arrivals = Some(ArrivalSpec::poisson(1_000_000_000_000));
    assert_serve_rejects_and_goes_on(
        &hostile.to_json().to_string(),
        "simulation exceeded max_cycles=50000000000 (live-lock?)",
    );
}

#[test]
fn hostile_cost_perturbation_gets_an_error_reply_from_serve() {
    // Above 100% the jitter envelope's lower edge is negative, which
    // panics the cost model before the first event.
    let mut hostile = small_kmeans(ManagerKind::Backoff);
    hostile.faults = Some(FaultPlan::new(1).fault(Fault::CostPerturb {
        max_percent: 1_000_000,
    }));
    assert_serve_rejects_and_goes_on(
        &hostile.to_json().to_string(),
        "fault field 'max_percent' must be at most 100, got 1000000",
    );
}

#[test]
fn hostile_corruption_rate_gets_an_error_reply_from_serve() {
    // A corruption rate of 101% used to panic the manager's fault
    // builder before the first event.
    let mut hostile = small_kmeans(ManagerKind::BfgtsHw);
    hostile.faults = Some(FaultPlan::new(1).fault(Fault::BloomCorrupt {
        rate_pct: 101,
        bits: 16,
    }));
    assert_serve_rejects_and_goes_on(
        &hostile.to_json().to_string(),
        "fault field 'rate_pct' must be at most 100, got 101",
    );
}

#[test]
fn hostile_corruption_bits_get_an_error_reply_from_serve() {
    // Forcing 2^32 - 1 positions into every corrupted commit signature
    // used to spin the server without a reply.
    let mut hostile = small_kmeans(ManagerKind::BfgtsHw);
    hostile.faults = Some(FaultPlan::new(1).fault(Fault::BloomCorrupt {
        rate_pct: 60,
        bits: u32::MAX,
    }));
    assert_serve_rejects_and_goes_on(
        &hostile.to_json().to_string(),
        "fault field 'bits' must be at most 8192, got 4294967295",
    );
}

#[test]
fn hostile_pre_work_span_gets_an_error_reply_from_serve() {
    // A pre_work range of all 2^64 values made `hi - lo + 1` wrap to 0,
    // and the first instance panicked drawing from an empty range.
    let mut spec = presets::kmeans().scaled(0.02);
    let mut classes = spec.classes.to_vec();
    classes[0].pre_work = (0, u64::MAX);
    spec.classes = classes.into();
    let hostile = RunCell::one(&spec, ManagerKind::BfgtsHw, Platform::small()).scenario;
    assert_serve_rejects_and_goes_on(
        &hostile.to_json().to_string(),
        "scenario 0: inline class sTx0: pre_work range [0, 18446744073709551615] has more \
         values than u64 can count",
    );
}

#[test]
fn hostile_unknown_key_gets_an_error_reply_from_serve() {
    // A misspelled `detection` key used to be ignored: the line ran under
    // perfect detection, with another scenario id, and was answered.
    let mut scenario = small_kmeans(ManagerKind::BfgtsHw);
    scenario.platform = scenario.platform.bounded(256, 2, 16);
    let line = scenario.to_json().to_string();
    assert!(line.contains("\"detection\""), "{line}");
    assert_serve_rejects_and_goes_on(
        &line.replacen("\"detection\"", "\"detecton\"", 1),
        "unknown platform field 'detecton'",
    );
}

#[test]
fn hostile_nesting_gets_an_error_reply_from_serve() {
    // A 100 KB line of 50,000 nested arrays overflowed the parser's stack
    // and aborted the server before the next line was answered.
    let line = "[".repeat(50_000) + &"]".repeat(50_000);
    assert_serve_rejects_and_goes_on(&line, "nesting deeper than 64 levels at byte 64");
}

#[test]
fn hostile_long_name_gets_an_error_reply_from_serve() {
    // The parser re-checked the rest of the line as UTF-8 once per
    // string character, so a 1.6M-character workload name took about a
    // minute to reach its error reply. Read linearly it takes
    // milliseconds, so a tenth of the usual deadline is ample.
    let scenario = Scenario::new(
        bfgts_scenario::WorkloadSpec::Preset {
            name: "x".repeat(1_600_000),
            total_txs: 100,
        },
        ManagerSpec::Serial,
        Platform::small(),
    );
    assert_serve_rejects_within(
        &scenario.to_json().to_string(),
        "scenario 0: unknown benchmark preset 'xxxxxxxx",
        6,
    );
}
