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
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

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

/// Pipes `hostile` and then a valid line into `bfgts_serve --stdin` and
/// requires an error reply naming `error` for line 1, exit status 1, and
/// the valid line 2 served.
fn assert_serve_rejects_and_goes_on(hostile: &Scenario, error: &str) {
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
        .write_all(format!("{}\n{valid}\n", hostile.to_json()).as_bytes())
        .unwrap();
    let served = serve.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&served.stderr);
    assert_eq!(served.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&format!("stdin:1: {error}")), "{stderr}");
    assert!(stderr.contains("serve: stdin:2: 1 scenario(s)"), "{stderr}");
    assert!(!served.stdout.is_empty(), "the valid line was not served");
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
    assert_serve_rejects_and_goes_on(&hostile, "class field 'stx' is 4294967295");
}

#[test]
fn hostile_platform_gets_an_error_reply_from_serve() {
    // A platform of 10^12 CPUs would ask for terabytes of per-CPU state
    // before the first event: the server must reject the line at parse
    // time and go on serving.
    let mut hostile = small_kmeans(ManagerKind::Backoff);
    hostile.platform.cpus = 1_000_000_000_000;
    assert_serve_rejects_and_goes_on(
        &hostile,
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
            &hostile,
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
        &hostile,
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
            &hostile,
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
        &hostile,
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
        &hostile,
        "fault field 'max_percent' must be at most 100, got 1000000",
    );
}
