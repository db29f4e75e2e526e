//! End-to-end identity of the scenario path (DESIGN.md §10): a grid
//! emitted as a scenario file and re-executed through
//! [`RunCell::from_scenario`] — the `bfgts_run` path — must produce the
//! same cache keys, byte-identical summaries and the identical set of
//! disk-cache entries as the originating binary's grid.

use bfgts_bench::json::Json;
use bfgts_bench::runner::{emit_scenarios, run_grid, RunCell, RunnerOptions};
use bfgts_bench::{BfgtsTunables, ManagerKind, ManagerSpec, Platform};
use bfgts_core::BfgtsVariant;
use bfgts_workloads::presets;
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

/// A small grid shaped like the experiment binaries build: serial
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
            ManagerSpec::Bfgts(
                BfgtsTunables::new(BfgtsVariant::Hw)
                    .bloom_bits(512)
                    .small_tx_interval(10),
            ),
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
