//! The runner's core guarantee: the worker count never changes results.
//! Every cell is a deterministic simulation, so a grid run with one
//! worker and the same grid run with four must agree bit for bit —
//! including the f64 similarity statistics — and a summary served from
//! the on-disk cache, or from a fully traced audited run, must be
//! indistinguishable from a fresh untraced simulation.

use bfgts_bench::runner::{run_grid, run_grid_audited, RunCell, RunnerOptions};
use bfgts_bench::{ManagerKind, ManagerSpec, Platform};
use bfgts_testkit::{run_cases, Gen};
use bfgts_workloads::presets;
use std::path::PathBuf;

fn opts(jobs: usize, cache_dir: Option<PathBuf>) -> RunnerOptions {
    RunnerOptions { jobs, cache_dir }
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bfgts-runner-test-{tag}-{}", std::process::id()))
}

/// Asserts two grid results agree bit for bit, f64s included.
fn assert_bitwise_identical(
    a: &[bfgts_bench::runner::CellSummary],
    b: &[bfgts_bench::runner::CellSummary],
) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x, y);
        assert_eq!(x.similarity.len(), y.similarity.len());
        for ((sx, vx), (sy, vy)) in x.similarity.iter().zip(&y.similarity) {
            assert_eq!(sx, sy);
            assert_eq!(vx.to_bits(), vy.to_bits(), "similarity bits differ");
        }
    }
}

#[test]
fn four_workers_match_sequential_on_every_preset() {
    let platform = Platform::small();
    let cells: Vec<RunCell> = presets::all()
        .into_iter()
        .map(|spec| spec.scaled(0.05))
        .flat_map(|spec| {
            vec![
                RunCell::serial(&spec, platform),
                RunCell::one(&spec, ManagerKind::Backoff, platform),
                RunCell::one(&spec, ManagerKind::BfgtsHw, platform),
            ]
        })
        .collect();
    let sequential = run_grid(&cells, &opts(1, None));
    let parallel = run_grid(&cells, &opts(4, None));
    assert_bitwise_identical(&sequential, &parallel);
}

#[test]
fn worker_count_sweep_is_stable() {
    let platform = Platform::small();
    let spec = presets::intruder().scaled(0.05);
    let kmeans = presets::kmeans().scaled(0.05);
    let cells = vec![
        RunCell::serial(&spec, platform),
        RunCell::one(&spec, ManagerKind::Ats, platform),
        RunCell::one(&spec, ManagerKind::BfgtsHwBackoff, platform),
        RunCell::one(&spec, ManagerKind::Pts, platform),
        // Bounded signatures make false-positive conflicts and capacity
        // aborts, a window manager makes window advances: the audited
        // path below compares all three.
        RunCell::one(&kmeans, ManagerKind::BfgtsHw, platform.bounded(64, 2, 8)),
        RunCell::with_manager(
            &kmeans,
            platform,
            ManagerSpec::WindowGreedy {
                window_size: None,
                base_delay: None,
            },
        ),
        RunCell::serial(&spec, platform),
    ];
    let reference = run_grid(&cells, &opts(1, None));
    for jobs in [2, 3, 8, 64] {
        let got = run_grid(&cells, &opts(jobs, None));
        assert_bitwise_identical(&reference, &got);
    }
    // The audited path runs every distinct cell once, fully traced: its
    // summaries are the untraced ones, and its audit summaries do not
    // depend on the worker count either.
    let audited: Vec<_> = [1, 2, 4]
        .map(|jobs| {
            run_grid_audited(&cells, &opts(jobs, None), None).expect("the grid audits clean")
        })
        .into_iter()
        .map(|run| run.into_iter().unzip::<_, _, Vec<_>, Vec<_>>())
        .collect();
    for (summaries, audits) in &audited {
        assert_bitwise_identical(&reference, summaries);
        assert_eq!(audits, &audited[0].1);
    }
    let audits = &audited[0].1;
    assert!(audits[4].capacity_aborts > 0 && audits[4].false_positive_conflicts > 0);
    assert!(audits[5].window_advances > 0);
    assert_eq!(audits[0], audits[6], "a duplicated cell shares its audit");
}

#[test]
fn cached_cells_agree_with_fresh_cells_on_random_grids() {
    // Property: for any random grid, (a) a cache-populating run, (b) a
    // cache-served rerun and (c) an uncached run all agree exactly.
    let specs: Vec<_> = presets::all().into_iter().map(|s| s.scaled(0.02)).collect();
    run_cases("cached_equals_fresh", 8, |g: &mut Gen| {
        let dir = temp_dir(&format!("prop-{:016x}", g.u64()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut platform = Platform::small();
        platform.seed = g.u64();
        let n_cells = g.usize_in(1, 6);
        let cells: Vec<RunCell> = (0..n_cells)
            .map(|_| {
                let spec = g.choose(&specs).clone();
                if g.bool() {
                    RunCell::serial(&spec, platform)
                } else {
                    let kind = *g.choose(&ManagerKind::ALL);
                    let cell = RunCell::one(&spec, kind, platform);
                    if g.bool() {
                        cell.stm()
                    } else {
                        cell
                    }
                }
            })
            .collect();
        let populating = run_grid(&cells, &opts(2, Some(dir.clone())));
        let served = run_grid(&cells, &opts(2, Some(dir.clone())));
        let uncached = run_grid(&cells, &opts(2, None));
        assert_bitwise_identical(&populating, &served);
        assert_bitwise_identical(&populating, &uncached);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

#[test]
fn duplicate_keys_memoise_within_a_grid() {
    // Six copies of one serial baseline: the grid must return six equal
    // summaries (and computes the cell once — observable as a single
    // cache file).
    let dir = temp_dir("memo");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = presets::kmeans().scaled(0.02);
    let cells: Vec<RunCell> = (0..6)
        .map(|_| RunCell::serial(&spec, Platform::small()))
        .collect();
    let results = run_grid(&cells, &opts(4, Some(dir.clone())));
    assert!(results.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        1,
        "one unique key must produce exactly one cache entry"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
