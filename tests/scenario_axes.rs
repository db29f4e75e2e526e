//! Tier-1 reach across every feature axis: each committed example
//! scenario runs through the one execution path, must audit clean, and
//! must actually exercise the axis it was committed for — open arrivals,
//! sharded detection, bounded signatures, execution windows, faults.

use bfgts_bench::runner::RunCell;
use bfgts_sim::TraceMode;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Each fixture committed for a feature axis, with the audit counter
/// that proves the axis ran.
const REACH: [(&str, &str); 9] = [
    ("open_bursty_diurnal_small", "tx_arrivals"),
    ("open_poisson_kmeans_paper", "tx_arrivals"),
    ("scale_smoke_256", "cross_shard_commits"),
    ("bounded_sig_kmeans_small", "bounded_detection"),
    ("bounded_sig_corrupt_hotspot", "bounded_detection"),
    ("window_greedy_kmeans_small", "window_advances"),
    ("balanced_greedy_hotspot_small", "window_advances"),
    ("bfgts_hw_tuned_faulted_vacation", "faults"),
    ("bounded_sig_corrupt_hotspot", "faults"),
];

/// Runs every scenario of `path` fully traced, panicking on any audit
/// violation, and sums the axis counters over them.
fn run_fixture(path: &Path) -> BTreeMap<&'static str, u64> {
    let text = std::fs::read_to_string(path).expect("fixture is readable");
    let mut axes = BTreeMap::new();
    for scenario in bfgts_scenario::scenarios_from_str(&text).expect("fixture parses") {
        let report = RunCell::from_scenario(scenario)
            .expect("fixture workloads resolve")
            .execute_report(TraceMode::Full);
        let audit = report.audit().unwrap_or_else(|violations| {
            panic!("{}: audit failed: {:?}", path.display(), &violations[..1])
        });
        for (counter, value) in [
            ("tx_arrivals", audit.tx_arrivals),
            ("cross_shard_commits", audit.cross_shard_commits),
            (
                "bounded_detection",
                audit.capacity_aborts + audit.false_positive_conflicts,
            ),
            ("window_advances", audit.window_advances),
            ("faults", audit.faults),
        ] {
            *axes.entry(counter).or_default() += value;
        }
    }
    axes
}

#[test]
fn every_example_scenario_audits_clean_and_reaches_its_axis() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("examples/scenarios exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    let mut checked = 0;
    for path in &files {
        let axes = run_fixture(path);
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        for (stem, counter) in REACH {
            if name.starts_with(&format!("{stem}.")) {
                assert!(
                    axes[counter] > 0,
                    "{name}: {counter} stayed at zero: {axes:?}"
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, REACH.len(), "an axis fixture is missing");
}
