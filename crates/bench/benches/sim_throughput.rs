//! End-to-end simulator throughput: whole scaled-down benchmark runs
//! under representative managers, executed exactly as every experiment
//! grid cell is. This is the cost of one grid cell.

use bfgts_bench::runner::RunCell;
use bfgts_bench::{ManagerKind, Platform};
use bfgts_testkit::bench::Harness;
use bfgts_workloads::presets;
use std::hint::black_box;

fn main() {
    let mut h = Harness::from_args();
    let platform = Platform::small();
    for (bench, kind) in [
        ("Kmeans", ManagerKind::Backoff),
        ("Kmeans", ManagerKind::BfgtsHw),
        ("Intruder", ManagerKind::Ats),
        ("Intruder", ManagerKind::BfgtsHw),
    ] {
        let spec = presets::by_name(bench).expect("preset exists").scaled(0.05);
        h.bench(&format!("workload_run/{bench}/{}", kind.label()), || {
            black_box(RunCell::one(black_box(&spec), kind, platform).execute());
        });
    }
    h.finish();
}
