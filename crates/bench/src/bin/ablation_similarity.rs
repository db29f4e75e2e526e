//! Ablation of the paper's central design choice: similarity-weighted
//! confidence updates vs. constant (PTS-style) updates, everything else
//! held equal (BFGTS-HW machinery in both arms).
//!
//! ```text
//! cargo run -p bfgts-bench --release --bin ablation_similarity [--quick] [--jobs N]
//! ```

use bfgts_bench::runner::{run_grid_with_args, RunCell};
use bfgts_bench::{
    arithmetic_mean, parse_common_args, percent_improvement, ManagerKind, ManagerSpec,
};
use bfgts_core::BfgtsConfig;
use bfgts_workloads::presets;

fn main() {
    let args = parse_common_args();
    let specs: Vec<_> = presets::all()
        .into_iter()
        .map(|s| s.scaled(args.scale))
        .collect();

    // Per benchmark: serial baseline, the weighted (stock BFGTS-HW) arm,
    // the constant-update arm.
    let mut cells = Vec::new();
    for spec in &specs {
        cells.push(RunCell::serial(spec, args.platform));
        cells.push(RunCell::one(spec, ManagerKind::BfgtsHw, args.platform));
        let bits = ManagerKind::BfgtsHw.optimal_bloom_bits(spec.name);
        cells.push(RunCell::with_manager(
            spec,
            args.platform,
            ManagerSpec::Bfgts(
                BfgtsConfig::hw()
                    .bloom_bits(bits)
                    .without_similarity_weighting(),
            ),
        ));
    }
    let results = run_grid_with_args(&cells, &args);

    println!("Ablation: similarity-weighted vs constant confidence updates (BFGTS-HW)\n");
    println!(
        "{:<10} {:>12} {:>12} {:>12}",
        "Benchmark", "weighted", "constant", "delta"
    );
    let mut deltas = Vec::new();
    for (b, spec) in specs.iter().enumerate() {
        let serial = results[b * 3].makespan;
        let weighted = results[b * 3 + 1].speedup_over(serial);
        let constant = results[b * 3 + 2].speedup_over(serial);
        let delta = percent_improvement(weighted, constant);
        deltas.push(delta);
        println!(
            "{:<10} {:>12.2} {:>12.2} {:>+11.0}%",
            spec.name, weighted, constant, delta
        );
    }
    println!(
        "\naverage gain from similarity weighting: {:+.0}%",
        arithmetic_mean(&deltas)
    );
}
