//! Regenerates the **§5.3.2** sensitivity study: the small-transaction
//! similarity-update interval (every 1 / 10 / 20 commits) for BFGTS-HW,
//! reported as average improvement over PTS.
//!
//! ```text
//! cargo run -p bfgts-bench --release --bin sweep_interval [--quick] [--jobs N]
//! ```

use bfgts_bench::runner::{run_grid_with_args, RunCell};
use bfgts_bench::{
    arithmetic_mean, parse_common_args, percent_improvement, ManagerKind, ManagerSpec,
};
use bfgts_core::BfgtsConfig;
use bfgts_workloads::presets;

const INTERVALS: [u32; 3] = [1, 10, 20];

fn main() {
    let args = parse_common_args();
    let specs: Vec<_> = presets::all()
        .into_iter()
        .map(|s| s.scaled(args.scale))
        .collect();

    // Per benchmark: serial baseline, PTS reference, one BFGTS-HW cell
    // per update interval.
    let mut cells = Vec::new();
    for spec in &specs {
        cells.push(RunCell::serial(spec, args.platform));
        cells.push(RunCell::one(spec, ManagerKind::Pts, args.platform));
        let bits = ManagerKind::BfgtsHw.optimal_bloom_bits(spec.name);
        for interval in INTERVALS {
            cells.push(RunCell::with_manager(
                spec,
                args.platform,
                ManagerSpec::Bfgts(
                    BfgtsConfig::hw()
                        .bloom_bits(bits)
                        .small_tx_interval(interval),
                ),
            ));
        }
    }
    let results = run_grid_with_args(&cells, &args);
    let stride = 2 + INTERVALS.len();
    let serial = |b: usize| results[b * stride].makespan;
    let pts: Vec<f64> = (0..specs.len())
        .map(|b| results[b * stride + 1].speedup_over(serial(b)))
        .collect();

    println!("Section 5.3.2: small-transaction similarity update interval (BFGTS-HW)\n");
    println!(
        "{:<10} {}",
        "interval",
        specs
            .iter()
            .map(|s| format!("{:>9}", s.name))
            .collect::<String>()
    );
    for (k, interval) in INTERVALS.into_iter().enumerate() {
        let mut imps = Vec::new();
        print!("every {interval:<3} ");
        for b in 0..specs.len() {
            let s = results[b * stride + 2 + k].speedup_over(serial(b));
            imps.push(percent_improvement(s, pts[b]));
            print!(" {:>8.2}", s);
        }
        println!(
            "   avg improvement over PTS: {:+.0}%",
            arithmetic_mean(&imps)
        );
    }
    println!("\npaper: every commit ≈ +20%, every 10 ≈ +23%, every 20 ≈ +25% over PTS");
}
