//! Evaluates the paper's §4.2.1 *future work*: bounding the confidence
//! table with sTxID aliasing so prediction state stays fixed-size for
//! programs with very many static transactions. Sweeps the slot count
//! and reports the performance cost of the aliasing collisions.
//!
//! ```text
//! cargo run -p bfgts-bench --release --bin ablation_aliasing [--quick] [--jobs N]
//! ```

use bfgts_bench::runner::{run_grid_with_args, RunCell};
use bfgts_bench::{parse_common_args, ManagerKind, ManagerSpec};
use bfgts_core::BfgtsConfig;
use bfgts_workloads::presets;

const SLOTS: [u32; 3] = [1, 2, 4];

fn main() {
    let args = parse_common_args();
    let specs: Vec<_> = presets::all()
        .into_iter()
        .map(|s| s.scaled(args.scale))
        .collect();

    // Per benchmark: serial baseline, the exact (unaliased) table, one
    // cell per bounded slot count.
    let mut cells = Vec::new();
    for spec in &specs {
        cells.push(RunCell::serial(spec, args.platform));
        cells.push(RunCell::one(spec, ManagerKind::BfgtsHw, args.platform));
        let bits = ManagerKind::BfgtsHw.optimal_bloom_bits(spec.name);
        for slots in SLOTS {
            cells.push(RunCell::with_manager(
                spec,
                args.platform,
                ManagerSpec::Bfgts(BfgtsConfig::hw().bloom_bits(bits).with_alias_slots(slots)),
            ));
        }
    }
    let results = run_grid_with_args(&cells, &args);
    let stride = 2 + SLOTS.len();

    println!(
        "Aliasing extension (paper §4.2.1 future work): BFGTS-HW speedup with a\n\
         bounded, sTxID-hashed confidence table vs the exact table\n"
    );
    print!("{:<10} {:>9}", "Benchmark", "exact");
    for s in SLOTS {
        print!(" {:>9}", format!("{s} slot(s)"));
    }
    println!();
    for (b, spec) in specs.iter().enumerate() {
        let serial = results[b * stride].makespan;
        let exact = results[b * stride + 1].speedup_over(serial);
        print!("{:<10} {:>9.2}", spec.name, exact);
        for k in 0..SLOTS.len() {
            let aliased = results[b * stride + 2 + k].speedup_over(serial);
            print!(" {:>9.2}", aliased);
        }
        println!();
    }
    println!(
        "\nWith few slots, unrelated transactions share conflict reputations\n\
         (a single slot makes every transaction pair look alike); the exact\n\
         table is the paper's evaluated configuration."
    );
}
