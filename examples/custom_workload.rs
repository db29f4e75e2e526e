//! Authoring a custom benchmark with the workload toolkit: a synthetic
//! "order book" with one hot writer class and one scan class, compared
//! under ATS and BFGTS-HW.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use bfgts_baselines::AtsCm;
use bfgts_core::{BfgtsCm, BfgtsConfig};
use bfgts_htm::{run_workload, ContentionManager, TmRunConfig};
use bfgts_workloads::{BenchmarkSpec, ExpectedProfile, RandomRegion, Region, TxClass};
use std::sync::Arc;

fn order_book() -> BenchmarkSpec {
    let best_bid_ask = Region::new(0x100, 8); // top of book: white hot
    let book = Region::new(0x10_000, 20_000);
    BenchmarkSpec {
        name: "OrderBook".into(),
        classes: Arc::from(vec![
            TxClass {
                // order placement: updates top-of-book + a random level
                stx: 0,
                weight: 0.6,
                private_hot: 3,
                shared_picks: 2,
                shared_pool: Some(best_bid_ask),
                shared_writes: true,
                random_picks: 5,
                random_region: RandomRegion::Shared(book),
                write_frac: 0.7,
                pre_work: (200, 500),
            },
            TxClass {
                // market-data scan: reads top-of-book, walks own cursor
                stx: 1,
                weight: 0.4,
                private_hot: 10,
                shared_picks: 1,
                shared_pool: Some(best_bid_ask),
                shared_writes: false,
                random_picks: 9,
                random_region: RandomRegion::Shared(book),
                write_frac: 0.1,
                pre_work: (200, 500),
            },
        ]),
        total_txs: 2_000,
        expected: ExpectedProfile {
            similarity: vec![(0, 0.3), (1, 0.5)],
            conflict_rows: vec![(0, vec![0, 1]), (1, vec![0])],
            backoff_contention: 0.3,
        },
    }
}

fn run(cm: Box<dyn ContentionManager>, spec: &BenchmarkSpec) {
    let cfg = TmRunConfig::new(8, 32).seed(99);
    let report = run_workload(&cfg, spec.sources(32), cm);
    println!(
        "{:<17} makespan {:>12} cycles, contention {:>5.1}%, commits/Mcycle {:>7.1}",
        report.cm_name,
        report.sim.makespan.as_u64(),
        report.stats.contention_rate() * 100.0,
        report.commits_per_mcycle()
    );
}

fn main() {
    let spec = order_book();
    println!("custom benchmark: {} ({} txs)\n", spec.name, spec.total_txs);
    run(Box::new(AtsCm::default()), &spec);
    run(
        Box::new(BfgtsCm::new(BfgtsConfig::hw().bloom_bits(1024))),
        &spec,
    );
    run(
        Box::new(BfgtsCm::new(BfgtsConfig::hw_backoff().bloom_bits(1024))),
        &spec,
    );
}
