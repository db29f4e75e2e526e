//! Quickstart: schedule a tiny hand-written transactional workload with
//! BFGTS-HW and inspect what happened.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Two threads repeatedly run two static transactions: `sTx0` hammers a
//! shared counter block (persistent conflicts, high similarity), `sTx1`
//! inserts into a large hash-style table (transient conflicts, low
//! similarity). BFGTS learns to serialise the former and leave the
//! latter parallel.

use bfgts_core::{BfgtsCm, BfgtsConfig};
use bfgts_htm::{run_workload, STxId, TmRunConfig, TxInstance, TxSource};
use bfgts_sim::SimRng;

/// A little workload generator: alternates the two transaction types.
struct TwoPhase {
    remaining: u32,
    thread: u64,
}

impl TxSource for TwoPhase {
    fn next_tx(&mut self, rng: &mut SimRng) -> Option<TxInstance> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.remaining.is_multiple_of(2) {
            // sTx0: read-modify-write a shared 4-line counter block.
            Some(TxInstance::writer_over(STxId(0), 0..4, 200))
        } else {
            // sTx1: touch 8 random lines of a 100k-line table.
            let base = rng.gen_range(100_000);
            let mut tx = TxInstance::writer_over(STxId(1), 0..0, 150);
            for i in 0..8 {
                let line = 1_000 + (base + i * 13_001) % 100_000;
                tx.accesses.push(bfgts_htm::Access::write(line));
            }
            // Plus one private hot line per thread for similarity.
            tx.accesses
                .push(bfgts_htm::Access::write(500_000 + self.thread));
            Some(tx)
        }
    }
}

fn main() {
    let threads = 8;
    let cfg = TmRunConfig::new(4, threads).seed(7);
    let sources: Vec<TwoPhase> = (0..threads)
        .map(|t| TwoPhase {
            remaining: 100,
            thread: t as u64,
        })
        .collect();

    let cm = BfgtsCm::new(BfgtsConfig::hw().bloom_bits(1024));
    let report = run_workload(&cfg, sources, Box::new(cm));

    println!("manager:    {}", report.cm_name);
    println!("commits:    {}", report.stats.commits());
    println!("aborts:     {}", report.stats.aborts());
    println!("stalls:     {}", report.stats.stalls());
    println!("contention: {:.1}%", report.stats.contention_rate() * 100.0);
    println!("makespan:   {} cycles", report.sim.makespan.as_u64());
    for stx in report.stats.stx_ids() {
        let (commits, aborts) = report.stats.stx_counts(stx);
        let sim = report
            .stats
            .measured_similarity(stx)
            .map(|s| format!("{s:.2}"))
            .unwrap_or_else(|| "--".into());
        println!("  {stx}: commits {commits}, aborts {aborts}, similarity {sim}");
    }
    println!("\ntime breakdown:");
    let total = report.sim.total();
    for (bucket, frac) in total.breakdown() {
        println!("  {:>10}: {:5.1}%", bucket.label(), frac * 100.0);
    }
}
