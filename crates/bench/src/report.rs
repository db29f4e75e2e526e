//! The built-in reports of `bfgts_run --report KEY`: the paper's
//! Tables 1 and 4, Figures 4–6 and the §5.3.2 update-interval sweep,
//! the calibration report, four extension studies and the three JSON
//! artifacts (the capacity sweep, the competitive ratios and the
//! 16 → 1024-CPU scale sweep).
//!
//! A report declares its grid as rows of [`RunCell`]s
//! ([`Report::grid`]): one row per benchmark, or per (manager,
//! benchmark) for Figure 6. [`Report::run`] executes the flattened grid
//! through [`run_grid_with_args`], so every report honours the shared
//! flags (`--jobs`, `--json`, `--emit`, `--audit`, `--trace`,
//! `--faults`), and prints its table from the summaries handed back in
//! the same rows. `results/MANIFEST` names each report's committed
//! full-scale output, and CI diffs it byte for byte.

use crate::json::Json;
use crate::runner::{run_grid_with_args, CellSummary, RunCell};
use crate::{
    arithmetic_mean, percent_improvement, CommonArgs, ManagerKind, ManagerSpec, Platform, Scenario,
    WorkloadSpec,
};
use bfgts_core::BfgtsConfig;
use bfgts_scenario::{CostKind, ResolvedWorkload};
use bfgts_sim::Bucket;
use bfgts_trace::AuditSummary;
use bfgts_workloads::{drain_canonical, presets, AdversarialSpec, BenchmarkSpec, ConflictGraph};
use std::iter::once;

/// One built-in report, named on the command line by [`Report::key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Report {
    /// Figure 4: (a) speedup over one core for every manager, (b)
    /// percent improvement over PTS, and the abstract's headline ratios.
    Fig4Speedup,
    /// Figure 5: the normalised runtime breakdown of PTS, ATS and the
    /// BFGTS variants. Always audited.
    Fig5Breakdown,
    /// Figure 6: speedup against Bloom filter size (512–8192 bits) for
    /// BFGTS-HW and BFGTS-HW/Backoff.
    Fig6BloomSweep,
    /// Table 1: the observed conflict graph and measured similarity of
    /// every static transaction, under Backoff.
    Table1ConflictGraphs,
    /// Table 4: the contention rate of every manager on every benchmark.
    Table4Contention,
    /// Measured workload statistics against the paper's Table 1 and 4
    /// targets, on Table 1's grid.
    Calibrate,
    /// §5.3.2: the small-transaction similarity-update interval (every
    /// 1 / 10 / 20 commits) for BFGTS-HW, as improvement over PTS.
    SweepInterval,
    /// Ablation: similarity-weighted against constant confidence updates.
    AblationSimilarity,
    /// §4.2.1 future work: a bounded, sTxID-aliased confidence table.
    AblationAliasing,
    /// The manager comparison under software-TM costs.
    StmAdaptation,
    /// Related-work and theory-grounded managers against Backoff and
    /// BFGTS-HW.
    ExtendedRoster,
    /// The capacity sweep (DESIGN.md §13): Kmeans under BFGTS-HW and
    /// Backoff, a perfect-detection row and then every signature width ×
    /// tracked-address capacity of bounded detection, at a quarter of the
    /// report scale. Always audited; prints its JSON artifact.
    BenchCapacity,
    /// Measured competitive ratios (DESIGN.md §14): four presets and two
    /// adversarial generators × six managers against each workload's
    /// clairvoyant makespan bound, at a quarter of the report scale.
    /// Always audited; prints its JSON artifact.
    BenchCompetitive,
    /// The scale-out sweep (DESIGN.md §11): BFGTS-HW on Kmeans at 16,
    /// 64, 256 and 1024 CPUs, 4 threads per CPU and one detection shard
    /// per 16 CPUs, with 6,250 transactions per CPU up to 10⁶ before the
    /// scale applies. Prints its JSON artifact.
    BenchScale,
}

/// The managers Figure 5 shows, bottom-to-top per benchmark group.
const FIG5_MANAGERS: [ManagerKind; 5] = [
    ManagerKind::Pts,
    ManagerKind::Ats,
    ManagerKind::BfgtsSw,
    ManagerKind::BfgtsHw,
    ManagerKind::BfgtsHwBackoff,
];
const FIG6_SIZES: [u32; 5] = [512, 1024, 2048, 4096, 8192];
const FIG6_KINDS: [ManagerKind; 2] = [ManagerKind::BfgtsHw, ManagerKind::BfgtsHwBackoff];
const INTERVALS: [u32; 3] = [1, 10, 20];
const ALIAS_SLOTS: [u32; 3] = [1, 2, 4];
const ROSTER_LABELS: [&str; 6] = [
    "Backoff",
    "Polka",
    "StallOnAbort",
    "WindowGreedy",
    "BalancedGreedy",
    "BFGTS-HW",
];
/// The capacity sweep's managers: the scheduler whose learning the
/// noisy oracle feeds, and the baseline that never learns.
const CAPACITY_KINDS: [ManagerKind; 2] = [ManagerKind::BfgtsHw, ManagerKind::Backoff];
/// Swept signature widths, in bits per filter.
const CAPACITY_BITS: [u32; 3] = [64, 256, 1024];
/// Swept tracked-address bounds.
const CAPACITIES: [u32; 4] = [8, 16, 32, 64];
/// Hash functions per signature, fixed across the sweep.
const CAPACITY_HASHES: u32 = 2;
/// The scale sweep's platform widths.
const SCALE_CPUS: [usize; 4] = [16, 64, 256, 1024];
/// CPUs per conflict-detection shard in the scale sweep: the paper's
/// 16-CPU platform has one shard, 1024 CPUs have 64.
const CPUS_PER_SHARD: usize = 16;

impl Report {
    /// Every report, in the order `--help` lists them.
    pub const ALL: [Report; 14] = [
        Report::Fig4Speedup,
        Report::Fig5Breakdown,
        Report::Fig6BloomSweep,
        Report::Table1ConflictGraphs,
        Report::Table4Contention,
        Report::Calibrate,
        Report::SweepInterval,
        Report::AblationSimilarity,
        Report::AblationAliasing,
        Report::StmAdaptation,
        Report::ExtendedRoster,
        Report::BenchCapacity,
        Report::BenchCompetitive,
        Report::BenchScale,
    ];

    /// The command-line key. A table report's committed output is
    /// `results/KEY.txt`; `results/MANIFEST` names every report's.
    pub fn key(self) -> &'static str {
        match self {
            Report::Fig4Speedup => "fig4_speedup",
            Report::Fig5Breakdown => "fig5_breakdown",
            Report::Fig6BloomSweep => "fig6_bloom_sweep",
            Report::Table1ConflictGraphs => "table1_conflict_graphs",
            Report::Table4Contention => "table4_contention",
            Report::Calibrate => "calibrate",
            Report::SweepInterval => "sweep_interval",
            Report::AblationSimilarity => "ablation_similarity",
            Report::AblationAliasing => "ablation_aliasing",
            Report::StmAdaptation => "stm_adaptation",
            Report::ExtendedRoster => "extended_roster",
            Report::BenchCapacity => "bench_capacity",
            Report::BenchCompetitive => "bench_competitive",
            Report::BenchScale => "bench_scale",
        }
    }

    /// The report named `key`, or an error listing every known key.
    pub fn from_key(key: &str) -> Result<Report, String> {
        Report::ALL
            .into_iter()
            .find(|r| r.key() == key)
            .ok_or_else(|| {
                let known: Vec<&str> = Report::ALL.iter().map(|r| r.key()).collect();
                format!("unknown report '{key}'; known: {}", known.join(", "))
            })
    }

    /// The report's grid at workload `scale` on `platform`, as rows in
    /// grid order: one row per benchmark, per (manager, benchmark) for
    /// Figure 6, per manager for the capacity sweep and per workload for
    /// the competitive ratios, and one row of four widths for the scale
    /// sweep, which takes only the seed of `platform`.
    pub fn grid(self, scale: f64, platform: Platform) -> Vec<Vec<RunCell>> {
        match self {
            Report::BenchCapacity => return capacity_grid(scale, platform),
            Report::BenchCompetitive => return competitive_grid(scale, platform),
            Report::BenchScale => return vec![scale_row(scale, platform.seed)],
            _ => {}
        }
        let specs = scaled_presets(scale);
        if self == Report::Fig6BloomSweep {
            // Both sweeps share one grid; each benchmark's serial
            // baseline appears twice but is simulated once.
            return FIG6_KINDS
                .iter()
                .flat_map(|&kind| {
                    specs.iter().map(move |spec| {
                        once(RunCell::serial(spec, platform))
                            .chain(
                                FIG6_SIZES
                                    .map(|bits| RunCell::with_bloom(spec, kind, platform, bits)),
                            )
                            .collect()
                    })
                })
                .collect();
        }
        specs
            .iter()
            .map(|spec| {
                let serial = RunCell::serial(spec, platform);
                let one = |kind| RunCell::one(spec, kind, platform);
                let with = |manager| RunCell::with_manager(spec, platform, manager);
                // A retuned BFGTS-HW arm keeps the benchmark's best Bloom size.
                let bits = ManagerKind::BfgtsHw.optimal_bloom_bits(&spec.name);
                let tuned = |config: BfgtsConfig| with(ManagerSpec::Bfgts(config.bloom_bits(bits)));
                match self {
                    Report::Fig4Speedup => once(serial).chain(ManagerKind::ALL.map(one)).collect(),
                    Report::Fig5Breakdown => FIG5_MANAGERS.map(one).to_vec(),
                    Report::Fig6BloomSweep
                    | Report::BenchCapacity
                    | Report::BenchCompetitive
                    | Report::BenchScale => unreachable!("built above"),
                    // The measurement is manager-independent: contention
                    // management changes how often conflicts repeat, not
                    // which pairs can conflict, so the paper uses Backoff.
                    Report::Table1ConflictGraphs | Report::Calibrate => {
                        vec![one(ManagerKind::Backoff)]
                    }
                    Report::Table4Contention => ManagerKind::ALL.map(one).to_vec(),
                    Report::SweepInterval => [serial, one(ManagerKind::Pts)]
                        .into_iter()
                        .chain(INTERVALS.map(|i| tuned(BfgtsConfig::hw().small_tx_interval(i))))
                        .collect(),
                    Report::AblationSimilarity => vec![
                        serial,
                        one(ManagerKind::BfgtsHw),
                        tuned(BfgtsConfig::hw().without_similarity_weighting()),
                    ],
                    Report::AblationAliasing => [serial, one(ManagerKind::BfgtsHw)]
                        .into_iter()
                        .chain(ALIAS_SLOTS.map(|s| tuned(BfgtsConfig::hw().with_alias_slots(s))))
                        .collect(),
                    // Every manager under STM costs, then the HTM-cost
                    // cells the closing ratio needs: the same as fig4's,
                    // so a warm cache makes them free.
                    Report::StmAdaptation => once(serial.clone().stm())
                        .chain(ManagerKind::ALL.map(|kind| one(kind).stm()))
                        .chain([serial, one(ManagerKind::BfgtsHw), one(ManagerKind::BfgtsSw)])
                        .collect(),
                    // In ROSTER_LABELS order.
                    Report::ExtendedRoster => vec![
                        serial,
                        one(ManagerKind::Backoff),
                        with(ManagerSpec::Polka),
                        with(ManagerSpec::Stall),
                        with(ManagerSpec::WindowGreedy {
                            window_size: None,
                            base_delay: None,
                        }),
                        with(ManagerSpec::BalancedGreedy { window_size: None }),
                        one(ManagerKind::BfgtsHw),
                    ],
                }
            })
            .collect()
    }

    /// Runs the report's grid with the command-line options and prints
    /// its table (or JSON artifact) on stdout. `--emit` exits inside the
    /// grid run, before anything is printed.
    pub fn run(self, args: &CommonArgs) {
        // Every Figure 5 number is a cycle-accounting claim, and both
        // artifacts record counts only the audit derives, so these are
        // audited on every run (DESIGN.md §8), not only under --audit.
        let always_audited = matches!(
            self,
            Report::Fig5Breakdown | Report::BenchCapacity | Report::BenchCompetitive
        );
        let args = &CommonArgs {
            audit: args.audit || always_audited,
            ..args.clone()
        };
        let grid = self.grid(args.scale, args.platform);
        let widths: Vec<usize> = grid.iter().map(Vec::len).collect();
        let cells: Vec<RunCell> = grid.into_iter().flatten().collect();
        let (summaries, audits) = run_grid_with_args(&cells, args);
        let rows = into_rows(summaries, &widths);
        let audits = audits.map_or_else(Vec::new, |audits| into_rows(audits, &widths));
        let specs = scaled_presets(args.scale);
        let p = args.platform;
        match self {
            Report::Fig4Speedup => fig4(&specs, &rows, p),
            Report::Fig5Breakdown => fig5(&specs, &rows, p),
            Report::Fig6BloomSweep => fig6(&specs, &rows),
            Report::Table1ConflictGraphs => table1(&specs, &rows, p),
            Report::Table4Contention => table4(&specs, &rows, p),
            Report::Calibrate => calibrate(&specs, &rows, args),
            Report::SweepInterval => sweep_interval(&specs, &rows),
            Report::AblationSimilarity => ablation_similarity(&specs, &rows),
            Report::AblationAliasing => ablation_aliasing(&specs, &rows),
            Report::StmAdaptation => stm_adaptation(&specs, &rows, p),
            Report::ExtendedRoster => extended_roster(&specs, &rows, p),
            Report::BenchCapacity => bench_capacity(&rows, &audits, args),
            Report::BenchCompetitive => bench_competitive(&rows, &audits, args),
            Report::BenchScale => bench_scale(&rows[0], args),
        }
    }
}

/// Splits a flattened grid's results back into rows of `widths`.
fn into_rows<T>(flat: Vec<T>, widths: &[usize]) -> Vec<Vec<T>> {
    let mut flat = flat.into_iter();
    widths
        .iter()
        .map(|&width| flat.by_ref().take(width).collect())
        .collect()
}

/// The seven STAMP presets at workload `scale`, in table order.
fn scaled_presets(scale: f64) -> Vec<BenchmarkSpec> {
    presets::all()
        .into_iter()
        .map(|spec| spec.scaled(scale))
        .collect()
}

/// The speedup of every cell after the first over the first, a serial
/// baseline.
fn speedups(row: &[CellSummary]) -> Vec<f64> {
    row[1..]
        .iter()
        .map(|cell| cell.speedup_over(row[0].makespan))
        .collect()
}

fn fig4(specs: &[BenchmarkSpec], rows: &[Vec<CellSummary>], p: Platform) {
    // per_bench[b][m] transposed to speedups[m][b].
    let per_bench: Vec<Vec<f64>> = rows.iter().map(|row| speedups(row)).collect();
    let speedups: Vec<Vec<f64>> = (0..ManagerKind::ALL.len())
        .map(|m| per_bench.iter().map(|row| row[m]).collect())
        .collect();

    println!(
        "Figure 4(a): speedup over one core ({} CPUs / {} threads)\n",
        p.cpus, p.threads
    );
    print!("{:<17}", "Manager");
    for spec in specs {
        print!(" {:>9}", spec.name);
    }
    println!(" {:>9}", "AVG");
    for (m, kind) in ManagerKind::ALL.into_iter().enumerate() {
        print!("{:<17}", kind.label());
        for s in &speedups[m] {
            print!(" {s:>9.2}");
        }
        println!(" {:>9.2}", arithmetic_mean(&speedups[m]));
    }

    let pts_index = ManagerKind::ALL
        .iter()
        .position(|k| *k == ManagerKind::Pts)
        .expect("PTS is in the roster");
    println!("\nFigure 4(b): percent improvement over PTS\n");
    print!("{:<17}", "Manager");
    for spec in specs {
        print!(" {:>9}", spec.name);
    }
    println!(" {:>9}", "AVG");
    for (m, kind) in ManagerKind::ALL.into_iter().enumerate() {
        if m == pts_index {
            continue;
        }
        print!("{:<17}", kind.label());
        let mut imps = Vec::new();
        for (s, pts) in speedups[m].iter().zip(&speedups[pts_index]) {
            let imp = percent_improvement(*s, *pts);
            imps.push(imp);
            print!(" {imp:>8.0}%");
        }
        println!(" {:>8.0}%", arithmetic_mean(&imps));
    }

    // Headline comparisons the paper's abstract quotes: the mean of
    // per-benchmark improvements (the AVG bar of Figure 4(b)), plus the
    // best single-benchmark ratio ("up to ...x on high contention").
    let row = |k: ManagerKind| {
        let m = ManagerKind::ALL.iter().position(|x| *x == k).unwrap();
        &speedups[m]
    };
    let vs = |a: ManagerKind, b: ManagerKind| {
        let (ra, rb) = (row(a), row(b));
        let imps: Vec<f64> = ra
            .iter()
            .zip(rb)
            .map(|(x, y)| percent_improvement(*x, *y))
            .collect();
        let max = imps.iter().cloned().fold(f64::MIN, f64::max);
        (arithmetic_mean(&imps), max)
    };
    let (hw_pts, hw_pts_max) = vs(ManagerKind::BfgtsHw, ManagerKind::Pts);
    let (hw_ats, hw_ats_max) = vs(ManagerKind::BfgtsHw, ManagerKind::Ats);
    let (hyb_pts, _) = vs(ManagerKind::BfgtsHwBackoff, ManagerKind::Pts);
    let (hyb_ats, _) = vs(ManagerKind::BfgtsHwBackoff, ManagerKind::Ats);
    println!(
        "\nheadline (paper): BFGTS-HW vs PTS {hw_pts:+.0}% avg, up to {:.1}x (+25%, 1.7x) | \
         vs ATS {hw_ats:+.0}% avg, up to {:.1}x (+35%, 4.6x)",
        1.0 + hw_pts_max / 100.0,
        1.0 + hw_ats_max / 100.0,
    );
    println!(
        "                  BFGTS-HW/Backoff vs PTS {hyb_pts:+.0}% (paper +30%), \
         vs ATS {hyb_ats:+.0}% (paper +40%)"
    );
}

fn fig5(specs: &[BenchmarkSpec], rows: &[Vec<CellSummary>], p: Platform) {
    println!(
        "Figure 5: normalized runtime breakdown ({} CPUs / {} threads)\n",
        p.cpus, p.threads
    );
    println!(
        "{:<10} {:<17} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "Benchmark", "Manager", "non-tx", "kernel", "tx", "abort", "sched"
    );
    println!("{}", "-".repeat(72));
    for (spec, row) in specs.iter().zip(rows) {
        for (kind, summary) in FIG5_MANAGERS.into_iter().zip(row) {
            print!("{:<10} {:<17}", spec.name, kind.label());
            for bucket in Bucket::ALL {
                print!(" {:>7.1}%", summary.fraction(bucket) * 100.0);
            }
            println!();
        }
        println!("{}", "-".repeat(72));
    }
}

fn fig6(specs: &[BenchmarkSpec], rows: &[Vec<CellSummary>]) {
    for (kind, kind_rows) in FIG6_KINDS.into_iter().zip(rows.chunks(specs.len())) {
        println!(
            "\nFigure 6 ({}): speedup vs Bloom filter size\n",
            kind.label()
        );
        print!("{:<10}", "Benchmark");
        for size in FIG6_SIZES {
            print!(" {:>9}", format!("{size}b"));
        }
        println!();
        for (spec, row) in specs.iter().zip(kind_rows) {
            print!("{:<10}", spec.name);
            for s in speedups(row) {
                print!(" {s:>9.2}");
            }
            println!();
        }
    }
}

fn table1(specs: &[BenchmarkSpec], rows: &[Vec<CellSummary>], p: Platform) {
    println!("Table 1: conflict graph and measured similarity per static transaction");
    println!(
        "(platform: {} CPUs / {} threads; paper values in parentheses)\n",
        p.cpus, p.threads
    );
    println!(
        "{:<10} {:>4} | {:<24} | {:>9} {:>9}",
        "Benchmark", "Tx", "Conflict graph (measured)", "similarity", "(paper)"
    );
    println!("{}", "-".repeat(70));
    for (spec, row) in specs.iter().zip(rows) {
        let summary = &row[0];
        for (stx, paper_sim) in &spec.expected.similarity {
            let row_str = summary
                .conflict_row(*stx)
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(" ");
            let measured = summary
                .measured_similarity(*stx)
                .map(|s| format!("{s:.2}"))
                .unwrap_or_else(|| "--".into());
            println!(
                "{:<10} {:>4} | {:<24} | {:>9} {:>9}",
                spec.name,
                stx,
                row_str,
                measured,
                format!("({paper_sim:.2})")
            );
        }
        println!("{}", "-".repeat(70));
    }
}

fn table4(specs: &[BenchmarkSpec], rows: &[Vec<CellSummary>], p: Platform) {
    println!(
        "Table 4: contention rates (aborted attempts / all attempts), {} CPUs / {} threads\n",
        p.cpus, p.threads
    );
    print!("{:<10}", "Benchmark");
    for kind in ManagerKind::ALL {
        print!(" {:>16}", kind.label());
    }
    println!(" {:>16}", "(paper Backoff)");
    for (spec, row) in specs.iter().zip(rows) {
        print!("{:<10}", spec.name);
        for summary in row {
            print!(" {:>15.1}%", summary.contention_rate() * 100.0);
        }
        println!(" {:>15.1}%", spec.expected.backoff_contention * 100.0);
    }
}

fn calibrate(specs: &[BenchmarkSpec], rows: &[Vec<CellSummary>], args: &CommonArgs) {
    println!(
        "calibration on {} CPUs / {} threads, scale {}, seed {:#x}",
        args.platform.cpus, args.platform.threads, args.scale, args.platform.seed
    );
    for (spec, row) in specs.iter().zip(rows) {
        let summary = &row[0];
        println!("\n=== {} ({} txs) ===", spec.name, spec.total_txs);
        println!(
            "contention: measured {:.1}% vs paper {:.1}%   (commits {}, aborts {}, stalls {})",
            summary.contention_rate() * 100.0,
            spec.expected.backoff_contention * 100.0,
            summary.commits,
            summary.aborts,
            summary.stalls,
        );
        println!("  stx | paper sim | measured | paper conflicts | measured conflicts");
        for (stx, paper_sim) in &spec.expected.similarity {
            let measured = summary
                .measured_similarity(*stx)
                .map(|s| format!("{s:.2}"))
                .unwrap_or_else(|| "--".into());
            let paper_row = spec
                .expected
                .conflict_rows
                .iter()
                .find(|(s, _)| s == stx)
                .map(|(_, row)| format!("{row:?}"))
                .unwrap_or_default();
            let measured_row = summary.conflict_row(*stx);
            println!(
                "  {stx:3} | {paper_sim:9.2} | {measured:>8} | {paper_row:15} | {measured_row:?}"
            );
        }
        println!("  makespan {} cycles", summary.makespan);
    }
}

fn sweep_interval(specs: &[BenchmarkSpec], rows: &[Vec<CellSummary>]) {
    // Per benchmark: PTS, then one speedup per interval.
    let per_bench: Vec<Vec<f64>> = rows.iter().map(|row| speedups(row)).collect();
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
        for bench in &per_bench {
            let s = bench[1 + k];
            imps.push(percent_improvement(s, bench[0]));
            print!(" {:>8.2}", s);
        }
        println!(
            "   avg improvement over PTS: {:+.0}%",
            arithmetic_mean(&imps)
        );
    }
    println!("\npaper: every commit ≈ +20%, every 10 ≈ +23%, every 20 ≈ +25% over PTS");
}

fn ablation_similarity(specs: &[BenchmarkSpec], rows: &[Vec<CellSummary>]) {
    println!("Ablation: similarity-weighted vs constant confidence updates (BFGTS-HW)\n");
    println!(
        "{:<10} {:>12} {:>12} {:>12}",
        "Benchmark", "weighted", "constant", "delta"
    );
    let mut deltas = Vec::new();
    for (spec, row) in specs.iter().zip(rows) {
        let arms = speedups(row);
        let (weighted, constant) = (arms[0], arms[1]);
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

fn ablation_aliasing(specs: &[BenchmarkSpec], rows: &[Vec<CellSummary>]) {
    println!(
        "Aliasing extension (paper §4.2.1 future work): BFGTS-HW speedup with a\n\
         bounded, sTxID-hashed confidence table vs the exact table\n"
    );
    print!("{:<10} {:>9}", "Benchmark", "exact");
    for s in ALIAS_SLOTS {
        print!(" {:>9}", format!("{s} slot(s)"));
    }
    println!();
    for (spec, row) in specs.iter().zip(rows) {
        // The exact table, then one speedup per slot count.
        print!("{:<10}", spec.name);
        for s in speedups(row) {
            print!(" {s:>9.2}");
        }
        println!();
    }
    println!(
        "\nWith few slots, unrelated transactions share conflict reputations\n\
         (a single slot makes every transaction pair look alike); the exact\n\
         table is the paper's evaluated configuration."
    );
}

/// The paper's related work observes that for STM systems "scheduling
/// overheads are less important" (Dragojević et al. do PTS-style
/// scheduling there without hardware help). Under STM costs the gap
/// between BFGTS-SW and BFGTS-HW should shrink, because the software
/// begin-scan is amortised by fatter transactions.
fn stm_adaptation(specs: &[BenchmarkSpec], rows: &[Vec<CellSummary>], p: Platform) {
    println!(
        "STM adaptation: manager comparison under software-TM costs\n\
         ({} CPUs / {} threads)\n",
        p.cpus, p.threads
    );
    print!("{:<10} {:>10}", "Benchmark", "serial-ish");
    for kind in ManagerKind::ALL {
        print!(" {:>16}", kind.label());
    }
    println!();

    let position = |k: ManagerKind| ManagerKind::ALL.iter().position(|x| *x == k).unwrap();
    let (hw, sw) = (
        position(ManagerKind::BfgtsHw),
        position(ManagerKind::BfgtsSw),
    );
    let mut sw_gap_htm = Vec::new();
    let mut sw_gap_stm = Vec::new();
    for (spec, row) in specs.iter().zip(rows) {
        let (stm, htm) = row.split_at(1 + ManagerKind::ALL.len());
        print!("{:<10} {:>10}", spec.name, stm[0].makespan);
        let stm = speedups(stm);
        for s in &stm {
            print!(" {:>16.2}", s);
        }
        println!();

        // BFGTS-HW, then BFGTS-SW, under HTM costs.
        let htm = speedups(htm);
        if htm[1] > 0.0 {
            sw_gap_htm.push(htm[0] / htm[1]);
        }
        if stm[sw] > 0.0 {
            sw_gap_stm.push(stm[hw] / stm[sw]);
        }
    }
    println!(
        "\nBFGTS-HW / BFGTS-SW ratio: {:.2}x under HTM costs vs {:.2}x under STM costs",
        arithmetic_mean(&sw_gap_htm),
        arithmetic_mean(&sw_gap_stm)
    );
    println!(
        "(paper related work: hardware acceleration matters less for STM, where\n\
         per-access instrumentation dwarfs the scheduling software)"
    );
}

fn extended_roster(specs: &[BenchmarkSpec], rows: &[Vec<CellSummary>], p: Platform) {
    println!(
        "Extended roster: related-work reactive managers vs Backoff and BFGTS-HW\n\
         ({} CPUs / {} threads)\n",
        p.cpus, p.threads
    );
    print!("{:<10}", "Benchmark");
    for label in ROSTER_LABELS {
        print!(" {:>15}", label);
    }
    println!("   (speedup over one core; contention in parentheses)");
    for (spec, row) in specs.iter().zip(rows) {
        print!("{:<10}", spec.name);
        for summary in &row[1..] {
            print!(
                " {:>7.2} ({:>4.1}%)",
                summary.speedup_over(row[0].makespan),
                summary.contention_rate() * 100.0
            );
        }
        println!();
    }
    println!(
        "\nStall-on-abort targets the *specific* enemy, sitting between blind\n\
         Backoff and predictive BFGTS; Polka's investment scaling helps where\n\
         big transactions lose to small ones. The greedy pair brings the\n\
         theory line: windowed randomized priorities (arXiv:1002.4182) and\n\
         remaining-work balancing (arXiv:1009.0056), both audited through\n\
         invariant I11."
    );
}

/// The capacity sweep's detection points in row order: perfect
/// detection, then every (bits, capacity) pair of bounded detection.
fn capacity_points() -> impl Iterator<Item = Option<(u32, u32)>> {
    once(None).chain(
        CAPACITY_BITS
            .into_iter()
            .flat_map(|bits| CAPACITIES.map(|capacity| Some((bits, capacity)))),
    )
}

/// The capacity sweep's grid: one row per manager, a perfect-detection
/// cell and then one cell per (bits, capacity) point, on Kmeans at a
/// quarter of `scale`.
fn capacity_grid(scale: f64, platform: Platform) -> Vec<Vec<RunCell>> {
    let spec = presets::kmeans().scaled(scale / 4.0);
    CAPACITY_KINDS
        .iter()
        .map(|&kind| {
            capacity_points()
                .map(|point| {
                    let platform = match point {
                        None => platform,
                        Some((bits, capacity)) => platform.bounded(bits, CAPACITY_HASHES, capacity),
                    };
                    RunCell::one(&spec, kind, platform)
                })
                .collect()
        })
        .collect()
}

/// Whether the artifact reports ran below the committed full scale.
fn quick(args: &CommonArgs) -> bool {
    args.scale < 1.0
}

/// `results/BENCH_capacity.json`: every cell's makespan and outcome
/// counts, plus the false-positive conflicts and capacity aborts its
/// audit verified (I10).
fn bench_capacity(rows: &[Vec<CellSummary>], audits: &[Vec<AuditSummary>], args: &CommonArgs) {
    let mut out = Vec::new();
    for ((kind, row), audit_row) in CAPACITY_KINDS.into_iter().zip(rows).zip(audits) {
        for ((point, summary), audit) in capacity_points().zip(row).zip(audit_row) {
            let (detection, (bits, capacity)) = match point {
                None => ("perfect", (0, 0)),
                Some(point) => ("bounded", point),
            };
            out.push(Json::obj([
                ("manager", Json::Str(kind.label().to_string())),
                ("detection", Json::Str(detection.to_string())),
                ("bits", Json::UInt(u64::from(bits))),
                ("capacity", Json::UInt(u64::from(capacity))),
                ("makespan", Json::UInt(summary.makespan)),
                ("commits", Json::UInt(summary.commits)),
                ("aborts", Json::UInt(summary.aborts)),
                (
                    "false_positive_conflicts",
                    Json::UInt(audit.false_positive_conflicts),
                ),
                ("capacity_aborts", Json::UInt(audit.capacity_aborts)),
            ]));
        }
    }
    // Sanity on the sweep's shape: the bounded axis has to actually
    // bite somewhere, or the artifact is a table of noise.
    assert!(
        audits.iter().flatten().any(|a| a.capacity_aborts > 0),
        "no swept cell ever overflowed — capacities are too generous to measure anything"
    );
    let doc = Json::obj([
        ("bin", Json::Str("bench_capacity".to_string())),
        ("version", Json::UInt(1)),
        ("workload", Json::Str("Kmeans".to_string())),
        ("hashes", Json::UInt(u64::from(CAPACITY_HASHES))),
        ("seed", Json::UInt(args.platform.seed)),
        ("quick", Json::Bool(quick(args))),
        ("rows", Json::Arr(out)),
    ]);
    println!("{doc}");
}

/// The competitive sweep's workloads at a quarter of `scale`: four
/// STAMP presets, then two adversarial generators.
fn competitive_workloads(scale: f64) -> Vec<ResolvedWorkload> {
    let scale = scale / 4.0;
    let preset = |spec: BenchmarkSpec| ResolvedWorkload::Benchmark(spec.scaled(scale));
    let adversarial = |spec: AdversarialSpec| ResolvedWorkload::Adversarial(spec.scaled(scale));
    vec![
        preset(presets::kmeans()),
        preset(presets::genome()),
        preset(presets::vacation()),
        preset(presets::intruder()),
        adversarial(AdversarialSpec::hotspot_skew()),
        adversarial(AdversarialSpec::contention_storm()),
    ]
}

/// The competitive sweep's grid: one row per workload, one cell per
/// manager.
fn competitive_grid(scale: f64, platform: Platform) -> Vec<Vec<RunCell>> {
    competitive_workloads(scale)
        .iter()
        .map(|work| {
            let workload = match work {
                ResolvedWorkload::Benchmark(spec) => WorkloadSpec::from_benchmark(spec),
                ResolvedWorkload::Adversarial(spec) => WorkloadSpec::from_adversarial(spec),
            };
            competitive_managers()
                .map(|manager| RunCell {
                    scenario: Scenario::new(workload.clone(), manager, platform).canonical(),
                })
                .to_vec()
        })
        .collect()
}

/// The competitive sweep's roster: the reactive baselines, the
/// theory-grounded greedy pair, and both BFGTS flavours.
fn competitive_managers() -> [ManagerSpec; 6] {
    let kind = |kind| ManagerSpec::Kind {
        kind,
        bloom_bits: None,
    };
    [
        kind(ManagerKind::Backoff),
        ManagerSpec::Polka,
        ManagerSpec::WindowGreedy {
            window_size: None,
            base_delay: None,
        },
        ManagerSpec::BalancedGreedy { window_size: None },
        kind(ManagerKind::BfgtsSw),
        kind(ManagerKind::BfgtsHw),
    ]
}

/// `results/BENCH_competitive.json`: each workload's clairvoyant lower
/// bound, from its canonical streams and realized conflict graph, and
/// every manager's makespan as a competitive ratio against it, beside
/// the window advances its audit verified (I11).
fn bench_competitive(rows: &[Vec<CellSummary>], audits: &[Vec<AuditSummary>], args: &CommonArgs) {
    let p = args.platform;
    // Every cell runs under `Scenario::new`'s HTM costs; the bound prices
    // transactions at exactly those costs.
    let run = CostKind::Htm.run_config(p.cpus, p.threads, p.seed);
    let mut bounds = Vec::new();
    let mut out = Vec::new();
    let mut ratios = Vec::new();
    let workloads = competitive_workloads(args.scale);
    for ((work, row), audit_row) in workloads.iter().zip(rows).zip(audits) {
        let streams = match work {
            ResolvedWorkload::Benchmark(spec) => drain_canonical(spec.sources(p.threads), p.seed),
            ResolvedWorkload::Adversarial(spec) => drain_canonical(spec.sources(p.threads), p.seed),
        };
        let lb = ConflictGraph::build(&streams, &run).lower_bound(p.cpus);
        for ((manager, summary), audit) in competitive_managers().iter().zip(row).zip(audit_row) {
            let label = manager.label();
            let makespan = summary.makespan;
            assert!(
                makespan >= lb.bound,
                "{label} on {} finished in {makespan} cycles, below the clairvoyant \
                 bound {} — the bound is not a lower bound",
                work.name(),
                lb.bound
            );
            // Milli-units, rounded down: integer so the artifact diffs
            // byte-exactly.
            let ratio_milli = makespan * 1000 / lb.bound;
            ratios.push((label.clone(), ratio_milli, audit.window_advances));
            out.push(Json::obj([
                ("workload", Json::Str(work.name().to_string())),
                ("manager", Json::Str(label)),
                ("makespan", Json::UInt(makespan)),
                ("commits", Json::UInt(summary.commits)),
                ("aborts", Json::UInt(summary.aborts)),
                ("window_advances", Json::UInt(audit.window_advances)),
                ("ratio_milli", Json::UInt(ratio_milli)),
            ]));
        }
        bounds.push(Json::obj([
            ("workload", Json::Str(work.name().to_string())),
            ("total_work", Json::UInt(lb.total_work)),
            ("work_bound", Json::UInt(lb.work_bound)),
            ("chain_bound", Json::UInt(lb.chain_bound)),
            ("hotline_bound", Json::UInt(lb.hotline_bound)),
            ("bound", Json::UInt(lb.bound)),
        ]));
    }
    // Shape checks: the acceptance contract of the sweep.
    assert!(
        ratios.iter().all(|(_, ratio, _)| *ratio >= 1000),
        "a measured ratio fell below 1.0"
    );
    assert!(
        ratios
            .iter()
            .any(|(label, _, advances)| label.starts_with("WindowGreedy") && *advances > 0),
        "window managers never advanced a window — I11 has nothing to audit"
    );
    let doc = Json::obj([
        ("bin", Json::Str("bench_competitive".to_string())),
        ("version", Json::UInt(1)),
        ("seed", Json::UInt(p.seed)),
        ("quick", Json::Bool(quick(args))),
        ("cpus", Json::UInt(p.cpus as u64)),
        ("threads", Json::UInt(p.threads as u64)),
        ("bounds", Json::Arr(bounds)),
        ("rows", Json::Arr(out)),
    ]);
    println!("{doc}");
}

/// The scale sweep's cells, one per width in [`SCALE_CPUS`].
fn scale_row(scale: f64, seed: u64) -> Vec<RunCell> {
    SCALE_CPUS
        .map(|cpus| {
            let mut spec = presets::kmeans();
            spec.total_txs = (cpus as u64 * 6_250).min(1_000_000);
            let platform = Platform {
                cpus,
                threads: cpus * 4,
                seed,
                ..Platform::paper()
            }
            .sharded((cpus / CPUS_PER_SHARD) as u32);
            RunCell::one(&spec.scaled(scale), ManagerKind::BfgtsHw, platform)
        })
        .to_vec()
}

/// `results/BENCH_scale.json`: every width's makespan and outcome
/// counts. Host time is perfbench's to measure (its `scale_1024`
/// workload), so the artifact holds simulated fields only.
fn bench_scale(row: &[CellSummary], args: &CommonArgs) {
    let cells = scale_row(args.scale, args.platform.seed);
    let out = cells.iter().zip(row).map(|(cell, summary)| {
        let p = cell.scenario.platform;
        Json::obj([
            ("cpus", Json::UInt(p.cpus as u64)),
            ("threads", Json::UInt(p.threads as u64)),
            ("shards", Json::UInt(u64::from(p.shards))),
            ("txns", Json::UInt(cell.scenario.workload.total_txs())),
            ("makespan", Json::UInt(summary.makespan)),
            ("commits", Json::UInt(summary.commits)),
            ("aborts", Json::UInt(summary.aborts)),
        ])
    });
    let doc = Json::obj([
        ("bin", Json::Str("bench_scale".to_string())),
        ("version", Json::UInt(2)),
        ("workload", Json::Str("Kmeans".to_string())),
        (
            "manager",
            Json::Str(ManagerKind::BfgtsHw.label().to_string()),
        ),
        ("seed", Json::UInt(args.platform.seed)),
        ("quick", Json::Bool(quick(args))),
        ("rows", Json::Arr(out.collect())),
    ]);
    println!("{doc}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};

    #[test]
    fn every_report_has_a_committed_golden() {
        // results/MANIFEST pairs every committed artifact with the
        // command whose stdout must equal it, and CI runs every row: a
        // report or an artifact cannot skip its golden, and no row can
        // name a file that is not there.
        let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let manifest = std::fs::read_to_string(root.join("results/MANIFEST"))
            .expect("results/MANIFEST exists");
        let rows: Vec<(&str, Vec<&str>)> = manifest
            .lines()
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .map(|line| {
                let (path, command) = line.split_once(' ').expect("a row is PATH COMMAND");
                (path, command.split_whitespace().collect())
            })
            .collect();
        for report in Report::ALL {
            assert!(
                rows.iter()
                    .any(|(_, words)| words.windows(2).any(|w| w == ["--report", report.key()])),
                "no manifest row runs --report {}",
                report.key()
            );
        }
        for (path, _) in &rows {
            assert!(root.join(path).is_file(), "manifest row for missing {path}");
        }
        // The cache and the manifest itself are the only files under
        // results/ without a row.
        let mut dirs = vec![PathBuf::from("results")];
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(root.join(&dir)).expect("results/ is readable") {
                let entry = entry.expect("results/ entries are readable");
                let path = dir.join(entry.file_name());
                let path = path.to_str().expect("UTF-8 artifact paths");
                if entry.path().is_dir() {
                    if path != "results/cache" {
                        dirs.push(PathBuf::from(path));
                    }
                } else if path != "results/MANIFEST" {
                    let listed = rows.iter().filter(|(row, _)| *row == path).count();
                    assert_eq!(
                        listed, 1,
                        "{path} needs exactly one row in results/MANIFEST"
                    );
                }
            }
        }
    }
}
