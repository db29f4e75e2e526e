//! Seeded fault-injection fuzz campaigns (DESIGN.md §9).
//!
//! A campaign runs a grid of cells, each fully derived from a single
//! `u64` seed: an adversarial workload, a BFGTS flavour, a detection
//! model and a randomized [`FaultPlan`], captured as one canonical
//! [`Scenario`]. [`run_cell`] executes that scenario and its Backoff
//! twin through [`RunCell::execute_report`] — the path every grid cell,
//! scenario file and served request takes — audits both traces and
//! checks the graceful-degradation bound. Violating cells are
//! auto-minimized (greedy fault removal, then magnitude halving) and
//! written under [`REPRO_DIR`] as replayable repro JSON that `bfgts_run
//! --repro PATH` re-executes byte-identically, verified by a fingerprint
//! over the run's JSONL event trace.
//!
//! `bfgts_run --report fuzz_campaign --seed A..B` runs [`campaign`],
//! `--seeded-violation` runs [`control`] and `--repro PATH` runs
//! [`confirm`].

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bfgts_core::{BfgtsConfig, BfgtsVariant};
use bfgts_faultsim::{minimize, Fault, FaultPlan};
use bfgts_htm::TmRunReport;
use bfgts_scenario::{
    fnv1a, variant_key, ManagerKind, ManagerSpec, Platform, Scenario, WorkloadSpec,
};
use bfgts_sim::TraceMode;
use bfgts_testkit::Gen;
use bfgts_workloads::AdversarialSpec;

use crate::json::Json;
use crate::runner::{parallel_map, RunCell};
use crate::trace_export;

/// Format version of a repro file; bump on any schema change. Version 2
/// replaced the flat field list with an embedded [`Scenario`]
/// (DESIGN.md §10): a repro now names its run in exactly the form
/// `bfgts_run` executes and the trace header records.
pub const REPRO_VERSION: u64 = 2;

/// Where campaign violations and the seeded control leave their repros,
/// relative to the working directory.
pub const REPRO_DIR: &str = "results/repros";

/// BFGTS flavours the campaign rotates through. Cells draw from this
/// list by index, so its order is part of every cell's derivation.
const VARIANTS: [BfgtsVariant; 4] = [
    BfgtsVariant::Sw,
    BfgtsVariant::Hw,
    BfgtsVariant::HwBackoff,
    BfgtsVariant::NoOverhead,
];

/// Workload scale of a campaign cell: a tenth of the generator's size.
const CELL_SCALE: f64 = 0.1;

/// The campaign's graceful-degradation floor, in percent: faulted BFGTS
/// must reach at least this fraction of Backoff's throughput, i.e. be
/// at most 10× slower.
const MIN_FRACTION_PCT: u64 = 10;

/// One campaign cell: the BFGTS run under test and the floor it is
/// judged against.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCell {
    /// The seed the cell was derived from (a label seed for controls).
    pub seed: u64,
    /// The canonical BFGTS run: platform, scaled workload, flavour,
    /// fault plan and full tracing.
    pub scenario: Scenario,
    /// Graceful-degradation bound, in percent: the cell passes only if
    /// `bfgts_makespan * min_fraction_pct <= backoff_makespan * 100`.
    pub min_fraction_pct: u64,
}

/// The small overcommitted platform campaign cells run on (4 CPUs,
/// 8 threads, perfect detection), seeded with `seed`.
fn quick_platform(seed: u64) -> Platform {
    Platform {
        seed,
        ..Platform::small()
    }
}

/// The scenario of a campaign cell: `workload` at a tenth of its size on
/// `platform`, run by BFGTS `variant` under `plan` with full tracing.
/// The workload is recorded at its already-scaled transaction count and
/// the result is canonical, so its `id()` is the cell's cache key and
/// its JSON is what a repro file embeds.
fn scenario_for(
    workload: &AdversarialSpec,
    variant: BfgtsVariant,
    platform: Platform,
    plan: FaultPlan,
) -> Scenario {
    let mut scenario = Scenario::new(
        WorkloadSpec::from_adversarial(&workload.clone().scaled(CELL_SCALE)),
        ManagerSpec::Bfgts(BfgtsConfig::new(variant)),
        platform,
    );
    scenario.faults = Some(plan);
    scenario.trace = TraceMode::Full;
    scenario.canonical()
}

/// Derives campaign cell `seed`: workload, BFGTS flavour, detection
/// model and fault plan all come from the seed through independent
/// splitmix64 draws, so a seed range covers the (workload × flavour ×
/// plan) space without any cell depending on which others ran.
pub fn campaign_cell(seed: u64) -> CampaignCell {
    let mut g = Gen::new(seed ^ 0xF022_CA3B);
    let workload = g.choose(&AdversarialSpec::all()).clone();
    let variant = *g.choose(&VARIANTS);
    let mut platform = quick_platform(seed);
    // Half the cells run on capacity-limited signature hardware, so the
    // campaign hammers the bounded-detection path (false-positive and
    // capacity aborts, fallback latch, I10) under the same fault plans
    // as perfect detection. Small capacities are deliberate: quick-cell
    // transactions must actually overflow them.
    if g.bool() {
        platform = platform.bounded(64 * g.u32_in(1, 9), g.u32_in(1, 5), g.u32_in(4, 65));
    }
    CampaignCell {
        seed,
        scenario: scenario_for(&workload, variant, platform, FaultPlan::randomized(seed)),
        min_fraction_pct: MIN_FRACTION_PCT,
    }
}

/// Stable key of the scenario's BFGTS flavour, for display.
pub fn bfgts_key(scenario: &Scenario) -> &'static str {
    match &scenario.manager {
        ManagerSpec::Bfgts(tunables) => variant_key(tunables.variant),
        _ => "non-bfgts",
    }
}

/// The fault plan a scenario carries. Canonical scenarios drop empty
/// plans, which run clean.
pub fn fault_plan(scenario: &Scenario) -> FaultPlan {
    scenario
        .faults
        .clone()
        .unwrap_or_else(|| FaultPlan::new(scenario.platform.seed))
}

/// `scenario` with its fault plan replaced by `plan`, canonicalised.
fn with_plan(scenario: &Scenario, plan: FaultPlan) -> Scenario {
    let mut scenario = scenario.clone();
    scenario.faults = Some(plan);
    scenario.canonical()
}

/// Everything a cell execution produced, violations included. Derives
/// `PartialEq` so determinism tests can compare whole reports.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Makespan of the faulted BFGTS run, in cycles.
    pub bfgts_makespan: u64,
    /// Makespan of the Backoff run under the same plan, in cycles.
    pub backoff_makespan: u64,
    /// Commits of the BFGTS run.
    pub bfgts_commits: u64,
    /// Commits of the Backoff run.
    pub backoff_commits: u64,
    /// Fault events the BFGTS trace recorded (0 when its audit failed
    /// outright, since the summary is then unavailable).
    pub faults_seen: u64,
    /// Every violation the cell produced: audit invariant breaks from
    /// either run, then the degradation bound if it broke. Empty means
    /// the cell passed.
    pub violations: Vec<String>,
}

impl CellReport {
    /// Whether the cell passed every check.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs `scenario` fully traced through the one execution path.
///
/// # Panics
///
/// Panics if the scenario's workload does not resolve; campaign cells
/// always do, and [`replay`] checks a loaded repro first.
fn execute(scenario: &Scenario) -> TmRunReport {
    RunCell::from_scenario(scenario.clone())
        .expect("fuzz scenarios resolve")
        .execute_report(TraceMode::Full)
}

fn audited(
    report: &TmRunReport,
    violations: &mut Vec<String>,
) -> Option<bfgts_trace::AuditSummary> {
    match report.audit() {
        Ok(summary) => Some(summary),
        Err(list) => {
            for v in list {
                violations.push(format!("[{}] {v}", report.cm_name));
            }
            None
        }
    }
}

/// Runs one cell: `scenario` (a BFGTS run) and its Backoff twin — the
/// same scenario with manager `Kind { Backoff, bloom_bits: None }` —
/// both fully traced, audited, and checked against the degradation
/// bound `min_fraction_pct`.
///
/// Cost perturbation applies engine-wide, so both managers pay the same
/// jittered latencies; the manager-level faults (corruption, poisoning)
/// only exist inside BFGTS, which is exactly the asymmetry the
/// degradation bound is about: a scheduler whose learning inputs are
/// being sabotaged must still not lose to a scheduler that never learns
/// by more than the configured factor.
///
/// # Panics
///
/// Panics if the scenario's workload does not resolve.
pub fn run_cell(scenario: &Scenario, min_fraction_pct: u64) -> CellReport {
    let mut twin = scenario.clone();
    twin.manager = ManagerSpec::Kind {
        kind: ManagerKind::Backoff,
        bloom_bits: None,
    };
    let bfgts = execute(scenario);
    let backoff = execute(&twin);

    let mut violations = Vec::new();
    let bfgts_summary = audited(&bfgts, &mut violations);
    audited(&backoff, &mut violations);

    let bfgts_makespan = bfgts.sim.makespan.as_u64();
    let backoff_makespan = backoff.sim.makespan.as_u64();
    if bfgts_makespan * min_fraction_pct > backoff_makespan * 100 {
        violations.push(format!(
            "degradation bound broken: {} makespan {bfgts_makespan} exceeds \
             {min_fraction_pct}% floor of Backoff's {backoff_makespan} \
             (allowed at most {})",
            bfgts.cm_name,
            backoff_makespan * 100 / min_fraction_pct,
        ));
    }

    CellReport {
        bfgts_makespan,
        backoff_makespan,
        bfgts_commits: bfgts.stats.commits(),
        backoff_commits: backoff.stats.commits(),
        faults_seen: bfgts_summary.map_or(0, |s| s.faults),
        violations,
    }
}

/// The outcome of one campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// The cell that ran.
    pub cell: CampaignCell,
    /// Scores, audit counts and violations.
    pub report: CellReport,
}

/// Runs one campaign cell per seed, `jobs`-wide, on the runner's worker
/// pool. Each cell is an independent deterministic simulation and
/// results come back in seed order, so the returned vector is identical
/// for every `jobs` value — the same contract as `runner::run_grid`.
pub fn run_campaign(seeds: &[u64], jobs: usize) -> Vec<CampaignResult> {
    parallel_map(seeds.len(), jobs, |i| {
        let cell = campaign_cell(seeds[i]);
        let report = run_cell(&cell.scenario, cell.min_fraction_pct);
        CampaignResult { cell, report }
    })
}

/// Minimizes a violating cell's fault plan by re-running the cell as the
/// oracle: a candidate plan "still fails" iff the re-run produces any
/// violation. Returns `scenario` carrying the minimized plan.
pub fn minimize_failure(scenario: &Scenario, min_fraction_pct: u64) -> Scenario {
    let minimized = minimize(&fault_plan(scenario), |candidate| {
        !run_cell(&with_plan(scenario, candidate.clone()), min_fraction_pct).passed()
    });
    with_plan(scenario, minimized)
}

/// The JSONL event trace of the scenario's run — the byte string a repro
/// fingerprint commits to. The scenario itself is embedded in the trace
/// header, so the fingerprint also covers the run descriptor.
pub fn trace_jsonl(scenario: &Scenario) -> String {
    let cell = RunCell::from_scenario(scenario.clone()).expect("fuzz scenarios resolve");
    let report = cell.execute_report(TraceMode::Full);
    let inputs = report.audit_inputs();
    let mut out = Vec::new();
    trace_export::write_jsonl(&mut out, &report.sim.trace, &inputs, Some(&cell.scenario))
        .expect("writing to memory cannot fail");
    String::from_utf8(out).expect("JSON text is UTF-8")
}

/// FNV-1a fingerprint of [`trace_jsonl`]: equal fingerprints mean the
/// replay produced a byte-identical event trace.
pub fn fingerprint(scenario: &Scenario) -> u64 {
    fnv1a(&trace_jsonl(scenario), 0)
}

/// A self-contained, replayable record of a violating cell. Version 2
/// embeds the full [`Scenario`], so a repro names its run in exactly the
/// vocabulary `bfgts_run` executes and the trace header records — the
/// only fields outside the scenario are the campaign seed, the
/// degradation floor the cell was judged against, the fingerprint, and
/// the recorded violations.
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// Campaign seed the cell came from (or a label seed for controls).
    pub seed: u64,
    /// The complete run descriptor (platform, workload, BFGTS tunables,
    /// fault plan).
    pub scenario: Scenario,
    /// Degradation floor in percent.
    pub min_fraction_pct: u64,
    /// Fingerprint of the BFGTS trace under this scenario.
    pub fingerprint: u64,
    /// The violations the recorded run produced.
    pub violations: Vec<String>,
}

impl Repro {
    /// Serialises to the canonical repro JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("version", Json::UInt(REPRO_VERSION)),
            ("seed", Json::UInt(self.seed)),
            ("scenario", self.scenario.to_json()),
            ("min_fraction_pct", Json::UInt(self.min_fraction_pct)),
            ("fingerprint", Json::UInt(self.fingerprint)),
            (
                "violations",
                Json::Arr(
                    self.violations
                        .iter()
                        .map(|v| Json::Str(v.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a repro from its JSON document.
    pub fn from_json(value: &Json) -> Result<Repro, String> {
        value.read("repro", |f| {
            let version: u64 = f.req("version")?;
            if version != REPRO_VERSION {
                return Err(format!(
                    "repro version {version} unsupported (expected {REPRO_VERSION})"
                ));
            }
            Ok(Repro {
                seed: f.req("seed")?,
                scenario: Scenario::from_json(f.req("scenario")?)?,
                min_fraction_pct: f.req("min_fraction_pct")?,
                fingerprint: f.req("fingerprint")?,
                violations: f
                    .req::<Vec<&str>>("violations")?
                    .into_iter()
                    .map(str::to_string)
                    .collect(),
            })
        })
    }
}

/// Builds the repro record for a violating cell: the fingerprint commits
/// to the trace of exactly the (usually minimized) scenario being
/// recorded.
pub fn make_repro(
    seed: u64,
    scenario: Scenario,
    min_fraction_pct: u64,
    violations: Vec<String>,
) -> Repro {
    Repro {
        seed,
        fingerprint: fingerprint(&scenario),
        scenario,
        min_fraction_pct,
        violations,
    }
}

/// Writes `repro` as `<seed>.json` under `dir`, creating it if needed.
pub fn write_repro(dir: &Path, repro: &Repro) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", repro.seed));
    std::fs::write(&path, repro.to_json().to_string() + "\n")?;
    Ok(path)
}

/// Loads a repro file written by [`write_repro`].
pub fn load_repro(path: &Path) -> Result<Repro, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Repro::from_json(&Json::parse(&text)?)
}

/// Re-executes a repro and checks both halves of its contract: the run
/// must still violate, and its event trace must be byte-identical to the
/// recorded one (equal fingerprints). Returns the replayed report.
pub fn replay(repro: &Repro) -> Result<CellReport, String> {
    if !matches!(repro.scenario.manager, ManagerSpec::Bfgts(_)) {
        return Err(format!(
            "repro scenario must use a BFGTS manager, got '{}'",
            repro.scenario.manager.label()
        ));
    }
    repro.scenario.workload.resolve()?;
    let fp = fingerprint(&repro.scenario);
    if fp != repro.fingerprint {
        return Err(format!(
            "trace fingerprint mismatch: recorded {:016x}, replay {fp:016x}",
            repro.fingerprint
        ));
    }
    let report = run_cell(&repro.scenario, repro.min_fraction_pct);
    if report.passed() {
        return Err("replay no longer violates (fixed, or a stale repro)".into());
    }
    Ok(report)
}

/// The seeded negative control: a confidence-poisoned cell judged
/// against an impossible degradation floor (BFGTS must beat Backoff
/// 100×), guaranteed to violate. CI runs this to prove the campaign
/// harness actually catches failures — the fuzz-lane analogue of
/// detlint's seeded-violation step.
pub fn violating_control() -> CampaignCell {
    let seed = 0xC0_47_01;
    let plan = FaultPlan::new(0xC047).fault(Fault::ConfPoison {
        period: 1,
        saturate: true,
    });
    CampaignCell {
        seed,
        scenario: scenario_for(
            &AdversarialSpec::hotspot_skew(),
            BfgtsVariant::Hw,
            quick_platform(seed),
            plan,
        ),
        min_fraction_pct: 10_000,
    }
}

/// Minimizes a violating cell, re-scores the minimized scenario and
/// writes it as a repro under [`REPRO_DIR`]. Returns the number of
/// faults left and where the repro went.
fn write_minimized(cell: &CampaignCell) -> (usize, std::io::Result<PathBuf>) {
    let minimized = minimize_failure(&cell.scenario, cell.min_fraction_pct);
    let scored = run_cell(&minimized, cell.min_fraction_pct);
    let faults = fault_plan(&minimized).faults.len();
    let repro = make_repro(
        cell.seed,
        minimized,
        cell.min_fraction_pct,
        scored.violations,
    );
    (faults, write_repro(Path::new(REPRO_DIR), &repro))
}

/// Runs the campaign over the half-open seed range `seeds` on `jobs`
/// workers and prints one line per cell. Every violating cell is
/// minimized into a repro. Exits 0 only if every cell passed.
pub fn campaign(seeds: (u64, u64), jobs: usize) -> ExitCode {
    let seed_list: Vec<u64> = (seeds.0..seeds.1).collect();
    // The worker count is deliberately not echoed: stdout must be
    // byte-identical at any --jobs value.
    println!(
        "fuzz campaign: seeds {}..{} ({} cells)",
        seeds.0,
        seeds.1,
        seed_list.len()
    );
    let results = run_campaign(&seed_list, jobs);
    let mut failures = Vec::new();
    for result in &results {
        let status = if result.report.passed() {
            "pass"
        } else {
            "FAIL"
        };
        let scenario = &result.cell.scenario;
        println!(
            "  seed {:>4}  {:<20} {:<11} {} faults  bfgts {:>9}c  backoff {:>9}c  {status}",
            result.cell.seed,
            scenario.workload.name(),
            bfgts_key(scenario),
            fault_plan(scenario).faults.len(),
            result.report.bfgts_makespan,
            result.report.backoff_makespan,
        );
        if !result.report.passed() {
            failures.push(result);
        }
    }
    if failures.is_empty() {
        println!(
            "campaign clean: {} cells passed the audit and the degradation bound",
            results.len()
        );
        return ExitCode::SUCCESS;
    }
    for result in &failures {
        let seed = result.cell.seed;
        for v in &result.report.violations {
            println!("seed {seed}: {v}");
        }
        match write_minimized(&result.cell) {
            (faults, Ok(path)) => println!(
                "seed {seed}: minimized {} -> {faults} fault(s); repro written to {}",
                fault_plan(&result.cell.scenario).faults.len(),
                path.display()
            ),
            (_, Err(err)) => eprintln!("warning: could not write repro for seed {seed}: {err}"),
        }
    }
    println!(
        "campaign FAILED: {} of {} cells violated",
        failures.len(),
        results.len()
    );
    ExitCode::FAILURE
}

/// Runs the [`violating_control`] cell, which the harness must catch:
/// prints its findings, leaves a minimized repro and exits 1. A missed
/// control exits 0, so CI, which inverts the status, goes red.
pub fn control() -> ExitCode {
    let control = violating_control();
    let report = run_cell(&control.scenario, control.min_fraction_pct);
    if report.passed() {
        println!("seeded violation was NOT caught — the harness is broken");
        return ExitCode::SUCCESS;
    }
    println!(
        "seeded violation caught ({} finding(s)):",
        report.violations.len()
    );
    for v in &report.violations {
        println!("  {v}");
    }
    match write_minimized(&control) {
        (faults, Ok(path)) => println!(
            "minimized to {faults} fault(s); repro written to {}",
            path.display()
        ),
        (_, Err(err)) => eprintln!("warning: could not write repro: {err}"),
    }
    ExitCode::FAILURE
}

/// Re-executes the repro at `path` through [`replay`]. Exits 0 only if
/// it still violates with a byte-identical trace.
pub fn confirm(path: &Path) -> ExitCode {
    let repro = match load_repro(path) {
        Ok(repro) => repro,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    match replay(&repro) {
        Ok(report) => {
            println!(
                "repro {} confirmed: {} on {} still violates with a \
                 byte-identical trace (fingerprint {:016x})",
                path.display(),
                bfgts_key(&repro.scenario),
                repro.scenario.workload.name(),
                repro.fingerprint,
            );
            for v in &report.violations {
                println!("  {v}");
            }
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("repro {} did NOT reproduce: {msg}", path.display());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64, workload: AdversarialSpec, plan: FaultPlan) -> Scenario {
        scenario_for(&workload, BfgtsVariant::Hw, quick_platform(seed), plan)
    }

    #[test]
    fn clean_cell_passes_and_sees_no_faults() {
        let scenario = quick(0xCE11, AdversarialSpec::hotspot_skew(), FaultPlan::new(1));
        let report = run_cell(&scenario, MIN_FRACTION_PCT);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.faults_seen, 0);
        assert_eq!(report.bfgts_commits, report.backoff_commits);
        assert!(report.bfgts_makespan > 0);
    }

    #[test]
    fn faulted_cell_still_audits_clean_and_degrades_gracefully() {
        let plan = FaultPlan::new(5)
            .fault(Fault::CostPerturb { max_percent: 25 })
            .fault(Fault::BloomCorrupt {
                rate_pct: 80,
                bits: 64,
            })
            .fault(Fault::ConfPoison {
                period: 30,
                saturate: true,
            });
        let scenario = quick(0xCE12, AdversarialSpec::contention_storm(), plan);
        let report = run_cell(&scenario, MIN_FRACTION_PCT);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report.faults_seen > 0, "faults must actually fire");
    }

    #[test]
    fn bounded_detection_cell_audits_clean_and_replays() {
        let plan = FaultPlan::new(7).fault(Fault::BloomCorrupt {
            rate_pct: 60,
            bits: 16,
        });
        let scenario = scenario_for(
            &AdversarialSpec::hotspot_skew(),
            BfgtsVariant::Hw,
            quick_platform(0xCE15).bounded(64, 1, 16),
            plan,
        );
        let a = run_cell(&scenario, MIN_FRACTION_PCT);
        assert!(a.passed(), "violations: {:?}", a.violations);
        assert!(
            a.faults_seen > 0,
            "detection-signature corruption must be traced"
        );
        assert_eq!(a, run_cell(&scenario, MIN_FRACTION_PCT), "replay");
    }

    #[test]
    fn cells_replay_byte_identically() {
        let scenario = quick(
            0xCE13,
            AdversarialSpec::phase_shift(),
            FaultPlan::randomized(3),
        );
        let a = run_cell(&scenario, MIN_FRACTION_PCT);
        let b = run_cell(&scenario, MIN_FRACTION_PCT);
        assert_eq!(a, b);
    }

    #[test]
    fn impossible_bound_is_reported_as_a_violation() {
        // A floor above 100% demands BFGTS beat Backoff outright on a
        // workload engineered against it — the seeded negative control.
        let plan = FaultPlan::new(6).fault(Fault::ConfPoison {
            period: 1,
            saturate: true,
        });
        let scenario = quick(0xCE14, AdversarialSpec::hotspot_skew(), plan);
        let report = run_cell(&scenario, 10_000);
        assert!(!report.passed());
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("degradation bound")),
            "violations: {:?}",
            report.violations
        );
    }

    #[test]
    fn campaign_is_identical_across_job_counts() {
        let seeds: Vec<u64> = (0..6).collect();
        let serial = run_campaign(&seeds, 1);
        let parallel = run_campaign(&seeds, 4);
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 6);
        for (seed, result) in seeds.iter().zip(&serial) {
            assert_eq!(*seed, result.cell.seed);
        }
    }

    #[test]
    fn trace_fingerprint_is_stable_and_plan_sensitive() {
        let cell = campaign_cell(2);
        let a = trace_jsonl(&cell.scenario);
        let b = trace_jsonl(&cell.scenario);
        assert_eq!(a, b, "same scenario, byte-identical trace");
        let clean = with_plan(&cell.scenario, FaultPlan::new(0));
        assert_ne!(
            fnv1a(&a, 0),
            fingerprint(&clean),
            "a non-empty plan must leave a mark on the trace"
        );
    }

    #[test]
    fn repro_json_round_trips() {
        let control = violating_control();
        let plan = fault_plan(&control.scenario)
            .fault(Fault::CostPerturb { max_percent: 9 })
            .fault(Fault::BloomCorrupt {
                rate_pct: 33,
                bits: 16,
            });
        let repro = Repro {
            seed: 42,
            scenario: with_plan(&control.scenario, plan.clone()),
            min_fraction_pct: control.min_fraction_pct,
            fingerprint: 0xDEAD_BEEF,
            violations: vec!["degradation bound broken: …".to_string()],
        };
        let text = repro.to_json().to_string();
        let parsed = Repro::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, repro);
        assert_eq!(fault_plan(&parsed.scenario), plan);
        assert_eq!(bfgts_key(&parsed.scenario), "hw");
        assert!(Repro::from_json(&Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn seeded_control_violates_minimizes_and_replays() {
        let control = violating_control();
        let floor = control.min_fraction_pct;
        let report = run_cell(&control.scenario, floor);
        assert!(!report.passed(), "the control must violate");
        // The bound is impossible even without faults, so minimization
        // strips the plan down to nothing — the true root cause.
        let minimized = minimize_failure(&control.scenario, floor);
        assert_eq!(minimized.faults, None);
        assert_eq!(minimized, minimize_failure(&control.scenario, floor));
        let scored = run_cell(&minimized, floor);
        let repro = make_repro(7, minimized, floor, scored.violations);
        let replayed = replay(&repro).expect("the repro must reproduce");
        assert!(!replayed.passed());
    }

    #[test]
    fn repro_rebuilds_the_campaign_cell() {
        let cell = campaign_cell(9);
        let repro = make_repro(9, cell.scenario.clone(), cell.min_fraction_pct, vec![]);
        let parsed = Repro::from_json(&Json::parse(&repro.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(parsed.scenario, cell.scenario);
        assert_eq!(parsed.min_fraction_pct, cell.min_fraction_pct);
        assert_eq!(fingerprint(&parsed.scenario), repro.fingerprint);
        // The scenario stores the already-scaled transaction count, so
        // the replay runs the same workload at scale 1.
        let full = AdversarialSpec::all()
            .into_iter()
            .find(|spec| spec.name == cell.scenario.workload.name())
            .unwrap();
        assert_eq!(
            parsed.scenario.workload.total_txs(),
            full.scaled(CELL_SCALE).total_txs
        );
    }

    #[test]
    fn repro_files_round_trip_on_disk() {
        let control = violating_control();
        let repro = make_repro(
            11,
            control.scenario,
            control.min_fraction_pct,
            vec!["x".into()],
        );
        let dir = std::env::temp_dir().join(format!("bfgts-fuzz-{}", std::process::id()));
        let path = write_repro(&dir, &repro).unwrap();
        assert!(path.ends_with("11.json"));
        let loaded = load_repro(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(loaded, repro);
    }

    #[test]
    fn stale_fingerprints_and_unknown_names_are_rejected() {
        let control = violating_control();
        let floor = control.min_fraction_pct;
        let scored = run_cell(&control.scenario, floor);
        let mut repro = make_repro(3, control.scenario, floor, scored.violations);
        repro.fingerprint ^= 1;
        let err = replay(&repro).unwrap_err();
        assert!(err.contains("fingerprint mismatch"), "{err}");
        let mut serial = repro.clone();
        serial.scenario.manager = ManagerSpec::Serial;
        let err = replay(&serial).unwrap_err();
        assert!(err.contains("BFGTS manager"), "{err}");
        // A repro file with a field no read asks for is rejected by name.
        let mut doc = repro.to_json();
        if let Json::Obj(map) = &mut doc {
            map.insert("minimized".into(), Json::Bool(true));
        }
        let err = Repro::from_json(&doc).unwrap_err();
        assert!(err.contains("'minimized'"), "{err}");
        repro.scenario.workload = WorkloadSpec::Adversarial {
            name: "adv-unknown".to_string(),
            total_txs: 100,
        };
        assert!(replay(&repro).is_err());
    }
}
