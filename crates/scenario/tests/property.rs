//! Property tests: randomly generated scenarios round-trip through
//! canonical JSON to a byte fixed point, canonicalisation is idempotent,
//! and the content hash is invariant under the round trip.

use bfgts_faultsim::FaultPlan;
use bfgts_scenario::{
    json::Json, BfgtsTunables, CostKind, ManagerKind, ManagerSpec, Platform, Scenario, WorkloadSpec,
};
use bfgts_sim::TraceMode;
use bfgts_testkit::{run_cases, Gen};
use bfgts_workloads::{presets, AdversarialSpec, ArrivalProcess, ArrivalSpec};

fn random_platform(g: &mut Gen) -> Platform {
    let mut platform = *g.choose(&[Platform::paper(), Platform::small()]);
    platform.seed = g.u64();
    if g.bool() {
        platform = platform.sharded(g.u32_in(1, 16));
    }
    if g.bool() {
        platform = platform.bounded(64 * g.u32_in(1, 64), g.u32_in(1, 16), g.u32_in(1, 256));
    }
    platform
}

fn random_workload(g: &mut Gen) -> WorkloadSpec {
    if g.bool() {
        let mut spec = g.choose(&presets::all()).clone();
        spec = spec.scaled(f64::from(g.u32_in(1, 40)) / 20.0);
        WorkloadSpec::from_benchmark(&spec)
    } else {
        let mut spec = g.choose(&AdversarialSpec::all()).clone();
        spec = spec.scaled(f64::from(g.u32_in(1, 40)) / 20.0);
        WorkloadSpec::from_adversarial(&spec)
    }
}

fn random_manager(g: &mut Gen) -> ManagerSpec {
    match g.below(5) {
        0 => ManagerSpec::Serial,
        1 => ManagerSpec::Kind {
            kind: *g.choose(&ManagerKind::ALL),
            bloom_bits: g.bool().then(|| 1 << g.u32_in(6, 13)),
        },
        2 => {
            let variant = *g.choose(&[
                bfgts_core::BfgtsVariant::Sw,
                bfgts_core::BfgtsVariant::Hw,
                bfgts_core::BfgtsVariant::HwBackoff,
                bfgts_core::BfgtsVariant::NoOverhead,
            ]);
            let mut tunables = BfgtsTunables::new(variant);
            if g.bool() {
                tunables = tunables.bloom_bits(1 << g.u32_in(6, 13));
            }
            if g.bool() {
                tunables = tunables.small_tx_interval(g.u32_in(1, 50));
            }
            if g.bool() {
                tunables = tunables.with_alias_slots(g.u32_in(1, 8));
            }
            if g.bool() {
                tunables = tunables.without_similarity_weighting();
            }
            ManagerSpec::Bfgts(tunables)
        }
        3 => {
            if g.bool() {
                ManagerSpec::Polka
            } else {
                ManagerSpec::Stall
            }
        }
        _ => {
            if g.bool() {
                ManagerSpec::WindowGreedy {
                    window_size: g.bool().then(|| g.u32_in(1, 16)),
                    base_delay: g.bool().then(|| g.u32_in(50, 2000)),
                }
            } else {
                ManagerSpec::BalancedGreedy {
                    window_size: g.bool().then(|| g.u32_in(1, 16)),
                }
            }
        }
    }
}

fn random_process(g: &mut Gen) -> ArrivalProcess {
    match g.below(3) {
        0 => ArrivalProcess::Poisson {
            mean_gap: u64::from(g.u32_in(1, 100_000)),
        },
        1 => ArrivalProcess::Bursty {
            burst: g.u32_in(1, 64),
            gap_in: u64::from(g.u32_in(0, 1_000)),
            gap_out: u64::from(g.u32_in(1, 100_000)),
        },
        _ => {
            let peak_gap = u64::from(g.u32_in(1, 10_000));
            ArrivalProcess::Diurnal {
                period: u64::from(g.u32_in(1, 1_000_000)),
                peak_gap,
                trough_gap: peak_gap + u64::from(g.u32_in(0, 100_000)),
            }
        }
    }
}

fn random_arrivals(g: &mut Gen) -> ArrivalSpec {
    let mut spec = ArrivalSpec {
        process: random_process(g),
        per_stx: Vec::new(),
    };
    for _ in 0..g.below(4) {
        let stx = g.u32_in(0, 8);
        spec = spec.with_override(stx, random_process(g));
    }
    spec
}

fn random_scenario(g: &mut Gen) -> Scenario {
    let mut scenario = Scenario::new(random_workload(g), random_manager(g), random_platform(g));
    scenario.costs = *g.choose(&[CostKind::Htm, CostKind::Stm]);
    if g.bool() {
        scenario.faults = Some(FaultPlan::randomized(g.u64()));
    }
    if g.bool() {
        scenario.arrivals = Some(random_arrivals(g));
    }
    scenario.trace = match g.below(3) {
        0 => TraceMode::Off,
        1 => TraceMode::Full,
        _ => TraceMode::Ring(g.usize_in(16, 1 << 16)),
    };
    scenario
}

#[test]
fn random_scenarios_round_trip_to_a_byte_fixed_point() {
    run_cases("scenario-round-trip", 300, |g| {
        let scenario = random_scenario(g);
        let canon = scenario.clone().canonical();
        assert_eq!(
            canon.clone().canonical(),
            canon,
            "canonicalisation must be idempotent"
        );
        assert_eq!(
            scenario.id(),
            canon.id(),
            "the id must not depend on pre-canonical aliasing"
        );
        let text = canon.to_json().to_string();
        let parsed = Scenario::from_json(&Json::parse(&text).expect("canonical JSON parses"))
            .expect("canonical JSON is a valid scenario");
        assert_eq!(parsed, canon, "parse(print(s)) == s");
        assert_eq!(
            parsed.to_json().to_string(),
            text,
            "print(parse(text)) == text"
        );
        assert_eq!(parsed.id(), canon.id());
    });
}

#[test]
fn random_scenarios_resolve_and_build() {
    run_cases("scenario-resolve", 100, |g| {
        let scenario = random_scenario(g).canonical();
        let resolved = scenario
            .workload
            .resolve()
            .expect("generated workloads name real generators");
        assert_eq!(resolved.name(), scenario.workload.name());
        let cm = scenario
            .manager
            .build(resolved.name(), None)
            .expect("every manager builds from data");
        assert!(!cm.name().is_empty());
    });
}
