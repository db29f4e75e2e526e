//! The seed → scenario generator. Every workload is a fixed set of
//! scenario *shapes*; the harness seed picks only the platform seed of
//! each scenario and, for `serve_mix`, the request order. Another seed
//! therefore gives different scenario ids over the same shapes.

use bfgts_faultsim::{Fault, FaultPlan};
use bfgts_scenario::{ManagerKind, ManagerSpec, Platform, Scenario, WorkloadSpec};
use bfgts_workloads::{presets, AdversarialSpec, ArrivalProcess, ArrivalSpec};

/// Total transactions of each `scale_1024` cell.
pub const SCALE_TXNS: u64 = 40_000;

/// CPUs of the `scale_1024` platform (4 threads per CPU, one detection
/// shard per 16 CPUs, as in `bench_scale`).
pub const SCALE_CPUS: usize = 1024;

/// Request groups in one `serve_mix` pass; each group holds one request
/// of every shape in [`serve_shapes`].
pub const SERVE_GROUPS: u64 = 15;

/// SplitMix64: a well-mixed 64-bit function of `seed` and `salt`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn roster(kind: ManagerKind) -> ManagerSpec {
    ManagerSpec::Kind {
        kind,
        bloom_bits: None,
    }
}

fn with_seed(mut platform: Platform, seed: u64) -> Platform {
    platform.seed = seed;
    platform
}

/// Workload scale of `paper_grid`: the experiment binaries' `--quick`
/// scale. Host speed drifts over minutes, so the spread across a set of
/// runs grows with run length; the full-scale grid (4x the work) would
/// make every run at least two 12-s passes.
pub const PAPER_SCALE: f64 = 0.25;

/// `paper_grid`: the Figure 4 grid — every STAMP preset × (serial + the
/// seven roster managers) on the paper platform, at [`PAPER_SCALE`].
/// The serial baseline and the managers of one preset share its seed.
pub fn paper_grid(seed: u64) -> Vec<Scenario> {
    let mut out = Vec::new();
    for (p, spec) in presets::all().into_iter().enumerate() {
        let platform = with_seed(Platform::paper(), mix(seed, p as u64));
        let workload = WorkloadSpec::from_benchmark(&spec.scaled(PAPER_SCALE));
        out.push(Scenario::new(workload.clone(), ManagerSpec::Serial, platform).canonical());
        for kind in ManagerKind::ALL {
            out.push(Scenario::new(workload.clone(), roster(kind), platform).canonical());
        }
    }
    out
}

/// `scale_1024`: Kmeans at 1024 CPUs / 4096 threads / 64 shards under
/// BFGTS-HW and under Backoff, on one shared seed.
pub fn scale_1024(seed: u64) -> Vec<Scenario> {
    let platform = Platform {
        cpus: SCALE_CPUS,
        threads: SCALE_CPUS * 4,
        ..with_seed(Platform::paper(), mix(seed, 0x5CA1E))
    }
    .sharded((SCALE_CPUS / 16) as u32);
    let workload = WorkloadSpec::Preset {
        name: "Kmeans".into(),
        total_txs: SCALE_TXNS,
    };
    [ManagerKind::BfgtsHw, ManagerKind::Backoff]
        .into_iter()
        .map(|kind| Scenario::new(workload.clone(), roster(kind), platform).canonical())
        .collect()
}

/// The serial twin of `s`: the same input on one CPU, the reference
/// every BFGTS-HW speedup divides by.
pub fn serial_twin(s: &Scenario) -> Scenario {
    let mut twin = s.clone();
    twin.manager = ManagerSpec::Serial;
    twin.canonical()
}

fn kmeans(total_txs: u64) -> WorkloadSpec {
    WorkloadSpec::Preset {
        name: "Kmeans".into(),
        total_txs,
    }
}

fn hotspot(total_txs: u64) -> WorkloadSpec {
    WorkloadSpec::from_adversarial(&AdversarialSpec {
        total_txs,
        ..AdversarialSpec::hotspot_skew()
    })
}

fn bursty_diurnal() -> ArrivalSpec {
    ArrivalSpec::poisson(1500)
        .with_override(
            1,
            ArrivalProcess::Bursty {
                burst: 4,
                gap_in: 50,
                gap_out: 4000,
            },
        )
        .with_override(
            2,
            ArrivalProcess::Diurnal {
                period: 100_000,
                peak_gap: 500,
                trough_gap: 5000,
            },
        )
}

/// The eight `serve_mix` request shapes, as `(shape, platform seed)` →
/// scenario.
pub fn serve_shape(shape: u64, platform_seed: u64) -> Scenario {
    let small = with_seed(Platform::small(), platform_seed);
    let bounded = small.bounded(64, 1, 24);
    let mut s = match shape {
        0 | 1 => {
            let kind = if shape == 0 {
                ManagerKind::BfgtsHw
            } else {
                ManagerKind::Backoff
            };
            let mut s = Scenario::new(kmeans(720), roster(kind), small);
            s.arrivals = Some(ArrivalSpec::poisson(1200));
            s
        }
        2 => {
            let mut s = Scenario::new(kmeans(720), roster(ManagerKind::Backoff), small);
            s.arrivals = Some(bursty_diurnal());
            s
        }
        3 | 4 => {
            let kind = if shape == 3 {
                ManagerKind::BfgtsHw
            } else {
                ManagerKind::Backoff
            };
            Scenario::new(kmeans(1200), roster(kind), bounded)
        }
        5 => {
            let mut s = Scenario::new(hotspot(1800), roster(ManagerKind::BfgtsHw), bounded);
            s.faults = Some(FaultPlan::new(platform_seed).fault(Fault::BloomCorrupt {
                rate_pct: 60,
                bits: 16,
            }));
            s
        }
        6 => {
            let manager = ManagerSpec::WindowGreedy {
                window_size: None,
                base_delay: None,
            };
            let mut s = Scenario::new(kmeans(720), manager, small);
            s.arrivals = Some(bursty_diurnal());
            s
        }
        _ => Scenario::new(
            hotspot(1800),
            ManagerSpec::BalancedGreedy { window_size: None },
            small,
        ),
    };
    s = s.canonical();
    s
}

/// Number of distinct request shapes.
pub const SERVE_SHAPES: u64 = 8;

/// `serve_mix`: [`SERVE_GROUPS`] × every shape, in a seed-shuffled order.
pub fn serve_mix(seed: u64) -> Vec<Scenario> {
    let mut out = Vec::new();
    for group in 0..SERVE_GROUPS {
        for shape in 0..SERVE_SHAPES {
            out.push(serve_shape(shape, mix(seed, group * SERVE_SHAPES + shape)));
        }
    }
    // Fisher-Yates with a seed-derived stream.
    let mut state = mix(seed, 0x0DE7);
    for i in (1..out.len()).rev() {
        state = mix(state, i as u64);
        let j = (state % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

/// Serialises `scenarios` as a scenario file (the `--emit` format).
pub fn to_text(scenarios: &[Scenario]) -> String {
    bfgts_scenario::scenarios_to_json(scenarios).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(scenarios: &[Scenario]) -> Vec<String> {
        scenarios.iter().map(Scenario::id).collect()
    }

    /// A scenario's shape: everything but the platform seed.
    fn shape(s: &Scenario) -> String {
        let mut s = s.clone();
        s.platform.seed = 0;
        if let Some(plan) = &mut s.faults {
            plan.seed = 0;
        }
        s.to_json().to_string()
    }

    fn sorted_shapes(scenarios: &[Scenario]) -> Vec<String> {
        let mut v: Vec<String> = scenarios.iter().map(shape).collect();
        v.sort();
        v
    }

    #[test]
    fn same_seed_same_ids_other_seed_other_ids_same_shapes() {
        for generate in [paper_grid, scale_1024, serve_mix] {
            let a = generate(7);
            assert_eq!(ids(&a), ids(&generate(7)), "same seed, same ids");
            let b = generate(8);
            assert_eq!(a.len(), b.len());
            let (ia, ib) = (ids(&a), ids(&b));
            let shared = ia.iter().filter(|id| ib.contains(id)).count();
            assert_eq!(shared, 0, "another seed must change every id");
            assert_eq!(sorted_shapes(&a), sorted_shapes(&b), "same shapes");
        }
    }

    #[test]
    fn workloads_have_their_documented_sizes() {
        assert_eq!(paper_grid(1).len(), 56);
        let scale = scale_1024(1);
        assert_eq!(scale.len(), 2);
        assert!(
            scale
                .iter()
                .all(|s| s.platform.threads == 4096 && s.platform.shards == 64),
            "BFGTS-HW and Backoff run at full width"
        );
        let mix = serve_mix(1);
        assert_eq!(mix.len() as u64, SERVE_GROUPS * SERVE_SHAPES);
        assert!(mix.len() >= 100, "p90 needs ten samples beyond it");
    }

    #[test]
    fn request_order_depends_on_the_seed() {
        let order = |seed| -> Vec<String> { serve_mix(seed).iter().map(shape).collect() };
        assert_ne!(order(1), order(2));
    }

    #[test]
    fn serial_twins_of_the_grid_are_its_serial_cells() {
        let grid = paper_grid(5);
        for s in grid
            .iter()
            .filter(|s| !matches!(s.manager, ManagerSpec::Serial))
        {
            let twin = serial_twin(s).id();
            assert!(grid.iter().any(|g| g.id() == twin), "{}", s.manager.label());
        }
    }

    #[test]
    fn generated_text_parses_back_to_the_same_ids() {
        let grid = paper_grid(3);
        let parsed = bfgts_scenario::scenarios_from_str(&to_text(&grid)).expect("parses");
        assert_eq!(ids(&parsed), ids(&grid));
    }
}
