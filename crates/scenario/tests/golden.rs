//! Golden scenario fixtures: the canonical JSON and the content hash of
//! a representative scenario set are pinned byte-for-byte.
//!
//! These goldens are the compatibility contract of the scenario layer:
//! cache entries, fuzz repros and trace headers all key on
//! [`Scenario::id`], so any change that shifts a fixture's canonical
//! JSON or id silently invalidates every persisted artifact. Such a
//! change must be deliberate — bump [`bfgts_scenario::SCENARIO_VERSION`]
//! and re-bless the fixtures by running with `BLESS_SCENARIOS=1`.

use bfgts_core::BfgtsConfig;
use bfgts_faultsim::{Fault, FaultPlan};
use bfgts_scenario::{CostKind, ManagerKind, ManagerSpec, Platform, Scenario, WorkloadSpec};
use bfgts_sim::TraceMode;
use bfgts_workloads::{presets, AdversarialSpec};

fn fixture_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

/// The pinned fixture set: stable name, scenario value, expected id.
fn fixtures() -> Vec<(&'static str, Scenario, &'static str)> {
    let serial = Scenario::new(
        WorkloadSpec::from_benchmark(&presets::delaunay()),
        ManagerSpec::Serial,
        Platform::paper(),
    );

    let mut tuned = Scenario::new(
        WorkloadSpec::from_benchmark(&presets::vacation()),
        ManagerSpec::Bfgts(BfgtsConfig::hw().bloom_bits(1024).small_tx_interval(10)),
        Platform::small(),
    );
    tuned.faults = Some(FaultPlan::new(7).fault(Fault::BloomCorrupt {
        rate_pct: 25,
        bits: 8,
    }));
    tuned.trace = TraceMode::Ring(4096);

    let mut stm = Scenario::new(
        WorkloadSpec::from_adversarial(&AdversarialSpec::hotspot_skew()),
        ManagerSpec::Kind {
            kind: ManagerKind::Ats,
            bloom_bits: None,
        },
        Platform::paper(),
    );
    stm.costs = CostKind::Stm;

    let windowed = Scenario::new(
        WorkloadSpec::from_benchmark(&presets::kmeans()),
        ManagerSpec::WindowGreedy {
            window_size: Some(8),
            base_delay: None,
        },
        Platform::paper(),
    );

    let mut balanced = Scenario::new(
        WorkloadSpec::from_adversarial(&AdversarialSpec::hotspot_skew()),
        ManagerSpec::BalancedGreedy { window_size: None },
        Platform::small(),
    );
    balanced.trace = TraceMode::Full;

    vec![
        (
            "serial_delaunay_paper",
            serial,
            "5be73d812d28941e7d39b45d0f02c819",
        ),
        (
            "bfgts_hw_tuned_faulted_vacation",
            tuned,
            "aa9bd642f44321ac37702af902867d7f",
        ),
        (
            "ats_stm_hotspot_skew",
            stm,
            "3f3fb01342cd9b334b7b2fa0c8213016",
        ),
        (
            "window_greedy_w8_kmeans_paper",
            windowed,
            "7969f6de5fe57953c9c0955a8c073f0a",
        ),
        (
            "balanced_greedy_traced_hotspot_small",
            balanced,
            "515ee388a9272a72e000c694ddddb88f",
        ),
    ]
}

fn canonical_text(scenario: &Scenario) -> String {
    scenario.clone().canonical().to_json().to_string() + "\n"
}

#[test]
fn golden_fixtures_are_byte_stable() {
    let dir = fixture_dir();
    // detlint: allow(D005) -- test-only bless switch; never read by a simulation
    let bless = std::env::var_os("BLESS_SCENARIOS").is_some();
    if bless {
        std::fs::create_dir_all(&dir).unwrap();
    }
    for (name, scenario, golden_id) in fixtures() {
        let path = dir.join(format!("{name}.scenario.json"));
        let text = canonical_text(&scenario);
        if bless {
            std::fs::write(&path, &text).unwrap();
            println!("blessed {name}: id {}", scenario.id());
            continue;
        }
        let fixture = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
        assert_eq!(
            fixture, text,
            "{name}: canonical JSON drifted from the checked-in fixture \
             (intentional? bump SCENARIO_VERSION and re-bless with BLESS_SCENARIOS=1)"
        );
        assert_eq!(
            scenario.id(),
            golden_id,
            "{name}: content hash drifted — every cache entry, repro and \
             trace header keyed on it is invalidated"
        );
    }
}

#[test]
fn golden_fixtures_parse_back_to_the_same_scenario() {
    for (name, scenario, _) in fixtures() {
        let path = fixture_dir().join(format!("{name}.scenario.json"));
        let Ok(text) = std::fs::read_to_string(&path) else {
            // The byte-stability test reports missing fixtures.
            continue;
        };
        let parsed = Scenario::from_json(&bfgts_scenario::json::Json::parse(&text).unwrap())
            .unwrap_or_else(|e| panic!("{name}: fixture does not parse: {e}"));
        assert_eq!(parsed, scenario.clone().canonical(), "{name}");
        assert_eq!(parsed.id(), scenario.id(), "{name}");
    }
}

#[test]
fn default_shards_are_schema_invisible() {
    // The `shards` platform field (DESIGN.md §11) evolved the schema.
    // The default — one monolithic shard — must serialise away entirely,
    // so every pre-sharding artifact keyed on a scenario id stays valid.
    for (name, scenario, golden_id) in fixtures() {
        assert_eq!(scenario.platform.shards, 1, "{name}");
        assert!(
            !canonical_text(&scenario).contains("shards"),
            "{name}: default shard count must not appear in canonical JSON"
        );
        assert_eq!(scenario.id(), golden_id, "{name}");
        // A shard-free document parses back to the default.
        let parsed = Scenario::from_json(
            &bfgts_scenario::json::Json::parse(&canonical_text(&scenario)).unwrap(),
        )
        .unwrap();
        assert_eq!(parsed.platform.shards, 1, "{name}");
        // An explicitly sharded platform is a different run with a
        // different id — except under Serial, where sharding is inert
        // and canonicalisation normalises it away.
        let mut sharded = scenario.clone();
        sharded.platform = sharded.platform.sharded(8);
        if matches!(scenario.manager, ManagerSpec::Serial) {
            assert_eq!(sharded.id(), golden_id, "{name}");
        } else {
            assert_ne!(sharded.id(), golden_id, "{name}");
            assert!(
                canonical_text(&sharded).contains("\"shards\":8"),
                "{name}: explicit shard count must serialise"
            );
        }
    }
}

#[test]
fn default_window_tunables_are_schema_invisible() {
    // The window-greedy tunables (DESIGN.md §14) evolved the manager
    // schema. Like `shards`, default (`None`) tunables must serialise
    // away entirely, so the window-era parser prints pre-window-era
    // documents byte-identically and every historical scenario id —
    // including the three pinned above — survives the extension.
    let defaults = Scenario::new(
        WorkloadSpec::from_benchmark(&presets::kmeans()),
        ManagerSpec::WindowGreedy {
            window_size: None,
            base_delay: None,
        },
        Platform::paper(),
    );
    let text = canonical_text(&defaults);
    assert!(
        !text.contains("window_size") && !text.contains("base_delay"),
        "default window tunables must not appear in canonical JSON"
    );
    assert!(text.contains("\"kind\":\"window_greedy\""));
    // A tunable-free document parses back to the defaults.
    let parsed = Scenario::from_json(&bfgts_scenario::json::Json::parse(&text).unwrap()).unwrap();
    assert_eq!(
        parsed.manager,
        ManagerSpec::WindowGreedy {
            window_size: None,
            base_delay: None,
        }
    );
    // Pinning a tunable is a different run with a different id.
    let mut pinned = defaults.clone();
    pinned.manager = ManagerSpec::WindowGreedy {
        window_size: Some(8),
        base_delay: None,
    };
    assert_ne!(pinned.id(), defaults.id());
    assert!(canonical_text(&pinned).contains("\"window_size\":8"));
    // Same protocol for the balanced variant.
    let mut balanced = defaults.clone();
    balanced.manager = ManagerSpec::BalancedGreedy { window_size: None };
    let text = canonical_text(&balanced);
    assert!(
        !text.contains("window_size"),
        "default balanced tunables must not appear in canonical JSON"
    );
    assert!(text.contains("\"kind\":\"balanced_greedy\""));
}

#[test]
fn golden_ids_are_pairwise_distinct() {
    let ids: Vec<String> = fixtures().iter().map(|(_, s, _)| s.id()).collect();
    for (i, a) in ids.iter().enumerate() {
        for b in &ids[i + 1..] {
            assert_ne!(a, b);
        }
    }
}
