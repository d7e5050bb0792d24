//! Golden digests of every built-in scenario's deterministic report.
//!
//! Each registry entry runs at one small fixed config and the FNV-1a 64
//! digest of its `deterministic_json()` is pinned here.  Any change to a
//! built-in's plan, cell outcomes or report rendering changes a digest, so
//! report drift cannot hide behind a refactor of how a scenario is defined.
//! A deliberate report change updates the table in the same commit.

use ld_runner::{scenarios, stream, SweepConfig};

/// The node budget CI pins for its golden radius-3 report.
const R3_BUDGET: Option<u64> = Some(2_000_000);

/// `(scenario, max_n, node_budget, digest of the deterministic report)`.
const GOLDEN: [(&str, usize, Option<u64>, u64); 8] = [
    ("section2-sweep", 24, None, 0x3ef7_4cef_4a3b_b715),
    ("section2-sweep-r3", 48, R3_BUDGET, 0x1424_b393_5707_c0df),
    ("section2-sweep-xl", 48, None, 0x38a6_7c08_047f_777b),
    ("section3-sweep", 24, None, 0x9da9_e069_ba7b_788d),
    ("pyramid-sweep", 24, None, 0x38e7_9e2d_630b_7fc2),
    ("randomized-sweep", 24, None, 0xf160_b709_8cfd_e694),
    ("randomized-sweep-xl", 24, None, 0x82b1_3549_9bbc_333b),
    ("relationship-table", 24, None, 0xed2d_2610_c50d_e680),
];

#[test]
fn every_builtin_report_matches_its_golden_digest() {
    let registry = scenarios::all();
    assert_eq!(registry.len(), GOLDEN.len(), "one golden row per built-in");
    let mut drift = Vec::new();
    for (scenario, (name, max_n, node_budget, digest)) in registry.iter().zip(GOLDEN) {
        assert_eq!(
            scenario.name(),
            name,
            "the golden table follows the registry"
        );
        let config = SweepConfig {
            max_n,
            node_budget,
            ..SweepConfig::default()
        };
        let report =
            stream::collect(scenario.as_ref(), &config).unwrap_or_else(|e| panic!("{name}: {e}"));
        let actual = stream::fnv1a(stream::FNV_OFFSET, report.deterministic_json().as_bytes());
        if actual != digest {
            drift.push(format!("{name}: pinned {digest:#018x}, got {actual:#018x}"));
        }
    }
    assert!(drift.is_empty(), "report drift:\n{}", drift.join("\n"));
}

/// The committed sample report `ldx-section2-sweep.json`, written by the
/// `section2_separation` example, is the deterministic report of
/// `section2-sweep` at `max_n` 64 and the default seed.
#[test]
fn committed_sample_report_is_reproduced() {
    let scenario = scenarios::find("section2-sweep").expect("section2-sweep is registered");
    let config = SweepConfig {
        max_n: 64,
        ..SweepConfig::default()
    };
    let report = stream::collect(scenario.as_ref(), &config).expect("section2-sweep runs");
    assert_eq!(
        report.deterministic_json(),
        include_str!("../../ldx-section2-sweep.json"),
        "regenerate the sample with `cargo run --release -p ld-examples --bin section2_separation`"
    );
}
