//! Golden-file conformance for the report schema the runner writes.
//!
//! `tests/fixtures/report-v3.json` is a committed artifact: one logical run
//! in the `ld-runner/report/v3` schema.  `ReportSummary::from_json` must
//! read every field of it back, and the in-memory reporter must render it
//! byte for byte — so neither the reader nor the writer can silently
//! reinterpret archived experiment data.

use ld_runner::summary::{ReportSummary, SCHEMA_V3};

fn fixture(name: &str) -> String {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

#[test]
fn v3_fixture_reads_back_every_field() {
    let v3 = ReportSummary::from_json(&fixture("report-v3.json")).unwrap();
    assert_eq!(v3.schema, SCHEMA_V3);
    assert_eq!(v3.scenario, "fixture-sweep");
    assert_eq!(v3.max_n, 16);
    assert_eq!(v3.seed, 99);
    assert_eq!(v3.radius, Some(3));
    assert_eq!(v3.node_budget, Some(500));
    assert_eq!(v3.view_budget, None);
    assert_eq!(v3.shard_size, Some(2));
    assert_eq!(v3.cell_count, 3);
    assert_eq!(v3.passed, 2);
    assert_eq!(v3.failed, 0);
    assert_eq!(v3.panicked, 1);
    assert_eq!(v3.exhausted, 1);
    let ids: Vec<&str> = v3.cells.iter().map(|c| c.id.as_str()).collect();
    assert_eq!(ids, ["fixture/one", "fixture/two", "fixture/three"]);
    let seeds: Vec<u64> = v3.cells.iter().map(|c| c.seed).collect();
    assert_eq!(seeds, [101, 102, 103]);
    assert_eq!(v3.cells[0].verdict.as_deref(), Some("accept"));
    assert!(v3.cells[0].pass);
    assert_eq!(v3.cells[1].status, "panicked");
    assert!(!v3.cells[1].pass);
    assert!(v3.cells[..2].iter().all(|c| c.budget.is_none()));
    let budget = v3.cells[2].budget.unwrap();
    assert!(budget.exhausted);
    assert_eq!(budget.nodes_visited, 500);
    assert_eq!(budget.views_materialized, 4);
}

/// The v3 fixture is not just parseable — it is byte-for-byte what the
/// current in-memory reporter renders for the same run, which pins the
/// writer's format (field order, indentation, number formatting) as well
/// as the reader's tolerance.
#[test]
fn v3_fixture_is_exactly_what_the_reporter_renders() {
    use ld_runner::cell::{CellOutcome, CellResult, CellSpec};
    use ld_runner::{RunReport, SweepConfig};
    use local_decision::local::cache::CacheStats;
    use local_decision::local::enumeration::BudgetUsage;
    use std::time::Duration;

    let cells = vec![
        CellResult {
            spec: CellSpec::new(
                "fixture/one",
                [("family", "path".to_string()), ("n", "8".to_string())],
            ),
            seed: 101,
            outcome: Ok(CellOutcome::new("accept", true).with_metric("nodes", 8.0)),
            wall: Duration::from_micros(10),
        },
        CellResult {
            spec: CellSpec::new("fixture/two", []),
            seed: 102,
            outcome: Err("boom".to_string()),
            wall: Duration::from_micros(20),
        },
        CellResult {
            spec: CellSpec::new("fixture/three", [("n", "12".to_string())]),
            seed: 103,
            outcome: Ok(
                CellOutcome::new("exhausted", true).with_budget(BudgetUsage {
                    nodes_visited: 500,
                    views_materialized: 4,
                    exhausted: true,
                }),
            ),
            wall: Duration::from_micros(30),
        },
    ];
    let report = RunReport::new(
        "fixture-sweep",
        SweepConfig {
            max_n: 16,
            seed: 99,
            radius: Some(3),
            node_budget: Some(500),
            shard_size: 2,
            ..SweepConfig::default()
        },
        cells,
        Duration::from_millis(1),
        CacheStats::default(),
    );
    assert_eq!(report.deterministic_json(), fixture("report-v3.json"));
}
