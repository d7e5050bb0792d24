//! Reading reports back: a summary of a persisted run.
//!
//! [`ReportSummary::from_json`] reads the `ld-runner/report/v3` document
//! the runner writes — the deterministic document and the full `to_json`
//! report alike (the `perf` section is simply ignored) — so tooling that
//! compares runs (`ldx diff`, the spool's completeness check, CI gates)
//! shares one reader.  Documents of any other schema are rejected.

use crate::json::Json;
use ld_local::enumeration::BudgetUsage;

/// The schema identifier the reader accepts: the streaming schema
/// [`crate::report`] writes.
pub const SCHEMA_V3: &str = crate::report::SCHEMA;

/// One cell of a persisted report.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// The cell's stable identifier.
    pub id: String,
    /// The per-cell seed the sweep pipeline derived.
    pub seed: u64,
    /// `"completed"` or `"panicked"`.
    pub status: String,
    /// The verdict token, for completed cells.
    pub verdict: Option<String>,
    /// Whether the verdict matched expectation (`false` for panics).
    pub pass: bool,
    /// The budget record, for budgeted cells (`None` for unbudgeted cells).
    pub budget: Option<BudgetUsage>,
}

/// A persisted run report, read back version-compatibly.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSummary {
    /// The schema the document declared (always [`SCHEMA_V3`]).
    pub schema: String,
    /// Scenario name.
    pub scenario: String,
    /// The sweep's size budget.
    pub max_n: u64,
    /// The master seed.
    pub seed: u64,
    /// The radius override, when one was set.
    pub radius: Option<u64>,
    /// The per-cell node budget, when one was set.
    pub node_budget: Option<u64>,
    /// The per-cell view budget, when one was set.
    pub view_budget: Option<u64>,
    /// The streaming shard size.
    pub shard_size: Option<u64>,
    /// Summary counters, as recorded in the document.
    pub cell_count: u64,
    /// Cells that completed with a matching verdict.
    pub passed: u64,
    /// Cells that completed with a mismatched verdict.
    pub failed: u64,
    /// Cells that panicked.
    pub panicked: u64,
    /// Cells whose work budget was exhausted.
    pub exhausted: u64,
    /// Per-cell records, in report order.
    pub cells: Vec<CellSummary>,
}

/// A required field of a known type, with a path-ish error message.
fn required_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

/// An optional integer field: absent keys and explicit `null` both read as
/// `None`.
fn optional_u64(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key).and_then(Json::as_u64)
}

fn parse_cell(cell: &Json) -> Result<CellSummary, String> {
    let id = cell
        .get("id")
        .and_then(Json::as_str)
        .ok_or("cell missing 'id'")?
        .to_string();
    let status = cell
        .get("status")
        .and_then(Json::as_str)
        .ok_or("cell missing 'status'")?
        .to_string();
    let budget = match cell.get("budget") {
        Some(budget) => Some(BudgetUsage {
            nodes_visited: required_u64(budget, "nodes_visited")?,
            views_materialized: required_u64(budget, "views_materialized")?,
            exhausted: budget
                .get("exhausted")
                .and_then(Json::as_bool)
                .ok_or("budget missing 'exhausted'")?,
        }),
        None => None,
    };
    Ok(CellSummary {
        seed: required_u64(cell, "seed")?,
        verdict: cell.get("verdict").and_then(Json::as_str).map(String::from),
        pass: cell.get("pass").and_then(Json::as_bool).unwrap_or(false),
        id,
        status,
        budget,
    })
}

impl ReportSummary {
    /// Parses a persisted v3 report (deterministic or full).
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, an unknown schema identifier,
    /// or a missing required field.
    pub fn from_json(text: &str) -> Result<ReportSummary, String> {
        let doc = Json::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing 'schema'")?
            .to_string();
        if schema != SCHEMA_V3 {
            return Err(format!("unknown report schema '{schema}'"));
        }
        let config = doc.get("config").ok_or("missing 'config'")?;
        let counters = doc.get("summary").ok_or("missing 'summary'")?;
        let cells = doc
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("missing 'cells'")?
            .iter()
            .map(parse_cell)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ReportSummary {
            scenario: doc
                .get("scenario")
                .and_then(Json::as_str)
                .ok_or("missing 'scenario'")?
                .to_string(),
            max_n: required_u64(config, "max_n")?,
            seed: required_u64(config, "seed")?,
            radius: optional_u64(config, "radius"),
            node_budget: optional_u64(config, "node_budget"),
            view_budget: optional_u64(config, "view_budget"),
            shard_size: optional_u64(config, "shard_size"),
            cell_count: required_u64(counters, "cell_count")?,
            passed: required_u64(counters, "passed")?,
            failed: required_u64(counters, "failed")?,
            panicked: required_u64(counters, "panicked")?,
            exhausted: required_u64(counters, "exhausted")?,
            schema,
            cells,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellOutcome, CellResult, CellSpec};
    use crate::report::RunReport;
    use crate::scenario::SweepConfig;
    use ld_local::cache::CacheStats;
    use std::time::Duration;

    /// A one-cell v3 report with a budget record and a radius override.
    fn sample_report() -> RunReport {
        let cells = vec![CellResult {
            spec: CellSpec::new("a/one", [("n", "8".to_string())]),
            seed: 11,
            outcome: Ok(
                CellOutcome::new("exhausted", true).with_budget(BudgetUsage {
                    nodes_visited: 512,
                    views_materialized: 9,
                    exhausted: true,
                }),
            ),
            wall: Duration::from_micros(50),
        }];
        RunReport::new(
            "sample",
            SweepConfig {
                max_n: 16,
                radius: Some(3),
                node_budget: Some(512),
                ..SweepConfig::default()
            },
            cells,
            Duration::from_millis(1),
            CacheStats::default(),
        )
    }

    #[test]
    fn v3_reports_roundtrip_through_the_reader() {
        let report = sample_report();
        // Both renderings parse; the perf section is ignored.
        for text in [report.deterministic_json(), report.to_json()] {
            let summary = ReportSummary::from_json(&text).unwrap();
            assert_eq!(summary.schema, SCHEMA_V3);
            assert_eq!(summary.radius, Some(3));
            assert_eq!(summary.node_budget, Some(512));
            assert_eq!(summary.view_budget, None);
            assert_eq!(summary.shard_size, Some(16));
            assert_eq!(summary.cell_count, 1);
            assert_eq!(summary.passed, 1);
            assert_eq!(summary.exhausted, 1);
            let budget = summary.cells[0].budget.unwrap();
            assert!(budget.exhausted);
            assert_eq!(budget.nodes_visited, 512);
            assert_eq!(budget.views_materialized, 9);
        }
    }

    #[test]
    fn unknown_schema_and_malformed_documents_are_rejected() {
        assert!(ReportSummary::from_json("{}").is_err());
        assert!(ReportSummary::from_json("not json").is_err());
        let v3 = sample_report().deterministic_json();
        for old in ["report/v1", "report/v2", "report/v999"] {
            let unknown = v3.replace("report/v3", old);
            let err = ReportSummary::from_json(&unknown).unwrap_err();
            assert!(err.contains(old), "{err}");
        }
        let truncated = v3.replace("\"cell_count\": 1,", "");
        let err = ReportSummary::from_json(&truncated).unwrap_err();
        assert!(err.contains("cell_count"), "{err}");
    }
}
