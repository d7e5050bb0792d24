//! Cells: the unit of work a sweep is made of.
//!
//! A scenario expands into a list of *cells* — one fully determined
//! parameter combination each (family × size × radius × id-regime ×
//! algorithm).  The sweep pipeline runs cells in any order on any number of
//! threads; everything a cell reports is a pure function of its spec and its
//! seed, so reports are reproducible bit for bit.

use ld_local::enumeration::BudgetUsage;
use std::time::Duration;

/// The declarative description of one parameter cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpec {
    /// A stable human-readable identifier, unique within the sweep
    /// (e.g. `"tree/r=1/root=3.2/ids=shuffled/alg=verifier"`).
    pub id: String,
    /// The cell's parameters as ordered key–value pairs, exactly as they
    /// appear in reports.
    pub params: Vec<(String, String)>,
}

impl CellSpec {
    /// Builds a spec from an id and `(key, value)` pairs.
    pub fn new(
        id: impl Into<String>,
        params: impl IntoIterator<Item = (&'static str, String)>,
    ) -> Self {
        CellSpec {
            id: id.into(),
            params: params
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }

    /// The value of parameter `key`, if present.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// What a cell computed: a verdict token, a pass flag, and any number of
/// named numeric metrics.  Wall time deliberately lives *outside* this type
/// (in [`CellResult`]) so that outcomes are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// The scenario-defined verdict token (e.g. `"accept"`, `"reject"`,
    /// `"separated"`).
    pub verdict: String,
    /// Whether the verdict matched the cell's expectation.
    pub pass: bool,
    /// Deterministic numeric outputs (counts, coverages, rates).
    pub metrics: Vec<(String, f64)>,
    /// What the cell's enumeration work budget recorded, for cells that ran
    /// under one (`None` for unbudgeted cells).  Exhaustion
    /// (`budget.exhausted`) is an explicit outcome — the work was cut off
    /// deterministically — distinct from both failure and panic.
    pub budget: Option<BudgetUsage>,
}

impl CellOutcome {
    /// An outcome with no metrics.
    pub fn new(verdict: impl Into<String>, pass: bool) -> Self {
        CellOutcome {
            verdict: verdict.into(),
            pass,
            metrics: Vec::new(),
            budget: None,
        }
    }

    /// Adds a named metric.
    #[must_use]
    pub fn with_metric(mut self, name: impl Into<String>, value: f64) -> Self {
        self.metrics.push((name.into(), value));
        self
    }

    /// Records what the cell's enumeration budget observed.
    #[must_use]
    pub fn with_budget(mut self, usage: BudgetUsage) -> Self {
        self.budget = Some(usage);
        self
    }

    /// `true` when the cell ran under a budget that was exhausted.
    pub fn budget_exhausted(&self) -> bool {
        self.budget.is_some_and(|b| b.exhausted)
    }

    /// The value of metric `name`, if present.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// A cell after execution: its spec, its derived seed, its outcome (or the
/// panic message if the cell blew up), and how long it took.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell's declarative spec.
    pub spec: CellSpec,
    /// The per-cell seed the sweep pipeline derived for it.
    pub seed: u64,
    /// The outcome, or `Err(panic message)` when the cell panicked (panics
    /// are isolated; the rest of the sweep is unaffected).
    pub outcome: Result<CellOutcome, String>,
    /// Wall-clock time of this cell alone.
    pub wall: Duration,
}

impl CellResult {
    /// `true` when the cell completed and its verdict matched expectation.
    pub fn passed(&self) -> bool {
        matches!(&self.outcome, Ok(outcome) if outcome.pass)
    }

    /// `true` when the cell panicked.
    pub fn panicked(&self) -> bool {
        self.outcome.is_err()
    }

    /// `true` when the cell completed but its work budget was exhausted.
    pub fn exhausted(&self) -> bool {
        matches!(&self.outcome, Ok(outcome) if outcome.budget_exhausted())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_params_are_ordered_and_queryable() {
        let spec = CellSpec::new(
            "cycle/n=10",
            [("family", "cycle".to_string()), ("n", "10".to_string())],
        );
        assert_eq!(spec.param("n"), Some("10"));
        assert_eq!(spec.param("missing"), None);
        assert_eq!(spec.params[0].0, "family");
    }

    #[test]
    fn outcome_metrics() {
        let outcome = CellOutcome::new("accept", true)
            .with_metric("coverage", 1.0)
            .with_metric("views", 3.0);
        assert_eq!(outcome.metric("views"), Some(3.0));
        assert_eq!(outcome.metric("none"), None);
    }

    #[test]
    fn outcome_budget_status() {
        let plain = CellOutcome::new("accept", true);
        assert_eq!(plain.budget, None);
        assert!(!plain.budget_exhausted());
        let usage = BudgetUsage {
            nodes_visited: 100,
            views_materialized: 7,
            exhausted: true,
        };
        let capped = CellOutcome::new("exhausted", true).with_budget(usage);
        assert!(capped.budget_exhausted());
        assert_eq!(capped.budget, Some(usage));
        let result = CellResult {
            spec: CellSpec::new("x", []),
            seed: 1,
            outcome: Ok(capped),
            wall: Duration::ZERO,
        };
        assert!(result.exhausted() && result.passed());
    }

    #[test]
    fn result_status_helpers() {
        let spec = CellSpec::new("x", []);
        let ok = CellResult {
            spec: spec.clone(),
            seed: 1,
            outcome: Ok(CellOutcome::new("accept", true)),
            wall: Duration::ZERO,
        };
        assert!(ok.passed() && !ok.panicked());
        let bad = CellResult {
            spec,
            seed: 1,
            outcome: Err("boom".to_string()),
            wall: Duration::ZERO,
        };
        assert!(!bad.passed() && bad.panicked());
    }
}
