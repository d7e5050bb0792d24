//! The built-in scenarios and their registry.
//!
//! Every built-in is a committed scenario document under `scenarios/`,
//! embedded at compile time and parsed by [`ScenarioDoc::from_text`]: the
//! files are their only definition.  This module holds the planners their
//! DSL stanzas call — `section2` (`section2-trees`, `section2-promise`),
//! `section2_r3` (`paths`, `path-coverage`, `grid-profile`,
//! `layered-tree-views`, `promise-views`), `section3` (`section3-zoo`),
//! `pyramid` (`pyramid`), `randomized` (`randomized-gmr`) and `table`
//! (`relationship-table`).

mod pyramid;
mod randomized;
mod section2;
mod section2_r3;
mod section3;
mod table;

pub(crate) use pyramid::pyramid_cells;
pub(crate) use randomized::{randomized_cells, MAX_SPEED, VIEWS_RADIUS as RANDOMIZED_VIEWS_RADIUS};
pub(crate) use section2::{layered_tree_cells, promise_decider_cells, MAX_ROOTS as TREE_MAX_ROOTS};
pub(crate) use section2_r3::{
    grid_profile_cells, path_cells, path_coverage_cells, promise_cells as promise_views_only_cells,
    tree_family_cells, MAX_ROOTS as R3_TREE_MAX_ROOTS, PATH_STEP,
};
pub(crate) use section3::zoo_cells;
pub(crate) use table::table_cells;

use crate::cell::{CellOutcome, CellSpec};
use crate::dsl::ScenarioDoc;
use crate::scenario::{Plan, Scenario};
use ld_constructions::section2::promise::{self, CycleParamLabel};
use ld_graph::LabeledGraph;
use ld_local::cache::ViewCache;
use ld_local::enumeration::{
    coverage_cached, distinct_oblivious_views_of_budgeted_cached, EnumerationBudget,
};
use ld_local::{BudgetUsage, IdBound};
use std::hash::Hash;
use std::sync::Arc;

/// Enumerates two instances under one shared budget — skipping the second
/// entirely once the first exhausts, so no capped work is thrown away — and
/// measures their bidirectional view coverage.  `Err` carries the usage of
/// an exhausted run; `Ok` is `(coverage of b in a, coverage of a in b,
/// usage)`.  Shared by every scenario cell that compares two instances'
/// views (promise-cycle pairs, path coverage).
#[allow(clippy::type_complexity)]
pub(crate) fn coverage_pair<L: Clone + Eq + Hash + Send + Sync>(
    a: &LabeledGraph<L>,
    b: &LabeledGraph<L>,
    radius: usize,
    cache: &ViewCache<L>,
    budget: EnumerationBudget,
) -> Result<(f64, f64, BudgetUsage), BudgetUsage> {
    let (a_views, mut usage) =
        distinct_oblivious_views_of_budgeted_cached(a, radius, cache, budget);
    if usage.exhausted {
        return Err(usage);
    }
    let (b_views, spent) =
        distinct_oblivious_views_of_budgeted_cached(b, radius, cache, budget.after(&usage));
    usage.absorb(&spent);
    if usage.exhausted {
        return Err(usage);
    }
    let forward = coverage_cached(&b_views, &a_views, cache);
    let backward = coverage_cached(&a_views, &b_views, cache);
    Ok((forward, backward, usage))
}

/// Plans the promise-cycle *views* cell shared by `section2-sweep` and
/// `section2-sweep-r3`: the yes-instance (`r`-cycle) and no-instance
/// (`f(r)`-cycle) are indistinguishable at view radius `t` exactly when
/// `r >= 2t + 2` — the radius-`t` ball of an `n`-cycle is a path (the view
/// the long cycle shows) iff `n >= 2t + 2`; shorter cycles see themselves
/// whole.
pub(crate) fn promise_views_cell(
    plan: &mut Plan,
    cache: &Arc<ViewCache<CycleParamLabel>>,
    budget: EnumerationBudget,
    radius: usize,
    r: u64,
    bound: &IdBound,
) {
    let expect = if r >= 2 * radius as u64 + 2 {
        "indistinguishable"
    } else {
        "distinguishable"
    };
    let spec = CellSpec::new(
        format!("promise/r={r}/views/radius={radius}"),
        [
            ("family", "cycle".to_string()),
            ("r", r.to_string()),
            ("instance", "views".to_string()),
            ("radius", radius.to_string()),
            ("expect", expect.to_string()),
        ],
    );
    let bound = bound.clone();
    let cache = cache.clone();
    plan.push(spec, move |_seed| {
        let yes = promise::yes_instance(r).expect("promise cycles construct for swept r");
        let no =
            promise::no_instance(r, &bound, 1 << 20).expect("promise cycles construct for swept r");
        let (forward, backward, usage) = match coverage_pair(&yes, &no, radius, &cache, budget) {
            Ok(result) => result,
            Err(usage) => return CellOutcome::new("exhausted", true).with_budget(usage),
        };
        let merged = forward == 1.0 && backward == 1.0;
        let verdict = if merged {
            "indistinguishable"
        } else {
            "distinguishable"
        };
        CellOutcome::new(verdict, verdict == expect)
            .with_metric("coverage_no_in_yes", forward)
            .with_metric("coverage_yes_in_no", backward)
            .with_budget(usage)
    });
}

/// The committed built-in documents, in `ldx list` order.
pub(crate) const BUILTIN_DOCS: [&str; 8] = [
    include_str!("../../../../scenarios/section2-sweep.json"),
    include_str!("../../../../scenarios/section2-sweep-r3.json"),
    include_str!("../../../../scenarios/section2-sweep-xl.json"),
    include_str!("../../../../scenarios/section3-sweep.json"),
    include_str!("../../../../scenarios/pyramid-sweep.json"),
    include_str!("../../../../scenarios/randomized-sweep.json"),
    include_str!("../../../../scenarios/randomized-sweep-xl.json"),
    include_str!("../../../../scenarios/relationship-table.json"),
];

/// Asserts that every cell of `report` passed, naming the cells that
/// failed or panicked.
#[cfg(test)]
pub(crate) fn assert_all_pass(report: &crate::report::RunReport) {
    let failing: Vec<&str> = report
        .cells
        .iter()
        .filter(|c| !c.passed())
        .map(|c| c.spec.id.as_str())
        .collect();
    assert!(failing.is_empty(), "failing cells: {failing:?}");
}

/// Every built-in scenario, in `ldx list` order.
pub fn all() -> Vec<Box<dyn Scenario>> {
    BUILTIN_DOCS
        .iter()
        .map(|text| {
            Box::new(ScenarioDoc::from_text(text).expect("embedded scenario documents parse"))
                as Box<dyn Scenario>
        })
        .collect()
}

/// Looks a scenario up by its `ldx` name.
pub fn find(name: &str) -> Option<Box<dyn Scenario>> {
    all().into_iter().find(|s| s.name() == name)
}

/// The machine-readable registry listing shared by `ldx list --json` and
/// the service's `GET /scenarios` endpoint: one `{name, description}`
/// object per scenario, in `ldx list` order.
pub fn listing_json() -> crate::json::Json {
    use crate::json::Json;
    Json::object().set("schema", "ld-runner/scenarios/v1").set(
        "scenarios",
        Json::Arr(
            all()
                .iter()
                .map(|s| {
                    Json::object()
                        .set("name", s.name())
                        .set("description", s.description())
                })
                .collect(),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let scenarios = all();
        assert_eq!(scenarios.len(), 8);
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
        assert!(find("section2-sweep").is_some());
        assert!(find("section2-sweep-r3").is_some());
        assert!(find("section2-sweep-xl").is_some());
        assert!(find("randomized-sweep-xl").is_some());
        assert!(find("no-such-scenario").is_none());
    }

    /// The stanza radii of the embedded documents are defaults: an explicit
    /// `--radius` overrides every one of them.
    #[test]
    fn radius_override_reaches_the_embedded_stanzas() {
        for (name, natural) in [("section2-sweep", "2"), ("section2-sweep-r3", "3")] {
            for (radius, expect) in [(None, natural), (Some(1), "1")] {
                let config = crate::scenario::SweepConfig {
                    radius,
                    ..crate::scenario::SweepConfig::default()
                };
                let plan = find(name).unwrap().plan(&config).unwrap();
                let radii: Vec<&str> = plan
                    .cells
                    .iter()
                    .filter_map(|c| c.spec.param("radius"))
                    .collect();
                assert!(!radii.is_empty(), "{name}");
                assert!(radii.iter().all(|&r| r == expect), "{name} at {radius:?}");
            }
        }
    }

    /// Stanzas without a `radius` field ignore `--radius`: those
    /// built-ins plan the same cells under any override.
    #[test]
    fn radius_override_leaves_radius_free_stanzas_alone() {
        for name in [
            "section3-sweep",
            "pyramid-sweep",
            "randomized-sweep",
            "randomized-sweep-xl",
            "relationship-table",
        ] {
            let specs = |radius| {
                let config = crate::scenario::SweepConfig {
                    radius,
                    ..crate::scenario::SweepConfig::default()
                };
                let plan = find(name).unwrap().plan(&config).unwrap();
                plan.cells
                    .into_iter()
                    .map(|c| c.spec)
                    .collect::<Vec<crate::cell::CellSpec>>()
            };
            assert_eq!(specs(None), specs(Some(3)), "{name}");
        }
    }

    #[test]
    fn descriptions_are_one_liners() {
        for scenario in all() {
            assert!(!scenario.description().is_empty());
            assert!(!scenario.description().contains('\n'));
        }
    }

    #[test]
    fn listing_json_mirrors_the_registry_and_round_trips() {
        let rendered = listing_json().render();
        let parsed = crate::json::Json::parse(&rendered).expect("listing must parse");
        assert_eq!(
            parsed.get("schema").and_then(crate::json::Json::as_str),
            Some("ld-runner/scenarios/v1")
        );
        let entries = parsed
            .get("scenarios")
            .and_then(crate::json::Json::as_arr)
            .expect("scenarios array");
        let registry = all();
        assert_eq!(entries.len(), registry.len());
        for (entry, scenario) in entries.iter().zip(&registry) {
            assert_eq!(
                entry.get("name").and_then(crate::json::Json::as_str),
                Some(scenario.name())
            );
            assert_eq!(
                entry.get("description").and_then(crate::json::Json::as_str),
                Some(scenario.description())
            );
        }
    }
}
