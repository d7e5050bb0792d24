//! The planners behind `section2-sweep`, the bounded-identifier separation:
//! the `section2-trees` and `section2-promise` stanzas of the committed
//! document `scenarios/section2-sweep.json`, which the registry embeds.
//! Cells cover the layered-tree family `H_r` / `T_r` (every sampled small
//! instance × identifier regime × algorithm), the large instance and the
//! Figure 1 view-coverage measurement when `max_n` affords them, and the
//! promise problem on cycles across a size range.  Oblivious verdicts and
//! view enumeration run through shared canonical-view caches — the small
//! instances are all isomorphic to each other, so virtually every ball the
//! sweep canonicalises after the first instance is a cache hit.

use crate::cell::{CellOutcome, CellSpec};
use crate::dsl::IdRegime;
use crate::scenario::{Plan, SweepConfig};
use ld_constructions::section2::promise::{self, CycleParamLabel};
use ld_constructions::section2::{Coord, Section2Label, Section2Params};
use ld_deciders::section2::{IdBasedDecider, PromiseIdDecider, StructureVerifier};
use ld_local::cache::ViewCache;
use ld_local::enumeration::{
    coverage_cached, distinct_oblivious_views_of_budgeted_cached, EnumerationBudget,
};
use ld_local::{decision, IdAssignment, IdBound, Input};
use std::sync::Arc;

/// Identifier regimes swept per instance.
const REGIMES: [IdRegime; 3] = [IdRegime::Consecutive, IdRegime::Shifted, IdRegime::Shuffled];

/// How many small-instance roots to sweep (the family has hundreds; they are
/// pairwise isomorphic, so a bounded sample exercises every view class).
/// Also the DSL `section2-trees` stanza's `max-roots` default.
pub(crate) const MAX_ROOTS: usize = 32;

#[allow(clippy::too_many_arguments)]
fn tree_cell(
    plan: &mut Plan,
    params: &Section2Params,
    cache: &Arc<ViewCache<Section2Label>>,
    budget: EnumerationBudget,
    root: Option<Coord>,
    regime: IdRegime,
    algorithm: &'static str,
    expect: &'static str,
) {
    let r = params.r();
    let instance_kind = if root.is_some() { "small" } else { "large" };
    let root_token = root.map_or("-".to_string(), |c| format!("{}.{}", c.x, c.y));
    let spec = CellSpec::new(
        format!(
            "tree/r={r}/{instance_kind}={root_token}/ids={}/alg={algorithm}",
            regime.token()
        ),
        [
            ("family", "layered-tree".to_string()),
            ("r", r.to_string()),
            ("instance", instance_kind.to_string()),
            ("root", root_token),
            ("ids", regime.token().to_string()),
            ("alg", algorithm.to_string()),
            ("expect", expect.to_string()),
        ],
    );
    let params = params.clone();
    let cache = cache.clone();
    plan.push(spec, move |seed| {
        let labeled = match root {
            Some(root) => params.small_instance(root),
            None => params.large_instance(),
        }
        .expect("swept parameters construct valid instances");
        let n = labeled.node_count();
        let input = Input::new(labeled, regime.assignment(n, seed))
            .expect("section 2 instances are connected with distinct ids");
        let accepted = match algorithm {
            "verifier" => decision::run_oblivious_cached(
                &input,
                &StructureVerifier::new(params.clone()),
                &cache,
            )
            .accepted(),
            "id-decider" => {
                decision::run_local(&input, &IdBasedDecider::new(params.clone())).accepted()
            }
            other => panic!("unknown algorithm {other}"),
        };
        let verdict = if accepted { "accept" } else { "reject" };
        let (views, usage) =
            distinct_oblivious_views_of_budgeted_cached(input.labeled(), 1, &cache, budget);
        // The decider's verdict is complete whatever the budget did, so the
        // pass judgement always stands; only the view-count metric depends
        // on the budgeted enumeration and is omitted when truncated (the
        // attached usage still records the exhaustion).
        let outcome = CellOutcome::new(verdict, verdict == expect).with_metric("nodes", n as f64);
        if usage.exhausted {
            return outcome.with_budget(usage);
        }
        outcome
            .with_metric("distinct_views_r1", views.len() as f64)
            .with_budget(usage)
    });
}

fn coverage_cell(
    plan: &mut Plan,
    params: &Section2Params,
    cache: &Arc<ViewCache<Section2Label>>,
    budget: EnumerationBudget,
    radius: usize,
    max_roots: usize,
) {
    let r = params.r();
    let spec = CellSpec::new(
        format!("tree/r={r}/figure1-coverage/radius={radius}"),
        [
            ("family", "layered-tree".to_string()),
            ("r", r.to_string()),
            ("instance", "coverage".to_string()),
            ("radius", radius.to_string()),
            ("expect", "covered>0".to_string()),
        ],
    );
    let params = params.clone();
    let cache = cache.clone();
    plan.push(spec, move |_seed| {
        let large = params
            .large_instance()
            .expect("swept parameters construct valid instances");
        let (large_views, mut usage) =
            distinct_oblivious_views_of_budgeted_cached(&large, radius, &cache, budget);
        let mut small_views = Vec::new();
        for small in params
            .sample_small_instances(max_roots)
            .expect("swept parameters construct valid instances")
        {
            if usage.exhausted {
                break;
            }
            let (views, spent) = distinct_oblivious_views_of_budgeted_cached(
                &small,
                radius,
                &cache,
                budget.after(&usage),
            );
            usage.absorb(&spent);
            small_views.extend(views);
        }
        if usage.exhausted {
            // An exhausted budget is an explicit outcome: the coverage
            // measurement is incomplete, so no pass/fail claim is made.
            return CellOutcome::new("exhausted", true).with_budget(usage);
        }
        let covered = coverage_cached(&large_views, &small_views, &cache);
        CellOutcome::new(
            if covered > 0.0 {
                "covered>0"
            } else {
                "uncovered"
            },
            covered > 0.0,
        )
        .with_metric("coverage", covered)
        .with_metric("large_views", large_views.len() as f64)
        .with_budget(usage)
    });
}

/// Plans the layered-tree portion of `section2-sweep`: every sampled small
/// instance × identifier regime × algorithm, then — when `max_n` affords the
/// large instance — the large-instance cells and the Figure-1 coverage
/// measurement at every radius up to `coverage_radius`.  Called by the
/// scenario DSL's `section2-trees` stanza (see [`crate::dsl`]).
pub(crate) fn layered_tree_cells(
    plan: &mut Plan,
    cache: &Arc<ViewCache<Section2Label>>,
    config: &SweepConfig,
    budget: EnumerationBudget,
    max_roots: usize,
    coverage_radius: usize,
) -> Result<(), String> {
    let params = Section2Params::new(1, IdBound::identity_plus(2))
        .map_err(|e| format!("section 2 parameters: {e}"))?;

    let large = params.large_instance_size() <= config.max_n;
    let roots = if params.small_instance_size() <= config.max_n {
        params.small_instance_roots()
    } else {
        Vec::new()
    };
    let mut cells = Vec::new();
    for &root in roots.iter().take(max_roots) {
        for regime in REGIMES {
            // The structure verifier ignores identifiers: small instances
            // are locally consistent under every regime.  The Id-based
            // decider also rejects when any id reaches R(r); the shifted
            // regime plants such ids everywhere.
            let id_expect = if regime == IdRegime::Shifted {
                "reject"
            } else {
                "accept"
            };
            cells.push((Some(root), regime, "verifier", "accept"));
            cells.push((Some(root), regime, "id-decider", id_expect));
        }
    }
    if large {
        for regime in REGIMES {
            // T_r is locally consistent (it is in P'), so the oblivious
            // verifier accepts it — the heart of "P not in LD*".  With
            // n = |T_r| nodes, every regime hands some node an id >= R(r),
            // so the Id-based decider rejects.
            cells.push((None, regime, "verifier", "accept"));
            cells.push((None, regime, "id-decider", "reject"));
        }
    }
    for (root, regime, algorithm, expect) in cells {
        tree_cell(
            plan, &params, cache, budget, root, regime, algorithm, expect,
        );
    }

    if large {
        // Figure-1 coverage at every radius up to the sweep radius
        // (default 1; `--radius` raises it — radius 3 is where the
        // budgeted radius-3 machinery earns its keep).
        for radius in 0..=coverage_radius {
            coverage_cell(plan, &params, cache, budget, radius, max_roots);
        }
    }

    Ok(())
}

/// Plans the promise-cycle portion of `section2-sweep`: the yes/no decision
/// cells plus the indistinguishability views cell, for every `r` whose
/// no-instance (`3r`-cycle) fits `max_n`.  Called by the scenario DSL's
/// `section2-promise` stanza.
pub(crate) fn promise_decider_cells(
    plan: &mut Plan,
    cache: &Arc<ViewCache<CycleParamLabel>>,
    config: &SweepConfig,
    budget: EnumerationBudget,
    views_radius: usize,
) {
    // Promise cycles: the no-instance is the f(r) = 3r cycle, so the
    // pair fits the budget exactly when 3r <= max_n.
    let bound = IdBound::linear(3, 0);
    for r in 3..=(config.max_n as u64) / 3 {
        for (instance, expect) in [("yes", "accept"), ("no", "reject")] {
            let spec = CellSpec::new(
                format!("promise/r={r}/instance={instance}/alg=promise-id-decider"),
                [
                    ("family", "cycle".to_string()),
                    ("r", r.to_string()),
                    ("instance", instance.to_string()),
                    ("alg", "promise-id-decider".to_string()),
                    ("expect", expect.to_string()),
                ],
            );
            let bound = bound.clone();
            plan.push(spec, move |_seed| {
                let labeled = match instance {
                    "yes" => promise::yes_instance(r),
                    _ => promise::no_instance(r, &bound, 1 << 20),
                }
                .expect("promise cycles construct for swept r");
                let n = labeled.node_count();
                // Identifiers start at 1 so the long cycle exhibits an id >= f(r).
                let input = Input::new(labeled, IdAssignment::consecutive_from(n, 1))
                    .expect("cycles are connected with distinct ids");
                let accepted =
                    decision::run_local(&input, &PromiseIdDecider::new(bound.clone())).accepted();
                let verdict = if accepted { "accept" } else { "reject" };
                CellOutcome::new(verdict, verdict == expect).with_metric("nodes", n as f64)
            });
        }
        super::promise_views_cell(plan, cache, budget, views_radius, r, &bound);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::{scenarios, stream};

    fn section2_sweep() -> Box<dyn Scenario> {
        scenarios::find("section2-sweep").expect("section2-sweep is registered")
    }

    #[test]
    fn default_budget_plans_a_rich_sweep() {
        let plan = section2_sweep().plan(&SweepConfig::default()).unwrap();
        assert!(plan.cells.len() >= 100, "{} cells", plan.cells.len());
        assert_eq!(plan.caches.len(), 2);
    }

    #[test]
    fn sweep_passes_and_hits_the_cache() {
        let config = SweepConfig {
            max_n: 30,
            threads: 1,
            seed: 41,
            ..SweepConfig::default()
        };
        let report = stream::collect(section2_sweep().as_ref(), &config).unwrap();
        crate::scenarios::assert_all_pass(&report);
        assert!(report.cache_hit_rate() > 0.0);
    }

    #[test]
    fn tiny_budget_is_rejected_with_a_message() {
        let config = SweepConfig {
            max_n: 3,
            ..SweepConfig::default()
        };
        let err = section2_sweep().plan(&config).err().expect("no cell fits");
        assert!(err.contains("max_n = 3 leaves no cell"), "{err}");
    }
}
