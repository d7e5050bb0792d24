//! The planner behind `randomized-sweep` and `randomized-sweep-xl`:
//! Corollary 1, swept over machines.  Both committed documents
//! (`scenarios/randomized-sweep.json`, `scenarios/randomized-sweep-xl.json`)
//! consist of one `randomized-gmr` stanza; they differ in its `speeds`
//! ladder and its `views` switch.
//!
//! The randomised Id-oblivious decider replaces identifiers with coin
//! flips: yes-instances must always be accepted (one-sided error) while
//! no-instances slip through with probability at most `(1 - 1/sqrt(n))^n`.
//! Each cell estimates one acceptance rate with a seeded Monte-Carlo run, so
//! the whole sweep is reproducible despite the randomness.
//!
//! With `views` on, each cell also *measures* the instance it decided: the
//! distinct radius-1 oblivious views of the GMR execution-table graph,
//! enumerated through the budgeted path
//! ([`distinct_oblivious_views_of_budgeted_cached`]) against a cache shared
//! across the whole sweep.  That pins the view-collapse that makes the table
//! family hard for Id-oblivious deciders (distinct views grow with the
//! window alphabet, not with `n`), and exhaustion is an explicit outcome,
//! never a stall.

use crate::cell::{CellOutcome, CellSpec};
use crate::scenario::{Plan, SweepConfig};
use ld_constructions::fragments::FragmentSource;
use ld_constructions::section3::Section3Label;
use ld_deciders::randomized::{failure_probability_bound, RandomizedGmrDecider};
use ld_deciders::section3::gmr_input;
use ld_local::cache::ViewCache;
use ld_local::decision;
use ld_local::enumeration::{distinct_oblivious_views_of_budgeted_cached, EnumerationBudget};
use ld_turing::zoo;
use ld_turing::Symbol;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const SOURCE: FragmentSource = FragmentSource::WindowsAndDecoys;
const TRIALS: usize = 16;
const CAP: u64 = 1 << 20;

/// The view radius of the `views` measurement (and of its scaled default
/// budget).
pub(crate) const VIEWS_RADIUS: usize = 1;

/// The largest machine speed the zoo's `k`-step walkers support.
pub(crate) const MAX_SPEED: u64 = 250;

/// The budgeted view measurement of a `views` sweep: the shared cache and
/// the per-cell budget.
type Views = (Arc<ViewCache<Section3Label>>, EnumerationBudget);

/// Plans the `randomized-gmr` stanza: a yes/no cell pair per speed `k`,
/// keeping the first two speeds always and the rest while `4k <= max_n`
/// (`max_n` scales how slow a machine, and hence how tall a table, is
/// swept).  `views` switches on the budgeted view measurement.
pub(crate) fn randomized_cells(
    plan: &mut Plan,
    config: &SweepConfig,
    speeds: &[u8],
    views: Option<Views>,
) {
    let ks = speeds
        .iter()
        .enumerate()
        .filter(|&(i, &k)| i < 2 || usize::from(k) * 4 <= config.max_n)
        .map(|(_, &k)| k);
    for k in ks {
        rate_cell(plan, views.clone(), k, "yes");
        rate_cell(plan, views.clone(), k, "no");
    }
}

fn rate_cell(plan: &mut Plan, views: Option<Views>, k: u8, instance: &'static str) {
    let (prefix, alg) = if views.is_some() {
        ("randomized-xl", "randomized-gmr+budgeted-views")
    } else {
        ("randomized", "randomized-gmr")
    };
    // One-sided error: every trial on a yes-instance must accept, and a
    // no-instance must be caught at least once in the trials (the per-trial
    // slip probability is far below 1/TRIALS here).
    let expect = if instance == "yes" {
        "always-accepted"
    } else {
        "sometimes-rejected"
    };
    let spec = CellSpec::new(
        format!("{prefix}/k={k}/instance={instance}"),
        [
            ("family", "gmr".to_string()),
            ("k", k.to_string()),
            ("instance", instance.to_string()),
            ("alg", alg.to_string()),
            ("trials", TRIALS.to_string()),
            ("expect", expect.to_string()),
        ],
    );
    plan.push(spec, move |seed| {
        let output = Symbol(if instance == "yes" { 0 } else { 1 });
        let machine = zoo::halts_with_output(k, output);
        let input = gmr_input(&machine.machine, 1, 10_000, SOURCE)
            .expect("halts_with_output machines halt within fuel");
        let mut rng = StdRng::seed_from_u64(seed);
        let decider = RandomizedGmrDecider::new(CAP);
        let rate = decision::estimate_acceptance(&input, &decider, TRIALS, &mut rng);
        let n = input.node_count();
        let verdict = if rate == 1.0 {
            "always-accepted"
        } else {
            "sometimes-rejected"
        };
        let rate_ok = verdict == expect;
        let Some((cache, budget)) = &views else {
            return CellOutcome::new(verdict, rate_ok)
                .with_metric("acceptance_rate", rate)
                .with_metric("nodes", n as f64)
                .with_metric("failure_bound", failure_probability_bound(n));
        };
        let (distinct, usage) = distinct_oblivious_views_of_budgeted_cached(
            input.labeled(),
            VIEWS_RADIUS,
            cache,
            *budget,
        );
        if usage.exhausted {
            return CellOutcome::new("exhausted", true)
                .with_metric("acceptance_rate", rate)
                .with_budget(usage);
        }
        // Execution tables wallpaper the same windows: the distinct-view
        // count must collapse far below the node count.
        let views_collapse = distinct.len() < n;
        CellOutcome::new(verdict, rate_ok && views_collapse)
            .with_metric("acceptance_rate", rate)
            .with_metric("nodes", n as f64)
            .with_metric("distinct_views", distinct.len() as f64)
            .with_metric("failure_bound", failure_probability_bound(n))
            .with_budget(usage)
    });
}

#[cfg(test)]
mod tests {
    use crate::scenario::{Scenario, SweepConfig};
    use crate::{scenarios, stream};

    fn randomized_sweep() -> Box<dyn Scenario> {
        scenarios::find("randomized-sweep").expect("randomized-sweep is registered")
    }

    fn randomized_sweep_xl() -> Box<dyn Scenario> {
        scenarios::find("randomized-sweep-xl").expect("randomized-sweep-xl is registered")
    }

    #[test]
    fn rates_exhibit_one_sided_error() {
        let config = SweepConfig {
            max_n: 32,
            threads: 2,
            // One-cell shards keep the sweep on the worker pool.
            shard_size: 1,
            seed: 2026,
            ..SweepConfig::default()
        };
        let report = stream::collect(randomized_sweep().as_ref(), &config).unwrap();
        assert!(report.cells.len() >= 4);
        crate::scenarios::assert_all_pass(&report);
    }

    #[test]
    fn cells_are_deterministic_in_the_seed() {
        let config = SweepConfig {
            max_n: 16,
            threads: 1,
            seed: 7,
            ..SweepConfig::default()
        };
        let a = stream::collect(randomized_sweep().as_ref(), &config).unwrap();
        let b = stream::collect(randomized_sweep().as_ref(), &config).unwrap();
        assert_eq!(a.deterministic_json(), b.deterministic_json());
    }

    #[test]
    fn xl_ladder_scales_with_max_n() {
        let small = randomized_sweep_xl()
            .plan(&SweepConfig {
                max_n: 16,
                ..SweepConfig::default()
            })
            .unwrap();
        assert_eq!(small.cells.len(), 4); // only the always-kept k = 2, 4
        let xl = randomized_sweep_xl()
            .plan(&SweepConfig {
                max_n: 512,
                ..SweepConfig::default()
            })
            .unwrap();
        assert_eq!(xl.cells.len(), 16); // the full ladder, both instances
        assert_eq!(xl.caches.len(), 1);
    }

    #[test]
    fn rates_and_view_collapse_hold_across_the_ladder() {
        let config = SweepConfig {
            max_n: 64,
            threads: 2,
            // One-cell shards keep the sweep on the worker pool.
            shard_size: 1,
            seed: 2026,
            ..SweepConfig::default()
        };
        let report = stream::collect(randomized_sweep_xl().as_ref(), &config).unwrap();
        assert!(report.cells.len() >= 8);
        crate::scenarios::assert_all_pass(&report);
        assert_eq!(report.exhausted(), 0, "the scaled default must be generous");
        for cell in &report.cells {
            let outcome = cell.outcome.as_ref().unwrap();
            assert!(outcome.budget.is_some(), "{}", cell.spec.id);
            assert!(
                outcome.metric("distinct_views").unwrap() < outcome.metric("nodes").unwrap(),
                "{} views did not collapse",
                cell.spec.id
            );
        }
    }

    #[test]
    fn tight_view_budget_exhausts_deterministically() {
        let config = SweepConfig {
            max_n: 16,
            seed: 7,
            view_budget: Some(2),
            ..SweepConfig::default()
        };
        let a = stream::collect(randomized_sweep_xl().as_ref(), &config).unwrap();
        let b = stream::collect(randomized_sweep_xl().as_ref(), &config).unwrap();
        assert!(a.exhausted() > 0, "a 2-view budget must exhaust GMR cells");
        assert_eq!(a.failed(), 0);
        assert_eq!(a.deterministic_json(), b.deterministic_json());
    }
}
