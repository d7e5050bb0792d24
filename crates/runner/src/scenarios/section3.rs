//! The planner behind `section3-sweep`, the computability separation swept
//! over the machine zoo: the `section3-zoo` stanza of the committed
//! document `scenarios/section3-sweep.json`, which the registry embeds.
//!
//! Cells cover the execution-table family `G(M, r)`: the two-stage
//! identifier-reading decider must match ground truth machine by machine,
//! and fuel-bounded Id-oblivious candidates must err somewhere on the zoo
//! (Theorem 2's mechanised content).  Oblivious verdicts run through a
//! shared canonical-view cache — execution tables are wallpapered with
//! repeated windows, which is precisely what the cache collapses.

use crate::cell::{CellOutcome, CellSpec};
use crate::scenario::{Plan, SweepConfig};
use ld_constructions::fragments::FragmentSource;
use ld_constructions::section3::Section3Label;
use ld_deciders::section3::{gmr_input, FuelBoundedObliviousCandidate, TwoStageIdDecider};
use ld_local::cache::ViewCache;
use ld_local::decision;
use ld_turing::zoo::{self, MachineSpec};
use std::sync::Arc;

const SOURCE: FragmentSource = FragmentSource::WindowsAndDecoys;
const RADIUS: u32 = 1;
const FUEL: u64 = 10_000;

fn halting_zoo(max_n: usize) -> Vec<MachineSpec> {
    // `max_n` scales the zoo breadth: slow machines produce tall execution
    // tables, so a small budget keeps to the quick ones.
    let budget = max_n as u64;
    let mut machines: Vec<MachineSpec> = zoo::output_zero_zoo()
        .into_iter()
        .chain(zoo::output_one_zoo())
        .filter(|spec| spec.truth.steps().is_some_and(|steps| steps <= budget))
        .collect();
    machines.sort_by(|a, b| a.machine.name().cmp(b.machine.name()));
    machines
}

fn id_decider_cell(plan: &mut Plan, spec_m: &MachineSpec) {
    let expect = if spec_m.in_l0() { "accept" } else { "reject" };
    let name = spec_m.machine.name().to_string();
    let spec = CellSpec::new(
        format!("gmr/machine={name}/alg=two-stage-id"),
        [
            ("family", "gmr".to_string()),
            ("machine", name),
            ("alg", "two-stage-id".to_string()),
            ("expect", expect.to_string()),
        ],
    );
    let machine = spec_m.machine.clone();
    plan.push(spec, move |_seed| {
        let input = gmr_input(&machine, RADIUS, FUEL, SOURCE)
            .expect("zoo machines halt within the sweep fuel");
        let accepted = decision::run_local(&input, &TwoStageIdDecider::new(FUEL)).accepted();
        let verdict = if accepted { "accept" } else { "reject" };
        CellOutcome::new(verdict, verdict == expect).with_metric("nodes", input.node_count() as f64)
    });
}

fn candidate_cell(
    plan: &mut Plan,
    cache: &Arc<ViewCache<Section3Label>>,
    machines: &[MachineSpec],
    fuel: u64,
) {
    let spec = CellSpec::new(
        format!("gmr/candidate-fuel={fuel}"),
        [
            ("family", "gmr".to_string()),
            ("alg", format!("oblivious-fuel-{fuel}")),
            ("expect", "errs".to_string()),
        ],
    );
    let machines = machines.to_vec();
    let cache = cache.clone();
    plan.push(spec, move |_seed| {
        let candidate = FuelBoundedObliviousCandidate::new(fuel);
        let mut errors = 0usize;
        for spec_m in &machines {
            let input = gmr_input(&spec_m.machine, RADIUS, FUEL, SOURCE)
                .expect("zoo machines halt within the sweep fuel");
            let accepted = decision::run_oblivious_cached(&input, &candidate, &cache).accepted();
            if accepted != spec_m.in_l0() {
                errors += 1;
            }
        }
        // A fuel-starved candidate cannot tell long tables from decoys; it
        // must err somewhere on a zoo whose running times exceed its fuel.
        let verdict = if errors > 0 { "errs" } else { "decides" };
        CellOutcome::new(verdict, verdict == "errs")
            .with_metric("errors", errors as f64)
            .with_metric("machines", machines.len() as f64)
    });
}

/// Plans the `section3-zoo` stanza: one two-stage-decider cell per zoo
/// machine halting within `max_n` steps, then one cell per fuel-bounded
/// candidate the zoo outruns.  `max_n` scales the zoo breadth; a budget
/// admitting no machine plans nothing.
pub(crate) fn zoo_cells(
    plan: &mut Plan,
    cache: &Arc<ViewCache<Section3Label>>,
    config: &SweepConfig,
) {
    let machines = halting_zoo(config.max_n);
    for spec_m in &machines {
        id_decider_cell(plan, spec_m);
    }
    for fuel in [1u64, 2, 4] {
        // The "must err" expectation only holds when the zoo actually
        // contains a machine outrunning the candidate's fuel.
        let outrun = machines
            .iter()
            .any(|m| m.truth.steps().is_some_and(|steps| steps > fuel));
        if outrun {
            candidate_cell(plan, cache, &machines, fuel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scenarios, stream};

    #[test]
    fn sweep_confirms_theorem_2_on_the_quick_zoo() {
        let config = SweepConfig {
            max_n: 24,
            threads: 2,
            // One-cell shards keep the sweep on the worker pool.
            shard_size: 1,
            seed: 9,
            ..SweepConfig::default()
        };
        let report =
            stream::collect(scenarios::find("section3-sweep").unwrap().as_ref(), &config).unwrap();
        assert!(report.cells.len() >= 5);
        crate::scenarios::assert_all_pass(&report);
        assert!(report.cache_hit_rate() > 0.0);
    }
}
