//! `randomized-sweep`: Corollary 1, swept over machines.
//!
//! The randomised Id-oblivious decider replaces identifiers with coin
//! flips: yes-instances must always be accepted (one-sided error) while
//! no-instances slip through with probability at most `(1 - 1/sqrt(n))^n`.
//! Each cell estimates one acceptance rate with a seeded Monte-Carlo run, so
//! the whole sweep is reproducible despite the randomness.

use crate::cell::{CellOutcome, CellSpec};
use crate::scenario::{Plan, Scenario, SweepConfig};
use ld_constructions::fragments::FragmentSource;
use ld_deciders::randomized::{failure_probability_bound, RandomizedGmrDecider};
use ld_deciders::section3::gmr_input;
use ld_local::decision;
use ld_turing::zoo;
use ld_turing::Symbol;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SOURCE: FragmentSource = FragmentSource::WindowsAndDecoys;
const TRIALS: usize = 16;
const CAP: u64 = 1 << 20;

/// The randomised-decider sweep scenario.
pub struct RandomizedSweep;

fn rate_cell(plan: &mut Plan, k: u8, instance: &'static str) {
    let spec = CellSpec::new(
        format!("randomized/k={k}/instance={instance}"),
        [
            ("family", "gmr".to_string()),
            ("k", k.to_string()),
            ("instance", instance.to_string()),
            ("alg", "randomized-gmr".to_string()),
            ("trials", TRIALS.to_string()),
            (
                "expect",
                if instance == "yes" {
                    "always-accepted"
                } else {
                    "sometimes-rejected"
                }
                .to_string(),
            ),
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
        let (verdict, pass) = if instance == "yes" {
            // One-sided error: every trial on a yes-instance must accept.
            (
                if rate == 1.0 {
                    "always-accepted"
                } else {
                    "sometimes-rejected"
                },
                rate == 1.0,
            )
        } else {
            // A no-instance must be caught at least once in the trials
            // (the per-trial slip probability is far below 1/TRIALS here).
            (
                if rate < 1.0 {
                    "sometimes-rejected"
                } else {
                    "always-accepted"
                },
                rate < 1.0,
            )
        };
        CellOutcome::new(verdict, pass)
            .with_metric("acceptance_rate", rate)
            .with_metric("nodes", n as f64)
            .with_metric("failure_bound", failure_probability_bound(n))
    });
}

impl Scenario for RandomizedSweep {
    fn name(&self) -> &str {
        "randomized-sweep"
    }

    fn description(&self) -> &str {
        "Corollary 1: seeded Monte-Carlo acceptance rates of the randomised Id-oblivious decider"
    }

    fn plan(&self, config: &SweepConfig) -> Result<Plan, String> {
        let mut plan = Plan::new();
        // `max_n` scales how slow a machine (and hence how tall a table) is
        // swept; every budget keeps at least the two quickest.
        let ks: Vec<u8> = [2u8, 4, 8, 16]
            .into_iter()
            .enumerate()
            .filter(|&(i, k)| i < 2 || usize::from(k) * 4 <= config.max_n)
            .map(|(_, k)| k)
            .collect();
        for k in ks {
            rate_cell(&mut plan, k, "yes");
            rate_cell(&mut plan, k, "no");
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream;

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
        let report = stream::collect(&RandomizedSweep, &config).unwrap();
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
        let a = stream::collect(&RandomizedSweep, &config).unwrap();
        let b = stream::collect(&RandomizedSweep, &config).unwrap();
        assert_eq!(a.deterministic_json(), b.deterministic_json());
    }
}
