//! The Section 2 separation (bounded identifiers), as a runner sweep.
//!
//! The hand-rolled experiment this binary used to be is now the
//! `section2-sweep` scenario of `ld-runner`: layered-tree instances ×
//! identifier regimes × algorithms, plus the promise-problem cycles across
//! a size range, executed in parallel with a shared canonical-view cache.
//! This binary plans the sweep, runs it, prints the headline verdicts the
//! paper's Section 2 establishes, and leaves the deterministic report (no
//! timings, so reruns reproduce it byte for byte) in
//! `ldx-section2-sweep.json`.
//!
//! Run with `cargo run -p ld-examples --bin section2_separation`.

use local_decision::prelude::*;
use local_decision::runner::RunReport;

fn count(
    report: &RunReport,
    filter: impl Fn(&local_decision::runner::CellResult) -> bool,
) -> (usize, usize) {
    let cells: Vec<_> = report.cells.iter().filter(|c| filter(c)).collect();
    (cells.iter().filter(|c| c.passed()).count(), cells.len())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Section 2: separation under bounded identifiers (runner sweep) ==");
    let config = SweepConfig {
        max_n: 64,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
        ..SweepConfig::default()
    };
    let scenario = scenarios::find("section2-sweep").ok_or("section2-sweep is not registered")?;
    let report = stream::collect(scenario.as_ref(), &config)?;

    let (verifier_ok, verifier_total) = count(&report, |c| c.spec.param("alg") == Some("verifier"));
    println!(
        "\nP' in LD*: the Id-oblivious structure verifier accepts every locally\n\
         consistent instance under every identifier regime: {verifier_ok}/{verifier_total} cells"
    );

    let (id_ok, id_total) = count(&report, |c| c.spec.param("alg") == Some("id-decider"));
    println!(
        "P  in LD : the Id-based decider (reject when Id(v) >= R(r)) matches its\n\
         expectation on every instance x regime: {id_ok}/{id_total} cells"
    );
    println!(
        "P  not in LD*: the `shifted` regime cells show the decider's verdict flips\n\
         with the identifier assignment — no Id-oblivious algorithm can do that."
    );

    let (promise_ok, promise_total) = count(&report, |c| {
        c.spec.param("family") == Some("cycle") && c.spec.param("instance") != Some("views")
    });
    println!(
        "\nPromise problem (n-cycle labelled r, n in {{r, 3r}}): {promise_ok}/{promise_total} \
         decider cells correct"
    );
    for cell in report.cells.iter().filter(|c| {
        c.spec.param("instance") == Some("views") && c.spec.param("family") == Some("cycle")
    }) {
        if let Ok(outcome) = &cell.outcome {
            println!(
                "  r = {:>2}: radius-2 views {} (coverage no-in-yes: {:.2})",
                cell.spec.param("r").unwrap_or("?"),
                outcome.verdict,
                outcome.metric("coverage_no_in_yes").unwrap_or(0.0),
            );
        }
    }

    println!(
        "\nsweep: {} cells, {} passed, cache hit rate {:.1}%, wall {:.2?} on {} threads",
        report.cells.len(),
        report.passed(),
        100.0 * report.cache_hit_rate(),
        report.total_wall,
        report.config.threads
    );
    RunReport::write("ldx-section2-sweep.json", &report.deterministic_json())?;
    println!("deterministic report: ldx-section2-sweep.json");

    if report.failed() + report.panicked() > 0 {
        return Err(format!(
            "{} cells failed, {} panicked",
            report.failed(),
            report.panicked()
        )
        .into());
    }
    Ok(())
}
