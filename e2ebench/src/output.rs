//! Rendering a run: the full result record (with provenance and spreads),
//! the one-line summary that ends the output, and the human tables.

use crate::probe;
use crate::workload::{Metric, Options, Results};
use ld_runner::json::Json;
use std::fmt::Write;

/// The metrics a run reports: per-layer ones when traced, end-to-end ones
/// otherwise.
fn reported<'a>(options: &Options, results: &'a Results) -> &'a [Metric] {
    if options.trace {
        &results.per_layer
    } else {
        &results.end_to_end
    }
}

/// The final stdout line: `correct`, `attempted`, `failed` and each
/// reported metric's value and unit.
pub fn summary_line(options: &Options, results: &Results) -> String {
    let metrics = reported(options, results)
        .iter()
        .fold(Json::object(), |acc, m| {
            acc.set(
                m.name,
                Json::object().set("value", m.value).set("unit", m.unit),
            )
        });
    Json::object()
        .set("correct", results.failed == 0)
        .set("attempted", results.attempted)
        .set("failed", results.failed)
        .set("metrics", metrics)
        .render_compact()
}

/// The full result record: provenance, counts, and every metric with its
/// sample count, quartiles and median.
pub fn record_line(options: &Options, results: &Results) -> String {
    let metric_json = |m: &Metric| {
        Json::object()
            .set("unit", m.unit)
            .set("value", m.value)
            .set("samples", m.summary.n)
            .set("q1", m.summary.q1)
            .set("median", m.summary.median)
            .set("q3", m.summary.q3)
    };
    let metrics = reported(options, results)
        .iter()
        .chain(&results.named)
        .fold(Json::object(), |acc, m| acc.set(m.name, metric_json(m)));
    let layers = results.layers.iter().map(|row| {
        Json::object()
            .set("layer", row.layer)
            .set("self_s", row.self_s)
            .set("share", row.share)
            .set("counters", row.counters.as_str())
    });
    let spans = results
        .spans
        .iter()
        .fold(Json::object(), |acc, (name, n, s)| {
            acc.set(name, Json::object().set("count", *n).set("total_s", *s))
        });
    Json::object()
        .set("record", "e2ebench/result/v1")
        .set("workload", options.workload.name())
        .set("trace", options.trace)
        .set("seed", options.seed)
        .set("seconds", options.seconds)
        .set(
            "provenance",
            Json::object()
                .set("nproc", probe::nproc())
                .set("git_rev", probe::git_revision())
                .set("rustc", probe::rustc_version()),
        )
        .set("attempted", results.attempted)
        .set("failed", results.failed)
        .set("metrics", metrics)
        .set("layers", Json::Arr(layers.collect()))
        .set("spans", spans)
        .render_compact()
}

/// Human-readable tables: every metric with unit and spread, then (traced
/// runs) the layer table, then any failure messages.
pub fn tables(options: &Options, results: &Results) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "e2ebench {} seed={} trace={} attempted={} failed={}",
        options.workload.name(),
        options.seed,
        u8::from(options.trace),
        results.attempted,
        results.failed
    );
    let _ = writeln!(
        out,
        "  {:<34} {:>14} {:<6} {:>5} {:>12} {:>12}",
        "metric", "value", "unit", "n", "q1", "q3"
    );
    for m in reported(options, results).iter().chain(&results.named) {
        let _ = writeln!(
            out,
            "  {:<34} {:>14.6} {:<6} {:>5} {:>12.6} {:>12.6}",
            m.name, m.value, m.unit, m.summary.n, m.summary.q1, m.summary.q3
        );
    }
    if !results.layers.is_empty() {
        let _ = writeln!(
            out,
            "  {:<22} {:>10} {:>7}  counters",
            "layer", "self_s", "share"
        );
        for row in &results.layers {
            let _ = writeln!(
                out,
                "  {:<22} {:>10.4} {:>6.1}%  {}",
                row.layer,
                row.self_s,
                row.share * 100.0,
                row.counters
            );
        }
    }
    for error in &results.errors {
        let _ = writeln!(out, "  FAILED: {error}");
    }
    out
}
