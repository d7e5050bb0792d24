//! Differential conformance for the committed scenario documents.
//!
//! Every built-in is defined only by its file `scenarios/<name>.json`: the
//! registry embeds them at compile time.  These tests pin that each
//! registry entry *is* its file — the in-memory report from
//! `scenarios::find` is byte-identical to the streamed report from
//! `ScenarioDoc::from_text` of the file at 1 and 4 threads — and that
//! document-backed sweeps resume to identical bytes.  (CI re-checks the
//! files end-to-end through the `ldx` binary.)

use ld_runner::stream::{self, Checkpoint, StreamOptions};
use ld_runner::{scenarios, Scenario, ScenarioDoc, SweepConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const SECTION2_DOC: &str = include_str!("../../scenarios/section2-sweep.json");
const SECTION2_R3_DOC: &str = include_str!("../../scenarios/section2-sweep-r3.json");
const NEW_FAMILIES_DOC: &str = include_str!("../../scenarios/new-families.json");

const DETERMINISTIC: StreamOptions = StreamOptions {
    deterministic: true,
    max_shards: None,
    csv: None,
};

fn temp_path(tag: &str) -> PathBuf {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ld-tests-dsl-{}-{tag}-{n}.json",
        std::process::id()
    ))
}

fn cleanup(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(Checkpoint::path_for(path));
}

/// The sized-down configs the differential runs use: `section2-sweep` at
/// the streaming suite's 24-node envelope, `section2-sweep-r3` under the
/// budget CI pins for the r3 golden report.
fn config(max_n: usize, threads: usize) -> SweepConfig {
    SweepConfig {
        max_n,
        threads,
        seed: 0xd51,
        shard_size: 4,
        ..SweepConfig::default()
    }
}

fn r3_config(threads: usize) -> SweepConfig {
    SweepConfig {
        node_budget: Some(2_000_000),
        ..config(128, threads)
    }
}

/// Byte-compares the registry entry's in-memory report against the
/// streamed report of the document parsed from the file, at 1 and 4
/// threads.
fn assert_byte_identical(
    doc_text: &str,
    builtin_name: &str,
    make_config: &dyn Fn(usize) -> SweepConfig,
) {
    let doc = ScenarioDoc::from_text(doc_text).expect("committed scenario parses");
    assert_eq!(doc.name(), builtin_name);
    let builtin = scenarios::find(builtin_name).expect("builtin is registered");
    assert_eq!(builtin.description(), doc.description());

    let reference = stream::collect(builtin.as_ref(), &make_config(1))
        .unwrap_or_else(|e| panic!("{builtin_name}: {e}"))
        .deterministic_json();

    for threads in [1, 4] {
        let path = temp_path(&format!("{builtin_name}-t{threads}"));
        let summary = stream::run(&doc, &make_config(threads), &path, &DETERMINISTIC)
            .unwrap_or_else(|e| panic!("{builtin_name} (doc, t{threads}): {e}"));
        assert!(summary.completed, "{builtin_name} at {threads} threads");
        let streamed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            streamed, reference,
            "{builtin_name} at {threads} threads: streamed bytes of the file diverge from the registry entry"
        );
        cleanup(&path);
    }
}

/// Every registry entry against its file, at the small `max_n` (and node
/// budget) its `builtin_golden` row pins.
#[test]
fn every_registry_entry_is_byte_identical_to_its_file() {
    let sizes = [
        ("section2-sweep", 24, None),
        ("section2-sweep-r3", 48, Some(2_000_000)),
        ("section2-sweep-xl", 48, None),
        ("section3-sweep", 24, None),
        ("pyramid-sweep", 24, None),
        ("randomized-sweep", 24, None),
        ("randomized-sweep-xl", 24, None),
        ("relationship-table", 24, None),
    ];
    let registry = scenarios::all();
    assert_eq!(registry.len(), sizes.len(), "one row per built-in");
    for (scenario, (name, max_n, node_budget)) in registry.iter().zip(sizes) {
        assert_eq!(scenario.name(), name, "the rows follow the registry");
        let file = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../scenarios")
            .join(format!("{name}.json"));
        let text =
            std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        assert_byte_identical(&text, name, &|threads| SweepConfig {
            node_budget,
            ..config(max_n, threads)
        });
    }
}

#[test]
fn committed_section2_doc_is_byte_identical_to_the_builtin() {
    assert_byte_identical(SECTION2_DOC, "section2-sweep", &|threads| {
        config(24, threads)
    });
}

#[test]
fn committed_r3_doc_is_byte_identical_to_the_builtin() {
    assert_byte_identical(SECTION2_R3_DOC, "section2-sweep-r3", &r3_config);
}

/// The new-families document is not registered; its contract is
/// determinism — identical bytes across thread counts and across the
/// in-memory and streaming paths — plus a clean verdict sheet.
#[test]
fn new_families_doc_is_deterministic_across_threads_and_paths() {
    let doc = ScenarioDoc::from_text(NEW_FAMILIES_DOC).expect("committed scenario parses");
    let cfg = |threads| SweepConfig {
        max_n: 40,
        threads,
        seed: 0xfa0,
        shard_size: 4,
        ..SweepConfig::default()
    };
    let report = stream::collect(&doc, &cfg(1)).unwrap();
    assert_eq!(report.failed(), 0, "new-families cells must pass");
    assert_eq!(report.panicked(), 0);
    let reference = report.deterministic_json();
    for threads in [1, 4] {
        let path = temp_path(&format!("new-families-t{threads}"));
        let summary = stream::run(&doc, &cfg(threads), &path, &DETERMINISTIC).unwrap();
        assert!(summary.completed);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            reference,
            "new-families at {threads} threads diverges"
        );
        cleanup(&path);
    }
}

/// A DSL-backed sweep interrupted mid-run resumes through
/// `resume_with_scenario` and finishes with the same bytes as an
/// uninterrupted run — the property that lets `ldx resume --file` and the
/// server's resume path accept documents.
#[test]
fn interrupted_dsl_sweeps_resume_to_identical_bytes() {
    let doc = ScenarioDoc::from_text(SECTION2_DOC).expect("committed scenario parses");
    let reference = stream::collect(&doc, &config(24, 1))
        .unwrap()
        .deterministic_json();
    let path = temp_path("section2-resume");
    let partial = StreamOptions {
        max_shards: Some(2),
        ..DETERMINISTIC
    };
    let summary = stream::run(&doc, &config(24, 2), &path, &partial).unwrap();
    assert!(!summary.completed, "two shards must not finish the sweep");
    assert!(Checkpoint::path_for(&path).exists());
    let resumed = stream::resume_with_scenario(&path, Some(2), None, &doc).unwrap();
    assert!(resumed.completed);
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        reference,
        "resumed DSL sweep diverges from the uninterrupted reference"
    );
    cleanup(&path);
}

/// Resuming under a *different* document is refused by name — the
/// checkpoint names the scenario it belongs to.
#[test]
fn resume_refuses_a_mismatched_document() {
    let doc = ScenarioDoc::from_text(SECTION2_DOC).expect("committed scenario parses");
    let other = ScenarioDoc::from_text(NEW_FAMILIES_DOC).expect("committed scenario parses");
    let path = temp_path("section2-mismatch");
    let partial = StreamOptions {
        max_shards: Some(1),
        ..DETERMINISTIC
    };
    let summary = stream::run(&doc, &config(24, 1), &path, &partial).unwrap();
    assert!(!summary.completed);
    let err = stream::resume_with_scenario(&path, Some(1), None, &other)
        .expect_err("a mismatched document must be refused");
    assert!(
        err.contains("does not match"),
        "error should explain the name mismatch: {err}"
    );
    cleanup(&path);
}
