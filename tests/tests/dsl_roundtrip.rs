//! Fuzz + round-trip conformance for the scenario DSL parser
//! (`ld_runner::dsl`), the surface every `--file` scenario, every
//! submitted `scenario_doc` and the registry's embedded built-ins go
//! through.
//!
//! Three contracts are pinned here:
//!
//! 1. **Canonical fixed point** — for every valid document,
//!    `parse(to_json(doc)) == doc`, and the canonical rendering is itself
//!    render-stable.  This is what makes committed scenario files
//!    diffable and lets the server persist a submitted document verbatim.
//! 2. **Typed rejection** — mutating a valid document (unknown fields,
//!    wrong schema, bogus tokens) yields the matching [`DslError`]
//!    variant with its stable token, never a panic and never silent
//!    acceptance.
//! 3. **Totality** — `ScenarioDoc::parse` terminates without panicking on
//!    *arbitrary* JSON values, and `from_text` rejects pathological
//!    nesting with a message instead of a stack overflow.

use ld_runner::json::Json;
use ld_runner::{DslError, ScenarioDoc};
use ld_tests::strategies::{arbitrary_doc, arbitrary_workload};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SCHEMA: &str = "ld-runner/scenario/v1";

/// An arbitrary JSON value of bounded depth — *not* shaped like a
/// scenario — for the totality test.
fn arbitrary_json(rng: &mut StdRng, depth: usize) -> Json {
    let scalar_only = depth == 0;
    match rng.gen_range(0..if scalar_only { 6 } else { 8 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen()),
        2 => Json::U64(rng.gen()),
        3 => Json::I64(rng.gen()),
        4 => Json::F64(f64::from(rng.gen::<u32>()) + 0.5),
        5 => {
            const POOL: &[&str] = &[
                "schema",
                "name",
                "workloads",
                "kind",
                "sweep",
                "ladder",
                "radius",
                "randomized-gmr",
                "section3-zoo",
                "pyramid",
                "relationship-table",
                SCHEMA,
                "",
            ];
            Json::Str(POOL[rng.gen_range(0..POOL.len())].to_string())
        }
        6 => Json::Arr(
            (0..rng.gen_range(0..4))
                .map(|_| arbitrary_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0..4))
                .map(|_| {
                    const KEYS: &[&str] = &[
                        "schema",
                        "name",
                        "description",
                        "workloads",
                        "kind",
                        "family",
                        "ladder",
                        "radius",
                        "ids",
                        "decider",
                        "speeds",
                        "views",
                        "step-divisor",
                        "scaled-budget",
                        "junk",
                    ];
                    (
                        KEYS[rng.gen_range(0..KEYS.len())].to_string(),
                        arbitrary_json(rng, depth - 1),
                    )
                })
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every valid document is a fixed point of `parse ∘ to_json`, and the
    /// canonical rendering is render-stable through `from_text`.
    #[test]
    fn canonical_form_is_a_parse_fixed_point(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let json = arbitrary_doc(&mut rng);
        let doc = ScenarioDoc::parse(&json)
            .map_err(|e| TestCaseError::fail(format!("{e} in {}", json.render())))?;
        let canon = doc.to_json();
        let reparsed = ScenarioDoc::parse(&canon).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&reparsed, &doc);
        let text = canon.render();
        let again = ScenarioDoc::from_text(&text).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(again.to_json().render(), text);
    }

    /// An unknown key injected at document level is rejected with the
    /// `unknown-field` token and names the stray key.
    #[test]
    fn unknown_document_fields_are_rejected_typed(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let json = arbitrary_doc(&mut rng).set("surprise", true);
        let err = ScenarioDoc::parse(&json).expect_err("stray key must not parse");
        prop_assert_eq!(err.token(), "unknown-field");
        prop_assert!(err.to_string().contains("surprise"), "{}", err);
    }

    /// An unknown key injected into a workload stanza is rejected with the
    /// `unknown-field` token (stanzas reject fields other kinds define).
    #[test]
    fn unknown_stanza_fields_are_rejected_typed(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let stanza = arbitrary_workload(&mut rng).set("surprise", 1u64);
        let json = Json::object()
            .set("schema", SCHEMA)
            .set("name", "x")
            .set("workloads", Json::Arr(vec![stanza]));
        let err = ScenarioDoc::parse(&json).expect_err("stray stanza key must not parse");
        prop_assert_eq!(err.token(), "unknown-field");
    }

    /// A wrong or missing schema line is rejected with the
    /// `scenario-schema` token no matter what the rest of the document
    /// says.
    #[test]
    fn schema_mismatch_is_rejected_typed(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let valid = arbitrary_doc(&mut rng);
        let wrong = valid.clone().set("schema", "ld-runner/scenario/v0");
        prop_assert_eq!(
            ScenarioDoc::parse(&wrong).expect_err("wrong schema must not parse").token(),
            "scenario-schema"
        );
        let Json::Obj(fields) = valid else { unreachable!("documents are objects") };
        let absent = Json::Obj(fields.into_iter().filter(|(k, _)| k != "schema").collect());
        prop_assert_eq!(
            ScenarioDoc::parse(&absent).expect_err("absent schema must not parse").token(),
            "scenario-schema"
        );
    }

    /// `parse` is total on arbitrary JSON: it returns a typed result and
    /// never panics, and anything it accepts satisfies the fixed point.
    #[test]
    fn parse_is_total_on_arbitrary_json(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let json = arbitrary_json(&mut rng, 4);
        match ScenarioDoc::parse(&json) {
            Ok(doc) => {
                let reparsed = ScenarioDoc::parse(&doc.to_json())
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                prop_assert_eq!(reparsed, doc);
            }
            Err(e) => {
                prop_assert!(!e.token().is_empty());
                prop_assert!((64..=68).contains(&e.exit_code()), "{}", e.exit_code());
            }
        }
    }

    /// Pathological nesting in scenario *text* is rejected with a typed
    /// parse error, not a stack overflow.
    #[test]
    fn deep_nesting_is_rejected_not_overflowed(depth in 200usize..=4096) {
        let text = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        let err = ScenarioDoc::from_text(&text).expect_err("deep nesting must not parse");
        prop_assert_eq!(err.token(), "scenario-parse");
        prop_assert!(matches!(err, DslError::Parse { .. }));
    }
}

/// The committed scenario files are already canonical: parsing and
/// re-rendering them reproduces their bytes exactly.  This is the
/// committed-file face of the fixed-point property above, and what keeps
/// `scenarios/*.json` diffable against the canonical renderer.
#[test]
fn committed_scenario_files_are_canonical() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../scenarios");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("scenarios/ is readable")
        .map(|entry| entry.expect("scenarios/ entries are readable").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 9, "the eight built-ins plus new-families");
    for path in files {
        let text = std::fs::read_to_string(&path).expect("committed scenarios are readable");
        let doc = ScenarioDoc::from_text(&text).expect("committed scenarios parse");
        assert_eq!(
            doc.to_json().render(),
            text,
            "{} drifted from canonical form",
            path.display()
        );
    }
}

/// The golden fixtures under `tests/fixtures/` pin the committed scenario
/// files byte-for-byte: editing `scenarios/*.json` without re-blessing the
/// fixture (and vice versa) fails here, so accidental drift in either
/// copy is caught at review time.
#[test]
fn scenario_fixtures_pin_the_committed_files() {
    for (fixture, committed) in [
        (
            include_str!("../fixtures/scenario-section2-sweep.json"),
            include_str!("../../scenarios/section2-sweep.json"),
        ),
        (
            include_str!("../fixtures/scenario-section2-sweep-r3.json"),
            include_str!("../../scenarios/section2-sweep-r3.json"),
        ),
        (
            include_str!("../fixtures/scenario-new-families.json"),
            include_str!("../../scenarios/new-families.json"),
        ),
    ] {
        assert_eq!(
            fixture, committed,
            "golden fixture diverged from scenarios/"
        );
        ScenarioDoc::from_text(fixture).expect("golden fixture parses");
    }
}
