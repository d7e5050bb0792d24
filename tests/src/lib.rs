//! Integration-test crate (tests live under `tests/tests`).
//!
//! The library part ships two modules shared by the suites:
//!
//! - [`oracle`]: the backtracking isomorphism oracle.  The shipped
//!   libraries define view indistinguishability by `canonical_code`
//!   equality alone; the differential suites (`canon_differential.rs`,
//!   `radius3_budget.rs`, `view_canonical_properties.rs`,
//!   `model_properties.rs`) check that relation against this independent
//!   search.
//! - [`strategies`]: shared proptest generators for adversarial local
//!   views, reused by the canonical-code differential suites
//!   (`canon_differential.rs`, `fastcanon_differential.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod oracle;
pub mod strategies;
