//! Differential tests for the word-parallel bitset canon kernel
//! (`ld_graph::fastcanon`) against the original canonicalisation path
//! (`ld_graph::canon::*_oracle`), which this suite treats as the oracle.
//!
//! The kernel's contract is **byte-identity**: for every graph in its
//! ≤ 64-node regime it must produce exactly the words the oracle produces —
//! not merely an equivalent invariant — so that caches, reports and
//! on-disk sweep artifacts are independent of which path computed a code.
//! Every proptest here therefore asserts `==` on whole [`CanonicalCode`]s
//! across the adversarial family mix from [`ld_tests::strategies`]:
//! random trees, grids, cycles, exactly-64-node boundary instances,
//! disconnected remainders, duplicate-colour orbits, and Section 3
//! Turing-machine execution-grid (GMR) balls.
//!
//! The suite runs the public entry points, which dispatch on graph size
//! and `LD_CANON_FALLBACK` and are the only way into the kernel.  Every call
//! on a thread reuses that thread's one kernel scratch, so besides the
//! dispatch seam the suite differences repeated heterogeneous calls on one
//! thread against the oracle, where state leaking between calls would show.
//! Under
//! `LD_CANON_FALLBACK=1` every assertion collapses to `oracle == oracle`
//! and still passes — the suite is meaningful precisely when the kernel is
//! live, which is how CI runs it.

use ld_tests::strategies::{adversarial_ball, isomorphic_ball_pair};
use local_decision::graph::canon::{
    canonical_code, canonical_code_oracle, centered_canonical_code, centered_canonical_code_oracle,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Public entry points (kernel-dispatching) against the oracle:
    /// uncentred and centred codes must be byte-identical.
    #[test]
    fn public_entry_points_match_the_oracle(case in adversarial_ball()) {
        let colors = case.colors();
        prop_assert_eq!(
            canonical_code(&case.graph, &colors),
            canonical_code_oracle(&case.graph, &colors)
        );
        prop_assert_eq!(
            centered_canonical_code(&case.graph, case.center_id(), &colors),
            centered_canonical_code_oracle(&case.graph, case.center_id(), &colors)
        );
    }

    /// One thread's scratch serves every call: reusing it across
    /// heterogeneous cases (`a`, `b`, then `a` again) must not leak state
    /// from one call into the next.
    #[test]
    fn thread_scratch_reuse_matches_the_oracle(
        a in adversarial_ball(),
        b in adversarial_ball(),
    ) {
        for case in [&a, &b, &a] {
            let colors = case.colors();
            prop_assert_eq!(
                canonical_code(&case.graph, &colors),
                canonical_code_oracle(&case.graph, &colors)
            );
            prop_assert_eq!(
                centered_canonical_code(&case.graph, case.center_id(), &colors),
                centered_canonical_code_oracle(&case.graph, case.center_id(), &colors)
            );
        }
    }

    /// Guaranteed-isomorphic pairs (node relabelings): the kernel must map
    /// both sides to one code, and that code must be the oracle's.
    #[test]
    fn kernel_codes_agree_on_isomorphic_pairs(pair in isomorphic_ball_pair()) {
        let (a, b) = pair;
        let code_a = canonical_code(&a.graph, &a.colors());
        let code_b = canonical_code(&b.graph, &b.colors());
        prop_assert_eq!(&code_a, &code_b);
        prop_assert_eq!(&code_a, &canonical_code_oracle(&a.graph, &a.colors()));
        prop_assert_eq!(
            centered_canonical_code(&a.graph, a.center_id(), &a.colors()),
            centered_canonical_code(&b.graph, b.center_id(), &b.colors())
        );
    }
}
