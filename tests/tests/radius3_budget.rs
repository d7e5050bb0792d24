//! Differential and determinism tests for the budgeted radius-3
//! enumeration layer.
//!
//! The canonical-code fast path (`distinct_oblivious_views_of`) must agree
//! with pairwise dedup by the backtracking isomorphism oracle
//! (`ld_tests::oracle::distinct_pairwise`) on radius-3 views of arbitrary
//! small graphs, and the budgeted variants must be exact under an unlimited
//! budget and deterministically prefix-stable under a tight one.

use ld_tests::oracle::distinct_pairwise;
use local_decision::local::cache::ViewCache;
use local_decision::local::enumeration::{
    distinct_oblivious_views_of_budgeted, distinct_views_by_radius_cached, EnumerationBudget,
};
use local_decision::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded random connected labelled graph.
fn arbitrary_labeled() -> impl Strategy<Value = LabeledGraph<u8>> {
    (3usize..=12, 0usize..=10, any::<u64>()).prop_map(|(n, extra, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::random_connected(n, extra, &mut rng);
        LabeledGraph::from_fn(graph, |v| {
            let _ = v;
            rng.gen_range(0u8..3)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Radius-3 dedup through canonical codes selects exactly the views the
    /// pairwise backtracking oracle selects, in the same order.
    #[test]
    fn radius3_dedup_agrees_with_the_pairwise_oracle(labeled in arbitrary_labeled()) {
        let views = enumeration::collect_oblivious_views(&labeled, 3);
        let engine = enumeration::distinct_oblivious_views(views.clone());
        let oracle = distinct_pairwise(views);
        prop_assert_eq!(&engine, &oracle);
        // The in-place fast path and its budgeted twin agree with both.
        let fast = enumeration::distinct_oblivious_views_of(&labeled, 3);
        prop_assert_eq!(fast.len(), oracle.len());
        let (budgeted, usage) =
            distinct_oblivious_views_of_budgeted(&labeled, 3, EnumerationBudget::UNLIMITED);
        prop_assert!(!usage.exhausted);
        prop_assert_eq!(&budgeted, &fast);
    }

    /// A capped enumeration exhausts at a reproducible point and returns a
    /// prefix of the full answer.
    #[test]
    fn capped_radius3_enumeration_is_deterministic(
        labeled in arbitrary_labeled(),
        cap in 1u64..200,
    ) {
        let (full, full_usage) =
            distinct_oblivious_views_of_budgeted(&labeled, 3, EnumerationBudget::UNLIMITED);
        let budget = EnumerationBudget::nodes(cap);
        let (a, usage_a) = distinct_oblivious_views_of_budgeted(&labeled, 3, budget);
        let (b, usage_b) = distinct_oblivious_views_of_budgeted(&labeled, 3, budget);
        prop_assert_eq!(usage_a, usage_b);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(usage_a.exhausted, cap < full_usage.nodes_visited);
        prop_assert!(a.len() <= full.len());
        prop_assert_eq!(&a[..], &full[..a.len()]);
    }

    /// The incremental all-radii profile matches independent per-radius
    /// enumeration on every radius up to 3.
    #[test]
    fn incremental_profile_matches_per_radius_enumeration(labeled in arbitrary_labeled()) {
        let cache = ViewCache::new();
        let (profile, usage) =
            distinct_views_by_radius_cached(&labeled, 3, &cache, EnumerationBudget::UNLIMITED);
        prop_assert!(!usage.exhausted);
        for (radius, views) in profile.iter().enumerate() {
            let reference = enumeration::distinct_oblivious_views_of(&labeled, radius);
            prop_assert_eq!(views, &reference);
        }
    }
}
