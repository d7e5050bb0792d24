//! Differential tests for the canonical-form engine: on random small
//! labelled graphs and random centre pairs, `canonical_code(a) ==
//! canonical_code(b)` must hold **iff** the backtracking oracle
//! (`ld_tests::oracle`) says the views are isomorphic — the canonical code
//! is a *total* invariant, unlike an isomorphism-invariant hash, which is
//! only guaranteed to agree on isomorphic inputs.
//!
//! The unit tests pin the classic colour-refinement blind spot: the 6-cycle
//! and two disjoint triangles (every node of both graphs is "degree 2 among
//! degree 2s" forever) are not isomorphic and get distinct canonical codes.

use ld_tests::oracle::{self, distinct_pairwise, oblivious_indistinguishable};
use ld_tests::strategies::{adversarial_ball, small_view_parts};
use local_decision::graph::canon::{canonical_code, centered_canonical_code};
use local_decision::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded random connected labelled graph with a distinguished centre
/// (from `ld_tests::strategies`).
fn arbitrary_view_parts() -> impl Strategy<Value = (Graph, Vec<u8>, usize, usize)> {
    small_view_parts()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine/oracle equivalence, across independent random view pairs:
    /// equal canonical codes iff the backtracking isomorphism oracle agrees.
    #[test]
    fn canonical_code_equals_iff_backtracking_oracle_agrees(
        a in arbitrary_view_parts(),
        b in arbitrary_view_parts(),
    ) {
        let (ga, la, ca, ra) = a;
        let (gb, lb, cb, rb) = b;
        let va = ObliviousView::from_parts(ga, NodeId::from(ca), ra, la);
        let vb = ObliviousView::from_parts(gb, NodeId::from(cb), rb, lb);
        prop_assert_eq!(
            va.canonical_code() == vb.canonical_code(),
            oblivious_indistinguishable(&va, &vb)
        );
    }

    /// The same equivalence on pairs that are *guaranteed* isomorphic (a
    /// node relabelling of one graph), so the "equal ⇒ equal" direction is
    /// exercised on every case, not just by collision luck.
    #[test]
    fn canonical_code_invariant_under_relabelling_differentially(
        parts in arbitrary_view_parts(),
        seed in any::<u64>(),
    ) {
        let (graph, labels, center, radius) = parts;
        let n = graph.node_count();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let relabeled = graph.relabel(&perm).unwrap();
        let mut new_labels = vec![0u8; n];
        for old in 0..n {
            new_labels[perm[old]] = labels[old];
        }
        let va = ObliviousView::from_parts(graph, NodeId::from(center), radius, labels);
        let vb = ObliviousView::from_parts(
            relabeled, NodeId::from(perm[center]), radius, new_labels,
        );
        prop_assert!(oblivious_indistinguishable(&va, &vb));
        prop_assert_eq!(va.canonical_code(), vb.canonical_code());
    }

    /// Centre pairs within one graph: the centred code distinguishes centres
    /// exactly as the centred backtracking oracle does.
    #[test]
    fn centered_codes_match_oracle_across_centre_pairs(parts in arbitrary_view_parts()) {
        let (graph, labels, _, radius) = parts;
        let colors: Vec<u64> = labels.iter().map(|l| u64::from(*l)).collect();
        for u in graph.nodes() {
            for v in graph.nodes() {
                let vu = ObliviousView::from_parts(
                    graph.clone(), u, radius, labels.clone(),
                );
                let vv = ObliviousView::from_parts(
                    graph.clone(), v, radius, labels.clone(),
                );
                prop_assert_eq!(
                    centered_canonical_code(&graph, u, &colors)
                        == centered_canonical_code(&graph, v, &colors),
                    oblivious_indistinguishable(&vu, &vv)
                );
            }
        }
    }

    /// The engine-level consequence: `distinct_oblivious_views` keyed by
    /// canonical codes selects exactly the representatives the oracle's
    /// pairwise dedup selects, in the same order.
    #[test]
    fn distinct_views_match_pairwise_oracle(parts in arbitrary_view_parts()) {
        let (graph, labels, _, radius) = parts;
        let labeled = LabeledGraph::new(graph, labels).unwrap();
        let views = enumeration::collect_oblivious_views(&labeled, radius);
        let engine = enumeration::distinct_oblivious_views(views.clone());
        let oracle = distinct_pairwise(views);
        prop_assert_eq!(engine, oracle);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Codes are relabelling-invariant on the full adversarial family mix
    /// (graphs of 63 to 65 nodes, disconnected remainders, duplicate-colour
    /// orbits, GMR balls), centred and uncentred.
    #[test]
    fn oracle_codes_are_invariant_under_relabelling_on_adversarial_balls(
        case in adversarial_ball(),
        perm_seed in any::<u64>(),
    ) {
        let copy = case.permuted_copy(perm_seed);
        prop_assert_eq!(
            canonical_code(&case.graph, &case.colors()),
            canonical_code(&copy.graph, &copy.colors())
        );
        prop_assert_eq!(
            centered_canonical_code(&case.graph, case.center_id(), &case.colors()),
            centered_canonical_code(&copy.graph, copy.center_id(), &copy.colors())
        );
    }
}

/// The fixed-family form of `distinct_views_match_pairwise_oracle`: the
/// engine and the oracle's pairwise dedup select identical representatives
/// in identical order on cycles, paths, labelled cycles, grids and cliques.
#[test]
fn canonical_engine_matches_pairwise_oracle() {
    for labeled in [
        LabeledGraph::uniform(generators::cycle(20), 0u8),
        LabeledGraph::uniform(generators::path(9), 0u8),
        LabeledGraph::from_fn(generators::cycle(12), |v| (v.index() % 3) as u8),
        LabeledGraph::uniform(generators::grid(4, 5), 0u8),
        LabeledGraph::uniform(generators::complete(5), 0u8),
    ] {
        for radius in 0..3 {
            let views = enumeration::collect_oblivious_views(&labeled, radius);
            let engine = enumeration::distinct_oblivious_views(views.clone());
            let oracle = distinct_pairwise(views);
            assert_eq!(engine, oracle, "radius {radius}");
        }
    }
}

/// Centred codes against the oracle on a handful of structured graphs and
/// all centre pairs, exhaustively.
#[test]
fn centered_codes_match_centered_isomorphism_on_small_graphs() {
    let graphs = [
        generators::cycle(5),
        generators::path(5),
        generators::star(4),
        generators::grid(2, 3),
        generators::complete(4),
    ];
    for g in &graphs {
        for h in &graphs {
            for cg in g.nodes() {
                for ch in h.nodes() {
                    let same = centered_canonical_code(g, cg, &vec![0; g.node_count()])
                        == centered_canonical_code(h, ch, &vec![0; h.node_count()]);
                    let iso = oracle::isomorphic(g, h, |_, _| true, &[(cg, ch)]);
                    assert_eq!(same, iso, "graphs {g:?} @{cg} vs {h:?} @{ch}");
                }
            }
        }
    }
}

#[test]
fn c6_vs_two_triangles_separated_by_code_not_by_wl() {
    let c6 = generators::cycle(6);
    let (two_c3, _) = generators::cycle(3).disjoint_union(&generators::cycle(3));
    let uniform = vec![0u64; 6];
    // Every node of both graphs is "degree 2 among degree 2s" forever, so
    // colour refinement is blind to this pair … but they are not
    // isomorphic, and the canonical code knows it.
    assert!(!oracle::isomorphic(&c6, &two_c3, |_, _| true, &[]));
    assert_ne!(
        canonical_code(&c6, &uniform),
        canonical_code(&two_c3, &uniform)
    );
}

#[test]
fn regular_bipartite_wl_blind_spot_is_separated() {
    // C8 ∪ C4 vs C12: 2-regular on 12 nodes, WL-indistinguishable as
    // unrooted uniformly-coloured graphs, structurally different.
    let c12 = generators::cycle(12);
    let (c8_c4, _) = generators::cycle(8).disjoint_union(&generators::cycle(4));
    let uniform = vec![0u64; 12];
    assert!(!oracle::isomorphic(&c12, &c8_c4, |_, _| true, &[]));
    assert_ne!(
        canonical_code(&c12, &uniform),
        canonical_code(&c8_c4, &uniform)
    );
}
