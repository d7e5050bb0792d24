//! Property-based tests for the canonicalisation layer every
//! indistinguishability harness (and now the runner's shared view cache)
//! rests on: `canonical_code` — the shipped definition of
//! indistinguishability — must be invariant under node relabelings and
//! under label-preserving port permutations (re-orderings of each node's
//! adjacency list), and so must the backtracking oracle
//! (`ld_tests::oracle`) it is checked against.

use ld_tests::oracle::{indistinguishable, oblivious_indistinguishable};
use local_decision::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A seeded random connected labelled graph with a distinguished centre.
fn arbitrary_view_parts() -> impl Strategy<Value = (Graph, Vec<u8>, usize, usize)> {
    (3usize..=14, 0usize..=10, any::<u64>(), 0usize..3).prop_map(|(n, extra, seed, radius)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::random_connected(n, extra, &mut rng);
        let labels: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..3)).collect();
        let center = rng.gen_range(0..n);
        (graph, labels, center, radius)
    })
}

/// A random permutation of `0..n` derived from `seed`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd_ef01);
    perm.shuffle(&mut rng);
    perm
}

/// Rebuilds `graph` with its edges inserted in a shuffled order: the same
/// abstract graph, but every node's ports (adjacency order) are permuted.
fn permute_ports(graph: &Graph, seed: u64) -> Graph {
    let mut edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca1_ab1e);
    edges.shuffle(&mut rng);
    let mut out = Graph::with_nodes(graph.node_count());
    for (u, v) in edges {
        // Flipping endpoints permutes ports further without changing the
        // edge set.
        if rng.gen_bool(0.5) {
            out.add_edge(v, u).unwrap();
        } else {
            out.add_edge(u, v).unwrap();
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Relabeling the nodes of a view (and mapping centre, labels and ids
    /// along) never changes `canonical_code` or distinguishability.
    #[test]
    fn canonical_code_invariant_under_node_relabeling(
        parts in arbitrary_view_parts(),
        seed in any::<u64>(),
    ) {
        let (graph, labels, center, radius) = parts;
        let n = graph.node_count();
        let ids: Vec<u64> = (0..n as u64).map(|i| 100 + 7 * i).collect();
        let view = View::from_parts(
            graph.clone(), NodeId::from(center), radius, labels.clone(), ids.clone(),
        );

        // perm[old] = new index, matching Graph::relabel's convention.
        let perm = permutation(n, seed);
        let relabeled = graph.relabel(&perm).unwrap();
        let mut new_labels = vec![0u8; n];
        let mut new_ids = vec![0u64; n];
        for old in 0..n {
            new_labels[perm[old]] = labels[old];
            new_ids[perm[old]] = ids[old];
        }
        let relabeled_view = View::from_parts(
            relabeled, NodeId::from(perm[center]), radius, new_labels.clone(), new_ids,
        );

        prop_assert_eq!(view.canonical_code(), relabeled_view.canonical_code());
        prop_assert!(indistinguishable(&view, &relabeled_view));

        let oblivious = view.without_ids();
        let relabeled_oblivious = relabeled_view.without_ids();
        prop_assert_eq!(oblivious.canonical_code(), relabeled_oblivious.canonical_code());
        prop_assert!(oblivious_indistinguishable(&oblivious, &relabeled_oblivious));
    }

    /// Re-ordering every node's ports (adjacency lists) while keeping node
    /// names and labels fixed never changes `canonical_code` or
    /// distinguishability.
    #[test]
    fn canonical_code_invariant_under_port_permutation(
        parts in arbitrary_view_parts(),
        seed in any::<u64>(),
    ) {
        let (graph, labels, center, radius) = parts;
        let permuted = permute_ports(&graph, seed);
        prop_assert_eq!(graph.node_count(), permuted.node_count());
        prop_assert_eq!(graph.edge_count(), permuted.edge_count());

        let ids: Vec<u64> = (0..graph.node_count() as u64).map(|i| 100 + 7 * i).collect();
        let a = View::from_parts(graph, NodeId::from(center), radius, labels.clone(), ids.clone());
        let b = View::from_parts(permuted, NodeId::from(center), radius, labels, ids);
        prop_assert_eq!(a.canonical_code(), b.canonical_code());
        prop_assert!(indistinguishable(&a, &b));

        let (a, b) = (a.without_ids(), b.without_ids());
        prop_assert_eq!(a.canonical_code(), b.canonical_code());
        prop_assert!(oblivious_indistinguishable(&a, &b));
    }

    /// Distinct centres in an asymmetric position, or distinct labels, do
    /// change the code — the code is not a constant.  (Sanity check that
    /// the invariance tests test something.)
    #[test]
    fn canonical_code_depends_on_labels(parts in arbitrary_view_parts()) {
        let (graph, labels, center, radius) = parts;
        let ids: Vec<u64> = (0..graph.node_count() as u64).map(|i| 100 + 7 * i).collect();
        let a = View::from_parts(
            graph.clone(), NodeId::from(center), radius, labels.clone(), ids.clone(),
        );
        let mut flipped = labels;
        flipped[center] = flipped[center].wrapping_add(1) % 3;
        let b = View::from_parts(graph, NodeId::from(center), radius, flipped, ids);
        prop_assert_ne!(a.canonical_code(), b.canonical_code());
        prop_assert!(!indistinguishable(&a, &b));

        let (a, b) = (a.without_ids(), b.without_ids());
        prop_assert_ne!(a.canonical_code(), b.canonical_code());
        prop_assert!(!oblivious_indistinguishable(&a, &b));
    }
}
