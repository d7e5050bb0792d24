//! Structural property tests for the graph families the scenario DSL's
//! `sweep` stanza opens up: random `d`-regular (pairing model), power-law
//! (preferential attachment) and circulant graphs.
//!
//! These pin exactly the invariants the DSL's degree-profile decider
//! relies on — regular graphs are *exactly* regular, power-law graphs
//! respect the `attach` lower bound and develop a heavy tail, circulants
//! with coprime offsets are connected at every size — plus the canon
//! contract on balls drawn from the new families: codes survive
//! relabelling and are equal exactly when the backtracking oracle finds a
//! centre- and colour-preserving isomorphism, because DSL sweep reports
//! cache and compare canonical view codes.

use ld_tests::oracle;
use local_decision::graph::canon::{canonical_code, centered_canonical_code};
use local_decision::graph::Ball;
use local_decision::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pairing model delivers graphs that are *exactly* `d`-regular
    /// and simple — the invariant the DSL's degree-profile decider
    /// accepts on.  (Degrees stay ≤ 4: the model's per-attempt simplicity
    /// probability decays like `exp(-(d²-1)/4)`, so the generator's
    /// restart cap is only comfortably sure below that.)
    #[test]
    fn random_regular_graphs_are_exactly_regular_and_simple(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = rng.gen_range(2..=4usize);
        let mut n = rng.gen_range(d + 1..=48);
        if n * d % 2 == 1 {
            n += 1;
        }
        let g = generators::random_regular(n, d, &mut rng)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), n * d / 2);
        for v in g.nodes() {
            prop_assert_eq!(g.degree(v).unwrap(), d);
            prop_assert!(!g.has_edge(v, v), "self-loop at {:?}", v);
        }
    }

    /// Parity-impossible and degree-overflowing parameters are rejected
    /// with an error, never silently fudged.
    #[test]
    fn random_regular_rejects_impossible_parameters(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        // n * d odd: no d-regular graph exists.
        let n = rng.gen_range(2..=24usize) * 2 + 1;
        let d = rng.gen_range(1..=(n - 2) / 2) * 2 + 1;
        prop_assert!(generators::random_regular(n, d, &mut rng).is_err());
        // d >= n: simple graphs cap degree at n - 1.
        let n = rng.gen_range(1..=16usize);
        prop_assert!(generators::random_regular(n, n, &mut rng).is_err());
    }

    /// Preferential attachment: connected, every degree at least `m`
    /// (the DSL's power-law degree-profile invariant), and the exact edge
    /// count of a seed clique plus `m` edges per arrival.
    #[test]
    fn preferential_attachment_is_connected_with_min_degree_m(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = rng.gen_range(1..=4usize);
        let n = rng.gen_range(m + 2..=64);
        let g = generators::preferential_attachment(n, m, &mut rng)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), m * (m + 1) / 2 + (n - m - 1) * m);
        prop_assert!(g.is_connected());
        prop_assert!(g.min_degree() >= m, "min degree {} < m = {}", g.min_degree(), m);
    }

    /// Circulants with gcd-1 offsets (the only kind the DSL admits) are
    /// vertex-transitive — every node has the same degree, the number of
    /// distinct nonzero residues `±o mod n` — and connected at every size
    /// above the largest offset.
    #[test]
    fn circulant_graphs_are_regular_and_connected(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let offsets: Vec<usize> = if rng.gen() {
            vec![1, rng.gen_range(2..=6)]
        } else {
            vec![2, 3]
        };
        let max_offset = *offsets.iter().max().unwrap();
        let n = rng.gen_range(max_offset + 1..=64);
        let g = generators::circulant(n, &offsets)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(g.node_count(), n);
        let mut residues: Vec<usize> = offsets
            .iter()
            .flat_map(|&o| [o % n, (n - o % n) % n])
            .filter(|&r| r != 0)
            .collect();
        residues.sort_unstable();
        residues.dedup();
        for v in g.nodes() {
            prop_assert_eq!(g.degree(v).unwrap(), residues.len());
        }
        prop_assert!(g.is_connected(), "C_{}({:?}) must be connected", n, offsets);
    }

    /// Balls extracted from any of the new families are connected (a ball
    /// is a BFS-induced subgraph) and never larger than `1 + Δ·(Δ-1)^(r-1)
    /// · r` — sanity the view layer depends on.
    #[test]
    fn balls_from_new_families_are_connected(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = arbitrary_family_instance(&mut rng);
        let center = NodeId::from(rng.gen_range(0..g.node_count()));
        let radius = rng.gen_range(1..=3usize);
        let ball = g.ball(center, radius);
        prop_assert!(ball.graph().is_connected());
        prop_assert!(ball.node_count() <= g.node_count());
        prop_assert_eq!(ball.distance_from_center(ball.center()), 0);
    }

    /// Canonical codes of new-family balls are invariant under a random
    /// relabelling, and two balls drawn from one instance get equal codes
    /// exactly when the oracle finds a colour-preserving isomorphism
    /// (centre-preserving too, for centred codes).
    #[test]
    fn canonical_codes_match_the_oracle_on_new_family_balls(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = arbitrary_family_instance(&mut rng);
        let (a, a_colors) = arbitrary_coloured_ball(&g, &mut rng);
        let (b, b_colors) = arbitrary_coloured_ball(&g, &mut rng);

        let n = a.node_count();
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let relabeled = a.graph().relabel(&perm).unwrap();
        let mut relabeled_colors = vec![0u64; n];
        for old in 0..n {
            relabeled_colors[perm[old]] = a_colors[old];
        }
        prop_assert_eq!(
            canonical_code(a.graph(), &a_colors),
            canonical_code(&relabeled, &relabeled_colors)
        );
        prop_assert_eq!(
            centered_canonical_code(a.graph(), a.center(), &a_colors),
            centered_canonical_code(&relabeled, NodeId::from(perm[a.center().index()]), &relabeled_colors)
        );

        let same_colour = |u: NodeId, v: NodeId| a_colors[u.index()] == b_colors[v.index()];
        prop_assert_eq!(
            canonical_code(a.graph(), &a_colors) == canonical_code(b.graph(), &b_colors),
            oracle::isomorphic(a.graph(), b.graph(), same_colour, &[])
        );
        prop_assert_eq!(
            centered_canonical_code(a.graph(), a.center(), &a_colors)
                == centered_canonical_code(b.graph(), b.center(), &b_colors),
            oracle::isomorphic(a.graph(), b.graph(), same_colour, &[(a.center(), b.center())])
        );
    }
}

/// The radius-1 or radius-2 ball around a uniformly chosen node of `g`,
/// with its nodes coloured by distance from the centre — the same shape
/// view codes use.
fn arbitrary_coloured_ball(g: &Graph, rng: &mut StdRng) -> (Ball, Vec<u64>) {
    let center = NodeId::from(rng.gen_range(0..g.node_count()));
    let ball = g.ball(center, rng.gen_range(1..=2usize));
    let colors = ball
        .graph()
        .nodes()
        .map(|v| ball.distance_from_center(v) as u64)
        .collect();
    (ball, colors)
}

/// An instance of a uniformly chosen new family, with at most 48 nodes so
/// the backtracking oracle stays fast on its balls.
fn arbitrary_family_instance(rng: &mut StdRng) -> Graph {
    match rng.gen_range(0..3) {
        0 => {
            let d = rng.gen_range(2..=4usize);
            let mut n = rng.gen_range(d + 1..=48);
            if n * d % 2 == 1 {
                n += 1;
            }
            generators::random_regular(n, d, rng).expect("parameters are admissible")
        }
        1 => {
            let m = rng.gen_range(1..=3usize);
            let n = rng.gen_range(m + 2..=48);
            generators::preferential_attachment(n, m, rng).expect("parameters are admissible")
        }
        _ => {
            let o = rng.gen_range(2..=5usize);
            let n = rng.gen_range(2 * o + 1..=48);
            generators::circulant(n, &[1, o]).expect("parameters are admissible")
        }
    }
}

/// The heavy tail, pinned at a size where it is unambiguous: at `n = 512`
/// with `m = 2`, preferential attachment grows hubs (maximum degree well
/// above the attachment rate) while keeping most nodes near the minimum —
/// the shape the DSL's power-law family banks on.  Fixed seeds keep the
/// assertion deterministic.
#[test]
fn preferential_attachment_develops_a_heavy_tail_at_512() {
    for seed in [1u64, 7, 42, 0xdead] {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::preferential_attachment(512, 2, &mut rng).unwrap();
        let degrees: Vec<usize> = g.nodes().map(|v| g.degree(v).unwrap()).collect();
        let max = *degrees.iter().max().unwrap();
        assert!(max >= 16, "seed {seed}: max degree {max} shows no hub");
        let near_minimum = degrees.iter().filter(|&&d| d <= 4).count();
        assert!(
            near_minimum * 2 >= 512,
            "seed {seed}: only {near_minimum}/512 nodes near the minimum degree"
        );
        // Doubling-bin histogram: each bin [2^k, 2^(k+1)) past the mode
        // holds no more nodes than the bin before it — the monotone decay
        // of a power-law tail (ties allowed; exact exponents are noisy).
        let bin = |d: usize| d.next_power_of_two().trailing_zeros();
        let mut bins = vec![0usize; 16];
        for &d in &degrees {
            bins[bin(d) as usize] += 1;
        }
        let tail: Vec<usize> = bins.into_iter().skip(2).filter(|&c| c > 0).collect();
        for pair in tail.windows(2) {
            assert!(
                pair[0] >= pair[1],
                "seed {seed}: doubling-bin counts rise in the tail: {pair:?}"
            );
        }
    }
}
