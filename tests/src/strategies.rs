//! Shared proptest strategies: adversarial balls for the canonical-code
//! differential suites, and valid scenario documents for the DSL suites.
//!
//! The ball strategies generate the inputs that stress canonicalisation
//! hardest:
//!
//! - large symmetric instances of 63, 64 and 65 nodes (an 8×8 grid,
//!   `cycle(64)`, `path(64)`, a 64-node random tree, `cycle(63)`,
//!   `cycle(65)`);
//! - disconnected remainders (disjoint unions), which exercise the
//!   multi-root handling of the tree and search paths;
//! - duplicate-colour orbits (uniform and two-colour palettes), which
//!   maximise the symmetry the refinement loop has to break;
//! - port-permuted relabelings ([`BallCase::permuted_copy`]) —
//!   guaranteed-isomorphic pairs, so the "isomorphic ⇒ equal code"
//!   direction is exercised on *every* case rather than by collision luck;
//! - Turing-machine execution grids from the paper's Section 3
//!   construction (`build_gmr`), the balls the randomized sweeps
//!   canonicalise.
//!
//! The vendored proptest stand-in has no `prop_oneof`/`prop_flat_map`, so
//! family unions are built manually: a `(family, colour_mode, seed)` tuple
//! strategy mapped through a deterministic [`StdRng`]-driven builder.
//!
//! The document generators ([`arbitrary_doc`], [`arbitrary_workload`]) draw
//! every stanza kind the scenario DSL defines, with each optional field —
//! stanza fields and the document budgets, `scaled-budget` included —
//! randomly present or defaulted.  `dsl_roundtrip.rs` runs its fixed-point,
//! unknown-field and schema proptests over them.

use local_decision::prelude::*;
use local_decision::runner::json::Json;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hash::{Hash, Hasher};

/// One generated test case: a coloured graph with a distinguished centre
/// and a view radius.
#[derive(Debug, Clone)]
pub struct BallCase {
    /// The ball's underlying simple graph (1 ..= ~70 nodes).
    pub graph: Graph,
    /// One small label per node (duplicate-heavy palettes by design).
    pub labels: Vec<u8>,
    /// Index of the distinguished centre node.
    pub center: usize,
    /// View radius for view-level differential checks.
    pub radius: usize,
}

impl BallCase {
    /// The labels widened to the `u64` colour domain the canon entry
    /// points take.
    pub fn colors(&self) -> Vec<u64> {
        self.labels.iter().map(|&l| u64::from(l)).collect()
    }

    /// The distinguished centre as a [`NodeId`].
    pub fn center_id(&self) -> NodeId {
        NodeId::from(self.center)
    }

    /// The case as an Id-oblivious view (clones the graph and labels).
    pub fn view(&self) -> ObliviousView<u8> {
        ObliviousView::from_parts(
            self.graph.clone(),
            self.center_id(),
            self.radius,
            self.labels.clone(),
        )
    }

    /// A node-relabelled copy of this case: the graph under a seeded
    /// uniformly random permutation, labels and centre carried along.  The
    /// result is isomorphic to `self` *by construction*, so equal
    /// canonical codes are mandatory, not probabilistic.
    pub fn permuted_copy(&self, seed: u64) -> BallCase {
        let n = self.graph.node_count();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let relabeled = self
            .graph
            .relabel(&perm)
            .expect("permutation of the graph's own nodes is valid");
        let mut labels = vec![0u8; n];
        for old in 0..n {
            labels[perm[old]] = self.labels[old];
        }
        BallCase {
            graph: relabeled,
            labels,
            center: perm[self.center],
            radius: self.radius,
        }
    }
}

/// Number of graph families [`build_case`] knows how to build.  Families
/// 8–10 are the scenario-DSL sweep families (random-regular, power-law
/// preferential attachment, circulant), so every canonical-code
/// differential suite drawing on [`adversarial_ball`] exercises them too.
pub const FAMILY_COUNT: u8 = 11;

/// Number of colouring modes [`build_case`] knows how to apply.
pub const COLOUR_MODES: u8 = 3;

/// A seeded random connected labelled graph with a distinguished centre —
/// the original `canon_differential.rs` strategy, shared verbatim.
pub fn small_view_parts() -> impl Strategy<Value = (Graph, Vec<u8>, usize, usize)> {
    (3usize..=10, 0usize..=8, any::<u64>(), 0usize..3).prop_map(|(n, extra, seed, radius)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::random_connected(n, extra, &mut rng);
        let labels: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..3)).collect();
        let center = rng.gen_range(0..n);
        (graph, labels, center, radius)
    })
}

/// An adversarial coloured ball drawn from all families and colour modes.
pub fn adversarial_ball() -> impl Strategy<Value = BallCase> {
    (0u8..FAMILY_COUNT, 0u8..COLOUR_MODES, any::<u64>())
        .prop_map(|(family, mode, seed)| build_case(family, mode, seed))
}

/// Deterministically builds the case for a `(family, colour_mode, seed)`
/// triple.  `family` selects the graph family (modulo [`FAMILY_COUNT`]),
/// `colour_mode` the label palette (modulo [`COLOUR_MODES`]), and every
/// remaining choice is drawn from a [`StdRng`] seeded with `seed`.
pub fn build_case(family: u8, colour_mode: u8, seed: u64) -> BallCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = match family % FAMILY_COUNT {
        // Small dense-ish connected graphs: refinement with short cells.
        0 => {
            let n = rng.gen_range(3..=12);
            let extra = rng.gen_range(0..=8);
            generators::random_connected(n, extra, &mut rng)
        }
        // Random trees up to 64 nodes: the AHU path.
        1 => {
            let n = rng.gen_range(2..=64);
            generators::random_attachment_tree(n, &mut rng)
        }
        // Grids up to 8×8.
        2 => {
            let w = rng.gen_range(1..=8);
            let h = rng.gen_range(1..=8);
            generators::grid(w, h)
        }
        // Cycles and paths up to (and including) 64 nodes.
        3 => {
            let n = rng.gen_range(3..=64);
            if rng.gen_range(0..2) == 0 {
                generators::cycle(n)
            } else {
                generators::path(n)
            }
        }
        // 63-, 64- and 65-node instances of the most symmetric families:
        // the largest balls the suites generate.
        4 => match rng.gen_range(0..6) {
            0 => generators::grid(8, 8),
            1 => generators::cycle(64),
            2 => generators::path(64),
            3 => generators::random_attachment_tree(64, &mut rng),
            4 => generators::cycle(63),
            _ => generators::cycle(65),
        },
        // Disconnected remainders: a ball minus its cut edges leaves
        // stragglers, modelled as disjoint unions (trees, cycles, isolated
        // complete blobs) of at most 64 nodes.
        5 => {
            let n1 = rng.gen_range(1..=32);
            let n2 = rng.gen_range(1..=32);
            let a = generators::random_attachment_tree(n1.max(1), &mut rng);
            let b = if rng.gen_range(0..2) == 0 && n2 >= 3 {
                generators::cycle(n2)
            } else {
                generators::complete(n2.clamp(1, 6))
            };
            a.disjoint_union(&b).0
        }
        // Stars and small complete graphs: maximal orbit sizes.
        6 => {
            if rng.gen_range(0..2) == 0 {
                generators::star(rng.gen_range(1..=63))
            } else {
                generators::complete(rng.gen_range(2..=8))
            }
        }
        // Section 3 Turing-machine execution grids: a radius-limited ball
        // of a real `G(M, r)` instance, labels hashed down to `u8`.
        7 => return gmr_ball_case(colour_mode, &mut rng),
        // Random d-regular graphs (pairing model): heavy vertex symmetry
        // with none of the lattice structure of grids or cycles.  A
        // pathological seed that never pairs into a simple graph falls back
        // to the cycle — still regular, still valid.
        8 => {
            let d = rng.gen_range(2..=4usize);
            let mut n = rng.gen_range(d + 1..=32);
            if n * d % 2 == 1 {
                n += 1;
            }
            generators::random_regular(n, d, &mut rng)
                .unwrap_or_else(|_| generators::cycle(n.max(3)))
        }
        // Power-law graphs via preferential attachment: hub-dominated
        // degree sequences, the opposite symmetry regime from family 8.
        9 => {
            let m = rng.gen_range(1..=3usize);
            let n = rng.gen_range(m + 2..=48);
            generators::preferential_attachment(n, m, &mut rng)
                .expect("n >= m + 2 satisfies the generator's domain")
        }
        // Circulant graphs C_n({1, o}): vertex-transitive, so every node
        // sits in one orbit until labels break it.
        _ => {
            let o = rng.gen_range(2..=4usize);
            let n = rng.gen_range(2 * o + 1..=40);
            generators::circulant(n, &[1, o])
                .expect("offsets below n satisfy the generator's domain")
        }
    };
    finish_case(graph, colour_mode, &mut rng)
}

/// Assigns labels, centre and radius to a generated graph.
fn finish_case(graph: Graph, colour_mode: u8, rng: &mut StdRng) -> BallCase {
    let n = graph.node_count();
    let labels: Vec<u8> = match colour_mode % COLOUR_MODES {
        // Uniform: every node in one orbit candidate — pure structure.
        0 => vec![0u8; n],
        // Two colours: large duplicate-colour orbits survive refinement.
        1 => (0..n).map(|_| rng.gen_range(0u8..2)).collect(),
        // Varied: small palette, still duplicate-heavy on larger graphs.
        _ => (0..n).map(|_| rng.gen_range(0u8..4)).collect(),
    };
    let center = rng.gen_range(0..n);
    let radius = rng.gen_range(0..=3);
    BallCase {
        graph,
        labels,
        center,
        radius,
    }
}

/// A ball extracted from a Section 3 `G(M, r)` instance, its
/// [`Section3Label`]s hashed down to the `u8` label domain.
fn gmr_ball_case(colour_mode: u8, rng: &mut StdRng) -> BallCase {
    let spec = zoo::halts_with_output(2, Symbol(1));
    let r = rng.gen_range(1..=2);
    let instance = build_gmr(&spec.machine, r, 1_000, FragmentSource::WindowsAndDecoys)
        .expect("zoo machine builds a GMR instance within fuel");
    let labeled = instance.labeled();
    let n = labeled.node_count();
    let center = NodeId::from(rng.gen_range(0..n));
    let ball_radius = rng.gen_range(1..=2);
    let ball = labeled.graph().ball(center, ball_radius);
    let labels: Vec<u8> = ball
        .mapping()
        .iter()
        .map(|&orig| hash_label(labeled.label(orig)))
        .collect();
    let graph = ball.graph().clone();
    let n = graph.node_count();
    BallCase {
        graph,
        labels,
        center: 0, // ball extraction renumbers the centre to node 0
        radius: if colour_mode % 2 == 0 {
            ball_radius
        } else {
            rng.gen_range(0..n.min(3))
        },
    }
}

/// Hashes an arbitrary label into the `u8` domain the shared [`BallCase`]
/// uses (collisions only *merge* colour classes — adversarially fine).
fn hash_label<L: Hash>(label: &L) -> u8 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    label.hash(&mut hasher);
    (hasher.finish() % 251) as u8
}

/// The schema tag of every generated scenario document.
const SCHEMA: &str = "ld-runner/scenario/v1";

/// A non-empty kebab-ish scenario name.
fn arbitrary_name(rng: &mut StdRng) -> String {
    const POOL: &[char] = &['a', 'b', 'z', 'Z', '0', '9', '-', '_', '.', 'é'];
    let len = rng.gen_range(1..12);
    (0..len)
        .map(|_| POOL[rng.gen_range(0..POOL.len())])
        .collect()
}

/// A free-form description, including the empty string (its default).
fn arbitrary_description(rng: &mut StdRng) -> String {
    const POOL: &[char] = &['a', ' ', '"', '\\', '\n', 'あ', '😀'];
    let len = rng.gen_range(0..16);
    (0..len)
        .map(|_| POOL[rng.gen_range(0..POOL.len())])
        .collect()
}

/// A valid ladder with `1 <= from <= to <= cap` and `step >= 1`.  The
/// `step` key is omitted (exercising its default) half the time when it
/// drew 1.
fn arbitrary_ladder(rng: &mut StdRng, cap: usize) -> Json {
    let from = rng.gen_range(1..=cap);
    let to = rng.gen_range(from..=cap);
    let step = rng.gen_range(1..=8usize);
    let ladder = Json::object().set("from", from).set("to", to);
    if step == 1 && rng.gen() {
        ladder
    } else {
        ladder.set("step", step)
    }
}

/// A valid family spec: bare-string and object forms for the
/// parameter-free families, parameterised objects for the rest.
fn arbitrary_family(rng: &mut StdRng) -> Json {
    match rng.gen_range(0..6) {
        0 => Json::Str("path".to_string()),
        1 => Json::Str("cycle".to_string()),
        2 => Json::object().set("kind", if rng.gen() { "path" } else { "cycle" }),
        3 => Json::object()
            .set("kind", "random-regular")
            .set("degree", rng.gen_range(2..=5usize)),
        4 => Json::object()
            .set("kind", "power-law")
            .set("attach", rng.gen_range(1..=4usize)),
        _ => {
            // gcd 1 by construction: either contains 1, or is {2, 3}.
            let offsets: Vec<usize> = if rng.gen() {
                vec![1, rng.gen_range(2..=6)]
            } else {
                vec![2, 3]
            };
            Json::object()
                .set("kind", "circulant")
                .set("offsets", Json::array(offsets))
        }
    }
}

/// A valid workload stanza of a random kind, with each optional field
/// randomly present (explicit) or absent (defaulted).
pub fn arbitrary_workload(rng: &mut StdRng) -> Json {
    let radius = rng.gen_range(1..=3usize);
    let maybe = |doc: Json, key: &str, value: usize, rng: &mut StdRng| {
        if rng.gen() {
            doc.set(key, value)
        } else {
            doc
        }
    };
    match rng.gen_range(0..13) {
        0 => {
            let doc = Json::object().set("kind", "section2-trees");
            let doc = maybe(doc, "max-roots", rng.gen_range(1..=32), rng);
            maybe(doc, "radius", radius, rng)
        }
        1 => maybe(
            Json::object().set("kind", "section2-promise"),
            "radius",
            radius,
            rng,
        ),
        2 => {
            let doc = Json::object().set("kind", "paths");
            let doc = maybe(doc, "radius", radius, rng);
            let doc = maybe(doc, "step", rng.gen_range(1..=12), rng);
            maybe(doc, "step-divisor", rng.gen_range(1..=32), rng)
        }
        3 => maybe(
            Json::object().set("kind", "path-coverage"),
            "radius",
            radius,
            rng,
        ),
        4 => maybe(
            Json::object().set("kind", "grid-profile"),
            "radius",
            radius,
            rng,
        ),
        5 => {
            let doc = Json::object().set("kind", "layered-tree-views");
            let doc = maybe(doc, "radius", radius, rng);
            maybe(doc, "max-roots", rng.gen_range(1..=16), rng)
        }
        6 => maybe(
            Json::object().set("kind", "promise-views"),
            "radius",
            radius,
            rng,
        ),
        7 => {
            let mut doc = Json::object()
                .set("kind", "sweep")
                .set("family", arbitrary_family(rng))
                .set("ladder", arbitrary_ladder(rng, 64));
            if rng.gen() {
                doc = doc.set("radius", radius);
            }
            if rng.gen() {
                let ids = ["consecutive", "shifted", "shuffled"][rng.gen_range(0..3)];
                doc = doc.set("ids", ids);
            }
            if rng.gen() {
                let decider = ["degree-profile", "distinct-views"][rng.gen_range(0..2)];
                doc = doc.set("decider", decider);
            }
            doc
        }
        8 => Json::object()
            .set("kind", "fractional-coloring")
            .set("ladder", arbitrary_ladder(rng, 31)),
        9 => Json::object().set("kind", "section3-zoo"),
        10 => Json::object().set("kind", "pyramid"),
        11 => Json::object().set("kind", "relationship-table"),
        _ => {
            let mut doc = Json::object().set("kind", "randomized-gmr");
            if rng.gen() {
                let speeds: Vec<u64> = (0..rng.gen_range(1..=8))
                    .map(|_| rng.gen_range(1..=250u64))
                    .collect();
                doc = doc.set("speeds", Json::array(speeds));
            }
            if rng.gen() {
                doc = doc.set("views", rng.gen::<bool>());
            }
            doc
        }
    }
}

/// A valid scenario document with 1–4 workloads and each optional
/// document field randomly present.
pub fn arbitrary_doc(rng: &mut StdRng) -> Json {
    let mut doc = Json::object()
        .set("schema", SCHEMA)
        .set("name", arbitrary_name(rng));
    if rng.gen() {
        doc = doc.set("description", arbitrary_description(rng));
    }
    if rng.gen() {
        doc = doc.set("node-budget", rng.gen_range(1..=u64::MAX));
    }
    if rng.gen() {
        doc = doc.set("view-budget", rng.gen_range(1..=u64::MAX));
    }
    if rng.gen() {
        doc = doc.set("scaled-budget", rng.gen::<bool>());
    }
    let workloads: Vec<Json> = (0..rng.gen_range(1..=4))
        .map(|_| arbitrary_workload(rng))
        .collect();
    doc.set("workloads", Json::Arr(workloads))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_and_mode_builds_and_is_in_bounds() {
        for family in 0..FAMILY_COUNT {
            for mode in 0..COLOUR_MODES {
                for seed in 0..4u64 {
                    let case = build_case(family, mode, seed);
                    let n = case.graph.node_count();
                    assert!(n >= 1, "family {family} produced an empty graph");
                    assert_eq!(case.labels.len(), n);
                    assert!(case.center < n);
                }
            }
        }
    }

    #[test]
    fn boundary_family_produces_exactly_64_node_graphs() {
        let mut sizes = std::collections::BTreeSet::new();
        for seed in 0..64u64 {
            sizes.insert(build_case(4, 0, seed).graph.node_count());
        }
        assert!(sizes.contains(&64), "sizes seen: {sizes:?}");
        assert!(sizes.contains(&63) && sizes.contains(&65), "{sizes:?}");
    }

    #[test]
    fn disconnected_family_produces_disconnected_graphs() {
        let disconnected = (0..64u64)
            .map(|seed| build_case(5, 1, seed))
            .filter(|case| !case.graph.is_connected())
            .count();
        assert!(disconnected > 32, "only {disconnected}/64 disconnected");
    }

    #[test]
    fn permuted_copy_is_isomorphic_with_the_centre_carried_along() {
        for seed in 0..8u64 {
            let case = build_case(0, 2, seed);
            let copy = case.permuted_copy(seed.wrapping_add(1));
            assert_eq!(case.graph.node_count(), copy.graph.node_count());
            assert_eq!(case.graph.edge_count(), copy.graph.edge_count());
            assert!(crate::oracle::oblivious_indistinguishable(
                &case.view(),
                &copy.view()
            ));
        }
    }
}
