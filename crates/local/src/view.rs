//! Local views: what a node sees within its horizon, with or without
//! identifiers.

use ld_graph::ball::Ball;
use ld_graph::canon::{centered_canonical_code, CanonicalCode};
use ld_graph::{Graph, NodeId};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The radius-`t` view of a node in an input `(G, x, Id)`: the induced
/// subgraph on `B(v, t)` with the labels **and identifiers** of its nodes.
///
/// A (non-oblivious) local algorithm is precisely a function of this value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View<L> {
    graph: Graph,
    center: NodeId,
    radius: usize,
    distances: Vec<usize>,
    labels: Vec<L>,
    ids: Vec<u64>,
}

impl<L> View<L> {
    /// Assembles a view from a ball plus labels and identifiers in ball-local
    /// node order.
    pub(crate) fn from_ball(ball: Ball, labels: Vec<L>, ids: Vec<u64>) -> Self {
        debug_assert_eq!(ball.node_count(), labels.len());
        debug_assert_eq!(ball.node_count(), ids.len());
        let (graph, center, radius, _mapping, distances) = ball.into_parts();
        View {
            center,
            radius,
            graph,
            distances,
            labels,
            ids,
        }
    }

    /// Builds a view directly from parts (used by neighbourhood generators
    /// that synthesise views which are not extracted from a concrete input).
    pub fn from_parts(
        graph: Graph,
        center: NodeId,
        radius: usize,
        labels: Vec<L>,
        ids: Vec<u64>,
    ) -> Self {
        let distances = graph
            .bfs_distances(center)
            // ld-analyze: allow(D004, reason = "caller contract: the view is constructed around one of its own nodes")
            .expect("center must be a node of the view graph")
            .reachable()
            .fold(vec![usize::MAX; graph.node_count()], |mut acc, (v, d)| {
                acc[v.index()] = d;
                acc
            });
        View {
            graph,
            center,
            radius,
            distances,
            labels,
            ids,
        }
    }

    /// The view's graph (the induced subgraph on the ball).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The centre node, in view-local numbering.
    pub fn center(&self) -> NodeId {
        self.center
    }

    /// The radius the view was extracted with.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Number of nodes in the view.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The label of view-local node `v`.
    pub fn label(&self, v: NodeId) -> &L {
        &self.labels[v.index()]
    }

    /// The identifier of view-local node `v`.
    pub fn id(&self, v: NodeId) -> u64 {
        self.ids[v.index()]
    }

    /// The centre's label.
    pub fn center_label(&self) -> &L {
        self.label(self.center)
    }

    /// The centre's identifier.
    pub fn center_id(&self) -> u64 {
        self.id(self.center)
    }

    /// All labels in view-local node order.
    pub fn labels(&self) -> &[L] {
        &self.labels
    }

    /// All identifiers in view-local node order.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The largest identifier visible in the view.
    pub fn max_id(&self) -> Option<u64> {
        self.ids.iter().copied().max()
    }

    /// Distance of view-local node `v` from the centre.
    pub fn distance(&self, v: NodeId) -> usize {
        self.distances[v.index()]
    }

    /// Iterator over the view-local nodes adjacent to the centre.
    pub fn neighbors_of_center(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.neighbors(self.center)
    }

    /// The view-local nodes at exactly distance `d` from the centre.
    pub fn sphere(&self, d: usize) -> Vec<NodeId> {
        self.graph
            .nodes()
            .filter(|v| self.distances[v.index()] == d)
            .collect()
    }

    /// Drops the identifiers, producing the Id-oblivious view.
    pub fn without_ids(self) -> ObliviousView<L> {
        ObliviousView {
            graph: self.graph,
            center: self.center,
            radius: self.radius,
            distances: self.distances,
            labels: self.labels,
        }
    }

    /// A borrowed Id-oblivious copy of this view.
    pub fn to_oblivious(&self) -> ObliviousView<L>
    where
        L: Clone,
    {
        self.clone().without_ids()
    }
}

impl<L: Hash> View<L> {
    /// A **total** canonical invariant, and the definition of
    /// indistinguishability for full views: two views have equal codes iff
    /// they have the same radius and are isomorphic by a map that keeps the
    /// centre, the labels and the identifiers — the relation under which a
    /// local algorithm *must* produce equal outputs.  Labels and identifiers
    /// enter the code through a 64-bit hash, so the "iff" carries the usual
    /// content-hash caveat (a `2⁻⁶⁴`-order collision of distinct label/id
    /// pairs could merge two views); graph structure, centre and radius are
    /// embedded exactly.
    pub fn canonical_code(&self) -> CanonicalCode {
        let colors: Vec<u64> = self
            .graph
            .nodes()
            .map(|v| color_of(&(color_of(&self.labels[v.index()]), self.ids[v.index()])))
            .collect();
        centered_canonical_code(&self.graph, self.center, &colors).with_tag(self.radius as u64)
    }
}

/// The Id-oblivious radius-`t` view: the same information as [`View`] minus
/// the identifiers.  An Id-oblivious algorithm is a function of this value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObliviousView<L> {
    graph: Graph,
    center: NodeId,
    radius: usize,
    distances: Vec<usize>,
    labels: Vec<L>,
}

impl<L> ObliviousView<L> {
    /// Assembles an oblivious view from an extracted ball plus labels in
    /// ball-local node order, reusing the ball's graph and distances.
    pub(crate) fn from_ball(ball: Ball, labels: Vec<L>) -> Self {
        debug_assert_eq!(ball.node_count(), labels.len());
        let (graph, center, radius, _mapping, distances) = ball.into_parts();
        ObliviousView {
            graph,
            center,
            radius,
            distances,
            labels,
        }
    }

    /// Builds an oblivious view directly from parts (used by neighbourhood
    /// generators).
    pub fn from_parts(graph: Graph, center: NodeId, radius: usize, labels: Vec<L>) -> Self {
        let distances = graph
            .bfs_distances(center)
            // ld-analyze: allow(D004, reason = "caller contract: the view is constructed around one of its own nodes")
            .expect("center must be a node of the view graph")
            .reachable()
            .fold(vec![usize::MAX; graph.node_count()], |mut acc, (v, d)| {
                acc[v.index()] = d;
                acc
            });
        ObliviousView {
            graph,
            center,
            radius,
            distances,
            labels,
        }
    }

    /// The view's graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The centre node, in view-local numbering.
    pub fn center(&self) -> NodeId {
        self.center
    }

    /// The radius the view was extracted with.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Number of nodes in the view.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The label of view-local node `v`.
    pub fn label(&self, v: NodeId) -> &L {
        &self.labels[v.index()]
    }

    /// The centre's label.
    pub fn center_label(&self) -> &L {
        self.label(self.center)
    }

    /// All labels in view-local node order.
    pub fn labels(&self) -> &[L] {
        &self.labels
    }

    /// Distance of view-local node `v` from the centre.
    pub fn distance(&self, v: NodeId) -> usize {
        self.distances[v.index()]
    }

    /// Iterator over the view-local nodes adjacent to the centre.
    pub fn neighbors_of_center(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.neighbors(self.center)
    }

    /// The view-local nodes at exactly distance `d` from the centre.
    pub fn sphere(&self, d: usize) -> Vec<NodeId> {
        self.graph
            .nodes()
            .filter(|v| self.distances[v.index()] == d)
            .collect()
    }

    /// Attaches identifiers (in view-local node order), producing a full
    /// view.  Used by the Id-oblivious simulation `A*`, which tries out many
    /// hypothetical identifier assignments on the same oblivious view.
    pub fn with_ids(&self, ids: Vec<u64>) -> View<L>
    where
        L: Clone,
    {
        debug_assert_eq!(ids.len(), self.node_count());
        View {
            graph: self.graph.clone(),
            center: self.center,
            radius: self.radius,
            distances: self.distances.clone(),
            labels: self.labels.clone(),
            ids,
        }
    }
}

impl<L: Hash> ObliviousView<L> {
    /// A **total** canonical invariant, and the definition of
    /// indistinguishability for Id-oblivious views: two oblivious views have
    /// equal codes iff they have the same radius and are isomorphic by a map
    /// that keeps the centre and the labels — the relation under which an
    /// Id-oblivious algorithm must produce equal outputs (labels enter
    /// through a 64-bit hash — see [`View::canonical_code`] for the
    /// collision caveat).  Dedup and coverage reduce to hash-set operations
    /// on these codes.
    pub fn canonical_code(&self) -> CanonicalCode {
        let colors: Vec<u64> = self
            .graph
            .nodes()
            .map(|v| color_of(&self.labels[v.index()]))
            .collect();
        centered_canonical_code(&self.graph, self.center, &colors).with_tag(self.radius as u64)
    }
}

/// Hashes a label (or a label/identifier pair) into the `u64` colour space
/// the canonical codes are computed over.
fn color_of<T: Hash>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Hashing agrees with `Eq` (distances are a pure function of graph and
/// centre, so omitting them keeps the contract) — this lets exact-identical
/// views key hash maps, the addressing scheme of [`crate::cache::ViewCache`]
/// and the exact-dedup prepass of [`crate::enumeration`].
impl<L: Hash> Hash for ObliviousView<L> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.graph.hash(state);
        self.center.hash(state);
        self.radius.hash(state);
        self.labels.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::IdAssignment;
    use crate::input::Input;
    use ld_graph::{generators, LabeledGraph};

    fn cycle_input(n: usize, start_id: u64) -> Input<u8> {
        let lg = LabeledGraph::uniform(generators::cycle(n), 0u8);
        Input::new(lg, IdAssignment::consecutive_from(n, start_id)).unwrap()
    }

    #[test]
    fn views_in_long_cycles_are_oblivious_indistinguishable() {
        // Radius-2 views in a 10-cycle and a 30-cycle look identical without
        // identifiers — the basic indistinguishability the paper exploits.
        let a = cycle_input(10, 0).oblivious_view(NodeId(3), 2);
        let b = cycle_input(30, 0).oblivious_view(NodeId(17), 2);
        assert_eq!(a.canonical_code(), b.canonical_code());
    }

    #[test]
    fn identifier_differences_break_full_view_indistinguishability() {
        let a = cycle_input(10, 0).view(NodeId(3), 2);
        let b = cycle_input(10, 100).view(NodeId(3), 2);
        assert_ne!(a.canonical_code(), b.canonical_code());
        assert_eq!(
            a.to_oblivious().canonical_code(),
            b.to_oblivious().canonical_code()
        );
    }

    #[test]
    fn same_input_same_node_has_the_same_code() {
        let input = cycle_input(12, 40);
        let a = input.view(NodeId(5), 3);
        let b = input.view(NodeId(5), 3);
        assert_eq!(a.canonical_code(), b.canonical_code());
    }

    #[test]
    fn view_accessors() {
        let input = cycle_input(8, 0);
        let view = input.view(NodeId(0), 2);
        assert_eq!(view.radius(), 2);
        assert_eq!(view.node_count(), 5);
        assert_eq!(view.sphere(2).len(), 2);
        assert_eq!(view.neighbors_of_center().count(), 2);
        assert_eq!(view.max_id(), view.ids().iter().copied().max());
        assert_eq!(view.distance(view.center()), 0);
        let oblivious = view.clone().without_ids();
        assert_eq!(oblivious.sphere(1).len(), 2);
        assert_eq!(oblivious.distance(oblivious.center()), 0);
        assert_eq!(oblivious.neighbors_of_center().count(), 2);
    }

    #[test]
    fn radius_mismatch_is_distinguishable() {
        let input = cycle_input(12, 0);
        let a = input.oblivious_view(NodeId(0), 2);
        let b = input.oblivious_view(NodeId(0), 3);
        assert_ne!(a.canonical_code(), b.canonical_code());
    }

    #[test]
    fn with_ids_roundtrip() {
        let input = cycle_input(6, 0);
        let oblivious = input.oblivious_view(NodeId(2), 1);
        let ids = vec![7, 8, 9];
        let full = oblivious.with_ids(ids.clone());
        assert_eq!(full.ids(), &ids[..]);
        assert_eq!(full.node_count(), 3);
    }

    #[test]
    fn from_parts_builds_consistent_views() {
        let g = generators::path(3);
        let view = View::from_parts(g.clone(), NodeId(1), 1, vec!['a', 'b', 'c'], vec![5, 6, 7]);
        assert_eq!(view.distance(NodeId(0)), 1);
        assert_eq!(*view.center_label(), 'b');
        let ob = ObliviousView::from_parts(g, NodeId(1), 1, vec!['a', 'b', 'c']);
        assert_eq!(ob.distance(NodeId(2)), 1);
    }
}
