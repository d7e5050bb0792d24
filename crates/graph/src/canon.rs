//! Total canonical forms for small coloured graphs.
//!
//! An isomorphism-invariant hash is not enough to decide
//! indistinguishability: two isomorphic graphs always agree on it, but
//! non-isomorphic graphs may collide.  Colour-refinement hashes collide on
//! the 6-cycle versus the disjoint union of two triangles — every node of
//! both looks locally like "degree 2, all neighbours degree 2", so colour
//! refinement can never tell them apart.  A hash-based dedup must therefore
//! follow every hash bucket with pairwise isomorphism tests, which makes it
//! quadratic per bucket.
//!
//! This module computes a **total invariant** instead: a [`CanonicalCode`]
//! that is equal for two coloured (optionally centred) graphs *iff* they are
//! isomorphic by a colour- and centre-preserving isomorphism.  Equality of
//! codes is plain `==`, so deduplicating `k` views costs `k` hash-set
//! insertions instead of `O(k²)` isomorphism tests.  Code equality is the
//! only isomorphism test the shipped libraries contain; the `ld-tests`
//! crate checks it against an independent backtracking search
//! (`ld_tests::oracle`).
//!
//! Two algorithms produce the canonical labelling behind a code:
//!
//! * **Tree fast path** — most balls in the families this repo sweeps
//!   (cycles, paths, layered trees) are trees, detected via
//!   [`Graph::is_tree`].  Rooted coloured trees are canonised by the classic
//!   AHU scheme: subtree codes are computed bottom-up, children are ordered
//!   by their codes, and the preorder walk in that order is the canonical
//!   labelling.  Linear-ish time, no search.
//! * **Individualisation–refinement** — general (small) graphs go through
//!   iterative colour refinement; when the partition stabilises without
//!   becoming discrete, the first smallest non-singleton cell is picked, each
//!   of its vertices is individualised in turn, and the search recurses,
//!   keeping the lexicographically least adjacency code over all leaves.
//!   Interchangeable vertices (equal neighbourhoods outside a clique or
//!   independent cell) are branch-pruned, which keeps complete graphs and
//!   star centres linear instead of factorial.
//!
//! Codes embed the *raw* colour values, the full edge list in canonical
//! order, and the centre position, so two graphs with equal codes agree on
//! everything the code encodes — the only approximation callers introduce is
//! hashing arbitrary labels into the `u64` colour space before calling in
//! (a 2⁻⁶⁴-style collision risk, same order as trusting any content hash).

use crate::graph::{Graph, NodeId};

/// A total canonical invariant of a coloured (optionally centred) graph.
///
/// Two codes compare equal iff the underlying graphs are isomorphic by a
/// colour-preserving (and centre-preserving, when a centre was given)
/// isomorphism.  The ordering (`Ord`) is arbitrary but total and stable, so
/// codes can key `BTreeMap`s as well as hash sets.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonicalCode(Vec<u64>);

impl CanonicalCode {
    /// The raw code words: a `[n, m, centre]` header, then colours in
    /// canonical order, edges in canonical order, and any appended tags —
    /// always at least the 3-word header, even for the empty graph.
    pub fn as_slice(&self) -> &[u64] {
        &self.0
    }

    /// Wraps words the bitset kernel emitted.  Crate-private: the only
    /// producers of code words are this module and [`crate::fastcanon`],
    /// which mirrors this module's encode layout byte for byte.
    pub(crate) fn from_words(words: Vec<u64>) -> Self {
        CanonicalCode(words)
    }

    /// Appends a context word (e.g. a view radius) to the code.  Codes with
    /// different tags never compare equal, so callers can embed ambient data
    /// that is not part of the graph itself.
    #[must_use]
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.0.push(tag);
        self
    }
}

/// Canonical code of a coloured graph (no distinguished centre).
///
/// # Panics
///
/// Panics if `colors.len() != graph.node_count()`.
pub fn canonical_code(graph: &Graph, colors: &[u64]) -> CanonicalCode {
    canonical_form(graph, None, colors)
}

/// Canonical code of a coloured graph with a distinguished centre: codes are
/// equal iff some colour-preserving isomorphism maps centre to centre.
///
/// # Panics
///
/// Panics if `center` is out of range or `colors.len() != graph.node_count()`.
pub fn centered_canonical_code(graph: &Graph, center: NodeId, colors: &[u64]) -> CanonicalCode {
    canonical_form(graph, Some(center), colors)
}

/// [`canonical_code`], forced onto the original refinement +
/// branch-and-bound path.  This is the **differential oracle** for the
/// bitset kernel in [`crate::fastcanon`]: the kernel must reproduce these
/// bytes exactly, and `tests/tests/fastcanon_differential.rs` holds it to
/// that.  Production callers want [`canonical_code`], which picks the fast
/// path automatically.
///
/// # Panics
///
/// Panics if `colors.len() != graph.node_count()`.
pub fn canonical_code_oracle(graph: &Graph, colors: &[u64]) -> CanonicalCode {
    oracle_form(graph, None, colors)
}

/// [`centered_canonical_code`], forced onto the original path — the centred
/// differential oracle for the bitset kernel.
///
/// # Panics
///
/// Panics if `center` is out of range or `colors.len() != graph.node_count()`.
pub fn centered_canonical_code_oracle(
    graph: &Graph,
    center: NodeId,
    colors: &[u64],
) -> CanonicalCode {
    oracle_form(graph, Some(center), colors)
}

/// Shared entry point: balls in the ≤ 64-node regime run on the
/// word-parallel kernel ([`crate::fastcanon`], byte-identical output unless
/// `LD_CANON_FALLBACK` forces the oracle); everything else takes the
/// original tree / search paths.
fn canonical_form(graph: &Graph, center: Option<NodeId>, colors: &[u64]) -> CanonicalCode {
    if crate::fastcanon::accelerates(graph) {
        // The kernel re-validates the colour/centre contracts and mirrors
        // this module's orderings exactly; see its module docs for why the
        // bytes cannot differ.
        return crate::fastcanon::thread_form(graph, center, colors);
    }
    oracle_form(graph, center, colors)
}

/// The original canonicalisation pipeline (header fast path, AHU trees,
/// refinement + branch-and-bound search) — the target of every oracle entry
/// point and the fallback for graphs the kernel does not support.
pub(crate) fn oracle_form(graph: &Graph, center: Option<NodeId>, colors: &[u64]) -> CanonicalCode {
    let n = graph.node_count();
    assert_eq!(n, colors.len(), "one colour per node is required");
    if let Some(c) = center {
        assert!(c.index() < n, "center must be a node of the graph");
    }
    if n == 0 {
        return CanonicalCode(vec![0, 0, NO_CENTER]);
    }
    if graph.is_tree() {
        tree_code(graph, center, colors)
    } else {
        search_code(graph, center, colors)
    }
}

/// Centre marker used in the code header when no centre is distinguished.
pub(crate) const NO_CENTER: u64 = u64::MAX;

/// Emits the code of `graph` under the canonical labelling `perm`
/// (`perm[old] = new`): header, colours in canonical order, sorted edges.
fn encode(graph: &Graph, center: Option<NodeId>, colors: &[u64], perm: &[u32]) -> Vec<u64> {
    let n = graph.node_count();
    let m = graph.edge_count();
    let mut code = Vec::with_capacity(3 + n + m);
    code.push(n as u64);
    code.push(m as u64);
    code.push(center.map_or(NO_CENTER, |c| u64::from(perm[c.index()])));
    code.resize(3 + n, 0);
    for (old, &color) in colors.iter().enumerate() {
        code[3 + perm[old] as usize] = color;
    }
    let mut edges: Vec<u64> = graph
        .edges()
        .map(|(u, v)| {
            let a = u64::from(perm[u.index()].min(perm[v.index()]));
            let b = u64::from(perm[u.index()].max(perm[v.index()]));
            a * n as u64 + b
        })
        .collect();
    edges.sort_unstable();
    code.extend(edges);
    code
}

// ---------------------------------------------------------------------------
// Tree fast path (AHU)
// ---------------------------------------------------------------------------

/// Canonical code of a coloured tree.  Centred trees are rooted at the
/// centre; uncentred trees are rooted at their (1 or 2) graph centres with
/// the lexicographically smaller code winning.
fn tree_code(graph: &Graph, center: Option<NodeId>, colors: &[u64]) -> CanonicalCode {
    let roots: Vec<NodeId> = match center {
        Some(c) => vec![c],
        None => tree_centers(graph),
    };
    let code = roots
        .into_iter()
        .map(|root| {
            let perm = rooted_tree_perm(graph, root, colors);
            encode(graph, center, colors, &perm)
        })
        .min()
        .expect("a non-empty tree has at least one candidate root");
    CanonicalCode(code)
}

/// The 1 or 2 centres of a tree, found by repeatedly stripping leaves.
fn tree_centers(graph: &Graph) -> Vec<NodeId> {
    let n = graph.node_count();
    if n == 1 {
        return vec![NodeId(0)];
    }
    let mut degree: Vec<usize> = graph
        .nodes()
        .map(|v| graph.degree(v).expect("node is in range"))
        .collect();
    let mut layer: Vec<NodeId> = graph.nodes().filter(|v| degree[v.index()] <= 1).collect();
    let mut remaining = n;
    while remaining > 2 {
        remaining -= layer.len();
        let mut next = Vec::new();
        for &leaf in &layer {
            degree[leaf.index()] = 0;
            for u in graph.neighbors(leaf) {
                if degree[u.index()] > 0 {
                    degree[u.index()] -= 1;
                    if degree[u.index()] == 1 {
                        next.push(u);
                    }
                }
            }
        }
        layer = next;
    }
    layer.sort_unstable();
    layer
}

/// The canonical labelling of a coloured tree rooted at `root`: AHU subtree
/// codes computed bottom-up, children visited in code order, preorder
/// positions as the permutation.
fn rooted_tree_perm(graph: &Graph, root: NodeId, colors: &[u64]) -> Vec<u32> {
    let n = graph.node_count();
    // BFS rooting.
    let mut parent: Vec<usize> = vec![usize::MAX; n];
    let mut bfs_order: Vec<NodeId> = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    seen[root.index()] = true;
    bfs_order.push(root);
    let mut head = 0;
    while head < bfs_order.len() {
        let u = bfs_order[head];
        head += 1;
        for v in graph.neighbors(u) {
            if !seen[v.index()] {
                seen[v.index()] = true;
                parent[v.index()] = u.index();
                bfs_order.push(v);
            }
        }
    }
    debug_assert_eq!(bfs_order.len(), n, "tree is connected");

    // Bottom-up AHU codes: code(v) = [subtree size, colour, sorted child
    // codes...] — length-prefixed, so lexicographic Vec<u64> comparison is a
    // total order under which equal codes mean isomorphic coloured subtrees.
    let mut codes: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut ordered_children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for &v in bfs_order.iter().rev() {
        let mut children: Vec<NodeId> = graph
            .neighbors(v)
            .filter(|u| parent[u.index()] == v.index())
            .collect();
        children.sort_by(|a, b| codes[a.index()].cmp(&codes[b.index()]));
        let mut code = vec![0, colors[v.index()]];
        for &child in &children {
            code.extend_from_slice(&codes[child.index()]);
        }
        code[0] = code.len() as u64;
        codes[v.index()] = code;
        ordered_children[v.index()] = children;
    }

    // Preorder walk visiting children in canonical order.
    let mut perm = vec![0u32; n];
    let mut next = 0u32;
    let mut stack = vec![root];
    while let Some(v) = stack.pop() {
        perm[v.index()] = next;
        next += 1;
        // Reverse push so the smallest-code child is visited first.
        for &child in ordered_children[v.index()].iter().rev() {
            stack.push(child);
        }
    }
    perm
}

// ---------------------------------------------------------------------------
// General graphs: individualisation–refinement with branch pruning
// ---------------------------------------------------------------------------

/// Canonical code of a general coloured graph via refinement plus
/// branch-and-bound individualisation.
fn search_code(graph: &Graph, center: Option<NodeId>, colors: &[u64]) -> CanonicalCode {
    let n = graph.node_count();
    // Initial cells: rank nodes by (centre flag, colour) so the starting
    // partition is isomorphism-invariant.
    let mut keyed: Vec<(u64, u64, usize)> = (0..n)
        .map(|v| {
            let centered = u64::from(center.is_some_and(|c| c.index() == v));
            (centered, colors[v], v)
        })
        .collect();
    keyed.sort_unstable();
    let mut cells = vec![0u32; n];
    let mut rank = 0u32;
    for i in 0..n {
        if i > 0 && (keyed[i].0, keyed[i].1) != (keyed[i - 1].0, keyed[i - 1].1) {
            rank += 1;
        }
        cells[keyed[i].2] = rank;
    }

    let mut best: Option<Vec<u64>> = None;
    let mut scratch = RefineScratch::default();
    refine_and_branch(graph, center, colors, cells, &mut best, &mut scratch);
    CanonicalCode(best.expect("the search visits at least one discrete leaf"))
}

/// Buffers reused by every [`refine`] call of one search: the search tree
/// visits many nodes and refinement runs at each, so per-call allocation
/// would dominate.
#[derive(Default)]
struct RefineScratch {
    sig_data: Vec<u32>,
    sig_start: Vec<usize>,
    order: Vec<usize>,
    next: Vec<u32>,
}

/// Refines `cells` to a stable partition, then either emits a leaf code or
/// branches on the first smallest non-singleton cell.
fn refine_and_branch(
    graph: &Graph,
    center: Option<NodeId>,
    colors: &[u64],
    mut cells: Vec<u32>,
    best: &mut Option<Vec<u64>>,
    scratch: &mut RefineScratch,
) {
    refine(graph, &mut cells, scratch);
    let n = graph.node_count();
    let cell_count = cells.iter().copied().max().map_or(0, |m| m as usize + 1);
    if cell_count == n {
        // Discrete: the partition is the canonical labelling candidate.
        let code = encode(graph, center, colors, &cells);
        if !best.as_ref().is_some_and(|b| *b <= code) {
            *best = Some(code);
        }
        return;
    }

    // First smallest non-singleton cell (cell ids are isomorphism-invariant
    // ranks, so this choice is invariant too).
    let mut sizes = vec![0usize; cell_count];
    for &c in &cells {
        sizes[c as usize] += 1;
    }
    let target = (0..cell_count)
        .filter(|&c| sizes[c] > 1)
        .min_by_key(|&c| (sizes[c], c))
        .expect("a non-discrete partition has a non-singleton cell");
    let members: Vec<usize> = (0..n).filter(|&v| cells[v] as usize == target).collect();

    // Branch pruning: when the target cell induces a clique or an
    // independent set and all members share the same neighbourhood outside
    // the cell, any two members are exchanged by an automorphism — the
    // branches are identical, so one suffices.  This is what keeps complete
    // graphs linear instead of factorial.
    let branch_once = interchangeable(graph, &members);
    let fresh = cells.iter().copied().max().expect("n > 0") + 1;
    for &v in &members {
        let mut next = cells.clone();
        next[v] = fresh;
        refine_and_branch(graph, center, colors, next, best, scratch);
        if branch_once {
            break;
        }
    }
}

/// `true` when every pair of `members` is swapped by an automorphism:
/// the induced subgraph on `members` is complete or empty, and all members
/// have identical neighbour sets outside `members`.
fn interchangeable(graph: &Graph, members: &[usize]) -> bool {
    let inside = |v: usize| members.contains(&v);
    let first_outside: Vec<usize> = graph
        .neighbors(NodeId::from(members[0]))
        .map(super::graph::NodeId::index)
        .filter(|&u| !inside(u))
        .collect();
    let first_inside_degree = graph
        .neighbors(NodeId::from(members[0]))
        .filter(|u| inside(u.index()))
        .count();
    if first_inside_degree != 0 && first_inside_degree != members.len() - 1 {
        return false;
    }
    for &v in &members[1..] {
        let mut inside_degree = 0;
        let mut outside: Vec<usize> = Vec::with_capacity(first_outside.len());
        for u in graph.neighbors(NodeId::from(v)) {
            if inside(u.index()) {
                inside_degree += 1;
            } else {
                outside.push(u.index());
            }
        }
        if inside_degree != first_inside_degree || outside != first_outside {
            return false;
        }
    }
    true
}

/// Iterative 1-dimensional colour refinement: split cells by the multiset of
/// neighbouring cell ids until stable.  Cell ids are ranks of sorted
/// signatures, hence isomorphism-invariant.
///
/// Signatures live in one flat buffer (`sig_data` sliced by `sig_start`), so
/// a refinement round performs no per-node allocations — this runs once per
/// node of the individualisation search tree and dominates canonicalisation
/// cost.
fn refine(graph: &Graph, cells: &mut [u32], scratch: &mut RefineScratch) {
    let n = cells.len();
    let mut cell_count = cells.iter().copied().max().map_or(0, |m| m as usize + 1);
    let RefineScratch {
        sig_data,
        sig_start,
        order,
        next,
    } = scratch;
    order.clear();
    order.extend(0..n);
    next.clear();
    next.resize(n, 0);
    loop {
        sig_data.clear();
        sig_start.clear();
        for v in 0..n {
            sig_start.push(sig_data.len());
            let from = sig_data.len();
            sig_data.extend(graph.neighbors(NodeId::from(v)).map(|u| cells[u.index()]));
            sig_data[from..].sort_unstable();
        }
        sig_start.push(sig_data.len());
        let sig = |v: usize| (cells[v], &sig_data[sig_start[v]..sig_start[v + 1]]);
        order.sort_by(|&a, &b| sig(a).cmp(&sig(b)));
        let mut rank = 0u32;
        for i in 0..n {
            if i > 0 && sig(order[i]) != sig(order[i - 1]) {
                rank += 1;
            }
            next[order[i]] = rank;
        }
        cells.copy_from_slice(next);
        let next_count = rank as usize + 1;
        if next_count == cell_count || next_count == n {
            return;
        }
        cell_count = next_count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn uniform(n: usize) -> Vec<u64> {
        vec![0; n]
    }

    #[test]
    fn empty_graph_has_a_code() {
        let g = Graph::new();
        assert_eq!(canonical_code(&g, &[]), canonical_code(&g, &[]));
    }

    #[test]
    fn code_is_invariant_under_relabelling() {
        let g = generators::grid(3, 4);
        let n = g.node_count();
        let perm: Vec<usize> = (0..n).rev().collect();
        let h = g.relabel(&perm).unwrap();
        assert_eq!(
            canonical_code(&g, &uniform(n)),
            canonical_code(&h, &uniform(n))
        );
    }

    #[test]
    fn code_separates_cycle_lengths() {
        assert_ne!(
            canonical_code(&generators::cycle(6), &uniform(6)),
            canonical_code(&generators::cycle(7), &uniform(7))
        );
    }

    #[test]
    fn colors_refine_the_code() {
        let g = generators::cycle(4);
        let a = canonical_code(&g, &[1, 2, 1, 2]);
        let b = canonical_code(&g, &[2, 1, 2, 1]);
        let c = canonical_code(&g, &[1, 1, 2, 2]);
        // Alternating colourings are isomorphic to each other but not to the
        // adjacent-equal colouring.
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn centre_position_matters() {
        let p = generators::path(3);
        let end = centered_canonical_code(&p, NodeId(0), &uniform(3));
        let mid = centered_canonical_code(&p, NodeId(1), &uniform(3));
        let other_end = centered_canonical_code(&p, NodeId(2), &uniform(3));
        assert_ne!(end, mid);
        assert_eq!(end, other_end);
    }

    #[test]
    fn tree_and_search_paths_are_each_invariant_on_trees() {
        // The two paths may pick different (equally canonical) labellings,
        // which is safe because `is_tree` is isomorphism-invariant: a pair
        // of isomorphic graphs always dispatches to the same path.  Each
        // path must be invariant under relabelling on its own.
        let t = generators::path(7);
        let n = t.node_count();
        let colors: Vec<u64> = (0..n as u64).map(|i| i % 2).collect();
        let perm: Vec<usize> = (0..n).rev().collect();
        let relabeled = t.relabel(&perm).unwrap();
        let mut relabeled_colors = vec![0u64; n];
        for old in 0..n {
            relabeled_colors[perm[old]] = colors[old];
        }
        for center in [None, Some(3usize)] {
            let (ca, cb) = match center {
                None => (None, None),
                Some(c) => (Some(NodeId::from(c)), Some(NodeId::from(perm[c]))),
            };
            assert_eq!(
                tree_code(&t, ca, &colors),
                tree_code(&relabeled, cb, &relabeled_colors)
            );
            assert_eq!(
                search_code(&t, ca, &colors),
                search_code(&relabeled, cb, &relabeled_colors)
            );
        }
    }

    #[test]
    fn complete_graphs_stay_fast_and_distinct() {
        // K_10 without the interchangeability prune would branch 10! times.
        let k10 = generators::complete(10);
        let k9 = generators::complete(9);
        let code10 = canonical_code(&k10, &uniform(10));
        assert_ne!(code10, canonical_code(&k9, &uniform(9)));
        assert_eq!(code10, canonical_code(&k10, &uniform(10)));
    }

    #[test]
    fn tagged_codes_differ_from_untagged() {
        let g = generators::cycle(4);
        let base = canonical_code(&g, &uniform(4));
        let tagged = base.clone().with_tag(2);
        assert_ne!(base, tagged);
        assert_eq!(tagged.as_slice().len(), base.as_slice().len() + 1);
        assert_eq!(tagged.as_slice()[base.as_slice().len()], 2);
    }

    #[test]
    fn public_entry_points_dispatch_on_the_64_node_boundary() {
        // 63- and 64-node graphs run on the bitset kernel; 65 nodes fall
        // back — and both sides of the seam agree with the oracle bytes.
        // (Counter is thread-local, so parallel test threads cannot race it.)
        if crate::fastcanon::fallback_forced() {
            return;
        }
        for (n, kernel_delta) in [(63usize, 1u64), (64, 1), (65, 0)] {
            let g = generators::path(n);
            let before = crate::fastcanon::thread_kernel_calls();
            let dispatched = centered_canonical_code(&g, NodeId(1), &uniform(n));
            assert_eq!(
                crate::fastcanon::thread_kernel_calls(),
                before + kernel_delta,
                "{n}-node dispatch"
            );
            assert_eq!(
                dispatched,
                centered_canonical_code_oracle(&g, NodeId(1), &uniform(n)),
                "{n}-node code must match the oracle bytes"
            );
        }
    }

    #[test]
    fn single_node_and_disconnected_graphs_are_handled() {
        let single = Graph::with_nodes(1);
        assert_eq!(canonical_code(&single, &[7]), canonical_code(&single, &[7]));
        let pair = Graph::with_nodes(2);
        let also_pair = Graph::with_nodes(2);
        assert_eq!(
            canonical_code(&pair, &[1, 2]),
            canonical_code(&also_pair, &[2, 1])
        );
        assert_ne!(
            canonical_code(&pair, &[1, 2]),
            canonical_code(&pair, &[1, 1])
        );
    }
}
