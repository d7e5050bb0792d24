//! The backtracking isomorphism oracle the canonical-code engine is
//! differenced against.
//!
//! The shipped libraries define view indistinguishability once: two views
//! are indistinguishable iff their `canonical_code`s are equal.  This module
//! decides the same relation independently, by a pruned backtracking search
//! for an isomorphism that keeps the centre and the labels (and, for full
//! views, the identifiers).  It reads the views only through their public
//! accessors, so it shares no code with the engine it checks.  Views in the
//! LOCAL model have radius `O(1)`, so the search is fast enough for every
//! differential suite in this crate.

use local_decision::prelude::*;
use std::collections::VecDeque;

/// The core search: is there an isomorphism from `a` to `b` that maps every
/// node `u` of `a` to a node `v` of `b` with `compatible(u, v)`, and maps
/// each `pinned` pair's first node to its second?
///
/// The search is a backtracking over nodes of `a` in BFS order from the
/// pinned nodes, with degree and adjacency pruning.  It is meant for local
/// views and other small graphs (tens to a few hundreds of nodes).
pub fn isomorphic(
    a: &Graph,
    b: &Graph,
    compatible: impl Fn(NodeId, NodeId) -> bool,
    pinned: &[(NodeId, NodeId)],
) -> bool {
    let n = a.node_count();
    if n != b.node_count() || a.edge_count() != b.edge_count() {
        return false;
    }
    if a.degree_sequence() != b.degree_sequence() {
        return false;
    }
    if n == 0 {
        return true;
    }

    // Mapping from a-node to b-node, and used-marks on b.
    let mut mapping: Vec<Option<NodeId>> = vec![None; n];
    let mut used = vec![false; n];

    for &(ua, ub) in pinned {
        if ua.index() >= n || ub.index() >= n {
            return false;
        }
        if !compatible(ua, ub) || a.degree(ua) != b.degree(ub) {
            return false;
        }
        if let Some(existing) = mapping[ua.index()] {
            if existing != ub {
                return false;
            }
            continue;
        }
        if used[ub.index()] {
            return false;
        }
        mapping[ua.index()] = Some(ub);
        used[ub.index()] = true;
    }

    // Order the unpinned nodes of `a`: BFS from pinned nodes (so that each new
    // node tends to have an already-mapped neighbour, which prunes hard),
    // falling back to degree order for unreached nodes.
    let order = search_order(a, &mapping);

    backtrack(a, b, &compatible, &order, 0, &mut mapping, &mut used)
}

/// Centre-, label- and identifier-preserving isomorphism of full views: the
/// relation under which a local algorithm must produce equal outputs.
pub fn indistinguishable<L: Eq>(a: &View<L>, b: &View<L>) -> bool {
    a.radius() == b.radius()
        && isomorphic(
            a.graph(),
            b.graph(),
            |u, v| a.label(u) == b.label(v) && a.id(u) == b.id(v),
            &[(a.center(), b.center())],
        )
}

/// Centre- and label-preserving isomorphism of Id-oblivious views: the
/// relation under which an Id-oblivious algorithm must produce equal
/// outputs.
pub fn oblivious_indistinguishable<L: Eq>(a: &ObliviousView<L>, b: &ObliviousView<L>) -> bool {
    a.radius() == b.radius()
        && isomorphic(
            a.graph(),
            b.graph(),
            |u, v| a.label(u) == b.label(v),
            &[(a.center(), b.center())],
        )
}

/// Dedup by pairwise comparison: keeps each view that is indistinguishable
/// from no view kept before it.  This is the reference answer for
/// `enumeration::distinct_oblivious_views`, which must pick the same
/// representatives in the same order.
pub fn distinct_pairwise<L: Eq>(views: Vec<ObliviousView<L>>) -> Vec<ObliviousView<L>> {
    let mut kept: Vec<ObliviousView<L>> = Vec::new();
    for view in views {
        if kept
            .iter()
            .all(|seen| !oblivious_indistinguishable(seen, &view))
        {
            kept.push(view);
        }
    }
    kept
}

fn search_order(a: &Graph, mapping: &[Option<NodeId>]) -> Vec<NodeId> {
    let n = a.node_count();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    for v in a.nodes() {
        if mapping[v.index()].is_some() {
            seen[v.index()] = true;
            queue.push_back(v);
        }
    }
    // BFS layers from pinned nodes.  Nodes enter `order` exactly when their
    // `seen` mark is set, so every node appears at most once and pinned
    // nodes (marked above, never pushed) appear not at all — no dedup pass
    // is needed afterwards.
    while let Some(u) = queue.pop_front() {
        for v in a.neighbors(u) {
            if !seen[v.index()] {
                seen[v.index()] = true;
                order.push(v);
                queue.push_back(v);
            }
        }
    }
    // Remaining nodes (other components / no pins): seed by decreasing
    // degree, continuing BFS from each still-unseen seed to keep every new
    // node adjacent to an already-ordered one where possible.
    let mut rest: Vec<NodeId> = a.nodes().filter(|v| !seen[v.index()]).collect();
    rest.sort_by_key(|&v| std::cmp::Reverse(a.degree(v).unwrap_or(0)));
    for v in rest {
        if seen[v.index()] {
            continue;
        }
        seen[v.index()] = true;
        order.push(v);
        let mut queue = VecDeque::from([v]);
        while let Some(u) = queue.pop_front() {
            for w in a.neighbors(u) {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    order.push(w);
                    queue.push_back(w);
                }
            }
        }
    }
    debug_assert!(order.iter().all(|v| mapping[v.index()].is_none()));
    order
}

fn backtrack(
    a: &Graph,
    b: &Graph,
    compatible: &impl Fn(NodeId, NodeId) -> bool,
    order: &[NodeId],
    depth: usize,
    mapping: &mut Vec<Option<NodeId>>,
    used: &mut Vec<bool>,
) -> bool {
    if depth == order.len() {
        return true;
    }
    let ua = order[depth];
    let deg_a = a.degree(ua).expect("order nodes are valid");
    'candidates: for vb in b.nodes() {
        if used[vb.index()] || !compatible(ua, vb) {
            continue;
        }
        if b.degree(vb).expect("candidate is valid") != deg_a {
            continue;
        }
        // Adjacency consistency with already-mapped neighbours of ua, and
        // with already-mapped non-neighbours that are adjacent to vb.
        for na in a.neighbors(ua) {
            if let Some(nb) = mapping[na.index()] {
                if !b.has_edge(vb, nb) {
                    continue 'candidates;
                }
            }
        }
        for (xa, maybe_xb) in mapping.iter().enumerate() {
            if let Some(xb) = maybe_xb {
                if !a.has_edge(ua, NodeId::from(xa)) && b.has_edge(vb, *xb) {
                    continue 'candidates;
                }
            }
        }
        mapping[ua.index()] = Some(vb);
        used[vb.index()] = true;
        if backtrack(a, b, compatible, order, depth + 1, mapping, used) {
            return true;
        }
        mapping[ua.index()] = None;
        used[vb.index()] = false;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn any(_: NodeId, _: NodeId) -> bool {
        true
    }

    fn labeled_isomorphic<L: Eq>(a: &LabeledGraph<L>, b: &LabeledGraph<L>) -> bool {
        isomorphic(a.graph(), b.graph(), |u, v| a.label(u) == b.label(v), &[])
    }

    #[test]
    fn isomorphic_cycles_and_relabellings() {
        let c = generators::cycle(6);
        let perm = vec![3, 4, 5, 0, 1, 2];
        let d = c.relabel(&perm).unwrap();
        assert!(isomorphic(&c, &d, any, &[]));
    }

    #[test]
    fn cycle_not_isomorphic_to_path() {
        assert!(!isomorphic(
            &generators::cycle(6),
            &generators::path(6),
            any,
            &[]
        ));
    }

    #[test]
    fn different_sizes_fail_fast() {
        assert!(!isomorphic(
            &generators::cycle(6),
            &generators::cycle(7),
            any,
            &[]
        ));
    }

    #[test]
    fn degree_sequence_prunes() {
        let star = generators::star(3);
        let path = generators::path(4);
        assert_eq!(star.node_count(), path.node_count());
        assert_eq!(star.edge_count(), path.edge_count());
        assert!(!isomorphic(&star, &path, any, &[]));
    }

    #[test]
    fn labeled_isomorphism_respects_labels() {
        let g = generators::cycle(4);
        let a = LabeledGraph::new(g.clone(), vec![0u8, 1, 0, 1]).unwrap();
        let b = LabeledGraph::new(g.clone(), vec![1u8, 0, 1, 0]).unwrap();
        let c = LabeledGraph::new(g, vec![0u8, 0, 1, 1]).unwrap();
        assert!(labeled_isomorphic(&a, &b));
        // a and c: cycle with labels 0,1,0,1 vs 0,0,1,1 — not isomorphic as
        // labelled graphs since in `a` equal labels are never adjacent.
        assert!(!labeled_isomorphic(&a, &c));
    }

    #[test]
    fn centered_isomorphism_distinguishes_positions() {
        // A path 0-1-2: centre at an endpoint vs centre in the middle.
        let p = generators::path(3);
        assert!(!isomorphic(&p, &p, any, &[(NodeId(0), NodeId(1))]));
        assert!(isomorphic(&p, &p, any, &[(NodeId(0), NodeId(2))]));
    }

    #[test]
    fn centered_labeled_isomorphism() {
        let p = generators::path(3);
        let a = ObliviousView::from_parts(p.clone(), NodeId(0), 2, vec!['x', 'y', 'x']);
        let b = ObliviousView::from_parts(p.clone(), NodeId(2), 2, vec!['x', 'y', 'x']);
        assert!(oblivious_indistinguishable(&a, &b));
        let c = ObliviousView::from_parts(p, NodeId(2), 2, vec!['x', 'y', 'z']);
        assert!(!oblivious_indistinguishable(&a, &c));
    }

    #[test]
    fn pinned_pairs_must_be_consistent() {
        let g = generators::cycle(4);
        // Pinning 0 -> 0 and 1 -> 3 is fine (both adjacent to 0);
        // pinning 0 -> 0 and 2 -> 1 is impossible since 0,2 are non-adjacent
        // but 0,1 are adjacent.
        assert!(isomorphic(
            &g,
            &g,
            any,
            &[(NodeId(0), NodeId(0)), (NodeId(1), NodeId(3))]
        ));
        assert!(!isomorphic(
            &g,
            &g,
            any,
            &[(NodeId(0), NodeId(0)), (NodeId(2), NodeId(1))]
        ));
    }

    #[test]
    fn empty_graphs_are_isomorphic() {
        assert!(isomorphic(&Graph::new(), &Graph::new(), any, &[]));
    }
}
