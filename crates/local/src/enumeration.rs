//! Enumeration of local views up to isomorphism.
//!
//! Indistinguishability arguments ("every `t`-neighbourhood of the
//! no-instance already occurs in some yes-instance") become *executable* once
//! we can enumerate the distinct views of a graph.  This module collects
//! views and deduplicates them up to centred label-preserving isomorphism.
//!
//! Deduplication is driven by [`ObliviousView::canonical_code`], a **total**
//! invariant: two views share a code iff they are indistinguishable.  Both
//! dedup and coverage are therefore plain hash-set operations — no pairwise
//! isomorphism tests.  Because extracted balls are numbered deterministically
//! (by `(distance, original id)`), structurally identical views of a swept
//! family are usually *exactly* equal as values, so an exact-equality prepass
//! collapses most of the input before any canonicalisation runs at all.
//! Every code comes from [`ObliviousView::canonical_code`], directly or
//! through [`ViewCache::canonical_code`], so enumeration holds no canon
//! state of its own.
//!
//! Code equality is the only indistinguishability test this crate ships.
//! The `ld-tests` crate checks it against an independent backtracking
//! isomorphism oracle (`ld_tests::oracle`): [`distinct_oblivious_views`]
//! must select the same representatives, in the same order, as the
//! oracle's pairwise dedup.
//!
//! Radius-3 workloads additionally get **work budgets**
//! ([`EnumerationBudget`]) — deterministic node/view caps whose exhaustion
//! is an explicit outcome ([`BudgetUsage`]), not a wall-time surprise — and
//! an **incremental multi-radius profile**
//! ([`distinct_views_by_radius_cached`]) that extends each node's BFS from
//! radius to radius instead of re-running it.

use crate::cache::ViewCache;
use crate::hashing::{FxHashMap, FxHashSet};
use crate::view::ObliviousView;
use ld_graph::canon::CanonicalCode;
use ld_graph::{BallExtractor, LabeledGraph};
use std::hash::Hash;
use std::sync::Arc;

/// A work budget for view enumeration: caps on the total number of ball
/// nodes visited and on the number of distinct views materialised.
///
/// Radius-3 balls are where naive enumeration blows up combinatorially — a
/// single dense centre can dominate a whole sweep cell.  Budgets make that
/// failure mode an explicit, deterministic *outcome* ([`BudgetUsage`] with
/// `exhausted = true`) instead of a wall-time surprise: enumeration stops
/// the moment either cap would be crossed, at a point that depends only on
/// the input graph and the budget, never on timing or thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumerationBudget {
    /// Total ball-node visits allowed across the enumeration (each ball
    /// charges its node count at every radius it is fingerprinted at).
    pub max_nodes: u64,
    /// Distinct views the enumeration may materialise before stopping.
    pub max_views: u64,
}

impl EnumerationBudget {
    /// No caps: enumeration always runs to completion.
    pub const UNLIMITED: EnumerationBudget = EnumerationBudget {
        max_nodes: u64::MAX,
        max_views: u64::MAX,
    };

    /// A budget with the given node cap and no view cap.
    pub fn nodes(max_nodes: u64) -> Self {
        EnumerationBudget {
            max_nodes,
            ..Self::UNLIMITED
        }
    }

    /// A budget with the given view cap and no node cap.
    pub fn views(max_views: u64) -> Self {
        EnumerationBudget {
            max_views,
            ..Self::UNLIMITED
        }
    }

    /// What is left of this budget after `spent` — the budget to hand the
    /// next enumeration when one logical cell runs several (saturating at
    /// zero, so an overdrawn budget exhausts immediately).
    #[must_use]
    pub fn after(&self, spent: &BudgetUsage) -> Self {
        EnumerationBudget {
            max_nodes: self.max_nodes.saturating_sub(spent.nodes_visited),
            max_views: self.max_views.saturating_sub(spent.views_materialized),
        }
    }

    /// A generous deterministic default budget for a sweep cell over
    /// instances of at most `max_n` nodes at view radius `radius` — the
    /// safety net the large-N ("XL") scenarios run every cell under when no
    /// explicit budget was configured.
    ///
    /// The node allowance is `max_n` balls of at most `(2·radius + 1)²`
    /// nodes each (the radius-`radius` ball bound in every grid-or-sparser
    /// family the paper sweeps), charged across up to `8·(radius + 1)`
    /// enumeration passes (multi-instance coverage cells, incremental
    /// profiles and their differential re-checks); the view allowance is 16
    /// distinct views per node.  Both are an order of magnitude above what
    /// the swept families actually spend, so exhaustion under this budget
    /// means a cell is genuinely pathological — it stops deterministically
    /// instead of stalling the shard.
    pub fn scaled(max_n: usize, radius: usize) -> Self {
        let ball = ((2 * radius + 1) * (2 * radius + 1)) as u64;
        let passes = 8 * (radius as u64 + 1);
        EnumerationBudget {
            max_nodes: (max_n as u64)
                .saturating_mul(ball)
                .saturating_mul(passes)
                .max(1 << 16),
            max_views: (max_n as u64).saturating_mul(16).max(1 << 12),
        }
    }
}

impl Default for EnumerationBudget {
    fn default() -> Self {
        Self::UNLIMITED
    }
}

/// What a budgeted enumeration spent, and whether it ran out.
///
/// `exhausted = true` means the returned views are a *prefix* of the full
/// answer (complete for every node processed before the cap); the partial
/// result is still deterministic for a fixed input and budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetUsage {
    /// Ball nodes visited (summed over every fingerprinted ball).
    pub nodes_visited: u64,
    /// Distinct views materialised.
    pub views_materialized: u64,
    /// `true` when a cap stopped the enumeration before completion.
    pub exhausted: bool,
}

impl BudgetUsage {
    /// Accumulates another enumeration's spend into this one (counters add;
    /// exhaustion is sticky).
    pub fn absorb(&mut self, other: &BudgetUsage) {
        self.nodes_visited += other.nodes_visited;
        self.views_materialized += other.views_materialized;
        self.exhausted |= other.exhausted;
    }
}

/// Collects the Id-oblivious radius-`radius` view of every node of a
/// labelled graph (identifiers are irrelevant, so none are needed).
pub fn collect_oblivious_views<L: Clone>(
    labeled: &LabeledGraph<L>,
    radius: usize,
) -> Vec<ObliviousView<L>> {
    let mut extractor = BallExtractor::new();
    labeled
        .graph()
        .nodes()
        .map(|v| {
            let ball = extractor
                .extract(labeled.graph(), v, radius)
                // ld-analyze: allow(D004, reason = "invariant: v iterates over this graph's own nodes")
                .expect("node comes from the graph itself");
            let labels = ball
                .mapping()
                .iter()
                .map(|&orig| labeled.label(orig).clone())
                .collect();
            ObliviousView::from_ball(ball, labels)
        })
        .collect()
}

/// Deduplicates oblivious views up to centred, label-preserving isomorphism:
/// the first occurrence of each canonical code is kept, in input order.
pub fn distinct_oblivious_views<L: Clone + Eq + Hash>(
    views: Vec<ObliviousView<L>>,
) -> Vec<ObliviousView<L>> {
    // Exact-equality prepass: balls are numbered deterministically, so
    // repeated views of a self-similar family are usually equal as values
    // and never need canonicalising more than once.
    let mut exact_seen: FxHashSet<ObliviousView<L>> = FxHashSet::default();
    let mut codes: FxHashSet<CanonicalCode> = FxHashSet::default();
    let mut result = Vec::new();
    for view in views {
        if exact_seen.contains(&view) {
            continue;
        }
        if codes.insert(view.canonical_code()) {
            result.push(view.clone());
        }
        exact_seen.insert(view);
    }
    result
}

/// Convenience: the distinct oblivious views of a labelled graph.
///
/// Equivalent to `distinct_oblivious_views(collect_oblivious_views(..))`
/// but cheaper: each node's ball is first fingerprinted in place via
/// [`BallExtractor::exact_key`], so the view (graph, labels, distances) is
/// only materialised for the first node of each exact ball layout —
/// self-similar families collapse before any allocation happens.
pub fn distinct_oblivious_views_of<L: Clone + Eq + Hash>(
    labeled: &LabeledGraph<L>,
    radius: usize,
) -> Vec<ObliviousView<L>> {
    distinct_of_impl(labeled, radius, |view| Arc::new(view.canonical_code()))
}

/// 64-bit hash of a node's label, the `label_word` every exact-key
/// fingerprint in this module uses.
fn label_hash<L: Hash>(labeled: &LabeledGraph<L>, v: ld_graph::NodeId) -> u64 {
    use crate::hashing::FxHasher;
    use std::hash::Hasher;
    let mut hasher = FxHasher::default();
    labeled.label(v).hash(&mut hasher);
    hasher.finish()
}

/// Shared body of the `distinct_oblivious_views_of*` fast paths: in-place
/// exact-layout dedup, then canonical-code dedup with a caller-chosen code
/// source (direct computation or a shared cache).
fn distinct_of_impl<L: Clone + Eq + Hash>(
    labeled: &LabeledGraph<L>,
    radius: usize,
    code_of: impl FnMut(&ObliviousView<L>) -> Arc<CanonicalCode>,
) -> Vec<ObliviousView<L>> {
    distinct_of_budgeted_impl(labeled, radius, EnumerationBudget::UNLIMITED, code_of).0
}

/// Budgeted body shared by every `distinct_oblivious_views_of*` variant.
/// With [`EnumerationBudget::UNLIMITED`] it is exactly the unbudgeted
/// pipeline; otherwise it stops — deterministically — the moment a ball
/// would cross the node cap or a new layout would cross the view cap.
fn distinct_of_budgeted_impl<L: Clone + Eq + Hash>(
    labeled: &LabeledGraph<L>,
    radius: usize,
    budget: EnumerationBudget,
    mut code_of: impl FnMut(&ObliviousView<L>) -> Arc<CanonicalCode>,
) -> (Vec<ObliviousView<L>>, BudgetUsage) {
    let mut extractor = BallExtractor::new();
    let mut exact_seen: FxHashSet<Vec<u64>> = FxHashSet::default();
    let mut codes: FxHashSet<Arc<CanonicalCode>> = FxHashSet::default();
    let mut result = Vec::new();
    let mut usage = BudgetUsage::default();
    for v in labeled.graph().nodes() {
        let remaining = budget.max_nodes.saturating_sub(usage.nodes_visited);
        if remaining == 0 {
            usage.exhausted = true;
            break;
        }
        let cap = usize::try_from(remaining).unwrap_or(usize::MAX);
        let Some(key) = extractor
            .exact_key_within(labeled.graph(), v, radius, cap, |u| label_hash(labeled, u))
            // ld-analyze: allow(D004, reason = "invariant: v iterates over this graph's own nodes")
            .expect("node comes from the graph itself")
        else {
            usage.exhausted = true;
            break;
        };
        usage.nodes_visited += extractor.current_node_count() as u64;
        if !exact_seen.insert(key) {
            continue;
        }
        if usage.views_materialized >= budget.max_views {
            usage.exhausted = true;
            break;
        }
        // New layout: materialise the ball from the BFS scratch `exact_key`
        // just populated — no second traversal.
        let ball = extractor.materialize_current(labeled.graph());
        let labels = ball
            .mapping()
            .iter()
            .map(|&orig| labeled.label(orig).clone())
            .collect();
        let view = ObliviousView::from_ball(ball, labels);
        usage.views_materialized += 1;
        if codes.insert(code_of(&view)) {
            result.push(view);
        }
    }
    (result, usage)
}

/// Budget-aware [`distinct_oblivious_views_of`]: enumeration stops — with
/// `exhausted = true` in the returned [`BudgetUsage`] — the moment a ball
/// would cross the budget's node cap or a new layout would cross its view
/// cap.  The stop point is a pure function of the input and the budget, so
/// capped enumerations are as reproducible as complete ones; the returned
/// views are the complete answer for every node processed before the cap.
pub fn distinct_oblivious_views_of_budgeted<L: Clone + Eq + Hash>(
    labeled: &LabeledGraph<L>,
    radius: usize,
    budget: EnumerationBudget,
) -> (Vec<ObliviousView<L>>, BudgetUsage) {
    distinct_of_budgeted_impl(labeled, radius, budget, |view| {
        Arc::new(view.canonical_code())
    })
}

/// [`distinct_oblivious_views_of_budgeted`], with canonical codes served
/// from a shared [`ViewCache`].
pub fn distinct_oblivious_views_of_budgeted_cached<L: Clone + Eq + Hash + Send + Sync>(
    labeled: &LabeledGraph<L>,
    radius: usize,
    cache: &ViewCache<L>,
    budget: EnumerationBudget,
) -> (Vec<ObliviousView<L>>, BudgetUsage) {
    distinct_of_budgeted_impl(labeled, radius, budget, |view| cache.canonical_code(view))
}

/// The distinct oblivious views of a labelled graph at **every** radius
/// `0..=max_radius`, in one incremental pass: each node's BFS is run once
/// and *extended* from radius to radius ([`BallExtractor::extend_current`]),
/// so the radius-3 profile costs one radius-3 extraction per node instead
/// of four overlapping ones.  Entry `r` of the returned vector holds the
/// distinct views at radius `r`.
///
/// The budget is shared across all radii (each ball charges its node count
/// at every radius it is fingerprinted at); on exhaustion the per-radius
/// results already gathered are returned with `exhausted = true`.
pub fn distinct_views_by_radius_cached<L: Clone + Eq + Hash + Send + Sync>(
    labeled: &LabeledGraph<L>,
    max_radius: usize,
    cache: &ViewCache<L>,
    budget: EnumerationBudget,
) -> (Vec<Vec<ObliviousView<L>>>, BudgetUsage) {
    let graph = labeled.graph();
    let mut extractor = BallExtractor::new();
    let mut exact_seen: Vec<FxHashSet<Vec<u64>>> = vec![FxHashSet::default(); max_radius + 1];
    let mut codes: Vec<FxHashSet<Arc<CanonicalCode>>> = vec![FxHashSet::default(); max_radius + 1];
    let mut results: Vec<Vec<ObliviousView<L>>> = vec![Vec::new(); max_radius + 1];
    let mut usage = BudgetUsage::default();
    'nodes: for v in graph.nodes() {
        for radius in 0..=max_radius {
            let remaining = budget.max_nodes.saturating_sub(usage.nodes_visited);
            if remaining == 0 {
                usage.exhausted = true;
                break 'nodes;
            }
            let cap = usize::try_from(remaining).unwrap_or(usize::MAX);
            let key = if radius == 0 {
                match extractor
                    .exact_key_within(graph, v, 0, cap, |u| label_hash(labeled, u))
                    // ld-analyze: allow(D004, reason = "invariant: v iterates over this graph's own nodes")
                    .expect("node comes from the graph itself")
                {
                    Some(key) => key,
                    None => {
                        usage.exhausted = true;
                        break 'nodes;
                    }
                }
            } else {
                if !extractor.extend_current_within(graph, radius, cap) {
                    usage.exhausted = true;
                    break 'nodes;
                }
                extractor.current_exact_key(graph, |u| label_hash(labeled, u))
            };
            usage.nodes_visited += extractor.current_node_count() as u64;
            if !exact_seen[radius].insert(key) {
                // Seen layout at this radius — but keep extending: the same
                // centre can still contribute new views at larger radii.
                continue;
            }
            if usage.views_materialized >= budget.max_views {
                usage.exhausted = true;
                break 'nodes;
            }
            let ball = extractor.materialize_current(graph);
            let labels = ball
                .mapping()
                .iter()
                .map(|&orig| labeled.label(orig).clone())
                .collect();
            let view = ObliviousView::from_ball(ball, labels);
            usage.views_materialized += 1;
            if codes[radius].insert(cache.canonical_code(&view)) {
                results[radius].push(view);
            }
        }
    }
    (results, usage)
}

/// [`distinct_oblivious_views_of`], routed through a shared [`ViewCache`]:
/// the same in-place `exact_key` prepass skips ball construction for
/// repeated layouts within the graph, and each unique layout's canonical
/// code is served from (or inserted into) the cache, so repeated instances
/// across a sweep canonicalise nothing at all.
pub fn distinct_oblivious_views_of_cached<L: Clone + Eq + Hash + Send + Sync>(
    labeled: &LabeledGraph<L>,
    radius: usize,
    cache: &ViewCache<L>,
) -> Vec<ObliviousView<L>> {
    distinct_of_impl(labeled, radius, |view| cache.canonical_code(view))
}

/// The coverage of `targets` by `family`: the fraction of views in `targets`
/// that occur (up to isomorphism) in `family`.  Experiment E2 reports this
/// number for the interior views of `T_r` against the views of the
/// yes-instances `H_r`: the paper's indistinguishability argument corresponds
/// to coverage 1.0.
pub fn coverage<L: Clone + Eq + Hash>(
    targets: &[ObliviousView<L>],
    family: &[ObliviousView<L>],
) -> f64 {
    if targets.is_empty() {
        return 1.0;
    }
    // Memoize by exact view value within the call: self-similar families
    // repeat the same ball layouts many times over.
    let mut memo: FxHashMap<&ObliviousView<L>, CanonicalCode> = FxHashMap::default();
    for view in family.iter().chain(targets.iter()) {
        memo.entry(view).or_insert_with(|| view.canonical_code());
    }
    let family_codes: FxHashSet<&CanonicalCode> = family.iter().map(|v| &memo[v]).collect();
    let covered = targets
        .iter()
        .filter(|t| family_codes.contains(&memo[t]))
        .count();
    covered as f64 / targets.len() as f64
}

/// [`coverage`], with canonical codes served from a shared [`ViewCache`].
/// The result is identical to [`coverage`]: equal codes mean isomorphic
/// views, so membership in the family's code set is exactly occurrence up to
/// isomorphism.
pub fn coverage_cached<L: Clone + Eq + Hash + Send + Sync>(
    targets: &[ObliviousView<L>],
    family: &[ObliviousView<L>],
    cache: &ViewCache<L>,
) -> f64 {
    if targets.is_empty() {
        return 1.0;
    }
    let family_codes: FxHashSet<Arc<CanonicalCode>> =
        family.iter().map(|v| cache.canonical_code(v)).collect();
    let covered = targets
        .iter()
        .filter(|t| family_codes.contains(&cache.canonical_code(t)))
        .count();
    covered as f64 / targets.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ld_graph::generators;

    fn uniform_cycle(n: usize) -> LabeledGraph<u8> {
        LabeledGraph::uniform(generators::cycle(n), 0u8)
    }

    #[test]
    fn long_cycle_has_a_single_distinct_interior_view() {
        // Every radius-2 view of a 20-cycle is a path of 5 nodes centred in
        // the middle: exactly one distinct view.
        let views = distinct_oblivious_views_of(&uniform_cycle(20), 2);
        assert_eq!(views.len(), 1);
    }

    #[test]
    fn path_views_depend_on_distance_to_the_ends() {
        // In a long path, radius-1 views: end node (degree 1) and interior
        // node (degree 2) — two distinct views.
        let path = LabeledGraph::uniform(generators::path(10), 0u8);
        let views = distinct_oblivious_views_of(&path, 1);
        assert_eq!(views.len(), 2);
        // Radius-2: end, next-to-end, interior — three distinct views.
        let views = distinct_oblivious_views_of(&path, 2);
        assert_eq!(views.len(), 3);
    }

    #[test]
    fn labels_refine_view_classes() {
        let g = generators::cycle(12);
        let alternating = LabeledGraph::from_fn(g, |v| (v.index() % 2) as u8);
        // With alternating labels there are two distinct radius-1 views
        // (centre labelled 0 or 1).
        let views = distinct_oblivious_views_of(&alternating, 1);
        assert_eq!(views.len(), 2);
    }

    #[test]
    fn cycle_views_cover_longer_cycle_views() {
        // The distinct radius-2 views of a 30-cycle are covered by those of a
        // 10-cycle (and vice versa): the paradigmatic indistinguishability.
        let small = distinct_oblivious_views_of(&uniform_cycle(10), 2);
        let large = distinct_oblivious_views_of(&uniform_cycle(30), 2);
        assert_eq!(coverage(&large, &small), 1.0);
        assert_eq!(coverage(&small, &large), 1.0);
        // A 5-cycle's radius-2 view (the whole cycle) is NOT covered by long
        // cycle views.
        let tiny = distinct_oblivious_views_of(&uniform_cycle(5), 2);
        assert_eq!(coverage(&tiny, &large), 0.0);
    }

    #[test]
    fn scaled_budget_is_generous_and_monotone() {
        let small = EnumerationBudget::scaled(8, 1);
        // Floors keep tiny sweeps from being budget-bound at all.
        assert_eq!(small.max_nodes, 1 << 16);
        assert_eq!(small.max_views, 1 << 12);
        let xl = EnumerationBudget::scaled(512, 3);
        assert!(xl.max_nodes >= 512 * 49 * 8);
        assert!(xl.max_views >= 512 * 16);
        // Monotone in both knobs, and saturating rather than overflowing.
        assert!(xl.max_nodes > EnumerationBudget::scaled(256, 3).max_nodes);
        assert!(xl.max_nodes > EnumerationBudget::scaled(512, 2).max_nodes);
        let huge = EnumerationBudget::scaled(usize::MAX, 3);
        assert_eq!(huge.max_nodes, u64::MAX);
    }

    #[test]
    fn unlimited_budget_reproduces_the_unbudgeted_enumeration() {
        for labeled in [
            uniform_cycle(20),
            LabeledGraph::uniform(generators::grid(5, 4), 0u8),
            LabeledGraph::from_fn(generators::cycle(12), |v| (v.index() % 3) as u8),
        ] {
            for radius in 0..4 {
                let plain = distinct_oblivious_views_of(&labeled, radius);
                let (budgeted, usage) = distinct_oblivious_views_of_budgeted(
                    &labeled,
                    radius,
                    EnumerationBudget::UNLIMITED,
                );
                assert_eq!(plain, budgeted, "radius {radius}");
                assert!(!usage.exhausted);
                assert!(usage.nodes_visited >= labeled.node_count() as u64);
            }
        }
    }

    #[test]
    fn node_cap_exhaustion_is_deterministic_and_yields_a_prefix() {
        let labeled = LabeledGraph::uniform(generators::grid(6, 6), 0u8);
        let (full, full_usage) =
            distinct_oblivious_views_of_budgeted(&labeled, 3, EnumerationBudget::UNLIMITED);
        assert!(!full_usage.exhausted);
        let tight = EnumerationBudget::nodes(full_usage.nodes_visited / 2);
        let (capped_a, usage_a) = distinct_oblivious_views_of_budgeted(&labeled, 3, tight);
        let (capped_b, usage_b) = distinct_oblivious_views_of_budgeted(&labeled, 3, tight);
        assert!(usage_a.exhausted);
        assert_eq!(usage_a, usage_b, "exhaustion point must be reproducible");
        assert_eq!(capped_a, capped_b);
        assert!(capped_a.len() <= full.len());
        // The capped result is a prefix of the full result.
        assert_eq!(capped_a[..], full[..capped_a.len()]);
        // A budget of exactly what the full run spent completes it.
        let (exact, exact_usage) = distinct_oblivious_views_of_budgeted(
            &labeled,
            3,
            EnumerationBudget::nodes(full_usage.nodes_visited),
        );
        assert!(!exact_usage.exhausted);
        assert_eq!(exact, full);
    }

    #[test]
    fn view_cap_stops_materialisation() {
        let path = LabeledGraph::uniform(generators::path(12), 0u8);
        // A long path has 4 distinct radius-3 view classes but more exact
        // ball layouts; cap materialisation at 2.
        let (views, usage) =
            distinct_oblivious_views_of_budgeted(&path, 3, EnumerationBudget::views(2));
        assert!(usage.exhausted);
        assert_eq!(usage.views_materialized, 2);
        assert!(views.len() <= 2);
        let cache = ViewCache::new();
        let (cached_views, cached_usage) = distinct_oblivious_views_of_budgeted_cached(
            &path,
            3,
            &cache,
            EnumerationBudget::views(2),
        );
        assert_eq!(views, cached_views);
        assert_eq!(usage, cached_usage);
    }

    #[test]
    fn by_radius_profile_matches_per_radius_enumeration() {
        let cache = ViewCache::new();
        for labeled in [
            uniform_cycle(20),
            LabeledGraph::uniform(generators::path(12), 0u8),
            LabeledGraph::uniform(generators::grid(5, 5), 0u8),
            LabeledGraph::from_fn(generators::cycle(12), |v| (v.index() % 2) as u8),
        ] {
            let (profile, usage) =
                distinct_views_by_radius_cached(&labeled, 3, &cache, EnumerationBudget::UNLIMITED);
            assert!(!usage.exhausted);
            assert_eq!(profile.len(), 4);
            for (radius, views) in profile.iter().enumerate() {
                let reference = distinct_oblivious_views_of(&labeled, radius);
                assert_eq!(views, &reference, "radius {radius}");
            }
        }
    }

    #[test]
    fn by_radius_profile_never_overshoots_the_node_cap() {
        // Saturated balls gain no nodes at larger radii but still charge
        // their size; the charge must stay within the cap (a cap of 67 on
        // cycle(5), whose full profile costs 70, must exhaust).
        let cache = ViewCache::new();
        let labeled = uniform_cycle(5);
        let (_, full) =
            distinct_views_by_radius_cached(&labeled, 3, &cache, EnumerationBudget::UNLIMITED);
        assert_eq!(full.nodes_visited, 70);
        for cap in [67u64, 69, 14] {
            let (_, usage) =
                distinct_views_by_radius_cached(&labeled, 3, &cache, EnumerationBudget::nodes(cap));
            assert!(usage.exhausted, "cap {cap}");
            assert!(usage.nodes_visited <= cap, "cap {cap}: {usage:?}");
        }
    }

    #[test]
    fn by_radius_profile_exhausts_deterministically() {
        let cache = ViewCache::new();
        let labeled = LabeledGraph::uniform(generators::grid(6, 6), 0u8);
        let budget = EnumerationBudget::nodes(200);
        let (profile_a, usage_a) = distinct_views_by_radius_cached(&labeled, 3, &cache, budget);
        let (profile_b, usage_b) = distinct_views_by_radius_cached(&labeled, 3, &cache, budget);
        assert!(usage_a.exhausted);
        assert_eq!(usage_a, usage_b);
        assert_eq!(profile_a, profile_b);
    }

    #[test]
    fn coverage_of_empty_target_set_is_total() {
        let family = distinct_oblivious_views_of(&uniform_cycle(6), 1);
        assert_eq!(coverage::<u8>(&[], &family), 1.0);
        let cache = ViewCache::new();
        assert_eq!(coverage_cached::<u8>(&[], &family, &cache), 1.0);
    }

    #[test]
    fn cached_enumeration_matches_uncached() {
        let cache = ViewCache::new();
        for labeled in [
            uniform_cycle(20),
            LabeledGraph::uniform(ld_graph::generators::path(9), 0u8),
            LabeledGraph::from_fn(generators::cycle(12), |v| (v.index() % 2) as u8),
        ] {
            for radius in 0..3 {
                let plain = distinct_oblivious_views_of(&labeled, radius);
                let cached = distinct_oblivious_views_of_cached(&labeled, radius, &cache);
                assert_eq!(plain, cached);
            }
        }
        assert!(cache.stats().hits > 0, "repeat views must hit the cache");
    }

    #[test]
    fn cached_coverage_matches_uncached() {
        let cache = ViewCache::new();
        let small = distinct_oblivious_views_of(&uniform_cycle(10), 2);
        let large = distinct_oblivious_views_of(&uniform_cycle(30), 2);
        let tiny = distinct_oblivious_views_of(&uniform_cycle(5), 2);
        for (targets, family) in [(&large, &small), (&small, &large), (&tiny, &large)] {
            assert_eq!(
                coverage(targets, family),
                coverage_cached(targets, family, &cache)
            );
        }
    }
}
