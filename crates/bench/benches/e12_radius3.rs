//! Experiment E12 — radius-3 view enumeration at scale: the workload the
//! budgeted sweep envelope exists for.
//!
//! Measures, on cycles, paths and grids:
//!
//! * radius-3 dedup through the canonical-code fast path
//!   (`distinct_oblivious_views_of`);
//! * canonicalisation cost, bitset kernel versus the retained canon oracle
//!   (`centered_canonical_code_oracle`);
//! * the **incremental multi-radius profile**
//!   (`distinct_views_by_radius_cached`, one extended BFS per node for all
//!   radii `0..=3`) versus four independent per-radius enumerations;
//! * budgeted enumeration overhead: an unlimited budget must cost the same
//!   as the unbudgeted path, and a capped run must cut off early.
//!
//! Alongside the Criterion output it writes the machine-readable
//! `BENCH_e12_radius3.json` snapshot at the repo root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use local_decision::graph::canon::{
    centered_canonical_code, centered_canonical_code_oracle, CanonicalCode,
};
use local_decision::local::cache::ViewCache;
use local_decision::local::enumeration::{
    distinct_oblivious_views_of_budgeted, distinct_views_by_radius_cached, EnumerationBudget,
};
use local_decision::prelude::*;
use std::collections::HashSet;
use std::time::Duration;

/// Code-dedup throughput over pre-collected views, with the canonical code
/// of each ball computed by a caller-chosen source.  Both halves of the
/// kernel-vs-oracle pair below run this exact loop, so the comparison
/// isolates canonicalisation cost from collection and hashing.
fn dedup_by_code(
    views: &[ObliviousView<u8>],
    mut code_of: impl FnMut(&local_decision::graph::Graph, NodeId, &[u64]) -> CanonicalCode,
) -> usize {
    let mut codes: HashSet<CanonicalCode> = HashSet::new();
    for view in views {
        let colors: Vec<u64> = view.labels().iter().map(|&l| u64::from(l)).collect();
        codes.insert(code_of(view.graph(), view.center(), &colors));
    }
    codes.len()
}

/// Four independent per-radius enumerations against the same shared cache —
/// what the incremental profile replaces (the cache is held equal so the
/// comparison isolates the repeated BFS/materialisation work).
fn per_radius_profile(
    labeled: &LabeledGraph<u8>,
    max_radius: usize,
    cache: &ViewCache<u8>,
) -> usize {
    (0..=max_radius)
        .map(|r| enumeration::distinct_oblivious_views_of_cached(labeled, r, cache).len())
        .sum()
}

/// Machine-readable counterpart of the Criterion output: the same hot paths
/// through a plain timed loop, written to `BENCH_e12_radius3.json`.
fn write_perf_snapshot() {
    use ld_bench::perf;
    let mut records = Vec::new();

    // Radius-3 dedup scaling through the canonical-code engine.
    for &n in &[64usize, 256, 1024] {
        let labeled = LabeledGraph::uniform(generators::cycle(n), 0u8);
        records.push(perf::measure(
            format!("distinct_views_cycle_radius3/{n}"),
            5,
            || enumeration::distinct_oblivious_views_of(&labeled, 3).len(),
        ));
    }
    for &side in &[8usize, 11] {
        let labeled = LabeledGraph::uniform(generators::grid(side, side), 0u8);
        records.push(perf::measure(
            format!("distinct_views_grid_radius3/{side}"),
            3,
            || enumeration::distinct_oblivious_views_of(&labeled, 3).len(),
        ));
    }

    // Dedup throughput, bitset kernel vs retained oracle, over the
    // radius-3 ball mix of an 8×8 grid (balls of up to 25 nodes — all
    // inside the kernel's ≤64-node regime) and of a 256-cycle (7-node
    // path balls).  Identical loop both sides; only the code source
    // differs.
    for (name, labeled) in [
        (
            "dedup_codes_grid_radius3/8",
            LabeledGraph::uniform(generators::grid(8, 8), 0u8),
        ),
        (
            "dedup_codes_cycle_radius3/256",
            LabeledGraph::uniform(generators::cycle(256), 0u8),
        ),
    ] {
        let views = enumeration::collect_oblivious_views(&labeled, 3);
        records.push(perf::measure(format!("{name}_kernel"), 5, || {
            dedup_by_code(&views, centered_canonical_code)
        }));
        records.push(perf::measure(format!("{name}_oracle"), 5, || {
            dedup_by_code(&views, centered_canonical_code_oracle)
        }));
    }

    // Per-code cost on a single radius-3 cycle ball (a 7-node path — the
    // AHU tree regime) and on the 63-node complete binary tree rooted at its
    // root, kernel vs oracle.
    {
        let labeled = LabeledGraph::uniform(generators::cycle(256), 0u8);
        let views = enumeration::collect_oblivious_views(&labeled, 3);
        let view = &views[0];
        let colors: Vec<u64> = view.labels().iter().map(|&l| u64::from(l)).collect();
        records.push(perf::measure("canonical_code_path_ball_kernel", 20, || {
            centered_canonical_code(view.graph(), view.center(), &colors)
        }));
        records.push(perf::measure("canonical_code_path_ball_oracle", 20, || {
            centered_canonical_code_oracle(view.graph(), view.center(), &colors)
        }));

        let tree = generators::complete_binary_tree(5);
        let colors = vec![0u64; tree.node_count()];
        let root = NodeId(0);
        records.push(perf::measure("canonical_code_tree63_kernel", 20, || {
            centered_canonical_code(&tree, root, &colors)
        }));
        records.push(perf::measure("canonical_code_tree63_oracle", 20, || {
            centered_canonical_code_oracle(&tree, root, &colors)
        }));
    }

    // Incremental all-radii profile vs four fresh per-radius enumerations,
    // both against a shared warm cache.
    {
        let side = 11usize;
        let labeled = LabeledGraph::uniform(generators::grid(side, side), 0u8);
        let cache = ViewCache::new();
        records.push(perf::measure(
            format!("profile_radii0to3_incremental/{side}"),
            3,
            || {
                let (profile, _) = distinct_views_by_radius_cached(
                    &labeled,
                    3,
                    &cache,
                    EnumerationBudget::UNLIMITED,
                );
                profile.iter().map(Vec::len).sum::<usize>()
            },
        ));
        records.push(perf::measure(
            format!("profile_radii0to3_per_radius/{side}"),
            3,
            || per_radius_profile(&labeled, 3, &cache),
        ));

        // Budget plumbing overhead (unlimited cap) and early cutoff (tight
        // cap) on the same workload.
        records.push(perf::measure(
            format!("budgeted_unlimited_grid_radius3/{side}"),
            3,
            || {
                distinct_oblivious_views_of_budgeted(&labeled, 3, EnumerationBudget::UNLIMITED)
                    .0
                    .len()
            },
        ));
        records.push(perf::measure(
            format!("budgeted_capped1k_grid_radius3/{side}"),
            3,
            || {
                let (views, usage) = distinct_oblivious_views_of_budgeted(
                    &labeled,
                    3,
                    EnumerationBudget::nodes(1_000),
                );
                assert!(usage.exhausted);
                views.len()
            },
        ));
    }

    match perf::write_bench_json("e12_radius3", &records) {
        Ok(path) => eprintln!("E12: perf snapshot written to {}", path.display()),
        Err(e) => eprintln!("E12: could not write perf snapshot: {e}"),
    }
}

fn bench(c: &mut Criterion) {
    write_perf_snapshot();

    let mut group = c.benchmark_group("e12_radius3");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));

    for &n in &[64usize, 256, 1024] {
        let labeled = LabeledGraph::uniform(generators::cycle(n), 0u8);
        group.bench_with_input(
            BenchmarkId::new("distinct_views_cycle_radius3", n),
            &n,
            |b, _| b.iter(|| enumeration::distinct_oblivious_views_of(&labeled, 3).len()),
        );
    }

    for &side in &[8usize, 11] {
        let labeled = LabeledGraph::uniform(generators::grid(side, side), 0u8);
        group.bench_with_input(
            BenchmarkId::new("distinct_views_grid_radius3", side),
            &side,
            |b, _| b.iter(|| enumeration::distinct_oblivious_views_of(&labeled, 3).len()),
        );
    }

    {
        let labeled = LabeledGraph::uniform(generators::grid(11, 11), 0u8);
        let cache = ViewCache::new();
        group.bench_function("profile_radii0to3_incremental/11", |b| {
            b.iter(|| {
                distinct_views_by_radius_cached(&labeled, 3, &cache, EnumerationBudget::UNLIMITED)
                    .0
                    .iter()
                    .map(Vec::len)
                    .sum::<usize>()
            });
        });
        group.bench_function("profile_radii0to3_per_radius/11", |b| {
            b.iter(|| per_radius_profile(&labeled, 3, &cache));
        });
    }

    group.finish();
}

criterion_group!(e12, bench);
criterion_main!(e12);
