//! The runner's core contract: a sweep's deterministic report is a pure
//! function of (scenario, seed, max_n).  Thread count, scheduling order and
//! cache state must never leak into it.
//!
//! A plan of one shard runs on one worker, so every config here sets a
//! `shard_size` that gives at least two shards per thread: the parallel
//! runs must really go through the worker pool.

use local_decision::runner::{scenarios, stream, Scenario, SweepConfig};

fn config(threads: usize) -> SweepConfig {
    SweepConfig {
        max_n: 48,
        threads,
        seed: 0xdecade,
        // >= 100 cells in shards of 4: at least 16 shards for 8 threads.
        shard_size: 4,
        ..SweepConfig::default()
    }
}

fn section2_sweep() -> Box<dyn Scenario> {
    scenarios::find("section2-sweep").expect("section2-sweep is registered")
}

#[test]
fn parallel_section2_report_is_byte_identical_to_sequential() {
    let sequential = stream::collect(section2_sweep().as_ref(), &config(1)).unwrap();
    let reference = sequential.deterministic_json();
    assert!(sequential.cells.len() >= 100, "{}", sequential.cells.len());

    for threads in [2, 4, 8] {
        let parallel = stream::collect(section2_sweep().as_ref(), &config(threads)).unwrap();
        assert_eq!(
            reference,
            parallel.deterministic_json(),
            "threads = {threads} must reproduce the sequential report byte for byte"
        );
    }
}

#[test]
fn reports_depend_on_the_master_seed_only_through_cells() {
    // Same seed twice: identical. Different seed: shuffled-id cells change
    // their per-cell seeds, so the documents differ.
    let a = stream::collect(section2_sweep().as_ref(), &config(2)).unwrap();
    let b = stream::collect(section2_sweep().as_ref(), &config(2)).unwrap();
    assert_eq!(a.deterministic_json(), b.deterministic_json());

    let other = SweepConfig {
        seed: 1,
        ..config(2)
    };
    let c = stream::collect(section2_sweep().as_ref(), &other).unwrap();
    assert_ne!(a.deterministic_json(), c.deterministic_json());
}

#[test]
fn every_builtin_scenario_is_parallel_deterministic() {
    for scenario in scenarios::all() {
        // One-cell shards: the 4-cell relationship table is the smallest
        // plan, and still reaches all 4 workers.
        let small = SweepConfig {
            max_n: 24,
            threads: 1,
            seed: 5,
            shard_size: 1,
            ..SweepConfig::default()
        };
        let sequential = stream::collect(scenario.as_ref(), &small).unwrap();
        let parallel = stream::collect(
            scenario.as_ref(),
            &SweepConfig {
                threads: 4,
                ..small
            },
        )
        .unwrap();
        assert_eq!(
            sequential.deterministic_json(),
            parallel.deterministic_json(),
            "scenario {} must be parallel-deterministic",
            scenario.name()
        );
    }
}

/// Every canonicalisation a sweep cell performs runs on the calling
/// thread, so `thread_canon_calls` counts a shard's canon work — and, like
/// every work counter, that count is a pure function of the plan: two plans
/// with fresh caches replay shard 0 with equal deltas.
#[test]
fn sweep_canon_work_is_counted_on_the_thread_kernel_and_repeats() {
    use local_decision::graph::canon::thread_canon_calls;
    let config = config(1);
    let deltas: Vec<u64> = (0..2)
        .map(|_| {
            let plan = section2_sweep().plan(&config).unwrap();
            let layout = stream::ShardLayout::new(plan.cells.len(), config.shard_size);
            let before = thread_canon_calls();
            let shard = stream::execute_shard(&plan.cells, &config, layout, 0);
            assert_eq!(shard.failed + shard.panicked, 0, "{:?}", shard.failures);
            thread_canon_calls() - before
        })
        .collect();
    assert!(deltas[0] > 0, "shard 0 canonicalised nothing");
    assert_eq!(deltas[0], deltas[1], "canon calls must repeat across plans");
}
