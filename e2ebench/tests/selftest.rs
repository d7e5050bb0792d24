//! Self-tests of the benchmark: every workload runs clean at smoke size
//! without leaving anything in the source tree, and the work counters a
//! later change may claim on repeat exactly.

use e2ebench::{replay_counters, run, Options, Scale, Workload};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository root (the benchmark package's parent).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// A per-test scratch directory under the repository root, as the
/// benchmark binary uses `.bench_tmp/` under its working directory.
fn scratch(name: &str) -> PathBuf {
    repo_root()
        .join(".bench_tmp")
        .join(format!("selftest-{name}-{}", std::process::id()))
}

/// `git status --porcelain --ignored` of the repository, or `None` outside
/// a git work tree.  Ignored entries are included so that a leftover in a
/// git-ignored scratch directory shows too.
fn tree_status() -> Option<String> {
    let output = Command::new("git")
        .args(["status", "--porcelain", "--ignored"])
        .current_dir(repo_root())
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).into_owned())
}

#[test]
fn smoke_runs_leave_the_tree_clean() {
    let before = tree_status();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let options = Options {
                workload,
                seed: 7,
                seconds: 0.2,
                trace,
                scale: Scale::SMOKE,
                work_dir: scratch(workload.name()),
            };
            let results =
                run(&options).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()));
            assert_eq!(
                results.failed,
                0,
                "{} trace={trace}: {:?}",
                workload.name(),
                results.errors
            );
            assert!(results.attempted > 0);
            let metrics = if trace {
                &results.per_layer
            } else {
                &results.end_to_end
            };
            assert!(!metrics.is_empty());
            assert!(metrics.iter().all(|m| m.value.is_finite()));
            assert!(!options.work_dir.exists(), "scratch left behind");
        }
    }
    match before {
        Some(before) => assert_eq!(
            tree_status().as_deref(),
            Some(before.as_str()),
            "a benchmark run changed the repository tree"
        ),
        None => eprintln!("not a git work tree: tree check skipped"),
    }
}

/// Work counters known not to repeat across replays and thread counts;
/// they are printed, not pinned.  Every candidate repeats today.
const UNPINNED: &[&str] = &[];

#[test]
fn work_counters_repeat() {
    for workload in [Workload::XlShared, Workload::GmrCold] {
        // Outside the repository tree, so the tree check of the other test
        // never sees it.
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "counters-{}-{}",
            workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("creating the scratch directory");
        let replays: Vec<_> = [1, 1, 2]
            .into_iter()
            .map(|threads| {
                replay_counters(workload, Scale::SMOKE, 3, threads, &dir)
                    .unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
                    .work_counters()
            })
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        for ((a, b), c) in replays[0].iter().zip(&replays[1]).zip(&replays[2]) {
            let (name, value) = *a;
            if UNPINNED.contains(&name) {
                eprintln!(
                    "{} {name}: {value} / {} / {} (not pinned)",
                    workload.name(),
                    b.1,
                    c.1
                );
                continue;
            }
            assert!(
                value == b.1 && value == c.1,
                "{} {name} does not repeat: {value} / {} / {}",
                workload.name(),
                b.1,
                c.1
            );
        }
        assert!(replays[0]
            .iter()
            .any(|(name, value)| *name == "runner.cell.count" && *value > 0));
    }
}
