//! True-signal kill-and-resume: spawn the real `ldx` binary, SIGTERM it in
//! the middle of a streaming sweep, resume, and byte-compare against an
//! uninterrupted run.
//!
//! The in-process tests cover deterministic interruption (`--max-shards`);
//! this one covers the thing they cannot: a kill that lands at an
//! *arbitrary* point — possibly between a shard flush and its checkpoint
//! line, or mid-append — which is exactly the torn state `ldx resume` must
//! recover from.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn ldx() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ldx"))
}

fn run_args(out: &std::path::Path) -> Vec<String> {
    [
        "run",
        "section2-sweep-xl",
        "--max-n",
        "1024",
        "--threads",
        "2",
        "--shard-size",
        "4",
        "--deterministic",
        "--out",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .chain([out.to_string_lossy().into_owned()])
    .collect()
}

#[test]
fn sigterm_mid_sweep_then_resume_byte_matches_uninterrupted() {
    let dir = std::env::temp_dir();
    let full = dir.join(format!("ldx-kr-full-{}.json", std::process::id()));
    let killed = dir.join(format!("ldx-kr-killed-{}.json", std::process::id()));
    let ckpt = PathBuf::from(format!("{}.ckpt", killed.display()));

    let status = ldx()
        .args(run_args(&full))
        .stdout(Stdio::null())
        .status()
        .expect("spawn ldx");
    assert!(status.success(), "reference run failed");

    // Interrupt a second run once a few shards are checkpointed.  If the
    // sweep somehow finishes before the signal lands, try again — the
    // assertion below demands a *real* interruption.
    let mut interrupted = false;
    for _attempt in 0..5 {
        let _ = std::fs::remove_file(&killed);
        let _ = std::fs::remove_file(&ckpt);
        let mut child = ldx()
            .args(run_args(&killed))
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn ldx");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let lines = std::fs::read_to_string(&ckpt).map_or(0, |text| text.lines().count());
            // Header plus at least three shard records, so the resume has
            // real completed work to verify and real remaining work to do.
            if lines >= 4 {
                break;
            }
            if child.try_wait().expect("poll ldx").is_some() || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        if child.try_wait().expect("poll ldx").is_none() {
            let termed = Command::new("kill")
                .args(["-TERM", &child.id().to_string()])
                .status()
                .expect("send SIGTERM");
            assert!(termed.success(), "kill -TERM failed");
            let _ = child.wait();
        }
        if ckpt.exists() {
            interrupted = true;
            break;
        }
    }
    assert!(interrupted, "could not interrupt the sweep mid-run");

    let status = ldx()
        .args(["resume", &killed.to_string_lossy()])
        .stdout(Stdio::null())
        .status()
        .expect("spawn ldx resume");
    assert!(status.success(), "resume failed");

    let reference = std::fs::read(&full).expect("read reference report");
    let resumed = std::fs::read(&killed).expect("read resumed report");
    assert_eq!(
        reference, resumed,
        "resumed report must byte-match the uninterrupted run"
    );
    assert!(!ckpt.exists(), "checkpoint must be removed on completion");

    let _ = std::fs::remove_file(&full);
    let _ = std::fs::remove_file(&killed);
}
