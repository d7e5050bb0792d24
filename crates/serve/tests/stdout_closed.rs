//! A reader that closes `ldx`'s stdout early (`ldx run … | head -1`) ends
//! the console output, not the run: no panic, and the same exit status as
//! a run whose output is read to the end.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn ldx() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ldx"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldx-stdout-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The write end of a pipe whose read end is already closed, so every
/// write to it fails with `EPIPE`.  The reader is a short-lived child that
/// exits without reading its stdin.
fn closed_pipe() -> Stdio {
    let mut reader = ldx()
        .arg("list")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn the pipe reader");
    let writer = reader.stdin.take().expect("piped stdin");
    reader.wait().expect("reap the pipe reader");
    Stdio::from(writer)
}

fn run(args: &[&str], out: &Path, stdout: Stdio) -> Output {
    ldx()
        .args(args)
        .arg("--out")
        .arg(out)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn ldx run")
}

#[test]
fn closed_stdout_keeps_the_exit_status_and_never_panics() {
    let dir = temp_dir("run");
    let complete: &[&str] = &["run", "section2-sweep", "--max-n", "24"];
    // Stopped early on purpose: exits 1, which the closed pipe must keep.
    let interrupted: &[&str] = &[
        "run",
        "section2-sweep",
        "--max-n",
        "24",
        "--shard-size",
        "4",
        "--max-shards",
        "1",
    ];
    for (name, args, code) in [("complete", complete, 0), ("interrupted", interrupted, 1)] {
        let read = run(args, &dir.join(format!("{name}-read.json")), Stdio::piped());
        assert_eq!(read.status.code(), Some(code), "{name}: unpiped run");
        assert!(
            !read.stdout.is_empty(),
            "{name}: the unpiped run printed nothing"
        );
        let closed = run(
            args,
            &dir.join(format!("{name}-closed.json")),
            closed_pipe(),
        );
        let stderr = String::from_utf8_lossy(&closed.stderr);
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        assert_eq!(closed.status.code(), Some(code), "{name}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
