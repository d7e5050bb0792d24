//! Process resource probes (Linux `/proc/self`) and run provenance.

use std::process::Command;

/// Clock ticks per second of `/proc/*/stat` times (`USER_HZ`, fixed at 100
/// by the Linux ABI on every mainstream architecture).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process, every thread
/// included (exited ones too).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name, which may itself hold
    // spaces: state is field 3, utime 14, stime 15 (1-based).
    let Some(rest) = stat.rfind(')').map(|at| &stat[at + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |index: usize| {
        fields
            .get(index)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / USER_HZ
}

/// Peak resident set size of the process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The git revision of the working directory, or `"unknown"` when the
/// working directory is not itself a git work tree (the benchmark also
/// runs from plain source exports).  Git is not allowed to search above
/// the working directory.
pub fn git_revision() -> String {
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(std::path::Path::to_path_buf))
    {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    git.output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |text| text.trim().to_string())
}

/// `rustc -V` of the compiler that built this binary.
pub fn rustc_version() -> &'static str {
    env!("E2EBENCH_RUSTC")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_read_live_values() {
        let spin: u64 = (0..2_000_000u64).fold(0, |acc, x| acc ^ x.wrapping_mul(31));
        std::hint::black_box(spin);
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
