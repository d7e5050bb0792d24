//! `e2ebench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload for the given number of seconds, writing every
//! report, checkpoint and spool under `.bench_tmp/` in the working
//! directory and removing it afterwards.  Prints the layer and metric
//! tables to stderr, then the full result record and, as the last stdout
//! line, the summary `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 when any operation failed or set-up could not run, 2 on a usage
//! error.

use e2ebench::{output, Options, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: e2ebench --workload <xl-shared|gmr-cold|serve-jobs|dispatch-xl> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Scratch root for reports, checkpoints and spools, relative to the
/// working directory.
const WORK_ROOT: &str = ".bench_tmp";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(bad)?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::FULL,
        work_dir: PathBuf::from(WORK_ROOT).join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("e2ebench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = e2ebench::run(&options);
    match outcome {
        Ok(results) => {
            eprint!("{}", output::tables(&options, &results));
            println!("{}", output::record_line(&options, &results));
            println!("{}", output::summary_line(&options, &results));
            if results.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("e2ebench: set-up failed: {message}");
            ExitCode::FAILURE
        }
    }
}
