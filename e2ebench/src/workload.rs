//! The four workloads and the operations they time.
//!
//! Every operation goes through a public entry point a user reaches:
//! `stream::run` / `run_with_io` (what `ldx run` calls), an in-process
//! `Server` driven by the HTTP `client` (what `ldx serve` / `submit` use),
//! and `dispatch` (what `ldx dispatch` uses).  Every operation's output is
//! checked against a deterministic single-thread reference built during
//! set-up; a mismatch is a failed operation.

use crate::probe;
use crate::stats::{self, Summary};
use crate::trace::{IoTotals, TimingIo, Trace};
use ld_local::{CachePool, CacheStats};
use ld_runner::json::Json;
use ld_runner::stream::{self, ShardLayout, StreamSummary};
use ld_runner::{scenarios, with_cache_pool, Scenario, StreamOptions, SweepConfig};
use ld_serve::client::{self, ChunkedReader};
use ld_serve::{dispatch, DispatchOptions, DispatchStats, JobSpec, ServeOptions, Server};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `section2-sweep-xl`: many small cells sharing views (cache hits,
    /// rendering, report and checkpoint writes).
    XlShared,
    /// `randomized-sweep-xl`: every view canonicalised fresh in one shard
    /// (extraction, canon, G(M,r) construction; the cache is bypassed).
    GmrCold,
    /// Closed-loop jobs against an in-process daemon (HTTP admission,
    /// spool, queue, live-tail delivery, the warm shared cache pool).
    ServeJobs,
    /// The `xl-shared` sweep dispatched across two in-process worker
    /// daemons (coordinator, leases, shard RPCs, merge).
    DispatchXl,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::XlShared,
        Workload::GmrCold,
        Workload::ServeJobs,
        Workload::DispatchXl,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::XlShared => "xl-shared",
            Workload::GmrCold => "gmr-cold",
            Workload::ServeJobs => "serve-jobs",
            Workload::DispatchXl => "dispatch-xl",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Instance sizes and repeat counts.  [`Scale::FULL`] is the benchmark;
/// [`Scale::SMOKE`] keeps the self-tests fast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// `max_n` of the `section2-sweep-xl` sweeps (`xl-shared`, `dispatch-xl`).
    pub xl_max_n: usize,
    /// `max_n` of the `randomized-sweep-xl` sweeps (`gmr-cold`).
    pub gmr_max_n: usize,
    /// `max_n` of each `section2-sweep` job (`serve-jobs`).
    pub job_max_n: usize,
    /// Least number of set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Set-ups repeat until they have also taken this many seconds, so a
    /// cheap set-up gets enough samples for a steady median.
    pub setup_seconds: f64,
    /// Least number of timed operations per measured window.
    pub min_ops: usize,
}

impl Scale {
    /// Whether another set-up is due after `done` of them, started at
    /// `since`.
    fn more_setups(&self, done: usize, since: Instant) -> bool {
        done < self.setups || since.elapsed().as_secs_f64() < self.setup_seconds
    }

    /// The benchmark's sizes.
    pub const FULL: Scale = Scale {
        xl_max_n: 2048,
        gmr_max_n: 1024,
        job_max_n: 128,
        setups: 3,
        setup_seconds: 2.0,
        min_ops: 3,
    };

    /// Smoke sizes for the self-tests.
    pub const SMOKE: Scale = Scale {
        xl_max_n: 256,
        gmr_max_n: 64,
        job_max_n: 32,
        setups: 1,
        setup_seconds: 0.0,
        min_ops: 1,
    };
}

/// Worker threads of the sweeps, the job workers of the `serve-jobs`
/// daemon and the client threads driving it: the 2 vCPUs of the reference
/// host.
const THREADS: usize = 2;

/// Job workers of each `dispatch-xl` worker daemon.
const DISPATCH_JOB_WORKERS: usize = 1;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload seed (`SweepConfig::seed`).
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Instance sizes.
    pub scale: Scale,
    /// Scratch directory for reports, checkpoints and spools; [`run`]
    /// creates and removes it.
    pub work_dir: PathBuf,
}

/// One named metric with its unit, value and (when it has several
/// samples) their spread.
#[derive(Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value (the median for sampled metrics).
    pub value: f64,
    /// Spread of the samples the value summarises.
    pub summary: Summary,
}

impl Metric {
    fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            summary: Summary::of(&[value]),
        }
    }

    fn sampled(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        let summary = Summary::of(if samples.is_empty() { &[0.0] } else { samples });
        Metric {
            name,
            unit,
            value: summary.median,
            summary,
        }
    }
}

/// One row of the traced run's layer table.
#[derive(Debug)]
pub struct LayerRow {
    /// Layer boundary.
    pub layer: &'static str,
    /// Self time per operation, seconds.
    pub self_s: f64,
    /// `self_s` as a share of the operation's untraced median wall time.
    pub share: f64,
    /// The layer's counters, rendered.
    pub counters: String,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Results {
    /// Operations attempted (set-up operations included).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Untraced run: the end-to-end metrics `BENCHMARK.json` lists.
    pub end_to_end: Vec<Metric>,
    /// Untraced run: the workload-specific names of the same numbers
    /// (`sweep_s_p50`, `job_s_p50`, `job_s_p95`, `jobs_per_s`) and
    /// `fail_ratio`.
    pub named: Vec<Metric>,
    /// Traced run: the per-layer metrics `BENCHMARK.json` lists.
    pub per_layer: Vec<Metric>,
    /// Traced run: the layer table.
    pub layers: Vec<LayerRow>,
    /// Traced run: count and total seconds of the recorded spans, by name.
    pub spans: Vec<(&'static str, usize, f64)>,
}

/// Failure accounting for one client thread.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(value) => Some(value),
            Err(message) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(message);
                }
                None
            }
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for message in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(message);
            }
        }
    }
}

/// Runs one workload in `options.work_dir`, which it creates and removes
/// again (with its parent, when no concurrent run still uses that).
///
/// # Errors
///
/// Returns a message when set-up cannot start: the scratch directory, the
/// reference run (or a failing cell in it), or a daemon bind fails.
/// Failures of the operations themselves are counted in the results.
pub fn run(options: &Options) -> Result<Results, String> {
    std::fs::create_dir_all(&options.work_dir)
        .map_err(|e| format!("creating {}: {e}", options.work_dir.display()))?;
    let outcome = run_in_work_dir(options);
    let _ = std::fs::remove_dir_all(&options.work_dir);
    if let Some(parent) = options.work_dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    outcome
}

fn run_in_work_dir(options: &Options) -> Result<Results, String> {
    let sweep = Sweep::new(
        options.workload,
        options.scale,
        options.seed,
        &options.work_dir,
    )?;
    let mut tally = Tally::default();
    let mut results = match options.workload {
        Workload::XlShared | Workload::GmrCold => run_sweeps(options, &sweep, &mut tally),
        Workload::ServeJobs => run_jobs(options, &sweep, &mut tally)?,
        Workload::DispatchXl => run_dispatches(options, &sweep, &mut tally)?,
    };
    results.attempted = tally.attempted;
    results.failed = tally.failed;
    results.errors = tally.errors;
    if !options.trace {
        let attempted = results.attempted.max(1) as f64;
        results.named.push(Metric::single(
            "fail_ratio",
            "ratio",
            results.failed as f64 / attempted,
        ));
    }
    Ok(results)
}

/// The work counters of one single-thread replay of `workload`'s sweep
/// with `threads` in its config, after checking it against a fresh
/// reference made in `work_dir` (which must exist).
///
/// # Errors
///
/// Returns a message when the reference or the replay fails.
pub fn replay_counters(
    workload: Workload,
    scale: Scale,
    seed: u64,
    threads: usize,
    work_dir: &Path,
) -> Result<Replay, String> {
    let mut sweep = Sweep::new(workload, scale, seed, work_dir)?;
    sweep.config.threads = threads;
    replay(&Trace::new(), &sweep, None)
}

/// A workload's sweep and its deterministic reference report.
struct Sweep {
    scenario: Box<dyn Scenario>,
    config: SweepConfig,
    reference: Vec<u8>,
}

impl Sweep {
    /// Looks the workload's scenario up, configures it and builds the
    /// deterministic reference in `dir`.
    fn new(workload: Workload, scale: Scale, seed: u64, dir: &Path) -> Result<Sweep, String> {
        let (name, max_n, threads) = match workload {
            Workload::XlShared | Workload::DispatchXl => {
                ("section2-sweep-xl", scale.xl_max_n, THREADS)
            }
            Workload::GmrCold => ("randomized-sweep-xl", scale.gmr_max_n, THREADS),
            Workload::ServeJobs => ("section2-sweep", scale.job_max_n, 1),
        };
        let scenario = scenarios::find(name).ok_or_else(|| format!("unknown scenario '{name}'"))?;
        let config = SweepConfig {
            max_n,
            threads,
            seed,
            ..SweepConfig::default()
        };
        config.validate().map_err(|e| e.to_string())?;
        let reference = reference_report(scenario.as_ref(), &config, dir)?;
        Ok(Sweep {
            scenario,
            config,
            reference,
        })
    }
}

/// The deterministic reference: a single-thread streamed run with
/// `deterministic: true`.
fn reference_report(
    scenario: &dyn Scenario,
    config: &SweepConfig,
    dir: &Path,
) -> Result<Vec<u8>, String> {
    let single = SweepConfig {
        threads: 1,
        ..config.clone()
    };
    let path = dir.join("reference.json");
    let options = StreamOptions {
        deterministic: true,
        ..StreamOptions::default()
    };
    let summary = stream::run(scenario, &single, &path, &options)
        .map_err(|e| format!("reference run: {e}"))?;
    check_summary(&summary).map_err(|e| format!("reference run: {e}"))?;
    let bytes = std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let _ = std::fs::remove_file(&path);
    if !bytes.ends_with(b"\n}\n") {
        return Err("reference report is not a complete document".to_string());
    }
    Ok(bytes)
}

/// A completed sweep with no failed or panicked cell.  Budget-exhausted
/// cells are deterministic outcomes, not failures.
fn check_summary(summary: &StreamSummary) -> Result<(), String> {
    if !summary.completed {
        return Err("sweep stopped before completion".to_string());
    }
    if summary.failed + summary.panicked > 0 {
        return Err(format!(
            "{} failed and {} panicked cells, first {:?}",
            summary.failed,
            summary.panicked,
            summary.failures.first()
        ));
    }
    Ok(())
}

/// Checks a full (non-deterministic) report: its bytes up to the `perf`
/// footer must equal the deterministic reference, so cells and summary are
/// identical.  Returns the footer's summed cell walls in seconds.
fn check_full_report(report: &[u8], reference: &[u8]) -> Result<f64, String> {
    let body = &reference[..reference.len() - 3];
    if !report.starts_with(body) {
        return Err("report cells or summary differ from the reference".to_string());
    }
    let footer = std::str::from_utf8(&report[body.len()..])
        .ok()
        .and_then(|tail| tail.strip_prefix(",\n  \"perf\": "))
        .and_then(|tail| tail.strip_suffix("\n}\n"))
        .ok_or("report has no perf footer after the reference cells")?;
    let perf = Json::parse(footer).map_err(|e| format!("perf footer: {e}"))?;
    let walls = perf
        .get("cell_wall_micros")
        .and_then(Json::as_arr)
        .ok_or("perf footer has no cell_wall_micros")?;
    Ok(walls.iter().filter_map(Json::as_u64).sum::<u64>() as f64 * 1e-6)
}

/// Runs `op` until `seconds` have passed and at least `min_ops` ran.
/// Returns the successful samples and the window's wall seconds.
fn window<T>(
    seconds: f64,
    min_ops: usize,
    tally: &mut Tally,
    mut op: impl FnMut() -> Result<T, String>,
) -> (Vec<T>, f64) {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut ran = 0;
    while ran < min_ops || start.elapsed().as_secs_f64() < seconds {
        if let Some(sample) = tally.record(op()) {
            samples.push(sample);
        }
        ran += 1;
    }
    (samples, start.elapsed().as_secs_f64())
}

/// One timed sweep: start, wall seconds, CPU seconds and summed cell
/// walls.
#[derive(Debug, Clone, Copy)]
struct SweepSample {
    start: Instant,
    wall_s: f64,
    cpu_s: f64,
    busy_s: f64,
}

/// One full sweep through `stream::run` (or `run_with_io` when traced),
/// from plan to report footer on disk, checked against the reference.
fn sweep_op(sweep: &Sweep, path: &Path, io: Option<&TimingIo>) -> Result<SweepSample, String> {
    let options = StreamOptions::default();
    let cpu = probe::cpu_seconds();
    let start = Instant::now();
    let summary = match io {
        Some(io) => stream::run_with_io(io, sweep.scenario.as_ref(), &sweep.config, path, &options),
        None => stream::run(sweep.scenario.as_ref(), &sweep.config, path, &options),
    }?;
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = probe::cpu_seconds() - cpu;
    check_summary(&summary)?;
    let report = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let busy_s = check_full_report(&report, &sweep.reference)?;
    Ok(SweepSample {
        start,
        wall_s,
        cpu_s,
        busy_s,
    })
}

impl SweepSample {
    fn end(&self) -> Instant {
        self.start + std::time::Duration::from_secs_f64(self.wall_s)
    }
}

/// The standard end-to-end metrics of one untraced run.
fn end_to_end(op_s: &[f64], ops_per_s: f64, cpu_s_per_op: f64, setup_s: &[f64]) -> Vec<Metric> {
    vec![
        Metric::sampled("op_s_p50", "s", op_s),
        Metric::single("ops_per_s", "1/s", ops_per_s),
        Metric::single("cpu_s_per_op", "s", cpu_s_per_op),
        Metric::sampled("setup_s", "s", setup_s),
        Metric::single("peak_rss_mb", "MB", probe::peak_rss_mb()),
    ]
}

/// `xl-shared` and `gmr-cold`.
fn run_sweeps(options: &Options, sweep: &Sweep, tally: &mut Tally) -> Results {
    let path = options.work_dir.join("sweep.json");
    let mut setup_s = Vec::new();
    let since = Instant::now();
    while options.scale.more_setups(setup_s.len(), since) {
        let start = Instant::now();
        tally.record(sweep_op(sweep, &path, None));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut results = Results::default();
    if !options.trace {
        let (samples, window_s) = window(options.seconds, options.scale.min_ops, tally, || {
            sweep_op(sweep, &path, None)
        });
        let walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
        results.end_to_end = end_to_end(
            &walls,
            samples.len() as f64 / window_s,
            samples.iter().map(|s| s.cpu_s).sum::<f64>() / samples.len().max(1) as f64,
            &setup_s,
        );
        results
            .named
            .push(Metric::sampled("sweep_s_p50", "s", &walls));
        return results;
    }
    // Untraced and traced sweeps alternate, so both see the same host
    // conditions; the difference of their medians is the tracing overhead.
    let trace = Trace::new();
    let mut op = 0;
    let (samples, _) = window(options.seconds, 2 * options.scale.min_ops, tally, || {
        op += 1;
        if op % 2 == 1 {
            return sweep_op(sweep, &path, None).map(|sample| (sample, None));
        }
        let io = TimingIo::default();
        let sample = sweep_op(sweep, &path, Some(&io))?;
        trace.record("runner.sweep", op, None, sample.start, sample.end());
        Ok((sample, Some(io.totals())))
    });
    let untraced: Vec<SweepSample> = samples
        .iter()
        .filter(|(_, io)| io.is_none())
        .map(|(sample, _)| *sample)
        .collect();
    let traced: Vec<IoTotals> = samples.iter().filter_map(|(_, io)| *io).collect();
    let untraced_p50 = stats::median(&untraced.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let mut layers = Layers {
        op_s: untraced_p50,
        trace_overhead_s: stats::median(&trace.durations("runner.sweep")) - untraced_p50,
        ..Layers::default()
    };
    layers.stream_from(&untraced, sweep.config.threads);
    layers.io_from(&traced);
    if let Some(replay) = tally.record(replay(&trace, sweep, None)) {
        layers.replay = replay;
    }
    layers.finish(&mut results, options.workload, &trace);
    results
}

/// Per-layer numbers of a traced run, before they become [`Metric`]s.
#[derive(Debug, Default)]
struct Layers {
    /// The workload's untraced median operation time (the share base).
    op_s: f64,
    replay: Replay,
    io: IoTotals,
    worker_util: f64,
    idle_s: f64,
    post_s: f64,
    start_wait_s: f64,
    tail_s: f64,
    requests_per_job: f64,
    spool_bytes_per_job: f64,
    dispatch_overhead_s: f64,
    dispatch: DispatchStats,
    trace_overhead_s: f64,
}

impl Layers {
    /// Worker utilisation and idle time from untraced full reports:
    /// summed cell walls over (sweep wall x requested threads).
    fn stream_from(&mut self, samples: &[SweepSample], threads: usize) {
        let threads = threads as f64;
        let util: Vec<f64> = samples
            .iter()
            .map(|s| s.busy_s / (s.wall_s * threads))
            .collect();
        let idle: Vec<f64> = samples
            .iter()
            .map(|s| (s.wall_s * threads - s.busy_s).max(0.0))
            .collect();
        self.worker_util = stats::median(&util);
        self.idle_s = stats::median(&idle);
    }

    /// Per-sweep I/O: the median of each counter over traced sweeps.
    fn io_from(&mut self, totals: &[IoTotals]) {
        let median_of =
            |f: fn(&IoTotals) -> f64| stats::median(&totals.iter().map(f).collect::<Vec<_>>());
        self.io = IoTotals {
            ops: median_of(|t| t.ops as f64) as u64,
            bytes: median_of(|t| t.bytes as f64) as u64,
            flushes: median_of(|t| t.flushes as f64) as u64,
            seconds: median_of(|t| t.seconds),
        };
    }

    /// Renders the per-layer metrics, the layer table and the span totals
    /// into `results`.
    fn finish(&self, results: &mut Results, workload: Workload, trace: &Trace) {
        results.spans = trace.totals();
        let r = &self.replay;
        let hit_rate = r.cache.hit_rate();
        let count = |n: u64| n as f64;
        results.per_layer = vec![
            Metric::single("runner.plan.s", "s", r.plan_s),
            Metric::single("runner.cell.busy_s", "s", r.busy_s),
            Metric::single("runner.cell.max_s", "s", r.max_s),
            Metric::single("runner.cell.count", "count", count(r.cells)),
            Metric::single("runner.render.s", "s", r.render_s),
            Metric::single("runner.io.ops", "count", count(self.io.ops)),
            Metric::single("runner.io.bytes", "bytes", count(self.io.bytes)),
            Metric::single("runner.io.flushes", "count", count(self.io.flushes)),
            Metric::single("runner.io.s", "s", self.io.seconds),
            Metric::single("runner.stream.shards", "count", count(r.shards)),
            Metric::single("runner.stream.worker_util", "ratio", self.worker_util),
            Metric::single("runner.stream.idle_s", "s", self.idle_s),
            Metric::single("local.cache.hits", "count", count(r.cache.hits)),
            Metric::single("local.cache.misses", "count", count(r.cache.misses)),
            Metric::single("local.cache.entries", "count", count(r.cache.entries)),
            Metric::single("local.cache.hit_rate", "ratio", hit_rate),
            Metric::single("local.enum.nodes_visited", "count", count(r.nodes_visited)),
            Metric::single("local.enum.views", "count", count(r.views)),
            Metric::single("local.enum.exhausted", "count", count(r.exhausted)),
            Metric::single("graph.canon.kernel_calls", "count", count(r.kernel_calls)),
            Metric::single("serve.http.post_s_p50", "s", self.post_s),
            Metric::single("serve.job.start_wait_s_p50", "s", self.start_wait_s),
            Metric::single("serve.job.tail_s_p50", "s", self.tail_s),
            Metric::single(
                "serve.http.requests_per_job",
                "count",
                self.requests_per_job,
            ),
            Metric::single(
                "serve.spool.bytes_per_job",
                "bytes",
                self.spool_bytes_per_job,
            ),
            Metric::single("serve.dispatch.overhead_s", "s", self.dispatch_overhead_s),
            Metric::single(
                "serve.dispatch.reassigned",
                "count",
                count(self.dispatch.reassigned as u64),
            ),
            Metric::single(
                "serve.dispatch.stale_rejected",
                "count",
                count(self.dispatch.stale_rejected as u64),
            ),
            Metric::single(
                "serve.dispatch.worker_failures",
                "count",
                count(self.dispatch.worker_failures as u64),
            ),
            Metric::single("trace.overhead_s", "s", self.trace_overhead_s),
        ];
        let share = |s: f64| if self.op_s > 0.0 { s / self.op_s } else { 0.0 };
        let mut row = |layer: &'static str, self_s: f64, counters: String| {
            results.layers.push(LayerRow {
                layer,
                self_s,
                share: share(self_s),
                counters,
            });
        };
        row("runner.plan", r.plan_s, format!("cells={}", r.cells));
        row(
            "runner.cell",
            r.busy_s,
            format!(
                "max_s={:.4} hits={} misses={} entries={} hit_rate={hit_rate:.3} \
                 nodes_visited={} views={} exhausted={} canon_kernel_calls={}",
                r.max_s,
                r.cache.hits,
                r.cache.misses,
                r.cache.entries,
                r.nodes_visited,
                r.views,
                r.exhausted,
                r.kernel_calls
            ),
        );
        row("runner.render", r.render_s, String::new());
        row(
            "runner.io",
            self.io.seconds,
            format!(
                "ops={} bytes={} flushes={}",
                self.io.ops, self.io.bytes, self.io.flushes
            ),
        );
        row(
            "runner.stream.idle",
            self.idle_s,
            format!("shards={} worker_util={:.3}", r.shards, self.worker_util),
        );
        if workload == Workload::ServeJobs {
            row("serve.http.post", self.post_s, String::new());
            row("serve.job.start_wait", self.start_wait_s, String::new());
            row(
                "serve.job.tail",
                self.tail_s,
                format!(
                    "requests_per_job={} spool_bytes_per_job={:.0}",
                    self.requests_per_job, self.spool_bytes_per_job
                ),
            );
        }
        if workload == Workload::DispatchXl {
            row(
                "serve.dispatch",
                self.dispatch_overhead_s,
                format!(
                    "reassigned={} stale_rejected={} worker_failures={}",
                    self.dispatch.reassigned,
                    self.dispatch.stale_rejected,
                    self.dispatch.worker_failures
                ),
            );
        }
        row("trace.overhead", self.trace_overhead_s, String::new());
    }
}

/// Work counters and times of one single-thread replay of a sweep.
#[derive(Debug, Default)]
pub struct Replay {
    /// `Scenario::plan` wall seconds.
    pub plan_s: f64,
    /// Sum of the cells' wall times.
    pub busy_s: f64,
    /// The slowest cell.
    pub max_s: f64,
    /// Cells replayed.
    pub cells: u64,
    /// `execute_shard` time not spent in cells (rendering and digest).
    pub render_s: f64,
    /// Shards in the layout.
    pub shards: u64,
    /// Cache counter deltas over the replay.
    pub cache: CacheStats,
    /// Summed `nodes_visited` of the cells' budget records.
    pub nodes_visited: u64,
    /// Summed `views_materialized` of the cells' budget records.
    pub views: u64,
    /// Cells whose budget was exhausted.
    pub exhausted: u64,
    /// Canon kernel calls on the replay thread.
    pub kernel_calls: u64,
}

impl Replay {
    /// The schedule-independent counters, by metric name — the ones the
    /// self-tests pin and a later change may claim on.
    pub fn work_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("runner.cell.count", self.cells),
            ("runner.stream.shards", self.shards),
            ("local.cache.hits", self.cache.hits),
            ("local.cache.misses", self.cache.misses),
            ("local.cache.entries", self.cache.entries),
            ("local.enum.nodes_visited", self.nodes_visited),
            ("local.enum.views", self.views),
            ("local.enum.exhausted", self.exhausted),
            ("graph.canon.kernel_calls", self.kernel_calls),
        ]
    }
}

/// Replays a workload's sweep shard by shard through the public
/// `stream::execute_shard` on this thread, under spans, and checks the
/// replayed cells against the reference.  With `pool`, the plan draws its
/// caches from it, as a daemon's jobs do.
fn replay(trace: &Trace, sweep: &Sweep, pool: Option<&Arc<CachePool>>) -> Result<Replay, String> {
    let run = || {
        let start = Instant::now();
        let plan = sweep.scenario.plan(&sweep.config)?;
        let planned = Instant::now();
        trace.record("runner.plan", 0, None, start, planned);
        let layout = ShardLayout::new(plan.cells.len(), sweep.config.shard_size);
        let mut out = Replay {
            plan_s: planned.duration_since(start).as_secs_f64(),
            cells: plan.cells.len() as u64,
            shards: layout.shard_count() as u64,
            ..Replay::default()
        };
        let cache_before = plan.cache_stats();
        let mut cells_text = String::new();
        for shard in 0..layout.shard_count() {
            let kernel_before = ld_graph::fastcanon::thread_kernel_calls();
            let start = Instant::now();
            let cells = stream::execute_shard(&plan.cells, &sweep.config, layout, shard);
            let end = Instant::now();
            trace.record("runner.shard", 0, None, start, end);
            out.kernel_calls += ld_graph::fastcanon::thread_kernel_calls() - kernel_before;
            let walls: Vec<f64> = cells.wall_micros.iter().map(|&w| w as f64 * 1e-6).collect();
            let busy: f64 = walls.iter().sum();
            out.busy_s += busy;
            out.max_s = walls.iter().copied().fold(out.max_s, f64::max);
            out.render_s += (end.duration_since(start).as_secs_f64() - busy).max(0.0);
            if cells.failed + cells.panicked > 0 {
                return Err(format!(
                    "replayed shard {shard}: {:?}",
                    cells.failures.first()
                ));
            }
            for fragment in &cells.fragments {
                cells_text.push_str(if cells_text.is_empty() {
                    "\n    "
                } else {
                    ",\n    "
                });
                cells_text.push_str(fragment);
                let cell = Json::parse(fragment).map_err(|e| format!("replayed cell: {e}"))?;
                if let Some(budget) = cell.get("budget") {
                    let field = |key: &str| budget.get(key).and_then(Json::as_u64).unwrap_or(0);
                    out.nodes_visited += field("nodes_visited");
                    out.views += field("views_materialized");
                    out.exhausted +=
                        u64::from(budget.get("exhausted").and_then(Json::as_bool) == Some(true));
                }
            }
        }
        out.cache = plan.cache_stats().since(&cache_before);
        let reference = std::str::from_utf8(&sweep.reference).unwrap_or("");
        if !reference.contains(&format!("\"cells\": [{cells_text}\n  ]")) {
            return Err("replayed cells differ from the reference".to_string());
        }
        Ok(out)
    };
    match pool {
        Some(pool) => with_cache_pool(pool, run),
        None => run(),
    }
}

/// An in-process daemon serving on an ephemeral loopback port.
struct Daemon {
    addr: String,
    spool: PathBuf,
    thread: Option<thread::JoinHandle<Result<(), String>>>,
}

impl Daemon {
    /// Binds (spool open and recovery included) and starts serving.
    fn start(spool: PathBuf, workers: usize) -> Result<Daemon, String> {
        let server = Server::bind(&ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            spool: spool.clone(),
            workers,
        })?;
        let addr = server.local_addr().to_string();
        let thread = thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            spool,
            thread: Some(thread),
        })
    }

    /// Drains the daemon and joins its accept loop and workers.
    fn stop(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let response = client::request(&self.addr, "POST", "/shutdown", None)?;
        if response.status != 200 {
            return Err(format!("shutdown answered {}", response.status));
        }
        thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// `POST /jobs`; returns the job id.
fn post_job(addr: &str, body: &str) -> Result<u64, String> {
    let response = client::request(addr, "POST", "/jobs", Some(body))?;
    if response.status != 201 {
        return Err(format!(
            "POST /jobs answered {}: {}",
            response.status,
            response.text()
        ));
    }
    Json::parse(&response.text())?
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| "POST /jobs reply has no id".to_string())
}

/// `GET /jobs/<id>` must report a completed job.
fn check_completed(addr: &str, id: u64) -> Result<(), String> {
    let response = client::request(addr, "GET", &format!("/jobs/{id}"), None)?;
    let status = Json::parse(&response.text())?;
    match status.get("state").and_then(Json::as_str) {
        Some("completed") => Ok(()),
        other => Err(format!("job {id} ended {other:?}")),
    }
}

/// `GET /jobs/<id>/report` read incrementally; returns the body and the
/// instant its first chunk arrived.
fn read_report_stream(addr: &str, path: &str) -> Result<(Vec<u8>, Instant), String> {
    let (status, _, reader) =
        client::open_stream(addr, "GET", path, None, client::DEFAULT_READ_TIMEOUT)?;
    if status != 200 {
        return Err(format!("GET {path} answered {status}"));
    }
    let mut chunked = ChunkedReader::new(reader);
    let mut body = vec![0u8; 64 * 1024];
    let first = chunked
        .read(&mut body)
        .map_err(|e| format!("reading {path}: {e}"))?;
    let first_chunk = Instant::now();
    body.truncate(first);
    chunked
        .read_to_end(&mut body)
        .map_err(|e| format!("reading {path}: {e}"))?;
    Ok((body, first_chunk))
}

/// Timings of one job, seconds.
#[derive(Debug, Clone, Copy, Default)]
struct JobSample {
    traced: bool,
    latency_s: f64,
    post_s: f64,
    start_wait_s: f64,
    tail_s: f64,
}

/// One closed-loop job: submit, follow the report to its last byte,
/// confirm the job state, compare the bytes with the reference.  Latency
/// runs from the `POST` send to the last report byte.  A traced job reads
/// the chunked report incrementally to time its first chunk and records
/// its spans.
fn job_op(
    addr: &str,
    body: &str,
    reference: &[u8],
    trace: Option<(&Trace, u64)>,
) -> Result<JobSample, String> {
    let start = Instant::now();
    let id = post_job(addr, body)?;
    let posted = Instant::now();
    let path = format!("/jobs/{id}/report");
    let (report, first_chunk) = if trace.is_some() {
        read_report_stream(addr, &path)?
    } else {
        let response = client::request(addr, "GET", &path, None)?;
        if response.status != 200 {
            return Err(format!("GET {path} answered {}", response.status));
        }
        (response.body, posted)
    };
    let done = Instant::now();
    if let Some((trace, op)) = trace {
        let root = trace.record("serve.job", op, None, start, done);
        trace.record("serve.http.post", op, Some(root), start, posted);
        trace.record("serve.job.start_wait", op, Some(root), posted, first_chunk);
        trace.record("serve.job.tail", op, Some(root), first_chunk, done);
        // POST /jobs, GET the report, GET the final state.
        trace.count("serve.http.requests", 3);
    }
    check_completed(addr, id)?;
    if report != reference {
        return Err(format!("job {id} report differs from the reference"));
    }
    let seconds = |from: Instant, to: Instant| to.duration_since(from).as_secs_f64();
    Ok(JobSample {
        traced: trace.is_some(),
        latency_s: seconds(start, done),
        post_s: seconds(start, posted),
        start_wait_s: seconds(posted, first_chunk),
        tail_s: seconds(first_chunk, done),
    })
}

/// Closed loop: [`THREADS`] client threads, each submitting its next job
/// once the previous one is delivered, until `seconds` have passed.  With
/// `trace`, every other job is traced, so traced and untraced jobs see the
/// same load.  Returns the samples and the window's wall seconds.
fn job_window(
    options: &Options,
    seconds: f64,
    daemon: &Daemon,
    job: (&str, &[u8]),
    tally: &mut Tally,
    trace: Option<&Trace>,
) -> (Vec<JobSample>, f64) {
    let (body, reference) = job;
    let ops = AtomicU64::new(0);
    let start = Instant::now();
    let per_client = (2 * options.scale.min_ops).div_ceil(THREADS);
    let outcomes: Vec<(Vec<JobSample>, Tally)> = thread::scope(|scope| {
        let clients: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut tally = Tally::default();
                    let (samples, _) = window(seconds, per_client, &mut tally, || {
                        let op = ops.fetch_add(1, Ordering::Relaxed);
                        let trace = trace.filter(|_| op % 2 == 1).map(|t| (t, op));
                        job_op(&daemon.addr, body, reference, trace)
                    });
                    (samples, tally)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|client| client.join().expect("a client thread panicked"))
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    for (client_samples, client_tally) in outcomes {
        samples.extend(client_samples);
        tally.absorb(client_tally);
    }
    (samples, window_s)
}

/// Total bytes of the files in `dir` and the number of job specs.
fn spool_usage(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    let mut bytes = 0;
    let mut jobs = 0;
    for entry in entries.flatten() {
        bytes += entry.metadata().map_or(0, |m| m.len());
        jobs += u64::from(entry.path().extension().is_some_and(|e| e == "job"));
    }
    (bytes, jobs)
}

/// `serve-jobs`.
fn run_jobs(options: &Options, sweep: &Sweep, tally: &mut Tally) -> Result<Results, String> {
    let body = JobSpec {
        config: sweep.config.clone(),
        ..JobSpec::new(sweep.scenario.name())
    }
    .to_json()
    .render_compact();
    let job = (body.as_str(), sweep.reference.as_slice());
    let mut setup_s = Vec::new();
    let mut daemon: Option<Daemon> = None;
    let since = Instant::now();
    while options.scale.more_setups(setup_s.len(), since) {
        if let Some(mut previous) = daemon.take() {
            previous.stop()?;
        }
        let spool = options.work_dir.join(format!("spool-{}", setup_s.len()));
        let start = Instant::now();
        let started = Daemon::start(spool, THREADS)?;
        tally.record(job_op(&started.addr, job.0, job.1, None));
        setup_s.push(start.elapsed().as_secs_f64());
        daemon = Some(started);
    }
    let mut daemon = daemon.ok_or("no set-up ran")?;
    let mut results = Results::default();
    if !options.trace {
        let cpu = probe::cpu_seconds();
        let (samples, window_s) = job_window(options, options.seconds, &daemon, job, tally, None);
        let cpu_s = probe::cpu_seconds() - cpu;
        daemon.stop()?;
        let latencies: Vec<f64> = samples.iter().map(|s| s.latency_s).collect();
        let jobs_per_s = samples.len() as f64 / window_s;
        let cpu_per_job = cpu_s / samples.len().max(1) as f64;
        results.end_to_end = end_to_end(&latencies, jobs_per_s, cpu_per_job, &setup_s);
        let (p95, beyond) = stats::percentile(&latencies, 95.0);
        results.named = vec![
            Metric::sampled("job_s_p50", "s", &latencies),
            Metric::single("job_s_p95", "s", p95),
            Metric::single("job_s_p95_samples_beyond", "count", beyond as f64),
            Metric::single("jobs_per_s", "1/s", jobs_per_s),
        ];
        return Ok(results);
    }
    let trace = Trace::new();
    let (samples, _) = job_window(options, options.seconds, &daemon, job, tally, Some(&trace));
    let (traced, untraced): (Vec<JobSample>, Vec<JobSample>) =
        samples.into_iter().partition(|s| s.traced);
    let (spool_bytes, spool_jobs) = spool_usage(&daemon.spool);
    daemon.stop()?;
    let median_of =
        |f: fn(&JobSample) -> f64| stats::median(&traced.iter().map(f).collect::<Vec<_>>());
    let untraced_p50 = stats::median(&untraced.iter().map(|s| s.latency_s).collect::<Vec<_>>());
    let mut layers = Layers {
        op_s: untraced_p50,
        post_s: median_of(|s| s.post_s),
        start_wait_s: median_of(|s| s.start_wait_s),
        tail_s: median_of(|s| s.tail_s),
        requests_per_job: trace.counter("serve.http.requests") as f64 / traced.len().max(1) as f64,
        spool_bytes_per_job: spool_bytes as f64 / spool_jobs.max(1) as f64,
        trace_overhead_s: stats::median(&trace.durations("serve.job")) - untraced_p50,
        ..Layers::default()
    };
    let path = options.work_dir.join("local.json");
    let local: Vec<SweepSample> = (0..options.scale.min_ops)
        .filter_map(|_| tally.record(sweep_op(sweep, &path, None)))
        .collect();
    local_layers(options, sweep, tally, &trace, &mut layers, &local, true);
    layers.finish(&mut results, options.workload, &trace);
    Ok(results)
}

/// The runner-layer numbers of a daemon workload's sweep, measured in
/// this process: utilisation from untraced `local` sweeps, report and
/// checkpoint I/O from one traced sweep, and a single-thread replay.  With
/// `warm_pool`, the replay runs twice in one shared cache pool and reports
/// the second, warm replay, as a daemon's shared pool serves its jobs.
fn local_layers(
    options: &Options,
    sweep: &Sweep,
    tally: &mut Tally,
    trace: &Trace,
    layers: &mut Layers,
    local: &[SweepSample],
    warm_pool: bool,
) {
    layers.stream_from(local, sweep.config.threads);
    let io = TimingIo::default();
    let path = options.work_dir.join("local.json");
    if tally.record(sweep_op(sweep, &path, Some(&io))).is_some() {
        layers.io_from(&[io.totals()]);
    }
    let pool = Arc::new(CachePool::new());
    let pool = warm_pool.then_some(&pool);
    if pool.is_some() {
        tally.record(replay(&Trace::new(), sweep, pool));
    }
    if let Some(replay) = tally.record(replay(trace, sweep, pool)) {
        layers.replay = replay;
    }
}

/// One timed dispatch: start, wall seconds, CPU seconds, fault tally.
#[derive(Debug, Clone, Copy)]
struct DispatchSample {
    start: Instant,
    wall_s: f64,
    cpu_s: f64,
    stats: DispatchStats,
}

/// One dispatch of the sweep to the worker daemons, checked byte for byte
/// against the reference.
fn dispatch_op(options: &DispatchOptions, reference: &[u8]) -> Result<DispatchSample, String> {
    let cpu = probe::cpu_seconds();
    let start = Instant::now();
    let (summary, stats) = dispatch(options)?;
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = probe::cpu_seconds() - cpu;
    check_summary(&summary)?;
    let report = std::fs::read(&options.out)
        .map_err(|e| format!("reading {}: {e}", options.out.display()))?;
    if report != reference {
        return Err("dispatched report differs from the reference".to_string());
    }
    Ok(DispatchSample {
        start,
        wall_s,
        cpu_s,
        stats,
    })
}

/// One operation of the traced `dispatch-xl` rotation.
enum Rotation {
    Untraced(DispatchSample),
    Traced(DispatchSample),
    Local(SweepSample),
}

/// [`THREADS`] worker daemons plus the dispatch options addressing them.
fn start_workers(
    options: &Options,
    sweep: &Sweep,
    set: usize,
) -> Result<(Vec<Daemon>, DispatchOptions), String> {
    let mut daemons = Vec::new();
    for worker in 0..THREADS {
        let spool = options.work_dir.join(format!("worker-{set}-{worker}"));
        daemons.push(Daemon::start(spool, DISPATCH_JOB_WORKERS)?);
    }
    let mut dispatch = DispatchOptions::new(
        sweep.scenario.name(),
        options.work_dir.join("dispatch.json"),
    );
    dispatch.config = sweep.config.clone();
    dispatch.workers = daemons.iter().map(|d| d.addr.clone()).collect();
    Ok((daemons, dispatch))
}

/// `dispatch-xl`.
fn run_dispatches(options: &Options, sweep: &Sweep, tally: &mut Tally) -> Result<Results, String> {
    let mut setup_s = Vec::new();
    let mut workers: Option<(Vec<Daemon>, DispatchOptions)> = None;
    let since = Instant::now();
    while options.scale.more_setups(setup_s.len(), since) {
        if let Some((previous, _)) = workers.take() {
            for mut daemon in previous {
                daemon.stop()?;
            }
        }
        let start = Instant::now();
        let (daemons, dispatch) = start_workers(options, sweep, setup_s.len())?;
        tally.record(dispatch_op(&dispatch, &sweep.reference));
        setup_s.push(start.elapsed().as_secs_f64());
        workers = Some((daemons, dispatch));
    }
    let (daemons, dispatch) = workers.ok_or("no set-up ran")?;
    let mut results = Results::default();
    if !options.trace {
        let (samples, window_s) = window(options.seconds, options.scale.min_ops, tally, || {
            dispatch_op(&dispatch, &sweep.reference)
        });
        for mut daemon in daemons {
            daemon.stop()?;
        }
        let walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
        let cpu = samples.iter().map(|s| s.cpu_s).sum::<f64>() / samples.len().max(1) as f64;
        results.end_to_end = end_to_end(&walls, samples.len() as f64 / window_s, cpu, &setup_s);
        results
            .named
            .push(Metric::sampled("sweep_s_p50", "s", &walls));
        return Ok(results);
    }
    // Untraced dispatches, traced dispatches and local untraced sweeps of
    // the same config (the base of `serve.dispatch.overhead_s`) rotate, so
    // all three see the same host conditions.
    let trace = Trace::new();
    let mut op = 0;
    let local_path = options.work_dir.join("local.json");
    let (samples, _) = window(options.seconds, 3 * options.scale.min_ops, tally, || {
        op += 1;
        match op % 3 {
            0 => sweep_op(sweep, &local_path, None).map(Rotation::Local),
            1 => dispatch_op(&dispatch, &sweep.reference).map(Rotation::Untraced),
            _ => {
                let sample = dispatch_op(&dispatch, &sweep.reference)?;
                let end = sample.start + std::time::Duration::from_secs_f64(sample.wall_s);
                trace.record("serve.dispatch", op, None, sample.start, end);
                Ok(Rotation::Traced(sample))
            }
        }
    });
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut local = Vec::new();
    for sample in samples {
        match sample {
            Rotation::Untraced(d) => untraced.push(d),
            Rotation::Traced(d) => traced.push(d),
            Rotation::Local(s) => local.push(s),
        }
    }
    for mut daemon in daemons {
        daemon.stop()?;
    }
    let untraced_p50 = stats::median(&untraced.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let local_p50 = stats::median(&local.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let mut layers = Layers {
        op_s: untraced_p50,
        dispatch_overhead_s: untraced_p50 - local_p50,
        trace_overhead_s: stats::median(&trace.durations("serve.dispatch")) - untraced_p50,
        ..Layers::default()
    };
    for sample in untraced.iter().chain(&traced) {
        layers.dispatch.reassigned += sample.stats.reassigned;
        layers.dispatch.stale_rejected += sample.stats.stale_rejected;
        layers.dispatch.worker_failures += sample.stats.worker_failures;
    }
    local_layers(options, sweep, tally, &trace, &mut layers, &local, false);
    layers.finish(&mut results, options.workload, &trace);
    Ok(results)
}
