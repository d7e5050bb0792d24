//! The traced run's recorder: spans and counters taken in the benchmark's
//! own code around calls into each layer, plus a timing [`SpoolIo`] that
//! counts the report and checkpoint I/O of a sweep.
//!
//! Nothing here runs in an untraced run, so end-to-end numbers never carry
//! its cost; the traced run reports that cost as `trace.overhead_s`.

use ld_runner::{RealIo, SpoolFile, SpoolIo};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identifies a recorded span (its index in the trace).
pub type SpanId = usize;

/// One recorded interval.  Spans of one operation share `op`; `parent` is
/// the span that caused this one.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `runner.plan`.
    pub name: &'static str,
    /// The operation (sweep, job, dispatch) the span belongs to.
    pub op: u64,
    /// The causing span, if any.
    pub parent: Option<SpanId>,
    /// Start, seconds since the trace began.
    pub start_s: f64,
    /// End, seconds since the trace began.
    pub end_s: f64,
}

impl Span {
    /// The span's duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// An in-memory span and counter recorder, shared by the client threads of
/// a traced run and read once the run ends.
pub struct Trace {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace starting now.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    /// Records a span measured by the caller.
    pub fn record(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let at = |instant: Instant| instant.saturating_duration_since(self.origin).as_secs_f64();
        let mut spans = self.spans.lock().expect("a recording thread panicked");
        spans.push(Span {
            name,
            op,
            parent,
            start_s: at(start),
            end_s: at(end),
        });
        spans.len() - 1
    }

    /// Adds `by` to counter `name`.
    pub fn count(&self, name: &'static str, by: u64) {
        *self
            .counters
            .lock()
            .expect("a recording thread panicked")
            .entry(name)
            .or_insert(0) += by;
    }

    /// Counter `name` (0 when never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .expect("a recording thread panicked")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a recording thread panicked")
            .clone()
    }

    /// Count and total seconds of the spans of each name, by name.
    pub fn totals(&self) -> Vec<(&'static str, usize, f64)> {
        let mut totals: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for span in self.spans() {
            let entry = totals.entry(span.name).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += span.seconds();
        }
        totals
            .into_iter()
            .map(|(name, (n, s))| (name, n, s))
            .collect()
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }
}

/// Totals of the I/O a [`TimingIo`] observed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IoTotals {
    /// Every file-system primitive and file read/write/flush call.
    pub ops: u64,
    /// Bytes written.
    pub bytes: u64,
    /// Explicit flushes (one per streamed shard plus checkpoint records).
    pub flushes: u64,
    /// Seconds spent inside the calls.
    pub seconds: f64,
}

#[derive(Debug, Default)]
struct IoCounters {
    ops: AtomicU64,
    bytes: AtomicU64,
    flushes: AtomicU64,
    nanos: AtomicU64,
}

impl IoCounters {
    /// Times one call; the counters are statistics and publish no other
    /// data, hence `Relaxed`.
    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.ops.fetch_add(1, Ordering::Relaxed);
        result
    }
}

/// A [`SpoolIo`] over [`RealIo`] that counts and times every call made
/// through it — the report and checkpoint I/O of `stream::run_with_io`.
#[derive(Debug, Default)]
pub struct TimingIo {
    counters: Arc<IoCounters>,
}

impl TimingIo {
    /// The totals so far.
    pub fn totals(&self) -> IoTotals {
        IoTotals {
            ops: self.counters.ops.load(Ordering::Relaxed),
            bytes: self.counters.bytes.load(Ordering::Relaxed),
            flushes: self.counters.flushes.load(Ordering::Relaxed),
            seconds: self.counters.nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }

    fn wrap(&self, file: io::Result<Box<dyn SpoolFile>>) -> io::Result<Box<dyn SpoolFile>> {
        Ok(Box::new(TimingFile {
            inner: file?,
            counters: Arc::clone(&self.counters),
        }))
    }
}

impl SpoolIo for TimingIo {
    fn create(&self, path: &Path) -> io::Result<Box<dyn SpoolFile>> {
        let file = self.counters.timed(|| RealIo.create(path));
        self.wrap(file)
    }

    fn open_read_write(&self, path: &Path) -> io::Result<Box<dyn SpoolFile>> {
        let file = self.counters.timed(|| RealIo.open_read_write(path));
        self.wrap(file)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn SpoolFile>> {
        let file = self.counters.timed(|| RealIo.open_append(path));
        self.wrap(file)
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.counters.timed(|| RealIo.read_to_string(path))
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.counters
            .bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.counters.timed(|| RealIo.write_atomic(path, bytes))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.counters.timed(|| RealIo.remove_file(path))
    }

    fn exists(&self, path: &Path) -> bool {
        RealIo.exists(path)
    }
}

struct TimingFile {
    inner: Box<dyn SpoolFile>,
    counters: Arc<IoCounters>,
}

impl Read for TimingFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.counters.timed(|| self.inner.read(buf))
    }
}

impl Write for TimingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let written = self.counters.timed(|| self.inner.write(buf))?;
        self.counters
            .bytes
            .fetch_add(written as u64, Ordering::Relaxed);
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.counters.flushes.fetch_add(1, Ordering::Relaxed);
        self.counters.timed(|| self.inner.flush())
    }
}

impl SpoolFile for TimingFile {
    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        self.counters.timed(|| self.inner.truncate_to(len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_spans_and_counters() {
        let trace = Trace::new();
        let start = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let root = trace.record("root", 0, None, start, Instant::now());
        trace.record("child", 0, Some(root), start, start);
        assert!(trace.durations("root")[0] >= 0.02);
        assert_eq!(trace.durations("child"), vec![0.0]);
        assert_eq!(trace.spans()[1].parent, Some(root));
        assert_eq!(trace.totals()[1].0, "root");
        assert_eq!(trace.totals()[1].1, 1);
        trace.count("c", 2);
        trace.count("c", 3);
        assert_eq!(trace.counter("c"), 5);
        assert_eq!(trace.counter("missing"), 0);
    }
}
