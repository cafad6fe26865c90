//! Pieces every workload shares: the run report, output checks, layer
//! timing and tracing, and small statistics helpers.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use pscd_obs::{render_chrome_trace, TraceRecorder, TraceSink};

/// Command-line arguments of one benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for scratch files (journals, snapshots, chrome traces).
    pub out: std::path::PathBuf,
}

/// Pool width of every workload: the benchmark host has two vCPUs, and
/// no workload uses more threads than the machine has, counting the load
/// generator.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

/// What a run prints: output-check tallies plus named metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub checks: Checks,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Reports a metric; a name already reported keeps its first value.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !self.metrics.iter().any(|(n, _, _)| n == name) {
            self.metrics.push((name.to_owned(), value, unit));
        }
    }

    /// The one-line JSON result. Every value must be finite.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.checks.wrong == 0,
            self.checks.attempted,
            self.checks.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest representation that round-trips,
            // so every measured digit survives.
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Output checks. Every check is one attempted operation; a failed check
/// is a failed operation and makes the run incorrect. A probe of a known
/// fault is an operation that may fail without making the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks (probes excluded).
    pub wrong: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.wrong += 1;
            eprintln!("check failed: {}", what());
        }
    }

    pub fn eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        let ok = got == want;
        self.check(ok, || format!("{what}: got {got:?}, want {want:?}"));
    }

    /// A probe of a known fault: counts as failed while the fault stands.
    pub fn probe(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("probe failed (known fault): {what}");
        }
    }
}

/// Times every call the benchmark makes into a workspace layer, and in a
/// traced run also records it as a span on that layer's own track of a
/// `pscd-obs` trace.
pub struct Layers {
    sink: TraceSink,
    recorders: BTreeMap<&'static str, TraceRecorder>,
    totals: BTreeMap<&'static str, (f64, u64)>,
    /// Spans recorded so far (none in an untraced run).
    spans: u64,
}

impl Layers {
    pub fn new(trace: bool) -> Self {
        Self {
            sink: if trace {
                TraceSink::enabled()
            } else {
                TraceSink::disabled()
            },
            recorders: BTreeMap::new(),
            totals: BTreeMap::new(),
            spans: 0,
        }
    }

    /// Runs `f` as one call into `layer`, labelled `label`.
    pub fn call<R>(
        &mut self,
        layer: &'static str,
        label: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let recorder = self
            .recorders
            .entry(layer)
            .or_insert_with(|| self.sink.recorder(layer));
        let span = recorder.begin();
        let started = Instant::now();
        let result = f();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        if recorder.is_enabled() {
            recorder.end(span, label);
            self.spans += 1;
        }
        let total = self.totals.entry(label).or_default();
        total.0 += ms;
        total.1 += 1;
        result
    }

    /// Total milliseconds spent in calls labelled `label`.
    pub fn total_ms(&self, label: &str) -> f64 {
        self.totals.get(label).map_or(0.0, |t| t.0)
    }

    /// Total milliseconds over every recorded call.
    pub fn all_ms(&self) -> f64 {
        self.totals.values().map(|t| t.0).sum()
    }

    /// Forgets the totals (the spans stay in the trace).
    pub fn reset_totals(&mut self) {
        self.totals.clear();
    }

    /// What recording the spans cost the run, ms: the spans recorded so
    /// far times the cost of one span, measured here on a scratch sink
    /// (a clock read at begin and end, and the span's entry in the log).
    pub fn spans_ms(&self) -> f64 {
        const SAMPLE: u32 = 50_000;
        let sink = TraceSink::enabled();
        let mut recorder = sink.recorder("calibration");
        let started = Instant::now();
        for _ in 0..SAMPLE {
            let span = recorder.begin();
            recorder.end(span, "calibration");
        }
        recorder.flush();
        self.spans as f64 * millis(started) / f64::from(SAMPLE)
    }

    /// Writes the chrome trace of every recorded span to `path`; returns
    /// the number of tracks written.
    pub fn write_chrome(&mut self, path: &Path) -> std::io::Result<usize> {
        for recorder in self.recorders.values_mut() {
            recorder.flush();
        }
        let log = self.sink.drain();
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        render_chrome_trace(&log, &mut file)?;
        std::io::Write::flush(&mut file)?;
        Ok(log.tracks().len())
    }
}

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub fn millis(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// How many set-ups to run before the measured rounds: all of them in a
/// traced run, whose per-layer figures average them; only the first in an
/// untraced run, which runs the rest after its rounds, so that the peak
/// RSS read after the first round does not carry their allocator history.
pub fn setups_first(args: &Args, setups: usize) -> usize {
    if args.trace {
        setups
    } else {
        1
    }
}

/// Whether the measured rounds are done: the traced run measures two
/// rounds; an untraced run measures whole rounds until `--seconds` have
/// passed.
pub fn rounds_done(args: &Args, rounds: usize, phase: Instant) -> bool {
    if args.trace {
        rounds >= 2
    } else {
        secs(phase) >= args.seconds
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
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
