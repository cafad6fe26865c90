//! The pscd benchmark: runs one named workload with a given seed and
//! prints its metrics as one JSON line.
//!
//! ```text
//! pscd-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics and writes a chrome trace
//! of every call the benchmark made into a workspace layer to
//! `DIR/<workload>.trace.json`; `trace.overhead_ms` is what recording the
//! spans and writing that file cost. See `README.md` for the workloads and
//! metrics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

mod checks;
mod common;
mod content;
mod durable;
mod exhibits;
mod live;
mod probes;
mod stream;

use common::{Args, Layers, Report};

/// Counts heap allocations so the traced run can report allocations per
/// replayed event.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations made by the process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const USAGE: &str = "usage: pscd-perfbench --workload <paper_exhibits|stream_churn|live_durable|live_content> --seed N --seconds S --trace 0|1 [--out DIR]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = std::path::PathBuf::from(".bench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            "--out" => out = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn run(args: &Args) -> Result<Report, Box<dyn std::error::Error>> {
    std::fs::create_dir_all(&args.out)?;
    let mut layers = Layers::new(args.trace);
    let mut report = Report::default();
    match args.workload.as_str() {
        "paper_exhibits" => exhibits::run(args, &mut layers, &mut report)?,
        "stream_churn" => stream::run(args, &mut layers, &mut report)?,
        "live_durable" => durable::run(args, &mut layers, &mut report)?,
        "live_content" => content::run(args, &mut layers, &mut report)?,
        other => return Err(format!("unknown workload {other}\n{USAGE}").into()),
    }
    if args.trace {
        let path = args.out.join(format!("{}.trace.json", args.workload));
        let started = std::time::Instant::now();
        let tracks = layers.write_chrome(&path)?;
        let write_ms = common::millis(started);
        report.metric("trace.overhead_ms", layers.spans_ms() + write_ms, "ms");
        eprintln!("chrome trace: {} ({tracks} tracks)", path.display());
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args)
        .map_err(|e| e.to_string())
        .and_then(|r| r.to_json())
    {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
