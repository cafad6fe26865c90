//! Layer probes for the traced run. Every workload's traced run reports
//! every per-layer metric: a layer that the workload's own phases do not
//! exercise is measured here on the workload's inputs, in isolation, so
//! that each per-layer figure is a measurement and comparable between
//! runs of one workload. None of this runs in an untraced run.

use std::error::Error;
use std::path::Path;
use std::time::Instant;

use pscd_core::StrategyKind;
use pscd_experiments::PAPER_BETA;
use pscd_matching::MatchScratch;
use pscd_sim::trace::CompiledTrace;
use pscd_sim::{simulate_compiled, PrefetchOptions, SimOptions, StreamingTrace};
use pscd_topology::FetchCosts;
use pscd_types::{LiveEvent, PageId, ServerId, SimTime, SubscriptionTable};
use pscd_workload::{matcher_from_table, WorkloadConfig};

use crate::allocations;
use crate::common::{median, millis, threads, Layers, Report};
use crate::durable;
use crate::live;

/// Window and compile-ahead depth of every streamed pass.
pub const WINDOW_HOURS: u64 = 24;
pub const PREFETCH_DEPTH: usize = 2;
/// Capacity of the per-strategy replay timings.
pub const REPLAY_CAPACITY: f64 = 0.05;

/// Table 2's columns: GD* (the baseline) first, then every
/// subscription-aware strategy in the paper's order.
pub fn table2_lineup() -> Vec<StrategyKind> {
    let b = PAPER_BETA;
    vec![
        StrategyKind::GdStar { beta: b },
        StrategyKind::Sub,
        StrategyKind::Sg1 { beta: b },
        StrategyKind::Sg2 { beta: b },
        StrategyKind::Sr,
        StrategyKind::Dm { beta: b },
        StrategyKind::dc_fp(b),
        StrategyKind::dc_lap(b),
    ]
}

/// Metric-name suffix of a strategy (`GD*` → `gdstar`, `DC-LAP` →
/// `dc_lap`).
fn slug(kind: &StrategyKind) -> String {
    kind.name()
        .to_ascii_lowercase()
        .replace('*', "star")
        .replace('-', "_")
}

/// `pscd-sim` streaming: open a stream over `config` and drain it through
/// the prefetcher (generation and compilation without replay).
pub fn stream(
    layers: &mut Layers,
    report: &mut Report,
    config: &WorkloadConfig,
) -> Result<(), Box<dyn Error>> {
    let t = threads();
    let window = SimTime::from_hours(WINDOW_HOURS);
    let started = Instant::now();
    let stream = layers.call("pscd-sim", "sim.stream_open", || {
        StreamingTrace::with_lookahead(config, 1.0, window, t, PREFETCH_DEPTH)
    })?;
    report.metric("sim.stream_open_ms", millis(started), "ms");
    drain(layers, report, &stream);
    Ok(())
}

/// Drains `stream` three times through the prefetcher and reports the
/// median time and the queue's high-water marks.
pub fn drain(layers: &mut Layers, report: &mut Report, stream: &StreamingTrace) {
    let prefetch = PrefetchOptions::new(PREFETCH_DEPTH);
    let mut times = Vec::new();
    let mut stats = None;
    for _ in 0..3 {
        let started = Instant::now();
        stats = Some(layers.call("pscd-sim", "sim.stream_drain", || {
            stream.drain_prefetched(&prefetch)
        }));
        times.push(millis(started));
    }
    let stats = stats.expect("drained three times");
    report.metric("sim.stream_drain_ms", median(&times), "ms");
    report.metric(
        "sim.stream_peak_window_mb",
        stats.peak_bytes as f64 / 1e6,
        "MB",
    );
    report.metric(
        "sim.stream_peak_windows",
        stats.peak_windows as f64,
        "count",
    );
    report.metric("sim.stream_windows", stats.windows as f64, "count");
}

/// Replay: sequential `simulate_compiled` of every Table 2 strategy at 5%
/// capacity, `reps` times each. Returns the median ns per event of each.
pub fn replay(
    layers: &mut Layers,
    report: &mut Report,
    compiled: &CompiledTrace,
    costs: &FetchCosts,
    reps: usize,
) -> Result<Vec<(StrategyKind, f64)>, Box<dyn Error>> {
    let events = compiled.len() as f64;
    let mut table = Vec::new();
    let mut allocs = 0u64;
    let mut replays = 0u64;
    for kind in table2_lineup() {
        let options = SimOptions::at_capacity(kind, REPLAY_CAPACITY);
        let mut samples = Vec::new();
        for _ in 0..reps {
            let before = allocations();
            let started = Instant::now();
            let result = layers.call("replay", "replay.simulate_compiled", || {
                simulate_compiled(compiled, costs, &options)
            })?;
            samples.push(started.elapsed().as_nanos() as f64 / events);
            allocs += allocations() - before;
            replays += 1;
            std::hint::black_box(result);
        }
        let ns = median(&samples);
        report.metric(&format!("replay.ns_per_event.{}", slug(&kind)), ns, "ns");
        table.push((kind, ns));
    }
    report.metric(
        "replay.allocs_per_event",
        allocs as f64 / (replays as f64 * events),
        "count",
    );
    report.metric("replay.events", events, "count");
    Ok(table)
}

/// `pscd-service` in count-table mode on `inputs`: one round of
/// `live_durable`'s service measurement, with its checks, reported the
/// same way.
pub fn service(
    layers: &mut Layers,
    report: &mut Report,
    inputs: &live::Inputs,
    dir: &Path,
) -> Result<(), Box<dyn Error>> {
    let reference = durable::reference(inputs)?;
    let round = durable::round(inputs, &reference, dir, layers, &mut report.checks)?;
    durable::report_service(report, &[round], inputs);
    std::fs::remove_dir_all(dir)?;
    Ok(())
}

/// `pscd-matching`: the subscription table as a content matcher, frozen
/// in full and probed with every publish and request.
pub fn matching(
    layers: &mut Layers,
    report: &mut Report,
    subs: &SubscriptionTable,
    servers: u16,
    events: &[LiveEvent],
) {
    let mut matcher = matcher_from_table(subs, servers);
    let mut freeze = Vec::new();
    for _ in 0..3 {
        // Any subscription change invalidates the frozen kernel.
        matcher
            .subscribe(
                ServerId::new(0),
                crate::content::page_subscription(PageId::new(0)),
            )
            .expect("server 0 is in the fleet");
        let started = Instant::now();
        layers.call("pscd-matching", "matching.freeze", || matcher.freeze());
        freeze.push(millis(started));
    }
    let mut scratch = MatchScratch::new();
    let mut out = Vec::new();
    let mut probes = Vec::new();
    let mut pairs = 0u64;
    let mut publishes = 0u64;
    for _ in 0..3 {
        pairs = 0;
        publishes = 0;
        let started = Instant::now();
        let mut counted = 0u64;
        layers.call("pscd-matching", "matching.probe", || {
            for ev in events {
                match *ev {
                    LiveEvent::Publish { page, .. } => {
                        matcher.matched_servers_into(page, &mut scratch, &mut out);
                        pairs += out.len() as u64;
                        publishes += 1;
                    }
                    LiveEvent::Request { page, server, .. } => {
                        counted += u64::from(matcher.match_count_with(page, server, &mut scratch));
                    }
                    LiveEvent::Subscribe { .. } => {}
                }
            }
        });
        std::hint::black_box(counted);
        probes.push(started.elapsed().as_nanos() as f64 / events.len().max(1) as f64);
    }
    let subscriptions: u64 = subs.iter().map(|(_, _, c)| u64::from(c)).sum();
    report.metric("matching.freeze_ms", median(&freeze), "ms");
    report.metric("matching.probe_ns_per_event", median(&probes), "ns");
    report.metric("matching.subscriptions", subscriptions as f64, "count");
    report.metric(
        "matching.pairs_per_publish",
        pairs as f64 / publishes.max(1) as f64,
        "count",
    );
    // Subscriptions change while serving only on `live_content`, which
    // reports its own count first.
    report.metric("matching.refreezes", 0.0, "count");
}
