//! `live_durable`: the live service in count-table mode, journalling
//! every event and snapshotting on a fixed cadence, applying inline on
//! the generator's thread.
//!
//! Each round drives the stream open-loop at two fixed rates, ingests it
//! closed-loop in memory and with the journal, kills a journalled service
//! mid-stream and recovers it, and climbs a ladder of rising rates to the
//! highest rate the service sustains. Ingest, resolve, journal writes and
//! snapshots are the work here.

use std::error::Error;
use std::path::{Path, PathBuf};
use std::time::Instant;

use pscd_core::StrategyKind;
use pscd_experiments::PAPER_BETA;
use pscd_service::{ServiceConfig, ServiceCore};
use pscd_sim::{simulate_compiled, SimOptions, SimResult};
use pscd_types::LiveEvent;
use pscd_workload::WorkloadConfig;

use crate::checks::Expected;
use crate::common::{
    median, millis, peak_rss_mb, quantile, rounds_done, secs, setups_first, Args, Checks, Layers,
    Report,
};
use crate::live::{self, closed_loop, open_loop, split_subscribes, Inputs, OpenLoop, BATCH};
use crate::probes;

/// NEWS at twice the paper's volume: a longer stream than the paper's
/// 7-day trace of 299,829 events.
const SCALE: f64 = 2.0;
const SETUPS: usize = 9;
/// Events between snapshots.
const SNAPSHOT_EVERY: u64 = 50_000;
/// The two fixed open-loop rates, events per second.
const RATE_LOW: f64 = 200_000.0;
const RATE_HIGH: f64 = 700_000.0;
/// The ladder: rates `LADDER_BASE * LADDER_STEP^k`, k < `LADDER_RUNGS`.
/// Every round climbs it once, from the highest rung under
/// `CLIMB_FROM` times the round's closed-loop journalled rate.
const LADDER_BASE: f64 = 500_000.0;
const LADDER_STEP: f64 = 1.02;
const LADDER_RUNGS: usize = 120;
const CLIMB_FROM: f64 = 0.9;
/// A rung is sustained when one of `RUNG_TRIES` tries keeps its p99 batch
/// latency under `LIMIT_MS` and its backlog from growing, so that one
/// stall of the host does not end a climb.
const RUNG_TRIES: usize = 2;
/// The p99 batch latency limit of a sustained rung.
const LIMIT_MS: f64 = 40.0;
/// A rung's backlog grows when the generator runs this much later over
/// its last quarter than over its first.
const BACKLOG_MS: f64 = 10.0;
/// Recoveries timed per round.
const RECOVERIES: usize = 3;

fn strategy() -> StrategyKind {
    StrategyKind::Sg2 { beta: PAPER_BETA }
}

fn fresh_dir(path: &Path) -> std::io::Result<PathBuf> {
    if path.exists() {
        std::fs::remove_dir_all(path)?;
    }
    std::fs::create_dir_all(path)?;
    Ok(path.to_owned())
}

fn durable_config(s: &Inputs, dir: &Path) -> std::io::Result<ServiceConfig> {
    Ok(live::config(&s.compiled, &s.costs, strategy())
        .with_persistence(fresh_dir(dir)?, SNAPSHOT_EVERY))
}

/// A journalled service with the stream's subscribes already ingested.
fn subscribed(s: &Inputs, dir: &Path) -> Result<ServiceCore, Box<dyn Error>> {
    let mut core = ServiceCore::new(durable_config(s, dir)?)?;
    let (subscribes, _) = split_subscribes(&s.events);
    closed_loop(&mut core, subscribes, BATCH, |_, _| Ok(()))?;
    Ok(core)
}

/// The publishes and requests every open-loop run replays: the whole
/// stream after its subscribes, about nine snapshots' worth.
fn open_events(s: &Inputs) -> &[LiveEvent] {
    split_subscribes(&s.events).1
}

/// One round of the `pscd-service` measurement.
pub struct Round {
    /// `VmHWM` after the first open loop, MB: the process has held its
    /// inputs and one service's whole life.
    peak_mb: f64,
    low: OpenLoop,
    high: OpenLoop,
    /// Closed-loop ingest of the whole stream in memory, ms.
    memory_ms: f64,
    /// Two closed-loop journalled ingests of the stream, ms.
    durable_ms: Vec<f64>,
    journal_bytes: u64,
    /// A snapshot after each journalled ingest, ms.
    snapshot_ms: Vec<f64>,
    snapshot_bytes: u64,
    /// `RECOVERIES` recoveries after the kill, s.
    recover_s: Vec<f64>,
    recovered_events: u64,
}

/// One round of the service measurement on `s`: open loops at the two
/// fixed rates, closed-loop ingests in memory and journalled, snapshots,
/// and a kill and recovery, with every outcome checked against the batch
/// replay `reference`. It is the one definition of every `service.*`
/// figure: `live_durable` runs it as its rounds, and the other workloads'
/// traced runs run it once on their own inputs (`probes::service`).
pub fn round(
    s: &Inputs,
    reference: &SimResult,
    out: &Path,
    layers: &mut Layers,
    checks: &mut Checks,
) -> Result<Round, Box<dyn Error>> {
    let mut runs = Vec::new();
    let mut peak_mb = 0.0;
    for rate in [RATE_LOW, RATE_HIGH] {
        let mut core = subscribed(s, &out.join("open"))?;
        runs.push(layers.call("pscd-service", "service.open_loop", || {
            open_loop(&mut core, open_events(s), BATCH, rate, |_, _| Ok(()))
        })?);
        core.shutdown()?;
        if peak_mb == 0.0 {
            peak_mb = peak_rss_mb();
        }
    }
    let high = runs.pop().expect("two rates");
    let low = runs.pop().expect("two rates");

    // Closed loop, in memory, then journalled: both must reproduce the
    // batch replay exactly.
    let mut core = ServiceCore::new(live::config(&s.compiled, &s.costs, strategy()))?;
    let started = Instant::now();
    layers.call("pscd-service", "service.ingest", || {
        closed_loop(&mut core, &s.events, BATCH, |_, _| Ok(()))
    })?;
    let memory_ms = millis(started);
    check_outcome(
        checks,
        "in-memory service",
        core.shutdown()?.result,
        reference,
        &s.expect,
    );
    let dir = out.join("closed");
    let mut durable_ms = Vec::new();
    let mut snapshot_ms = Vec::new();
    for _ in 0..2 {
        let mut core = ServiceCore::new(durable_config(s, &dir)?)?;
        let started = Instant::now();
        layers.call("pscd-service", "service.ingest_durable", || {
            closed_loop(&mut core, &s.events, BATCH, |_, _| Ok(()))
        })?;
        durable_ms.push(millis(started));
        let started = Instant::now();
        layers.call("pscd-service", "service.snapshot", || core.snapshot_now())?;
        snapshot_ms.push(millis(started));
        check_outcome(
            checks,
            "journalled service",
            core.shutdown()?.result,
            reference,
            &s.expect,
        );
    }
    let journal_bytes = std::fs::metadata(dir.join("journal.bin"))?.len();
    let snapshot_bytes = std::fs::metadata(dir.join("snapshot.bin"))?.len();

    // Kill mid-stream, recover from snapshot plus journal suffix, finish
    // the stream: the accounting must equal the uninterrupted run's.
    let kill = kill_offset(s.events.len());
    let dir = out.join("kill");
    let mut core = ServiceCore::new(durable_config(s, &dir)?)?;
    closed_loop(&mut core, &s.events[..kill], BATCH, |_, _| Ok(()))?;
    drop(core);
    let config =
        live::config(&s.compiled, &s.costs, strategy()).with_persistence(dir, SNAPSHOT_EVERY);
    // Recovery only reads the directory until the next ingest, so it is
    // timed several times over the same files.
    let mut recover_s = Vec::new();
    for _ in 1..RECOVERIES {
        let started = Instant::now();
        drop(layers.call("pscd-service", "service.recover", || {
            ServiceCore::recover(config.clone())
        })?);
        recover_s.push(secs(started));
    }
    let started = Instant::now();
    let mut core = layers.call("pscd-service", "service.recover", || {
        ServiceCore::recover(config)
    })?;
    recover_s.push(secs(started));
    checks.eq("recovered offset", core.events_applied(), kill as u64);
    closed_loop(&mut core, &s.events[kill..], BATCH, |_, _| Ok(()))?;
    check_outcome(
        checks,
        "recovered service",
        core.shutdown()?.result,
        reference,
        &s.expect,
    );

    Ok(Round {
        peak_mb,
        low,
        high,
        memory_ms,
        durable_ms,
        journal_bytes,
        snapshot_ms,
        snapshot_bytes,
        recover_s,
        recovered_events: kill as u64 % SNAPSHOT_EVERY,
    })
}

/// The batch replay a service's final accounting must equal.
pub fn reference(s: &Inputs) -> Result<SimResult, Box<dyn Error>> {
    Ok(simulate_compiled(
        &s.compiled,
        &s.costs,
        &SimOptions::at_capacity(strategy(), live::CAPACITY),
    )?)
}

/// The median of every sample `f` gives of every round.
fn median_of(rounds: &[Round], f: fn(&Round) -> &[f64]) -> f64 {
    median(&rounds.iter().flat_map(f).copied().collect::<Vec<_>>())
}

/// Reports the `service.*` figures of `rounds` on `s`: each is the
/// median over the rounds' samples.
pub fn report_service(report: &mut Report, rounds: &[Round], s: &Inputs) {
    let events = s.events.len() as f64;
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    report.metric(
        "service.ingest_ns_per_event",
        per_round(&|r| r.memory_ms) * 1e6 / events,
        "ns",
    );
    report.metric(
        "service.durable_ns_per_event",
        median_of(rounds, |r| &r.durable_ms) * 1e6 / events,
        "ns",
    );
    report.metric(
        "service.journal_bytes_per_event",
        rounds[0].journal_bytes as f64 / events,
        "B",
    );
    report.metric(
        "service.snapshot_ms",
        median_of(rounds, |r| &r.snapshot_ms),
        "ms",
    );
    report.metric(
        "service.snapshot_mb",
        rounds[0].snapshot_bytes as f64 / 1e6,
        "MB",
    );
    report.metric(
        "service.recover_events_per_s",
        rounds[0].recovered_events as f64 / median_of(rounds, |r| &r.recover_s),
        "1/s",
    );
    report.metric(
        "service.late_ms.low",
        per_round(&|r| quantile(&r.low.late_ms, 0.99)),
        "ms",
    );
    report.metric(
        "service.late_ms.high",
        per_round(&|r| quantile(&r.high.late_ms, 0.99)),
        "ms",
    );
}

/// Where the kill falls: half a snapshot interval past the last snapshot
/// before 70% of the stream, so that recovery always restores a snapshot
/// and replays the same number of journalled events, whatever the seed.
fn kill_offset(events: usize) -> usize {
    let every = SNAPSHOT_EVERY as usize;
    (events * 7 / 10) / every * every + every / 2
}

fn check_outcome(
    checks: &mut Checks,
    what: &str,
    got: SimResult,
    reference: &SimResult,
    expect: &Expected,
) {
    expect.check(checks, &got);
    checks.check(got == *reference, || {
        format!("{what}: accounting differs from the batch replay")
    });
}

/// Whether the service sustains ladder rung `k`: in one of
/// `RUNG_TRIES` tries, a fresh journalled service fed the stream's
/// publishes and requests at that rung's rate keeps its p99 under the
/// limit without a growing backlog.
fn sustains(s: &Inputs, out: &Path, layers: &mut Layers, k: usize) -> Result<bool, Box<dyn Error>> {
    let rate = LADDER_BASE * LADDER_STEP.powi(k as i32);
    for _ in 0..RUNG_TRIES {
        let mut core = subscribed(s, &out.join("ladder"))?;
        let run = layers.call("pscd-service", "service.ladder_rung", || {
            open_loop(&mut core, open_events(s), BATCH, rate, |_, _| Ok(()))
        })?;
        if run.p99() <= LIMIT_MS && run.backlog_growth_ms() <= BACKLOG_MS {
            return Ok(true);
        }
    }
    Ok(false)
}

/// The rung a climb starts from: the highest under `CLIMB_FROM` times
/// `rate`, the closed-loop journalled rate in events per second.
fn start_rung(rate: f64) -> usize {
    let k = (CLIMB_FROM * rate / LADDER_BASE).ln() / LADDER_STEP.ln();
    if k >= 1.0 {
        (k as usize).min(LADDER_RUNGS - 1)
    } else {
        0
    }
}

/// One climb of the ladder from rung `from`: down until a rung is
/// sustained, then up until one is not. Returns the highest sustained
/// rung, `None` if not even the lowest is.
fn climb(
    s: &Inputs,
    out: &Path,
    layers: &mut Layers,
    from: usize,
) -> Result<Option<usize>, Box<dyn Error>> {
    let mut k = from;
    while !sustains(s, out, layers, k)? {
        if k == 0 {
            return Ok(None);
        }
        k -= 1;
    }
    if k < from {
        return Ok(Some(k));
    }
    while k + 1 < LADDER_RUNGS && sustains(s, out, layers, k + 1)? {
        k += 1;
    }
    Ok(Some(k))
}

pub fn run(args: &Args, layers: &mut Layers, report: &mut Report) -> Result<(), Box<dyn Error>> {
    let out = args.out.join("live_durable");
    let mut setup_times = Vec::new();
    let mut state = None;
    for _ in 0..setups_first(args, SETUPS) {
        drop(state.take());
        let started = Instant::now();
        state = Some(Inputs::build(args.seed, SCALE, layers)?);
        setup_times.push(secs(started));
    }
    let s = state.take().expect("at least one set-up");
    let setup_ms = [
        layers.total_ms("workload.generate"),
        layers.total_ms("workload.subscriptions"),
        layers.total_ms("sim.compile"),
    ]
    .map(|ms| ms / SETUPS as f64);
    let reference = reference(&s)?;
    // The probe's inputs are the same in every run, whatever the seed.
    let probe_inputs = Inputs::build(0, 0.02, layers)?;

    // An untraced run climbs the ladder once per round and spreads its
    // further set-ups over the rounds, one after every round, so that a
    // slow phase of the host lasting a few seconds moves few of them.
    let mut rounds = Vec::new();
    let mut round_s = Vec::new();
    let mut round_layer_ms = 0.0;
    let mut knees = Vec::new();
    let phase = Instant::now();
    while rounds.is_empty() || !rounds_done(args, rounds.len(), phase) {
        layers.reset_totals();
        let started = Instant::now();
        let r = round(&s, &reference, &out, layers, &mut report.checks)?;
        probe_corrupt_journal(&probe_inputs, &out.join("probe"), &mut report.checks)?;
        round_s.push(secs(started));
        round_layer_ms = layers.all_ms();
        if !args.trace {
            let rate = s.events.len() as f64 / (median(&r.durable_ms) / 1e3);
            if let Some(k) = climb(&s, &out, layers, start_rung(rate))? {
                knees.push(LADDER_BASE * LADDER_STEP.powi(k as i32));
            }
            if setup_times.len() < SETUPS {
                let started = Instant::now();
                drop(Inputs::build(args.seed, SCALE, layers)?);
                setup_times.push(secs(started));
            }
        }
        rounds.push(r);
    }
    for _ in setup_times.len()..SETUPS {
        let started = Instant::now();
        let again = Inputs::build(args.seed, SCALE, layers)?;
        setup_times.push(secs(started));
        drop(again);
    }
    std::fs::remove_dir_all(&out)?;

    if args.trace {
        report.metric("workload.generate_ms", setup_ms[0], "ms");
        report.metric("workload.subscriptions_ms", setup_ms[1], "ms");
        report.metric("sim.compile_ms", setup_ms[2], "ms");
        report_service(report, &rounds, &s);
        report.metric(
            "grid.unattributed_ms",
            round_s[round_s.len() - 1] * 1e3 - round_layer_ms,
            "ms",
        );
        report.metric("grid.cells", 0.0, "count");
        probes::stream(
            layers,
            report,
            &WorkloadConfig::news_scaled(SCALE).with_seed(args.seed),
        )?;
        probes::replay(layers, report, &s.compiled, &s.costs, 1)?;
        probes::matching(
            layers,
            report,
            &s.subs,
            s.compiled.server_count(),
            &s.events,
        );
        return Ok(());
    }
    // Latencies: each round's own percentile, then the median over the
    // rounds, so that a stall of the host in one round moves one sample.
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    report.metric("setup_s", median(&setup_times), "s");
    report.metric("run_s", median_of(&rounds, |r| &r.durable_ms) / 1e3, "s");
    // Read after one service's life: every later service this run builds
    // and drops would add the heap's retention of the last one's blocks
    // (192–277 MB by the end of a round, from one run to the next).
    report.metric("peak_rss_mb", rounds[0].peak_mb, "MB");
    report.metric("lat_p50_ms.low", per_round(&|r| r.low.p50()), "ms");
    report.metric("lat_p99_ms.low", per_round(&|r| r.low.p99()), "ms");
    report.metric("lat_p99_ms.high", per_round(&|r| r.high.p99()), "ms");
    let max_rate = if knees.is_empty() {
        0.0
    } else {
        median(&knees)
    };
    report.metric("max_rate_keps", max_rate / 1e3, "kev/s");
    report.metric("recover_s", median_of(&rounds, |r| &r.recover_s), "s");
    Ok(())
}

/// The corrupt-journal probe, on inputs that do not depend on the seed: a
/// small journalled run is killed, one low bit of a page field in the
/// journal suffix is flipped, and recovery must report the corruption.
/// Journal records carry no checksum today, so the flipped record decodes
/// to another valid event and recovery silently diverges.
fn probe_corrupt_journal(
    s: &Inputs,
    dir: &Path,
    checks: &mut Checks,
) -> Result<(), Box<dyn Error>> {
    let mut core = ServiceCore::new(durable_config(s, dir)?)?;
    closed_loop(&mut core, &s.events, BATCH, |_, _| Ok(()))?;
    drop(core);
    // Byte offset of each record, from the record layout: an 8-byte
    // header, then a tag byte and little-endian fields per event.
    let mut offset = 8usize;
    let mut target = None;
    let suffix_start = s.events.len() as u64 / SNAPSHOT_EVERY * SNAPSHOT_EVERY;
    for (i, ev) in s.events.iter().enumerate() {
        let len = match ev {
            LiveEvent::Subscribe { .. } => 11,
            LiveEvent::Publish { .. } => 13,
            LiveEvent::Request { page, .. } => {
                if target.is_none() && i as u64 >= suffix_start && page.index() % 2 == 1 {
                    // The page field follows the tag, time and server.
                    target = Some(offset + 11);
                }
                15
            }
        };
        offset += len;
    }
    let path = dir.join("journal.bin");
    let mut bytes = std::fs::read(&path)?;
    let target = target
        .filter(|_| bytes.len() == offset)
        .unwrap_or(bytes.len() - 4);
    bytes[target] ^= 1;
    std::fs::write(&path, &bytes)?;
    let config = live::config(&s.compiled, &s.costs, strategy())
        .with_persistence(dir.to_owned(), SNAPSHOT_EVERY);
    let reported = ServiceCore::recover(config).is_err();
    checks.probe(
        reported,
        "recovery accepted a journal with a flipped page bit",
    );
    Ok(())
}
