//! `stream_churn`: a four-week scenario with heavy catalog churn and a
//! daily cycle, streamed through `StreamingTrace` in 24-hour windows with
//! compile-ahead prefetch, replayed on one thread per strategy.
//!
//! Each window is regenerated and compiled on the prefetch producer's
//! thread while the replay thread consumes the previous one, so the
//! workload prices window generation and compilation, and bounds resident
//! memory by the window rather than by the trace.

use std::error::Error;
use std::time::Instant;

use pscd_core::StrategyKind;
use pscd_experiments::PAPER_BETA;
use pscd_sim::{
    simulate_streamed_prefetched, PrefetchOptions, SimOptions, SimResult, StreamingTrace,
};
use pscd_topology::{FetchCosts, TopologyBuilder};
use pscd_types::SimTime;
use pscd_workload::ScenarioConfig;

use crate::common::{
    median, millis, peak_rss_mb, quantile, rounds_done, secs, setups_first, threads, Args, Checks,
    Layers, Report,
};
use crate::live::Inputs;
use crate::probes::{self, PREFETCH_DEPTH, WINDOW_HOURS};

/// The scenario this workload streams; its seed is replaced by `--seed`.
const SCENARIO: &str = include_str!("../scenarios/stream_churn.scenario");
/// Stream openings per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Reopenings per run; `recover_s` is their median.
const RECOVERIES: usize = 15;
const CAPACITY: f64 = 0.05;

/// The replayed lineup: the access-only baseline (`low`, the lighter
/// replay) and the paper's adaptive dual cache (`high`).
fn lineup() -> [StrategyKind; 2] {
    [
        StrategyKind::GdStar { beta: PAPER_BETA },
        StrategyKind::dc_lap(PAPER_BETA),
    ]
}

fn scenario(seed: u64) -> Result<ScenarioConfig, Box<dyn Error>> {
    let mut s = ScenarioConfig::from_text(SCENARIO)?;
    s.seed = seed;
    Ok(s)
}

struct Setup {
    stream: StreamingTrace,
    costs: FetchCosts,
}

fn setup(scenario: &ScenarioConfig, layers: &mut Layers) -> Result<Setup, Box<dyn Error>> {
    let t = threads();
    let stream = layers.call("pscd-sim", "sim.stream_open", || {
        StreamingTrace::from_scenario_with_lookahead(
            scenario,
            1.0,
            SimTime::from_hours(WINDOW_HOURS),
            t,
            PREFETCH_DEPTH,
        )
    })?;
    let servers = stream.meta().server_count() as usize;
    let costs = layers.call("pscd-topology", "topology.costs", || {
        TopologyBuilder::new(servers + 1)
            .seed(scenario.seed)
            .build()
            .and_then(|g| FetchCosts::from_topology(&g, 0))
    })?;
    Ok(Setup { stream, costs })
}

struct Round {
    secs: f64,
    /// Pass time per strategy of the lineup, ms.
    pass_ms: [f64; 2],
    results: Vec<SimResult>,
}

fn round(s: &Setup, layers: &mut Layers) -> Result<Round, Box<dyn Error>> {
    let started = Instant::now();
    let mut pass_ms = [0.0; 2];
    let mut results = Vec::new();
    for (i, kind) in lineup().into_iter().enumerate() {
        // One replay thread; the prefetch producer is the second.
        let options = SimOptions::at_capacity(kind, CAPACITY).with_threads(1);
        let prefetch = PrefetchOptions::new(PREFETCH_DEPTH);
        let pass = Instant::now();
        results.push(layers.call("pscd-sim", "sim.stream_replay", || {
            simulate_streamed_prefetched(&s.stream, &s.costs, &options, &prefetch)
        })?);
        pass_ms[i] = millis(pass);
    }
    Ok(Round {
        secs: secs(started),
        pass_ms,
        results,
    })
}

/// Recovery: nothing is persisted, so a restarted process reopens the
/// stream from the scenario; the reopened stream must equal the `lost`
/// one (events, windows). Returns the reopening's time, s.
fn reopen(
    scenario: &ScenarioConfig,
    lost: (usize, usize),
    layers: &mut Layers,
    checks: &mut Checks,
) -> Result<f64, Box<dyn Error>> {
    let started = Instant::now();
    let again = setup(scenario, layers)?;
    let took = secs(started);
    checks.eq(
        "reopened stream (events, windows)",
        (again.stream.meta().len(), again.stream.window_count()),
        lost,
    );
    Ok(took)
}

pub fn run(args: &Args, layers: &mut Layers, report: &mut Report) -> Result<(), Box<dyn Error>> {
    let scenario = scenario(args.seed)?;
    let mut setup_times = Vec::new();
    let mut state = None;
    for _ in 0..setups_first(args, SETUPS) {
        drop(state.take());
        let started = Instant::now();
        state = Some(setup(&scenario, layers)?);
        setup_times.push(secs(started));
    }
    let s = state.take().expect("at least one set-up");
    let open_ms = layers.total_ms("sim.stream_open") / SETUPS as f64;

    let lost = (s.stream.meta().len(), s.stream.window_count());
    let mut recover = Vec::new();

    // An untraced run spreads its further set-ups and reopenings over the
    // rounds, one of each after every round once the peak RSS is read, so
    // that a slow phase of the host lasting a few seconds moves few of
    // them.
    let mut rounds = Vec::new();
    let mut round_layer_ms = 0.0;
    let mut peak = 0.0;
    let phase = Instant::now();
    while rounds.is_empty() || !rounds_done(args, rounds.len(), phase) {
        layers.reset_totals();
        rounds.push(round(&s, layers)?);
        round_layer_ms = layers.all_ms();
        if rounds.len() == 1 {
            peak = peak_rss_mb();
        }
        if !args.trace && setup_times.len() < SETUPS {
            let started = Instant::now();
            drop(setup(&scenario, layers)?);
            setup_times.push(secs(started));
            recover.push(reopen(&scenario, lost, layers, &mut report.checks)?);
        }
    }
    while setup_times.len() < SETUPS {
        let started = Instant::now();
        drop(setup(&scenario, layers)?);
        setup_times.push(secs(started));
    }
    while recover.len() < RECOVERIES {
        recover.push(reopen(&scenario, lost, layers, &mut report.checks)?);
    }

    // The expected accounting comes from the scenario's materialized
    // workload, built only after the peak RSS was read.
    let t = threads();
    layers.reset_totals();
    let workload = layers.call("pscd-workload", "workload.generate", || {
        scenario.build_threads(t)
    })?;
    let inputs = Inputs::from_workload(&workload, args.seed, layers)?;
    drop(workload);
    for r in rounds.iter().flat_map(|r| &r.results) {
        inputs.expect.check(&mut report.checks, r);
    }

    if args.trace {
        report.metric("sim.stream_open_ms", open_ms, "ms");
        probes::drain(layers, report, &s.stream);
        report.metric(
            "grid.unattributed_ms",
            rounds[rounds.len() - 1].secs * 1e3 - round_layer_ms,
            "ms",
        );
        report.metric("grid.cells", 0.0, "count");
        report.metric(
            "workload.generate_ms",
            layers.total_ms("workload.generate"),
            "ms",
        );
        report.metric(
            "workload.subscriptions_ms",
            layers.total_ms("workload.subscriptions"),
            "ms",
        );
        report.metric("sim.compile_ms", layers.total_ms("sim.compile"), "ms");
        probes::replay(layers, report, &inputs.compiled, &inputs.costs, 1)?;
        probes::service(layers, report, &inputs, &args.out.join("stream_churn"))?;
        probes::matching(
            layers,
            report,
            &inputs.subs,
            inputs.compiled.server_count(),
            &inputs.events,
        );
        return Ok(());
    }
    let of = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
    let events = s.stream.meta().len() as f64 * lineup().len() as f64;
    let low = of(|r| r.pass_ms[0]);
    let high = of(|r| r.pass_ms[1]);
    let run_s = median(&of(|r| r.secs));
    report.metric("setup_s", median(&setup_times), "s");
    report.metric("run_s", run_s, "s");
    report.metric("peak_rss_mb", peak, "MB");
    report.metric("lat_p50_ms.low", median(&low), "ms");
    report.metric("lat_p99_ms.low", quantile(&low, 0.99), "ms");
    report.metric("lat_p99_ms.high", quantile(&high, 0.99), "ms");
    report.metric("max_rate_keps", events / run_s / 1e3, "kev/s");
    report.metric("recover_s", median(&recover), "s");
    Ok(())
}
