//! `paper_exhibits`: the paper's Table 2 and Figure 4 at paper scale.
//!
//! Generates the NEWS and ALTERNATIVE traces at scale 1.0 with SQ = 1,
//! compiles them, and runs both exhibit grids through the
//! `pscd-experiments` grid on a 2-wide pool, round after round. The
//! exhibit functions (`Table2::run`, `Fig4::run`) take their traces from an
//! `ExperimentContext`, which pins the workload seed to 0; the benchmark
//! builds the same grids from the same public lineups and constants so
//! that `--seed` reaches the inputs.

use std::error::Error;
use std::time::Instant;

use pscd_core::StrategyKind;
use pscd_experiments::{run_grid_threads, CAPACITIES, PAPER_BETA};
use pscd_sim::trace::CompiledTrace;
use pscd_sim::SimOptions;
use pscd_topology::{FetchCosts, TopologyBuilder};
use pscd_workload::{Workload, WorkloadConfig};

use crate::checks::Expected;
use crate::common::{
    median, millis, peak_rss_mb, quantile, rounds_done, secs, setups_first, threads, Args, Checks,
    Layers, Report,
};
use crate::live::Inputs;
use crate::probes::{self, table2_lineup, REPLAY_CAPACITY};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Rebuilds per run; `recover_s` is their median.
const RECOVERIES: usize = 7;

/// One generated and compiled trace with the counts the checks need.
struct Trace {
    config: WorkloadConfig,
    compiled: CompiledTrace,
    expect: Expected,
}

struct Setup {
    news: Trace,
    alternative: Trace,
    costs: FetchCosts,
}

fn trace(layers: &mut Layers, config: WorkloadConfig) -> Result<Trace, Box<dyn Error>> {
    let t = threads();
    let workload = layers.call("pscd-workload", "workload.generate", || {
        Workload::generate_threads(&config, t)
    })?;
    let subs = layers.call("pscd-workload", "workload.subscriptions", || {
        workload.subscriptions_threads(1.0, t)
    })?;
    let compiled = layers.call("pscd-sim", "sim.compile", || {
        CompiledTrace::compile_threads(&workload, &subs, t)
    })?;
    let expect = Expected::from_inputs(&workload, &subs);
    Ok(Trace {
        config,
        compiled,
        expect,
    })
}

fn setup(seed: u64, layers: &mut Layers) -> Result<Setup, Box<dyn Error>> {
    let news = trace(layers, WorkloadConfig::news_scaled(1.0).with_seed(seed))?;
    let alternative = trace(
        layers,
        WorkloadConfig::alternative_scaled(1.0).with_seed(seed),
    )?;
    let servers = news.compiled.server_count() as usize;
    let costs = layers.call("pscd-topology", "topology.costs", || {
        TopologyBuilder::new(servers + 1)
            .seed(seed)
            .build()
            .and_then(|g| FetchCosts::from_topology(&g, 0))
    })?;
    Ok(Setup {
        news,
        alternative,
        costs,
    })
}

/// The grid cells of one round: Table 2 per trace, then Figure 4 per
/// trace and capacity.
fn cells_per_round() -> usize {
    2 * (table2_lineup().len() + CAPACITIES.len() * StrategyKind::figure4_lineup(PAPER_BETA).len())
}

struct Round {
    secs: f64,
    /// Time of each grid call (one exhibit row), ms.
    table2_rows_ms: Vec<f64>,
    fig4_rows_ms: Vec<f64>,
    events: u64,
}

/// Runs one row of an exhibit (one grid call), checks every cell, and
/// adds the call's time to `times_ms`.
fn row(
    s: &Setup,
    trace: &Trace,
    lineup: &[StrategyKind],
    capacity: f64,
    layers: &mut Layers,
    checks: &mut Checks,
    times_ms: &mut Vec<f64>,
) -> Result<Vec<pscd_sim::SimResult>, Box<dyn Error>> {
    let jobs: Vec<_> = lineup
        .iter()
        .map(|&k| (&trace.compiled, SimOptions::at_capacity(k, capacity)))
        .collect();
    let t = threads();
    let started = Instant::now();
    let results = layers.call("pscd-experiments", "grid.run", || {
        run_grid_threads(&s.costs, &jobs, t)
    })?;
    times_ms.push(millis(started));
    for r in &results {
        trace.expect.check(checks, r);
    }
    Ok(results)
}

fn round(s: &Setup, layers: &mut Layers, checks: &mut Checks) -> Result<Round, Box<dyn Error>> {
    let started = Instant::now();
    let table2 = table2_lineup();
    let mut table2_rows_ms = Vec::new();
    for trace in [&s.news, &s.alternative] {
        let results = row(
            s,
            trace,
            &table2,
            REPLAY_CAPACITY,
            layers,
            checks,
            &mut table2_rows_ms,
        )?;
        for r in &results[1..] {
            let improvement = r.relative_improvement_percent(&results[0]);
            checks.check(improvement > 0.0, || {
                format!(
                    "Table 2 entry {} is {improvement:.2}%, not positive",
                    r.strategy
                )
            });
        }
    }
    let fig4 = StrategyKind::figure4_lineup(PAPER_BETA);
    let mut fig4_rows_ms = Vec::new();
    for trace in [&s.news, &s.alternative] {
        for &capacity in &CAPACITIES {
            row(s, trace, &fig4, capacity, layers, checks, &mut fig4_rows_ms)?;
        }
    }
    let events = cells_per_round() as u64 / 2
        * (s.news.compiled.len() + s.alternative.compiled.len()) as u64;
    Ok(Round {
        secs: secs(started),
        table2_rows_ms,
        fig4_rows_ms,
        events,
    })
}

pub fn run(args: &Args, layers: &mut Layers, report: &mut Report) -> Result<(), Box<dyn Error>> {
    let mut setup_times = Vec::new();
    let mut state = None;
    for _ in 0..setups_first(args, SETUPS) {
        drop(state.take());
        let started = Instant::now();
        state = Some(setup(args.seed, layers)?);
        setup_times.push(secs(started));
    }
    let s = state.take().expect("at least one set-up");
    let per_setup = |layers: &Layers, label: &str| layers.total_ms(label) / SETUPS as f64;
    let setup_ms = [
        per_setup(layers, "workload.generate"),
        per_setup(layers, "workload.subscriptions"),
        per_setup(layers, "sim.compile"),
    ];
    layers.reset_totals();

    let lost = (s.news.compiled.len(), s.news.compiled.total_matched_pairs());
    let mut recover = Vec::new();
    // An untraced run spreads its further set-ups and rebuilds over the
    // rounds, one of each after every round once the peak RSS is read, so
    // that a slow phase of the host lasting a few seconds moves few of
    // them.
    let mut rounds = Vec::new();
    let mut peak = 0.0;
    let phase = Instant::now();
    while rounds.is_empty() || !rounds_done(args, rounds.len(), phase) {
        rounds.push(round(&s, layers, &mut report.checks)?);
        if rounds.len() == 1 {
            peak = peak_rss_mb();
        }
        if !args.trace && setup_times.len() < SETUPS {
            let started = Instant::now();
            drop(setup(args.seed, layers)?);
            setup_times.push(secs(started));
            recover.push(rebuild(args.seed, lost, layers, &mut report.checks)?);
        }
    }
    if args.trace {
        return traced(args, layers, report, &s, &rounds, setup_ms);
    }
    drop(s);
    while setup_times.len() < SETUPS {
        let started = Instant::now();
        drop(setup(args.seed, layers)?);
        setup_times.push(secs(started));
    }
    while recover.len() < RECOVERIES {
        recover.push(rebuild(args.seed, lost, layers, &mut report.checks)?);
    }

    // Latency of one grid call (one exhibit row): each round's p50 and
    // p99 over its calls, then the median over the rounds.
    let of = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
    let run_s = median(&of(|r| r.secs));
    report.metric("setup_s", median(&setup_times), "s");
    report.metric("run_s", run_s, "s");
    report.metric("peak_rss_mb", peak, "MB");
    report.metric(
        "lat_p50_ms.low",
        median(&of(|r| quantile(&r.table2_rows_ms, 0.5))),
        "ms",
    );
    report.metric(
        "lat_p99_ms.low",
        median(&of(|r| quantile(&r.table2_rows_ms, 0.99))),
        "ms",
    );
    report.metric(
        "lat_p99_ms.high",
        median(&of(|r| quantile(&r.fig4_rows_ms, 0.99))),
        "ms",
    );
    report.metric(
        "max_rate_keps",
        rounds[0].events as f64 / run_s / 1e3,
        "kev/s",
    );
    report.metric("recover_s", median(&recover), "s");
    Ok(())
}

/// Recovery: nothing is persisted, so a restarted process rebuilds its
/// inputs from the seed; the rebuilt NEWS trace must equal the `lost` one
/// (events, matched pairs). Returns the rebuild's time, s.
fn rebuild(
    seed: u64,
    lost: (usize, u64),
    layers: &mut Layers,
    checks: &mut Checks,
) -> Result<f64, Box<dyn Error>> {
    let started = Instant::now();
    let rebuilt = setup(seed, layers)?;
    let took = secs(started);
    checks.eq(
        "rebuilt NEWS trace (events, matched pairs)",
        (
            rebuilt.news.compiled.len(),
            rebuilt.news.compiled.total_matched_pairs(),
        ),
        lost,
    );
    Ok(took)
}

/// The traced run's per-layer figures.
fn traced(
    args: &Args,
    layers: &mut Layers,
    report: &mut Report,
    s: &Setup,
    rounds: &[Round],
    [generate_ms, subscriptions_ms, compile_ms]: [f64; 3],
) -> Result<(), Box<dyn Error>> {
    report.metric("workload.generate_ms", generate_ms, "ms");
    report.metric("workload.subscriptions_ms", subscriptions_ms, "ms");
    report.metric("sim.compile_ms", compile_ms, "ms");
    report.metric("grid.cells", cells_per_round() as f64, "count");

    // The replay work of a round, priced at the sequential per-event cost
    // and spread over the pool; the rest of the traced round is pool
    // dispatch, imbalance and capacity effects.
    let ns = probes::replay(layers, report, &s.news.compiled, &s.costs, 3)?;
    let ns_of = |k: &StrategyKind| {
        ns.iter()
            .find(|(n, _)| n.name() == k.name())
            .map_or(0.0, |p| p.1)
    };
    let mut replay_ms = 0.0;
    for trace in [&s.news, &s.alternative] {
        let events = trace.compiled.len() as f64;
        for k in table2_lineup() {
            replay_ms += events * ns_of(&k) / 1e6;
        }
        for k in StrategyKind::figure4_lineup(PAPER_BETA) {
            replay_ms += CAPACITIES.len() as f64 * events * ns_of(&k) / 1e6;
        }
    }
    report.metric(
        "grid.unattributed_ms",
        rounds[rounds.len() - 1].secs * 1e3 - replay_ms / threads() as f64,
        "ms",
    );

    probes::stream(layers, report, &s.news.config)?;
    let inputs = Inputs::build(args.seed, 1.0, layers)?;
    probes::service(layers, report, &inputs, &args.out.join("paper_exhibits"))?;
    probes::matching(
        layers,
        report,
        &inputs.subs,
        inputs.compiled.server_count(),
        &inputs.events,
    );
    Ok(())
}
