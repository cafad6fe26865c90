//! `live_content`: the live service in content mode. Publishes and
//! requests resolve through an `EngineMatcher` holding one content-based
//! subscription per subscribed user, while the generator interleaves
//! `subscribe_content` and `unsubscribe_content` calls with them. Every
//! subscription change invalidates the frozen match kernel, so the next
//! resolve refreezes all of it: index writes beside index reads, and the
//! only workload that touches `pscd-matching`.

use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::time::Instant;

use pscd_core::StrategyKind;
use pscd_experiments::PAPER_BETA;
use pscd_matching::{Predicate, Subscription, SubscriptionId, Value};
use pscd_service::{ServiceCore, ServiceError};
use pscd_sim::SimResult;
use pscd_types::{LiveEvent, PageId, ServerId};
use pscd_workload::{matcher_from_table, WorkloadConfig};

use crate::checks::Expected;
use crate::common::{
    median, millis, peak_rss_mb, rounds_done, secs, setups_first, Args, Checks, Layers, Report,
};
use crate::live::{self, closed_loop, open_loop, split_subscribes, Inputs, OpenLoop};
use crate::probes;

/// NEWS at a quarter of the paper's volume: 48,750 subscriptions in the
/// matcher, a full refreeze costing several milliseconds.
const SCALE: f64 = 0.25;
const SETUPS: usize = 9;
/// Events per `ingest_all` call.
const BATCH: usize = 64;
/// One churn step (a subscribe, and an unsubscribe once `CHURN_LIVE`
/// added subscriptions are alive) follows every `CHURN_EVERY` batches.
const CHURN_EVERY: usize = 64;
const CHURN_LIVE: usize = 64;
/// How far ahead of the churn step the subscribed page is next published.
const CHURN_LOOKAHEAD: usize = 2_048;
/// The two fixed open-loop rates, events per second.
const RATE_LOW: f64 = 40_000.0;
const RATE_HIGH: f64 = 100_000.0;
/// Timed rebuilds after each round's kill.
const REBUILDS: usize = 2;
const KILL_AT: f64 = 0.7;

fn strategy() -> StrategyKind {
    StrategyKind::Sg2 { beta: PAPER_BETA }
}

/// A content subscription to one page, the form `matcher_from_table`
/// gives every subscription of the count table.
pub fn page_subscription(page: PageId) -> Subscription {
    Subscription::new(vec![Predicate::eq(
        "page",
        Value::int(i64::from(page.index())),
    )])
}

/// SplitMix64: the churn schedule's own seeded generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

struct Setup {
    inputs: Inputs,
    /// Subscribed `(page, server)` of each churn step, in order.
    steps: Vec<(PageId, ServerId)>,
    /// Accounting of the whole stream under the churn schedule.
    expect: Expected,
}

impl Setup {
    /// The publishes and requests the service ingests.
    fn events(&self) -> &[LiveEvent] {
        split_subscribes(&self.inputs.events).1
    }
}

/// The churn schedule: each step subscribes a random proxy to a page
/// published soon after the step.
fn schedule(events: &[LiveEvent], servers: u16, seed: u64) -> Vec<(PageId, ServerId)> {
    let mut rng = SplitMix(seed ^ 0x0063_6f6e_7465_6e74);
    let batches = events.len().div_ceil(BATCH);
    (1..=batches / CHURN_EVERY)
        .filter_map(|k| {
            let from = k * CHURN_EVERY * BATCH + (rng.next() % CHURN_LOOKAHEAD as u64) as usize;
            let page = events.get(from..)?.iter().find_map(|e| match e {
                LiveEvent::Publish { page, .. } => Some(*page),
                _ => None,
            })?;
            Some((
                page,
                ServerId::new((rng.next() % u64::from(servers)) as u16),
            ))
        })
        .collect()
}

/// Expected accounting under the churn schedule, counted from the
/// subscription table and the schedule alone.
fn expected(inputs: &Inputs, events: &[LiveEvent], steps: &[(PageId, ServerId)]) -> Expected {
    let mut added: HashMap<(PageId, ServerId), u32> = HashMap::new();
    let mut alive = VecDeque::new();
    let mut pushed = 0u64;
    for (i, chunk) in events.chunks(BATCH).enumerate() {
        for ev in chunk {
            if let LiveEvent::Publish { page, .. } = *ev {
                let table = inputs.subs.matched_servers(page);
                let in_table = |s: ServerId| table.iter().any(|&(t, c)| t == s && c > 0);
                pushed += table.iter().filter(|&&(_, c)| c > 0).count() as u64;
                pushed += added
                    .iter()
                    .filter(|(&(p, s), &n)| p == page && n > 0 && !in_table(s))
                    .count() as u64;
            }
        }
        if let Some(&step) = step_after(i).and_then(|k| steps.get(k)) {
            *added.entry(step).or_default() += 1;
            alive.push_back(step);
            if alive.len() > CHURN_LIVE {
                let old = alive.pop_front().expect("more than CHURN_LIVE alive");
                *added.get_mut(&old).expect("added before") -= 1;
            }
        }
    }
    Expected {
        requests: inputs.expect.requests,
        pushed,
    }
}

/// The churn step that follows batch `i`, if any.
fn step_after(i: usize) -> Option<usize> {
    (i + 1)
        .is_multiple_of(CHURN_EVERY)
        .then(|| (i + 1) / CHURN_EVERY - 1)
}

/// Applies the churn schedule between batches, and counts the refreezes
/// of the match kernel it causes.
struct Churn<'a> {
    steps: &'a [(PageId, ServerId)],
    alive: VecDeque<(ServerId, SubscriptionId)>,
    /// Whether the service's matcher was frozen when the last batch was
    /// sent.
    frozen: bool,
    /// Batches whose `ingest_all` found the matcher thawed and left it
    /// frozen.
    refreezes: u64,
}

impl<'a> Churn<'a> {
    fn new(core: &ServiceCore, steps: &'a [(PageId, ServerId)]) -> Self {
        Self {
            steps,
            alive: VecDeque::new(),
            frozen: core.matcher_frozen(),
            refreezes: 0,
        }
    }

    fn after_batch(&mut self, core: &mut ServiceCore, i: usize) -> Result<(), ServiceError> {
        if !self.frozen && core.matcher_frozen() {
            self.refreezes += 1;
        }
        if let Some(&(page, server)) = step_after(i).and_then(|k| self.steps.get(k)) {
            let id = core.subscribe_content(server, page_subscription(page))?;
            self.alive.push_back((server, id));
            if self.alive.len() > CHURN_LIVE {
                let (server, id) = self.alive.pop_front().expect("more than CHURN_LIVE alive");
                core.unsubscribe_content(server, id)?;
            }
        }
        self.frozen = core.matcher_frozen();
        Ok(())
    }
}

/// A fresh in-memory service in content mode, its matcher frozen.
fn service(s: &Inputs, layers: &mut Layers) -> Result<ServiceCore, Box<dyn Error>> {
    let mut core = ServiceCore::new(live::config(&s.compiled, &s.costs, strategy()))?;
    let servers = s.compiled.server_count();
    let matcher = layers.call("pscd-matching", "matching.build", || {
        matcher_from_table(&s.subs, servers)
    });
    layers.call("pscd-service", "service.attach_matcher", || {
        core.attach_matcher(matcher)
    })?;
    Ok(core)
}

struct Round {
    low: OpenLoop,
    high: OpenLoop,
    /// Two closed-loop ingests of the stream, churn included, ms.
    closed_ms: Vec<f64>,
    /// The rebuilds after the kill: a new service and matcher, and the
    /// re-ingest of the accepted prefix, ms.
    recover_ms: Vec<f64>,
    /// Refreezes over one closed-loop ingest of the stream.
    refreezes: u64,
}

fn round(s: &Setup, layers: &mut Layers, checks: &mut Checks) -> Result<Round, Box<dyn Error>> {
    let events = s.events();
    let mut runs = Vec::new();
    for rate in [RATE_LOW, RATE_HIGH] {
        let mut core = service(&s.inputs, layers)?;
        let mut churn = Churn::new(&core, &s.steps);
        runs.push(layers.call("pscd-service", "service.open_loop", || {
            open_loop(&mut core, events, BATCH, rate, |c, i| {
                churn.after_batch(c, i)
            })
        })?);
    }
    let high = runs.pop().expect("two rates");
    let low = runs.pop().expect("two rates");

    let mut closed_ms = Vec::new();
    let mut uninterrupted = None;
    let mut refreezes = 0;
    for _ in 0..2 {
        let mut core = service(&s.inputs, layers)?;
        let mut churn = Churn::new(&core, &s.steps);
        let started = Instant::now();
        layers.call("pscd-service", "service.ingest_content", || {
            closed_loop(&mut core, events, BATCH, |c, i| churn.after_batch(c, i))
        })?;
        closed_ms.push(millis(started));
        refreezes = churn.refreezes;
        let result = core.shutdown()?.result;
        s.expect.check(checks, &result);
        uninterrupted = Some(result);
    }
    let uninterrupted = uninterrupted.expect("two closed loops");

    // Kill mid-stream. Nothing is persisted in memory, so recovery starts
    // a fresh service and re-ingests the accepted prefix under the same
    // churn; finishing the stream must reproduce the uninterrupted run.
    let kill = (events.len() as f64 * KILL_AT) as usize / BATCH * BATCH;
    let mut core = service(&s.inputs, layers)?;
    let mut churn = Churn::new(&core, &s.steps);
    closed_loop(&mut core, &events[..kill], BATCH, |c, i| {
        churn.after_batch(c, i)
    })?;
    drop(core);
    let mut recover_ms = Vec::new();
    let mut rebuilt = None;
    for _ in 0..REBUILDS {
        drop(rebuilt.take());
        let started = Instant::now();
        let mut core = service(&s.inputs, layers)?;
        let mut churn = Churn::new(&core, &s.steps);
        closed_loop(&mut core, &events[..kill], BATCH, |c, i| {
            churn.after_batch(c, i)
        })?;
        recover_ms.push(millis(started));
        rebuilt = Some((core, churn));
    }
    let (mut core, mut churn) = rebuilt.expect("at least one rebuild");
    closed_loop(&mut core, &events[kill..], BATCH, |c, i| {
        churn.after_batch(c, i + kill / BATCH)
    })?;
    check_same(checks, &core.shutdown()?.result, &uninterrupted);

    Ok(Round {
        low,
        high,
        closed_ms,
        recover_ms,
        refreezes,
    })
}

fn check_same(checks: &mut Checks, got: &SimResult, want: &SimResult) {
    checks.check(got == want, || {
        "recovered content service: accounting differs from the uninterrupted run".to_owned()
    });
}

pub fn run(args: &Args, layers: &mut Layers, report: &mut Report) -> Result<(), Box<dyn Error>> {
    let mut setup_times = Vec::new();
    let mut state = None;
    for _ in 0..setups_first(args, SETUPS) {
        drop(state.take());
        let started = Instant::now();
        let inputs = Inputs::build(args.seed, SCALE, layers)?;
        drop(service(&inputs, layers)?);
        setup_times.push(secs(started));
        state = Some(inputs);
    }
    let inputs = state.take().expect("at least one set-up");
    let setup_ms = [
        layers.total_ms("workload.generate"),
        layers.total_ms("workload.subscriptions"),
        layers.total_ms("sim.compile"),
    ]
    .map(|ms| ms / SETUPS as f64);
    let events = split_subscribes(&inputs.events).1;
    let steps = schedule(events, inputs.compiled.server_count(), args.seed);
    let expect = expected(&inputs, events, &steps);
    let s = Setup {
        inputs,
        steps,
        expect,
    };

    // An untraced run spreads its further set-ups over the rounds, one
    // after every round once the peak RSS is read, so that a slow phase of
    // the host lasting a few seconds moves few of them.
    let mut rounds = Vec::new();
    let mut round_s = Vec::new();
    let mut round_layer_ms = 0.0;
    let mut peak = 0.0;
    let phase = Instant::now();
    while rounds.is_empty() || !rounds_done(args, rounds.len(), phase) {
        layers.reset_totals();
        let started = Instant::now();
        rounds.push(round(&s, layers, &mut report.checks)?);
        round_s.push(secs(started));
        round_layer_ms = layers.all_ms();
        if rounds.len() == 1 {
            peak = peak_rss_mb();
        }
        if !args.trace && setup_times.len() < SETUPS {
            let started = Instant::now();
            let inputs = Inputs::build(args.seed, SCALE, layers)?;
            drop(service(&inputs, layers)?);
            setup_times.push(secs(started));
        }
    }
    for _ in setup_times.len()..SETUPS {
        let started = Instant::now();
        let inputs = Inputs::build(args.seed, SCALE, layers)?;
        drop(service(&inputs, layers)?);
        setup_times.push(secs(started));
    }
    let closed: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.closed_ms.iter().copied())
        .collect();
    let closed_s = median(&closed) / 1e3;
    let n = s.events().len() as f64;

    if args.trace {
        report.metric("workload.generate_ms", setup_ms[0], "ms");
        report.metric("workload.subscriptions_ms", setup_ms[1], "ms");
        report.metric("sim.compile_ms", setup_ms[2], "ms");
        report.metric("matching.refreezes", rounds[0].refreezes as f64, "count");
        let publishes = s
            .events()
            .iter()
            .filter(|e| matches!(e, LiveEvent::Publish { .. }))
            .count();
        report.metric(
            "matching.pairs_per_publish",
            s.expect.pushed as f64 / publishes as f64,
            "count",
        );
        report.metric(
            "grid.unattributed_ms",
            round_s[round_s.len() - 1] * 1e3 - round_layer_ms,
            "ms",
        );
        report.metric("grid.cells", 0.0, "count");
        let servers = s.inputs.compiled.server_count();
        probes::matching(layers, report, &s.inputs.subs, servers, s.events());
        probes::stream(
            layers,
            report,
            &WorkloadConfig::news_scaled(SCALE).with_seed(args.seed),
        )?;
        probes::replay(layers, report, &s.inputs.compiled, &s.inputs.costs, 1)?;
        probes::service(layers, report, &s.inputs, &args.out.join("live_content"))?;
        return Ok(());
    }
    // Latencies: each round's own percentile, then the median over the
    // rounds, so that a stall of the host in one round moves one sample.
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    report.metric("setup_s", median(&setup_times), "s");
    report.metric("run_s", closed_s, "s");
    report.metric("peak_rss_mb", peak, "MB");
    report.metric("lat_p50_ms.low", per_round(&|r| r.low.p50()), "ms");
    report.metric("lat_p99_ms.low", per_round(&|r| r.low.p99()), "ms");
    report.metric("lat_p99_ms.high", per_round(&|r| r.high.p99()), "ms");
    report.metric("max_rate_keps", n / closed_s / 1e3, "kev/s");
    let recover: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.recover_ms.iter().copied())
        .collect();
    report.metric("recover_s", median(&recover) / 1e3, "s");
    Ok(())
}
