//! What the two live-service workloads share: an open-loop load
//! generator, a closed-loop feeder, and the service configuration.

use std::error::Error;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pscd_broker::PushScheme;
use pscd_core::StrategyKind;
use pscd_service::{ServiceConfig, ServiceCore, ServiceError};
use pscd_sim::trace::CompiledTrace;
use pscd_topology::{FetchCosts, TopologyBuilder};
use pscd_types::{LiveEvent, PageMeta, SubscriptionTable};
use pscd_workload::{Workload, WorkloadConfig};

use crate::checks::Expected;
use crate::common::{millis, quantile, threads, Layers};

/// Events per `ingest_all` call on `live_durable`, and the dispatch batch
/// of every service.
pub const BATCH: usize = 256;

/// Cache capacity of every live service, as a share of each proxy's
/// requested bytes.
pub const CAPACITY: f64 = 0.05;

/// A service configuration for the compiled `trace`: inline apply on the
/// calling thread, Always-Pushing, 5% cache capacity.
pub fn config(trace: &CompiledTrace, costs: &FetchCosts, strategy: StrategyKind) -> ServiceConfig {
    let pages: Arc<[PageMeta]> = trace.pages().iter().copied().collect();
    ServiceConfig::new(
        strategy,
        trace.capacities(CAPACITY),
        costs.iter().collect(),
        PushScheme::Always,
        pages,
        trace.hours(),
    )
    .with_batch_size(BATCH)
}

/// A generated NEWS workload as a live event stream, with its compiled
/// trace (for capacities and the batch-replay reference), fetch costs and
/// expected accounting.
pub struct Inputs {
    pub events: Vec<LiveEvent>,
    pub subs: SubscriptionTable,
    pub compiled: CompiledTrace,
    pub costs: FetchCosts,
    pub expect: Expected,
}

impl Inputs {
    /// NEWS at `scale`, generated from `seed`.
    pub fn build(seed: u64, scale: f64, layers: &mut Layers) -> Result<Self, Box<dyn Error>> {
        let config = WorkloadConfig::news_scaled(scale).with_seed(seed);
        let t = threads();
        let workload = layers.call("pscd-workload", "workload.generate", || {
            Workload::generate_threads(&config, t)
        })?;
        Self::from_workload(&workload, seed, layers)
    }

    /// Subscriptions at SQ = 1, the compiled trace and the live stream
    /// of a generated `workload`.
    pub fn from_workload(
        workload: &Workload,
        seed: u64,
        layers: &mut Layers,
    ) -> Result<Self, Box<dyn Error>> {
        let t = threads();
        let subs = layers.call("pscd-workload", "workload.subscriptions", || {
            workload.subscriptions_threads(1.0, t)
        })?;
        let compiled = layers.call("pscd-sim", "sim.compile", || {
            CompiledTrace::compile_threads(workload, &subs, t)
        })?;
        let events = workload.live_events(&subs);
        let servers = compiled.server_count() as usize;
        let costs = layers.call("pscd-topology", "topology.costs", || {
            TopologyBuilder::new(servers + 1)
                .seed(seed)
                .build()
                .and_then(|g| FetchCosts::from_topology(&g, 0))
        })?;
        let expect = Expected::from_inputs(workload, &subs);
        Ok(Self {
            events,
            subs,
            compiled,
            costs,
            expect,
        })
    }
}

/// Splits a live event stream into its leading subscribes and the
/// publishes and requests that follow them.
pub fn split_subscribes(events: &[LiveEvent]) -> (&[LiveEvent], &[LiveEvent]) {
    let n = events
        .iter()
        .position(|e| !matches!(e, LiveEvent::Subscribe { .. }))
        .unwrap_or(events.len());
    events.split_at(n)
}

/// Ingests `events` in `batch`-event calls as fast as the service takes
/// them, calling `between` after each call like [`open_loop`]. Returns
/// the time of every call, `between` included, and of the final flush,
/// in ms.
pub fn closed_loop(
    core: &mut ServiceCore,
    events: &[LiveEvent],
    batch: usize,
    mut between: impl FnMut(&mut ServiceCore, usize) -> Result<(), ServiceError>,
) -> Result<Vec<f64>, ServiceError> {
    let mut times = Vec::with_capacity(events.len() / batch + 2);
    for (i, chunk) in events.chunks(batch).enumerate() {
        let started = Instant::now();
        core.ingest_all(chunk)?;
        between(core, i)?;
        times.push(millis(started));
    }
    let started = Instant::now();
    core.flush()?;
    times.push(millis(started));
    Ok(times)
}

/// One open-loop run: batches fall due on a fixed schedule whatever the
/// service does, and each is timed from its due time.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Per batch: due time to the return of `ingest_all`, ms.
    pub latency_ms: Vec<f64>,
    /// Per batch: due time to the call, ms (how late the generator ran).
    pub late_ms: Vec<f64>,
}

impl OpenLoop {
    /// How much later the generator ran over the last quarter of the run
    /// than over the first, ms: near zero while the service keeps up, and
    /// growing with the run's length once the backlog grows.
    pub fn backlog_growth_ms(&self) -> f64 {
        let n = self.late_ms.len();
        let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len().max(1) as f64;
        mean(&self.late_ms[n - n / 4..]) - mean(&self.late_ms[..n / 4])
    }

    pub fn p50(&self) -> f64 {
        quantile(&self.latency_ms, 0.5)
    }

    pub fn p99(&self) -> f64 {
        quantile(&self.latency_ms, 0.99)
    }
}

/// Drives `events` into `core` in `batch`-event calls at `rate` events
/// per second. After each call the generator calls `between(index)`,
/// which may make further calls on the service; its time counts toward
/// the next batch.
pub fn open_loop(
    core: &mut ServiceCore,
    events: &[LiveEvent],
    batch: usize,
    rate: f64,
    mut between: impl FnMut(&mut ServiceCore, usize) -> Result<(), ServiceError>,
) -> Result<OpenLoop, ServiceError> {
    let interval = batch as f64 / rate;
    let mut out = OpenLoop::default();
    let start = Instant::now() + Duration::from_millis(1);
    for (i, chunk) in events.chunks(batch).enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 * interval);
        wait_until(due);
        let sent = Instant::now();
        core.ingest_all(chunk)?;
        let done = Instant::now();
        out.latency_ms
            .push(done.duration_since(due).as_secs_f64() * 1e3);
        out.late_ms
            .push(sent.duration_since(due).as_secs_f64() * 1e3);
        between(core, i)?;
    }
    core.flush()?;
    Ok(out)
}

/// Spins until `due`. The generator shares its thread with the service,
/// which applies inline, so spinning takes no core from it; a sleep would
/// add the host's wake-up delay, tens to hundreds of microseconds on a
/// shared host, to the latency of the batch.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}
