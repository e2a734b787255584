//! Per-layer tracing from outside the program: timing wrappers around the
//! public `Executor`, `Strategy` and `EventSink` traits, and the table of
//! per-layer metrics a traced run prints.
//!
//! The wrappers forward every call unchanged (results, fingerprints and
//! sessions are the wrapped object's own), so a traced campaign produces
//! the same records as an untraced one; they only add clock reads and
//! atomic adds, whose cost the traced run reports as `trace.overhead_pct`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lfi_campaign::{
    CampaignEvent, CampaignHistory, CampaignReport, DepthOracle, EventSink, Execution, Executor,
    FaultSpace, OutcomeKind, PrefetchKey, RunRecord, Session, Strategy, Telemetry, WorkUnit,
};

/// Every per-layer metric a traced run prints, with its unit. Values are
/// per campaign (per pass on `sweep`), averaged over the traced rounds;
/// a layer the workload never reaches reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cc.compile_s", "s"),
    ("profiler.profile_s", "s"),
    ("analyzer.space_s", "s"),
    ("analyzer.points", "count"),
    ("analyzer.pruned", "count"),
    ("core.reachability_s", "s"),
    ("core.prepare_s", "s"),
    ("core.prepare_calls", "count"),
    ("campaign.fork_s", "s"),
    ("campaign.fork_units", "count"),
    ("campaign.tree.prefetch_s", "s"),
    ("campaign.tree.fork_hits", "count"),
    ("campaign.tree.fork_misses", "count"),
    ("campaign.tree.nodes_materialized", "count"),
    ("campaign.tree.nodes_evicted", "count"),
    ("campaign.tree.deepen_waited", "count"),
    ("campaign.tree.resident_bytes_hw", "bytes"),
    ("campaign.fresh_s", "s"),
    ("campaign.fresh_units", "count"),
    ("targets.bft_s", "s"),
    ("targets.bft_hung_s", "s"),
    ("vm.cluster_ns_per_tick", "ns"),
    ("vm.single_ns_per_tick", "ns"),
    ("vm.guest_mticks", "Mtick"),
    ("campaign.engine.self_s", "s"),
    ("campaign.events", "count"),
    ("campaign.events.sink_s", "s"),
    ("campaign.events.bytes", "bytes"),
    ("campaign.triage_s", "s"),
    ("campaign.strategy.plan_s", "s"),
    ("campaign.strategy.batches", "count"),
    ("campaign.checkpoint_s", "s"),
    ("campaign.checkpoint_writes", "count"),
    ("campaign.checkpoint_bytes", "bytes"),
    ("supervisor.leases_issued", "count"),
    ("supervisor.leases_stolen", "count"),
    ("supervisor.max_lease_s", "s"),
    ("supervisor.idle_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// One traced round's per-layer values, keyed by [`PER_LAYER`] name.
pub type LayerValues = BTreeMap<&'static str, f64>;

fn nanos(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// Per-unit execution cost, split the way the layer table reads it.
/// Every field is a statistic (`Relaxed` adds that publish nothing else).
#[derive(Default)]
pub struct UnitCosts {
    fork_ns: AtomicU64,
    fork_units: AtomicU64,
    fresh_ns: AtomicU64,
    fresh_units: AtomicU64,
    bft_ns: AtomicU64,
    bft_hung_ns: AtomicU64,
    cluster_ticks: AtomicU64,
    single_ns: AtomicU64,
    single_ticks: AtomicU64,
}

impl UnitCosts {
    /// Account one unit that took `ns` of host time.
    pub fn record(
        &self,
        target: &str,
        forked: bool,
        ns: u64,
        execution_outcome: &OutcomeKind,
        ticks: u64,
    ) {
        let (time, count) = if forked {
            (&self.fork_ns, &self.fork_units)
        } else {
            (&self.fresh_ns, &self.fresh_units)
        };
        time.fetch_add(ns, Ordering::Relaxed);
        count.fetch_add(1, Ordering::Relaxed);
        if target == "bft-lite" {
            self.bft_ns.fetch_add(ns, Ordering::Relaxed);
            self.cluster_ticks.fetch_add(ticks, Ordering::Relaxed);
            if *execution_outcome == OutcomeKind::Hung {
                self.bft_hung_ns.fetch_add(ns, Ordering::Relaxed);
            }
        } else {
            self.single_ns.fetch_add(ns, Ordering::Relaxed);
            self.single_ticks.fetch_add(ticks, Ordering::Relaxed);
        }
    }

    /// Account a unit from its finished record (supervised runs, where the
    /// worker measured `duration_micros`). Cluster units run fresh; every
    /// other unit forks under the snapshot backend.
    pub fn record_finished(&self, record: &RunRecord, duration_micros: u64) {
        let forked = record.target != "bft-lite";
        self.record(
            &record.target,
            forked,
            duration_micros.saturating_mul(1000),
            &record.outcome,
            record.virtual_time,
        );
    }

    /// Total host time of all units.
    pub fn unit_s(&self) -> f64 {
        (self.fork_ns.load(Ordering::Relaxed) + self.fresh_ns.load(Ordering::Relaxed)) as f64 / 1e9
    }

    /// Insert the unit-cost layer values.
    pub fn fill(&self, values: &mut LayerValues) {
        let secs = |v: &AtomicU64| v.load(Ordering::Relaxed) as f64 / 1e9;
        let count = |v: &AtomicU64| v.load(Ordering::Relaxed) as f64;
        let per_tick = |ns: &AtomicU64, ticks: &AtomicU64| {
            let ticks = ticks.load(Ordering::Relaxed);
            if ticks == 0 {
                0.0
            } else {
                ns.load(Ordering::Relaxed) as f64 / ticks as f64
            }
        };
        values.insert("campaign.fork_s", secs(&self.fork_ns));
        values.insert("campaign.fork_units", count(&self.fork_units));
        values.insert("campaign.fresh_s", secs(&self.fresh_ns));
        values.insert("campaign.fresh_units", count(&self.fresh_units));
        values.insert("targets.bft_s", secs(&self.bft_ns));
        values.insert("targets.bft_hung_s", secs(&self.bft_hung_ns));
        values.insert(
            "vm.cluster_ns_per_tick",
            per_tick(&self.bft_ns, &self.cluster_ticks),
        );
        values.insert(
            "vm.single_ns_per_tick",
            per_tick(&self.single_ns, &self.single_ticks),
        );
    }
}

/// Wall time during which at least one executor call was in flight on
/// any worker thread (the union of the call intervals).
#[derive(Default)]
struct Busy {
    active: usize,
    since: Option<Instant>,
    covered: Duration,
}

/// Accumulated layer timings of one traced campaign.
#[derive(Default)]
pub struct Layers {
    pub units: UnitCosts,
    prepare_ns: AtomicU64,
    prepare_calls: AtomicU64,
    prefetch_ns: AtomicU64,
    plan_ns: AtomicU64,
    sink_ns: AtomicU64,
    events: AtomicU64,
    event_bytes: AtomicU64,
    checkpoint_bytes: AtomicU64,
    busy: Mutex<Busy>,
}

impl Layers {
    fn enter(&self) -> Instant {
        let mut busy = self.busy.lock().expect("busy lock poisoned");
        busy.active += 1;
        let now = Instant::now();
        if busy.active == 1 {
            busy.since = Some(now);
        }
        now
    }

    fn leave(&self, started: Instant) -> u64 {
        let mut busy = self.busy.lock().expect("busy lock poisoned");
        let now = Instant::now();
        busy.active -= 1;
        if busy.active == 0 {
            let since = busy.since.take().expect("an active interval has a start");
            busy.covered += now - since;
        }
        nanos(now - started)
    }

    /// Per-layer values of the finished campaign, given its wall time and
    /// report (whose telemetry snapshot carries the tree counters and the
    /// engine's triage and checkpoint spans).
    pub fn values(&self, campaign_s: f64, report: &CampaignReport) -> LayerValues {
        let mut values = LayerValues::new();
        let secs = |v: &AtomicU64| v.load(Ordering::Relaxed) as f64 / 1e9;
        let count = |v: &AtomicU64| v.load(Ordering::Relaxed) as f64;
        self.units.fill(&mut values);
        values.insert("core.prepare_s", secs(&self.prepare_ns));
        values.insert("core.prepare_calls", count(&self.prepare_calls));
        values.insert("campaign.tree.prefetch_s", secs(&self.prefetch_ns));
        values.insert("campaign.strategy.plan_s", secs(&self.plan_ns));
        values.insert("campaign.strategy.batches", report.batches as f64);
        values.insert("campaign.events", count(&self.events));
        values.insert("campaign.events.sink_s", secs(&self.sink_ns));
        values.insert("campaign.events.bytes", count(&self.event_bytes));
        values.insert("campaign.checkpoint_bytes", count(&self.checkpoint_bytes));
        let covered = self.busy.lock().expect("busy lock poisoned").covered;
        values.insert(
            "campaign.engine.self_s",
            (campaign_s - covered.as_secs_f64()).max(0.0),
        );
        fill_from_report(&mut values, report);
        values
    }
}

/// The layer values the program's own telemetry snapshot and records
/// already carry.
pub fn fill_from_report(values: &mut LayerValues, report: &CampaignReport) {
    let ticks: u64 = report.records.iter().map(|r| r.virtual_time).sum();
    values.insert("vm.guest_mticks", ticks as f64 / 1e6);
    let Some(metrics) = &report.metrics else {
        return;
    };
    let counter = |name: &str| metrics.counter(name) as f64;
    let span_s = |name: &str| metrics.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e6);
    values.insert("campaign.tree.fork_hits", counter("tree_fork_hits"));
    values.insert("campaign.tree.fork_misses", counter("tree_fork_misses"));
    values.insert(
        "campaign.tree.nodes_materialized",
        counter("tree_nodes_materialized"),
    );
    values.insert("campaign.tree.nodes_evicted", counter("tree_nodes_evicted"));
    values.insert("campaign.tree.deepen_waited", counter("tree_deepen_waited"));
    values.insert(
        "campaign.tree.resident_bytes_hw",
        metrics.gauge("snapshot_resident_bytes_hw") as f64,
    );
    values.insert("campaign.triage_s", span_s("triage_micros"));
    values.insert("campaign.checkpoint_s", span_s("checkpoint_write_micros"));
    values.insert(
        "campaign.checkpoint_writes",
        metrics
            .histogram("checkpoint_write_micros")
            .map_or(0.0, |h| h.count as f64),
    );
}

/// An [`Executor`] that times every call into the wrapped one.
pub struct TracedExecutor<'a> {
    pub inner: &'a dyn Executor,
    pub layers: &'a Layers,
}

impl Executor for TracedExecutor<'_> {
    fn workloads(&self, target: &str) -> Vec<Vec<String>> {
        self.inner.workloads(target)
    }

    fn prepare(&self, target: &str, args: &[String]) -> Option<Session> {
        let started = self.layers.enter();
        let session = self.inner.prepare(target, args);
        let ns = self.layers.leave(started);
        self.layers.prepare_ns.fetch_add(ns, Ordering::Relaxed);
        self.layers.prepare_calls.fetch_add(1, Ordering::Relaxed);
        session
    }

    fn execute_from(&self, session: &Session, unit: &WorkUnit) -> Execution {
        let started = self.layers.enter();
        let execution = self.inner.execute_from(session, unit);
        let ns = self.layers.leave(started);
        let target = &unit.point.target;
        self.layers
            .units
            .record(target, true, ns, &execution.outcome, execution.virtual_time);
        execution
    }

    fn prefetch_batch(&self, units: &[PrefetchKey], jobs: usize) {
        let started = self.layers.enter();
        self.inner.prefetch_batch(units, jobs);
        let ns = self.layers.leave(started);
        self.layers.prefetch_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn first_call_depth(&self, target: &str, args: &[String], function: &str) -> Option<usize> {
        self.inner.first_call_depth(target, args, function)
    }

    fn set_snapshot_budget(&self, bytes: u64) {
        self.inner.set_snapshot_budget(bytes)
    }

    fn snapshot_bytes(&self) -> u64 {
        self.inner.snapshot_bytes()
    }

    fn telemetry(&self) -> Telemetry {
        self.inner.telemetry()
    }

    fn execute(&self, unit: &WorkUnit) -> Execution {
        let started = self.layers.enter();
        let execution = self.inner.execute(unit);
        let ns = self.layers.leave(started);
        let target = &unit.point.target;
        self.layers.units.record(
            target,
            false,
            ns,
            &execution.outcome,
            execution.virtual_time,
        );
        execution
    }
}

/// A [`Strategy`] that times batch planning and ordering.
pub struct TracedStrategy<'a> {
    pub inner: Box<dyn Strategy + 'a>,
    pub layers: &'a Layers,
}

impl Strategy for TracedStrategy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fingerprint(&self) -> String {
        self.inner.fingerprint()
    }

    fn next_batch(&self, space: &FaultSpace, history: &CampaignHistory) -> Vec<usize> {
        let started = Instant::now();
        let batch = self.inner.next_batch(space, history);
        let ns = nanos(started.elapsed());
        self.layers.plan_ns.fetch_add(ns, Ordering::Relaxed);
        batch
    }

    fn order_units(&self, units: &mut [&WorkUnit], depths: &dyn DepthOracle) {
        let started = Instant::now();
        self.inner.order_units(units, depths);
        let ns = nanos(started.elapsed());
        self.layers.plan_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

/// An [`EventSink`] that counts events, their wire bytes and checkpoint
/// bytes, and times the wrapped sink.
pub struct TracedSink<'a> {
    pub inner: &'a dyn EventSink,
    pub layers: &'a Layers,
}

impl EventSink for TracedSink<'_> {
    fn event(&self, event: &CampaignEvent) {
        let layers = self.layers;
        let started = Instant::now();
        self.inner.event(event);
        let ns = nanos(started.elapsed());
        layers.sink_ns.fetch_add(ns, Ordering::Relaxed);
        layers.events.fetch_add(1, Ordering::Relaxed);
        let bytes = event.to_json_line().len() as u64 + 1;
        layers.event_bytes.fetch_add(bytes, Ordering::Relaxed);
        if let CampaignEvent::CheckpointWritten { path, .. } = event {
            let written = std::fs::metadata(path).map_or(0, |m| m.len());
            layers
                .checkpoint_bytes
                .fetch_add(written, Ordering::Relaxed);
        }
    }
}
