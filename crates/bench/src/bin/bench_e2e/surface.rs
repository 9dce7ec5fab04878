//! The single file through which every call into the gamescope crates goes.
//!
//! After a refactor of the library (one execution path, a smaller
//! `cgc-obs`, a streaming merge), re-pointing the benchmark is an edit to
//! this file alone: the other modules use only the names defined or
//! re-exported here, and library outputs are converted to the benchmark's
//! own plain structs before they leave this file.
//!
//! # Pinned API
//!
//! * `cgc_deploy`: `train_bundle`, `TrainConfig::quick`,
//!   `fleet::{run_tap_feed_replay, TapReplayOptions, TapReplayRun}`
//! * `cgc_ingest`: `merge_sources`, `MergeSource::{new, with_offset}`,
//!   `MergeConfig`, `MergeStats`, `replay`, `ReplayConfig`, `ReplayStats`,
//!   `IngestEngine::{start, producer, metrics, shutdown}`, `IngestConfig`,
//!   `IngestProducer::push_record`, `IngestMetrics::{blocked, queue_depth}`, `BatchSink`, `MonitorSink::new`,
//!   `BoundedQueue::{with_capacity, push, try_pop}`,
//!   `BackpressurePolicy::Block`
//! * `cgc_core`: `ModelBundle` (fields `title`, `stage`, `pattern`,
//!   `stage_feature`, `stage_slot`, `thresholds`, `calibration`),
//!   `TapMonitor::{with_registry, set_journal, ingest_batch, finish_idle,
//!   finish_all, stats}`, `MonitorConfig`, `MonitoredSession`,
//!   `ShardedTapMonitor::with_observability`, `ShardedMonitorConfig::
//!   with_shards`, `MonitorStats`, `SessionAnalyzer::{new, with_metrics,
//!   analyze, push_packet, push_slot, finish}`,
//!   `AnalyzerConfig`, `QoeInputs`, `PipelineMetrics::register`,
//!   `SessionReport`, `TitleClassifier::{classify_scored,
//!   classify_features, attr_config}`, `StageClassifier::classify`,
//!   `PatternTracker::{new, push}`, `qoe::{objective_qoe, effective_qoe,
//!   stage_fps_factor, QosMetrics, GameContext}`
//! * `cgc_features`: `launch_attributes`, `StageFeatureExtractor::{new,
//!   push}`, `vol_attrs::raw_features`
//! * `cgc_obs`: `Registry::{new, snapshot}`, `Snapshot::{counter,
//!   histogram}`, `Journal::{new, drain, tail, into_timelines}`,
//!   `JournalConfig`, `EventSink`, `EventKind::{StageEntered,
//!   TitleDecided}`, `TraceSink::disabled`
//! * `cgc_lifecycle`: `LiveModel::new`
//! * `gamesim`: `SessionGenerator::{new, generate}`, `SessionConfig`,
//!   `Fidelity`, `TitleKind`, `Session` (fields), `StageTimeline::stage_at`,
//!   `dataset::sample_lab_settings`
//! * `cgc_domain`: `CATALOG`, `GameTitle`, `Stage`, `ActivityPattern`,
//!   `StreamSettings`
//! * `nettrace`: `FiveTuple`, `Packet`, `Direction`, `Micros`, `VolSeries`,
//!   `VolSeries::rebin`, `VolSample`, `Protocol`, `Clock`, `RealClock`,
//!   `VirtualClock`, `shift_micros`

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cgc_core::monitor::MonitoredSession;
use cgc_core::qoe::{effective_qoe, objective_qoe, stage_fps_factor, GameContext, QosMetrics};
use cgc_core::{
    AnalyzerConfig, MonitorConfig, PatternTracker, PipelineMetrics, QoeInputs, SessionAnalyzer,
    SessionReport, ShardedMonitorConfig, ShardedTapMonitor, TapMonitor,
};
use cgc_deploy::fleet::{run_tap_feed_replay, TapReplayOptions};
use cgc_features::vol_attrs::raw_features;
use cgc_features::{launch_attributes, StageFeatureExtractor};
use cgc_ingest::{
    merge_sources, replay, BackpressurePolicy, BatchSink, BoundedQueue, IngestConfig, IngestEngine,
    IngestMetrics, IngestProducer, MergeConfig, MonitorSink, ReplayConfig,
};
use cgc_obs::{EventKind, Journal, JournalConfig, Registry, Snapshot, TraceSink};
use nettrace::{Clock, RealClock, VirtualClock};

pub use cgc_core::shard::TapRecord;
pub use cgc_core::ModelBundle;
pub use cgc_domain::{ActivityPattern, GameTitle, Stage, StreamSettings, CATALOG};
pub use cgc_ingest::MergeSource;
pub use gamesim::dataset::sample_lab_settings;
pub use gamesim::{Fidelity, SessionConfig, SessionGenerator, StageTimeline, TitleKind};
pub use nettrace::{Direction, FiveTuple, Micros, Packet, Protocol, VolSample, VolSeries};

/// Worker shards and ingest queues of the system under test: the
/// `IngestConfig`/`TapReplayOptions` defaults, fixed regardless of `nproc`
/// so a workload means the same thing on every machine.
pub const SHARDS: usize = 2;

/// Slots per ingest queue of the system under test.
pub fn queue_capacity() -> usize {
    IngestConfig::default().queue_capacity
}

/// Records per `ingest_batch` call of the serial baseline.
const SERIAL_CHUNK: usize = 1024;

/// The model every run serves from: the repository's quick training
/// configuration, which depends on no file and no benchmark seed.
pub fn train_bundle() -> Arc<ModelBundle> {
    Arc::new(cgc_deploy::train_bundle(&cgc_deploy::TrainConfig::quick()))
}

/// One finalized session as the benchmark compares and scores it.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Normalized five-tuple (zeroed for per-session analyzer runs).
    pub flow: FiveTuple,
    pub started_at: Micros,
    pub title: Option<GameTitle>,
    pub stages: Vec<Stage>,
    pub slot_width: Micros,
    /// FNV-1a over the serialised session: tuple, start/last-seen, title,
    /// stage slots, QoE slots, pattern.
    pub digest: u64,
}

/// Shifts a capture timestamp by a signed clock skew, saturating.
pub fn shift(ts: Micros, skew_us: i64) -> Micros {
    nettrace::shift_micros(ts, skew_us)
}

/// FNV-1a, the checksum used for feeds and session digests alike.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn report_digest(seed: u64, r: &SessionReport) -> u64 {
    let text = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}",
        r.title, r.stage_slots, r.qoe_slots, r.pattern, r.final_pattern
    );
    fnv1a(seed, text.as_bytes())
}

fn verdict_of(m: &MonitoredSession) -> Verdict {
    let head = format!("{}|{}|{}", m.tuple, m.started_at, m.last_seen);
    Verdict {
        flow: m.tuple.normalized(),
        started_at: m.started_at,
        title: m.report.title.title,
        digest: report_digest(fnv1a(FNV_OFFSET, head.as_bytes()), &m.report),
        slot_width: m.report.slot_width,
        stages: m.report.stage_slots.clone(),
    }
}

/// The finalized sessions of one run, as the library returned them.
/// Converting them to [`Verdict`]s serialises every session, so callers do
/// it after their stopwatch has stopped.
#[derive(Debug, Default)]
pub struct Sessions(Vec<MonitoredSession>);

impl Sessions {
    pub fn verdicts(&self) -> Vec<Verdict> {
        self.0.iter().map(verdict_of).collect()
    }
}

/// Delivery accounting of one run through the tap path.
#[derive(Debug, Clone, Copy, Default)]
pub struct TapCounts {
    pub enqueued: u64,
    pub handed_off: u64,
    pub dropped: u64,
    pub rejected_closed: u64,
    pub blocked: u64,
    pub ingested: u64,
    pub ignored: u64,
}

/// What the run's private registry and journal say once it is over.
#[derive(Debug, Clone, Default)]
pub struct RunTelemetry {
    /// `cgc_monitor_batch_ns` sum: time the shard workers spent ingesting.
    pub worker_busy_ns: u64,
    pub journal_events: u64,
    pub journal_dropped: u64,
    /// p95 of `cgc_ingest_pacing_lag_us` (0 for an unpaced run).
    pub pacing_lag_p95_us: f64,
}

fn counter(snapshot: &Snapshot, name: &str) -> u64 {
    snapshot.counter(name).unwrap_or(0)
}

fn telemetry_of(snapshot: &Snapshot) -> RunTelemetry {
    RunTelemetry {
        worker_busy_ns: snapshot
            .histogram("cgc_monitor_batch_ns")
            .map_or(0, |h| h.sum),
        journal_events: counter(snapshot, "cgc_journal_events_total"),
        journal_dropped: counter(snapshot, "cgc_journal_dropped_events_total"),
        pacing_lag_p95_us: snapshot
            .histogram("cgc_ingest_pacing_lag_us")
            .and_then(|h| h.quantile(0.95))
            .unwrap_or(0.0),
    }
}

/// One whole `run_tap_feed_replay` call.
#[derive(Debug)]
pub struct LiveRun {
    pub sessions: Sessions,
    pub counts: TapCounts,
}

/// The real threaded tap path, closed loop: all sources, pace 0, virtual
/// clock, default options.
pub fn live_replay(bundle: &Arc<ModelBundle>, sources: Vec<MergeSource>) -> LiveRun {
    let run = run_tap_feed_replay(
        bundle,
        SHARDS,
        sources,
        VirtualClock::new().shared(),
        TapReplayOptions {
            replay: ReplayConfig::as_fast_as_possible(),
            ..Default::default()
        },
    );
    let snapshot = &run.fleet.snapshot;
    LiveRun {
        counts: TapCounts {
            enqueued: run.enqueued,
            handed_off: run.handed_off,
            dropped: run.dropped,
            rejected_closed: 0,
            blocked: counter(snapshot, "cgc_ingest_blocked_total"),
            ingested: counter(snapshot, "cgc_monitor_ingested_packets_total"),
            ignored: counter(snapshot, "cgc_monitor_ignored_packets_total"),
        },
        sessions: Sessions(run.fleet.sessions),
    }
}

/// Which verdict a journal event carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictKind {
    Stage,
    Title,
}

/// What the load generator may touch while `replay` releases records.
pub struct Tap<'a> {
    producer: &'a IngestProducer,
    journal: &'a mut Journal,
    metrics: &'a IngestMetrics,
}

impl Tap<'_> {
    /// Offers one record to the ingest queues.
    pub fn push(&self, record: TapRecord) -> bool {
        self.producer.push_record(record)
    }

    /// Drains the journal and hands every stage or title verdict that
    /// surfaced to `seen(flow, event_ts, kind)`. Returns events drained
    /// and events the journal's bounded tail no longer held.
    pub fn poll_verdicts(
        &mut self,
        mut seen: impl FnMut(u64, Micros, VerdictKind),
    ) -> (usize, usize) {
        let drained = self.journal.drain();
        if drained == 0 {
            return (0, 0);
        }
        let recent = self.journal.tail(drained);
        for e in &recent {
            match e.kind {
                EventKind::StageEntered { .. } => seen(e.flow, e.ts, VerdictKind::Stage),
                EventKind::TitleDecided { .. } => seen(e.flow, e.ts, VerdictKind::Title),
                _ => {}
            }
        }
        (drained, drained - recent.len())
    }

    /// Deepest ingest queue right now, records.
    pub fn queue_depth(&self) -> i64 {
        self.metrics
            .queue_depth
            .iter()
            .map(|g| g.get())
            .max()
            .unwrap_or(0)
    }
}

/// Router-side timings taken by [`TimedSink`].
#[derive(Debug, Default)]
pub struct SinkTimings {
    /// `(start_ns, end_ns)` of every `MonitorSink::on_batch`.
    pub batches: Vec<(u64, u64)>,
    /// `(start_ns, end_ns)` of `MonitorSink::finish`.
    pub finish: (u64, u64),
}

/// The benchmark's `BatchSink` around `MonitorSink`: forwards everything,
/// and when timing is on stamps each call against `epoch`.
struct TimedSink {
    inner: MonitorSink,
    timings: Option<(Instant, SinkTimings)>,
}

impl BatchSink for TimedSink {
    type Output = (<MonitorSink as BatchSink>::Output, Option<SinkTimings>);

    fn on_batch(&mut self, records: &[TapRecord]) {
        match &mut self.timings {
            None => self.inner.on_batch(records),
            Some((epoch, t)) => {
                let start = epoch.elapsed().as_nanos() as u64;
                self.inner.on_batch(records);
                let end = epoch.elapsed().as_nanos() as u64;
                t.batches.push((start, end));
            }
        }
    }

    fn on_tick(&mut self, now: Micros) {
        self.inner.on_tick(now);
    }

    fn finish(self) -> Self::Output {
        match self.timings {
            None => (self.inner.finish(), None),
            Some((epoch, mut t)) => {
                let start = epoch.elapsed().as_nanos() as u64;
                let out = self.inner.finish();
                t.finish = (start, epoch.elapsed().as_nanos() as u64);
                (out, Some(t))
            }
        }
    }
}

/// How the composed path is clocked.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Pace 0 on a virtual clock: closed loop, as [`live_replay`].
    Unpaced,
    /// Open loop on the wall clock at this speed multiplier.
    Real(f64),
}

/// One run of the composed path.
#[derive(Debug)]
pub struct ComposedRun {
    pub sessions: Sessions,
    pub counts: TapCounts,
    pub telemetry: RunTelemetry,
    /// Records each shard worker received.
    pub shard_loads: Vec<u64>,
    /// Replay-clock reading when `replay` started, ns since `epoch`.
    pub origin_ns: u64,
    pub max_lag_us: u64,
    /// `(start_ns, end_ns)` of `merge_sources`, `replay` and `shutdown`.
    pub merge_span: (u64, u64),
    pub replay_span: (u64, u64),
    pub shutdown_span: (u64, u64),
    pub sink: Option<SinkTimings>,
}

/// The wiring of `run_tap_feed_replay`, composed here because that
/// function keeps its journal and producer private: `merge_sources` →
/// `Journal::new` → `ShardedTapMonitor::with_observability` →
/// `MonitorSink::new` → `IngestEngine::start` → `replay` → `shutdown`, all
/// defaults. `on_release` is the load generator's body, run once per
/// released record on the calling thread; every stamp is ns since `epoch`.
/// [`composition_matches`] keeps this from drifting into a replica.
pub fn composed_replay(
    bundle: &Arc<ModelBundle>,
    sources: Vec<MergeSource>,
    pacing: Pacing,
    epoch: Instant,
    time_sink: bool,
    mut on_release: impl FnMut(&mut Tap<'_>, TapRecord),
) -> ComposedRun {
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let (clock, replay_cfg): (Arc<dyn Clock>, ReplayConfig) = match pacing {
        Pacing::Unpaced => (
            VirtualClock::new().shared(),
            ReplayConfig::as_fast_as_possible(),
        ),
        Pacing::Real(pace) => (Arc::new(RealClock::new()), ReplayConfig { pace }),
    };
    // The wall clock starts at zero a moment after `epoch`; this is the
    // offset between the two axes.
    let clock_zero_ns = now_ns().saturating_sub(clock.now() * 1_000);

    let registry = Registry::new();
    let merge_start = now_ns();
    let (feed, _) = merge_sources(sources, &MergeConfig::default(), Some(&registry));
    let merge_span = (merge_start, now_ns());
    let (sink, mut journal) = Journal::new(JournalConfig::default(), &registry);
    let monitor = ShardedTapMonitor::with_observability(
        Arc::clone(bundle),
        ShardedMonitorConfig::with_shards(SHARDS),
        &registry,
        sink,
        TraceSink::disabled(),
    );
    let timed = TimedSink {
        inner: MonitorSink::new(monitor),
        timings: time_sink.then(|| (epoch, SinkTimings::default())),
    };
    let ingest_cfg = IngestConfig {
        clock: Some(Arc::clone(&clock)),
        ..Default::default()
    };
    let engine = IngestEngine::start(timed, ingest_cfg, &registry);
    let producer = engine.producer();
    let metrics = engine.metrics().clone();
    let replay_start = now_ns();
    let origin_ns = clock_zero_ns + clock.now() * 1_000;
    let stats = {
        let mut tap = Tap {
            producer: &producer,
            journal: &mut journal,
            metrics: &metrics,
        };
        replay(
            &feed,
            &*clock,
            &replay_cfg,
            Some(&metrics),
            None,
            |record| on_release(&mut tap, record),
        )
    };
    let replay_span = (replay_start, now_ns());
    drop(producer);
    let run = engine.shutdown();
    let shutdown_span = (replay_span.1, now_ns());
    let ((mut sessions, monitor_stats), sink_timings) = run.output;
    sessions.sort_by_key(|m| m.started_at);
    drop(journal.into_timelines());
    let snapshot = registry.snapshot();
    let totals = monitor_stats.total();
    ComposedRun {
        sessions: Sessions(sessions),
        counts: TapCounts {
            enqueued: run.enqueued,
            handed_off: run.handed_off,
            dropped: run.dropped,
            rejected_closed: run.rejected_closed,
            blocked: metrics.blocked.get(),
            ingested: totals.ingested_packets,
            ignored: totals.ignored_packets,
        },
        telemetry: telemetry_of(&snapshot),
        shard_loads: monitor_stats
            .per_shard
            .iter()
            .map(|s| s.ingested_packets + s.ignored_packets)
            .collect(),
        origin_ns,
        max_lag_us: stats.max_lag_us,
        merge_span,
        replay_span,
        shutdown_span,
        sink: sink_timings,
    }
}

/// The self-check behind every number the composed path produces: on the
/// same sources it must yield the sessions `run_tap_feed_replay` yields,
/// hand off every record it enqueued, and lose none.
pub fn composition_matches(
    bundle: &Arc<ModelBundle>,
    sources: &[MergeSource],
) -> Result<(), String> {
    let reference = live_replay(bundle, sources.to_vec());
    let composed = composed_replay(
        bundle,
        sources.to_vec(),
        Pacing::Unpaced,
        Instant::now(),
        false,
        |tap, record| {
            tap.push(record);
        },
    );
    let digests = |v: &[Verdict]| -> Vec<(FiveTuple, u64)> {
        let mut d: Vec<_> = v.iter().map(|x| (x.flow, x.digest)).collect();
        d.sort_by_key(|(flow, _)| flow.flow_id());
        d
    };
    if digests(&reference.sessions.verdicts()) != digests(&composed.sessions.verdicts()) {
        return Err("composed wiring and run_tap_feed_replay disagree on sessions".into());
    }
    let c = composed.counts;
    if c.enqueued != c.handed_off || c.enqueued != reference.counts.enqueued || c.dropped != 0 {
        return Err(format!(
            "composed wiring lost records: enqueued {} handed_off {} dropped {} (reference enqueued {})",
            c.enqueued, c.handed_off, c.dropped, reference.counts.enqueued
        ));
    }
    Ok(())
}

/// Standalone k-way merge (a pass-through copy with one source).
pub fn merge(sources: Vec<MergeSource>) -> (Vec<TapRecord>, u64) {
    let (feed, stats) = merge_sources(sources, &MergeConfig::default(), None);
    (feed, stats.late_total())
}

/// Variations of the single-thread monitor run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialOptions {
    /// Leave the journal sink disabled (`EventSink::disabled`).
    pub no_journal: bool,
    /// Serve from a `LiveModel` slot instead of the fixed bundle.
    pub live_model: bool,
    /// Expire idle flows after this long, checking after every chunk.
    pub idle_timeout: Option<Micros>,
    /// Give every flow the floor analyzer (see [`analyzer_config`]), so
    /// what is left of the run is the monitor's own per-record work.
    pub floor: bool,
}

/// The default analyzer, or with `floor` the cheapest one the library can
/// be configured into: no title window to buffer and a seed that never
/// completes, so a packet costs one boundary check and one sample update
/// and a slot its QoE labels. A monitor run with it minus the standalone
/// pipeline run with it is the monitor's own cost, and a slot pass with it
/// the pipeline's own cost, each measured without reference to a total.
fn analyzer_config(floor: bool) -> AnalyzerConfig {
    if floor {
        AnalyzerConfig {
            title_window_secs: 0.0,
            seed_slots: usize::MAX,
        }
    } else {
        AnalyzerConfig::default()
    }
}

/// One single-thread monitor run.
#[derive(Debug)]
pub struct SerialRun {
    pub sessions: Sessions,
    pub ingested: u64,
    pub ignored: u64,
    pub expiry_scanned: u64,
    pub journal_events: u64,
    pub journal_dropped: u64,
    /// `StageEntered` and `TitleDecided` events in the run's journal.
    pub stage_events: u64,
    pub title_events: u64,
    /// Nanoseconds spent inside `finish_idle` calls.
    pub finish_idle_ns: u64,
    /// Nanoseconds of `Registry::snapshot` on the run's registry.
    pub snapshot_ns: u64,
}

/// The single-thread baseline of the tap job and its oracle: `TapMonitor`
/// on a private registry with the journal sink attached, fed `merged` in
/// 1024-record chunks, then `finish_all`.
pub fn serial_monitor(
    bundle: &Arc<ModelBundle>,
    merged: &[TapRecord],
    opts: SerialOptions,
) -> SerialRun {
    let registry = Registry::new();
    let (sink, journal) = Journal::new(JournalConfig::default(), &registry);
    let config = MonitorConfig {
        analyzer: analyzer_config(opts.floor),
        idle_timeout: opts
            .idle_timeout
            .unwrap_or(MonitorConfig::default().idle_timeout),
        ..Default::default()
    };
    let live = opts
        .live_model
        .then(|| cgc_lifecycle::LiveModel::new(ModelBundle::clone(bundle)));
    let mut monitor = match &live {
        Some(slot) => TapMonitor::with_registry(slot, config, &registry),
        None => TapMonitor::with_registry(bundle, config, &registry),
    };
    if !opts.no_journal {
        monitor.set_journal(sink);
    }
    let mut sessions = Vec::new();
    let mut finish_idle_ns = 0;
    for chunk in merged.chunks(SERIAL_CHUNK) {
        monitor.ingest_batch(chunk);
        if opts.idle_timeout.is_some() {
            let t = Instant::now();
            sessions.extend(monitor.finish_idle(chunk[chunk.len() - 1].0));
            finish_idle_ns += t.elapsed().as_nanos() as u64;
        }
    }
    sessions.extend(monitor.finish_all());
    let stats = monitor.stats();
    drop(monitor);
    let (mut stage_events, mut title_events) = (0, 0);
    for event in journal.into_timelines().iter().flat_map(|t| &t.events) {
        match event.kind {
            EventKind::StageEntered { .. } => stage_events += 1,
            EventKind::TitleDecided { .. } => title_events += 1,
            _ => {}
        }
    }
    let t = Instant::now();
    let snapshot = registry.snapshot();
    let snapshot_ns = t.elapsed().as_nanos() as u64;
    let telemetry = telemetry_of(&snapshot);
    SerialRun {
        sessions: Sessions(sessions),
        ingested: stats.ingested_packets,
        ignored: stats.ignored_packets,
        expiry_scanned: stats.expiry_entries_scanned,
        journal_events: telemetry.journal_events,
        journal_dropped: telemetry.journal_dropped,
        stage_events,
        title_events,
        finish_idle_ns,
        snapshot_ns,
    }
}

/// One session's report from the per-session path; see [`Sessions`].
#[derive(Debug)]
pub struct Analyzed(SessionReport);

impl Analyzed {
    pub fn verdict(&self) -> Verdict {
        Verdict {
            flow: FiveTuple::udp_v4([0; 4], 0, [0; 4], 0),
            started_at: 0,
            title: self.0.title.title,
            digest: report_digest(FNV_OFFSET, &self.0),
            slot_width: self.0.slot_width,
            stages: self.0.stage_slots.clone(),
        }
    }
}

/// The per-session path, the deployment-scale representation and the
/// retained test oracle: `SessionAnalyzer::new` → `analyze` → `finish`.
pub fn analyze_session(bundle: &ModelBundle, launch: &[Packet], vol: &VolSeries) -> Analyzed {
    let mut analyzer =
        SessionAnalyzer::new(bundle, AnalyzerConfig::default(), QoeInputs::default());
    analyzer.analyze(launch, vol);
    Analyzed(analyzer.finish())
}

// ---------------------------------------------------------------------
// Single-layer calls, each timed from outside by `layers.rs`.
// ---------------------------------------------------------------------

/// `replay` at pace 0 with a deliver callback that does nothing.
pub fn replay_noop(merged: &[TapRecord]) -> u64 {
    let clock = VirtualClock::new();
    let cfg = ReplayConfig::as_fast_as_possible();
    replay(merged, &clock, &cfg, None, None, |r| {
        black_box(r);
    })
    .released
}

/// Single-thread `BoundedQueue` round trip: push then `try_pop` each record.
pub fn queue_roundtrip(records: &[TapRecord]) -> u64 {
    let queue: BoundedQueue<TapRecord> = BoundedQueue::with_capacity(queue_capacity());
    let mut popped = 0;
    for &r in records {
        queue.push(r, BackpressurePolicy::Block);
        popped += u64::from(black_box(queue.try_pop()).is_some());
    }
    popped
}

/// Title-window length of the analyzer, µs.
pub fn title_window_us() -> Micros {
    (AnalyzerConfig::default().title_window_secs * 1e6) as Micros
}

fn private_analyzer<'b>(
    bundle: &'b ModelBundle,
    registry: &Registry,
    floor: bool,
) -> SessionAnalyzer<'b> {
    SessionAnalyzer::with_metrics(
        bundle,
        analyzer_config(floor),
        QoeInputs::default(),
        PipelineMetrics::register(registry),
    )
}

/// `core.pipeline` on packets: one analyzer per flow, `push_packet` for
/// each of its packets (flow-relative time), then `finish`; with `floor`,
/// with the floor analyzer. Returns the slots it closed.
pub fn pipeline_packets(bundle: &ModelBundle, flows: &[Vec<Packet>], floor: bool) -> u64 {
    let registry = Registry::new();
    let mut slots = 0;
    for packets in flows {
        let mut analyzer = private_analyzer(bundle, &registry, floor);
        for p in packets {
            analyzer.push_packet(p);
        }
        slots += analyzer.finish().stage_slots.len() as u64;
    }
    slots
}

/// `nettrace` re-binning as `analyze` does it: each session's volumetric
/// series brought to the bundle's slot width.
pub fn rebin_to_slots(bundle: &ModelBundle, vols: &[&VolSeries]) -> Vec<Vec<VolSample>> {
    vols.iter()
        .map(|v| v.rebin((bundle.stage_slot / v.width) as usize).samples)
        .collect()
}

/// `core.pipeline` on slots: `push_slot` for every one-second sample, then
/// `finish` (no title window). With `floor` the seed never completes, so a
/// slot gets its QoE labels and the pipeline's own bookkeeping but no stage
/// features, forest or pattern. Returns the slots it closed.
pub fn pipeline_slots(bundle: &ModelBundle, series: &[Vec<VolSample>], floor: bool) -> u64 {
    let registry = Registry::new();
    let mut slots = 0;
    for samples in series {
        let mut analyzer = private_analyzer(bundle, &registry, floor);
        for s in samples {
            analyzer.push_slot(s);
        }
        slots += analyzer.finish().stage_slots.len() as u64;
    }
    slots
}

/// `core.title`: `classify_scored` on each title window.
pub fn title_classify(bundle: &ModelBundle, windows: &[Vec<Packet>]) {
    for w in windows {
        black_box(bundle.title.classify_scored(w));
    }
}

/// `features.launch`: `launch_attributes` on each title window.
pub fn launch_rows(bundle: &ModelBundle, windows: &[Vec<Packet>]) -> Vec<Vec<f64>> {
    windows
        .iter()
        .map(|w| launch_attributes(w, bundle.title.attr_config()))
        .collect()
}

/// `mlcore.title_forest`: `classify_features` on each attribute row.
pub fn title_forest(bundle: &ModelBundle, rows: &[Vec<f64>]) {
    for row in rows {
        black_box(bundle.title.classify_features(row));
    }
}

/// Seed slots of the analyzer before stage classification starts.
pub fn seed_slots() -> usize {
    AnalyzerConfig::default().seed_slots
}

/// `features.stage`: a `StageFeatureExtractor` seeded as the analyzer
/// seeds it, `push` for every later slot. Returns the feature rows.
pub fn stage_rows(bundle: &ModelBundle, series: &[Vec<VolSample>]) -> Vec<[f64; 4]> {
    let seed = seed_slots();
    let mut rows = Vec::new();
    for samples in series.iter().filter(|s| s.len() > seed) {
        let mut extractor =
            StageFeatureExtractor::new(&bundle.stage_feature, bundle.stage_slot, &samples[..seed]);
        rows.extend(samples[seed..].iter().map(|s| extractor.push(s)));
    }
    rows
}

/// `mlcore.stage_forest`: `StageClassifier::classify` on each row.
pub fn stage_forest(bundle: &ModelBundle, rows: &[[f64; 4]]) -> Vec<Stage> {
    rows.iter().map(|r| bundle.stage.classify(r)).collect()
}

/// `core.pattern`: one `PatternTracker` per session, `push` per stage.
pub fn pattern_push(bundle: &ModelBundle, sessions: &[Vec<Stage>]) {
    for stages in sessions {
        let mut tracker = PatternTracker::new();
        for &s in stages {
            black_box(tracker.push(s, &bundle.pattern));
        }
    }
}

/// `core.qoe`: `objective_qoe` + `effective_qoe` per slot, with the inputs
/// the analyzer derives them from.
pub fn qoe_labels(bundle: &ModelBundle, samples: &[VolSample], stages: &[Stage]) {
    let qoe = QoeInputs::default();
    let width_secs = bundle.stage_slot as f64 / 1e6;
    for (sample, &stage) in samples.iter().zip(stages) {
        let metrics = QosMetrics {
            throughput_mbps: raw_features(sample, width_secs)[0],
            frame_rate: qoe.nominal_fps * qoe.delivered_fps_ratio * stage_fps_factor(stage),
            latency_ms: qoe.latency_ms,
            loss_rate: qoe.loss_rate,
        };
        let ctx = GameContext {
            title: None,
            pattern: None,
            stage,
            settings_factor: qoe.settings_factor,
            nominal_fps: qoe.nominal_fps,
        };
        black_box(objective_qoe(&metrics, &bundle.thresholds));
        black_box(effective_qoe(
            &metrics,
            &ctx,
            &bundle.calibration,
            &bundle.thresholds,
        ));
    }
}

/// `obs.journal`: emits `per_flow` events for each of `flows` flows, then
/// returns the nanoseconds one `Journal::drain` of all of them took.
pub fn journal_drain_ns(flows: u64, per_flow: u64) -> u64 {
    let registry = Registry::new();
    let (sink, mut journal) = Journal::new(JournalConfig::default(), &registry);
    for i in 0..per_flow {
        for flow in 0..flows {
            sink.emit(flow, i, EventKind::LaunchWindowClosed { packets: 1 });
        }
    }
    let t = Instant::now();
    black_box(journal.drain());
    t.elapsed().as_nanos() as u64
}
