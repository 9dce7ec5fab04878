//! The tap driver: many subscribers' sessions interleaved on one
//! simulated ISP link and demultiplexed by the sharded tap front end.
//!
//! [`drive_tap_feed`] is the one place the live path is wired —
//! `KWayMerge → replay() → IngestEngine → MonitorSink →
//! ShardedTapMonitor → shutdown → sort by start`. Its callers differ only
//! in whose registry and sinks the run records into:
//! [`run_tap_feed_replay`] makes them private to the run and hands the
//! timelines back, `gamescope fleet --replay` passes the global registry
//! and the sinks its flags built. [`run_tap_fleet`] feeds the monitor in
//! a plain loop with no queues and stays as their byte-identity oracle.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use cgc_core::shard::TapRecord;
use cgc_core::{
    ModelBundle, MonitoredSession, Obs, ShardedMonitorConfig, ShardedTapMonitor, SharedModels,
};
use cgc_ingest::{
    IngestConfig, IngestEngine, KWayMerge, MergeConfig, MergeSource, MergeStats, MonitorSink,
    ReplayConfig, ReplayStats,
};
use cgc_obs::{
    FlowTimeline, Journal, JournalConfig, Registry, Snapshot, TraceCollector, TraceConfig,
    TraceStage, TraceTimeline,
};
use gamesim::{Fidelity, SessionGenerator};
use nettrace::clock::SharedClock;
use nettrace::packet::Direction;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::population::{self, TitleMix};

/// Tap-fleet configuration: many subscribers' sessions interleaved on one
/// simulated ISP link, demultiplexed by the sharded tap front end.
#[derive(Debug, Clone, Copy)]
pub struct TapFleetConfig {
    /// Number of concurrent subscriber sessions on the tap.
    pub n_sessions: usize,
    /// Master seed.
    pub seed: u64,
    /// Gameplay seconds per session.
    pub gameplay_secs: f64,
    /// Session starts are staggered by this many microseconds.
    pub stagger: u64,
    /// Worker shards of the front end.
    pub shards: usize,
}

impl Default for TapFleetConfig {
    fn default() -> Self {
        TapFleetConfig {
            n_sessions: 8,
            seed: 20241201,
            gameplay_secs: 30.0,
            stagger: 2_000_000,
            shards: 4,
        }
    }
}

/// Everything a tap-fleet run produced: session reports, the metrics
/// snapshot of the run's private registry, and the flight-recorder
/// decision timelines (one per flow, admission order).
#[derive(Debug)]
pub struct TapFleetRun {
    /// Per-session reports, sorted by flow start.
    pub sessions: Vec<MonitoredSession>,
    /// Final metrics snapshot of the run's private registry
    /// (`cgc_monitor_*`, `cgc_shard_*`, `cgc_pipeline_*`, `cgc_qoe_*`,
    /// `cgc_journal_*` series).
    pub snapshot: Snapshot,
    /// Per-flow decision timelines from the run's journal.
    pub timelines: Vec<FlowTimeline>,
}

/// Builds the interleaved tap feed [`run_tap_fleet`] analyzes:
/// `n_sessions` popularity-sampled sessions staggered on one link, each
/// packet as a `(ts, wire_tuple, payload_len)` tap record, sorted by
/// timestamp. Deterministic in `cfg` — the replay and offline paths call
/// this with the same config to analyze the *same* traffic.
pub fn build_tap_feed(cfg: &TapFleetConfig) -> Vec<TapRecord> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7a9_0000);
    let mix = TitleMix::default();
    let mut generator = SessionGenerator::new();
    let mut feed: Vec<TapRecord> = Vec::new();
    for i in 0..cfg.n_sessions as u64 {
        let subscriber = population::sample_subscriber(&mut rng, &mix);
        let session = generator.generate(&population::session_config(
            cfg.seed,
            i,
            subscriber,
            cfg.gameplay_secs,
            Fidelity::FullPackets,
        ));
        let offset = i * cfg.stagger;
        for p in &session.packets {
            let tuple = match p.dir {
                Direction::Downstream => session.tuple,
                Direction::Upstream => session.tuple.reversed(),
            };
            feed.push((p.ts + offset, tuple, p.payload_len));
        }
    }
    feed.sort_by_key(|(ts, _, _)| *ts);
    feed
}

/// A registry-private journal sink riding on registry-private metrics —
/// what both library entry points record into.
fn private_obs(registry: &Registry) -> (Obs, Journal) {
    let (journal_sink, journal) = Journal::new(JournalConfig::default(), registry);
    let obs = Obs {
        journal: journal_sink,
        ..Obs::on(registry)
    };
    (obs, journal)
}

/// Interleaves `n_sessions` popularity-sampled sessions on one tap and runs
/// the feed through a [`ShardedTapMonitor`] in a plain loop — no merge, no
/// queues, no pacing — returning a [`TapFleetRun`]: per-session reports
/// (sorted by flow start), a metrics snapshot, and per-flow decision
/// timelines, all from a registry + journal private to this run. The
/// byte-identity oracle of the live path ([`run_tap_feed_replay`]).
pub fn run_tap_fleet(bundle: &Arc<ModelBundle>, cfg: &TapFleetConfig) -> TapFleetRun {
    let feed = build_tap_feed(cfg);

    // A private registry + journal so concurrent runs (tests, notably)
    // can make exact assertions against their own counters and timelines.
    let registry = Registry::new();
    let (obs, journal) = private_obs(&registry);
    let mut monitor = ShardedTapMonitor::with_obs(
        Arc::clone(bundle),
        ShardedMonitorConfig::with_shards(cfg.shards),
        &registry,
        obs,
    );
    for (ts, tuple, len) in &feed {
        monitor.ingest(*ts, tuple, *len);
    }
    let (mut sessions, _stats) = monitor.finish_all();
    sessions.sort_by_key(|m| m.started_at);
    TapFleetRun {
        sessions,
        snapshot: registry.snapshot(),
        timelines: journal.into_timelines(),
    }
}

/// Knobs of a paced tap-fleet replay beyond the feed itself.
#[derive(Debug, Clone, Default)]
pub struct TapReplayOptions {
    /// Pacing of the recorded timeline (default: real time, `pace = 1.0`).
    pub replay: ReplayConfig,
    /// Queue sizing and backpressure policy (the engine clock and trace
    /// fields are overwritten with the replay clock and the run's sink).
    pub ingest: IngestConfig,
    /// K-way merge tolerance and lookahead when replaying several input
    /// feeds at once (ignored with a single source, where the merge is
    /// a pass-through).
    pub merge: MergeConfig,
    /// Expire idle flows every this many µs of replay-clock time; `None`
    /// (the default) finalizes everything at shutdown instead, keeping
    /// the run byte-identical to the offline batch path.
    pub idle_check: Option<u64>,
    /// Span tracing for a [`run_tap_feed_replay`]: `Some(config)` installs
    /// a [`TraceCollector`] on the run's private registry and threads its
    /// sink through replay → merge → queues → router → shards → pipeline,
    /// so [`TapReplayRun::traces`] comes back with one causal timeline per
    /// sampled flow. `None` (the default) keeps every stage's hot path
    /// span-free. [`drive_tap_feed`] does not read this: it records spans
    /// into the `Obs` it is handed.
    pub trace: Option<TraceConfig>,
    /// Cooperative cancellation flag (a Ctrl-C handler sets it); the
    /// replay stops between records and the engine drains gracefully.
    pub cancel: Option<Arc<AtomicBool>>,
}

/// What one pass of the tap driver produced: the session verdicts and
/// the replay, merge and queue accounting. Metrics, journal events and
/// spans went to the registry and [`Obs`] the caller handed in.
#[derive(Debug)]
pub struct TapDrive {
    /// Per-session reports, sorted by flow start.
    pub sessions: Vec<MonitoredSession>,
    /// What the pacing engine released (and whether it was cancelled).
    pub replay: ReplayStats,
    /// Per-source merge accounting — see [`TapReplayRun::merge`].
    pub merge: MergeStats,
    /// Records admitted into the ingest queues.
    pub enqueued: u64,
    /// Records handed from the queues to the monitor.
    pub handed_off: u64,
    /// Records lost to backpressure (zero under the `block` policy).
    pub dropped: u64,
}

/// The live tap path, wired once: `sources` — independently captured tap
/// feeds, each with its own label and clock-skew offset — are fused by
/// the k-way merge ([`cgc_ingest::merge`]) into one globally time-ordered
/// stream, and the replay drives that merge record by record against
/// `clock` at the recorded timestamps (scaled by `opts.replay.pace`) into
/// bounded ingest queues with backpressure, which the engine's router
/// drains into a `shards`-way [`ShardedTapMonitor`]. The fused feed is
/// never materialised, and merging overlaps the router and the shard
/// workers. Shutdown is graceful — producers quiesce, queues drain dry,
/// and every still-open flow gets its final session verdict.
///
/// Every metric family of the run (`cgc_ingest_*`, `cgc_monitor_*`,
/// `cgc_shard_*`, `cgc_pipeline_*`, per-source
/// `cgc_ingest_merge_records_total{source=…}` /
/// `cgc_ingest_merge_late_total{source=…}`) registers on `registry`;
/// journal events, spans (the Merge and Ingest stages are stamped here,
/// per record, at release time) and drift scores go to `obs`'s sinks.
///
/// With a [`VirtualClock`](nettrace::VirtualClock) this completes
/// instantly and deterministically; with a real clock it takes
/// `capture_duration / pace` of wall time. After a cancelled replay
/// `merge` counts what the merge had released by then (the records
/// delivered plus the one in hand when the flag was seen), not the whole
/// feed.
pub fn drive_tap_feed(
    models: impl Into<SharedModels>,
    shards: usize,
    sources: Vec<MergeSource>,
    clock: SharedClock,
    opts: &TapReplayOptions,
    registry: &Registry,
    obs: Obs,
) -> TapDrive {
    let trace_sink = obs.trace.clone();
    let mut merge = KWayMerge::new(sources, opts.merge, Some(registry));
    let monitor = ShardedTapMonitor::with_obs(
        models,
        ShardedMonitorConfig::with_shards(shards),
        registry,
        obs,
    );
    let monitor_sink = match opts.idle_check {
        Some(every) => MonitorSink::with_idle_checks(monitor, every),
        None => MonitorSink::new(monitor),
    };
    let ingest_cfg = IngestConfig {
        clock: Some(Arc::clone(&clock)),
        trace: trace_sink.clone(),
        ..opts.ingest.clone()
    };
    let engine = IngestEngine::start(monitor_sink, ingest_cfg, registry);
    let producer = engine.producer();
    let metrics = engine.metrics().clone();
    let replay = cgc_ingest::replay(
        merge.by_ref(),
        &*clock,
        &opts.replay,
        Some(&metrics),
        opts.cancel.as_deref(),
        |record| {
            if trace_sink.is_enabled() {
                // The replay pulls each record out of the merge right
                // before releasing it, so one stamp here serves both the
                // Merge and the Ingest span.
                let flow = record.1.flow_id();
                trace_sink.record(flow, 0, TraceStage::Merge, record.0, 0);
                trace_sink.record(flow, 0, TraceStage::Ingest, record.0, 0);
            }
            producer.push_record(record);
        },
    );
    drop(producer);
    let run = engine.shutdown();
    let (mut sessions, _stats) = run.output;
    sessions.sort_by_key(|m| m.started_at);
    TapDrive {
        sessions,
        replay,
        merge: merge.stats(),
        enqueued: run.enqueued,
        handed_off: run.handed_off,
        dropped: run.dropped,
    }
}

/// A [`TapFleetRun`] produced through the live ingestion path, plus the
/// replay, merge and queue accounting of the run.
#[derive(Debug)]
pub struct TapReplayRun {
    /// The session reports, metrics snapshot and decision timelines —
    /// same shape as the offline [`run_tap_fleet`] output.
    pub fleet: TapFleetRun,
    /// What the pacing engine released (and whether it was cancelled).
    pub replay: ReplayStats,
    /// Per-source merge accounting: how many records each input feed
    /// contributed and how many arrived beyond the reordering tolerance
    /// (still delivered). A single-feed replay shows one source with
    /// zero late. The merge is streamed, so a cancelled replay reports
    /// what had been merged when it stopped, not the whole feed.
    pub merge: MergeStats,
    /// Records admitted into the ingest queues.
    pub enqueued: u64,
    /// Records handed from the queues to the monitor.
    pub handed_off: u64,
    /// Records lost to backpressure (zero under the `block` policy).
    pub dropped: u64,
    /// Per-flow span timelines, populated when
    /// [`TapReplayOptions::trace`] was set (empty otherwise): the full
    /// ingest → merge → queue → router → shard → slot → classifier →
    /// verdict causal chain of every sampled flow.
    pub traces: Vec<TraceTimeline>,
}

/// [`drive_tap_feed`] on a registry, journal and (per `opts.trace`) span
/// collector private to the run, handed back as the snapshot, the
/// decision timelines and the span timelines of a [`TapReplayRun`] — the
/// live-path counterpart of [`run_tap_fleet`], and the call the
/// repository's benchmark times as `live_records_per_s`.
pub fn run_tap_feed_replay(
    bundle: &Arc<ModelBundle>,
    shards: usize,
    sources: Vec<MergeSource>,
    clock: SharedClock,
    opts: TapReplayOptions,
) -> TapReplayRun {
    let registry = Registry::new();
    let (mut obs, journal) = private_obs(&registry);
    let trace_collector = opts.trace.map(|config| {
        let (sink, collector) = TraceCollector::new(config, &registry);
        obs.trace = sink;
        collector
    });
    let drive = drive_tap_feed(
        Arc::clone(bundle),
        shards,
        sources,
        clock,
        &opts,
        &registry,
        obs,
    );
    let traces = trace_collector
        .map(|mut collector| {
            collector.drain();
            collector.into_timelines()
        })
        .unwrap_or_default();
    TapReplayRun {
        fleet: TapFleetRun {
            sessions: drive.sessions,
            snapshot: registry.snapshot(),
            timelines: journal.into_timelines(),
        },
        replay: drive.replay,
        merge: drive.merge,
        enqueued: drive.enqueued,
        handed_off: drive.handed_off,
        dropped: drive.dropped,
        traces,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::quick_bundle;
    use cgc_obs::event::{CloseCause, EventKind};
    use nettrace::{FiveTuple, VirtualClock};

    fn timeline_for<'a>(run: &'a TapFleetRun, tuple: &FiveTuple) -> Option<&'a FlowTimeline> {
        let id = tuple.flow_id();
        run.timelines.iter().find(|t| t.flow == id)
    }

    fn replay_whole_feed(cfg: &TapFleetConfig, opts: TapReplayOptions) -> TapReplayRun {
        run_tap_feed_replay(
            &quick_bundle(),
            cfg.shards,
            vec![MergeSource::new("feed", build_tap_feed(cfg))],
            VirtualClock::new().shared(),
            opts,
        )
    }

    #[test]
    fn tap_fleet_demultiplexes_every_session() {
        let cfg = TapFleetConfig {
            n_sessions: 6,
            gameplay_secs: 15.0,
            shards: 3,
            ..Default::default()
        };
        let run = run_tap_fleet(&quick_bundle(), &cfg);
        let (sessions, snapshot) = (&run.sessions, &run.snapshot);
        assert_eq!(sessions.len(), 6);
        assert!(sessions.iter().all(|m| m.confirmed));
        assert_eq!(
            snapshot.counter("cgc_monitor_finalized_flows_total"),
            Some(6)
        );
        assert_eq!(
            snapshot.counter("cgc_monitor_ignored_packets_total"),
            Some(0)
        );
        let ingested = snapshot
            .counter("cgc_monitor_ingested_packets_total")
            .unwrap();
        assert!(ingested > 0);
        // One queue-depth gauge per worker shard.
        let depth_series = snapshot
            .metrics
            .iter()
            .filter(|m| m.name == "cgc_shard_queue_depth")
            .count();
        assert_eq!(depth_series, 3);
        // The packet path drove the full pipeline: inference counters and
        // latency histograms populated alongside the monitor's.
        assert!(snapshot.counter("cgc_pipeline_slots_total").unwrap() > 0);
        assert_eq!(
            snapshot.counter("cgc_pipeline_title_decisions_total"),
            Some(6)
        );
        assert!(snapshot.histogram("cgc_monitor_batch_ns").unwrap().count > 0);
        assert!(snapshot.counter("cgc_qoe_slots_total").unwrap() > 0);
        // The flight recorder rode along: one timeline per session, each
        // bracketed by admission and closure, nothing dropped.
        assert_eq!(run.timelines.len(), 6);
        for m in sessions {
            let tl = timeline_for(&run, &m.tuple).expect("timeline per session");
            assert_eq!(tl.first_event(), "flow_admitted");
            assert_eq!(tl.last_event(), "flow_closed");
        }
        assert_eq!(
            snapshot.counter("cgc_journal_dropped_events_total"),
            Some(0)
        );
        let recorded = snapshot.counter("cgc_journal_events_total").unwrap();
        let in_timelines: u64 = run.timelines.iter().map(|t| t.events.len() as u64).sum();
        assert_eq!(recorded, in_timelines);
    }

    #[test]
    fn replay_traces_reconstruct_full_causal_chains() {
        let cfg = TapFleetConfig {
            n_sessions: 3,
            gameplay_secs: 12.0,
            shards: 2,
            ..Default::default()
        };
        let opts = TapReplayOptions {
            trace: Some(TraceConfig {
                // Per-record stages (ingest/merge/queue/router) hold spans
                // in the ring until the end-of-run drain; size for it.
                ring_capacity: 1 << 20,
                max_spans_per_flow: 1 << 17,
                ..Default::default()
            }),
            ..Default::default()
        };
        let run = replay_whole_feed(&cfg, opts);
        assert_eq!(run.fleet.sessions.len(), 3);
        assert_eq!(run.traces.len(), 3, "one timeline per sampled flow");
        assert_eq!(
            run.fleet.snapshot.counter("cgc_trace_dropped_spans_total"),
            Some(0)
        );
        for m in &run.fleet.sessions {
            let id = m.tuple.flow_id();
            let tl = run
                .traces
                .iter()
                .find(|t| t.flow == id)
                .expect("trace per session");
            assert!(!tl.truncated);
            assert_eq!(
                tl.stages(),
                vec![
                    TraceStage::Ingest,
                    TraceStage::Merge,
                    TraceStage::Queue,
                    TraceStage::Router,
                    TraceStage::Shard,
                    TraceStage::Slot,
                    TraceStage::Classifier,
                    TraceStage::Verdict,
                ],
                "every pipeline stage left a span"
            );
            let chain = tl.causal_chain();
            assert_eq!(chain.first().unwrap().stage, TraceStage::Ingest);
            assert_eq!(chain.last().unwrap().stage, TraceStage::Verdict);
            // Trace flow ids are journal flow ids: the decision timeline
            // and the span timeline key to the same normalized hash.
            assert!(timeline_for(&run.fleet, &m.tuple).is_some());
        }
        // Without the option, the same run keeps every stage span-free.
        let quiet = replay_whole_feed(&cfg, TapReplayOptions::default());
        assert!(quiet.traces.is_empty());
        assert_eq!(quiet.fleet.snapshot.counter("cgc_trace_spans_total"), None);
    }

    #[test]
    fn idle_check_closes_a_finished_flow_mid_run_with_the_same_report() {
        const IDLE_TIMEOUT: u64 = 60_000_000; // MonitorConfig::default()
        const EVERY: u64 = 1_000_000;
        // Two ~44 s sessions starting 90 s apart, replayed in real time on
        // a virtual clock: the second one's records carry the clock well
        // past the first one's idle deadline before they end the feed.
        let cfg = TapFleetConfig {
            n_sessions: 2,
            gameplay_secs: 6.0,
            stagger: 90_000_000,
            shards: 2,
            ..Default::default()
        };
        let run = |idle_check: Option<u64>| {
            let mut opts = TapReplayOptions {
                idle_check,
                ..Default::default()
            };
            // A virtual clock jumps over silence in no wall time, so the
            // router can read "now" while records released before the
            // jump still sit in the queues. Small blocking queues bound
            // that lag to a few hundred records, and the silence between
            // the two sessions (asserted below) is shorter than the idle
            // timeout — so no sweep can overtake a live flow's queued
            // records and cut it in two.
            opts.ingest.queue_capacity = 256;
            replay_whole_feed(&cfg, opts)
        };
        let at_shutdown = run(None);
        let swept = run(Some(EVERY));

        let close_cause = |run: &TapReplayRun, m: &MonitoredSession| {
            let timeline = timeline_for(&run.fleet, &m.tuple).expect("journaled flow");
            match timeline.events.last().expect("closed flow").kind {
                EventKind::FlowClosed { cause, .. } => cause,
                ref other => panic!("last event is {other}, not a closure"),
            }
        };
        let (first, second) = (&swept.fleet.sessions[0], &swept.fleet.sessions[1]);
        assert!(second.started_at.saturating_sub(first.last_seen) < IDLE_TIMEOUT);
        assert!(second.last_seen - first.last_seen > IDLE_TIMEOUT + EVERY);
        assert_eq!(close_cause(&swept, first), CloseCause::Idle);
        assert_eq!(
            close_cause(&swept, second),
            CloseCause::Drained,
            "the flow still live at the end of the feed waits for shutdown"
        );
        for m in &at_shutdown.fleet.sessions {
            assert_eq!(close_cause(&at_shutdown, m), CloseCause::Drained);
        }

        // When a flow is finalized changes nothing about its verdicts.
        assert_eq!(swept.dropped, 0);
        assert_eq!(swept.fleet.sessions.len(), cfg.n_sessions);
        let render = |run: &TapReplayRun| -> Vec<String> {
            run.fleet
                .sessions
                .iter()
                .map(|s| format!("{s:?} {}", serde_json::to_string(&s.report).unwrap()))
                .collect()
        };
        assert_eq!(render(&at_shutdown), render(&swept));
    }
}
