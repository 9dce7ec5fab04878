//! Tap-level monitoring of many concurrent sessions.
//!
//! The pipeline of Fig. 6 does not see one flow at a time — it sits on an
//! ISP link where packets of many subscribers' sessions interleave.
//! [`TapMonitor`] is that front end: it keys flows by normalized
//! five-tuple, uses the platform port signatures to orient each flow
//! (server side ⇒ downstream) and to reject non-gaming traffic, rebases
//! timestamps to each flow's start, and drives one [`SessionAnalyzer`] per
//! accepted flow. Flows idle past a timeout are finalized and their
//! [`SessionReport`]s emitted — exactly how an operator turns a raw packet
//! feed into per-session context records.
//!
//! Idle detection runs on an [`ExpiryWheel`],
//! so a `finish_idle` pass touches only the flows that are actually due
//! rather than scanning the whole table, and the flow table is bounded:
//! past [`MonitorConfig::max_flows`] the least-recently-seen flow is
//! finalized early to make room (counted in [`ShardStats::evicted_flows`]).
//! The same monitor state serves as one worker shard of the parallel
//! [`ShardedTapMonitor`](crate::shard::ShardedTapMonitor).

use std::collections::HashMap;
use std::sync::Arc;

use cgc_obs::event::{CloseCause, EventKind};
use cgc_obs::journal::EventSink;
use cgc_obs::TraceStage;
use nettrace::flow::FlowStats;
use nettrace::packet::{Direction, FiveTuple, Packet};
use nettrace::units::Micros;
use serde::{Deserialize, Serialize};

use crate::bundle::ModelSource;
use crate::expiry::ExpiryWheel;
use crate::filter::{self, Platform};
use crate::metrics::Obs;
use crate::pipeline::{AnalyzerConfig, QoeInputs, SessionAnalyzer, SessionReport};
use crate::wordhash::WordHashBuilder;

/// Tap monitor configuration.
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Per-flow analyzer configuration.
    pub analyzer: AnalyzerConfig,
    /// A flow idle for this long is finalized (microseconds).
    pub idle_timeout: Micros,
    /// Hard cap on concurrently tracked flows; when a new flow arrives at
    /// the cap, the least-recently-seen flow is finalized early (its report
    /// surfaces on the next `finish_idle`/`finish_all`).
    pub max_flows: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            analyzer: AnalyzerConfig::default(),
            idle_timeout: 60_000_000, // 60 s
            max_flows: 250_000,
        }
    }
}

/// Bucket width of the idle-expiry wheel: one 1-s slot.
const EXPIRY_BUCKET: Micros = 1_000_000;

/// A finalized session observed at the tap.
#[derive(Debug, Clone)]
pub struct MonitoredSession {
    /// The session five-tuple in downstream orientation.
    pub tuple: FiveTuple,
    /// Detected platform.
    pub platform: Platform,
    /// Tap timestamp of the flow's first packet.
    pub started_at: Micros,
    /// Tap timestamp of the flow's last packet.
    pub last_seen: Micros,
    /// Whether the volumetric confirmation ever passed (flows that never
    /// looked like streaming still get a report, flagged here).
    pub confirmed: bool,
    /// Model-registry version the flow's analyzer pinned at admission
    /// (0 when the monitor serves a fixed, non-swappable bundle).
    pub model_version: u32,
    /// The pipeline's report.
    pub report: SessionReport,
}

/// Observability counters of one monitor (one shard of the parallel front
/// end, or the whole serial monitor).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Packets accepted into some flow's analyzer.
    pub ingested_packets: u64,
    /// Packets dropped for lacking a platform signature or failing the
    /// pre-filter.
    pub ignored_packets: u64,
    /// Flows currently tracked.
    pub active_flows: u64,
    /// Flows finalized for any reason (idle, drain or eviction).
    pub finalized_flows: u64,
    /// Flows finalized early because the table hit `max_flows`.
    pub evicted_flows: u64,
    /// Expiry-wheel entries examined while finding idle/evictable flows —
    /// proportional to due flows, not table size.
    pub expiry_entries_scanned: u64,
    /// [`TapMonitor::ingest_batch`] calls (on a shard worker, one per
    /// batch the router dispatched to it).
    pub batches: u64,
}

impl ShardStats {
    /// Accumulates another shard's counters into this one (`active_flows`
    /// and the rest are all additive).
    pub fn merge(&mut self, other: &ShardStats) {
        self.ingested_packets += other.ingested_packets;
        self.ignored_packets += other.ignored_packets;
        self.active_flows += other.active_flows;
        self.finalized_flows += other.finalized_flows;
        self.evicted_flows += other.evicted_flows;
        self.expiry_entries_scanned += other.expiry_entries_scanned;
        self.batches += other.batches;
    }
}

struct FlowEntry<'b> {
    analyzer: SessionAnalyzer<'b>,
    /// Normalized tuple — the interning key, kept for map removal when the
    /// entry leaves the arena.
    key: FiveTuple,
    down_tuple: FiveTuple,
    platform: Platform,
    started_at: Micros,
    last_seen: Micros,
    stats: FlowStats,
    /// Cached journal id (`FiveTuple::flow_id` of the normalized tuple).
    flow_id: u64,
    /// Registry version the analyzer pinned at admission (0 = fixed).
    model_version: u32,
}

/// Multiplexing front end driving one analyzer per detected gaming flow.
///
/// Flow keys are interned: the normalized five-tuple maps to a `u32` arena
/// slot on admission, with entries reused through a free list so
/// steady-state flow churn performs no per-flow allocation in the table
/// itself. A packet costs one table probe — its tuple in the intern map,
/// hashed as two whole words under a per-table random key (`wordhash`)
/// instead of SipHash over the tuple's bytes; the slot id it yields indexes
/// the arena and the expiry wheel directly.
/// The registry's packet counters, which every shard worker shares, are
/// published once per [`ingest_batch`](Self::ingest_batch) (and once per
/// direct [`ingest`](Self::ingest) call), not once per packet.
pub struct TapMonitor<'b> {
    /// Fixed bundle or hot-swappable [`LiveModel`] slot; every admitted
    /// flow pins the version serving at that moment.
    ///
    /// [`LiveModel`]: cgc_lifecycle::LiveModel
    models: ModelSource<'b>,
    config: MonitorConfig,
    /// Normalized tuple → arena slot.
    flows: HashMap<FiveTuple, u32, WordHashBuilder>,
    /// Slot-indexed entries; `None` marks a slot on the free list.
    arena: Vec<Option<FlowEntry<'b>>>,
    /// Reusable arena slots of finalized flows.
    free: Vec<u32>,
    expiry: ExpiryWheel,
    /// Sessions evicted at the cap, held until the next finalize call.
    evicted: Vec<MonitoredSession>,
    ingested_packets: u64,
    ignored_packets: u64,
    finalized_flows: u64,
    evicted_flows: u64,
    batches: u64,
    /// Metrics and sinks, shared with every flow's analyzer; the monitor
    /// itself counts into `obs.monitor`, journals admission and closure,
    /// and records the Shard hand-off span at flow admission.
    obs: Arc<Obs>,
    /// Wheel-scan count already published to the registry counter.
    expiry_published: u64,
}

impl<'b> TapMonitor<'b> {
    /// A monitor over a trained bundle (or a hot-swappable
    /// [`LiveModel`](cgc_lifecycle::LiveModel) slot) recording into `obs`:
    /// its own health series, and the metrics and sinks every admitted
    /// flow's analyzer shares.
    pub fn with_obs(
        models: impl Into<ModelSource<'b>>,
        config: MonitorConfig,
        obs: impl Into<Arc<Obs>>,
    ) -> Self {
        TapMonitor {
            models: models.into(),
            config,
            flows: HashMap::with_hasher(WordHashBuilder::new()),
            arena: Vec::new(),
            free: Vec::new(),
            expiry: ExpiryWheel::new(EXPIRY_BUCKET),
            evicted: Vec::new(),
            ingested_packets: 0,
            ignored_packets: 0,
            finalized_flows: 0,
            evicted_flows: 0,
            batches: 0,
            obs: obs.into(),
            expiry_published: 0,
        }
    }

    /// [`with_obs`](Self::with_obs) with metrics on `registry` and every
    /// sink disabled.
    pub fn with_registry(
        models: impl Into<ModelSource<'b>>,
        config: MonitorConfig,
        registry: &cgc_obs::Registry,
    ) -> Self {
        Self::with_obs(models, config, Obs::on(registry))
    }

    /// Routes this monitor's lifecycle events (and those of every flow
    /// analyzer created afterwards) into `sink`.
    pub fn set_journal(&mut self, sink: EventSink) {
        Arc::make_mut(&mut self.obs).journal = sink;
    }

    /// Ingests one observed datagram: tap timestamp, wire five-tuple (src =
    /// sender) and RTP payload length. Packets of flows without a platform
    /// port signature are counted and dropped.
    pub fn ingest(&mut self, ts: Micros, wire_tuple: &FiveTuple, payload_len: u32) {
        let before = (self.ingested_packets, self.ignored_packets);
        self.ingest_one(ts, wire_tuple, payload_len);
        self.publish_packet_counts(before);
    }

    /// [`ingest`](Self::ingest) without the registry update: counts into
    /// the monitor's own fields only, the caller publishes.
    fn ingest_one(&mut self, ts: Micros, wire_tuple: &FiveTuple, payload_len: u32) {
        // Orient the conversation: the platform-signature port is the server.
        let (down_tuple, platform, dir) = if let Some(p) = Platform::from_port(wire_tuple.src_port)
        {
            (*wire_tuple, p, Direction::Downstream)
        } else if let Some(p) = Platform::from_port(wire_tuple.dst_port) {
            (wire_tuple.reversed(), p, Direction::Upstream)
        } else {
            self.ignored_packets += 1;
            return;
        };
        if filter::pre_check(&down_tuple).is_none() {
            self.ignored_packets += 1;
            return;
        }

        let key = down_tuple.normalized();
        let slot = match self.flows.get(&key) {
            Some(&slot) => slot,
            None => {
                if self.flows.len() >= self.config.max_flows.max(1) {
                    self.evict_least_recent();
                }
                let flow_id = key.flow_id();
                // Pin the model generation once per flow: the analyzer
                // borrows this exact bundle for its whole life, so a
                // concurrent hot-swap redirects only future admissions.
                let (bundle, model_version) = self.models.pin();
                let analyzer = SessionAnalyzer::with_obs(
                    bundle,
                    self.config.analyzer,
                    QoeInputs::default(),
                    Arc::clone(&self.obs),
                    flow_id,
                    ts,
                );
                let entry = FlowEntry {
                    analyzer,
                    key,
                    down_tuple,
                    platform,
                    started_at: ts,
                    last_seen: ts,
                    stats: FlowStats::default(),
                    flow_id,
                    model_version,
                };
                let slot = self.alloc_slot(entry);
                self.flows.insert(key, slot);
                self.obs.monitor.active_flows.inc();
                self.obs.journal.emit(
                    flow_id,
                    ts,
                    EventKind::FlowAdmitted {
                        addr: down_tuple.flow_addr(),
                        platform,
                    },
                );
                // Version stamp right after admission, so every later
                // decision in the timeline is attributable to a model
                // generation. Fixed bundles (version 0) skip the event —
                // nothing can swap, so there is nothing to attribute.
                if self.models.is_live() {
                    self.obs.journal.emit(
                        flow_id,
                        ts,
                        EventKind::ModelVersion {
                            version: model_version,
                        },
                    );
                }
                // One Shard span per flow, at admission: the hand-off of
                // the flow to this monitor (one shard of the parallel
                // front end, or the whole serial one).
                self.obs.trace.record(flow_id, 0, TraceStage::Shard, ts, 0);
                slot
            }
        };
        let entry = self.arena[slot as usize].as_mut().expect("live slot");
        entry.last_seen = ts;
        self.expiry.touch(slot, ts);
        self.ingested_packets += 1;
        // Rebase to flow-relative time for the analyzer.
        let mut pkt = Packet::new(ts.saturating_sub(entry.started_at), dir, payload_len);
        pkt.marker = false;
        entry.stats.update(&pkt);
        entry.analyzer.push_packet(&pkt);
    }

    /// Ingests a batch of records (the sharded front end's unit of work),
    /// counting it in [`ShardStats::batches`].
    pub fn ingest_batch(&mut self, records: &[(Micros, FiveTuple, u32)]) {
        self.batches += 1;
        self.obs.monitor.batches.inc();
        let obs = Arc::clone(&self.obs);
        let span = obs.monitor.batch_ns.span();
        let before = (self.ingested_packets, self.ignored_packets);
        for (ts, tuple, len) in records {
            self.ingest_one(*ts, tuple, *len);
        }
        self.publish_packet_counts(before);
        span.finish();
    }

    /// Adds what the monitor counted since `before` — its
    /// `(ingested, ignored)` packet counts then — to the registry counters.
    fn publish_packet_counts(&self, before: (u64, u64)) {
        let ingested = self.ingested_packets - before.0;
        if ingested > 0 {
            self.obs.monitor.ingested.add(ingested);
        }
        let ignored = self.ignored_packets - before.1;
        if ignored > 0 {
            self.obs.monitor.ignored.add(ignored);
        }
    }

    /// Snapshot of the monitor's observability counters.
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            ingested_packets: self.ingested_packets,
            ignored_packets: self.ignored_packets,
            active_flows: self.flows.len() as u64,
            finalized_flows: self.finalized_flows,
            evicted_flows: self.evicted_flows,
            expiry_entries_scanned: self.expiry.entries_scanned(),
            batches: self.batches,
        }
    }

    /// Finalizes flows idle since before `now - idle_timeout`, returning
    /// their reports (plus any flows evicted at the cap since the last
    /// call). Work is proportional to the number of due flows: the expiry
    /// wheel only visits buckets behind the cutoff, never the whole table.
    pub fn finish_idle(&mut self, now: Micros) -> Vec<MonitoredSession> {
        let cutoff = now.saturating_sub(self.config.idle_timeout);
        let due = self.expiry.drain_due(cutoff);
        self.finalize_due(due)
    }

    fn finalize_due(&mut self, due: Vec<u32>) -> Vec<MonitoredSession> {
        let mut out = std::mem::take(&mut self.evicted);
        for slot in due {
            let entry = self.take_slot(slot);
            out.push(self.finalize(entry, CloseCause::Idle));
        }
        self.publish_expiry_scans();
        out
    }

    /// Finalizes every remaining flow (end of capture), including flows
    /// evicted at the cap since the last `finish_idle`.
    pub fn finish_all(&mut self) -> Vec<MonitoredSession> {
        let mut out = std::mem::take(&mut self.evicted);
        let slots: Vec<u32> = self.flows.values().copied().collect();
        for slot in slots {
            self.expiry.remove(&slot);
            let entry = self.take_slot(slot);
            out.push(self.finalize(entry, CloseCause::Drained));
        }
        self.publish_expiry_scans();
        out
    }

    /// Stores `entry` in a reused (or fresh) arena slot.
    fn alloc_slot(&mut self, entry: FlowEntry<'b>) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.arena[slot as usize] = Some(entry);
                slot
            }
            None => {
                let slot = u32::try_from(self.arena.len()).expect("flow arena fits u32");
                self.arena.push(Some(entry));
                slot
            }
        }
    }

    /// Removes `slot`'s entry from the arena and intern map, returning the
    /// slot to the free list.
    fn take_slot(&mut self, slot: u32) -> FlowEntry<'b> {
        let entry = self.arena[slot as usize]
            .take()
            .expect("wheel and table in sync");
        self.flows.remove(&entry.key);
        self.free.push(slot);
        entry
    }

    /// Publishes wheel-scan work accumulated since the last call to the
    /// registry counter (the wheel keeps the cumulative count used by
    /// [`ShardStats`]).
    fn publish_expiry_scans(&mut self) {
        let scanned = self.expiry.entries_scanned();
        let delta = scanned.saturating_sub(self.expiry_published);
        if delta > 0 {
            self.obs.monitor.expiry_scanned.add(delta);
            self.expiry_published = scanned;
        }
    }

    /// Finalizes the least-recently-seen flow to make room at the cap.
    fn evict_least_recent(&mut self) {
        if let Some(slot) = self.expiry.pop_least_recent() {
            let entry = self.take_slot(slot);
            let session = self.finalize(entry, CloseCause::Evicted);
            self.evicted.push(session);
            self.evicted_flows += 1;
            self.obs.monitor.evicted.inc();
        }
        self.publish_expiry_scans();
    }

    fn finalize(&mut self, entry: FlowEntry<'b>, cause: CloseCause) -> MonitoredSession {
        self.finalized_flows += 1;
        self.obs.monitor.finalized.inc();
        self.obs.monitor.active_flows.dec();
        let confirmed = filter::confirm(&entry.stats);
        let session = MonitoredSession {
            tuple: entry.down_tuple,
            platform: entry.platform,
            started_at: entry.started_at,
            last_seen: entry.last_seen,
            confirmed,
            model_version: entry.model_version,
            // finish() emits the analyzer's SessionVerdict first, so the
            // FlowClosed below is always each timeline's final event.
            report: entry.analyzer.finish(),
        };
        self.obs.journal.emit(
            entry.flow_id,
            entry.last_seen,
            EventKind::FlowClosed { cause, confirmed },
        );
        session
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelBundle;
    use cgc_domain::{GameTitle, StreamSettings};
    use gamesim::{Fidelity, Session, SessionConfig, SessionGenerator, TitleKind};

    fn bundle() -> ModelBundle {
        crate::pipeline::tests::tiny_bundle_for_streaming()
    }

    fn session(seed: u64, title: GameTitle) -> Session {
        let mut generator = SessionGenerator::new();
        generator.generate(&SessionConfig {
            kind: TitleKind::Known(title),
            settings: StreamSettings::default_pc(),
            gameplay_secs: 60.0,
            fidelity: Fidelity::FullPackets,
            seed,
        })
    }

    /// Wire-orients a session packet: upstream packets appear with the
    /// reversed tuple.
    fn wire(s: &Session, p: &Packet) -> FiveTuple {
        match p.dir {
            Direction::Downstream => s.tuple,
            Direction::Upstream => s.tuple.reversed(),
        }
    }

    #[test]
    fn demultiplexes_interleaved_sessions() {
        let b = bundle();
        let s1 = session(1, GameTitle::Fortnite);
        let s2 = session(2, GameTitle::GenshinImpact);

        // Interleave the two sessions on one tap, s2 starting 7 s later,
        // plus non-gaming chatter that the filter must reject.
        let mut feed: Vec<(Micros, FiveTuple, u32)> = Vec::new();
        for p in &s1.packets {
            feed.push((p.ts, wire(&s1, p), p.payload_len));
        }
        for p in &s2.packets {
            feed.push((p.ts + 7_000_000, wire(&s2, p), p.payload_len));
        }
        let dns = FiveTuple::udp_v4([8, 8, 8, 8], 53, [100, 64, 1, 1], 40_000);
        for i in 0..250u64 {
            feed.push((i * 100_000, dns, 120));
        }
        feed.sort_by_key(|(ts, _, _)| *ts);

        let mut monitor = TapMonitor::with_obs(&b, MonitorConfig::default(), Obs::global());
        for (ts, tuple, len) in &feed {
            monitor.ingest(*ts, tuple, *len);
        }
        let stats = monitor.stats();
        assert_eq!(stats.active_flows, 2);
        // The non-gaming flow was counted and dropped, nothing else.
        assert_eq!(stats.ignored_packets, 250);
        assert_eq!(
            stats.ingested_packets as usize,
            feed.len() - 250,
            "every gaming packet reaches an analyzer"
        );
        let mut out = monitor.finish_all();
        out.sort_by_key(|m| m.started_at);
        assert_eq!(out.len(), 2);

        // Each flow got the same title call it would get alone.
        let solo = |s: &Session| b.title.classify(&s.launch_window(5.0)).title;
        assert_eq!(out[0].report.title.title, solo(&s1));
        assert_eq!(out[1].report.title.title, solo(&s2));
        assert!(out.iter().all(|m| m.confirmed));
        assert!(out.iter().all(|m| m.platform == Platform::GeForceNow));
        assert_eq!(monitor.stats().finalized_flows, 2);
    }

    #[test]
    fn non_gaming_traffic_is_ignored() {
        let b = bundle();
        let mut monitor = TapMonitor::with_obs(&b, MonitorConfig::default(), Obs::global());
        let web = FiveTuple::udp_v4([1, 1, 1, 1], 443, [10, 0, 0, 2], 55_000);
        for i in 0..100u64 {
            monitor.ingest(i * 1000, &web, 1200);
        }
        let stats = monitor.stats();
        assert_eq!(stats.active_flows, 0);
        assert_eq!(stats.ignored_packets, 100);
    }

    #[test]
    fn idle_flows_are_finalized() {
        let b = bundle();
        let s = session(3, GameTitle::CsGo);
        let mut monitor = TapMonitor::with_obs(&b, MonitorConfig::default(), Obs::global());
        for p in &s.packets {
            monitor.ingest(p.ts, &wire(&s, p), p.payload_len);
        }
        let last = s.packets.last().unwrap().ts;
        // Not yet idle long enough.
        assert!(monitor.finish_idle(last + 10_000_000).is_empty());
        assert_eq!(monitor.stats().active_flows, 1);
        // Past the 60 s timeout.
        let out = monitor.finish_idle(last + 61_000_000);
        assert_eq!(out.len(), 1);
        assert_eq!(monitor.stats().active_flows, 0);
        assert!(out[0].confirmed);
    }

    #[test]
    fn finish_idle_work_scales_with_due_flows() {
        // Many live flows, one idle: the expiry pass must not examine the
        // whole table (the old implementation scanned every flow).
        let b = bundle();
        let mut monitor = TapMonitor::with_obs(&b, MonitorConfig::default(), Obs::global());
        let mk = |i: u16| FiveTuple::udp_v4([10, 0, 0, 1], 49003, [100, 64, 1, 1], 50_000 + i);
        monitor.ingest(0, &mk(0), 1200); // goes idle
        for i in 1..400u16 {
            monitor.ingest(200_000_000 + u64::from(i), &mk(i), 1200);
        }
        assert_eq!(monitor.stats().active_flows, 400);
        let before = monitor.stats().expiry_entries_scanned;
        let out = monitor.finish_idle(100_000_000);
        assert_eq!(out.len(), 1);
        let examined = monitor.stats().expiry_entries_scanned - before;
        assert!(
            examined < 10,
            "examined {examined} wheel entries to expire 1 of 400 flows"
        );
        assert_eq!(monitor.stats().active_flows, 399);
    }

    #[test]
    fn cap_evicts_least_recently_seen() {
        let b = bundle();
        let config = MonitorConfig {
            max_flows: 2,
            ..MonitorConfig::default()
        };
        let mut monitor = TapMonitor::with_obs(&b, config, Obs::global());
        let mk = |i: u16| FiveTuple::udp_v4([10, 0, 0, 1], 49003, [100, 64, 1, 1], 50_000 + i);
        monitor.ingest(1_000, &mk(0), 1200);
        monitor.ingest(2_000, &mk(1), 1200);
        monitor.ingest(3_000, &mk(0), 1200); // flow 0 seen again: flow 1 is now LRS
        assert_eq!(monitor.stats().active_flows, 2);
        assert_eq!(monitor.stats().evicted_flows, 0);

        // A third flow at the cap evicts the least-recently-seen (flow 1).
        monitor.ingest(4_000, &mk(2), 1200);
        assert_eq!(monitor.stats().active_flows, 2);
        let stats = monitor.stats();
        assert_eq!(stats.evicted_flows, 1);
        assert_eq!(stats.finalized_flows, 1);

        // The evicted session surfaces on the next finalize call and is the
        // right flow.
        let out = monitor.finish_idle(5_000);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tuple.normalized(), mk(1).normalized());
        // Remaining flows are 0 and 2.
        let mut rest = monitor.finish_all();
        rest.sort_by_key(|m| m.started_at);
        assert_eq!(rest.len(), 2);
        assert_eq!(rest[0].tuple.normalized(), mk(0).normalized());
        assert_eq!(rest[1].tuple.normalized(), mk(2).normalized());
        assert_eq!(monitor.stats().finalized_flows, 3);
    }

    #[test]
    fn late_flow_start_rebases_timestamps() {
        let b = bundle();
        let s = session(4, GameTitle::Dota2);
        let offset = 3_600_000_000u64; // flow starts an hour into the tap
        let mut monitor = TapMonitor::with_obs(&b, MonitorConfig::default(), Obs::global());
        for p in &s.packets {
            monitor.ingest(p.ts + offset, &wire(&s, p), p.payload_len);
        }
        let out = monitor.finish_all();
        assert_eq!(out.len(), 1);
        // started_at is the first *observed* packet (launch phase shift
        // means it is not exactly at the session origin).
        assert!(out[0].started_at >= offset && out[0].started_at < offset + 4_000_000);
        // Slots counted from flow start, not tap start.
        let expected = (s.duration() / out[0].report.slot_width) as usize;
        assert!(out[0].report.stage_slots.len() <= expected + 2);
        assert!(out[0].report.stage_slots.len() + 5 >= expected);
    }

    #[test]
    fn trace_spans_cover_shard_slot_classifier_verdict() {
        use cgc_obs::{Registry, TraceCollector, TraceConfig};
        let b = bundle();
        let s = session(9, GameTitle::Fortnite);
        let registry = Registry::new();
        let (sink, mut collector) = TraceCollector::new(TraceConfig::default(), &registry);
        let obs = Obs {
            trace: sink,
            ..Obs::on(&registry)
        };
        let mut monitor = TapMonitor::with_obs(&b, MonitorConfig::default(), obs);
        for p in &s.packets {
            monitor.ingest(p.ts, &wire(&s, p), p.payload_len);
        }
        let out = monitor.finish_all();
        assert_eq!(out.len(), 1);
        collector.drain();
        let flow = s.tuple.normalized().flow_id();
        let timeline = collector.timeline(flow).expect("flow traced");
        let chain = timeline.causal_chain();
        for stage in [
            TraceStage::Shard,
            TraceStage::Slot,
            TraceStage::Classifier,
            TraceStage::Verdict,
        ] {
            assert!(
                chain.iter().any(|s| s.stage == stage),
                "missing {stage} span in {chain:?}"
            );
        }
        // The chain is stage-ordered: Shard precedes every Slot span,
        // Verdict is last.
        assert_eq!(chain.first().unwrap().stage, TraceStage::Shard);
        assert_eq!(chain.last().unwrap().stage, TraceStage::Verdict);
        // Exactly one span per classified slot.
        let slots = chain.iter().filter(|s| s.stage == TraceStage::Slot).count();
        assert_eq!(
            slots + 10,
            out[0].report.stage_slots.len(),
            "seed slots untraced"
        );
    }

    #[test]
    fn sampled_out_flows_record_no_spans() {
        use cgc_obs::{Registry, TraceCollector, TraceConfig};
        let b = bundle();
        let s = session(9, GameTitle::Fortnite);
        let registry = Registry::new();
        // A sample modulus no real flow hash will satisfy unless it is 0:
        // flow ids are FNV hashes, so `flow % u64::MAX == 0` only for 0.
        let (sink, mut collector) =
            TraceCollector::new(TraceConfig::default().with_sample(u64::MAX), &registry);
        let obs = Obs {
            trace: sink,
            ..Obs::on(&registry)
        };
        let mut monitor = TapMonitor::with_obs(&b, MonitorConfig::default(), obs);
        for p in &s.packets {
            monitor.ingest(p.ts, &wire(&s, p), p.payload_len);
        }
        monitor.finish_all();
        collector.drain();
        assert!(collector.timelines().is_empty(), "sampled-out flow traced");
        assert_eq!(
            registry.snapshot().counter("cgc_trace_spans_total"),
            Some(0)
        );
    }
}
