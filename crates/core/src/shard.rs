//! Sharded parallel tap front end.
//!
//! One serial [`TapMonitor`] saturates a core long before it saturates an
//! ISP tap. [`ShardedTapMonitor`] scales the front end across worker
//! threads: packets are routed by a word-wise, direction-invariant hash
//! ([`FiveTuple::shard`]) onto `W` shards, each owned by a dedicated
//! worker thread running its own `TapMonitor` over a shared
//! [`ModelBundle`]. Because the hash is direction-invariant, both
//! directions of a conversation land on the same worker, and because each
//! flow lives on exactly one shard, per-flow packet order is preserved —
//! the sharded monitor produces byte-identical session reports to the
//! serial one (proven by the equivalence tests below).
//!
//! Records travel in batches to amortize channel overhead; control
//! messages (`finish_idle`, stats snapshots) are interleaved into the same
//! per-shard queues, so they apply at a well-defined point in each shard's
//! packet stream. Each of those queues is bounded: a
//! caller that has run a few batches ahead of a shard's worker waits for
//! it, so the batches in flight — and the buffers that carry them, which
//! the workers hand back for reuse — stay a fixed, small set.

use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{self, Receiver, Sender, SyncSender};
use nettrace::packet::FiveTuple;
use nettrace::units::Micros;
use serde::{Deserialize, Serialize};

use cgc_obs::journal::EventSink;
use cgc_obs::{Gauge, Registry, TraceSink};

use cgc_lifecycle::LiveModel;

use crate::bundle::{ModelBundle, ModelSource};
use crate::metrics::{MonitorMetrics, Obs};
use crate::monitor::{MonitorConfig, MonitoredSession, ShardStats, TapMonitor};

/// The models every worker shard serves from: the owned, thread-shareable
/// dual of [`ModelSource`]. `Fixed` is the pre-lifecycle deployment shape
/// (one immutable bundle for the process lifetime); `Live` shares a
/// hot-swappable [`LiveModel`] slot, so a publish from any thread
/// redirects every shard's *next* flow admission while in-flight flows
/// finish on the version they pinned.
#[derive(Debug, Clone)]
pub enum SharedModels {
    /// One immutable bundle, shared read-only across shards.
    Fixed(Arc<ModelBundle>),
    /// A hot-swappable versioned slot, shared across shards.
    Live(Arc<LiveModel<ModelBundle>>),
}

impl SharedModels {
    /// Borrows this shared handle as a per-monitor [`ModelSource`].
    fn as_source(&self) -> ModelSource<'_> {
        match self {
            SharedModels::Fixed(bundle) => ModelSource::Fixed(bundle),
            SharedModels::Live(slot) => ModelSource::Live(slot),
        }
    }
}

impl From<Arc<ModelBundle>> for SharedModels {
    fn from(bundle: Arc<ModelBundle>) -> SharedModels {
        SharedModels::Fixed(bundle)
    }
}

impl From<Arc<LiveModel<ModelBundle>>> for SharedModels {
    fn from(slot: Arc<LiveModel<ModelBundle>>) -> SharedModels {
        SharedModels::Live(slot)
    }
}

/// One tap observation: timestamp, wire five-tuple, RTP payload length.
pub type TapRecord = (Micros, FiveTuple, u32);

/// Configuration of the sharded front end.
#[derive(Debug, Clone, Copy)]
pub struct ShardedMonitorConfig {
    /// Per-shard monitor configuration (`max_flows` applies per shard).
    pub monitor: MonitorConfig,
    /// Number of worker shards (clamped to ≥ 1).
    pub shards: usize,
}

impl Default for ShardedMonitorConfig {
    fn default() -> Self {
        ShardedMonitorConfig {
            monitor: MonitorConfig::default(),
            shards: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }
}

impl ShardedMonitorConfig {
    /// A config with `shards` workers and defaults elsewhere.
    pub fn with_shards(shards: usize) -> Self {
        ShardedMonitorConfig {
            shards,
            ..Default::default()
        }
    }
}

/// Aggregated observability snapshot of the sharded front end.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonitorStats {
    /// Counters of each worker shard, in shard order.
    pub per_shard: Vec<ShardStats>,
}

impl MonitorStats {
    /// Sums the per-shard counters.
    pub fn total(&self) -> ShardStats {
        let mut total = ShardStats::default();
        for s in &self.per_shard {
            total.merge(s);
        }
        total
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.per_shard.len()
    }
}

/// Messages a shard's channel holds before the sender waits. The bound
/// is what carries a slow worker's backpressure upstream: a router that
/// has run this many batches ahead sleeps in `send`, its ingest queue
/// deepens, the next drain batch grows, and the producer meets its
/// backpressure policy — instead of the whole backlog piling up behind
/// the bounded queues in freshly allocated buffers. A worker that keeps
/// up never sees the channel more than a message or two deep.
const IN_FLIGHT: usize = 8;

enum ShardMsg {
    Batch(Vec<TapRecord>),
    FinishIdle(Micros, Sender<(Vec<MonitoredSession>, ShardStats)>),
    Stats(Sender<ShardStats>),
}

fn shard_worker(
    models: SharedModels,
    config: MonitorConfig,
    rx: Receiver<ShardMsg>,
    recycle: Sender<Vec<TapRecord>>,
    obs: Obs,
    queue_depth: Arc<Gauge>,
) -> (Vec<MonitoredSession>, ShardStats) {
    // The monitor borrows the shared handle owned by this stack frame, so
    // the worker is 'static while the models stay shared; a `Live` handle
    // re-resolves at every flow admission, so swaps land without restarting
    // the worker.
    let mut monitor = TapMonitor::with_obs(models.as_source(), config, obs);
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Batch(mut records) => {
                monitor.ingest_batch(&records);
                queue_depth.dec();
                // Hand the emptied buffer back to the router so the
                // steady-state queue→monitor hand-off allocates nothing
                // (the send fails harmlessly once the router is gone).
                records.clear();
                let _ = recycle.send(records);
            }
            ShardMsg::FinishIdle(now, reply) => {
                let done = monitor.finish_idle(now);
                let _ = reply.send((done, monitor.stats()));
            }
            ShardMsg::Stats(reply) => {
                let _ = reply.send(monitor.stats());
            }
        }
    }
    // Channel closed: the front end is draining. Finalize everything.
    let out = monitor.finish_all();
    let stats = monitor.stats();
    (out, stats)
}

/// Parallel tap front end: W worker shards, each a [`TapMonitor`].
///
/// The ingest path is the hot path: per record one routing hash (three
/// multiply-xorshift rounds, see [`FiveTuple::shard`]) and one copy
/// into the shard's pending buffer; per
/// [`ingest_batch`](Self::ingest_batch) call one channel send per shard
/// the batch touches. All heavyweight per-packet work (filtering, flow
/// lookup, analyzer updates) happens on the worker threads.
pub struct ShardedTapMonitor {
    senders: Vec<SyncSender<ShardMsg>>,
    handles: Vec<JoinHandle<(Vec<MonitoredSession>, ShardStats)>>,
    /// Per-shard partition of the batch being dispatched; empty between
    /// [`ingest_batch`](Self::ingest_batch) calls.
    pending: Vec<Vec<TapRecord>>,
    depth_gauges: Vec<Arc<Gauge>>,
    /// Emptied batch buffers coming back from the workers, reused for the
    /// next dispatch instead of allocating fresh `Vec`s per batch.
    recycle_rx: Receiver<Vec<TapRecord>>,
}

impl ShardedTapMonitor {
    /// [`with_obs`](Self::with_obs) with metrics on `registry`, the two
    /// given sinks, and drift observation disabled.
    pub fn with_observability(
        models: impl Into<SharedModels>,
        config: ShardedMonitorConfig,
        registry: &Registry,
        journal: EventSink,
        trace: TraceSink,
    ) -> Self {
        let obs = Obs {
            journal,
            trace,
            ..Obs::on(registry)
        };
        Self::with_obs(models, config, registry, obs)
    }

    /// Spawns `config.shards` worker threads over a shared model source
    /// (a fixed `Arc<ModelBundle>` or a hot-swappable
    /// `Arc<LiveModel<ModelBundle>>`). Every shard's monitor records into
    /// its own copy of `obs` — lifecycle events into `obs.journal`,
    /// Shard/Slot/Classifier/Verdict spans into `obs.trace`, classifier
    /// scores into `obs.drift` — and the per-shard queue-depth gauges
    /// register on `registry`.
    pub fn with_obs(
        models: impl Into<SharedModels>,
        config: ShardedMonitorConfig,
        registry: &Registry,
        obs: impl Into<Arc<Obs>>,
    ) -> Self {
        let obs = obs.into();
        let models = models.into();
        let shards = config.shards.max(1);
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        let mut depth_gauges = Vec::with_capacity(shards);
        let (recycle_tx, recycle_rx) = channel::unbounded();
        for i in 0..shards {
            let (tx, rx) = channel::bounded(IN_FLIGHT);
            let m = models.clone();
            let mc = config.monitor;
            let worker_obs = Obs::clone(&obs);
            let rc = recycle_tx.clone();
            let depth = MonitorMetrics::shard_queue_depth(registry, i);
            let worker_depth = Arc::clone(&depth);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("tap-shard-{i}"))
                    .spawn(move || shard_worker(m, mc, rx, rc, worker_obs, worker_depth))
                    .expect("spawn shard worker"),
            );
            senders.push(tx);
            depth_gauges.push(depth);
        }
        ShardedTapMonitor {
            senders,
            handles,
            pending: vec![Vec::new(); shards],
            depth_gauges,
            recycle_rx,
        }
    }

    /// An empty batch buffer: a recycled one from the workers if any has
    /// come back, else a fresh allocation (start-up only).
    fn take_buf(&self) -> Vec<TapRecord> {
        self.recycle_rx.try_recv().unwrap_or_default()
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// Hands one batch to the workers in a single dispatch per shard: the
    /// batch is partitioned by routing hash into the per-shard buffers
    /// this front end keeps (preserving batch order, hence per-flow
    /// order), and every non-empty buffer is sent as one channel message.
    ///
    /// This is the live-ingestion hand-off: the ingest router's drain
    /// batch — sized by its batch policy — becomes the unit of delivery
    /// to the shard workers. A small batch (shallow queues) reaches the
    /// workers immediately; a large batch (deep queues) amortizes the
    /// per-dispatch send cost across thousands of records. Per record the
    /// router pays one [`FiveTuple::shard`] and one copy.
    pub fn ingest_batch(&mut self, records: &[TapRecord]) {
        let shards = self.senders.len();
        if shards == 1 {
            // Degenerate single-shard front end: no partitioning needed.
            self.pending[0].extend_from_slice(records);
        } else {
            for record in records {
                self.pending[record.1.shard(shards)].push(*record);
            }
        }
        for shard in 0..shards {
            self.flush_shard(shard);
        }
    }

    /// Finalizes flows idle since before `now - idle_timeout` on every
    /// shard, returning their reports (shard order, then each shard's
    /// finalization order).
    pub fn finish_idle(&mut self, now: Micros) -> Vec<MonitoredSession> {
        let replies: Vec<Receiver<(Vec<MonitoredSession>, ShardStats)>> = self
            .senders
            .iter()
            .map(|tx| {
                let (rtx, rrx) = channel::unbounded();
                let _ = tx.send(ShardMsg::FinishIdle(now, rtx));
                rrx
            })
            .collect();
        let mut out = Vec::new();
        for rrx in replies {
            let (sessions, _) = rrx.recv().expect("shard worker alive");
            out.extend(sessions);
        }
        out
    }

    /// Synchronized snapshot of every shard's counters: each shard answers
    /// after the batches sent to it before this call.
    pub fn stats(&mut self) -> MonitorStats {
        let replies: Vec<Receiver<ShardStats>> = self
            .senders
            .iter()
            .map(|tx| {
                let (rtx, rrx) = channel::unbounded();
                let _ = tx.send(ShardMsg::Stats(rtx));
                rrx
            })
            .collect();
        MonitorStats {
            per_shard: replies
                .into_iter()
                .map(|rrx| rrx.recv().expect("shard worker alive"))
                .collect(),
        }
    }

    /// Drains every shard and joins the workers, returning all remaining
    /// session reports plus the final stats snapshot.
    pub fn finish_all(mut self) -> (Vec<MonitoredSession>, MonitorStats) {
        // Dropping the senders closes the channels; each worker finalizes
        // its remaining flows and returns them through its join handle.
        self.senders.clear();
        let mut out = Vec::new();
        let mut stats = MonitorStats::default();
        for handle in self.handles.drain(..) {
            let (sessions, shard_stats) = handle.join().expect("shard worker panicked");
            out.extend(sessions);
            stats.per_shard.push(shard_stats);
        }
        (out, stats)
    }

    fn flush_shard(&mut self, shard: usize) {
        if self.pending[shard].is_empty() {
            return;
        }
        let replacement = self.take_buf();
        let batch = std::mem::replace(&mut self.pending[shard], replacement);
        self.depth_gauges[shard].inc();
        let _ = self.senders[shard].send(ShardMsg::Batch(batch));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_domain::{GameTitle, StreamSettings};
    use gamesim::{Fidelity, Session, SessionConfig, SessionGenerator, TitleKind};
    use nettrace::packet::Direction;

    fn bundle() -> ModelBundle {
        crate::pipeline::tests::tiny_bundle_for_streaming()
    }

    fn sharded_monitor(b: &Arc<ModelBundle>, shards: usize) -> ShardedTapMonitor {
        ShardedTapMonitor::with_obs(
            Arc::clone(b),
            ShardedMonitorConfig::with_shards(shards),
            Registry::global(),
            Obs::global(),
        )
    }

    #[test]
    fn tap_record_is_thirty_two_bytes() {
        // 8 (timestamp) + 14 (IPv4 five-tuple) + 4 (length), rounded to the
        // timestamp's alignment. Source vectors, merge lookahead, the merged
        // feed, ring slots and batch buffers all hold this, so the size is
        // what a record costs in memory and in every copy between them.
        // Budget for QoS-from-the-wire (ROADMAP): `seq: u16`, `rtp_ts: u32`
        // and `marker: bool` fit in 40; anything wider needs a reason.
        assert_eq!(std::mem::size_of::<TapRecord>(), 32);
    }

    /// Eight interleaved sessions of four titles on one tap.
    fn interleaved_feed() -> (Vec<Session>, Vec<TapRecord>) {
        let titles = [
            GameTitle::Fortnite,
            GameTitle::GenshinImpact,
            GameTitle::CsGo,
            GameTitle::Dota2,
        ];
        let mut generator = SessionGenerator::new();
        let sessions: Vec<Session> = (0..8u64)
            .map(|i| {
                generator.generate(&SessionConfig {
                    kind: TitleKind::Known(titles[i as usize % titles.len()]),
                    settings: StreamSettings::default_pc(),
                    gameplay_secs: 25.0,
                    fidelity: Fidelity::FullPackets,
                    seed: 100 + i,
                })
            })
            .collect();
        let mut feed: Vec<TapRecord> = Vec::new();
        for (i, s) in sessions.iter().enumerate() {
            let offset = i as u64 * 3_000_000; // stagger starts by 3 s
            for p in &s.packets {
                let tuple = match p.dir {
                    Direction::Downstream => s.tuple,
                    Direction::Upstream => s.tuple.reversed(),
                };
                feed.push((p.ts + offset, tuple, p.payload_len));
            }
        }
        feed.sort_by_key(|(ts, _, _)| *ts);
        (sessions, feed)
    }

    /// Canonical, comparable rendering of the fields the paper's operator
    /// cares about; JSON makes the comparison structural and total.
    fn render(mut sessions: Vec<MonitoredSession>) -> Vec<String> {
        sessions.sort_by_key(|m| {
            let t = m.tuple.normalized();
            (t.src_ip, t.src_port, t.dst_ip, t.dst_port)
        });
        sessions
            .into_iter()
            .map(|m| {
                format!(
                    "{} {} {} {} {} {}",
                    m.tuple,
                    m.platform,
                    m.confirmed,
                    m.started_at,
                    m.last_seen,
                    serde_json::to_string(&m.report).expect("report serializes")
                )
            })
            .collect()
    }

    #[test]
    fn sharded_matches_serial_on_interleaved_tap() {
        let b = Arc::new(bundle());
        let (_, feed) = interleaved_feed();

        // Serial reference.
        let mut serial = TapMonitor::with_obs(&b, MonitorConfig::default(), Obs::global());
        serial.ingest_batch(&feed);
        let reference = render(serial.finish_all());
        assert_eq!(reference.len(), 8);

        for shards in [1usize, 4] {
            let mut sharded = sharded_monitor(&b, shards);
            for batch in feed.chunks(256) {
                sharded.ingest_batch(batch);
            }
            let (sessions, stats) = sharded.finish_all();
            assert_eq!(
                render(sessions),
                reference,
                "W={shards} diverged from serial"
            );
            let total = stats.total();
            assert_eq!(total.ingested_packets as usize, feed.len());
            assert_eq!(total.finalized_flows, 8);
            assert_eq!(total.ignored_packets, 0);
            assert!(total.batches > 0);
            assert_eq!(stats.shards(), shards);
        }
    }

    #[test]
    fn drift_sink_reaches_every_shard() {
        use cgc_obs::{DriftConfig, DriftEngine};
        let b = Arc::new(bundle());
        let (_, feed) = interleaved_feed();
        // One private registry and drift engine per monitor; returns what
        // the engine's sink accepted.
        let observed = |shards: Option<usize>| {
            let registry = Registry::new();
            let (sink, _engine) = DriftEngine::new(DriftConfig::default(), &registry);
            let obs = Obs {
                drift: sink,
                ..Obs::on(&registry)
            };
            match shards {
                None => {
                    let mut serial = TapMonitor::with_obs(&b, MonitorConfig::default(), obs);
                    serial.ingest_batch(&feed);
                    serial.finish_all();
                }
                Some(n) => {
                    let config = ShardedMonitorConfig::with_shards(n);
                    let mut sharded =
                        ShardedTapMonitor::with_obs(Arc::clone(&b), config, &registry, obs);
                    sharded.ingest_batch(&feed);
                    sharded.finish_all();
                }
            }
            let snap = registry.snapshot();
            assert_eq!(snap.counter("cgc_drift_shed_total"), Some(0));
            snap.counter("cgc_drift_observations_total").unwrap()
        };
        let serial = observed(None);
        assert!(serial > 0, "the serial monitor feeds the drift engine");
        assert_eq!(observed(Some(2)), serial, "and so does every shard");
    }

    #[test]
    fn sharded_finish_idle_matches_serial_cutoff() {
        let b = Arc::new(bundle());
        let (_, feed) = interleaved_feed();
        let last = feed.last().unwrap().0;

        let mut serial = TapMonitor::with_obs(&b, MonitorConfig::default(), Obs::global());
        let mut sharded = sharded_monitor(&b, 4);
        // Session ends are staggered over ~20 s, so the first cutoff
        // expires a strict subset of the flows and the second expires the
        // rest — both passes must agree with the serial monitor.
        serial.ingest_batch(&feed);
        for batch in feed.chunks(256) {
            sharded.ingest_batch(batch);
        }
        for now in [last + 45_000_000, last + 61_000_000] {
            let a = render(serial.finish_idle(now));
            let c = render(sharded.finish_idle(now));
            assert_eq!(a, c, "finish_idle(now={now}) diverged");
        }
        // Everything expired at the second cutoff; nothing left to drain.
        let (rest, _) = sharded.finish_all();
        assert!(rest.is_empty());
        assert_eq!(serial.finish_all().len(), 0);
    }

    #[test]
    fn stats_snapshot_counts_everything_once() {
        let b = Arc::new(bundle());
        let mut sharded = sharded_monitor(&b, 3);
        let gaming = FiveTuple::udp_v4([10, 0, 0, 1], 49003, [100, 64, 1, 1], 50_000);
        let web = FiveTuple::udp_v4([1, 1, 1, 1], 443, [10, 0, 0, 2], 55_000);
        let feed: Vec<TapRecord> = (0..500u64)
            .flat_map(|i| [(i * 1_000, gaming, 1200), (i * 1_000 + 1, web, 900)])
            .collect();
        sharded.ingest_batch(&feed);
        let stats = sharded.stats();
        let total = stats.total();
        assert_eq!(total.ingested_packets, 500);
        assert_eq!(total.ignored_packets, 500);
        assert_eq!(total.active_flows, 1);
        assert_eq!(stats.per_shard.len(), 3);
        let (out, final_stats) = sharded.finish_all();
        assert_eq!(out.len(), 1);
        assert_eq!(final_stats.total().finalized_flows, 1);
    }

    #[test]
    fn a_slow_worker_holds_the_caller_to_a_bounded_backlog() {
        // Partitioning a batch is far cheaper than analysing it, so a
        // caller that never pauses runs ahead of the worker; the channel
        // bound must stop it a few batches out.
        let registry = Registry::new();
        let mut sharded = ShardedTapMonitor::with_obs(
            Arc::new(bundle()),
            ShardedMonitorConfig::with_shards(1),
            &registry,
            Obs::on(&registry),
        );
        let depth = MonitorMetrics::shard_queue_depth(&registry, 0);
        let gaming = FiveTuple::udp_v4([10, 0, 0, 1], 49003, [100, 64, 1, 1], 50_000);
        const BATCHES: u64 = 100;
        const PER: u64 = 2_048;
        let mut deepest = 0;
        for b in 0..BATCHES {
            let batch: Vec<TapRecord> = (0..PER)
                .map(|i| ((b * PER + i) * 100, gaming, 1200))
                .collect();
            sharded.ingest_batch(&batch);
            deepest = deepest.max(depth.get());
        }
        // What the channel holds plus the batch the worker has in hand.
        assert!(
            deepest <= IN_FLIGHT as i64 + 1,
            "{deepest} batches in flight"
        );
        let (_, stats) = sharded.finish_all();
        assert_eq!(stats.total().ingested_packets, BATCHES * PER);
    }
}
