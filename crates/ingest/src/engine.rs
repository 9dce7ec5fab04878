//! The ingestion engine: bounded queues between tap producers and a
//! single router thread that feeds the analysis pipeline in batches.
//!
//! ```text
//!  producers (replay / capture threads)          router thread
//!  ┌──────────────┐   push(ts,tuple,len)   ┌──────────────────────┐
//!  │IngestProducer├──► queue[shard 0] ─────►                      │
//!  ├──────────────┤                        │  sweep → on_batch ───┼─► BatchSink
//!  │IngestProducer├──► queue[shard 1] ─────►  clock → on_tick     │   (MonitorSink →
//!  └──────────────┘        …               │  quiesce → finish    │    ShardedTapMonitor)
//!                                          └──────────────────────┘
//! ```
//!
//! Records are routed to queues by the direction-invariant routing hash
//! ([`FiveTuple::shard`]: three multiply-xorshift rounds over the tuple's
//! words, no normalization, no division), so both directions of a
//! conversation traverse the same queue and a single producer's per-flow
//! packet order survives end to end. A push is that hash, one copy of
//! the record into its ring slot and one counter increment; the flow's
//! identity hash ([`FiveTuple::flow_id`], byte-serial FNV-1a) is only
//! computed when a trace sink is enabled.
//! Each sweep the router sizes a per-queue drain batch from the observed
//! queue depth, clamped into `[32, 8192]` — shallow queues hand records
//! off with minimal latency, deep queues amortize per-batch sink overhead —
//! claims that many records from the ring in one run
//! ([`BoundedQueue::pop_into`]: one compare-exchange per batch, not per
//! record) and hands them to the sink. Queue depths, batch counts, the
//! chosen batch sizes (`cgc_ingest_batch_size`) and hand-off totals are
//! exported on every sweep.
//!
//! Shutdown is graceful by construction: [`IngestEngine::shutdown`]
//! stops admission (late pushes are rejected *and counted*), waits for
//! every producer handle to drop, lets the router drain the queues dry,
//! then calls [`BatchSink::finish`] — for a [`MonitorSink`] that is the
//! monitor's `finish_all`, which emits final session verdicts.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cgc_core::monitor::MonitoredSession;
use cgc_core::shard::{MonitorStats, ShardedTapMonitor, TapRecord};
use cgc_obs::{Registry, TraceSink, TraceStage};
use nettrace::clock::SharedClock;
use nettrace::packet::FiveTuple;
use nettrace::units::Micros;

use crate::metrics::IngestMetrics;
use crate::queue::{BackpressurePolicy, BoundedQueue, PushOutcome};

/// Where the router delivers drained records. Implemented by
/// [`MonitorSink`] for the real pipeline and by plain collectors in
/// tests, so the engine's queueing/shutdown mechanics are testable
/// without trained models.
pub trait BatchSink: Send + 'static {
    /// What [`finish`](BatchSink::finish) returns once the engine drains.
    type Output: Send + 'static;

    /// Consumes one drained batch (non-empty, queue order).
    fn on_batch(&mut self, records: &[TapRecord]);

    /// Called once per router sweep with the engine clock's reading —
    /// the hook periodic work (idle expiry) hangs off. Default: nothing.
    fn on_tick(&mut self, _now: Micros) {}

    /// Finalizes the sink after the last batch; the return value is
    /// surfaced through [`IngestRun::output`].
    fn finish(self) -> Self::Output;
}

/// [`BatchSink`] adapter over the sharded tap monitor, with optional
/// clock-driven idle expiry between batches.
pub struct MonitorSink {
    monitor: ShardedTapMonitor,
    idle_every: Option<Micros>,
    next_check: Micros,
    closed: Vec<MonitoredSession>,
}

impl MonitorSink {
    /// Wraps `monitor` with no periodic idle expiry: every flow still
    /// open at shutdown is finalized by the end-of-run drain, exactly
    /// like the offline batch path. This is the default because it keeps
    /// replayed runs byte-identical to offline analysis of the same feed.
    pub fn new(monitor: ShardedTapMonitor) -> Self {
        MonitorSink {
            monitor,
            idle_every: None,
            next_check: 0,
            closed: Vec::new(),
        }
    }

    /// Wraps `monitor` and additionally expires idle flows every `every`
    /// microseconds of engine-clock time — the long-lived deployment
    /// mode, where sessions must finalize while the tap keeps running.
    pub fn with_idle_checks(monitor: ShardedTapMonitor, every: Micros) -> Self {
        MonitorSink {
            monitor,
            idle_every: Some(every.max(1)),
            next_check: 0,
            closed: Vec::new(),
        }
    }
}

impl std::fmt::Debug for MonitorSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorSink")
            .field("shards", &self.monitor.shards())
            .field("idle_every", &self.idle_every)
            .field("closed", &self.closed.len())
            .finish()
    }
}

impl BatchSink for MonitorSink {
    type Output = (Vec<MonitoredSession>, MonitorStats);

    fn on_batch(&mut self, records: &[TapRecord]) {
        // One partitioned dispatch per router batch: the router's size
        // choice becomes the unit of delivery to the shard workers.
        self.monitor.ingest_batch(records);
    }

    fn on_tick(&mut self, now: Micros) {
        if let Some(every) = self.idle_every {
            if now >= self.next_check {
                self.closed.extend(self.monitor.finish_idle(now));
                self.next_check = now + every;
            }
        }
    }

    fn finish(mut self) -> Self::Output {
        let (rest, stats) = self.monitor.finish_all();
        self.closed.extend(rest);
        (self.closed, stats)
    }
}

/// Smallest drain batch the router asks a queue for: at trickle rates a
/// hand-off this small is still cheap, and a shallow queue must not wait
/// for more.
const BATCH_MIN: usize = 32;

/// Largest drain batch popped in one gulp: bounds one sink call's latency
/// and the router's reusable buffer, and is past the point where a larger
/// batch amortizes the sink's per-call cost any further.
const BATCH_MAX: usize = 8_192;

/// Records to pop from a queue currently holding `depth` records.
fn batch_size_for(depth: usize) -> usize {
    depth.clamp(BATCH_MIN, BATCH_MAX)
}

/// Engine sizing and policy.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Ingestion queues; records are routed by five-tuple hash (≥ 1).
    pub queues: usize,
    /// Slots per queue (rounded up to a power of two).
    pub queue_capacity: usize,
    /// What producers do when their queue is full.
    pub policy: BackpressurePolicy,
    /// Clock driving [`BatchSink::on_tick`]; `None` disables ticks.
    pub clock: Option<SharedClock>,
    /// Span recorder for the Queue/Router stages; disabled by default —
    /// a disabled sink is one branch per push, no flow hashing.
    pub trace: TraceSink,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            queues: 2,
            queue_capacity: 65_536,
            policy: BackpressurePolicy::Block,
            clock: None,
            trace: TraceSink::disabled(),
        }
    }
}

/// State shared between producers, the router, and the engine handle.
struct EngineShared {
    queues: Vec<BoundedQueue<TapRecord>>,
    policy: BackpressurePolicy,
    metrics: IngestMetrics,
    /// Live [`IngestProducer`] handles; the router only exits once this
    /// reaches zero with admission closed and the queues dry.
    producers: AtomicUsize,
    /// Cleared by shutdown: late pushes are rejected and counted.
    accepting: AtomicBool,
    /// Queue/Router stage spans (possibly disabled or sampled).
    trace: TraceSink,
}

/// A cloneable producer handle. Every clone is tracked; the engine's
/// router keeps draining until the last handle drops, so records pushed
/// by any live producer can never be stranded in a queue.
pub struct IngestProducer {
    shared: Arc<EngineShared>,
}

impl IngestProducer {
    /// Pushes one tap observation, routing by the direction-invariant
    /// [`FiveTuple::shard`]. Returns `false` when the record was *not*
    /// admitted (engine shutting down, or rejected under `drop_newest`);
    /// either way the loss is counted, never silent.
    pub fn push(&self, ts: Micros, wire_tuple: &FiveTuple, payload_len: u32) -> bool {
        let shared = &*self.shared;
        if !shared.accepting.load(Ordering::Acquire) {
            shared.metrics.rejected_closed.inc();
            return false;
        }
        let queue = &shared.queues[wire_tuple.shard(shared.queues.len())];
        let outcome = queue.push((ts, *wire_tuple, payload_len), shared.policy);
        match outcome {
            PushOutcome::Accepted => {}
            PushOutcome::AcceptedAfterBlock => shared.metrics.blocked.inc(),
            PushOutcome::AcceptedDroppingOldest(n) => {
                shared.metrics.count_drop(BackpressurePolicy::DropOldest, n)
            }
            PushOutcome::Rejected => shared.metrics.count_drop(BackpressurePolicy::DropNewest, 1),
        }
        if outcome.accepted() {
            shared.metrics.enqueued.inc();
            if shared.trace.is_enabled() {
                // Flow hashing only happens with tracing on; the sampled-
                // out path is the hash plus one modulo, no allocation.
                shared
                    .trace
                    .record(wire_tuple.flow_id(), 0, TraceStage::Queue, ts, 0);
            }
        }
        outcome.accepted()
    }

    /// Pushes a pre-built tap record.
    pub fn push_record(&self, record: TapRecord) -> bool {
        self.push(record.0, &record.1, record.2)
    }
}

impl Clone for IngestProducer {
    fn clone(&self) -> Self {
        self.shared.producers.fetch_add(1, Ordering::AcqRel);
        IngestProducer {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Drop for IngestProducer {
    fn drop(&mut self) {
        self.shared.producers.fetch_sub(1, Ordering::AcqRel);
    }
}

impl std::fmt::Debug for IngestProducer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestProducer")
            .field("queues", &self.shared.queues.len())
            .field("policy", &self.shared.policy)
            .finish()
    }
}

/// What a completed engine run produced, with registry-lifetime ingest
/// totals alongside the sink's output.
#[derive(Debug)]
pub struct IngestRun<T> {
    /// Whatever the sink's [`BatchSink::finish`] returned (session
    /// reports and monitor stats for a [`MonitorSink`]).
    pub output: T,
    /// Records admitted into the queues.
    pub enqueued: u64,
    /// Records handed from the queues to the sink.
    pub handed_off: u64,
    /// Records lost to backpressure (`drop_oldest` + `drop_newest`).
    pub dropped: u64,
    /// Pushes rejected because shutdown had begun.
    pub rejected_closed: u64,
}

/// A running ingestion engine: queues plus the router thread feeding
/// sink `S`. Create with [`IngestEngine::start`], feed through handles
/// from [`IngestEngine::producer`], end with [`IngestEngine::shutdown`].
///
/// ```
/// use cgc_ingest::{BatchSink, IngestConfig, IngestEngine};
/// use cgc_obs::Registry;
/// use nettrace::packet::FiveTuple;
///
/// struct CountSink(u64);
/// impl BatchSink for CountSink {
///     type Output = u64;
///     fn on_batch(&mut self, batch: &[cgc_core::shard::TapRecord]) {
///         self.0 += batch.len() as u64;
///     }
///     fn finish(self) -> u64 {
///         self.0
///     }
/// }
///
/// let registry = Registry::new();
/// let engine = IngestEngine::start(CountSink(0), IngestConfig::default(), &registry);
/// let producer = engine.producer();
/// let tuple = FiveTuple::udp_v4([10, 0, 0, 1], 49003, [100, 64, 0, 1], 50_000);
/// for i in 0..1_000u64 {
///     assert!(producer.push(i * 10, &tuple, 1_200));
/// }
/// drop(producer); // the router drains until the last producer is gone
/// let run = engine.shutdown();
/// assert_eq!(run.output, 1_000);
/// assert_eq!(run.dropped, 0, "block policy loses nothing");
/// ```
pub struct IngestEngine<S: BatchSink> {
    shared: Arc<EngineShared>,
    router: Option<JoinHandle<S::Output>>,
}

impl<S: BatchSink> IngestEngine<S> {
    /// Builds the queues, registers metrics on `registry`, and spawns
    /// the router thread over `sink`.
    pub fn start(sink: S, config: IngestConfig, registry: &Registry) -> Self {
        let queues = config.queues.max(1);
        let metrics = IngestMetrics::register(registry, queues);
        let shared = Arc::new(EngineShared {
            queues: (0..queues)
                .map(|_| BoundedQueue::with_capacity(config.queue_capacity))
                .collect(),
            policy: config.policy,
            metrics,
            producers: AtomicUsize::new(0),
            accepting: AtomicBool::new(true),
            trace: config.trace.clone(),
        });
        if let Some(q) = shared.queues.first() {
            shared.metrics.queue_capacity.set(q.capacity() as i64);
        }
        let router_shared = Arc::clone(&shared);
        let clock = config.clock.clone();
        let router = std::thread::Builder::new()
            .name("ingest-router".into())
            .spawn(move || router_loop(router_shared, sink, clock))
            .expect("spawn ingest router");
        IngestEngine {
            shared,
            router: Some(router),
        }
    }

    /// A new tracked producer handle.
    pub fn producer(&self) -> IngestProducer {
        self.shared.producers.fetch_add(1, Ordering::AcqRel);
        IngestProducer {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The engine's metric handles (shared with the router).
    pub fn metrics(&self) -> &IngestMetrics {
        &self.shared.metrics
    }

    /// Stops admitting new records without waiting for the drain. Pushes
    /// after this point fail fast and are counted in
    /// `cgc_ingest_rejected_closed_total`. Idempotent.
    fn begin_shutdown(&self) {
        self.shared.accepting.store(false, Ordering::Release);
    }

    /// Graceful shutdown: closes admission, waits for every producer
    /// handle to drop and for the router to drain the queues dry, then
    /// finalizes the sink. Call only after arranging for outstanding
    /// [`IngestProducer`]s to drop (e.g. by cancelling their replay),
    /// otherwise this blocks until they do.
    pub fn shutdown(mut self) -> IngestRun<S::Output> {
        self.begin_shutdown();
        let output = self
            .router
            .take()
            .expect("router joined once")
            .join()
            .expect("ingest router panicked");
        let m = &self.shared.metrics;
        IngestRun {
            output,
            enqueued: m.enqueued.get(),
            handed_off: m.handed_off.get(),
            dropped: m.dropped_total(),
            rejected_closed: m.rejected_closed.get(),
        }
    }
}

impl<S: BatchSink> Drop for IngestEngine<S> {
    /// Dropping without [`shutdown`](IngestEngine::shutdown) still closes
    /// admission so the detached router can exit once producers drop; it
    /// just nobody collects the sink's output.
    fn drop(&mut self) {
        self.begin_shutdown();
    }
}

impl<S: BatchSink> std::fmt::Debug for IngestEngine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestEngine")
            .field("queues", &self.shared.queues.len())
            .field("policy", &self.shared.policy)
            .field("producers", &self.shared.producers.load(Ordering::Relaxed))
            .field("accepting", &self.shared.accepting.load(Ordering::Relaxed))
            .finish()
    }
}

/// The router: sweep queues → hand batches to the sink → tick → exit
/// when admission is closed, no producer survives, and the queues are
/// dry.
fn router_loop<S: BatchSink>(
    shared: Arc<EngineShared>,
    mut sink: S,
    clock: Option<SharedClock>,
) -> S::Output {
    let mut buf: Vec<TapRecord> = Vec::with_capacity(BATCH_MAX);
    let mut empty_sweeps = 0u32;
    loop {
        let mut handed = 0u64;
        for (i, queue) in shared.queues.iter().enumerate() {
            // Depth is sampled once per sweep; racing producers only make
            // the batch smaller or larger than ideal, never incorrect.
            let target = batch_size_for(queue.len());
            buf.clear();
            queue.pop_into(&mut buf, target);
            shared.metrics.queue_depth[i].set(queue.len() as i64);
            if !buf.is_empty() {
                shared.metrics.batch_size.record(buf.len() as u64);
                if shared.trace.is_enabled() {
                    for &(ts, tuple, _) in &buf {
                        shared
                            .trace
                            .record(tuple.flow_id(), 0, TraceStage::Router, ts, 0);
                    }
                }
                sink.on_batch(&buf);
                handed += buf.len() as u64;
            }
        }
        if let Some(c) = &clock {
            sink.on_tick(c.now());
        }
        if handed > 0 {
            shared.metrics.batches.inc();
            shared.metrics.handed_off.add(handed);
            empty_sweeps = 0;
            continue;
        }
        // Quiescence check order matters: once the producer count reads
        // zero with admission closed, no further push can start, so a
        // subsequent all-empty sweep proves the queues are dry for good.
        let quiesced = !shared.accepting.load(Ordering::Acquire)
            && shared.producers.load(Ordering::Acquire) == 0;
        if quiesced && shared.queues.iter().all(|q| q.is_empty()) {
            break;
        }
        empty_sweeps = empty_sweeps.saturating_add(1);
        if empty_sweeps < 64 {
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    for gauge in &shared.metrics.queue_depth {
        gauge.set(0);
    }
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::clock::VirtualClock;
    use std::sync::Mutex;

    fn tuple(flow: u8) -> FiveTuple {
        FiveTuple::udp_v4([10, 0, 0, flow], 49003, [100, 64, 1, flow], 50_000)
    }

    /// Collects every delivered record; output is the collected feed.
    struct VecSink(Vec<TapRecord>);

    impl BatchSink for VecSink {
        type Output = Vec<TapRecord>;
        fn on_batch(&mut self, records: &[TapRecord]) {
            self.0.extend_from_slice(records);
        }
        fn finish(self) -> Vec<TapRecord> {
            self.0
        }
    }

    /// Records every tick time; output is the tick trace.
    struct TickSink(Arc<Mutex<Vec<Micros>>>);

    impl BatchSink for TickSink {
        type Output = ();
        fn on_batch(&mut self, _records: &[TapRecord]) {}
        fn on_tick(&mut self, now: Micros) {
            self.0.lock().unwrap().push(now);
        }
        fn finish(self) {}
    }

    #[test]
    fn concurrent_producers_drain_losslessly_under_block() {
        const PRODUCERS: u8 = 4;
        const PER: u64 = 25_000;
        let registry = Registry::new();
        let engine = IngestEngine::start(
            VecSink(Vec::new()),
            IngestConfig {
                queues: 2,
                queue_capacity: 256, // force real backpressure
                policy: BackpressurePolicy::Block,
                ..Default::default()
            },
            &registry,
        );
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let producer = engine.producer();
                std::thread::spawn(move || {
                    for i in 0..PER {
                        assert!(producer.push(i, &tuple(p), 1200));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let run = engine.shutdown();
        let total = u64::from(PRODUCERS) * PER;
        assert_eq!(run.enqueued, total);
        assert_eq!(run.handed_off, total);
        assert_eq!(run.dropped, 0, "block policy is lossless");
        assert_eq!(run.output.len(), total as usize);
        // Per-flow order survives the queue hop: each producer owns one
        // flow, and its timestamps must arrive strictly increasing.
        let mut next = [0u64; PRODUCERS as usize];
        for &(ts, t, _) in &run.output {
            let flow = t.src_ip.octets()[3] as usize;
            assert_eq!(ts, next[flow], "flow {flow} reordered");
            next[flow] += 1;
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("cgc_ingest_enqueued_total"), Some(total));
        assert_eq!(snap.counter("cgc_ingest_handed_off_total"), Some(total));
    }

    #[test]
    fn drop_newest_losses_show_up_in_run_totals() {
        let registry = Registry::new();
        // A 2-slot queue and a router that can't keep up is guaranteed to
        // reject most of a burst pushed with no consumer yielding.
        let engine = IngestEngine::start(
            VecSink(Vec::new()),
            IngestConfig {
                queues: 1,
                queue_capacity: 2,
                policy: BackpressurePolicy::DropNewest,
                ..Default::default()
            },
            &registry,
        );
        let producer = engine.producer();
        let mut accepted = 0u64;
        for i in 0..10_000u64 {
            if producer.push(i, &tuple(1), 1200) {
                accepted += 1;
            }
        }
        drop(producer);
        let run = engine.shutdown();
        assert_eq!(run.enqueued, accepted);
        assert_eq!(run.handed_off, accepted);
        assert_eq!(run.dropped + accepted, 10_000, "every record accounted");
        assert_eq!(run.output.len(), accepted as usize);
    }

    #[test]
    fn pushes_after_begin_shutdown_are_rejected_and_counted() {
        let registry = Registry::new();
        let engine = IngestEngine::start(VecSink(Vec::new()), IngestConfig::default(), &registry);
        let producer = engine.producer();
        assert!(producer.push(1, &tuple(1), 100));
        engine.begin_shutdown();
        assert!(!producer.push(2, &tuple(1), 100));
        assert!(!producer.push_record((3, tuple(1), 100)));
        drop(producer);
        let run = engine.shutdown();
        assert_eq!(run.enqueued, 1);
        assert_eq!(run.rejected_closed, 2);
        assert_eq!(run.output.len(), 1);
    }

    #[test]
    fn batch_policy_sizes_by_depth() {
        assert_eq!(batch_size_for(0), BATCH_MIN, "shallow clamps to min");
        assert_eq!(batch_size_for(500), 500, "mid-range tracks depth");
        assert_eq!(batch_size_for(100_000), BATCH_MAX, "deep clamps to max");
    }

    #[test]
    fn depth_sized_batching_drains_losslessly_and_respects_max() {
        // More records than one gulp may take: however far the router
        // falls behind, a batch stops at the cap.
        const RECORDS: u64 = 3 * BATCH_MAX as u64;
        let registry = Registry::new();
        let engine = IngestEngine::start(
            VecSink(Vec::new()),
            IngestConfig {
                queues: 1,
                ..Default::default()
            },
            &registry,
        );
        let producer = engine.producer();
        for i in 0..RECORDS {
            assert!(producer.push(i, &tuple(1), 1200));
        }
        drop(producer);
        let run = engine.shutdown();
        assert_eq!(run.handed_off, RECORDS);
        assert_eq!(run.dropped, 0);
        let snap = registry.snapshot();
        let hist = snap.histogram("cgc_ingest_batch_size").unwrap();
        assert!(hist.count > 0, "non-empty batches must be observed");
        assert_eq!(hist.sum, RECORDS, "histogram sums to records handed off");
        assert!(
            hist.max <= BATCH_MAX as u64,
            "no batch may exceed BATCH_MAX, saw {}",
            hist.max
        );
    }

    #[test]
    fn trace_sink_records_queue_and_router_spans() {
        use cgc_obs::{TraceCollector, TraceConfig};
        let registry = Registry::new();
        let (trace, mut collector) = TraceCollector::new(TraceConfig::default(), &registry);
        let engine = IngestEngine::start(
            VecSink(Vec::new()),
            IngestConfig {
                queues: 1,
                queue_capacity: 64,
                trace,
                ..Default::default()
            },
            &registry,
        );
        let producer = engine.producer();
        let flow = tuple(1).flow_id();
        for i in 0..10u64 {
            assert!(producer.push(i, &tuple(1), 1200));
        }
        drop(producer);
        engine.shutdown();
        collector.drain();
        let timeline = collector.timeline(flow).expect("flow traced");
        let queue_spans = timeline
            .spans
            .iter()
            .filter(|s| s.stage == TraceStage::Queue)
            .count();
        let router_spans = timeline
            .spans
            .iter()
            .filter(|s| s.stage == TraceStage::Router)
            .count();
        assert_eq!(queue_spans, 10, "one queue span per admitted record");
        assert_eq!(router_spans, 10, "one router span per handed-off record");
        // The capacity gauge reflects the power-of-two rounded queue size.
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("cgc_ingest_queue_capacity"), Some(64));
        assert_eq!(snap.counter("cgc_trace_spans_total"), Some(20));
    }

    #[test]
    fn disabled_trace_sink_records_nothing() {
        let registry = Registry::new();
        let engine = IngestEngine::start(VecSink(Vec::new()), IngestConfig::default(), &registry);
        let producer = engine.producer();
        assert!(producer.push(1, &tuple(1), 100));
        drop(producer);
        engine.shutdown();
        // No trace families were touched: the counter was never registered.
        assert_eq!(registry.snapshot().counter("cgc_trace_spans_total"), None);
    }

    #[test]
    fn router_ticks_with_the_engine_clock() {
        let registry = Registry::new();
        let clock = VirtualClock::starting_at(42);
        let ticks = Arc::new(Mutex::new(Vec::new()));
        let engine = IngestEngine::start(
            TickSink(Arc::clone(&ticks)),
            IngestConfig {
                clock: Some(clock.shared()),
                ..Default::default()
            },
            &registry,
        );
        clock.advance_to(1_000);
        engine.shutdown();
        let ticks = ticks.lock().unwrap();
        assert!(!ticks.is_empty(), "router must tick while idle");
        assert!(ticks.iter().all(|&t| t == 42 || t == 1_000));
    }
}
