//! End-to-end pipeline tracing: per-flow span records across the whole
//! record path — ingest replay → k-way merge → bounded queue → router
//! batch → shard hand-off → pipeline slot → classifier → verdict.
//!
//! Producers hold a cheap, cloneable [`TraceSink`] and call
//! [`TraceSink::record`] at stage boundaries; the sink applies head-based
//! sampling on the flow id (`--trace-sample 1/N`) in front of one
//! [`channel`](crate::channel) producer handle — drops are counted, never
//! silent. A single [`TraceCollector`] owns the consumer side:
//! [`TraceCollector::drain`] moves queued spans into [`TraceTimeline`]s
//! keyed by flow id, bounded by [`TraceConfig`] caps with explicit
//! truncation accounting.
//!
//! A disabled sink is a single branch per record; a sampled-out flow pays
//! the branch plus one modulo. Neither path allocates — [`SpanRecord`] is
//! `Copy` and the ring stores it inline.

use std::sync::Arc;

use serde::{Serialize, Value};

use crate::channel::{Channel, Drain, Family, Sink};
use crate::event::Event;
use crate::registry::Registry;
use crate::timeline::{FlowStore, Timeline};

/// The pipeline stage a span was recorded at, in causal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceStage {
    /// Paced replay released the record toward the producer.
    Ingest,
    /// The k-way merge emitted the record in global timestamp order.
    Merge,
    /// The producer enqueued the record onto a bounded ingest queue.
    Queue,
    /// The router drained the record as part of an adaptive batch.
    Router,
    /// The sharded monitor handed the record to its worker shard.
    Shard,
    /// The per-flow analyzer closed a volumetric slot.
    Slot,
    /// The title classifier produced its launch-window decision.
    Classifier,
    /// The session verdict (stage mix + QoE) was finalized.
    Verdict,
}

impl TraceStage {
    /// Every stage, in causal pipeline order.
    pub const ALL: [TraceStage; 8] = [
        TraceStage::Ingest,
        TraceStage::Merge,
        TraceStage::Queue,
        TraceStage::Router,
        TraceStage::Shard,
        TraceStage::Slot,
        TraceStage::Classifier,
        TraceStage::Verdict,
    ];

    /// Stable snake_case name (JSONL `stage` field, table column).
    pub fn name(self) -> &'static str {
        match self {
            TraceStage::Ingest => "ingest",
            TraceStage::Merge => "merge",
            TraceStage::Queue => "queue",
            TraceStage::Router => "router",
            TraceStage::Shard => "shard",
            TraceStage::Slot => "slot",
            TraceStage::Classifier => "classifier",
            TraceStage::Verdict => "verdict",
        }
    }

    /// Causal rank: earlier pipeline stages sort first.
    pub fn rank(self) -> u8 {
        self as u8
    }
}

impl std::fmt::Display for TraceStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The trace id for a flow's span context: the interned flow key with the
/// slot index folded into the high bits. Deterministic and reconstructable
/// from any [`SpanRecord`], so an exemplar's `trace` label resolves back
/// to a `/trace?flow=` timeline.
pub fn trace_id(flow: u64, slot: u32) -> u64 {
    flow ^ u64::from(slot).rotate_right(24)
}

/// One stage crossing of one flow: the unit stored in the span ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Flow id (direction-invariant normalized five-tuple hash — the same
    /// id the decision journal keys on).
    pub flow: u64,
    /// Volumetric slot index for per-slot stages, 0 for transport stages.
    pub slot: u32,
    /// The pipeline stage this span covers.
    pub stage: TraceStage,
    /// Span timestamp (µs on the run's virtual or real clock).
    pub ts: u64,
    /// Span duration in µs (0 when the stage is a point event).
    pub dur_us: u64,
}

impl SpanRecord {
    /// This span's trace id (see [`trace_id`]).
    pub fn trace(&self) -> u64 {
        trace_id(self.flow, self.slot)
    }
}

impl Serialize for SpanRecord {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("flow".into(), Value::String(Event::flow_hex(self.flow))),
            ("trace".into(), Value::String(Event::flow_hex(self.trace()))),
            ("slot".into(), Value::UInt(u64::from(self.slot))),
            ("stage".into(), Value::String(self.stage.name().into())),
            ("ts".into(), Value::UInt(self.ts)),
            ("dur_us".into(), Value::UInt(self.dur_us)),
        ])
    }
}

impl std::fmt::Display for SpanRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "t+{:.1}s flow {:08x} slot {:>3} {:<10} {}us",
            self.ts as f64 / 1_000_000.0,
            self.flow & 0xffff_ffff,
            self.slot,
            self.stage.name(),
            self.dur_us
        )
    }
}

/// Sizing and sampling knobs for the span recorder.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Ring capacity (rounded up to a power of two). Producers drop —
    /// counted — when the consumer falls this far behind.
    pub ring_capacity: usize,
    /// Head-based sampling: record flows whose id satisfies
    /// `flow % sample == 0` (1 = every flow). Sampling keys on the flow id
    /// so every stage of a sampled flow is kept — partial chains would be
    /// worse than none.
    pub sample: u64,
    /// Maximum distinct flows tracked; spans for flows past the cap are
    /// counted as truncated.
    pub max_flows: usize,
    /// Per-flow span cap; a timeline past the cap keeps its prefix and
    /// marks itself truncated.
    pub max_spans_per_flow: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ring_capacity: 1 << 16,
            sample: 1,
            max_flows: 4096,
            max_spans_per_flow: 1024,
        }
    }
}

impl TraceConfig {
    /// Sets the 1/N head-sampling ratio (0 is clamped to 1).
    pub fn with_sample(mut self, sample: u64) -> Self {
        self.sample = sample.max(1);
        self
    }
}

/// Producer handle: clone freely, record from any thread, never blocks.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    sink: Sink<SpanRecord>,
    /// Head-sampling modulus (≥ 1 on an enabled sink).
    sample: u64,
}

impl TraceSink {
    /// A sink that records nowhere — every record is one branch.
    pub fn disabled() -> Self {
        TraceSink::default()
    }

    /// True when records actually go somewhere.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_enabled()
    }

    /// True when `flow` passes head sampling on an enabled sink. Callers
    /// with per-span setup cost (timers, exemplar capture) check this
    /// first; [`TraceSink::record`] re-applies the same predicate.
    pub fn sampled(&self, flow: u64) -> bool {
        self.sink.is_enabled() && flow.is_multiple_of(self.sample)
    }

    /// Records one span for a sampled flow, or counts it as dropped when
    /// the ring is full. Sampled-out flows and disabled sinks are no-ops.
    #[inline]
    pub fn record(&self, flow: u64, slot: u32, stage: TraceStage, ts: u64, dur_us: u64) {
        if self.sampled(flow) {
            self.sink.push(SpanRecord {
                flow,
                slot,
                stage,
                ts,
                dur_us,
            });
        }
    }
}

/// One flow's spans across the pipeline, in arrival order.
#[derive(Debug, Clone)]
pub struct TraceTimeline {
    /// Flow id (normalized five-tuple hash).
    pub flow: u64,
    /// Spans in drain order.
    pub spans: Vec<SpanRecord>,
    /// True when the per-flow cap cut this timeline short.
    pub truncated: bool,
}

impl Timeline for TraceTimeline {
    type Item = SpanRecord;

    fn new(flow: u64) -> Self {
        TraceTimeline {
            flow,
            spans: Vec::new(),
            truncated: false,
        }
    }

    /// Stage-aware truncation: the cap bounds per-flow volume, but a
    /// stage's *first* span is always kept — a long flow whose early
    /// high-volume stages (merge, queue, router) exhaust the cap still
    /// reconstructs its full causal chain down to the verdict.
    fn push(&mut self, span: SpanRecord, cap: usize) -> bool {
        if self.spans.len() >= cap && self.has_stage(span.stage) {
            self.truncated = true;
            return false;
        }
        self.spans.push(span);
        true
    }
}

impl TraceTimeline {
    /// Spans sorted into causal order: stage rank first, then timestamp,
    /// then slot — the reconstructed end-to-end chain.
    pub fn causal_chain(&self) -> Vec<SpanRecord> {
        let mut chain = self.spans.clone();
        chain.sort_by_key(|s| (s.stage.rank(), s.ts, s.slot));
        chain
    }

    /// True when at least one span was recorded at `stage`.
    fn has_stage(&self, stage: TraceStage) -> bool {
        self.spans.iter().any(|s| s.stage == stage)
    }

    /// The distinct stages present, in causal order.
    pub fn stages(&self) -> Vec<TraceStage> {
        TraceStage::ALL
            .into_iter()
            .filter(|&st| self.has_stage(st))
            .collect()
    }
}

impl Serialize for TraceTimeline {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("flow".into(), Value::String(Event::flow_hex(self.flow))),
            ("truncated".into(), Value::Bool(self.truncated)),
            (
                "spans".into(),
                Value::Array(self.spans.iter().map(|s| s.to_value()).collect()),
            ),
        ])
    }
}

/// Consumer side of the span recorder: owns the drained state.
///
/// ```
/// use cgc_obs::trace::{TraceCollector, TraceConfig, TraceStage};
/// use cgc_obs::Registry;
///
/// let registry = Registry::new();
/// let (sink, mut traces) = TraceCollector::new(TraceConfig::default(), &registry);
///
/// sink.record(7, 0, TraceStage::Queue, 1_000, 0);
/// sink.record(7, 0, TraceStage::Router, 1_250, 250);
///
/// assert_eq!(traces.drain(), 2);
/// let tl = traces.timeline(7).expect("flow 7 recorded");
/// assert_eq!(tl.spans.len(), 2);
/// assert_eq!(tl.stages(), [TraceStage::Queue, TraceStage::Router]);
/// ```
pub struct TraceCollector {
    channel: Arc<Channel<SpanRecord>>,
    store: FlowStore<TraceTimeline>,
    sample: u64,
}

impl TraceCollector {
    /// Builds a collector plus the producer sink that feeds it,
    /// registering the drop/volume counters on `registry`.
    pub fn new(config: TraceConfig, registry: &Registry) -> (TraceSink, TraceCollector) {
        let channel = Channel::new(
            config.ring_capacity,
            registry,
            (
                "cgc_trace_spans_total",
                "Spans accepted into the trace ring",
            ),
            (
                "cgc_trace_dropped_spans_total",
                "Spans dropped because the trace ring was full",
            ),
            None,
        );
        let store = FlowStore::new(
            config.max_flows,
            config.max_spans_per_flow,
            registry.counter(
                "cgc_trace_truncated_spans_total",
                "Drained spans discarded by per-flow or flow-count caps",
            ),
            registry.gauge(
                "cgc_trace_flows",
                "Distinct flows currently held by the trace collector",
            ),
        );
        let collector = TraceCollector {
            channel,
            store,
            sample: config.sample.max(1),
        };
        (collector.sink(), collector)
    }

    /// Another producer handle for this collector.
    pub fn sink(&self) -> TraceSink {
        TraceSink {
            sink: self.channel.sink(),
            sample: self.sample,
        }
    }

    /// Moves every queued span out of the ring into timelines. Returns how
    /// many spans were drained (including ones the caps then discarded).
    /// Cheap when the ring is empty.
    pub fn drain(&mut self) -> usize {
        let store = &mut self.store;
        let n = self.channel.drain(|span| store.absorb(span.flow, span));
        store.sync_gauge();
        n
    }

    /// All timelines in flow-admission order (drain first for freshness).
    pub fn timelines(&self) -> &[TraceTimeline] {
        self.store.timelines()
    }

    /// Consumes the collector, yielding the timelines.
    pub fn into_timelines(mut self) -> Vec<TraceTimeline> {
        self.drain();
        self.store.take()
    }

    /// The timeline for one flow id, if it has been seen.
    pub fn timeline(&self, flow: u64) -> Option<&TraceTimeline> {
        self.store.timeline(flow)
    }

    /// JSONL export: one line per flow timeline, admission order. `flow`
    /// narrows to one flow; `slot` keeps only spans of that slot (and
    /// drops flows with none).
    pub fn to_jsonl_filtered(&self, flow: Option<u64>, slot: Option<u32>) -> String {
        let mut out = String::new();
        for tl in self.timelines() {
            if flow.is_some_and(|f| f != tl.flow) {
                continue;
            }
            match slot {
                None => {
                    out.push_str(&crate::journal::render_line(tl));
                    out.push('\n');
                }
                Some(s) => {
                    let narrowed = TraceTimeline {
                        flow: tl.flow,
                        spans: tl.spans.iter().filter(|sp| sp.slot == s).copied().collect(),
                        truncated: tl.truncated,
                    };
                    if !narrowed.spans.is_empty() {
                        out.push_str(&crate::journal::render_line(&narrowed));
                        out.push('\n');
                    }
                }
            }
        }
        out
    }

    /// JSONL export of every timeline.
    pub fn to_jsonl(&self) -> String {
        self.to_jsonl_filtered(None, None)
    }
}

impl std::fmt::Debug for TraceCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCollector")
            .field("flows", &self.timelines().len())
            .finish()
    }
}

/// Under a [`Pump`](crate::Pump) the span ring keeps space for new spans
/// — without one, a long run with eager stages (merge, per-record
/// queue/router) fills the ring between scrapes and later stages count as
/// drops.
impl Drain for TraceCollector {
    const THREAD: &'static str = "trace-pump";
    const PASSES: Family = (
        "cgc_trace_pump_drains_total",
        "Drain passes performed by the off-thread trace consumer",
    );
    const MOVED: Family = (
        "cgc_trace_pump_spans_total",
        "Spans moved into timelines by the off-thread trace consumer",
    );

    fn drain(&mut self) -> usize {
        TraceCollector::drain(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_and_pump_count_under_the_trace_families() {
        let registry = Registry::new();
        let config = TraceConfig {
            ring_capacity: 2,
            ..TraceConfig::default()
        };
        let (sink, collector) = TraceCollector::new(config, &registry);
        for i in 0..3u64 {
            sink.record(1, 0, TraceStage::Slot, i, 0);
        }
        let collector = Arc::new(std::sync::Mutex::new(collector));
        crate::Pump::start(collector, std::time::Duration::from_secs(3600), &registry).stop();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("cgc_trace_spans_total"), Some(2));
        assert_eq!(snap.counter("cgc_trace_dropped_spans_total"), Some(1));
        assert!(snap.counter("cgc_trace_pump_drains_total").unwrap() > 0);
        assert_eq!(snap.counter("cgc_trace_pump_spans_total"), Some(2));
    }

    #[test]
    fn disabled_sink_is_never_sampled() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        assert!(!sink.sampled(0));
        sink.record(1, 0, TraceStage::Ingest, 0, 0); // must not panic
    }

    #[test]
    fn drain_builds_per_flow_timelines_in_admission_order() {
        let registry = Registry::new();
        let (sink, mut traces) = TraceCollector::new(TraceConfig::default(), &registry);
        for (i, stage) in TraceStage::ALL.into_iter().enumerate() {
            sink.record(7, 0, stage, i as u64 * 10, i as u64);
            sink.record(3, 0, stage, i as u64 * 10 + 5, i as u64);
        }
        assert_eq!(traces.drain(), 16);
        let tls = traces.timelines();
        assert_eq!(tls.len(), 2);
        assert_eq!(tls[0].flow, 7);
        assert_eq!(tls[1].flow, 3);
        assert_eq!(tls[0].stages(), TraceStage::ALL.to_vec());
        let chain = tls[0].causal_chain();
        assert!(chain
            .windows(2)
            .all(|w| w[0].stage.rank() <= w[1].stage.rank()));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("cgc_trace_spans_total"), Some(16));
        assert_eq!(snap.counter("cgc_trace_dropped_spans_total"), Some(0));
        assert_eq!(snap.gauge("cgc_trace_flows"), Some(2));
    }

    #[test]
    fn head_sampling_keys_on_flow_id() {
        let registry = Registry::new();
        let config = TraceConfig::default().with_sample(4);
        let (sink, mut traces) = TraceCollector::new(config, &registry);
        for flow in 0..16u64 {
            assert_eq!(sink.sampled(flow), flow % 4 == 0);
            sink.record(flow, 0, TraceStage::Queue, flow, 0);
            sink.record(flow, 0, TraceStage::Shard, flow + 1, 0);
        }
        traces.drain();
        // Only flows 0, 4, 8, 12 recorded — but each kept its whole chain.
        assert_eq!(traces.timelines().len(), 4);
        assert!(traces
            .timelines()
            .iter()
            .all(|t| t.flow % 4 == 0 && t.spans.len() == 2));
    }

    #[test]
    fn zero_sample_clamps_to_record_everything() {
        let config = TraceConfig::default().with_sample(0);
        assert_eq!(config.sample, 1);
        let registry = Registry::new();
        let (sink, mut traces) = TraceCollector::new(
            TraceConfig {
                sample: 0,
                ..TraceConfig::default()
            },
            &registry,
        );
        sink.record(5, 0, TraceStage::Ingest, 0, 0);
        assert_eq!(traces.drain(), 1);
    }

    #[test]
    fn caps_truncate_with_accounting() {
        let registry = Registry::new();
        let config = TraceConfig {
            max_flows: 2,
            max_spans_per_flow: 2,
            ..TraceConfig::default()
        };
        let (sink, mut traces) = TraceCollector::new(config, &registry);
        for flow in 1..=3u64 {
            for i in 0..3u64 {
                sink.record(flow, 0, TraceStage::Router, i, 0);
            }
        }
        traces.drain();
        let tls = traces.timelines();
        assert_eq!(tls.len(), 2, "third flow rejected by max_flows");
        assert!(tls.iter().all(|t| t.spans.len() == 2 && t.truncated));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("cgc_trace_truncated_spans_total"), Some(5));
    }

    #[test]
    fn jsonl_filters_by_flow_and_slot() {
        let registry = Registry::new();
        let (sink, mut traces) = TraceCollector::new(TraceConfig::default(), &registry);
        sink.record(0xa, 1, TraceStage::Slot, 10, 2);
        sink.record(0xa, 2, TraceStage::Slot, 20, 3);
        sink.record(0xb, 1, TraceStage::Slot, 15, 1);
        traces.drain();
        assert_eq!(traces.to_jsonl().lines().count(), 2);
        let one = traces.to_jsonl_filtered(Some(0xa), None);
        assert_eq!(one.lines().count(), 1);
        assert!(one.contains("\"flow\":\"000000000000000a\""), "{one}");
        let slot2 = traces.to_jsonl_filtered(None, Some(2));
        assert_eq!(slot2.lines().count(), 1, "only flow 0xa has slot 2");
        assert!(slot2.contains("\"slot\":2"), "{slot2}");
        assert!(!slot2.contains("\"slot\":1"), "{slot2}");
    }

    #[test]
    fn span_jsonl_schema_is_flat_and_stable() {
        let span = SpanRecord {
            flow: 0xabcd,
            slot: 3,
            stage: TraceStage::Classifier,
            ts: 5_000_000,
            dur_us: 42,
        };
        let line = crate::journal::render_line(&span);
        assert!(line.contains("\"flow\":\"000000000000abcd\""), "{line}");
        assert!(line.contains("\"stage\":\"classifier\""), "{line}");
        assert!(line.contains("\"ts\":5000000"), "{line}");
        assert!(line.contains("\"dur_us\":42"), "{line}");
        assert!(
            line.contains(&format!("\"trace\":\"{}\"", Event::flow_hex(span.trace()))),
            "{line}"
        );
    }

    #[test]
    fn trace_id_is_deterministic_and_slot_sensitive() {
        assert_eq!(trace_id(7, 3), trace_id(7, 3));
        assert_ne!(trace_id(7, 3), trace_id(7, 4));
        assert_ne!(trace_id(7, 3), trace_id(8, 3));
        let span = SpanRecord {
            flow: 7,
            slot: 3,
            stage: TraceStage::Slot,
            ts: 0,
            dur_us: 0,
        };
        assert_eq!(span.trace(), trace_id(7, 3));
    }
}
