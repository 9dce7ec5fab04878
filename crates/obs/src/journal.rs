//! The flight-recorder consumer: drains the event ring into per-flow
//! decision timelines.
//!
//! Producers hold a cheap, cloneable [`EventSink`] and call `emit` at
//! decision points; the sink is one [`channel`](crate::channel) producer
//! handle (lock-free ring, counted shedding, one branch when disabled). A
//! single [`Journal`] owns the consumer side: [`Journal::drain`] moves
//! queued events into [`FlowTimeline`]s (ordered event vectors keyed by
//! flow id) plus a bounded global tail, both bounded by [`JournalConfig`]
//! caps with explicit truncation accounting — nothing is ever lost
//! silently.

use std::collections::VecDeque;
use std::sync::Arc;

use serde::{Serialize, Value};

use crate::channel::{Channel, Drain, Family, Sink};
use crate::event::{Event, EventKind, FlowAddr};
use crate::registry::Registry;
use crate::timeline::{FlowStore, Timeline};
use cgc_domain::Platform;

/// Sizing knobs for the flight recorder.
#[derive(Debug, Clone, Copy)]
pub struct JournalConfig {
    /// Ring capacity (rounded up to a power of two). Producers drop —
    /// counted — when the consumer falls this far behind.
    pub ring_capacity: usize,
    /// Maximum distinct flows tracked; events for flows past the cap are
    /// counted as truncated.
    pub max_flows: usize,
    /// Per-flow event cap; a timeline past the cap keeps its prefix and
    /// marks itself truncated.
    pub max_events_per_flow: usize,
    /// Size of the global most-recent-events tail served by `/journal?tail=N`.
    pub tail_events: usize,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            ring_capacity: 1 << 16,
            max_flows: 4096,
            max_events_per_flow: 1024,
            tail_events: 512,
        }
    }
}

/// Producer handle of the flight recorder: a [`Sink`] of [`Event`]s.
pub type EventSink = Sink<Event>;

impl Sink<Event> {
    /// Records one event, or counts it as dropped when the ring is full.
    /// On a disabled sink this is a no-op.
    #[inline]
    pub fn emit(&self, flow: u64, ts: u64, kind: EventKind) {
        self.push(Event { flow, ts, kind });
    }
}

/// One flow's ordered decision record.
#[derive(Debug, Clone)]
pub struct FlowTimeline {
    /// Flow id (normalized five-tuple hash, or session id in fleet runs).
    pub flow: u64,
    /// Endpoints, filled in by the flow's `FlowAdmitted` event.
    pub addr: Option<FlowAddr>,
    /// Platform, filled in by the flow's `FlowAdmitted` event.
    pub platform: Option<Platform>,
    /// Events in arrival order (per-flow order is production order: each
    /// flow's events come from one thread).
    pub events: Vec<Event>,
    /// True when the per-flow cap cut this timeline short.
    pub truncated: bool,
}

impl Timeline for FlowTimeline {
    type Item = Event;

    fn new(flow: u64) -> Self {
        FlowTimeline {
            flow,
            addr: None,
            platform: None,
            events: Vec::new(),
            truncated: false,
        }
    }

    fn push(&mut self, event: Event, cap: usize) -> bool {
        if let EventKind::FlowAdmitted { addr, platform } = event.kind {
            self.addr = Some(addr);
            self.platform = Some(platform);
        }
        if self.events.len() >= cap {
            self.truncated = true;
            return false;
        }
        self.events.push(event);
        true
    }
}

impl FlowTimeline {
    /// The first event's kind name, or "empty".
    pub fn first_event(&self) -> &'static str {
        self.events.first().map_or("empty", |e| e.kind.name())
    }

    /// The last event's kind name, or "empty".
    pub fn last_event(&self) -> &'static str {
        self.events.last().map_or("empty", |e| e.kind.name())
    }
}

impl Serialize for FlowTimeline {
    fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> =
            vec![("flow".into(), Value::String(Event::flow_hex(self.flow)))];
        if let Some(addr) = &self.addr {
            if let Value::Object(pairs) = addr.to_value() {
                fields.extend(pairs);
            }
        }
        if let Some(platform) = &self.platform {
            fields.push(("platform".into(), Value::String(platform.to_string())));
        }
        fields.push(("truncated".into(), Value::Bool(self.truncated)));
        fields.push((
            "events".into(),
            Value::Array(self.events.iter().map(|e| e.to_value()).collect()),
        ));
        Value::Object(fields)
    }
}

/// Consumer side of the flight recorder: owns the drained state.
///
/// ```
/// use cgc_obs::event::EventKind;
/// use cgc_obs::journal::{Journal, JournalConfig};
/// use cgc_obs::Registry;
///
/// let registry = Registry::new();
/// let (sink, mut journal) = Journal::new(JournalConfig::default(), &registry);
///
/// // Producers emit from any thread; the sink never blocks.
/// sink.emit(7, 1_000, EventKind::RtpInvalid { payload_len: 480 });
/// sink.emit(7, 2_000, EventKind::RtpInvalid { payload_len: 512 });
///
/// assert_eq!(journal.drain(), 2);
/// let timeline = journal.timeline(7).expect("flow 7 recorded");
/// assert_eq!(timeline.events.len(), 2);
/// assert_eq!(timeline.events[0].ts, 1_000, "per-flow order preserved");
/// ```
pub struct Journal {
    channel: Arc<Channel<Event>>,
    store: FlowStore<FlowTimeline>,
    tail: VecDeque<Event>,
    tail_events: usize,
}

impl Journal {
    /// Builds a journal plus the producer sink that feeds it, registering
    /// the drop/volume counters on `registry`.
    pub fn new(config: JournalConfig, registry: &Registry) -> (EventSink, Journal) {
        let channel = Channel::new(
            config.ring_capacity,
            registry,
            (
                "cgc_journal_events_total",
                "Events accepted into the flight-recorder ring",
            ),
            (
                "cgc_journal_dropped_events_total",
                "Events dropped because the flight-recorder ring was full",
            ),
            None,
        );
        let store = FlowStore::new(
            config.max_flows,
            config.max_events_per_flow,
            registry.counter(
                "cgc_journal_truncated_events_total",
                "Drained events discarded by per-flow or flow-count caps",
            ),
            registry.gauge(
                "cgc_journal_flows",
                "Distinct flows currently held in the journal",
            ),
        );
        let journal = Journal {
            channel,
            store,
            tail: VecDeque::new(),
            tail_events: config.tail_events,
        };
        (journal.sink(), journal)
    }

    /// Another producer handle for this journal.
    pub fn sink(&self) -> EventSink {
        self.channel.sink()
    }

    /// Moves every queued event out of the ring into timelines and the
    /// tail. Returns how many events were drained (including ones the caps
    /// then discarded). Cheap when the ring is empty.
    pub fn drain(&mut self) -> usize {
        let Journal {
            channel,
            store,
            tail,
            tail_events,
        } = self;
        let n = channel.drain(|event| {
            tail.push_back(event);
            while tail.len() > *tail_events {
                tail.pop_front();
            }
            store.absorb(event.flow, event);
        });
        store.sync_gauge();
        n
    }

    /// All timelines in flow-admission order (drain first for freshness).
    pub fn timelines(&self) -> &[FlowTimeline] {
        self.store.timelines()
    }

    /// Consumes the journal, yielding the timelines.
    pub fn into_timelines(mut self) -> Vec<FlowTimeline> {
        self.drain();
        self.store.take()
    }

    /// The timeline for one flow id, if it has been seen.
    pub fn timeline(&self, flow: u64) -> Option<&FlowTimeline> {
        self.store.timeline(flow)
    }

    /// The most recent `n` events across all flows, oldest first.
    pub fn tail(&self, n: usize) -> Vec<Event> {
        let skip = self.tail.len().saturating_sub(n);
        self.tail.iter().skip(skip).copied().collect()
    }

    /// JSONL export: one line per flow timeline, admission order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for tl in self.timelines() {
            out.push_str(&render_line(tl));
            out.push('\n');
        }
        out
    }

    /// JSONL export of the last `n` events, one event per line.
    pub fn tail_jsonl(&self, n: usize) -> String {
        let mut out = String::new();
        for e in self.tail(n) {
            out.push_str(&render_line(&e));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("flows", &self.timelines().len())
            .field("tail", &self.tail.len())
            .finish()
    }
}

/// Compact single-line JSON for one serializable value (events and
/// timelines serialize from plain owned data, so this cannot fail).
pub fn render_line<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("journal serialization is infallible")
}

/// Under a [`Pump`](crate::Pump) the journal's timelines stay fresh in a
/// long-lived deployment without anyone scraping.
impl Drain for Journal {
    const THREAD: &'static str = "journal-pump";
    const PASSES: Family = (
        "cgc_journal_pump_drains_total",
        "Drain passes performed by the off-thread journal consumer",
    );
    const MOVED: Family = (
        "cgc_journal_pump_events_total",
        "Events moved into timelines by the off-thread journal consumer",
    );

    fn drain(&mut self) -> usize {
        Journal::drain(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CloseCause;

    fn kinds() -> [EventKind; 3] {
        [
            EventKind::LaunchWindowClosed { packets: 10 },
            EventKind::PatternInferred {
                pattern: cgc_domain::ActivityPattern::ALL[0],
                confidence: 0.8,
            },
            EventKind::FlowClosed {
                cause: CloseCause::Drained,
                confirmed: true,
            },
        ]
    }

    #[test]
    fn drain_builds_per_flow_timelines_in_admission_order() {
        let registry = Registry::new();
        let (sink, mut journal) = Journal::new(JournalConfig::default(), &registry);
        // Interleave two flows; flow 7 admitted first.
        for (i, k) in kinds().into_iter().enumerate() {
            sink.emit(7, i as u64 * 10, k);
            sink.emit(3, i as u64 * 10 + 5, k);
        }
        assert_eq!(journal.drain(), 6);
        let tls = journal.timelines();
        assert_eq!(tls.len(), 2);
        assert_eq!(tls[0].flow, 7);
        assert_eq!(tls[1].flow, 3);
        assert_eq!(tls[0].events.len(), 3);
        assert_eq!(tls[0].first_event(), "launch_window_closed");
        assert_eq!(tls[0].last_event(), "flow_closed");
        assert!(tls[0].events.windows(2).all(|w| w[0].ts <= w[1].ts));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("cgc_journal_events_total"), Some(6));
        assert_eq!(snap.counter("cgc_journal_dropped_events_total"), Some(0));
        assert_eq!(snap.gauge("cgc_journal_flows"), Some(2));
    }

    #[test]
    fn caps_truncate_with_accounting() {
        let registry = Registry::new();
        let config = JournalConfig {
            max_flows: 2,
            max_events_per_flow: 2,
            ..JournalConfig::default()
        };
        let (sink, mut journal) = Journal::new(config, &registry);
        for flow in 1..=3u64 {
            for i in 0..3u64 {
                sink.emit(flow, i, kinds()[0]);
            }
        }
        journal.drain();
        let tls = journal.timelines();
        assert_eq!(tls.len(), 2, "third flow rejected by max_flows");
        assert!(tls.iter().all(|t| t.events.len() == 2 && t.truncated));
        let snap = registry.snapshot();
        // 2 flows x 1 over-cap event + 3 events of the rejected flow.
        assert_eq!(snap.counter("cgc_journal_truncated_events_total"), Some(5));
    }

    #[test]
    fn tail_keeps_most_recent_events_across_flows() {
        let registry = Registry::new();
        let config = JournalConfig {
            tail_events: 4,
            ..JournalConfig::default()
        };
        let (sink, mut journal) = Journal::new(config, &registry);
        for i in 0..10u64 {
            sink.emit(i % 3, i, kinds()[0]);
        }
        journal.drain();
        let tail = journal.tail(4);
        assert_eq!(tail.iter().map(|e| e.ts).collect::<Vec<_>>(), [6, 7, 8, 9]);
        assert_eq!(journal.tail(2).len(), 2);
        let jsonl = journal.tail_jsonl(2);
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.lines().all(|l| l.contains("\"event\":")));
    }

    #[test]
    fn timeline_jsonl_is_one_object_per_flow() {
        let registry = Registry::new();
        let (sink, mut journal) = Journal::new(JournalConfig::default(), &registry);
        let addr = FlowAddr {
            server_ip: "10.1.2.3".parse().unwrap(),
            server_port: 9999,
            client_ip: "100.64.0.9".parse().unwrap(),
            client_port: 51000,
        };
        sink.emit(
            42,
            0,
            EventKind::FlowAdmitted {
                addr,
                platform: Platform::AmazonLuna,
            },
        );
        sink.emit(42, 9, kinds()[2]);
        journal.drain();
        let jsonl = journal.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        let line = jsonl.lines().next().unwrap();
        assert!(line.contains("\"flow\":\"000000000000002a\""), "{line}");
        assert!(line.contains("\"server\":\"10.1.2.3:9999\""), "{line}");
        assert!(line.contains("\"platform\":"), "{line}");
        assert!(line.contains("\"events\":["), "{line}");
        let tl = journal.timeline(42).unwrap();
        assert_eq!(tl.platform, Some(Platform::AmazonLuna));
        assert!(journal.timeline(1).is_none());
    }

    #[test]
    fn sink_and_pump_count_under_the_journal_families() {
        let registry = Registry::new();
        let config = JournalConfig {
            ring_capacity: 2,
            ..JournalConfig::default()
        };
        let (sink, journal) = Journal::new(config, &registry);
        for i in 0..3u64 {
            sink.emit(1, i, kinds()[0]);
        }
        let journal = Arc::new(std::sync::Mutex::new(journal));
        crate::Pump::start(journal, std::time::Duration::from_secs(3600), &registry).stop();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("cgc_journal_events_total"), Some(2));
        assert_eq!(snap.counter("cgc_journal_dropped_events_total"), Some(1));
        assert_eq!(sink.dropped(), 1);
        assert!(snap.counter("cgc_journal_pump_drains_total").unwrap() > 0);
        assert_eq!(snap.counter("cgc_journal_pump_events_total"), Some(2));
    }
}
