//! The flight recorder: per-flow decision timelines.
//!
//! Producers hold a cheap, cloneable [`EventSink`] and call `emit` at
//! decision points; the sink is one [`channel`](crate::channel) producer
//! handle (lock-free ring, counted shedding, one branch when disabled). A
//! single [`Journal`] — the flow [`Recorder`] over [`FlowTimeline`]s —
//! owns the consumer side: [`Recorder::drain`] moves queued events into
//! per-flow timelines plus a bounded global tail, both capped with
//! explicit truncation accounting — nothing is ever lost silently.

use serde::{Serialize, Value};

use crate::channel::{Family, Sink};
use crate::event::{Event, EventKind, FlowAddr};
use crate::recorder::{Recorder, Timeline};
use crate::registry::Registry;
use cgc_domain::Platform;

/// Ring capacity (a power of two). Producers drop — counted — when the
/// consumer falls this far behind.
const RING_CAPACITY: usize = 1 << 16;
/// Per-flow event cap; a timeline past the cap keeps its prefix and marks
/// itself truncated.
const MAX_EVENTS_PER_FLOW: usize = 1024;
/// Size of the global most-recent-events tail served by `/journal?tail=N`.
const TAIL_EVENTS: usize = 512;

/// The flight recorder's construction argument. It has no fields: the
/// ring, the caps and the tail are the constants of this module, which no
/// caller has ever needed to change.
#[derive(Debug, Clone, Copy, Default)]
pub struct JournalConfig {}

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
    const FAMILIES: [Family; 6] = [
        (
            "cgc_journal_events_total",
            "Events accepted into the flight-recorder ring",
        ),
        (
            "cgc_journal_dropped_events_total",
            "Events dropped because the flight-recorder ring was full",
        ),
        (
            "cgc_journal_truncated_events_total",
            "Drained events discarded by per-flow or flow-count caps",
        ),
        (
            "cgc_journal_flows",
            "Distinct flows currently held in the journal",
        ),
        (
            "cgc_journal_pump_drains_total",
            "Drain passes performed by the off-thread journal consumer",
        ),
        (
            "cgc_journal_pump_events_total",
            "Events moved into timelines by the off-thread journal consumer",
        ),
    ];
    const THREAD: &'static str = "journal-pump";
    const TAIL: usize = TAIL_EVENTS;

    fn new(flow: u64) -> Self {
        FlowTimeline {
            flow,
            addr: None,
            platform: None,
            events: Vec::new(),
            truncated: false,
        }
    }

    fn flow_of(event: &Event) -> u64 {
        event.flow
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
pub type Journal = Recorder<FlowTimeline>;

impl Recorder<FlowTimeline> {
    /// Builds a journal plus the producer sink that feeds it, registering
    /// the drop/volume counters on `registry`.
    pub fn new(_: JournalConfig, registry: &Registry) -> (EventSink, Journal) {
        Recorder::new_with(RING_CAPACITY, MAX_EVENTS_PER_FLOW, registry)
    }

    /// The most recent `n` events across all flows, oldest first.
    pub fn tail(&self, n: usize) -> Vec<Event> {
        let skip = self.tail.len().saturating_sub(n);
        self.tail.iter().skip(skip).copied().collect()
    }

    /// JSONL export of the last `n` events, one event per line.
    pub fn tail_jsonl(&self, n: usize) -> String {
        self.tail(n).iter().map(|e| render_line(e) + "\n").collect()
    }
}

/// Compact single-line JSON for one serializable value (events and
/// timelines serialize from plain owned data, so this cannot fail).
pub fn render_line<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("journal serialization is infallible")
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
        assert_eq!(tls[0].events[0].kind.name(), "launch_window_closed");
        assert_eq!(tls[0].events[2].kind.name(), "flow_closed");
        assert!(tls[0].events.windows(2).all(|w| w[0].ts <= w[1].ts));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("cgc_journal_events_total"), Some(6));
        assert_eq!(snap.counter("cgc_journal_dropped_events_total"), Some(0));
        assert_eq!(snap.gauge("cgc_journal_flows"), Some(2));
    }

    #[test]
    fn tail_keeps_most_recent_events_across_flows() {
        let registry = Registry::new();
        let (sink, mut journal) = Journal::new(JournalConfig::default(), &registry);
        let n = TAIL_EVENTS as u64 + 88;
        for i in 0..n {
            sink.emit(i % 3, i, kinds()[0]);
        }
        journal.drain();
        let tail = journal.tail(4);
        assert_eq!(
            tail.iter().map(|e| e.ts).collect::<Vec<_>>(),
            [n - 4, n - 3, n - 2, n - 1]
        );
        assert_eq!(journal.tail(usize::MAX).len(), TAIL_EVENTS);
        let jsonl = journal.tail_jsonl(2);
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.lines().all(|l| l.contains("\"event\":")));
    }

    #[test]
    fn sink_and_pump_count_under_the_journal_families() {
        let registry = Registry::new();
        let (sink, journal) = Journal::new(JournalConfig::default(), &registry);
        let n = RING_CAPACITY as u64 + 1;
        for i in 0..n {
            sink.emit(i % 4096, i, kinds()[0]);
        }
        let journal = std::sync::Arc::new(std::sync::Mutex::new(journal));
        crate::Pump::start(journal, std::time::Duration::from_secs(3600), &registry).stop();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("cgc_journal_events_total"), Some(n - 1));
        assert_eq!(snap.counter("cgc_journal_dropped_events_total"), Some(1));
        assert_eq!(sink.dropped(), 1);
        assert!(snap.counter("cgc_journal_pump_drains_total").unwrap() > 0);
        assert_eq!(snap.counter("cgc_journal_pump_events_total"), Some(n - 1));
    }
}
