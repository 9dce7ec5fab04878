//! The one flow recorder behind `/journal` and `/trace`: producers push
//! records through a [`channel`](crate::channel), and [`Recorder::drain`]
//! files them into admission-ordered per-flow timelines, bounded by a
//! flow-count cap and a per-flow cap with explicit truncation accounting —
//! nothing is ever lost silently. [`Journal`](crate::Journal) and
//! [`TraceCollector`](crate::TraceCollector) are this recorder over their
//! own [`Timeline`]; a [`Pump`] keeps either one drained off-thread.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use serde::Serialize;

use crate::channel::{lock, Channel, Family, Sink};
use crate::journal::render_line;
use crate::metric::{Counter, Gauge};
use crate::registry::Registry;

/// Distinct flows one recorder holds; records of flows past the cap are
/// counted as truncated.
const MAX_FLOWS: usize = 4096;

/// One flow's ordered records, and the names its recorder counts under.
pub trait Timeline: Serialize + Sized {
    /// What the timeline collects.
    type Item: Copy;
    /// The recorder's families, in order: records accepted into the ring,
    /// records shed because it was full, drained records a cap discarded,
    /// flows held (a gauge), pump drain passes, records the pump moved.
    const FAMILIES: [Family; 6];
    /// Name of the recorder's pump thread.
    const THREAD: &'static str;
    /// Most recent records kept across all flows (0: none).
    const TAIL: usize;

    /// An empty timeline for `flow`.
    fn new(flow: u64) -> Self;

    /// The flow `item` belongs to.
    fn flow_of(item: &Self::Item) -> u64;

    /// Appends `item` unless the per-flow `cap` rules it out; `false` when
    /// it was discarded (the timeline marks itself truncated).
    fn push(&mut self, item: Self::Item, cap: usize) -> bool;
}

/// One multiply in place of SipHash: flow ids are either hashes already
/// (five-tuple FNV) or small sequential session ids, and an odd multiplier
/// spreads both across the table.
#[derive(Default)]
struct FlowIdHasher(u64);

impl Hasher for FlowIdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("flow ids hash through write_u64");
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Consumer side of a flow recorder: the channel and the drained state.
pub struct Recorder<L: Timeline> {
    channel: Arc<Channel<L::Item>>,
    /// Flow-admission order.
    timelines: Vec<L>,
    /// Flow id → position in `timelines`.
    index: HashMap<u64, usize, BuildHasherDefault<FlowIdHasher>>,
    per_flow: usize,
    /// The last [`Timeline::TAIL`] records across all flows.
    pub(crate) tail: VecDeque<L::Item>,
    truncated: Arc<Counter>,
    flows: Arc<Gauge>,
}

impl<L: Timeline> Recorder<L> {
    /// A recorder on a ring of `ring_capacity` records whose timelines
    /// hold (normally) at most `per_flow` records, counting under
    /// [`Timeline::FAMILIES`] on `registry`, plus the sink that feeds it.
    pub(crate) fn new_with(
        ring_capacity: usize,
        per_flow: usize,
        registry: &Registry,
    ) -> (Sink<L::Item>, Self) {
        let [recorded, dropped, truncated, flows, ..] = L::FAMILIES;
        let channel = Channel::new(ring_capacity, registry, recorded, dropped, None);
        let recorder = Recorder {
            timelines: Vec::new(),
            index: HashMap::default(),
            per_flow,
            tail: VecDeque::new(),
            truncated: registry.counter(truncated.0, truncated.1),
            flows: registry.gauge(flows.0, flows.1),
            channel,
        };
        (recorder.channel.sink(), recorder)
    }

    /// Moves every queued record out of the ring into timelines (and the
    /// tail). Returns how many records were drained, including ones the
    /// caps then discarded. Cheap when the ring is empty.
    pub fn drain(&mut self) -> usize {
        let Recorder {
            channel,
            timelines,
            index,
            per_flow,
            tail,
            truncated,
            flows,
        } = self;
        let n = channel.drain(|item| {
            if L::TAIL > 0 {
                tail.push_back(item);
                if tail.len() > L::TAIL {
                    tail.pop_front();
                }
            }
            let flow = L::flow_of(&item);
            let idx = match index.get(&flow) {
                Some(&idx) => idx,
                None => {
                    if timelines.len() >= MAX_FLOWS {
                        truncated.inc();
                        return;
                    }
                    index.insert(flow, timelines.len());
                    timelines.push(L::new(flow));
                    timelines.len() - 1
                }
            };
            if !timelines[idx].push(item, *per_flow) {
                truncated.inc();
            }
        });
        flows.set(timelines.len() as i64);
        n
    }

    /// All timelines in flow-admission order (drain first for freshness).
    pub fn timelines(&self) -> &[L] {
        &self.timelines
    }

    /// The timeline of one flow id, if it has been seen.
    pub fn timeline(&self, flow: u64) -> Option<&L> {
        self.index.get(&flow).map(|&idx| &self.timelines[idx])
    }

    /// Drains, then consumes the recorder, yielding the timelines.
    pub fn into_timelines(mut self) -> Vec<L> {
        self.drain();
        self.timelines
    }

    /// JSONL export: one line per timeline in admission order, or only
    /// `flow`'s line (nothing when the flow was never seen).
    pub fn to_jsonl(&self, flow: Option<u64>) -> String {
        let selected = match flow {
            Some(flow) => self.timeline(flow).map_or(&[][..], std::slice::from_ref),
            None => &self.timelines[..],
        };
        selected.iter().map(|tl| render_line(tl) + "\n").collect()
    }
}

impl<L: Timeline> std::fmt::Debug for Recorder<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("flows", &self.timelines.len())
            .field("tail", &self.tail.len())
            .finish()
    }
}

/// Off-thread consumer: drains a shared recorder every `interval` so its
/// timelines stay fresh in long-lived deployments — scrapes read drained
/// state instead of triggering a drain themselves, and producers get ring
/// space back at a steady cadence rather than at the next scrape.
///
/// Stopping (or dropping) the pump makes the thread run one last pass, so
/// nothing queued at shutdown is lost.
pub struct Pump {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Pump {
    /// Spawns the thread draining `target` every `interval`, counting its
    /// passes and the records it moved under the recorder's pump families
    /// on `registry`.
    pub fn start<L>(
        target: Arc<Mutex<Recorder<L>>>,
        interval: Duration,
        registry: &Registry,
    ) -> Pump
    where
        L: Timeline + Send + 'static,
        L::Item: Send,
    {
        let [.., passes, moved] = L::FAMILIES;
        let passes = registry.counter(passes.0, passes.1);
        let moved = registry.counter(moved.0, moved.1);
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(L::THREAD.into())
            .spawn(move || loop {
                let stopping = {
                    let (stopped, wake) = &*flag;
                    let guard = lock(stopped);
                    *guard
                        || *wake
                            .wait_timeout(guard, interval)
                            .unwrap_or_else(|e| e.into_inner())
                            .0
                };
                // Also the final drain: the pass after the stop flag was
                // seen picks up everything pushed before `stop` was called.
                let n = lock(&target).drain();
                passes.inc();
                if n > 0 {
                    moved.add(n as u64);
                }
                if stopping {
                    break;
                }
            })
            .expect("spawn pump thread");
        Pump {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the thread after its final drain (also what `Drop` does; call
    /// explicitly when you want the join to be visible).
    pub fn stop(self) {}
}

impl Drop for Pump {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let (stopped, wake) = &*self.stop;
            *lock(stopped) = true;
            wake.notify_all();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::trace::{TraceCollector, TraceConfig, TraceStage};
    use crate::Journal;

    fn closed() -> EventKind {
        EventKind::LaunchWindowClosed { packets: 1 }
    }

    #[test]
    fn caps_truncate_with_accounting() {
        let registry = Registry::new();
        let config = TraceConfig {
            max_spans_per_flow: 2,
            ..TraceConfig::default()
        };
        let (sink, mut traces) = TraceCollector::new(config, &registry);
        // Three spans for each of MAX_FLOWS + 1 flows: the last flow is
        // rejected whole, every admitted one keeps two.
        for flow in 0..=MAX_FLOWS as u64 {
            for i in 0..3u64 {
                sink.record(flow, 0, TraceStage::Router, i, 0);
            }
        }
        traces.drain();
        let tls = traces.timelines();
        assert_eq!(tls.len(), MAX_FLOWS, "the last flow is past the flow cap");
        assert!(tls.iter().all(|t| t.spans.len() == 2 && t.truncated));
        assert!(traces.timeline(MAX_FLOWS as u64).is_none());
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("cgc_trace_truncated_spans_total"),
            Some(MAX_FLOWS as u64 + 3),
            "one over-cap span per admitted flow, three of the rejected one"
        );
        assert_eq!(snap.gauge("cgc_trace_flows"), Some(MAX_FLOWS as i64));
    }

    #[test]
    fn jsonl_narrows_to_one_flow() {
        let registry = Registry::new();
        let (sink, mut journal) = Journal::new(Default::default(), &registry);
        sink.emit(7, 0, closed());
        sink.emit(3, 1, closed());
        journal.drain();
        assert_eq!(journal.to_jsonl(None).lines().count(), 2);
        let one = journal.to_jsonl(Some(3));
        assert_eq!(one.lines().count(), 1);
        assert!(one.starts_with("{\"flow\":\"0000000000000003\""), "{one}");
        assert_eq!(journal.to_jsonl(Some(9)), "");
    }

    #[test]
    fn pump_drains_continuously_without_scrapes() {
        let registry = Registry::new();
        let (sink, journal) = Journal::new(Default::default(), &registry);
        let journal = Arc::new(Mutex::new(journal));
        let pump = Pump::start(Arc::clone(&journal), Duration::from_millis(1), &registry);
        for i in 0..50u64 {
            sink.emit(i, i, closed());
        }
        // The consumer runs off-thread: records reach the timelines without
        // anyone calling drain() on this thread.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while lock(&journal).timelines().len() < 50 {
            assert!(std::time::Instant::now() < deadline, "pump never drained");
            std::thread::yield_now();
        }
        pump.stop();
        let snap = registry.snapshot();
        assert!(snap.counter("cgc_journal_pump_drains_total").unwrap() > 0);
        assert_eq!(snap.counter("cgc_journal_pump_events_total"), Some(50));
    }

    #[test]
    fn pump_final_drain_flushes_shutdown_tail() {
        let registry = Registry::new();
        let (sink, traces) = TraceCollector::new(TraceConfig::default(), &registry);
        let traces = Arc::new(Mutex::new(traces));
        // A pump on a long interval: nothing drains until shutdown.
        let pump = Pump::start(Arc::clone(&traces), Duration::from_secs(3600), &registry);
        sink.record(1, 0, TraceStage::Slot, 0, 0);
        sink.record(1, 0, TraceStage::Verdict, 1, 0);
        drop(pump); // final drain on drop
        assert_eq!(lock(&traces).timeline(1).map(|t| t.spans.len()), Some(2));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("cgc_trace_pump_spans_total"), Some(2));
    }
}
