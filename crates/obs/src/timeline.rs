//! The flow-keyed timeline store behind [`Journal`](crate::Journal) and
//! [`TraceCollector`](crate::TraceCollector): admission-ordered per-flow
//! record vectors, bounded by a flow-count cap and a per-flow cap with
//! explicit truncation accounting — nothing is ever lost silently.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::metric::{Counter, Gauge};

/// One flow's ordered records.
pub(crate) trait Timeline {
    /// What the timeline collects.
    type Item;

    /// An empty timeline for `flow`.
    fn new(flow: u64) -> Self;

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

pub(crate) struct FlowStore<L> {
    /// Flow-admission order.
    timelines: Vec<L>,
    /// Flow id → position in `timelines`.
    index: HashMap<u64, usize, BuildHasherDefault<FlowIdHasher>>,
    max_flows: usize,
    max_per_flow: usize,
    truncated: Arc<Counter>,
    flows: Arc<Gauge>,
}

impl<L: Timeline> FlowStore<L> {
    /// A store of at most `max_flows` timelines of (normally) at most
    /// `max_per_flow` records, counting discards in `truncated` and
    /// publishing its size to `flows`.
    pub fn new(
        max_flows: usize,
        max_per_flow: usize,
        truncated: Arc<Counter>,
        flows: Arc<Gauge>,
    ) -> Self {
        FlowStore {
            timelines: Vec::new(),
            index: HashMap::default(),
            max_flows,
            max_per_flow,
            truncated,
            flows,
        }
    }

    /// Files `item` under `flow`, admitting the flow on first sight.
    pub fn absorb(&mut self, flow: u64, item: L::Item) {
        let idx = match self.index.get(&flow) {
            Some(&idx) => idx,
            None => {
                if self.timelines.len() >= self.max_flows {
                    self.truncated.inc();
                    return;
                }
                self.index.insert(flow, self.timelines.len());
                self.timelines.push(L::new(flow));
                self.timelines.len() - 1
            }
        };
        if !self.timelines[idx].push(item, self.max_per_flow) {
            self.truncated.inc();
        }
    }

    /// Publishes the flow count (call after a drain).
    pub fn sync_gauge(&self) {
        self.flows.set(self.timelines.len() as i64);
    }

    /// All timelines in flow-admission order.
    pub fn timelines(&self) -> &[L] {
        &self.timelines
    }

    /// The timeline of one flow, if it has been seen.
    pub fn timeline(&self, flow: u64) -> Option<&L> {
        self.index.get(&flow).map(|&idx| &self.timelines[idx])
    }

    /// Takes the timelines out, leaving the store empty.
    pub fn take(&mut self) -> Vec<L> {
        self.index.clear();
        std::mem::take(&mut self.timelines)
    }
}
