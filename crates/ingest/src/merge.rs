//! K-way merge of timestamped tap feeds into one globally ordered stream.
//!
//! An ISP aggregation point sees many links at once: several NICs,
//! several pcaps from different vantage points, several simulated taps —
//! each feed internally (mostly) time-ordered, each on its own clock.
//! This module fuses N such sources into the single ordered stream the
//! paced replay engine and the sharded monitor expect:
//!
//! * **Per-source clock skew** — every source carries a signed
//!   [`SkewMicros`] offset applied to its timestamps before merging, so
//!   vantage points whose capture clocks disagree land on one shared
//!   axis ([`shift_micros`]).
//! * **Binary heap merge** — a min-heap over the per-source heads keyed
//!   by `(ts, source index, arrival seq)`. For sorted inputs the output
//!   is globally sorted, and records with identical timestamps come out
//!   **stable by source index** (then by within-source arrival order).
//! * **Bounded reordering tolerance** — real capture feeds are only
//!   *mostly* sorted (multi-queue NICs reorder within a small window).
//!   Each source runs through a lookahead buffer — a deque kept sorted
//!   by `(ts, arrival)`: an in-order arrival is appended, a disordered
//!   one is binary-search inserted, so an already sorted source pays a
//!   queue's push and pop per record, not a heap's sifts —
//!   that holds records until the source has been seen
//!   [`MergeConfig::tolerance_us`] past them, fixing any local disorder
//!   within that window. A record arriving *later* than the tolerance
//!   allows (more than `tolerance_us` behind its source's newest seen
//!   timestamp) cannot be guaranteed a sorted slot without unbounded
//!   buffering; it is still delivered — best-effort re-sorted, **never
//!   silently reordered or dropped** — and counted in the labeled
//!   `cgc_ingest_merge_late_total{source=}` family (and in
//!   [`MergeStats::late`]). Any output-order violation the merge can
//!   produce comes from exactly such a record, so `late == 0` certifies
//!   a perfectly ordered output.
//!
//! The invariant proven by `tests/e2e_merge.rs`: splitting one recorded
//! feed into M interleaved sources and merging them back is the
//! *identity* — session reports and journal timelines stay byte-identical
//! to the single-feed replay, with zero late records.
//!
//! ```
//! use cgc_ingest::merge::{merge_sources, MergeConfig, MergeSource};
//!
//! let tuple = nettrace::FiveTuple::udp_v4([10, 0, 0, 1], 49003, [100, 64, 1, 1], 50_000);
//! // Two taps; tap "b" stamped by a clock running 10 µs behind.
//! let a = MergeSource::new("a", vec![(0, tuple, 100), (20, tuple, 100)]);
//! let b = MergeSource::with_offset("b", 10, vec![(0, tuple, 100), (5, tuple, 100)]);
//! let (merged, stats) = merge_sources(vec![a, b], &MergeConfig::default(), None);
//! let ts: Vec<u64> = merged.iter().map(|r| r.0).collect();
//! assert_eq!(ts, [0, 10, 15, 20], "b's records shifted onto the shared axis");
//! assert_eq!(stats.late_total(), 0);
//! ```

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use cgc_core::shard::TapRecord;
use cgc_obs::{Counter, Registry};
use nettrace::clock::{shift_micros, SkewMicros};
use nettrace::units::Micros;

use crate::metrics::MergeMetrics;

/// One timestamped feed entering the merge: a label (used as the
/// `source` metric label), a signed clock-skew offset, and the records
/// themselves in capture-arrival order.
#[derive(Debug, Clone)]
pub struct MergeSource {
    /// Stable name used as the `source` label of the merge metric
    /// families (e.g. the pcap path or NIC name).
    pub label: String,
    /// Signed clock-skew correction applied to every record timestamp
    /// before merging, µs.
    pub offset_us: SkewMicros,
    /// The feed, in capture-arrival order (expected mostly sorted).
    pub records: Vec<TapRecord>,
}

impl MergeSource {
    /// A source on the shared clock axis (zero skew).
    pub fn new(label: impl Into<String>, records: Vec<TapRecord>) -> Self {
        MergeSource {
            label: label.into(),
            offset_us: 0,
            records,
        }
    }

    /// A source whose capture clock needs an `offset_us` correction.
    pub fn with_offset(
        label: impl Into<String>,
        offset_us: SkewMicros,
        records: Vec<TapRecord>,
    ) -> Self {
        MergeSource {
            label: label.into(),
            offset_us,
            records,
        }
    }
}

/// Reordering bounds of the merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeConfig {
    /// How far (µs) a record may arrive behind newer records of the
    /// *same source* and still be re-sorted into place. Records later
    /// than this are released immediately and counted late.
    pub tolerance_us: Micros,
    /// Hard cap on per-source lookahead buffering (records); protects
    /// memory against a source that stalls its own timeline. When the
    /// cap is hit the oldest buffered record is released even if the
    /// tolerance window has not elapsed.
    pub lookahead_cap: usize,
}

impl Default for MergeConfig {
    fn default() -> Self {
        MergeConfig {
            // One scheduling quantum of NIC/queue reordering; sorted
            // feeds (pcaps, simulated taps) never get near it.
            tolerance_us: 1_000,
            lookahead_cap: 65_536,
        }
    }
}

/// What one merge produced: per-source release/late accounting, in
/// source order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MergeStats {
    /// Source labels, in input order (parallel to the other vectors).
    pub labels: Vec<String>,
    /// Records merged per source.
    pub merged: Vec<u64>,
    /// Records per source that arrived beyond the reordering tolerance
    /// (released out of order, never dropped).
    pub late: Vec<u64>,
}

impl MergeStats {
    /// Total records across sources.
    pub fn merged_total(&self) -> u64 {
        self.merged.iter().sum()
    }

    /// Total late-beyond-tolerance records across sources.
    pub fn late_total(&self) -> u64 {
        self.late.iter().sum()
    }
}

/// One source mid-merge: the not-yet-buffered remainder of the feed, a
/// sorted lookahead queue absorbing local disorder, and lateness
/// bookkeeping.
struct SourceState {
    rest: std::vec::IntoIter<TapRecord>,
    offset: SkewMicros,
    /// Lookahead, sorted by offset-corrected timestamp with equal
    /// timestamps in arrival order; the front is the oldest.
    buf: VecDeque<TapRecord>,
    /// Newest (offset-corrected) timestamp pushed into the buffer — the
    /// source's read frontier; `frontier - tolerance` is what the buffer
    /// has provably seen past.
    frontier: Micros,
    /// Labeled `cgc_ingest_merge_late_total{source=}` handle, when the
    /// merge was built with a registry.
    late_counter: Option<Arc<Counter>>,
    merged: u64,
    late: u64,
}

impl SourceState {
    fn new(source: MergeSource, late_counter: Option<Arc<Counter>>) -> Self {
        SourceState {
            rest: source.records.into_iter(),
            offset: source.offset_us,
            buf: VecDeque::new(),
            frontier: 0,
            late_counter,
            merged: 0,
            late: 0,
        }
    }

    /// Fills the lookahead buffer until its oldest record is *mature* —
    /// the source has been read `tolerance` past it (so nothing still to
    /// come, short of a counted-late record, could sort before it), the
    /// feed is exhausted, or the lookahead cap is hit.
    ///
    /// Lateness is decided here, at arrival: a record more than
    /// `tolerance` behind the source frontier is counted (and still
    /// buffered, so it sorts as early as it still can — delivered, never
    /// dropped).
    fn fill(&mut self, cfg: &MergeConfig) {
        loop {
            let mature = match self.buf.front() {
                None => false,
                Some(oldest) => {
                    oldest.0.saturating_add(cfg.tolerance_us) <= self.frontier
                        || self.buf.len() >= cfg.lookahead_cap
                }
            };
            if mature {
                return;
            }
            match self.rest.next() {
                Some((ts, tuple, len)) => {
                    let ts = shift_micros(ts, self.offset);
                    if ts < self.frontier.saturating_sub(cfg.tolerance_us) {
                        self.late += 1;
                        if let Some(c) = &self.late_counter {
                            c.inc();
                        }
                    }
                    self.frontier = self.frontier.max(ts);
                    if self.buf.back().is_none_or(|newest| newest.0 <= ts) {
                        self.buf.push_back((ts, tuple, len));
                    } else {
                        // Behind everything with a timestamp up to its
                        // own: equal timestamps keep their arrival order.
                        let at = self.buf.partition_point(|b| b.0 <= ts);
                        self.buf.insert(at, (ts, tuple, len));
                    }
                }
                None => return, // exhausted: whatever is buffered is final
            }
        }
    }

    /// The timestamp the merge heap should key this source by.
    fn head_ts(&self) -> Option<Micros> {
        self.buf.front().map(|b| b.0)
    }

    /// Releases the oldest buffered record.
    fn release(&mut self) -> TapRecord {
        let record = self.buf.pop_front().expect("release on a non-empty buffer");
        self.merged += 1;
        record
    }
}

/// Merge-heap key: smallest `(ts, source)` first, stable by source index
/// for identical timestamps.
#[derive(PartialEq, Eq)]
struct Head {
    ts: Micros,
    source: usize,
}

impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Head {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.ts, other.source).cmp(&(self.ts, self.source))
    }
}

/// Streaming k-way merge over [`MergeSource`]s.
///
/// Yields the fused, offset-corrected record stream; consume it directly
/// or via [`merge_sources`] (which also materializes stats). Late
/// records are yielded in arrival position (never reordered further,
/// never dropped) and counted — through [`MergeMetrics`] when metrics
/// are attached, and in the per-source totals either way.
pub struct KWayMerge {
    labels: Vec<String>,
    sources: Vec<SourceState>,
    heap: BinaryHeap<Head>,
    cfg: MergeConfig,
    metrics: Option<MergeMetrics>,
}

impl KWayMerge {
    /// Builds the merge; with a `registry`, per-source
    /// `cgc_ingest_merge_records_total{source=}` /
    /// `cgc_ingest_merge_late_total{source=}` counters ride along.
    pub fn new(sources: Vec<MergeSource>, cfg: MergeConfig, registry: Option<&Registry>) -> Self {
        let labels: Vec<String> = sources.iter().map(|s| s.label.clone()).collect();
        let metrics = registry.map(|r| MergeMetrics::register(r, &labels));
        let mut states: Vec<SourceState> = sources
            .into_iter()
            .enumerate()
            .map(|(i, s)| SourceState::new(s, metrics.as_ref().map(|m| Arc::clone(&m.late[i]))))
            .collect();
        let mut heap = BinaryHeap::with_capacity(states.len());
        for (i, s) in states.iter_mut().enumerate() {
            s.fill(&cfg);
            if let Some(ts) = s.head_ts() {
                heap.push(Head { ts, source: i });
            }
        }
        KWayMerge {
            labels,
            sources: states,
            heap,
            cfg,
            metrics,
        }
    }

    /// Per-source accounting so far (complete once the iterator is dry).
    pub fn stats(&self) -> MergeStats {
        MergeStats {
            labels: self.labels.clone(),
            merged: self.sources.iter().map(|s| s.merged).collect(),
            late: self.sources.iter().map(|s| s.late).collect(),
        }
    }
}

impl Iterator for KWayMerge {
    type Item = TapRecord;

    fn next(&mut self) -> Option<TapRecord> {
        // The winning source usually has a next record: rewrite its key in
        // place and let the guard sift it down once on drop (no move at
        // all with a single source), rather than pop and push — two sifts.
        let mut head = self.heap.peek_mut()?;
        let source = &mut self.sources[head.source];
        let record = source.release();
        if let Some(m) = &self.metrics {
            m.merged[head.source].inc();
        }
        source.fill(&self.cfg);
        match source.head_ts() {
            Some(ts) => head.ts = ts,
            None => {
                PeekMut::pop(head);
            }
        }
        Some(record)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let buffered: usize = self.sources.iter().map(|s| s.buf.len()).sum();
        (buffered, None)
    }
}

impl std::fmt::Debug for KWayMerge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KWayMerge")
            .field("sources", &self.sources.len())
            .field("tolerance_us", &self.cfg.tolerance_us)
            .finish()
    }
}

/// Fuses `sources` into one time-ordered feed, returning the merged
/// records and per-source accounting. With a `registry`, the labeled
/// `cgc_ingest_merge_*_total{source=}` families record the same totals.
pub fn merge_sources(
    sources: Vec<MergeSource>,
    cfg: &MergeConfig,
    registry: Option<&Registry>,
) -> (Vec<TapRecord>, MergeStats) {
    let total: usize = sources.iter().map(|s| s.records.len()).sum();
    let mut merge = KWayMerge::new(sources, *cfg, registry);
    let mut out = Vec::with_capacity(total);
    for record in merge.by_ref() {
        out.push(record);
    }
    (out, merge.stats())
}

/// Splits one feed into `m` interleaved sources (record `i` goes to
/// source `i % m`), preserving per-source arrival order — the inverse of
/// the merge for any already-sorted feed. Test harnesses and the CLI's
/// `--split` use it to prove the merge is the identity on a recorded
/// feed.
pub fn split_round_robin(feed: &[TapRecord], m: usize) -> Vec<Vec<TapRecord>> {
    let m = m.max(1);
    let mut parts: Vec<Vec<TapRecord>> = (0..m)
        .map(|i| Vec::with_capacity(feed.len() / m + usize::from(i < feed.len() % m)))
        .collect();
    for (i, &record) in feed.iter().enumerate() {
        parts[i % m].push(record);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::packet::FiveTuple;
    use proptest::prelude::*;

    fn tuple(flow: u8) -> FiveTuple {
        FiveTuple::udp_v4([10, 0, 0, flow], 49003, [100, 64, 1, flow], 50_000)
    }

    fn feed(src: u8, timestamps: &[Micros]) -> Vec<TapRecord> {
        timestamps
            .iter()
            .map(|&ts| (ts, tuple(src), 1_200))
            .collect()
    }

    fn ts_of(records: &[TapRecord]) -> Vec<Micros> {
        records.iter().map(|r| r.0).collect()
    }

    #[test]
    fn empty_sources_merge_to_nothing() {
        let (out, stats) = merge_sources(vec![], &MergeConfig::default(), None);
        assert!(out.is_empty());
        assert_eq!(stats.merged_total(), 0);

        // An empty source among real ones contributes nothing and panics
        // nowhere.
        let (out, stats) = merge_sources(
            vec![
                MergeSource::new("a", feed(1, &[5, 10])),
                MergeSource::new("empty", Vec::new()),
            ],
            &MergeConfig::default(),
            None,
        );
        assert_eq!(ts_of(&out), [5, 10]);
        assert_eq!(stats.merged, [2, 0]);
        assert_eq!(stats.late, [0, 0]);
    }

    #[test]
    fn single_source_degenerates_to_pass_through() {
        let records = feed(1, &[3, 1, 4, 1, 5, 9, 2, 6]);
        // Zero tolerance: whatever order came in goes out — byte-for-byte
        // pass-through, with out-of-order records flagged late, not fixed.
        let cfg = MergeConfig {
            tolerance_us: 0,
            ..MergeConfig::default()
        };
        let (out, stats) = merge_sources(vec![MergeSource::new("a", records.clone())], &cfg, None);
        assert_eq!(out, records, "zero-tolerance single source is identity");
        assert_eq!(
            stats.late,
            [4],
            "each record below the running max is late under zero tolerance"
        );

        // A sorted single source is the identity under any tolerance.
        let sorted = feed(1, &[1, 1, 2, 3, 4, 5, 6, 9]);
        let (out, stats) = merge_sources(
            vec![MergeSource::new("a", sorted.clone())],
            &MergeConfig::default(),
            None,
        );
        assert_eq!(out, sorted);
        assert_eq!(stats.late_total(), 0);
    }

    #[test]
    fn identical_timestamps_are_stable_by_source_index() {
        // All three sources collide on ts 10 and 20; output must order
        // the collisions by source index, and equal-ts records within a
        // source by arrival order (payload length tags arrival).
        let mk = |src: u8, lens: &[u32]| -> Vec<TapRecord> {
            lens.iter().map(|&l| (10, tuple(src), l)).collect()
        };
        let (out, stats) = merge_sources(
            vec![
                MergeSource::new("s0", mk(1, &[100, 101])),
                MergeSource::new("s1", mk(2, &[200])),
                MergeSource::new("s2", mk(3, &[300, 301])),
            ],
            &MergeConfig::default(),
            None,
        );
        let lens: Vec<u32> = out.iter().map(|r| r.2).collect();
        assert_eq!(lens, [100, 101, 200, 300, 301]);
        assert_eq!(stats.late_total(), 0);
    }

    #[test]
    fn clock_offsets_shift_sources_onto_one_axis() {
        let (out, stats) = merge_sources(
            vec![
                MergeSource::new("on_time", feed(1, &[0, 100])),
                // Clock 40 µs behind the shared axis: +40 correction.
                MergeSource::with_offset("behind", 40, feed(2, &[10, 50])),
                // Clock 5 µs ahead: -5 correction; saturates at 0.
                MergeSource::with_offset("ahead", -5, feed(3, &[2, 60])),
            ],
            &MergeConfig::default(),
            None,
        );
        assert_eq!(ts_of(&out), [0, 0, 50, 55, 90, 100]);
        assert_eq!(stats.merged, [2, 2, 2]);
        assert_eq!(stats.late_total(), 0);
    }

    #[test]
    fn disorder_within_tolerance_is_resorted_silently() {
        // 30 arrives before 25; tolerance 10 ≥ the 5 µs regression, so
        // the lookahead buffer fixes it and nothing is late.
        let cfg = MergeConfig {
            tolerance_us: 10,
            ..MergeConfig::default()
        };
        let registry = Registry::new();
        let (out, stats) = merge_sources(
            vec![MergeSource::new("jittery", feed(1, &[10, 30, 25, 40]))],
            &cfg,
            Some(&registry),
        );
        assert_eq!(ts_of(&out), [10, 25, 30, 40]);
        assert_eq!(stats.late_total(), 0);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_with("cgc_ingest_merge_late_total", &[("source", "jittery")]),
            Some(0)
        );
        assert_eq!(
            snap.counter_with("cgc_ingest_merge_records_total", &[("source", "jittery")]),
            Some(4)
        );
    }

    #[test]
    fn late_beyond_tolerance_is_released_and_counted_never_dropped() {
        // 100 arrives after the source frontier reached 200 with
        // tolerance 50: the buffer has already released past it. It must
        // still come out (count preserved) and increment the counter.
        let cfg = MergeConfig {
            tolerance_us: 50,
            ..MergeConfig::default()
        };
        let registry = Registry::new();
        let (out, stats) = merge_sources(
            vec![
                MergeSource::new("clean", feed(1, &[0, 150, 300])),
                MergeSource::new("tardy", feed(2, &[10, 200, 100, 400])),
            ],
            &cfg,
            Some(&registry),
        );
        assert_eq!(out.len(), 7, "every record survives, late or not");
        assert_eq!(stats.merged, [3, 4]);
        assert_eq!(stats.late, [0, 1], "exactly the beyond-tolerance record");
        assert_eq!(stats.late_total(), 1);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_with("cgc_ingest_merge_late_total", &[("source", "tardy")]),
            Some(1)
        );
        assert_eq!(
            snap.counter_with("cgc_ingest_merge_late_total", &[("source", "clean")]),
            Some(0)
        );
        // The late record is present with its payload intact.
        assert!(out.iter().any(|r| r.0 == 100 && r.1 == tuple(2)));
    }

    #[test]
    fn lookahead_cap_bounds_buffering_without_losing_records() {
        // A long run of identical timestamps would otherwise buffer
        // forever under a huge tolerance; the cap forces releases.
        let records = feed(1, &[7; 1000]);
        let cfg = MergeConfig {
            tolerance_us: u64::MAX / 2,
            lookahead_cap: 16,
        };
        let (out, stats) = merge_sources(vec![MergeSource::new("flat", records)], &cfg, None);
        assert_eq!(out.len(), 1000);
        assert_eq!(stats.late_total(), 0);
    }

    #[test]
    fn split_round_robin_partitions_and_preserves_order() {
        let records = feed(1, &[0, 1, 2, 3, 4, 5, 6]);
        let parts = split_round_robin(&records, 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(ts_of(&parts[0]), [0, 3, 6]);
        assert_eq!(ts_of(&parts[1]), [1, 4]);
        assert_eq!(ts_of(&parts[2]), [2, 5]);
        assert_eq!(split_round_robin(&records, 0).len(), 1, "0 clamps to 1");
    }

    #[test]
    fn split_then_merge_is_the_identity_on_a_sorted_feed() {
        // Strictly increasing timestamps: with no cross-source ties the
        // merge's (ts, source) order coincides with the original global
        // order, so split+merge is an exact sequence identity.
        let records: Vec<TapRecord> = (0..500u64)
            .map(|i| (i * 3, tuple((i % 4) as u8), i as u32))
            .collect();
        for m in [1, 2, 3, 8] {
            let sources = split_round_robin(&records, m)
                .into_iter()
                .enumerate()
                .map(|(i, part)| MergeSource::new(format!("part{i}"), part))
                .collect();
            let (out, stats) = merge_sources(sources, &MergeConfig::default(), None);
            assert_eq!(out, records, "{m}-way split+merge must be identity");
            assert_eq!(stats.late_total(), 0);
            assert_eq!(stats.merged_total(), 500);
        }
    }

    #[test]
    fn split_then_merge_preserves_per_flow_order_despite_shared_timestamps() {
        // With duplicate timestamps straddling split parts the merge
        // only promises (ts, source-index) order globally — but each
        // flow's own sequence (what the monitor cares about) survives
        // any split, because a flow's records keep their relative
        // timestamps.
        let records: Vec<TapRecord> = (0..600u64)
            .map(|i| (i / 3, tuple((i % 4) as u8), i as u32))
            .collect();
        for m in [2, 3, 8] {
            let sources = split_round_robin(&records, m)
                .into_iter()
                .enumerate()
                .map(|(i, part)| MergeSource::new(format!("part{i}"), part))
                .collect();
            let (out, stats) = merge_sources(sources, &MergeConfig::default(), None);
            assert_eq!(stats.late_total(), 0, "{m}-way split is never late");
            assert!(out.windows(2).all(|w| w[0].0 <= w[1].0), "sorted output");
            for flow in 0..4u8 {
                let original: Vec<u32> = records
                    .iter()
                    .filter(|r| r.1 == tuple(flow))
                    .map(|r| r.2)
                    .collect();
                let merged: Vec<u32> = out
                    .iter()
                    .filter(|r| r.1 == tuple(flow))
                    .map(|r| r.2)
                    .collect();
                assert_eq!(merged, original, "flow {flow} reordered by {m}-way split");
            }
        }
    }

    /// The merge with the lookahead it had before the sorted deque: a
    /// min-heap on `(ts, arrival seq)` per source. The reference the deque
    /// is held to, record for record; the k-way step is a linear scan for
    /// the smallest `(head ts, source index)`.
    fn heap_reference(sources: &[MergeSource], cfg: &MergeConfig) -> (Vec<TapRecord>, Vec<u64>) {
        use std::cmp::Reverse;
        struct Src<'a> {
            input: &'a MergeSource,
            next: usize,
            buf: BinaryHeap<Reverse<(Micros, usize)>>,
            frontier: Micros,
            late: u64,
        }
        impl Src<'_> {
            fn fill(&mut self, cfg: &MergeConfig) {
                loop {
                    let mature = self.buf.peek().is_some_and(|Reverse((ts, _))| {
                        ts.saturating_add(cfg.tolerance_us) <= self.frontier
                            || self.buf.len() >= cfg.lookahead_cap
                    });
                    if mature {
                        return;
                    }
                    let Some(record) = self.input.records.get(self.next) else {
                        return;
                    };
                    let ts = shift_micros(record.0, self.input.offset_us);
                    if ts < self.frontier.saturating_sub(cfg.tolerance_us) {
                        self.late += 1;
                    }
                    self.frontier = self.frontier.max(ts);
                    self.buf.push(Reverse((ts, self.next)));
                    self.next += 1;
                }
            }
        }
        let mut srcs: Vec<Src> = sources
            .iter()
            .map(|input| Src {
                input,
                next: 0,
                buf: BinaryHeap::new(),
                frontier: 0,
                late: 0,
            })
            .collect();
        for s in &mut srcs {
            s.fill(cfg);
        }
        let mut out = Vec::new();
        while let Some(i) = (0..srcs.len())
            .filter_map(|i| srcs[i].buf.peek().map(|Reverse((ts, _))| (*ts, i)))
            .min()
            .map(|(_, i)| i)
        {
            let Reverse((ts, seq)) = srcs[i].buf.pop().expect("peeked");
            let (_, tuple, len) = srcs[i].input.records[seq];
            out.push((ts, tuple, len));
            srcs[i].fill(cfg);
        }
        (out, srcs.iter().map(|s| s.late).collect())
    }

    proptest! {
        /// The sorted-deque lookahead releases exactly the sequence the
        /// binary-heap lookahead released, with the same late counts: over
        /// disorder inside and beyond the tolerance, runs of equal
        /// timestamps, skewed sources and a lookahead cap small enough to
        /// force early releases.
        #[test]
        fn deque_lookahead_matches_heap_reference(
            feeds in prop::collection::vec(
                (prop::collection::vec(0u64..300, 0..150), -20i64..20),
                1..5
            ),
            tolerance_us in 0u64..60,
            lookahead_cap in prop_oneof![1usize..6, Just(65_536usize)],
        ) {
            let sources: Vec<MergeSource> = feeds
                .iter()
                .enumerate()
                .map(|(s, (ts, offset))| {
                    let records = ts
                        .iter()
                        .enumerate()
                        .map(|(i, &t)| (t, tuple(s as u8), (s * 1_000 + i) as u32))
                        .collect();
                    MergeSource::with_offset(format!("s{s}"), *offset, records)
                })
                .collect();
            let cfg = MergeConfig { tolerance_us, lookahead_cap };
            let (want, want_late) = heap_reference(&sources, &cfg);
            let (got, stats) = merge_sources(sources, &cfg, None);
            prop_assert_eq!(got, want);
            prop_assert_eq!(stats.late, want_late);
        }
    }

    /// The k-way step as it was before the in-place key update: pop the
    /// smallest head, release, push the source's next head back. Same
    /// `SourceState`, same `(ts, source)` key.
    fn pop_push_reference(sources: Vec<MergeSource>, cfg: &MergeConfig) -> Vec<TapRecord> {
        let mut states: Vec<SourceState> = sources
            .into_iter()
            .map(|s| SourceState::new(s, None))
            .collect();
        let mut heap = BinaryHeap::new();
        for (i, s) in states.iter_mut().enumerate() {
            s.fill(cfg);
            if let Some(ts) = s.head_ts() {
                heap.push(Head { ts, source: i });
            }
        }
        let mut out = Vec::new();
        while let Some(head) = heap.pop() {
            let source = &mut states[head.source];
            out.push(source.release());
            source.fill(cfg);
            if let Some(ts) = source.head_ts() {
                heap.push(Head {
                    ts,
                    source: head.source,
                });
            }
        }
        out
    }

    proptest! {
        /// Updating the heap's top in place yields the sequence popping and
        /// pushing it did: 1–5 skewed sources drawing timestamps from a
        /// range narrow enough that they collide across sources, one of
        /// them cut short so it runs dry while the others still merge.
        #[test]
        fn in_place_heap_update_matches_pop_push_reference(
            feeds in prop::collection::vec(
                (prop::collection::vec(0u64..80, 0..120), -20i64..20),
                1..6
            ),
            short in 0usize..5,
            tolerance_us in 0u64..40,
        ) {
            let short = short % feeds.len();
            let sources: Vec<MergeSource> = feeds
                .iter()
                .enumerate()
                .map(|(s, (ts, offset))| {
                    let keep = if s == short { ts.len().min(3) } else { ts.len() };
                    let records = ts[..keep]
                        .iter()
                        .enumerate()
                        .map(|(i, &t)| (t, tuple(s as u8), (s * 1_000 + i) as u32))
                        .collect();
                    MergeSource::with_offset(format!("s{s}"), *offset, records)
                })
                .collect();
            let cfg = MergeConfig { tolerance_us, ..MergeConfig::default() };
            let want = pop_push_reference(sources.clone(), &cfg);
            let (got, stats) = merge_sources(sources, &cfg, None);
            prop_assert_eq!(stats.merged_total(), want.len() as u64);
            prop_assert_eq!(got, want);
        }
    }

    proptest! {
        /// Against arbitrary (unsorted!) sources, the merge must (a)
        /// conserve records exactly — the multiset of outputs equals the
        /// union of offset-corrected inputs — and (b) with a tolerance
        /// covering each source's worst internal disorder, produce the
        /// fully sorted reference with zero late records.
        #[test]
        fn merge_matches_sorted_reference(
            feeds in prop::collection::vec(
                prop::collection::vec(0u64..5_000, 0..120),
                1..5
            )
        ) {
            // Tag each record with (source, index) via payload_len so
            // multiset equality is checkable exactly.
            let sources: Vec<MergeSource> = feeds
                .iter()
                .enumerate()
                .map(|(s, ts)| {
                    let records = ts
                        .iter()
                        .enumerate()
                        .map(|(i, &t)| (t, tuple(s as u8), (s * 1_000 + i) as u32))
                        .collect();
                    MergeSource::new(format!("s{s}"), records)
                })
                .collect();

            // Worst per-source disorder: max over prefixes of
            // (max_so_far - current).
            let worst = feeds
                .iter()
                .flat_map(|ts| {
                    let mut seen = 0u64;
                    ts.iter().map(move |&t| {
                        let d = seen.saturating_sub(t);
                        seen = seen.max(t);
                        d
                    })
                })
                .max()
                .unwrap_or(0);

            let cfg = MergeConfig { tolerance_us: worst, ..MergeConfig::default() };
            let (out, stats) = merge_sources(sources.clone(), &cfg, None);

            // (a) conservation: exact multiset equality via the unique tag.
            let mut got: Vec<u32> = out.iter().map(|r| r.2).collect();
            got.sort_unstable();
            let mut want: Vec<u32> = sources
                .iter()
                .flat_map(|s| s.records.iter().map(|r| r.2))
                .collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);

            // (b) sortedness + zero late under a covering tolerance.
            prop_assert!(out.windows(2).all(|w| w[0].0 <= w[1].0),
                "tolerance {} must yield sorted output", worst);
            prop_assert_eq!(stats.late_total(), 0);
        }
    }
}
