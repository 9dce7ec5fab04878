//! The k-way merge measurement `bench_ingest_merge` snapshots and
//! `bench_gate` re-takes: one definition, so the committed ratio and the
//! fresh one are the same quantity.
//!
//! What is timed is the merge alone — [`KWayMerge`] built and drained
//! record by record, as the run path drives it. The sources are split
//! before the clock starts and freed after it stops, and no merged feed is
//! materialised: since the lookahead became a queue the merge costs a few
//! tens of nanoseconds a record, less than faulting in the pages of a
//! fresh output `Vec`, and a figure that includes the allocator moves with
//! the order the measurements happen to run in.

use std::hint::black_box;
use std::time::Instant;

use cgc_core::shard::TapRecord;
use cgc_ingest::{split_round_robin, KWayMerge, MergeConfig, MergeSource};
use nettrace::packet::FiveTuple;

/// Synthetic tap feed: `n` records spread over 16 flows, 10 µs apart.
pub fn merge_feed(n: usize) -> Vec<TapRecord> {
    (0..n)
        .map(|i| {
            let tuple = FiveTuple::udp_v4(
                [10, 0, 0, 1],
                49003,
                [100, 64, 0, (i % 16) as u8],
                50_000 + (i % 16) as u16,
            );
            (i as u64 * 10, tuple, 1_200u32)
        })
        .collect()
}

/// Best-of-`reps` records/s through the merge of a `w`-way round-robin
/// split of `feed`, for each `w` of `ways` (same order). The reps of the
/// different splits are interleaved, so a process that starts cold, or a
/// machine that slows down for a while, costs every split the same reps:
/// callers compare the figures with each other.
pub fn merge_records_per_sec(feed: &[TapRecord], ways: &[usize], reps: usize) -> Vec<f64> {
    let mut best = vec![f64::MIN; ways.len()];
    for _ in 0..reps {
        for (best, &w) in best.iter_mut().zip(ways) {
            let sources: Vec<MergeSource> = split_round_robin(feed, w)
                .into_iter()
                .enumerate()
                .map(|(i, part)| MergeSource::new(format!("s{i}"), part))
                .collect();
            let start = Instant::now();
            let mut merge = KWayMerge::new(sources, MergeConfig::default(), None);
            let mut released = 0usize;
            for record in merge.by_ref() {
                black_box(record);
                released += 1;
            }
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(released, feed.len());
            assert_eq!(merge.stats().late_total(), 0);
            *best = best.max(feed.len() as f64 / secs);
        }
    }
    best
}
