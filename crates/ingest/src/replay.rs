//! Paced release of recorded tap records against a [`Clock`].
//!
//! A recorded capture (pcap file or gamesim session feed) carries its
//! own timeline in the per-record timestamps. The replayer turns that
//! timeline back into wall-clock arrival pacing: record `i` is released
//! when the clock reaches
//!
//! ```text
//! deadline(i) = origin + (ts(i) - ts(0)) / pace
//! ```
//!
//! where `origin` is the clock reading when replay starts. `pace = 1.0`
//! replays in real time (special-cased to exact integer arithmetic),
//! `pace = 2.0` at double speed, and `pace = 0.0` means as-fast-as-
//! possible — no sleeping at all, which turns the replayer into a plain
//! feed iterator for offline runs.
//!
//! Against a [`VirtualClock`](nettrace::VirtualClock) the same code path
//! is deterministic and instant: `sleep_until` jumps the clock to the
//! deadline, so tests exercise the full pacing logic without wall time.
//!
//! Multi-source captures (several NICs, several pcaps) are fused into
//! the single sorted feed this module expects by the k-way merge in
//! [`crate::merge`] — [`replay()`] takes the merge itself, so the fused
//! feed is consumed as it is produced; a record the merge flagged late (beyond the
//! reordering tolerance) simply has a past deadline here and is
//! released immediately rather than re-sorted or dropped.

use std::borrow::Borrow;
use std::sync::atomic::{AtomicBool, Ordering};

use cgc_core::shard::TapRecord;
use nettrace::clock::Clock;
use nettrace::pcap::PcapRecord;
use nettrace::units::Micros;

use crate::metrics::IngestMetrics;

/// How fast to release a recorded timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig {
    /// Speed multiplier over the recorded timeline: `1.0` = real time,
    /// `2.0` = double speed, `0.0` = as fast as possible (no pacing).
    pub pace: f64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig { pace: 1.0 }
    }
}

impl ReplayConfig {
    /// Replay with no pacing at all — every record released immediately.
    pub fn as_fast_as_possible() -> Self {
        ReplayConfig { pace: 0.0 }
    }

    /// Whether this configuration paces releases (a zero or negative
    /// multiplier disables pacing entirely).
    pub fn paced(&self) -> bool {
        self.pace > 0.0
    }

    /// Scales a recorded-timeline offset into a replay-timeline offset.
    /// Real-time pace keeps exact integer microseconds; other paces go
    /// through f64 (sub-microsecond rounding is far below pacing jitter).
    fn scale(&self, delta: Micros) -> Micros {
        if self.pace == 1.0 {
            delta
        } else {
            (delta as f64 / self.pace) as Micros
        }
    }
}

/// What one replay run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayStats {
    /// Records released to the delivery callback.
    pub released: u64,
    /// True when a cancel flag stopped the run before the end of the feed.
    pub cancelled: bool,
    /// Worst observed release lag behind the pacing deadline, µs.
    pub max_lag_us: Micros,
}

/// Converts decoded pcap records into the monitor's tap-record shape.
pub fn pcap_feed(records: &[PcapRecord]) -> Vec<TapRecord> {
    records
        .iter()
        .map(|r| (r.ts, r.tuple, r.payload_len))
        .collect()
}

/// Replays `records` against `clock`, releasing each to `deliver` at its
/// paced deadline. Records must be sorted by timestamp (capture order).
///
/// `records` is anything that yields tap records, owned or borrowed: a
/// slice of a materialised feed, or a [`KWayMerge`](crate::KWayMerge)
/// driven record by record, in which case merging overlaps whatever
/// `deliver` feeds and the merged feed never exists as a whole.
///
/// `metrics`, when given, counts releases (`cgc_ingest_replayed_total`)
/// and records per-release lag (`cgc_ingest_pacing_lag_us`). `cancel`,
/// when given, is checked before every release so a Ctrl-C can stop a
/// long replay between records; the cut is reported in the stats, never
/// silent. The record in hand when the flag is seen has been taken from
/// `records` and is not released.
pub fn replay<I, F>(
    records: I,
    clock: &dyn Clock,
    config: &ReplayConfig,
    metrics: Option<&IngestMetrics>,
    cancel: Option<&AtomicBool>,
    mut deliver: F,
) -> ReplayStats
where
    I: IntoIterator,
    I::Item: Borrow<TapRecord>,
    F: FnMut(TapRecord),
{
    let mut stats = ReplayStats::default();
    // Replay-clock origin and first record timestamp, read at the first
    // record: an empty feed never consults the clock.
    let mut anchor: Option<(Micros, Micros)> = None;
    for item in records {
        let record: TapRecord = *item.borrow();
        if let Some(flag) = cancel {
            if flag.load(Ordering::Relaxed) {
                stats.cancelled = true;
                break;
            }
        }
        if config.paced() {
            let (origin, first_ts) = *anchor.get_or_insert_with(|| (clock.now(), record.0));
            let deadline = origin + config.scale(record.0.saturating_sub(first_ts));
            clock.sleep_until(deadline);
            let lag = clock.now().saturating_sub(deadline);
            stats.max_lag_us = stats.max_lag_us.max(lag);
            if let Some(m) = metrics {
                m.pacing_lag_us.record(lag);
            }
        }
        deliver(record);
        stats.released += 1;
        if let Some(m) = metrics {
            m.replayed.inc();
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::clock::VirtualClock;
    use nettrace::packet::FiveTuple;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn tuple() -> FiveTuple {
        FiveTuple::udp_v4([10, 0, 0, 1], 49003, [100, 64, 1, 1], 50000)
    }

    fn feed(timestamps: &[Micros]) -> Vec<TapRecord> {
        timestamps.iter().map(|&ts| (ts, tuple(), 1200)).collect()
    }

    #[test]
    fn real_time_pace_releases_at_recorded_offsets() {
        // Capture starts at t=5s; replay clock starts at t=100s. Offsets
        // must be preserved relative to the replay origin, not absolute.
        let clock = VirtualClock::starting_at(100_000_000);
        let records = feed(&[5_000_000, 5_250_000, 6_000_000]);
        let mut release_times = Vec::new();
        let stats = replay(
            &records,
            &clock,
            &ReplayConfig::default(),
            None,
            None,
            |_| release_times.push(clock.now()),
        );
        assert_eq!(stats.released, 3);
        assert!(!stats.cancelled);
        assert_eq!(release_times, [100_000_000, 100_250_000, 101_000_000]);
        assert_eq!(
            stats.max_lag_us, 0,
            "virtual clock lands exactly on deadlines"
        );
    }

    #[test]
    fn pace_multiplier_compresses_the_timeline() {
        let clock = VirtualClock::starting_at(0);
        let records = feed(&[0, 1_000_000, 2_000_000]);
        let mut release_times = Vec::new();
        replay(
            &records,
            &clock,
            &ReplayConfig { pace: 4.0 },
            None,
            None,
            |_| release_times.push(clock.now()),
        );
        assert_eq!(
            release_times,
            [0, 250_000, 500_000],
            "4x pace quarters offsets"
        );
    }

    #[test]
    fn afap_pace_never_advances_a_virtual_clock() {
        let clock = VirtualClock::starting_at(7);
        let records = feed(&[0, 10_000_000, 20_000_000]);
        let stats = replay(
            &records,
            &clock,
            &ReplayConfig::as_fast_as_possible(),
            None,
            None,
            |_| {},
        );
        assert_eq!(stats.released, 3);
        assert_eq!(clock.now(), 7, "no pacing means no sleeps at all");
    }

    #[test]
    fn cancel_flag_stops_between_records_and_is_reported() {
        let clock = VirtualClock::starting_at(0);
        let records = feed(&[0, 1, 2, 3, 4]);
        let cancel = Arc::new(AtomicBool::new(false));
        let mut released = 0u64;
        let stats = replay(
            &records,
            &clock,
            &ReplayConfig::default(),
            None,
            Some(&cancel),
            |_| {
                released += 1;
                if released == 2 {
                    cancel.store(true, Ordering::Relaxed);
                }
            },
        );
        assert!(stats.cancelled);
        assert_eq!(stats.released, 2, "cancel lands before the third release");
    }

    #[test]
    fn streaming_the_merge_equals_replaying_the_merged_feed() {
        use crate::merge::{merge_sources, KWayMerge, MergeConfig, MergeSource};
        use cgc_obs::Registry;

        // Three skewed taps with disorder inside the tolerance, one record
        // beyond it and timestamps shared across taps.
        let mk = |flow: u8, ts: &[Micros]| -> Vec<TapRecord> {
            let t = FiveTuple::udp_v4([10, 0, 0, flow], 49003, [100, 64, 1, flow], 50_000);
            ts.iter()
                .enumerate()
                .map(|(i, &ts)| (ts, t, u32::from(flow) * 100 + i as u32))
                .collect()
        };
        let sources = || {
            vec![
                MergeSource::new("a", mk(1, &[1_000, 3_000, 2_900, 9_000, 9_000, 20_000])),
                MergeSource::with_offset("b", 500, mk(2, &[500, 8_500, 2_000, 19_500])),
                MergeSource::with_offset("c", -250, mk(3, &[1_250, 9_250, 9_250])),
            ]
        };
        let cfg = MergeConfig {
            tolerance_us: 200,
            ..MergeConfig::default()
        };
        let config = ReplayConfig { pace: 2.0 };

        let materialised_registry = Registry::new();
        let (feed, merged_stats) = merge_sources(sources(), &cfg, Some(&materialised_registry));
        assert_eq!(merged_stats.late, [0, 1, 0], "the feed exercises lateness");
        let clock = VirtualClock::starting_at(77);
        let mut from_feed = Vec::new();
        let feed_stats = replay(&feed, &clock, &config, None, None, |r| {
            from_feed.push((clock.now(), r))
        });

        let streamed_registry = Registry::new();
        let mut merge = KWayMerge::new(sources(), cfg, Some(&streamed_registry));
        let clock = VirtualClock::starting_at(77);
        let mut from_merge = Vec::new();
        let merge_replay_stats = replay(merge.by_ref(), &clock, &config, None, None, |r| {
            from_merge.push((clock.now(), r))
        });

        assert_eq!(from_merge, from_feed, "same records at the same instants");
        assert_eq!(merge_replay_stats, feed_stats);
        assert_eq!(merge.stats(), merged_stats);
        let (streamed, materialised) = (
            streamed_registry.snapshot(),
            materialised_registry.snapshot(),
        );
        for family in [
            "cgc_ingest_merge_records_total",
            "cgc_ingest_merge_late_total",
        ] {
            for label in ["a", "b", "c"] {
                let labels = [("source", label)];
                assert_eq!(
                    streamed.counter_with(family, &labels),
                    materialised.counter_with(family, &labels),
                    "{family}{{source={label}}}"
                );
            }
            assert_eq!(streamed.counter(family), materialised.counter(family));
        }
        assert_eq!(
            streamed.counter("cgc_ingest_merge_records_total"),
            Some(feed.len() as u64)
        );
    }

    #[test]
    fn a_cancelled_streamed_replay_leaves_the_rest_in_the_merge() {
        use crate::merge::{KWayMerge, MergeConfig, MergeSource};
        let clock = VirtualClock::starting_at(0);
        let mut merge = KWayMerge::new(
            vec![MergeSource::new("a", feed(&[0, 1, 2, 3, 4]))],
            MergeConfig::default(),
            None,
        );
        let cancel = AtomicBool::new(false);
        let mut released = 0u64;
        let stats = replay(
            merge.by_ref(),
            &clock,
            &ReplayConfig::as_fast_as_possible(),
            None,
            Some(&cancel),
            |_| {
                released += 1;
                cancel.store(released == 2, Ordering::Relaxed);
            },
        );
        assert!(stats.cancelled);
        assert_eq!(stats.released, 2);
        // The third record was in hand when the flag was seen; the merge
        // counts it as released, and the other two were never merged.
        assert_eq!(merge.stats().merged, [3]);
        assert_eq!(merge.count(), 2);
    }

    #[test]
    fn empty_feed_is_a_no_op() {
        let clock = VirtualClock::starting_at(0);
        let empty: &[TapRecord] = &[];
        let stats = replay(empty, &clock, &ReplayConfig::default(), None, None, |_| {
            panic!("nothing to deliver")
        });
        assert_eq!(stats, ReplayStats::default());
    }
}
