//! End-to-end equivalence for the k-way merge ingestion path: one tap
//! feed split M ways across simulated capture points — including
//! deliberately skewed per-source clocks — and fused back by
//! `run_tap_feed_replay` must produce byte-identical session reports AND
//! byte-identical per-flow journal timelines to the offline batch path,
//! with zero merge-late records and zero drops under the blocking
//! backpressure policy. A second test checks the per-source merge
//! counter families render in the Prometheus exposition.

mod common;

use common::{assert_matches_offline, fleet_config};
use gamescope::deploy::{build_tap_feed, run_tap_feed_replay, run_tap_fleet, TapReplayOptions};
use gamescope::deploy::{train_bundle, TrainConfig};
use gamescope::ingest::{split_round_robin, BackpressurePolicy, MergeSource, ReplayConfig};
use gamescope::trace::clock::VirtualClock;
use gamescope::trace::shift_micros;

#[test]
fn split_feeds_merge_back_byte_identical_to_offline_batch() {
    let bundle = std::sync::Arc::new(train_bundle(&TrainConfig::quick()));
    let cfg = fleet_config();
    let offline = run_tap_fleet(&bundle, &cfg);
    assert_eq!(offline.sessions.len(), cfg.n_sessions);
    let feed = build_tap_feed(&cfg);

    for m in [2usize, 4] {
        let sources: Vec<MergeSource> = split_round_robin(&feed, m)
            .into_iter()
            .enumerate()
            .map(|(i, part)| MergeSource::new(format!("tap{i}"), part))
            .collect();
        let live = run_tap_feed_replay(
            &bundle,
            common::SHARDS,
            sources,
            VirtualClock::new().shared(),
            TapReplayOptions {
                replay: ReplayConfig { pace: 4.0 },
                ..TapReplayOptions::default()
            },
        );
        assert_eq!(live.merge.merged_total(), feed.len() as u64);
        assert_eq!(live.merge.late_total(), 0, "{m}-way split is never late");
        assert_matches_offline(&offline, &live);
    }

    // Same 3-way split, but squeezed through deliberately tiny queues
    // under the blocking policy: producers stall until the router frees
    // slots, and the merged run still loses nothing.
    let sources: Vec<MergeSource> = split_round_robin(&feed, 3)
        .into_iter()
        .enumerate()
        .map(|(i, part)| MergeSource::new(format!("tap{i}"), part))
        .collect();
    let mut tight = TapReplayOptions {
        replay: ReplayConfig::as_fast_as_possible(),
        ..TapReplayOptions::default()
    };
    tight.ingest.queue_capacity = 64;
    tight.ingest.policy = BackpressurePolicy::Block;
    let squeezed = run_tap_feed_replay(
        &bundle,
        common::SHARDS,
        sources,
        VirtualClock::new().shared(),
        tight,
    );
    assert_eq!(squeezed.merge.labels, ["tap0", "tap1", "tap2"]);
    assert_eq!(squeezed.merge.merged_total(), feed.len() as u64);
    assert_eq!(squeezed.merge.late_total(), 0);
    assert_matches_offline(&offline, &squeezed);
}

#[test]
fn skewed_source_clocks_are_corrected_by_offsets() {
    let bundle = std::sync::Arc::new(train_bundle(&TrainConfig::quick()));
    let cfg = fleet_config();
    let offline = run_tap_fleet(&bundle, &cfg);
    let feed = build_tap_feed(&cfg);

    // Each simulated tap's capture clock runs ahead by a different skew;
    // its records carry the skewed timestamps and its MergeSource carries
    // the inverse correction, so the merge reconstructs the true axis.
    let skews: [i64; 3] = [0, 2_500, 7_000];
    let sources: Vec<MergeSource> = split_round_robin(&feed, skews.len())
        .into_iter()
        .zip(skews)
        .enumerate()
        .map(|(i, (part, skew))| {
            let skewed: Vec<_> = part
                .into_iter()
                .map(|(ts, tuple, len)| (shift_micros(ts, skew), tuple, len))
                .collect();
            MergeSource::with_offset(format!("tap{i}"), -skew, skewed)
        })
        .collect();
    let live = run_tap_feed_replay(
        &bundle,
        common::SHARDS,
        sources,
        VirtualClock::new().shared(),
        TapReplayOptions::default(),
    );
    assert_eq!(live.merge.merged_total(), feed.len() as u64);
    assert_eq!(
        live.merge.late_total(),
        0,
        "corrected clocks are never late"
    );
    assert_matches_offline(&offline, &live);
}

#[test]
fn merge_metric_families_render_with_source_labels() {
    let bundle = std::sync::Arc::new(train_bundle(&TrainConfig::quick()));
    let cfg = fleet_config();
    let feed = build_tap_feed(&cfg);
    let sources: Vec<MergeSource> = split_round_robin(&feed, 2)
        .into_iter()
        .enumerate()
        .map(|(i, part)| MergeSource::new(format!("nic{i}"), part))
        .collect();
    let live = run_tap_feed_replay(
        &bundle,
        common::SHARDS,
        sources,
        VirtualClock::new().shared(),
        TapReplayOptions {
            replay: ReplayConfig::as_fast_as_possible(),
            ..TapReplayOptions::default()
        },
    );

    let text = gamescope::obs::export::prometheus(&live.fleet.snapshot);
    assert!(
        text.contains("# TYPE cgc_ingest_merge_records_total counter"),
        "{text}"
    );
    let per_source = |i: usize| live.merge.merged[i];
    assert!(
        text.contains(&format!(
            "cgc_ingest_merge_records_total{{source=\"nic0\"}} {}",
            per_source(0)
        )),
        "{text}"
    );
    assert!(
        text.contains(&format!(
            "cgc_ingest_merge_records_total{{source=\"nic1\"}} {}",
            per_source(1)
        )),
        "{text}"
    );
    assert!(
        text.contains("cgc_ingest_merge_late_total{source=\"nic0\"} 0"),
        "{text}"
    );
    assert!(
        text.contains("cgc_ingest_merge_late_total{source=\"nic1\"} 0"),
        "{text}"
    );
    assert_eq!(per_source(0) + per_source(1), feed.len() as u64);
    // The family totals on the run's registry agree with the run's stats.
    assert_eq!(
        live.fleet
            .snapshot
            .counter("cgc_ingest_merge_records_total"),
        Some(feed.len() as u64)
    );
    assert_eq!(
        live.fleet.snapshot.counter("cgc_ingest_merge_late_total"),
        Some(0)
    );

    // The adaptive router exported its chosen batch sizes alongside.
    assert!(
        text.contains("# TYPE cgc_ingest_batch_size histogram"),
        "{text}"
    );
    let hist = live
        .fleet
        .snapshot
        .histogram("cgc_ingest_batch_size")
        .expect("batch size histogram");
    assert_eq!(hist.sum, feed.len() as u64, "batch sizes sum to hand-offs");
}
