//! End-to-end equivalence for the live ingestion path: the same tap
//! fleet driven through `run_tap_feed_replay` — paced replay on a
//! virtual clock, bounded queues, off-thread router, graceful shutdown —
//! must produce byte-identical session reports AND byte-identical
//! per-flow journal timelines to the offline batch path
//! (`run_tap_fleet`), with zero records lost under the blocking
//! backpressure policy. A second test checks the labeled ingest metric
//! families render in the Prometheus exposition exactly as a scraper
//! would see them.

mod common;

use common::fleet_config;
use gamescope::deploy::{
    build_tap_feed, run_tap_feed_replay, run_tap_fleet, TapFleetConfig, TapReplayOptions,
    TapReplayRun,
};
use gamescope::deploy::{train_bundle, TrainConfig};
use gamescope::ingest::{BackpressurePolicy, MergeSource, ReplayConfig};
use gamescope::pipeline::ModelBundle;
use gamescope::trace::clock::VirtualClock;

/// The fleet's feed as one source, replayed on a fresh virtual clock.
fn replay_whole_feed(
    bundle: &std::sync::Arc<ModelBundle>,
    cfg: &TapFleetConfig,
    opts: TapReplayOptions,
) -> TapReplayRun {
    run_tap_feed_replay(
        bundle,
        common::SHARDS,
        vec![MergeSource::new("feed", build_tap_feed(cfg))],
        VirtualClock::new().shared(),
        opts,
    )
}

/// [`common::assert_matches_offline`], plus what holds for one sorted
/// source: a pass-through merge, nothing late.
fn assert_matches_offline(offline: &gamescope::deploy::TapFleetRun, live: &TapReplayRun) {
    common::assert_matches_offline(offline, live);
    assert_eq!(live.merge.labels, ["feed"]);
    assert_eq!(live.merge.merged_total(), live.replay.released);
    assert_eq!(live.merge.late_total(), 0, "sorted feed is never late");
}

#[test]
fn replayed_fleet_is_byte_identical_to_offline_batch() {
    let bundle = std::sync::Arc::new(train_bundle(&TrainConfig::quick()));
    let cfg = fleet_config();
    let offline = run_tap_fleet(&bundle, &cfg);
    assert_eq!(offline.sessions.len(), cfg.n_sessions);

    // Paced 4x on a virtual clock: the pacer sleeps by advancing virtual
    // time, so the run is instant in wall time but exercises the full
    // deadline arithmetic.
    let paced = replay_whole_feed(
        &bundle,
        &cfg,
        TapReplayOptions {
            replay: ReplayConfig { pace: 4.0 },
            ..TapReplayOptions::default()
        },
    );
    assert_matches_offline(&offline, &paced);

    // As-fast-as-possible replay (pace 0) through the same queues.
    let afap = replay_whole_feed(
        &bundle,
        &cfg,
        TapReplayOptions {
            replay: ReplayConfig::as_fast_as_possible(),
            ..TapReplayOptions::default()
        },
    );
    assert_matches_offline(&offline, &afap);

    // Deliberately tiny queues under the blocking policy: producers stall
    // until the router frees slots, and the run still loses nothing.
    let mut tight = TapReplayOptions {
        replay: ReplayConfig::as_fast_as_possible(),
        ..TapReplayOptions::default()
    };
    tight.ingest.queue_capacity = 64;
    tight.ingest.policy = BackpressurePolicy::Block;
    let squeezed = replay_whole_feed(&bundle, &cfg, tight);
    assert_matches_offline(&offline, &squeezed);
}

#[test]
fn ingest_metric_families_render_with_labels() {
    let bundle = std::sync::Arc::new(train_bundle(&TrainConfig::quick()));
    let cfg = fleet_config();
    // Paced on the virtual clock (instant in wall time): pacing is what
    // feeds the lag histogram — AFAP replay skips it by design.
    let live = replay_whole_feed(
        &bundle,
        &cfg,
        TapReplayOptions {
            replay: ReplayConfig { pace: 8.0 },
            ..TapReplayOptions::default()
        },
    );

    let text = gamescope::obs::export::prometheus(&live.fleet.snapshot);

    // Per-shard queue depth gauges, zero after the graceful drain.
    assert!(
        text.contains("# TYPE cgc_ingest_queue_depth gauge"),
        "{text}"
    );
    assert!(
        text.contains("cgc_ingest_queue_depth{shard=\"0\"} 0"),
        "{text}"
    );
    assert!(
        text.contains("cgc_ingest_queue_depth{shard=\"1\"} 0"),
        "{text}"
    );

    // Drop counters labeled by the policy that caused them.
    assert!(
        text.contains("# TYPE cgc_ingest_dropped_total counter"),
        "{text}"
    );
    assert!(
        text.contains("cgc_ingest_dropped_total{policy=\"drop_oldest\"} 0"),
        "{text}"
    );
    assert!(
        text.contains("cgc_ingest_dropped_total{policy=\"drop_newest\"} 0"),
        "{text}"
    );

    // Flow accounting reached the exporter.
    let released = live.replay.released;
    assert!(
        text.contains(&format!("cgc_ingest_enqueued_total {released}")),
        "{text}"
    );
    assert!(
        text.contains(&format!("cgc_ingest_handed_off_total {released}")),
        "{text}"
    );
    assert!(
        text.contains(&format!("cgc_ingest_replayed_total {released}")),
        "{text}"
    );

    // The pacing-lag histogram recorded one observation per record.
    assert!(
        text.contains("# TYPE cgc_ingest_pacing_lag_us histogram"),
        "{text}"
    );
    assert!(
        text.contains(&format!("cgc_ingest_pacing_lag_us_count {released}")),
        "{text}"
    );
}
