//! Paced live-replay ingestion: the same subscriber fleet observed two
//! ways. First the offline batch path (every record folded in as fast as
//! the loop runs), then the live path — records released at their
//! recorded timestamps against a virtual clock, pushed through bounded
//! lock-free queues with backpressure, drained off-thread into the
//! sharded monitor, and shut down gracefully so every still-open flow
//! gets its final verdict. The two runs must agree byte-for-byte; the
//! queue accounting and pacing-lag histogram show what the transport did.
//!
//! ```text
//! cargo run --release --example paced_replay
//! ```

use std::sync::Arc;

use gamescope::deploy::{
    build_tap_feed, run_tap_feed_replay, run_tap_fleet, TapFleetConfig, TapReplayOptions,
};
use gamescope::deploy::{train_bundle, TrainConfig};
use gamescope::ingest::{MergeSource, ReplayConfig};
use gamescope::trace::clock::VirtualClock;

fn main() {
    println!("training models (quick config)...");
    let bundle = Arc::new(train_bundle(&TrainConfig::quick()));

    let cfg = TapFleetConfig {
        n_sessions: 4,
        gameplay_secs: 15.0,
        ..TapFleetConfig::default()
    };
    let feed = build_tap_feed(&cfg);
    let span_secs = feed
        .last()
        .map(|&(ts, _, _)| ts as f64 / 1e6)
        .unwrap_or(0.0);
    println!(
        "tap feed: {} records over {span_secs:.1}s of recorded time, {} sessions\n",
        feed.len(),
        cfg.n_sessions
    );

    // Reference: the offline batch path.
    let offline = run_tap_fleet(&bundle, &cfg);

    // Live path: replay at 4x the recorded rate on a virtual clock. The
    // pacer "sleeps" by advancing virtual time, so the whole recorded
    // span elapses instantly in wall time while the deadline arithmetic,
    // queue hand-off and graceful shutdown all run for real. Swap in
    // `RealClock::shared()` and this becomes an actual real-time replay.
    let clock = VirtualClock::new();
    let live = run_tap_feed_replay(
        &bundle,
        2,
        vec![MergeSource::new("feed", feed)],
        clock.shared(),
        TapReplayOptions {
            replay: ReplayConfig { pace: 4.0 },
            ..TapReplayOptions::default()
        },
    );

    println!("transport accounting (block policy — lossless by construction):");
    println!("  released by pacer : {}", live.replay.released);
    println!("  admitted to queues: {}", live.enqueued);
    println!("  handed to monitor : {}", live.handed_off);
    println!("  dropped           : {}", live.dropped);
    println!("  max pacing lag    : {}us\n", live.replay.max_lag_us);

    assert_eq!(live.dropped, 0);
    assert_eq!(live.enqueued, live.handed_off);

    println!("per-session verdicts through the live path:");
    for m in &live.fleet.sessions {
        println!(
            "  {} {:?} title={:?} objective={:?} effective={:?}",
            m.tuple,
            m.platform,
            m.report.title.title,
            m.report.objective_qoe,
            m.report.effective_qoe
        );
    }

    // The point of the exercise: the live path changes *when* records
    // arrive, never *what* the pipeline concludes from them.
    let render = |sessions: &[gamescope::pipeline::MonitoredSession]| -> Vec<String> {
        sessions.iter().map(|s| format!("{s:?}")).collect()
    };
    assert_eq!(render(&offline.sessions), render(&live.fleet.sessions));
    println!(
        "\noffline batch path and paced live replay agree on all {} reports.",
        offline.sessions.len()
    );

    // The ingest metric families a scraper would see for this run.
    let text = gamescope::obs::export::prometheus(&live.fleet.snapshot);
    println!("\ningest metric families:");
    for line in text
        .lines()
        .filter(|l| l.starts_with("cgc_ingest_") && !l.contains("_bucket"))
    {
        println!("  {line}");
    }
}
