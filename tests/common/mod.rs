//! What the tap-path byte-identity suites (`e2e_ingest`, `e2e_merge`)
//! share: the fleet they replay and the comparison against the offline
//! oracle (`run_tap_fleet`).

use gamescope::deploy::{TapFleetConfig, TapFleetRun, TapReplayRun};
use gamescope::obs::journal::render_line;

pub fn fleet_config() -> TapFleetConfig {
    TapFleetConfig {
        n_sessions: 4,
        gameplay_secs: 12.0,
        shards: 2,
        ..TapFleetConfig::default()
    }
}

/// Rendered JSONL timeline lines, sorted. Cross-shard admission order in
/// the journal ring is racy (two router hand-offs interleave), but each
/// flow's own timeline is produced by one shard worker in order — so the
/// sorted per-flow lines are the run's canonical journal output.
fn timeline_lines(timelines: &[gamescope::obs::FlowTimeline]) -> Vec<String> {
    let mut lines: Vec<String> = timelines.iter().map(render_line).collect();
    lines.sort();
    lines
}

pub fn assert_matches_offline(offline: &TapFleetRun, live: &TapReplayRun) {
    // Lossless transport: everything released by the pacer was admitted,
    // everything admitted was handed to the monitor, nothing dropped.
    assert!(!live.replay.cancelled);
    assert_eq!(live.dropped, 0, "block policy must not drop");
    assert_eq!(live.enqueued, live.replay.released);
    assert_eq!(live.handed_off, live.enqueued);

    // Byte-identical session reports: the full monitored-session record
    // via its Debug rendering (exact f64 formatting) and the report via
    // its JSON wire format.
    let render = |sessions: &[gamescope::pipeline::MonitoredSession]| -> Vec<String> {
        sessions
            .iter()
            .map(|s| format!("{s:?} {}", serde_json::to_string(&s.report).unwrap()))
            .collect::<Vec<_>>()
    };
    assert_eq!(render(&offline.sessions), render(&live.fleet.sessions));

    // Byte-identical per-flow journal timelines.
    assert_eq!(
        timeline_lines(&offline.timelines),
        timeline_lines(&live.fleet.timelines)
    );
}
