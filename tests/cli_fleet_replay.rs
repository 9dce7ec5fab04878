//! CLI referee: `gamescope fleet --replay sim` must print what the
//! library's `run_tap_feed_replay` concludes from the same tap fleet —
//! the operator's command and the call the benchmark times are one
//! wiring (`deploy::fleet::drive_tap_feed`), and this is the test that
//! notices if they stop being so. Runs the built binary twice (plain, and
//! split across two simulated taps fused back by the merge) and compares
//! its stdout, line for line, with lines rendered here from the library
//! run.

use std::process::Command;
use std::sync::Arc;

use gamescope::deploy::fleet::{
    build_tap_feed, run_tap_feed_replay, TapFleetConfig, TapReplayOptions,
};
use gamescope::deploy::train::{train_bundle, TrainConfig};
use gamescope::ingest::{split_round_robin, MergeSource, ReplayConfig};
use gamescope::pipeline::{ModelBundle, MonitoredSession};
use gamescope::trace::VirtualClock;

/// The CLI's per-session stdout line, spelled out again here on purpose:
/// the format is part of what `fleet --replay` holds fixed.
fn session_line(m: &MonitoredSession) -> String {
    format!(
        "t+{:>3}s {} [{}] -> title {} ({:.0}%), {:.1} Mbps, QoE {}/{}{}",
        m.started_at / 1_000_000,
        m.tuple,
        m.platform,
        m.report.title.title.map(|t| t.name()).unwrap_or("unknown"),
        m.report.title.confidence * 100.0,
        m.report.mean_down_mbps,
        m.report.objective_qoe,
        m.report.effective_qoe,
        if m.confirmed { "" } else { " (unconfirmed)" }
    )
}

/// Runs `gamescope fleet --replay sim …` and returns (session lines,
/// summary line) from its stdout.
fn cli_replay(extra: &[&str]) -> (Vec<String>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_gamescope"))
        .args([
            "fleet",
            "--replay",
            "sim",
            "--quick",
            "--sessions",
            "3",
            "--secs",
            "6",
            "--pace",
            "0",
            "--shards",
            "2",
        ])
        .args(extra)
        .output()
        .expect("run the gamescope binary");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "gamescope failed: {stderr}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let mut lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let summary = lines.pop().expect("a summary line");
    assert!(summary.starts_with("replay: "), "{stdout}");
    (lines, summary)
}

/// What the library concludes from `sources` through the call the
/// benchmark times, as (session lines, summary line).
fn library_replay(
    bundle: &Arc<ModelBundle>,
    cfg: &TapFleetConfig,
    sources: Vec<MergeSource>,
) -> (Vec<String>, String) {
    let offered: usize = sources.iter().map(|s| s.records.len()).sum();
    let run = run_tap_feed_replay(
        bundle,
        2,
        sources,
        VirtualClock::new().shared(),
        TapReplayOptions {
            replay: ReplayConfig::as_fast_as_possible(),
            ..TapReplayOptions::default()
        },
    );
    assert_eq!(run.fleet.sessions.len(), cfg.n_sessions);
    let summary = format!(
        "replay: {offered} merged (0 late), {offered} released, {offered} enqueued, \
         {offered} handed off, 0 dropped, {} sessions",
        cfg.n_sessions
    );
    (
        run.fleet.sessions.iter().map(session_line).collect(),
        summary,
    )
}

#[test]
fn cli_replay_prints_what_the_library_replay_concludes() {
    let bundle = Arc::new(train_bundle(&TrainConfig::quick()));
    let cfg = TapFleetConfig {
        n_sessions: 3,
        gameplay_secs: 6.0,
        ..TapFleetConfig::default()
    };
    let feed = build_tap_feed(&cfg);

    // The CLI's source layouts: the whole feed as "sim", and `--split 2`
    // as round-robin taps. (The two layouts need not agree with each
    // other: the merge breaks equal-timestamp ties by source index, so a
    // round-robin split can swap two same-microsecond records of a flow.)
    let taps: Vec<MergeSource> = split_round_robin(&feed, 2)
        .into_iter()
        .enumerate()
        .map(|(i, part)| MergeSource::new(format!("tap{i}"), part))
        .collect();
    let whole = vec![MergeSource::new("sim", feed)];

    assert_eq!(cli_replay(&[]), library_replay(&bundle, &cfg, whole));
    assert_eq!(
        cli_replay(&["--split", "2"]),
        library_replay(&bundle, &cfg, taps)
    );
}
