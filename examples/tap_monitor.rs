//! Tap monitor: the deployment front end. Three subscribers' sessions plus
//! unrelated traffic interleave on one simulated ISP link; the sharded
//! monitor hashes each flow to a worker shard, detects the gaming flows by
//! platform signature, demultiplexes them into per-flow analyzers, and
//! emits a context report per session as flows go idle.
//!
//! ```text
//! cargo run --release --example tap_monitor
//! ```

use std::sync::Arc;

use gamescope::deploy::report::metrics_table;
use gamescope::deploy::train::{train_bundle, TrainConfig};
use gamescope::domain::{GameTitle, StreamSettings};
use gamescope::obs::Registry;
use gamescope::pipeline::shard::{ShardedMonitorConfig, ShardedTapMonitor};
use gamescope::pipeline::Obs;
use gamescope::sim::{Fidelity, Session, SessionConfig, SessionGenerator, TitleKind};
use gamescope::trace::packet::{Direction, FiveTuple};
use gamescope::trace::units::Micros;

fn main() {
    println!("training models (quick config)...");
    let bundle = Arc::new(train_bundle(&TrainConfig::quick()));

    // Three subscribers start sessions at different times.
    let mut generator = SessionGenerator::new();
    let mut mk = |title: GameTitle, seed: u64| -> Session {
        generator.generate(&SessionConfig {
            kind: TitleKind::Known(title),
            settings: StreamSettings::default_pc(),
            gameplay_secs: 90.0,
            fidelity: Fidelity::FullPackets,
            seed,
        })
    };
    let sessions = [
        (0u64, mk(GameTitle::Fortnite, 11)),
        (20_000_000, mk(GameTitle::Hearthstone, 22)),
        (45_000_000, mk(GameTitle::GenshinImpact, 33)),
    ];

    // Interleave everything on one tap, plus non-gaming chatter.
    let mut feed: Vec<(Micros, FiveTuple, u32)> = Vec::new();
    for (offset, s) in &sessions {
        for p in &s.packets {
            let tuple = match p.dir {
                Direction::Downstream => s.tuple,
                Direction::Upstream => s.tuple.reversed(),
            };
            feed.push((p.ts + offset, tuple, p.payload_len));
        }
    }
    let dns = FiveTuple::udp_v4([8, 8, 8, 8], 53, [100, 64, 1, 1], 40_000);
    for i in 0..5_000u64 {
        feed.push((i * 30_000, dns, 120));
    }
    feed.sort_by_key(|(ts, _, _)| *ts);
    println!("tap feed: {} packets from 4 flows\n", feed.len());

    let mut monitor = ShardedTapMonitor::with_obs(
        Arc::clone(&bundle),
        ShardedMonitorConfig::with_shards(4),
        Registry::global(),
        Obs::global(),
    );
    // One batch per 256 records, the unit the live path's router hands
    // to the shards.
    for batch in feed.chunks(256) {
        monitor.ingest_batch(batch);
    }
    let live = monitor.stats().total();
    println!(
        "monitor: {} gaming flows tracked, {} non-gaming packets ignored",
        live.active_flows, live.ignored_packets
    );

    let (mut out, _stats) = monitor.finish_all();
    out.sort_by_key(|m| m.started_at);
    // The monitor records into the global registry; the snapshot spans all
    // four instrumented layers (trace, monitor/shard, pipeline, qoe).
    let snapshot = Registry::global().snapshot();
    println!("\nfront-end telemetry:\n{}", metrics_table(&snapshot));
    println!("\nper-session reports:");
    for m in &out {
        println!(
            "  t+{:>3}s {} [{}] -> title {} ({:.0}%), {:.1} Mbps, QoE {}/{}{}",
            m.started_at / 1_000_000,
            m.tuple,
            m.platform,
            m.report.title.title.map(|t| t.name()).unwrap_or("unknown"),
            m.report.title.confidence * 100.0,
            m.report.mean_down_mbps,
            m.report.objective_qoe,
            m.report.effective_qoe,
            if m.confirmed { "" } else { " (unconfirmed)" }
        );
    }
    println!("\nground truth: Fortnite @0s, Hearthstone @20s, Genshin Impact @45s");
}
