//! Flight recorder: per-flow decision timelines from the tap front end.
//! Two subscribers' sessions run through the sharded monitor with a
//! journal sink injected; afterwards the journal answers "why
//! did this flow get labeled the way it did" — as a human table, as
//! JSONL, and over the live HTTP telemetry endpoint that
//! `gamescope fleet --serve` exposes.
//!
//! ```text
//! cargo run --release --example flight_recorder
//! ```

use std::io::{Read, Write};
use std::sync::{Arc, Mutex};

use gamescope::deploy::report::journal_table;
use gamescope::deploy::train::{train_bundle, TrainConfig};
use gamescope::domain::{GameTitle, StreamSettings};
use gamescope::obs::{Journal, JournalConfig, Registry, TelemetryServer};
use gamescope::pipeline::shard::{ShardedMonitorConfig, ShardedTapMonitor};
use gamescope::pipeline::Obs;
use gamescope::sim::{Fidelity, Session, SessionConfig, SessionGenerator, TitleKind};
use gamescope::trace::packet::Direction;

fn main() {
    // A private registry and journal: the monitor below gets the sink,
    // this function keeps the consumer.
    let registry = Arc::new(Registry::new());
    let (sink, mut journal) = Journal::new(JournalConfig::default(), &registry);

    println!("training models (quick config)...");
    let bundle = Arc::new(train_bundle(&TrainConfig::quick()));

    let mut generator = SessionGenerator::new();
    let mut mk = |title: GameTitle, seed: u64| -> Session {
        generator.generate(&SessionConfig {
            kind: TitleKind::Known(title),
            settings: StreamSettings::default_pc(),
            gameplay_secs: 60.0,
            fidelity: Fidelity::FullPackets,
            seed,
        })
    };
    let sessions = [
        (0u64, mk(GameTitle::Fortnite, 11)),
        (15_000_000, mk(GameTitle::Hearthstone, 22)),
    ];

    let mut monitor = ShardedTapMonitor::with_obs(
        Arc::clone(&bundle),
        ShardedMonitorConfig::with_shards(2),
        &registry,
        Obs {
            journal: sink,
            ..Obs::on(&registry)
        },
    );
    for (offset, s) in &sessions {
        for p in &s.packets {
            let tuple = match p.dir {
                Direction::Downstream => s.tuple,
                Direction::Upstream => s.tuple.reversed(),
            };
            monitor.ingest(p.ts + offset, &tuple, p.payload_len);
        }
    }
    let (out, _stats) = monitor.finish_all();
    println!(
        "monitored {} sessions; journal has their timelines:\n",
        out.len()
    );

    journal.drain();
    println!("{}", journal_table(journal.timelines()));

    if let Some(tl) = journal.timelines().first() {
        println!("same data as JSONL (first timeline):");
        println!("{}\n", gamescope::obs::journal::render_line(tl));
    }

    // The live endpoint `gamescope fleet --serve <addr>` exposes, scraped
    // in-process: the three most recent events.
    let server = TelemetryServer::spawn(
        "127.0.0.1:0",
        move || registry.snapshot(),
        Some(Arc::new(Mutex::new(journal))),
    )
    .expect("bind telemetry endpoint");
    let addr = server.local_addr();
    println!("telemetry endpoint on http://{addr} — GET /journal?tail=3:");
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    write!(stream, "GET /journal?tail=3 HTTP/1.1\r\nHost: x\r\n\r\n").expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("");
    print!("{body}");
}
