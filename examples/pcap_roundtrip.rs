//! PCAP round-trip: write a full-fidelity session to a standard libpcap
//! file (openable in Wireshark), read it back, and classify the context
//! from the capture — the path a downstream user with real gateway
//! captures would run.
//!
//! ```text
//! cargo run --release --example pcap_roundtrip
//! ```

use gamescope::deploy::train::{train_bundle, TrainConfig};
use gamescope::domain::{GameTitle, StreamSettings};
use gamescope::pipeline::filter;
use gamescope::pipeline::{AnalyzerConfig, QoeInputs, SessionAnalyzer};
use gamescope::sim::{Fidelity, SessionConfig, SessionGenerator, TitleKind};
use gamescope::trace::pcap;

fn main() {
    println!("training models (quick config)...");
    let bundle = train_bundle(&TrainConfig::quick());

    // Full packet fidelity: every gameplay frame and input packet is
    // materialized, so the pcap is a complete session capture.
    let mut generator = SessionGenerator::new();
    let session = generator.generate(&SessionConfig {
        kind: TitleKind::Known(GameTitle::GenshinImpact),
        settings: StreamSettings::default_pc(),
        gameplay_secs: 90.0,
        fidelity: Fidelity::FullPackets,
        seed: 99,
    });

    let path = std::env::temp_dir().join("gamescope_session.pcap");
    pcap::write_session_pcap(&path, &session.tuple, &session.packets).expect("write pcap");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "wrote {} packets ({:.1} MB) to {}",
        session.packets.len(),
        bytes as f64 / 1e6,
        path.display()
    );

    // Read the capture back, as if it came from a gateway tap.
    let records = pcap::read_records(&path).expect("read pcap");
    let packets = pcap::records_to_packets(&records, &session.tuple);
    println!("read back {} packets", packets.len());
    assert_eq!(packets.len(), session.packets.len());

    // The cloud-gaming filter should accept this flow.
    match filter::accept(&session.tuple, &filter::stats_of(&packets)) {
        Some(platform) => println!("filter: accepted as {platform} streaming flow"),
        None => println!("filter: REJECTED (unexpected)"),
    }

    // Classify from the re-read capture.
    let mut analyzer =
        SessionAnalyzer::new(&bundle, AnalyzerConfig::default(), QoeInputs::default());
    for p in &packets {
        analyzer.push_packet(p);
    }
    let report = analyzer.finish();
    println!(
        "classified title from the capture: {} (truth: {})",
        report.title.title.map(|t| t.name()).unwrap_or("unknown"),
        session.kind
    );
    println!(
        "mean downstream {:.1} Mbps over {} one-second slots",
        report.mean_down_mbps,
        report.stage_slots.len()
    );

    std::fs::remove_file(&path).ok();
}
