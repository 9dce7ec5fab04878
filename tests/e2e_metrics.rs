//! End-to-end telemetry consistency: a synthetic gaming session driven
//! through the full tap pipeline must leave a metrics snapshot that agrees
//! with the pipeline's own returned outcome — every ingested packet
//! counted, every closed slot counted under its decided stage, one title
//! decision per session, and QoE slot counts matching the per-slot lists
//! in the session reports. The run records into a private registry, so
//! no counter on the process-global one may move while it runs (this file
//! holds one test, so nothing else writes there meanwhile).

use gamescope::deploy::train::{train_bundle, TrainConfig};
use gamescope::domain::{GameTitle, QoeLevel, Stage, StreamSettings};
use gamescope::obs::Registry;
use gamescope::pipeline::monitor::{MonitorConfig, TapMonitor};
use gamescope::sim::{Fidelity, Session, SessionConfig, SessionGenerator, TitleKind};
use gamescope::trace::packet::Direction;

fn make_session(title: GameTitle, seed: u64) -> Session {
    SessionGenerator::new().generate(&SessionConfig {
        kind: TitleKind::Known(title),
        settings: StreamSettings::default_pc(),
        gameplay_secs: 45.0,
        fidelity: Fidelity::FullPackets,
        seed,
    })
}

#[test]
fn pipeline_metrics_agree_with_session_reports() {
    let bundle = train_bundle(&TrainConfig::quick());
    let sessions = [
        make_session(GameTitle::Fortnite, 41),
        make_session(GameTitle::Hearthstone, 42),
    ];

    // The process-global registry after training; the run below records
    // into a private one and must leave this untouched.
    let global_before = Registry::global().snapshot();

    // Private registry so the assertions below are exact even when other
    // tests in this process drive the pipeline concurrently.
    let registry = Registry::new();
    let mut monitor = TapMonitor::with_registry(&bundle, MonitorConfig::default(), &registry);
    let mut fed = 0u64;
    for (i, s) in sessions.iter().enumerate() {
        let offset = i as u64 * 3_000_000;
        for p in &s.packets {
            let tuple = match p.dir {
                Direction::Downstream => s.tuple,
                Direction::Upstream => s.tuple.reversed(),
            };
            monitor.ingest(p.ts + offset, &tuple, p.payload_len);
            fed += 1;
        }
    }
    let reports = monitor.finish_all();
    assert_eq!(reports.len(), sessions.len());

    let snap = registry.snapshot();

    // Packet ingest: both sessions' flows carry platform signatures, so
    // every fed datagram must be counted, none ignored.
    assert_eq!(
        snap.counter("cgc_monitor_ingested_packets_total"),
        Some(fed)
    );
    assert_eq!(snap.counter("cgc_monitor_ignored_packets_total"), Some(0));
    assert_eq!(
        snap.counter("cgc_monitor_finalized_flows_total"),
        Some(reports.len() as u64)
    );
    assert_eq!(snap.gauge("cgc_monitor_active_flows"), Some(0));

    // Slot accounting: the per-stage decision counters must sum to exactly
    // the slots the reports carry, stage by stage.
    let slots_in_reports: u64 = reports
        .iter()
        .map(|m| m.report.stage_slots.len() as u64)
        .sum();
    assert!(slots_in_reports > 0);
    assert_eq!(
        snap.counter("cgc_pipeline_slots_total"),
        Some(slots_in_reports)
    );
    for stage in Stage::ALL {
        let in_reports: u64 = reports
            .iter()
            .flat_map(|m| &m.report.stage_slots)
            .filter(|s| **s == stage)
            .count() as u64;
        let counted = snap
            .get_with(
                "cgc_pipeline_stage_slots_total",
                &[("stage", &stage.to_string())],
            )
            .map_or(0, |m| match m.value {
                gamescope::obs::MetricValue::Counter(v) => v,
                _ => panic!("stage slots must be a counter"),
            });
        assert_eq!(counted, in_reports, "stage {stage}");
    }

    // One title decision per session, and the confidence histogram saw
    // exactly one sample per decision.
    assert_eq!(
        snap.counter("cgc_pipeline_title_decisions_total"),
        Some(reports.len() as u64)
    );
    assert_eq!(
        snap.histogram("cgc_pipeline_title_confidence_pct")
            .map(|h| h.count),
        Some(reports.len() as u64)
    );

    // QoE layer: objective and effective per-level counts each sum to the
    // slot total, and the per-slot QoE lists in the reports match.
    for kind in ["objective", "effective"] {
        let mut sum = 0u64;
        for level in QoeLevel::ALL {
            sum += snap
                .get_with(
                    "cgc_qoe_slots_total",
                    &[("kind", kind), ("level", &level.to_string())],
                )
                .map_or(0, |m| match m.value {
                    gamescope::obs::MetricValue::Counter(v) => v,
                    _ => panic!("qoe slots must be a counter"),
                });
        }
        assert_eq!(sum, slots_in_reports, "kind {kind}");
    }
    let effective_good: u64 = reports
        .iter()
        .flat_map(|m| &m.report.qoe_slots)
        .filter(|&&(_, eff)| eff == QoeLevel::Good)
        .count() as u64;
    let counted_good = snap
        .get_with(
            "cgc_qoe_slots_total",
            &[("kind", "effective"), ("level", "good")],
        )
        .map_or(0, |m| match m.value {
            gamescope::obs::MetricValue::Counter(v) => v,
            _ => 0,
        });
    assert_eq!(counted_good, effective_good);

    // Latency histograms observed the work that produced those decisions.
    // Slots past each session's seed window run feature extraction, and
    // one of every LATENCY_SAMPLE of them is timed.
    let seed_slots = MonitorConfig::default().analyzer.seed_slots as u64;
    let sampled: u64 = reports
        .iter()
        .map(|m| {
            let classified = m.report.stage_slots.len() as u64 - seed_slots;
            classified.div_ceil(gamescope::pipeline::pipeline::LATENCY_SAMPLE)
        })
        .sum();
    let feature_ns = snap.histogram("cgc_pipeline_feature_ns").unwrap();
    assert_eq!(feature_ns.count, sampled);
    assert_eq!(
        snap.histogram("cgc_pipeline_stage_infer_ns").unwrap().count,
        sampled
    );
    assert!(snap.histogram("cgc_pipeline_title_infer_ns").unwrap().count > 0);

    // Nothing escaped the private registry onto the global one.
    let moved: Vec<String> = Registry::global()
        .snapshot()
        .delta(&global_before)
        .metrics
        .into_iter()
        .filter(|m| matches!(m.value, gamescope::obs::MetricValue::Counter(v) if v > 0))
        .map(|m| m.name)
        .collect();
    assert!(moved.is_empty(), "global counters moved: {moved:?}");
}
