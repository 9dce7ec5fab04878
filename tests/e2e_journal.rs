//! End-to-end flight-recorder consistency: sessions driven through the
//! full tap pipeline must leave per-flow journal timelines that agree
//! with the pipeline's own returned reports — admission first, one title
//! decision matching the report, stage/QoE transitions exactly where the
//! per-slot lists change, one verdict matching the session-level call,
//! closure last. A second test stands up the live HTTP endpoint the way
//! `gamescope fleet --serve` does and scrapes all three routes.

use std::sync::{Arc, Mutex};

use gamescope::deploy::fleet::{run_fleet, FleetConfig};
use gamescope::deploy::train::{train_bundle, TrainConfig};
use gamescope::domain::{GameTitle, StreamSettings};
use gamescope::obs::event::{CloseCause, EventKind};
use gamescope::obs::{Journal, JournalConfig, Registry};
use gamescope::pipeline::monitor::{MonitorConfig, TapMonitor};
use gamescope::pipeline::Obs;
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

/// Consecutive-deduplicated copy of a slot list: the sequence of values a
/// transition-triggered event stream should have emitted.
fn transitions<T: PartialEq + Copy>(slots: &[T]) -> Vec<T> {
    let mut out: Vec<T> = Vec::new();
    for &s in slots {
        if out.last() != Some(&s) {
            out.push(s);
        }
    }
    out
}

#[test]
fn journal_timelines_agree_with_session_reports() {
    let bundle = train_bundle(&TrainConfig::quick());
    let sessions = [
        make_session(GameTitle::Fortnite, 41),
        make_session(GameTitle::Hearthstone, 42),
    ];

    // Private registry + journal so the assertions are exact even when
    // other tests drive the pipeline concurrently in this process.
    let registry = Registry::new();
    let (sink, mut journal) = Journal::new(JournalConfig::default(), &registry);
    let obs = Obs {
        journal: sink.clone(),
        ..Obs::on(&registry)
    };
    let mut monitor = TapMonitor::with_obs(&bundle, MonitorConfig::default(), obs);

    for (i, s) in sessions.iter().enumerate() {
        let offset = i as u64 * 3_000_000;
        for p in &s.packets {
            let tuple = match p.dir {
                Direction::Downstream => s.tuple,
                Direction::Upstream => s.tuple.reversed(),
            };
            monitor.ingest(p.ts + offset, &tuple, p.payload_len);
        }
    }
    let reports = monitor.finish_all();
    assert_eq!(reports.len(), sessions.len());

    journal.drain();
    assert_eq!(journal.timelines().len(), reports.len());

    // Nothing overflowed the ring: the recorder's completeness claim.
    assert_eq!(sink.dropped(), 0);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("cgc_journal_dropped_events_total"), Some(0));
    let total_events: u64 = journal
        .timelines()
        .iter()
        .map(|tl| tl.events.len() as u64)
        .sum();
    assert_eq!(snap.counter("cgc_journal_events_total"), Some(total_events));

    for m in &reports {
        let flow = m.tuple.flow_id();
        let tl = journal
            .timeline(flow)
            .unwrap_or_else(|| panic!("no timeline for flow {flow:016x} ({})", m.tuple));
        assert!(!tl.truncated, "timeline truncated for {}", m.tuple);
        assert_eq!(tl.platform, Some(m.platform));
        let events = &tl.events;

        // Lifecycle brackets: admission (with the platform the monitor
        // detected) opens the timeline; the drain-close ends it, preceded
        // by the session verdict.
        assert!(
            matches!(
                events.first().map(|e| &e.kind),
                Some(EventKind::FlowAdmitted { platform, .. }) if *platform == m.platform
            ),
            "first event must be admission: {:?}",
            events.first()
        );
        let last = events.last().expect("non-empty timeline");
        match last.kind {
            EventKind::FlowClosed { cause, confirmed } => {
                assert_eq!(cause, CloseCause::Drained);
                assert_eq!(confirmed, m.confirmed);
                assert_eq!(last.ts, m.last_seen);
            }
            ref k => panic!("last event must be closure, got {k:?}"),
        }
        match events[events.len() - 2].kind {
            EventKind::SessionVerdict {
                objective,
                effective,
            } => {
                assert_eq!(objective, m.report.objective_qoe);
                assert_eq!(effective, m.report.effective_qoe);
            }
            ref k => panic!("verdict must precede closure, got {k:?}"),
        }

        // Exactly one title decision, and it is the report's.
        let decisions: Vec<_> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::TitleDecided { title, confidence } => Some((title, confidence)),
                _ => None,
            })
            .collect();
        assert_eq!(decisions.len(), 1, "one title decision per session");
        assert_eq!(decisions[0].0, m.report.title.title);
        assert!((decisions[0].1 - m.report.title.confidence).abs() < 1e-9);
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::LaunchWindowClosed { .. }))
                .count(),
            1
        );

        // Stage transitions: the StageEntered sequence is exactly the
        // consecutive-deduplicated per-slot stage list from the report.
        let entered: Vec<_> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::StageEntered { stage, .. } => Some(stage),
                _ => None,
            })
            .collect();
        assert_eq!(entered, transitions(&m.report.stage_slots));

        // Same for the (objective, effective) QoE pairs.
        let shifts: Vec<_> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::QoeShift {
                    objective,
                    effective,
                    ..
                } => Some((objective, effective)),
                _ => None,
            })
            .collect();
        assert_eq!(shifts, transitions(&m.report.qoe_slots));

        // Pattern decision mirrors the report: one event iff it fired.
        let patterns: Vec<_> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::PatternInferred { pattern, .. } => Some(pattern),
                _ => None,
            })
            .collect();
        match &m.report.pattern {
            Some(p) => assert_eq!(patterns, vec![p.pattern]),
            None => assert!(patterns.is_empty()),
        }
    }
}

/// Minimal HTTP GET against the in-process telemetry server.
fn http_get(addr: std::net::SocketAddr, target: &str) -> (String, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(stream, "GET {target} HTTP/1.1\r\nHost: e2e\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    (head.to_string(), body.to_string())
}

#[test]
fn telemetry_endpoint_serves_fleet_run() {
    // The same wiring `gamescope fleet --serve 127.0.0.1:0` performs, on
    // a registry private to this test: build a journal, hand its sink to
    // the fleet, serve the registry and journal over HTTP.
    let registry = Arc::new(Registry::new());
    let (sink, journal) = Journal::new(JournalConfig::default(), &registry);
    let bundle = train_bundle(&TrainConfig::quick());
    let cfg = FleetConfig {
        n_sessions: 4,
        duration_scale: 0.02,
        obs: Arc::new(Obs {
            journal: sink,
            ..Obs::on(&registry)
        }),
        ..FleetConfig::default()
    };
    let records = run_fleet(&bundle, &cfg);
    assert_eq!(records.len(), cfg.n_sessions);

    let server = gamescope::obs::TelemetryServer::spawn(
        "127.0.0.1:0",
        move || registry.snapshot(),
        gamescope::obs::ServeOptions {
            journal: Some(Arc::new(Mutex::new(journal))),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let (head, body) = http_get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "ok\n");

    let (head, body) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(body.contains("# TYPE"), "{body}");
    assert!(body.contains("cgc_journal_events_total"), "{body}");

    // One JSONL timeline per fleet session, each carrying a verdict.
    let (head, body) = http_get(addr, "/journal");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), cfg.n_sessions, "{body}");
    for line in &lines {
        assert!(line.starts_with('{'), "{line}");
        assert!(line.contains("\"session_verdict\""), "{line}");
    }

    // Narrowing by flow id returns exactly that timeline.
    let flow_hex = lines[0]
        .split("\"flow\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("flow field in timeline JSON");
    let (_, one) = http_get(addr, &format!("/journal?flow={flow_hex}"));
    assert_eq!(one.lines().count(), 1);
    assert!(one.contains(flow_hex), "{one}");

    let (_, tail) = http_get(addr, "/journal?tail=3");
    assert_eq!(tail.lines().count(), 3, "{tail}");

    let (head, _) = http_get(addr, "/nowhere");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");
}
