//! Byte-golden telemetry bodies: one `/slo` report, one `/journal?flow=`
//! line and one `/trace?flow=` line, served over HTTP from fixed inputs.
//! The JSON an operator's tooling parses is a contract; a refactor of the
//! recorders or the SLO evaluator that moves a single byte fails here.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gamescope::domain::{GameTitle, Platform, QoeLevel, Stage};
use gamescope::obs::event::{CloseCause, EventKind, FlowAddr};
use gamescope::obs::{
    Journal, JournalConfig, Registry, ServeOptions, SloHub, TelemetryServer, TraceCollector,
    TraceConfig, TraceStage,
};

fn get(addr: std::net::SocketAddr, target: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {target} HTTP/1.1\r\nHost: golden\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    body.to_string()
}

#[test]
fn slo_body_is_byte_stable() {
    // Every objective gets a value: drops and enqueues for the drop ratio,
    // queue gauges for saturation, a stalled slot counter with live flows
    // for staleness, one filled quality window and one drift score.
    let registry = Arc::new(Registry::new());
    let enqueued = registry.counter("cgc_ingest_enqueued_total", "t");
    let dropped = registry.counter("cgc_ingest_dropped_total", "t");
    registry.gauge("cgc_ingest_queue_capacity", "c").set(1_000);
    registry
        .gauge_with("cgc_ingest_queue_depth", "d", &[("shard", "0")])
        .set(300);
    registry.counter("cgc_pipeline_slots_total", "s").add(5);
    registry.gauge("cgc_monitor_active_flows", "a").set(2);
    registry
        .gauge_with("cgc_quality_accuracy_pct", "a", &[("model", "title")])
        .set(80);
    registry
        .gauge_with("cgc_quality_window_len", "w", &[("model", "title")])
        .set(64);
    registry
        .gauge_with("cgc_drift_score_milli", "d", &[("model", "title")])
        .set(120);
    let clock = Arc::new(AtomicU64::new(0));
    let tick = Arc::clone(&clock);
    let hub = SloHub::new(move || tick.load(Ordering::Relaxed));
    let reg = Arc::clone(&registry);
    let server = TelemetryServer::spawn(
        "127.0.0.1:0",
        move || reg.snapshot(),
        ServeOptions {
            slo: Some(Arc::new(hub)),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    enqueued.add(100);
    get(server.local_addr(), "/slo"); // baseline at t = 0
    enqueued.add(80);
    dropped.add(20);
    clock.store(60_000_000, Ordering::Relaxed);
    let golden = concat!(
        r#"{"ts":60000000,"status":"degraded","objectives":[{"objective":"handoff_p99_us","target"#,
        r#"":50000.0,"last":0.0,"burn_fast":0.0,"burn_slow":0.0,"status":"ok","reason":null},{"ob"#,
        r#"jective":"drop_ratio","target":0.01,"last":0.2,"burn_fast":4.0,"burn_slow":0.333333333"#,
        r#"33333337,"status":"degraded","reason":"drop_ratio burning 4.0x fast / 0.3x slow (targe"#,
        r#"t 0.01)"},{"objective":"queue_saturation","target":0.5,"last":0.3,"burn_fast":0.12,"bu"#,
        r#"rn_slow":0.01,"status":"ok","reason":null},{"objective":"classifier_staleness_us","tar"#,
        r#"get":30000000.0,"last":60000000.0,"burn_fast":0.4,"burn_slow":0.03333333333333333,"sta"#,
        r#"tus":"ok","reason":null},{"objective":"quality_error_ratio","target":0.1,"last":0.1999"#,
        r#"9999999999996,"burn_fast":0.3999999999999999,"burn_slow":0.033333333333333326,"status""#,
        r#":"ok","reason":null},{"objective":"drift_score","target":0.25,"last":0.12,"burn_fast":"#,
        r#"0.096,"burn_slow":0.008,"status":"ok","reason":null}]}"#,
    );
    assert_eq!(get(server.local_addr(), "/slo"), golden);
}

#[test]
fn journal_and_trace_flow_lines_are_byte_stable() {
    let registry = Arc::new(Registry::new());
    let (events, journal) = Journal::new(JournalConfig::default(), &registry);
    let (spans, traces) = TraceCollector::new(TraceConfig::default(), &registry);
    let flow = 0x00c0_ffee_0000_beef;
    let addr = FlowAddr {
        server_ip: "10.1.2.3".parse().unwrap(),
        server_port: 49003,
        client_ip: "100.64.0.9".parse().unwrap(),
        client_port: 51000,
    };
    for (ts, kind) in [
        (
            0,
            EventKind::FlowAdmitted {
                addr,
                platform: Platform::GeForceNow,
            },
        ),
        (0, EventKind::ModelVersion { version: 3 }),
        (5_000_000, EventKind::LaunchWindowClosed { packets: 1840 }),
        (
            5_000_000,
            EventKind::TitleDecided {
                title: Some(GameTitle::Fortnite),
                confidence: 0.875,
            },
        ),
        (
            6_000_000,
            EventKind::StageEntered {
                slot: 6,
                stage: Stage::Active,
            },
        ),
        (
            6_000_000,
            EventKind::QoeShift {
                slot: 6,
                objective: QoeLevel::Medium,
                effective: QoeLevel::Good,
            },
        ),
        (
            9_000_000,
            EventKind::SessionVerdict {
                objective: QoeLevel::Medium,
                effective: QoeLevel::Good,
            },
        ),
        (
            9_000_000,
            EventKind::FlowClosed {
                cause: CloseCause::Drained,
                confirmed: true,
            },
        ),
    ] {
        events.emit(flow, ts, kind);
        events.emit(7, ts, EventKind::RtpInvalid { payload_len: 12 });
    }
    for (slot, stage, ts, dur) in [
        (0, TraceStage::Queue, 10, 0),
        (0, TraceStage::Router, 12, 2),
        (6, TraceStage::Slot, 6_000_000, 41),
        (6, TraceStage::Verdict, 9_000_000, 3),
    ] {
        spans.record(flow, slot, stage, ts, dur);
        spans.record(7, slot, stage, ts, dur);
    }
    let reg = Arc::clone(&registry);
    let server = TelemetryServer::spawn(
        "127.0.0.1:0",
        move || reg.snapshot(),
        ServeOptions {
            journal: Some(Arc::new(Mutex::new(journal))),
            trace: Some(Arc::new(Mutex::new(traces))),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let journal_golden = concat!(
        r#"{"flow":"00c0ffee0000beef","server":"10.1.2.3:49003","client":"100.64.0.9:51000","pla"#,
        r#"tform":"GeForce NOW","truncated":false,"events":[{"flow":"00c0ffee0000beef","ts":0,"e"#,
        r#"vent":"flow_admitted","server":"10.1.2.3:49003","client":"100.64.0.9:51000","platfor"#,
        r#"m":"GeForce NOW"},{"flow":"00c0ffee0000beef","ts":0,"event":"model_version","version"#,
        r#"":3},{"flow":"00c0ffee0000beef","ts":5000000,"event":"launch_window_closed","packets"#,
        r#"":1840},{"flow":"00c0ffee0000beef","ts":5000000,"event":"title_decided","title":"For"#,
        r#"tnite","confidence":0.875},{"flow":"00c0ffee0000beef","ts":6000000,"event":"stage_en"#,
        r#"tered","slot":6,"stage":"active"},{"flow":"00c0ffee0000beef","ts":6000000,"event":"q"#,
        r#"oe_shift","slot":6,"objective":"medium","effective":"good"},{"flow":"00c0ffee0000bee"#,
        r#"f","ts":9000000,"event":"session_verdict","objective":"medium","effective":"good"},{"#,
        r#""flow":"00c0ffee0000beef","ts":9000000,"event":"flow_closed","cause":"drained","conf"#,
        r#"irmed":true}]}"#,
        "\n",
    );
    assert_eq!(
        get(server.local_addr(), "/journal?flow=00c0ffee0000beef"),
        journal_golden
    );
    let trace_golden = concat!(
        r#"{"flow":"00c0ffee0000beef","truncated":false,"spans":[{"flow":"00c0ffee0000beef","trac"#,
        r#"e":"00c0ffee0000beef","slot":0,"stage":"queue","ts":10,"dur_us":0},{"flow":"00c0ffee00"#,
        r#"00beef","trace":"00c0ffee0000beef","slot":0,"stage":"router","ts":12,"dur_us":2},{"flo"#,
        r#"w":"00c0ffee0000beef","trace":"00c0f9ee0000beef","slot":6,"stage":"slot","ts":6000000,"#,
        r#""dur_us":41},{"flow":"00c0ffee0000beef","trace":"00c0f9ee0000beef","slot":6,"stage":"v"#,
        r#"erdict","ts":9000000,"dur_us":3}]}"#,
        "\n",
    );
    assert_eq!(
        get(server.local_addr(), "/trace?flow=00c0ffee0000beef"),
        trace_golden
    );
}
