//! End-to-end span-trace acceptance: a live tap replay served over the
//! telemetry endpoint must let an operator reconstruct one flow's full
//! causal chain (ingest → merge → queue → router → shard → slot →
//! classifier → verdict) from `/trace`, cross-match it against the
//! decision journal's timeline for the same flow id, and follow a
//! histogram exemplar from `/metrics` back to that trace. A second test
//! drives `/healthz` through the SLO burn-rate engine on a manual clock:
//! an induced drop burst flips it to degraded (and a sustained storm to
//! critical 503), and it recovers once the fast burn window drains.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gamescope::deploy::fleet::{build_tap_feed, drive_tap_feed, TapFleetConfig, TapReplayOptions};
use gamescope::deploy::train::{train_bundle, TrainConfig};
use gamescope::ingest::MergeSource;
use gamescope::obs::snapshot::MetricValue;
use gamescope::obs::{
    Journal, JournalConfig, Pump, Registry, ServeOptions, SloHub, TelemetryServer, TraceCollector,
    TraceConfig, TraceStage,
};
use gamescope::pipeline::Obs;

/// Minimal HTTP GET against the in-process telemetry server.
fn http_get(addr: std::net::SocketAddr, target: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {target} HTTP/1.1\r\nHost: e2e\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    (head.to_string(), body.to_string())
}

/// Every string value keyed by `key` in one JSONL line, in order.
fn field_strings(line: &str, key: &str) -> Vec<String> {
    let pat = format!("\"{key}\":\"");
    line.match_indices(&pat)
        .filter_map(|(i, _)| line[i + pat.len()..].split('"').next())
        .map(str::to_string)
        .collect()
}

/// Every unsigned-integer value keyed by `key` in one JSONL line.
fn field_uints(line: &str, key: &str) -> Vec<u64> {
    let pat = format!("\"{key}\":");
    line.match_indices(&pat)
        .filter_map(|(i, _)| {
            let digits: String = line[i + pat.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().ok()
        })
        .collect()
}

/// One span parsed back out of the served JSONL: (stage, ts, slot).
type ParsedSpan = (String, u64, u64);

/// Parses a `/trace` timeline line and re-sorts its spans into causal
/// order the way an operator (or `TraceTimeline::causal_chain`) would:
/// stage rank, then timestamp, then slot.
fn parse_chain(line: &str) -> Vec<ParsedSpan> {
    let stages = field_strings(line, "stage");
    let ts = field_uints(line, "ts");
    let slots = field_uints(line, "slot");
    assert_eq!(stages.len(), ts.len(), "span fields line up: {line}");
    assert_eq!(stages.len(), slots.len(), "span fields line up: {line}");
    let rank = |name: &str| {
        TraceStage::ALL
            .iter()
            .position(|s| s.name() == name)
            .unwrap_or_else(|| panic!("unknown stage {name:?} in {line}"))
    };
    let mut chain: Vec<ParsedSpan> = stages
        .into_iter()
        .zip(ts)
        .zip(slots)
        .map(|((stage, ts), slot)| (stage, ts, slot))
        .collect();
    chain.sort_by_key(|(stage, ts, slot)| (rank(stage), *ts, *slot));
    chain
}

#[test]
fn trace_endpoint_reconstructs_causal_chains_with_exemplars() {
    let bundle = Arc::new(train_bundle(&TrainConfig::quick()));
    let cfg = TapFleetConfig {
        n_sessions: 2,
        gameplay_secs: 12.0,
        ..Default::default()
    };
    // The tap driver `run_tap_feed_replay` wraps, called directly so the
    // registry, journal and span collector stay alive for the server
    // after the run ends.
    let registry = Arc::new(Registry::new());
    let (trace_sink, collector) = TraceCollector::new(
        TraceConfig {
            // Keep every span of a flow's whole replay.
            max_spans_per_flow: 1 << 17,
            ..Default::default()
        },
        &registry,
    );
    // Drained while the replay runs, as `gamescope fleet` does: the
    // per-record stages outgrow the span ring long before the run ends.
    let collector = Arc::new(Mutex::new(collector));
    let pump = Pump::start(Arc::clone(&collector), Duration::from_millis(1), &registry);
    let (journal_sink, journal) = Journal::new(JournalConfig::default(), &registry);
    let sessions = drive_tap_feed(
        Arc::clone(&bundle),
        2,
        vec![MergeSource::new("feed", build_tap_feed(&cfg))],
        gamescope::trace::VirtualClock::new().shared(),
        &TapReplayOptions::default(),
        &registry,
        Obs {
            journal: journal_sink,
            trace: trace_sink,
            ..Obs::on(&registry)
        },
    )
    .sessions;
    pump.stop();
    assert_eq!(sessions.len(), cfg.n_sessions);

    // Serve the finished run the way `gamescope fleet --serve` does.
    let reg = Arc::clone(&registry);
    let server = TelemetryServer::spawn(
        "127.0.0.1:0",
        move || reg.snapshot(),
        ServeOptions {
            journal: Some(Arc::new(Mutex::new(journal))),
            trace: Some(collector),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // One JSONL timeline per sampled flow, and nothing overflowed the
    // ring on the way there.
    let (head, body) = http_get(addr, "/trace");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body.lines().count(), cfg.n_sessions, "{body}");
    assert_eq!(
        registry.snapshot().counter("cgc_trace_dropped_spans_total"),
        Some(0)
    );

    let all_stage_names: Vec<&str> = TraceStage::ALL.iter().map(|s| s.name()).collect();
    for m in &sessions {
        let flow_hex = format!("{:016x}", m.tuple.flow_id());

        // `?flow=` narrows to exactly this flow's timeline.
        let (_, line) = http_get(addr, &format!("/trace?flow={flow_hex}"));
        assert_eq!(line.lines().count(), 1, "{line}");
        assert!(line.contains(&format!("\"flow\":\"{flow_hex}\"")), "{line}");
        assert!(line.contains("\"truncated\":false"), "{line}");

        // The reconstructed chain covers every stage, ingest first and
        // verdict last.
        let chain = parse_chain(&line);
        let distinct: Vec<&str> = all_stage_names
            .iter()
            .copied()
            .filter(|name| chain.iter().any(|(stage, _, _)| stage == name))
            .collect();
        assert_eq!(distinct, all_stage_names, "full causal chain: {line}");
        let (first_stage, _, _) = chain.first().unwrap();
        let (last_stage, verdict_ts, verdict_slot) = chain.last().unwrap();
        assert_eq!(first_stage, "ingest");
        assert_eq!(last_stage, "verdict");

        // Cross-match against the decision journal: the same flow id has
        // a timeline, and the verdict span lands on the exact timestamp
        // of one of its decision events (the session verdict).
        let (_, journal_line) = http_get(addr, &format!("/journal?flow={flow_hex}"));
        assert_eq!(journal_line.lines().count(), 1, "{journal_line}");
        assert!(
            journal_line.contains(&format!("\"flow\":\"{flow_hex}\"")),
            "{journal_line}"
        );
        assert!(
            field_uints(&journal_line, "ts").contains(verdict_ts),
            "verdict span ts {verdict_ts} missing from journal timeline: {journal_line}"
        );

        // `?slot=` narrows to the verdict slot's spans.
        let (_, slot_line) = http_get(addr, &format!("/trace?flow={flow_hex}&slot={verdict_slot}"));
        assert!(slot_line.contains("\"stage\":\"verdict\""), "{slot_line}");
        assert!(!slot_line.contains("\"stage\":\"ingest\""), "{slot_line}");
    }

    // A latency histogram exemplar resolves back to a served trace: the
    // exemplar names a flow the run classified, and its trace id is the
    // id of a span in that flow's `/trace` timeline.
    let snap = registry.snapshot();
    let exemplar = snap
        .metrics
        .iter()
        .filter(|m| m.name == "cgc_pipeline_feature_ns")
        .filter_map(|m| match &m.value {
            MetricValue::Histogram(h) => h.exemplar,
            _ => None,
        })
        .next()
        .expect("a sampled classified slot attached an exemplar");
    assert!(
        sessions.iter().any(|m| m.tuple.flow_id() == exemplar.flow),
        "exemplar flow {:016x} is not a session flow",
        exemplar.flow
    );
    let ex_flow_hex = format!("{:016x}", exemplar.flow);
    let ex_trace_hex = format!("{:016x}", exemplar.trace);
    let (_, line) = http_get(addr, &format!("/trace?flow={ex_flow_hex}"));
    assert!(
        line.contains(&format!("\"trace\":\"{ex_trace_hex}\"")),
        "exemplar trace {ex_trace_hex} does not resolve in {line}"
    );
    // And the scraped exposition carries the OpenMetrics exemplar an
    // operator would have jumped from.
    let (_, metrics_body) = http_get(addr, "/metrics");
    assert!(
        metrics_body.contains(&format!("flow=\"{ex_flow_hex}\",trace=\"{ex_trace_hex}\"")),
        "exemplar missing from /metrics exposition"
    );
}

#[test]
fn healthz_degrades_on_drop_burst_and_recovers_when_burn_window_drains() {
    // Manual SLO clock: each step below sets the hub's "now" before the
    // probe, so the burn-window arithmetic is exact.
    let registry = Arc::new(Registry::new());
    let accepted = registry.counter("cgc_ingest_enqueued_total", "accepted");
    let dropped = registry.counter("cgc_ingest_dropped_total", "dropped");
    let now = Arc::new(AtomicU64::new(1_000_000));
    let now_for_hub = Arc::clone(&now);
    let hub = SloHub::new(move || now_for_hub.load(Ordering::Relaxed));
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
    let addr = server.local_addr();

    // t = 1 s: baseline probe primes the snapshot bridge.
    let (head, body) = http_get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "ok\n");

    // t = 31 s: a drop burst (30 % of the interval's records) burns the
    // 5-minute window at 3x — degraded, but the hour window is intact,
    // so the probe still answers 200.
    accepted.add(700);
    dropped.add(300);
    now.store(31_000_000, Ordering::Relaxed);
    let (head, body) = http_get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(body.starts_with("degraded: drop_ratio"), "{body}");
    let (head, slo) = http_get(addr, "/slo");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(slo.contains("\"status\":\"degraded\""), "{slo}");
    assert!(slo.contains("\"objective\":\"drop_ratio\""), "{slo}");

    // t = 332 s: the burst has slid out of the fast window and no new
    // drops arrived — recovered.
    now.store(332_000_000, Ordering::Relaxed);
    let (head, body) = http_get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "ok\n");

    // t = 932 s: a sustained storm (100 % drops for ten minutes) burns
    // both windows — critical, and the probe flips to 503 so external
    // checks trip unmodified.
    dropped.add(5_000);
    now.store(932_000_000, Ordering::Relaxed);
    let (head, body) = http_get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 503"), "{head}");
    assert!(body.starts_with("critical: drop_ratio"), "{body}");

    // t = 1233 s: storm over, fast window drained — recovered again.
    now.store(1_233_000_000, Ordering::Relaxed);
    let (head, body) = http_get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "ok\n");
}
