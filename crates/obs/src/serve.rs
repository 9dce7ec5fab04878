//! Dependency-free blocking HTTP telemetry endpoint.
//!
//! One `std::net::TcpListener` + one thread, enough for a scraper and an
//! operator with `curl` — deliberately not an async stack. Routes:
//!
//! - `GET /metrics` — live registry snapshot, Prometheus text exposition
//!   (histograms carry OpenMetrics exemplars when traced call sites
//!   attached them)
//! - `GET /healthz` — `ok` / `degraded: …` / `critical: …`; critical
//!   answers HTTP 503 so external probes work unmodified. With an
//!   [`SloHub`] the verdict is the multi-window burn-rate evaluation;
//!   without one it falls back to cumulative drop/saturation counters.
//! - `GET /journal` — flight-recorder timelines as JSONL (one flow per
//!   line); `?flow=<hex id>` narrows to one timeline, `?tail=N` returns
//!   the N most recent events (one event per line) instead
//! - `GET /trace` — span timelines as JSONL (one flow per line);
//!   `?flow=<hex id>` narrows to one flow, `?slot=N` to one slot's spans
//! - `GET /slo` — the full burn-rate report as JSON (404 without a hub)
//! - `GET /quality` — streaming confusion-telemetry report as JSON
//!   (rolling accuracy/precision/recall per model; 404 without a hub)
//! - `GET /drift` — label-free drift report as JSON (PSI/KS/novelty per
//!   model; 404 without an engine)
//! - `GET /models` — model-lifecycle status as JSON (live/shadow
//!   registry versions, manifests, A/B verdict; 404 without a registry)
//!
//! The snapshot comes from a caller-supplied closure so the server works
//! against the global registry, a private fleet registry, or anything
//! else that can produce a [`Snapshot`]. Shutdown is edge-free: dropping
//! [`TelemetryServer`] flips a flag and self-connects to unblock
//! `accept`, then joins the thread.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::build::BuildInfo;
use crate::channel::lock;
use crate::drift::DriftEngine;
use crate::export;
use crate::journal::Journal;
use crate::quality::QualityHub;
use crate::slo::{Health, SloHub};
use crate::snapshot::Snapshot;
use crate::trace::TraceCollector;

/// Optional backends for the non-metrics routes.
#[derive(Default)]
pub struct ServeOptions {
    /// Backs `/journal`; the route answers 404 when absent.
    pub journal: Option<Arc<Mutex<Journal>>>,
    /// Backs `/trace`; the route answers 404 when absent.
    pub trace: Option<Arc<Mutex<TraceCollector>>>,
    /// Backs `/slo` and upgrades `/healthz` to burn-rate evaluation.
    pub slo: Option<Arc<SloHub>>,
    /// Backs `/quality`; the route answers 404 when absent. Drained and
    /// re-synced before every response so scraped gauges are current.
    pub quality: Option<Arc<Mutex<QualityHub>>>,
    /// Backs `/drift`; the route answers 404 when absent. Drained and
    /// re-synced before every response.
    pub drift: Option<Arc<Mutex<DriftEngine>>>,
    /// Appends the build line to `/healthz` and keeps the uptime gauge
    /// fresh on every request.
    pub build: Option<Arc<BuildInfo>>,
    /// Backs `/models`: a closure producing the model-lifecycle status
    /// report as a JSON string (live/shadow versions, registry
    /// manifests, A/B verdict). The route answers 404 when absent, or
    /// when the closure returns `None` (lifecycle wired but no registry
    /// open yet). A closure — rather than a concrete type — keeps `obs`
    /// below the lifecycle crate in the dependency order.
    pub models: Option<Arc<dyn Fn() -> Option<String> + Send + Sync>>,
}

impl std::fmt::Debug for ServeOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeOptions")
            .field("journal", &self.journal.is_some())
            .field("trace", &self.trace.is_some())
            .field("slo", &self.slo.is_some())
            .field("quality", &self.quality.is_some())
            .field("drift", &self.drift.is_some())
            .field("build", &self.build.is_some())
            .field("models", &self.models.is_some())
            .finish()
    }
}

/// A running telemetry endpoint; drops cleanly when it goes out of scope.
pub struct TelemetryServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TelemetryServer {
    /// Binds `addr` (e.g. `127.0.0.1:9184`, port 0 for ephemeral) and
    /// serves until dropped. `snapshot` is called per `/metrics` request;
    /// `journal`, when given, backs `/journal` (404 otherwise).
    pub fn spawn<F>(
        addr: &str,
        snapshot: F,
        journal: Option<Arc<Mutex<Journal>>>,
    ) -> std::io::Result<TelemetryServer>
    where
        F: Fn() -> Snapshot + Send + 'static,
    {
        Self::spawn_with(
            addr,
            snapshot,
            ServeOptions {
                journal,
                ..ServeOptions::default()
            },
        )
    }

    /// [`TelemetryServer::spawn`] with the full backend set: journal,
    /// trace collector, and SLO hub.
    pub fn spawn_with<F>(
        addr: &str,
        snapshot: F,
        options: ServeOptions,
    ) -> std::io::Result<TelemetryServer>
    where
        F: Fn() -> Snapshot + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("obs-serve".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(mut stream) = conn else { continue };
                    // A stalled client must not wedge the single thread.
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
                    handle_conn(&mut stream, &snapshot, &options);
                }
            })?;
        Ok(TelemetryServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for TelemetryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryServer")
            .field("addr", &self.addr)
            .finish()
    }
}

fn handle_conn<F: Fn() -> Snapshot>(stream: &mut TcpStream, snapshot: &F, options: &ServeOptions) {
    let Some(target) = read_request_target(stream) else {
        return;
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };
    // Bring derived gauges up to date before any snapshot is taken, so
    // `/metrics`, `/healthz`, and the SLO bridge all see current
    // quality/drift scores and uptime — not the last request's.
    if let Some(build) = &options.build {
        build.sync();
    }
    if let Some(quality) = &options.quality {
        lock(quality).drain_and_sync();
    }
    if let Some(drift) = &options.drift {
        lock(drift).drain_and_sync();
    }
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            export::prometheus(&snapshot()),
        ),
        "/healthz" => {
            let (health, body) = healthz(snapshot, options);
            let status = if health == Health::Critical {
                "503 Service Unavailable"
            } else {
                "200 OK"
            };
            (status, "text/plain", body)
        }
        "/slo" => match &options.slo {
            Some(hub) => (
                "200 OK",
                "application/json",
                serde_json::to_string(&hub.observe_and_evaluate(&snapshot()))
                    .expect("slo report serialization is infallible"),
            ),
            None => not_found("no slo engine installed"),
        },
        "/quality" => match &options.quality {
            Some(hub) => (
                "200 OK",
                "application/json",
                serde_json::to_string(&lock(hub).report())
                    .expect("quality report serialization is infallible"),
            ),
            None => not_found("no quality telemetry installed"),
        },
        "/drift" => match &options.drift {
            Some(engine) => (
                "200 OK",
                "application/json",
                serde_json::to_string(&lock(engine).report())
                    .expect("drift report serialization is infallible"),
            ),
            None => not_found("no drift engine installed"),
        },
        "/models" => match options.models.as_ref().and_then(|report| report()) {
            Some(body) => ("200 OK", "application/json", body),
            None => not_found("no model registry installed"),
        },
        "/journal" => match &options.journal {
            Some(j) => ("200 OK", "application/jsonl", journal_body(j, query)),
            None => not_found("no journal installed"),
        },
        "/trace" => match &options.trace {
            Some(t) => ("200 OK", "application/jsonl", trace_body(t, query)),
            None => not_found("no trace collector installed"),
        },
        _ => not_found("not found"),
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

fn not_found(why: &str) -> (&'static str, &'static str, String) {
    ("404 Not Found", "text/plain", format!("{why}\n"))
}

/// Reads just enough of the request to get the target of the request
/// line (`GET <target> HTTP/1.1`); returns `None` on anything malformed.
fn read_request_target(stream: &mut TcpStream) -> Option<String> {
    let mut buf = [0u8; 2048];
    let mut used = 0;
    loop {
        if used == buf.len() {
            return None; // request line absurdly long
        }
        let n = stream.read(&mut buf[used..]).ok()?;
        if n == 0 {
            return None;
        }
        used += n;
        if buf[..used].contains(&b'\n') {
            break;
        }
    }
    let line = std::str::from_utf8(&buf[..used]).ok()?.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    if method != "GET" {
        return None;
    }
    Some(target.to_string())
}

/// Cumulative-counter fallback thresholds for `/healthz` without an SLO
/// hub: crude by design (lifetime ratios, no windows) but enough to turn
/// real drop storms and saturated queues into non-ok probes.
const FALLBACK_DROP_DEGRADED: f64 = 0.001;
const FALLBACK_DROP_CRITICAL: f64 = 0.05;
const FALLBACK_SATURATION_DEGRADED: f64 = 0.9;

fn healthz<F: Fn() -> Snapshot>(snapshot: &F, options: &ServeOptions) -> (Health, String) {
    let (health, mut body) = healthz_verdict(snapshot, options);
    if let Some(build) = &options.build {
        body.push_str(&build.healthz_line());
    }
    (health, body)
}

fn healthz_verdict<F: Fn() -> Snapshot>(snapshot: &F, options: &ServeOptions) -> (Health, String) {
    if let Some(hub) = &options.slo {
        let report = hub.observe_and_evaluate(&snapshot());
        return (report.health, report.healthz_body());
    }
    let snap = snapshot();
    let mut health = Health::Ok;
    let mut reasons: Vec<String> = Vec::new();
    let dropped: u64 = crate::slo::DROP_COUNTERS
        .iter()
        .filter_map(|n| snap.counter(n))
        .sum();
    let accepted: u64 = crate::slo::ACCEPT_COUNTERS
        .iter()
        .filter_map(|n| snap.counter(n))
        .sum();
    let total = dropped + accepted;
    if total > 0 && dropped > 0 {
        let ratio = dropped as f64 / total as f64;
        if ratio >= FALLBACK_DROP_CRITICAL {
            health = health.max(Health::Critical);
            reasons.push(format!("drop ratio {:.1}% (cumulative)", ratio * 100.0));
        } else if ratio >= FALLBACK_DROP_DEGRADED {
            health = health.max(Health::Degraded);
            reasons.push(format!("drop ratio {:.2}% (cumulative)", ratio * 100.0));
        }
    }
    let capacity = snap.gauge("cgc_ingest_queue_capacity").unwrap_or(0);
    if capacity > 0 {
        let deepest = snap
            .metrics
            .iter()
            .filter(|m| m.name == "cgc_ingest_queue_depth")
            .filter_map(|m| match m.value {
                crate::snapshot::MetricValue::Gauge(v) => Some(v),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let saturation = deepest.max(0) as f64 / capacity as f64;
        if saturation >= 1.0 {
            health = health.max(Health::Critical);
            reasons.push(format!("queue saturated ({deepest}/{capacity})"));
        } else if saturation >= FALLBACK_SATURATION_DEGRADED {
            health = health.max(Health::Degraded);
            reasons.push(format!("queue near capacity ({deepest}/{capacity})"));
        }
    }
    let body = match health {
        Health::Ok => "ok\n".to_string(),
        h => format!("{}: {}\n", h.name(), reasons.join("; ")),
    };
    (health, body)
}

fn trace_body(trace: &Mutex<TraceCollector>, query: &str) -> String {
    let mut collector = lock(trace);
    collector.drain();
    let mut flow = None;
    let mut slot = None;
    for kv in query.split('&') {
        if let Some(id) = kv.strip_prefix("flow=") {
            flow = u64::from_str_radix(id.trim_start_matches("0x"), 16)
                .or_else(|_| id.parse::<u64>())
                .ok();
        }
        if let Some(s) = kv.strip_prefix("slot=") {
            slot = s.parse::<u32>().ok();
        }
    }
    collector.to_jsonl_filtered(flow, slot)
}

fn journal_body(journal: &Mutex<Journal>, query: &str) -> String {
    let mut j = lock(journal);
    j.drain();
    for kv in query.split('&') {
        if let Some(n) = kv.strip_prefix("tail=") {
            let n = n.parse::<usize>().unwrap_or(100);
            return j.tail_jsonl(n);
        }
        if let Some(id) = kv.strip_prefix("flow=") {
            let flow =
                u64::from_str_radix(id.trim_start_matches("0x"), 16).or_else(|_| id.parse::<u64>());
            return match flow.ok().and_then(|f| j.timeline(f)) {
                Some(tl) => {
                    let mut line = crate::journal::render_line(tl);
                    line.push('\n');
                    line
                }
                None => String::new(),
            };
        }
    }
    j.to_jsonl()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::journal::JournalConfig;
    use crate::registry::Registry;

    fn get(addr: std::net::SocketAddr, target: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_metrics_health_and_journal() {
        let registry = Arc::new(Registry::new());
        registry.counter("served_total", "requests").add(3);
        let (sink, journal) = Journal::new(JournalConfig::default(), &registry);
        sink.emit(
            0xbeef,
            1_000_000,
            EventKind::LaunchWindowClosed { packets: 12 },
        );
        sink.emit(
            0xbeef,
            2_000_000,
            EventKind::SessionVerdict {
                objective: cgc_domain::QoeLevel::Good,
                effective: cgc_domain::QoeLevel::Good,
            },
        );
        let journal = Arc::new(Mutex::new(journal));
        let reg = Arc::clone(&registry);
        let server =
            TelemetryServer::spawn("127.0.0.1:0", move || reg.snapshot(), Some(journal)).unwrap();
        let addr = server.local_addr();

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n");

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(body.contains("# TYPE served_total counter"), "{body}");
        assert!(body.contains("served_total 3"), "{body}");

        let (head, body) = get(addr, "/journal");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert_eq!(body.lines().count(), 1, "one timeline line: {body}");
        assert!(body.contains("\"flow\":\"000000000000beef\""), "{body}");

        let (_, one) = get(addr, "/journal?flow=beef");
        assert!(one.contains("launch_window_closed"), "{one}");
        let (_, tail) = get(addr, "/journal?tail=1");
        assert_eq!(tail.lines().count(), 1);
        assert!(tail.contains("session_verdict"), "{tail}");
        let (_, missing) = get(addr, "/journal?flow=1234");
        assert!(missing.is_empty());

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    }

    fn raw_request(addr: std::net::SocketAddr, request: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request).unwrap();
        let _ = stream.shutdown(std::net::Shutdown::Write);
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        response
    }

    #[test]
    fn malformed_request_lines_get_no_response() {
        let registry = Arc::new(Registry::new());
        let reg = Arc::clone(&registry);
        let server = TelemetryServer::spawn("127.0.0.1:0", move || reg.snapshot(), None).unwrap();
        let addr = server.local_addr();
        // Wrong method, missing target, binary garbage: the server drops
        // the connection without answering (and without dying).
        assert_eq!(raw_request(addr, b"POST /metrics HTTP/1.1\r\n\r\n"), "");
        assert_eq!(raw_request(addr, b"GET\r\n\r\n"), "");
        assert_eq!(raw_request(addr, b"\xff\xfe\x00garbage\r\n\r\n"), "");
        assert_eq!(raw_request(addr, b"no newline at all"), "");
        // And it still serves well-formed requests afterwards.
        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n");
    }

    #[test]
    fn oversized_query_strings_are_rejected() {
        let registry = Arc::new(Registry::new());
        let reg = Arc::clone(&registry);
        let server = TelemetryServer::spawn("127.0.0.1:0", move || reg.snapshot(), None).unwrap();
        let addr = server.local_addr();
        let huge = format!("GET /metrics?x={} HTTP/1.1\r\n\r\n", "y".repeat(4096));
        assert_eq!(raw_request(addr, huge.as_bytes()), "");
        // A query just inside the request-line budget still answers.
        let ok = format!(
            "GET /healthz?x={} HTTP/1.1\r\nHost: x\r\n\r\n",
            "y".repeat(500)
        );
        assert!(raw_request(addr, ok.as_bytes()).starts_with("HTTP/1.1 200"));
    }

    #[test]
    fn healthz_fallback_wires_drop_and_saturation_counters() {
        use crate::slo::{SloConfig, SloHub};
        // Degraded: a visible but sub-critical cumulative drop ratio.
        let registry = Arc::new(Registry::new());
        registry.counter("cgc_ingest_enqueued_total", "t").add(999);
        registry.counter("cgc_ingest_dropped_total", "t").add(5);
        let reg = Arc::clone(&registry);
        let server = TelemetryServer::spawn("127.0.0.1:0", move || reg.snapshot(), None).unwrap();
        let (head, body) = get(server.local_addr(), "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.starts_with("degraded: drop ratio"), "{body}");
        drop(server);

        // Critical: a drop storm answers 503 so external probes trip.
        let registry = Arc::new(Registry::new());
        registry.counter("cgc_ingest_enqueued_total", "t").add(100);
        registry.counter("cgc_ingest_dropped_total", "t").add(50);
        let reg = Arc::clone(&registry);
        let server = TelemetryServer::spawn("127.0.0.1:0", move || reg.snapshot(), None).unwrap();
        let (head, body) = get(server.local_addr(), "/healthz");
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        assert!(body.starts_with("critical:"), "{body}");
        drop(server);

        // Saturated queue gauges trip it too, independent of drops.
        let registry = Arc::new(Registry::new());
        registry.gauge("cgc_ingest_queue_capacity", "c").set(100);
        registry
            .gauge_with("cgc_ingest_queue_depth", "d", &[("shard", "0")])
            .set(95);
        let reg = Arc::clone(&registry);
        let server = TelemetryServer::spawn("127.0.0.1:0", move || reg.snapshot(), None).unwrap();
        let (head, body) = get(server.local_addr(), "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.starts_with("degraded: queue near capacity"), "{body}");
        drop(server);

        // An SLO hub takes over: windowed evaluation, not lifetime ratios.
        let registry = Arc::new(Registry::new());
        registry.counter("cgc_ingest_enqueued_total", "t").add(100);
        let reg = Arc::clone(&registry);
        let hub = Arc::new(SloHub::real_time(SloConfig::default()));
        let server = TelemetryServer::spawn_with(
            "127.0.0.1:0",
            move || reg.snapshot(),
            ServeOptions {
                slo: Some(hub),
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let (head, body) = get(server.local_addr(), "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n");
        let (head, slo) = get(server.local_addr(), "/slo");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(slo.contains("\"status\":\"ok\""), "{slo}");
        assert!(slo.contains("\"objective\":\"drop_ratio\""), "{slo}");
    }

    #[test]
    fn quality_and_drift_routes_serve_live_reports() {
        use crate::drift::{DriftConfig, DriftEngine};
        use crate::quality::{ModelKind, QualityConfig, QualityHub};
        let registry = Arc::new(Registry::new());
        let (qsink, qhub) = QualityHub::new(QualityConfig::default(), &registry);
        let (dsink, dengine) = DriftEngine::new(
            DriftConfig {
                reference_size: 8,
                window: 8,
                min_window: 4,
                ..DriftConfig::default()
            },
            &registry,
        );
        let build = Arc::new(crate::build::BuildInfo::register(&registry));
        let reg = Arc::clone(&registry);
        let server = TelemetryServer::spawn_with(
            "127.0.0.1:0",
            move || reg.snapshot(),
            ServeOptions {
                quality: Some(Arc::new(Mutex::new(qhub))),
                drift: Some(Arc::new(Mutex::new(dengine))),
                build: Some(build),
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        // Producers emit; the per-request drain makes them visible
        // without any explicit pump.
        for _ in 0..3 {
            qsink.emit(ModelKind::Title, 0, 0);
        }
        qsink.emit(ModelKind::Title, 1, 0);
        for i in 0..16 {
            dsink.observe(ModelKind::Title, 0.9 - 0.01 * (i % 3) as f64, 0.8);
        }
        let (head, body) = get(addr, "/quality");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        assert!(body.contains("\"model\":\"title\""), "{body}");
        assert!(body.contains("\"accuracy\":0.75"), "{body}");
        let (head, body) = get(addr, "/drift");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"reference_frozen\":true"), "{body}");
        assert!(body.contains("\"alarm\":false"), "{body}");
        // The drained gauges are visible on the very next scrape.
        let (_, metrics) = get(addr, "/metrics");
        assert!(
            metrics.contains("cgc_quality_accuracy_pct{model=\"title\"} 75"),
            "{metrics}"
        );
        assert!(
            metrics.contains("cgc_drift_reference_frozen{model=\"title\"} 1"),
            "{metrics}"
        );
        assert!(metrics.contains("cgc_build_info{git="), "{metrics}");
        assert!(metrics.contains("cgc_process_uptime_seconds"), "{metrics}");
        // And the healthz body carries the build line.
        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.starts_with("ok\n"), "{body}");
        assert!(body.contains("build "), "{body}");
        drop(server);

        // Without backends the routes 404 with a hint.
        let registry = Arc::new(Registry::new());
        let reg = Arc::clone(&registry);
        let server = TelemetryServer::spawn("127.0.0.1:0", move || reg.snapshot(), None).unwrap();
        let (head, body) = get(server.local_addr(), "/quality");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        assert_eq!(body, "no quality telemetry installed\n");
        let (head, body) = get(server.local_addr(), "/drift");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        assert_eq!(body, "no drift engine installed\n");
    }

    #[test]
    fn metrics_scrape_is_openmetrics_well_formed_with_exemplars() {
        let registry = Arc::new(Registry::new());
        registry.counter("cgc_demo_total", "Demo counter").add(7);
        registry
            .gauge_with("cgc_demo_depth", "Demo gauge", &[("shard", "0")])
            .set(2);
        registry
            .histogram("cgc_demo_lat_ns", "Demo latency")
            .record_with_exemplar(100, 0xab, 0xcd);
        let reg = Arc::clone(&registry);
        let server = TelemetryServer::spawn("127.0.0.1:0", move || reg.snapshot(), None).unwrap();
        let (head, body) = get(server.local_addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        // Well-formedness of the whole scrape: ends with the EOF marker,
        // nothing after it, and every line is a comment or a sample whose
        // value parses.
        assert!(body.ends_with("# EOF\n"), "{body}");
        for line in body.lines() {
            if line == "# EOF" {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# ") {
                assert!(
                    rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                    "unknown comment: {line}"
                );
                continue;
            }
            assert!(!line.trim().is_empty(), "blank line inside scrape");
            // Sample line: `name{labels} value [# exemplar]`.
            let sample = line.split(" # ").next().unwrap();
            let value = sample.rsplit(' ').next().unwrap();
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf",
                "unparseable sample value in: {line}"
            );
        }
        // Exactly one EOF, at the very end.
        assert_eq!(body.matches("# EOF").count(), 1, "{body}");
    }

    #[test]
    fn trace_route_serves_filtered_spans() {
        use crate::trace::{TraceCollector, TraceConfig, TraceStage};
        let registry = Arc::new(Registry::new());
        let (sink, traces) = TraceCollector::new(TraceConfig::default(), &registry);
        sink.record(0xf00, 0, TraceStage::Queue, 10, 0);
        sink.record(0xf00, 2, TraceStage::Slot, 20, 5);
        sink.record(0xba5, 0, TraceStage::Queue, 15, 0);
        let reg = Arc::clone(&registry);
        let server = TelemetryServer::spawn_with(
            "127.0.0.1:0",
            move || reg.snapshot(),
            ServeOptions {
                trace: Some(Arc::new(Mutex::new(traces))),
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let (head, body) = get(addr, "/trace");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body.lines().count(), 2, "{body}");
        let (_, one) = get(addr, "/trace?flow=f00");
        assert_eq!(one.lines().count(), 1, "{one}");
        assert!(one.contains("\"flow\":\"0000000000000f00\""), "{one}");
        let (_, slot) = get(addr, "/trace?flow=f00&slot=2");
        assert!(slot.contains("\"stage\":\"slot\""), "{slot}");
        assert!(!slot.contains("\"stage\":\"queue\""), "{slot}");
        let (_, missing) = get(addr, "/trace?flow=dead");
        assert!(missing.is_empty(), "{missing}");
    }

    #[test]
    fn trace_route_404s_without_a_collector() {
        let registry = Arc::new(Registry::new());
        let reg = Arc::clone(&registry);
        let server = TelemetryServer::spawn("127.0.0.1:0", move || reg.snapshot(), None).unwrap();
        let (head, _) = get(server.local_addr(), "/trace");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        let (head, _) = get(server.local_addr(), "/slo");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    }

    #[test]
    fn concurrent_scrapes_while_producers_drain() {
        use crate::trace::{TraceCollector, TraceConfig, TraceStage};
        const FLOWS: u64 = 40;
        const EVENTS_PER_FLOW: u64 = 5;
        let registry = Arc::new(Registry::new());
        let (esink, journal) = Journal::new(JournalConfig::default(), &registry);
        let (tsink, traces) = TraceCollector::new(TraceConfig::default(), &registry);
        let reg = Arc::clone(&registry);
        let server = TelemetryServer::spawn_with(
            "127.0.0.1:0",
            move || reg.snapshot(),
            ServeOptions {
                journal: Some(Arc::new(Mutex::new(journal))),
                trace: Some(Arc::new(Mutex::new(traces))),
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let writers: Vec<_> = [0u64, 1]
            .into_iter()
            .map(|half| {
                let esink = esink.clone();
                let tsink = tsink.clone();
                std::thread::spawn(move || {
                    for flow in (half * FLOWS / 2)..((half + 1) * FLOWS / 2) {
                        for i in 0..EVENTS_PER_FLOW {
                            esink.emit(flow, i, EventKind::LaunchWindowClosed { packets: 1 });
                            tsink.record(flow, 0, TraceStage::Queue, i, 0);
                        }
                    }
                })
            })
            .collect();
        // Scrape both drain routes while the writers are mid-flight: the
        // per-request drains and the producers race on the rings.
        let scrapers: Vec<_> = ["/journal", "/trace"]
            .into_iter()
            .map(|route| {
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        let mut stream = TcpStream::connect(addr).unwrap();
                        write!(stream, "GET {route} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
                        let mut response = String::new();
                        stream.read_to_string(&mut response).unwrap();
                        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        for s in scrapers {
            s.join().unwrap();
        }
        // After the writers finish, one more scrape sees every flow —
        // nothing was lost to the concurrent drains.
        let (_, body) = get(addr, "/journal");
        assert_eq!(body.lines().count(), FLOWS as usize, "{body}");
        let (_, body) = get(addr, "/trace");
        assert_eq!(body.lines().count(), FLOWS as usize, "{body}");
    }

    #[test]
    fn journal_route_404s_without_a_journal() {
        let registry = Arc::new(Registry::new());
        let reg = Arc::clone(&registry);
        let server = TelemetryServer::spawn("127.0.0.1:0", move || reg.snapshot(), None).unwrap();
        let (head, _) = get(server.local_addr(), "/journal");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    }

    #[test]
    fn drop_shuts_the_listener_down() {
        let registry = Arc::new(Registry::new());
        let reg = Arc::clone(&registry);
        let server = TelemetryServer::spawn("127.0.0.1:0", move || reg.snapshot(), None).unwrap();
        let addr = server.local_addr();
        drop(server);
        // The port is closed (or at least no longer answering HTTP).
        let answered = TcpStream::connect(addr)
            .ok()
            .and_then(|mut s| {
                s.set_read_timeout(Some(Duration::from_millis(200))).ok()?;
                write!(s, "GET /healthz HTTP/1.1\r\n\r\n").ok()?;
                let mut out = String::new();
                s.read_to_string(&mut out).ok()?;
                (!out.is_empty()).then_some(out)
            })
            .is_some();
        assert!(!answered, "server kept answering after drop");
    }
}
