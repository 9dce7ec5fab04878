//! Dependency-free blocking HTTP telemetry endpoint.
//!
//! One `std::net::TcpListener` + one thread, enough for a scraper and an
//! operator with `curl` — deliberately not an async stack. Routes:
//!
//! - `GET /metrics` — live registry snapshot, Prometheus text exposition
//!   (histograms carry OpenMetrics exemplars when traced call sites
//!   attached them)
//! - `GET /healthz` — `ok` / `degraded: …` / `critical: …`; critical
//!   answers HTTP 503 so external probes work unmodified. The verdict is
//!   the [`SloHub`]'s multi-window burn-rate evaluation (a real-time hub
//!   unless [`ServeOptions::slo`] brings one).
//! - `GET /journal` — flight-recorder timelines as JSONL (one flow per
//!   line); `?flow=<hex id>` narrows to one timeline, `?tail=N` returns
//!   the N most recent events (one event per line) instead
//! - `GET /trace` — span timelines as JSONL (one flow per line);
//!   `?flow=<hex id>` narrows to one flow, `?slot=N` to one slot's spans
//! - `GET /slo` — the full burn-rate report as JSON
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
    /// Backs `/slo` and `/healthz`; `None` serves a [`SloHub::real_time`]
    /// hub.
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
    /// `options` brings the backends of the other routes.
    pub fn spawn<F>(
        addr: &str,
        snapshot: F,
        mut options: ServeOptions,
    ) -> std::io::Result<TelemetryServer>
    where
        F: Fn() -> Snapshot + Send + 'static,
    {
        let slo = options
            .slo
            .take()
            .unwrap_or_else(|| Arc::new(SloHub::real_time()));
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
                    handle_conn(&mut stream, &snapshot, &slo, &options);
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

fn handle_conn<F: Fn() -> Snapshot>(
    stream: &mut TcpStream,
    snapshot: &F,
    slo: &SloHub,
    options: &ServeOptions,
) {
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
            let report = slo.observe_and_evaluate(&snapshot());
            let mut body = report.healthz_body();
            if let Some(build) = &options.build {
                body.push_str(&build.healthz_line());
            }
            let status = if report.health == Health::Critical {
                "503 Service Unavailable"
            } else {
                "200 OK"
            };
            (status, "text/plain", body)
        }
        "/slo" => (
            "200 OK",
            "application/json",
            serde_json::to_string(&slo.observe_and_evaluate(&snapshot()))
                .expect("slo report serialization is infallible"),
        ),
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

/// The value of the last `key=` in a `k=v&k=v` query string.
fn param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query
        .rsplit('&')
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
}

/// A `flow=` id: hex (optionally `0x`-prefixed), else decimal.
fn parse_flow(id: &str) -> Option<u64> {
    u64::from_str_radix(id.trim_start_matches("0x"), 16)
        .or_else(|_| id.parse())
        .ok()
}

fn trace_body(trace: &Mutex<TraceCollector>, query: &str) -> String {
    let mut collector = lock(trace);
    collector.drain();
    let flow = param(query, "flow").and_then(parse_flow);
    let slot = param(query, "slot").and_then(|s| s.parse().ok());
    collector.to_jsonl_filtered(flow, slot)
}

fn journal_body(journal: &Mutex<Journal>, query: &str) -> String {
    let mut journal = lock(journal);
    journal.drain();
    // Whichever of `tail=` and `flow=` comes first decides.
    for kv in query.split('&') {
        if let Some(n) = kv.strip_prefix("tail=") {
            return journal.tail_jsonl(n.parse().unwrap_or(100));
        }
        if let Some(id) = kv.strip_prefix("flow=") {
            // An id that does not parse names no flow.
            return parse_flow(id).map_or_else(String::new, |f| journal.to_jsonl(Some(f)));
        }
    }
    journal.to_jsonl(None)
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

    /// A server on `registry` with `options`, on an ephemeral port.
    fn serve(registry: &Arc<Registry>, options: ServeOptions) -> TelemetryServer {
        let registry = Arc::clone(registry);
        TelemetryServer::spawn("127.0.0.1:0", move || registry.snapshot(), options).unwrap()
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
        let options = ServeOptions {
            journal: Some(Arc::new(Mutex::new(journal))),
            ..ServeOptions::default()
        };
        let server = serve(&registry, options);
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
        // The first of `flow=` / `tail=` decides.
        assert_eq!(get(addr, "/journal?flow=beef&tail=1").1, one);
        assert_eq!(get(addr, "/journal?tail=1&flow=beef").1, tail);

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
        let server = serve(&registry, ServeOptions::default());
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
        let server = serve(&registry, ServeOptions::default());
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

    /// `/healthz` from a server whose hub runs on a manual clock: a first
    /// scrape at 0 sets the baseline, `feed` moves the registry, and the
    /// second scrape five minutes later — one full fast window — answers.
    fn healthz_after_one_fast_window(feed: impl FnOnce(&Registry)) -> (String, String) {
        use std::sync::atomic::AtomicU64;
        let registry = Arc::new(Registry::new());
        // Registered at start-up, as the ingest engine does, so the
        // saturation objective's clock starts with the baseline.
        registry.gauge("cgc_ingest_queue_capacity", "c").set(100);
        let clock = Arc::new(AtomicU64::new(0));
        let tick = Arc::clone(&clock);
        let hub = SloHub::new(move || tick.load(Ordering::Relaxed));
        let server = serve(
            &registry,
            ServeOptions {
                slo: Some(Arc::new(hub)),
                ..ServeOptions::default()
            },
        );
        assert_eq!(get(server.local_addr(), "/healthz").1, "ok\n");
        feed(&registry);
        clock.store(300_000_000, Ordering::Relaxed);
        get(server.local_addr(), "/healthz")
    }

    #[test]
    fn healthz_wires_drop_and_saturation_counters_through_the_hub() {
        // Degraded: a visible but sub-critical drop ratio (1.5 % against
        // the 1 % target, for one fast window).
        let (head, body) = healthz_after_one_fast_window(|r| {
            r.counter("cgc_ingest_enqueued_total", "t").add(985);
            r.counter("cgc_ingest_dropped_total", "t").add(15);
        });
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.starts_with("degraded: drop_ratio"), "{body}");

        // Critical: a drop storm answers 503 so external probes trip.
        let (head, body) = healthz_after_one_fast_window(|r| {
            r.counter("cgc_ingest_enqueued_total", "t").add(100);
            r.counter("cgc_ingest_dropped_total", "t").add(50);
        });
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        assert!(body.starts_with("critical: drop_ratio"), "{body}");

        // Saturated queue gauges trip it too, independent of drops.
        let (head, body) = healthz_after_one_fast_window(|r| {
            r.gauge_with("cgc_ingest_queue_depth", "d", &[("shard", "0")])
                .set(95);
        });
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.starts_with("degraded: queue_saturation"), "{body}");
    }

    #[test]
    fn slo_route_serves_a_default_hub() {
        let registry = Arc::new(Registry::new());
        registry.counter("cgc_ingest_enqueued_total", "t").add(100);
        let server = serve(&registry, ServeOptions::default());
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
        let server = serve(
            &registry,
            ServeOptions {
                quality: Some(Arc::new(Mutex::new(qhub))),
                drift: Some(Arc::new(Mutex::new(dengine))),
                build: Some(build),
                ..ServeOptions::default()
            },
        );
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
    }

    #[test]
    fn routes_without_a_backend_404_with_a_hint() {
        let server = serve(&Arc::new(Registry::new()), ServeOptions::default());
        for (route, hint) in [
            ("/quality", "no quality telemetry installed\n"),
            ("/drift", "no drift engine installed\n"),
            ("/models", "no model registry installed\n"),
            ("/journal", "no journal installed\n"),
            ("/trace", "no trace collector installed\n"),
        ] {
            let (head, body) = get(server.local_addr(), route);
            assert!(head.starts_with("HTTP/1.1 404"), "{route}: {head}");
            assert_eq!(body, hint);
        }
    }

    /// Well-formedness of a whole scrape: every line is a comment or a
    /// sample whose value parses, and an exemplar scrape ends with exactly
    /// one EOF marker, nothing after it.
    fn assert_well_formed(body: &str) {
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
        if body.contains("# EOF") {
            assert!(body.ends_with("# EOF\n"), "{body}");
            assert_eq!(body.matches("# EOF").count(), 1, "{body}");
        }
    }

    fn scrape(registry: Registry) -> String {
        let server = serve(&Arc::new(registry), ServeOptions::default());
        let (head, body) = get(server.local_addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        body
    }

    #[test]
    fn metrics_scrape_is_openmetrics_well_formed_with_exemplars() {
        let registry = Registry::new();
        registry.counter("cgc_demo_total", "Demo counter").add(7);
        registry
            .gauge_with("cgc_demo_depth", "Demo gauge", &[("shard", "0")])
            .set(2);
        registry
            .histogram("cgc_demo_lat_ns", "Demo latency")
            .record_with_exemplar(100, 0xab, 0xcd);
        let body = scrape(registry);
        assert!(body.ends_with("# EOF\n"), "{body}");
        assert_well_formed(&body);
    }

    #[test]
    fn label_values_with_newlines_keep_the_scrape_well_formed() {
        // A merge `source=` label is the replay input path as given on the
        // command line, and a path may contain a newline.
        let registry = Registry::new();
        registry
            .counter_with(
                "cgc_ingest_merge_records_total",
                "Records merged",
                &[("source", "caps/evening\nrun \"2\".pcap")],
            )
            .add(3);
        let body = scrape(registry);
        assert_well_formed(&body);
        assert!(
            body.contains(r#"{source="caps/evening\nrun \"2\".pcap"} 3"#),
            "{body}"
        );
    }

    #[test]
    fn trace_route_serves_filtered_spans() {
        use crate::trace::{TraceCollector, TraceConfig, TraceStage};
        let registry = Arc::new(Registry::new());
        let (sink, traces) = TraceCollector::new(TraceConfig::default(), &registry);
        sink.record(0xf00, 0, TraceStage::Queue, 10, 0);
        sink.record(0xf00, 2, TraceStage::Slot, 20, 5);
        sink.record(0xba5, 0, TraceStage::Queue, 15, 0);
        let server = serve(
            &registry,
            ServeOptions {
                trace: Some(Arc::new(Mutex::new(traces))),
                ..ServeOptions::default()
            },
        );
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
        // A repeated key takes its last value.
        assert_eq!(get(addr, "/trace?flow=ba5&flow=f00").1, one);
        assert_eq!(get(addr, "/trace?flow=f00&slot=0&slot=2").1, slot);
    }

    #[test]
    fn concurrent_scrapes_while_producers_drain() {
        use crate::trace::{TraceCollector, TraceConfig, TraceStage};
        const FLOWS: u64 = 40;
        const EVENTS_PER_FLOW: u64 = 5;
        let registry = Arc::new(Registry::new());
        let (esink, journal) = Journal::new(JournalConfig::default(), &registry);
        let (tsink, traces) = TraceCollector::new(TraceConfig::default(), &registry);
        let server = serve(
            &registry,
            ServeOptions {
                journal: Some(Arc::new(Mutex::new(journal))),
                trace: Some(Arc::new(Mutex::new(traces))),
                ..ServeOptions::default()
            },
        );
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
    fn drop_shuts_the_listener_down() {
        let registry = Arc::new(Registry::new());
        let server = serve(&registry, ServeOptions::default());
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
