//! End-to-end proof of the classification-quality observatory: a
//! stationary fleet replay must leave the drift engine quiet and the
//! streaming confusion gauges healthy, and a mid-deployment shift —
//! catalog churn (out-of-catalog titles flooding in) plus a network
//! impairment ramp — must trip the label-free drift alarm within one
//! fleet batch while the truth-joined accuracy gauges drop for the
//! affected classifier. Everything is asserted over live HTTP against
//! the telemetry server's `/quality`, `/drift` and `/healthz` routes,
//! exactly as an operator's scraper would see it.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gamescope::deploy::fleet::{run_fleet, FleetConfig};
use gamescope::deploy::train::{train_bundle, TrainConfig};
use gamescope::obs::{self, Registry};
use gamescope::pipeline::Obs;

fn get(addr: std::net::SocketAddr, target: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    (head.to_string(), body.to_string())
}

/// Extracts the raw JSON value of `key` inside the per-model object for
/// `model` (the reports serialize each model's scalars before any nested
/// array, so scanning forward from the `"model":"<name>"` anchor is
/// unambiguous).
fn model_field(body: &str, model: &str, key: &str) -> String {
    let anchor = format!("\"model\":\"{model}\"");
    let start = body
        .find(&anchor)
        .unwrap_or_else(|| panic!("no {model:?} object in {body}"));
    let rest = &body[start..];
    let pat = format!("\"{key}\":");
    let at = rest
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key:?} after {anchor} in {body}"));
    let val = &rest[at + pat.len()..];
    let end = val
        .find([',', '}', ']'])
        .unwrap_or_else(|| panic!("unterminated {key:?} value"));
    val[..end].trim().to_string()
}

fn model_f64(body: &str, model: &str, key: &str) -> f64 {
    model_field(body, model, key)
        .parse()
        .unwrap_or_else(|e| panic!("{model}.{key}: {e:?}"))
}

#[test]
fn drift_alarm_and_accuracy_drop_surface_over_http() {
    // Window sizing: the title model scores once per session (so these
    // are session counts — the stationary phase freezes the reference at
    // 256 sessions and the shifted phase must fill a 128-session window)
    // while the stage model scores once per slot; the default
    // `stage_scale` widens stage's windows so they span a comparable
    // number of sessions. The rings are sized for a whole phase because
    // this test only drains at scrape time; a live deployment drains on
    // every scrape.
    let drift_cfg = obs::DriftConfig {
        ring_capacity: 1 << 18,
        reference_size: 256,
        window: 128,
        min_window: 32,
        ..Default::default()
    };
    let alarm_threshold = drift_cfg.alarm_threshold;
    // Everything on a registry private to this test, sinks injected.
    let registry = Arc::new(Registry::new());
    let (quality_sink, quality_hub) = obs::QualityHub::new(
        obs::QualityConfig {
            ring_capacity: 1 << 18,
            // Short rolling window so phase B's accuracy reflects phase B,
            // not a blend with the stationary phase.
            window: 64,
            ..obs::QualityConfig::default()
        },
        &registry,
    );
    let (drift_sink, drift_engine) = obs::DriftEngine::new(drift_cfg, &registry);
    let observed = FleetConfig {
        quality: quality_sink,
        obs: Arc::new(Obs {
            drift: drift_sink,
            ..Obs::on(&registry)
        }),
        ..Default::default()
    };

    // Burn-rate health on a manual clock, advanced between scrapes so
    // the fast window fills without wall-clock sleeps.
    let clock = Arc::new(AtomicU64::new(0));
    let slo = {
        let clock = Arc::clone(&clock);
        Arc::new(obs::SloHub::new(obs::SloConfig::default(), move || {
            clock.load(Ordering::Relaxed)
        }))
    };
    let scraped = Arc::clone(&registry);
    let server = obs::TelemetryServer::spawn_with(
        "127.0.0.1:0",
        move || scraped.snapshot(),
        obs::ServeOptions {
            slo: Some(Arc::clone(&slo)),
            quality: Some(Arc::new(Mutex::new(quality_hub))),
            drift: Some(Arc::new(Mutex::new(drift_engine))),
            build: Some(Arc::new(obs::BuildInfo::register(&registry))),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let bundle = train_bundle(&TrainConfig::quick());

    // --- Phase A: stationary deployment --------------------------------
    // Catalog titles only, clean network paths: the drift engine builds
    // and freezes its reference here, and the truth joins fill the
    // confusion windows with in-distribution pairs.
    let stationary = run_fleet(
        &bundle,
        &FleetConfig {
            n_sessions: 420,
            duration_scale: 0.05,
            unknown_fraction: 0.0,
            impaired_fraction: 0.0,
            workers: 1, // deterministic observation order
            ..observed.clone()
        },
    );
    assert_eq!(stationary.len(), 420);

    clock.store(60_000_000, Ordering::Relaxed);
    let (_, healthz_a) = get(addr, "/healthz");
    clock.store(180_000_000, Ordering::Relaxed);
    let (_, healthz_a2) = get(addr, "/healthz");
    let (_, quality_a) = get(addr, "/quality");
    let (_, drift_a) = get(addr, "/drift");
    eprintln!("phase A /quality: {quality_a}");
    eprintln!("phase A /drift:   {drift_a}");
    eprintln!("phase A /healthz: {healthz_a2}");

    // The reference froze and the stationary window sits under the alarm
    // threshold for every model.
    assert_eq!(model_field(&drift_a, "title", "reference_frozen"), "true");
    let title_score_a = model_f64(&drift_a, "title", "score");
    let stage_score_a = model_f64(&drift_a, "stage", "score");
    assert!(
        title_score_a < alarm_threshold && stage_score_a < alarm_threshold,
        "stationary replay must not alarm (title {title_score_a}, stage {stage_score_a})"
    );
    assert!(!drift_a.contains("\"alarm\":true"), "phase A: {drift_a}");
    // Truth-joined accuracy on the stationary window is healthy.
    let title_acc_a = model_f64(&quality_a, "title", "accuracy");
    let stage_acc_a = model_f64(&quality_a, "stage", "accuracy");
    assert!(
        title_acc_a > 0.75,
        "stationary title accuracy {title_acc_a}"
    );
    assert!(stage_acc_a > 0.5, "stationary stage accuracy {stage_acc_a}");
    // Build info rides on /healthz, and no drift objective is burning.
    assert!(healthz_a.contains("build "), "healthz: {healthz_a}");
    assert!(
        !healthz_a2.contains("drift_score"),
        "stationary healthz must not burn the drift objective: {healthz_a2}"
    );

    // --- Phase B: catalog churn + impairment ramp ----------------------
    // Every session is now either an out-of-catalog launch (the paper's
    // unknown-title case: low-confidence launch windows) or rides an
    // impaired path. One fleet batch bounds how many slots the detector
    // gets to see the shift.
    let shifted = run_fleet(
        &bundle,
        &FleetConfig {
            n_sessions: 160,
            seed: 20250301,
            duration_scale: 0.05,
            unknown_fraction: 0.7,
            impaired_fraction: 1.0,
            workers: 1,
            ..observed
        },
    );
    assert_eq!(shifted.len(), 160);

    clock.store(240_000_000, Ordering::Relaxed);
    let (_, _warm) = get(addr, "/healthz");
    clock.store(360_000_000, Ordering::Relaxed);
    let (_, healthz_b) = get(addr, "/healthz");
    let (_, quality_b) = get(addr, "/quality");
    let (_, drift_b) = get(addr, "/drift");
    let (_, metrics_b) = get(addr, "/metrics");
    eprintln!("phase B /quality: {quality_b}");
    eprintln!("phase B /drift:   {drift_b}");
    eprintln!("phase B /healthz: {healthz_b}");

    // The label-free detector tripped on the title model within one
    // batch: out-of-catalog launches collapse the confidence
    // distribution (PSI) and the novelty share of low-confidence launch
    // windows explodes past its reference.
    let title_score_b = model_f64(&drift_b, "title", "score");
    assert!(
        title_score_b >= alarm_threshold,
        "title drift score {title_score_b} must cross {alarm_threshold}"
    );
    assert_eq!(model_field(&drift_b, "title", "alarm"), "true");
    let novelty_b = model_f64(&drift_b, "title", "novelty");
    assert!(novelty_b > 0.3, "novelty share {novelty_b}");

    // The truth joins tell the complementary story, and it lands on
    // exactly the affected classifier. Catalog churn does NOT dent title
    // accuracy — out-of-catalog launches are correctly gated to unknown,
    // so the confusion matrix stays clean and only the label-free
    // signals above can see that shift. The impairment ramp, by
    // contrast, corrupts the activity evidence the pattern classifier
    // reads, and its truth-joined accuracy drops.
    let title_acc_b = model_f64(&quality_b, "title", "accuracy");
    let pattern_acc_a = model_f64(&quality_a, "pattern", "accuracy");
    let pattern_acc_b = model_f64(&quality_b, "pattern", "accuracy");
    eprintln!("title accuracy: {title_acc_a} -> {title_acc_b}");
    eprintln!("pattern accuracy: {pattern_acc_a} -> {pattern_acc_b}");
    assert!(
        pattern_acc_b < pattern_acc_a - 0.05,
        "pattern accuracy must drop under impairment: {pattern_acc_a} -> {pattern_acc_b}"
    );
    assert!(
        title_acc_b > title_acc_a - 0.05,
        "title accuracy must hold (unknowns gate correctly): {title_acc_a} -> {title_acc_b}"
    );

    // The same numbers are scraped as gauges on /metrics.
    let acc_pct = (title_acc_b * 100.0).round() as i64;
    assert!(
        metrics_b.contains(&format!(
            "cgc_quality_accuracy_pct{{model=\"title\"}} {acc_pct}"
        )),
        "metrics must carry the accuracy gauge ({acc_pct}): {metrics_b}"
    );
    assert!(metrics_b.contains("cgc_drift_score_milli{model=\"title\"}"));

    // And the health rollup burns the drift objective: the /healthz
    // scrape two minutes after the shift names drift_score in its
    // degraded reasons.
    assert!(
        healthz_b.contains("drift_score"),
        "post-shift healthz must burn the drift objective: {healthz_b}"
    );
}
