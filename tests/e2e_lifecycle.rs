//! End-to-end proof of the model lifecycle subsystem: a catalog-churn
//! deployment must trip the drift alarm, the alarm must drive a shadow
//! retrain whose candidate lands in the versioned registry, A/B shadow
//! evaluation on post-churn traffic must show the candidate beating the
//! live model, promotion must hot-swap the fleet onto the new version
//! with zero dropped sessions, and rollback must restore the prior
//! version — all observed over live HTTP (`/models`, `/metrics`,
//! `/drift`, `/healthz`), exactly as an operator would drive it. A
//! second test proves the zero-stall swap at the tap: flows in flight
//! across a hot-swap keep continuous journal timelines and finish on
//! the version they pinned.

use std::sync::{Arc, Mutex};

use gamescope::deploy::fleet::{run_fleet, FleetConfig, FleetModels};
use gamescope::deploy::lifecycle::LifecyclePilot;
use gamescope::deploy::lifecycle::PromotePolicy;
use gamescope::deploy::train::{train_bundle, TrainConfig};
use gamescope::lifecycle::{LiveModel, Verdict};
use gamescope::obs::{self, ModelKind, Registry};
use gamescope::pipeline::{ModelSource, Obs, ShardedMonitorConfig, ShardedTapMonitor};

mod observatory;
use observatory::{draining, get, model_field};

fn scratch_registry_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("cgc-e2e-lifecycle-{}", std::process::id()))
}

#[test]
fn drift_alarm_drives_retrain_shadow_promotion_and_rollback_over_http() {
    // The observability stack the CLI builds for `fleet --serve`, on a
    // registry private to this test: windows sized exactly like
    // tests/e2e_quality.rs so the churn phase trips the label-free
    // detector within one fleet batch.
    let registry = Arc::new(Registry::new());
    let (quality_sink, quality_hub) = obs::QualityHub::new(
        obs::QualityConfig {
            window: 64,
            ..obs::QualityConfig::default()
        },
        &registry,
    );
    let (drift_sink, drift_engine) = obs::DriftEngine::new(
        obs::DriftConfig {
            reference_size: 256,
            window: 128,
            min_window: 32,
            ..Default::default()
        },
        &registry,
    );
    let quality_hub = Arc::new(Mutex::new(quality_hub));
    let drift_engine = Arc::new(Mutex::new(drift_engine));
    let fleet_obs = Arc::new(Obs {
        drift: drift_sink,
        ..Obs::on(&registry)
    });

    // The lifecycle pilot: versioned registry on disk, hot slot serving
    // the seed bundle as v1, manual promotion (the operator decides).
    let dir = scratch_registry_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let bundle = train_bundle(&TrainConfig::quick());
    let pilot = Arc::new(
        LifecyclePilot::open(&dir, bundle, 0x5EED, &registry, PromotePolicy::Manual).unwrap(),
    );
    assert_eq!(pilot.live().version(), 1);

    // Serve /models the way the CLI does: the route resolves the pilot
    // per request.
    let models_pilot = Arc::clone(&pilot);
    let scraped = Arc::clone(&registry);
    let server = obs::TelemetryServer::spawn(
        "127.0.0.1:0",
        move || scraped.snapshot(),
        obs::ServeOptions {
            quality: Some(Arc::clone(&quality_hub)),
            drift: Some(Arc::clone(&drift_engine)),
            models: Some(Arc::new(move || Some(models_pilot.models_json()))),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let (head, _) = get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let (head, models_initial) = get(addr, "/models");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(
        models_initial.contains("\"live_version\": 1"),
        "{models_initial}"
    );
    assert!(
        models_initial.contains("\"shadow\": null"),
        "{models_initial}"
    );

    let fleet_cfg = |n: usize, seed: u64, unknown: f64, impaired: f64| FleetConfig {
        n_sessions: n,
        seed,
        duration_scale: 0.05,
        unknown_fraction: unknown,
        impaired_fraction: impaired,
        workers: 1,
        quality: quality_sink.clone(),
        obs: Arc::clone(&fleet_obs),
        ..Default::default()
    };
    let live_models = FleetModels {
        source: ModelSource::Live(pilot.live()),
        shadow: None,
    };

    // --- Phase A: stationary deployment on the live slot ----------------
    // Freezes the drift reference; every session is stamped v1.
    let stationary = draining(&quality_hub, &drift_engine, || {
        run_fleet(live_models, &fleet_cfg(420, 42, 0.0, 0.0))
    });
    assert_eq!(stationary.len(), 420, "no session dropped");
    assert!(stationary.iter().all(|r| r.model_version == 1));
    let (_, drift_a) = get(addr, "/drift");
    assert_eq!(model_field(&drift_a, "title", "reference_frozen"), "true");
    assert!(!drift_a.contains("\"alarm\":true"), "phase A: {drift_a}");

    // --- Phase B: catalog churn + impairment ramp → drift alarm ---------
    let churn = draining(&quality_hub, &drift_engine, || {
        run_fleet(live_models, &fleet_cfg(160, 20250301, 0.7, 1.0))
    });
    assert_eq!(churn.len(), 160);
    let (_, drift_b) = get(addr, "/drift");
    assert_eq!(
        model_field(&drift_b, "title", "alarm"),
        "true",
        "churn must trip the drift alarm: {drift_b}"
    );

    // --- Drift alarm → shadow retrain → registered candidate ------------
    // The alarm handler's shape: re-label the churn batch's journaled
    // decisions off-thread, fit, register.
    let version = pilot.shadow_retrain(churn).join().unwrap().unwrap();
    assert_eq!(version, 2);
    assert_eq!(pilot.registry().latest().unwrap().unwrap().version, 2);
    let (_, models_shadowed) = get(addr, "/models");
    assert!(
        models_shadowed.contains("\"version\": 2"),
        "candidate must surface on /models: {models_shadowed}"
    );

    // --- Phase C: A/B shadow evaluation on post-churn traffic -----------
    // The same shifted distribution, fresh seed: every live decision is
    // mirrored to the candidate and scored against withheld truth.
    let shadow = pilot.shadow().expect("candidate armed");
    let mirrored = run_fleet(
        FleetModels {
            source: ModelSource::Live(pilot.live()),
            shadow: Some(&shadow),
        },
        &fleet_cfg(120, 777, 0.7, 1.0),
    );
    assert_eq!(mirrored.len(), 120);
    assert!(mirrored.iter().all(|r| r.model_version == 1));

    let pattern = shadow.score.score(ModelKind::Pattern);
    assert!(pattern.truth_n >= 20, "thin evidence: {pattern:?}");
    assert!(
        pattern.cand_accuracy > pattern.live_accuracy,
        "candidate must beat live on post-churn traffic: {pattern:?}"
    );
    let assessment = pilot.assess().expect("shadow riding");
    assert_eq!(
        assessment.verdict,
        Verdict::Promote,
        "reason: {}",
        assessment.reason
    );

    // The scoreboard is scraped as cgc_lifecycle_* families.
    let (_, metrics_c) = get(addr, "/metrics");
    assert!(
        metrics_c.contains("cgc_model_version{model=\"pattern\"} 1"),
        "{metrics_c}"
    );
    assert!(
        metrics_c.contains("cgc_lifecycle_shadow_version 2"),
        "{metrics_c}"
    );
    assert!(
        metrics_c.contains("cgc_lifecycle_mirrored_total{model=\"pattern\"} 120"),
        "{metrics_c}"
    );
    assert!(
        metrics_c.contains("cgc_lifecycle_agreement_pct{model=\"title\"} 100"),
        "identical title forks must agree: {metrics_c}"
    );
    let (_, models_scored) = get(addr, "/models");
    assert!(
        models_scored.contains("\"verdict\": \"promote\""),
        "{models_scored}"
    );

    // --- Promotion: hot-swap with zero dropped sessions ------------------
    // A pin taken before the swap keeps serving v1 (in-flight sessions
    // are unaffected); everything admitted after is stamped v2.
    let pinned = pilot.live().load();
    assert_eq!(pilot.promote(), Some(2));
    assert_eq!(pinned.version(), 1, "in-flight pin survives the swap");
    assert_eq!(pilot.live().version(), 2);
    let promoted = run_fleet(live_models, &fleet_cfg(24, 9, 0.7, 1.0));
    assert_eq!(promoted.len(), 24, "no session dropped across the swap");
    assert!(promoted.iter().all(|r| r.model_version == 2));
    let (_, metrics_d) = get(addr, "/metrics");
    assert!(
        metrics_d.contains("cgc_model_version{model=\"pattern\"} 2"),
        "{metrics_d}"
    );
    assert!(
        metrics_d.contains("cgc_lifecycle_shadow_version 0"),
        "{metrics_d}"
    );
    assert!(
        metrics_d.contains("cgc_lifecycle_promotions_total 1"),
        "{metrics_d}"
    );
    let (_, models_promoted) = get(addr, "/models");
    assert!(
        models_promoted.contains("\"live_version\": 2"),
        "{models_promoted}"
    );
    assert!(
        models_promoted.contains("\"shadow\": null"),
        "{models_promoted}"
    );

    // --- Rollback: instant restore of the prior version ------------------
    assert_eq!(pilot.rollback(), Some(1));
    assert_eq!(pilot.live().version(), 1);
    let rolled = run_fleet(live_models, &fleet_cfg(12, 11, 0.0, 0.0));
    assert!(rolled.iter().all(|r| r.model_version == 1));
    let (_, metrics_e) = get(addr, "/metrics");
    assert!(
        metrics_e.contains("cgc_model_version{model=\"pattern\"} 1"),
        "{metrics_e}"
    );
    assert!(
        metrics_e.contains("cgc_lifecycle_rollbacks_total 1"),
        "{metrics_e}"
    );
    let (_, models_rolled) = get(addr, "/models");
    assert!(
        models_rolled.contains("\"live_version\": 1"),
        "{models_rolled}"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The zero-stall swap at the tap: a sharded monitor serving from a hot
/// slot is fed half its flows, hot-swapped to v2 mid-stream, then fed
/// the rest. Every flow must finalize (zero dropped slots), flows
/// admitted before the swap must finish on v1 and flows admitted after
/// on v2, and every journal timeline must stay continuous — admission
/// first, monotone timestamps, closure last, its `ModelVersion` event
/// matching the report's stamp.
#[test]
fn hot_swap_under_tap_load_keeps_timelines_continuous() {
    use gamescope::domain::{GameTitle, StreamSettings};
    use gamescope::obs::event::EventKind;
    use gamescope::obs::{Journal, JournalConfig};
    use gamescope::sim::{Fidelity, Session, SessionConfig, SessionGenerator, TitleKind};
    use gamescope::trace::packet::Direction;

    let bundle = train_bundle(&TrainConfig::quick());
    let live = Arc::new(LiveModel::new(bundle.clone()));

    let titles = [
        GameTitle::Fortnite,
        GameTitle::GenshinImpact,
        GameTitle::CsGo,
        GameTitle::Dota2,
    ];
    let mut generator = SessionGenerator::new();
    let sessions: Vec<Session> = (0..8u64)
        .map(|i| {
            generator.generate(&SessionConfig {
                kind: TitleKind::Known(titles[i as usize % titles.len()]),
                settings: StreamSettings::default_pc(),
                gameplay_secs: 25.0,
                fidelity: Fidelity::FullPackets,
                seed: 300 + i,
            })
        })
        .collect();
    // Interleave: session i starts at i*3 s, so the cutover at 12 s falls
    // after sessions 0–3 were admitted and before 4–7 start.
    let mut feed: Vec<(u64, gamescope::trace::packet::FiveTuple, u32)> = Vec::new();
    for (i, s) in sessions.iter().enumerate() {
        let offset = i as u64 * 3_000_000;
        for p in &s.packets {
            let tuple = match p.dir {
                Direction::Downstream => s.tuple,
                Direction::Upstream => s.tuple.reversed(),
            };
            feed.push((p.ts + offset, tuple, p.payload_len));
        }
    }
    feed.sort_by_key(|(ts, _, _)| *ts);
    const CUTOVER: u64 = 12_000_000;
    let split = feed.partition_point(|(ts, _, _)| *ts < CUTOVER);

    let registry = Registry::new();
    let (sink, mut journal) = Journal::new(JournalConfig::default(), &registry);
    let mut monitor = ShardedTapMonitor::with_obs(
        Arc::clone(&live),
        ShardedMonitorConfig::with_shards(4),
        &registry,
        Obs {
            journal: sink.clone(),
            ..Obs::on(&registry)
        },
    );

    for batch in feed[..split].chunks(256) {
        monitor.ingest_batch(batch);
    }
    // stats() round-trips every shard, so all pre-cutover admissions have
    // happened before the publish — the version split is deterministic.
    let pre = monitor.stats();
    assert_eq!(pre.total().active_flows, 4);
    assert_eq!(live.publish(bundle), 2);
    for batch in feed[split..].chunks(256) {
        monitor.ingest_batch(batch);
    }
    let (out, stats) = monitor.finish_all();

    // Zero dropped or stalled slots: every flow finalized, every packet
    // ingested.
    assert_eq!(out.len(), 8);
    assert_eq!(stats.total().ingested_packets as usize, feed.len());
    assert_eq!(stats.total().finalized_flows, 8);
    assert_eq!(live.version(), 2);
    assert_eq!(live.versions_alive(), 2);

    journal.drain();
    assert_eq!(sink.dropped(), 0);
    for m in &out {
        // Version split: admitted before the cutover → pinned v1;
        // admitted after → v2. In-flight flows finished on their pin.
        let expect = if m.started_at < CUTOVER { 1 } else { 2 };
        assert_eq!(
            m.model_version, expect,
            "flow {} admitted at {} must serve v{expect}",
            m.tuple, m.started_at
        );

        let tl = journal
            .timeline(m.tuple.flow_id())
            .unwrap_or_else(|| panic!("no timeline for {}", m.tuple));
        assert!(!tl.truncated, "timeline truncated for {}", m.tuple);
        // Continuous across the swap: exactly one admission opens the
        // timeline, exactly one closure ends it — the swap never
        // interrupted, re-admitted, or truncated the flow.
        assert!(
            matches!(
                tl.events.first().map(|e| &e.kind),
                Some(EventKind::FlowAdmitted { .. })
            ),
            "first event must be admission: {:?}",
            tl.events.first()
        );
        assert!(
            matches!(
                tl.events.last().map(|e| &e.kind),
                Some(EventKind::FlowClosed { .. })
            ),
            "last event must be closure: {:?}",
            tl.events.last()
        );
        let admissions = tl
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::FlowAdmitted { .. }))
            .count();
        let closures = tl
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::FlowClosed { .. }))
            .count();
        assert_eq!(
            (admissions, closures),
            (1, 1),
            "flow {} must stay one unbroken session across the swap",
            m.tuple
        );
        assert_eq!(tl.events.last().unwrap().ts, m.last_seen);
        // Exactly one version stamp, agreeing with the report.
        let stamped: Vec<u32> = tl
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::ModelVersion { version } => Some(version),
                _ => None,
            })
            .collect();
        assert_eq!(stamped, vec![m.model_version], "{}", m.tuple);
    }
}
