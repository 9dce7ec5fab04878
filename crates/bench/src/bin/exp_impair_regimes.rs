//! Robustness under impairment — the regime matrix: every named
//! adversarial network profile (see `docs/IMPAIRMENTS.md`) swept across
//! the same fleet, with the withheld ground truth joined back through the
//! quality observatory and drift scored against a clean-traffic reference.
//!
//! Per profile this reports the per-classifier accuracy (title / pattern /
//! stage), the worst drift statistic and any alarms, the share of slots
//! flagged not-Good by the effective QoE, and — for profiles that degrade
//! mid-session — how long the QoE estimator takes to notice the link
//! change (detection latency from the scheduled onset).
//!
//! Shape checks enforced here (the committed JSON must honour them):
//! the `clean` profile matches the unimpaired baseline, and the composite
//! accuracy of `clean` beats every degrading profile.
//!
//! ```text
//! cargo run -p cgc-bench --release --bin exp_impair_regimes [-- --quick]
//! ```
//!
//! `--quick` runs a scaled-down smoke variant (small fleets, quick-config
//! bundle) used by CI; the committed `results/impair_regimes.json` comes
//! from the full run.

use cgc_deploy::fleet::{run_fleet, FleetConfig, SessionRecord};
use cgc_deploy::report::{f, table, write_json};
use cgc_deploy::train::{train_bundle, TrainConfig};
use cgc_obs::drift::{DriftConfig, DriftEngine};
use cgc_obs::quality::{ModelKind, QualityConfig, QualityHub};
use cgc_obs::Registry;
use nettrace::impair::ImpairmentProfile;
use serde::Serialize;

/// One row of the regime matrix.
#[derive(Serialize)]
struct RegimeRow {
    profile: String,
    version: u32,
    severity: u8,
    sessions: usize,
    title_accuracy_pct: f64,
    pattern_accuracy_pct: f64,
    stage_accuracy_pct: f64,
    /// Mean of the three per-classifier accuracies.
    composite_accuracy_pct: f64,
    /// Worst drift statistic across models (PSI units, vs clean reference).
    drift_score: f64,
    /// Models alarming at the 0.25 PSI boundary.
    drift_alarms: Vec<String>,
    /// Share of slots the effective QoE flags Medium or Bad.
    qoe_not_good_slot_pct: f64,
    /// Sessions with a scheduled mid-session degradation onset.
    onset_sessions: usize,
    /// Of those, share where a post-onset slot was flagged not-Good.
    qoe_shift_detected_pct: f64,
    /// Median time from onset to the first flagged slot, seconds
    /// (`null` when no session had an onset).
    qoe_shift_detection_latency_s: Option<f64>,
}

struct Scale {
    warmup_sessions: usize,
    measure_sessions: usize,
    duration_scale: f64,
    quality_window: usize,
    drift_reference: usize,
    drift_window: usize,
    drift_min_window: usize,
}

fn regime_row(
    bundle: &cgc_core::bundle::ModelBundle,
    profile: &ImpairmentProfile,
    scale: &Scale,
) -> RegimeRow {
    // Private observability per regime: a profile-labeled quality hub and
    // a drift engine whose reference freezes on *clean* traffic, so the
    // measured fleet scores drift against a healthy-network baseline the
    // way a deployment watching /drift would.
    let registry = Registry::new();
    let (quality_sink, mut quality_hub) = QualityHub::new(
        QualityConfig {
            window: scale.quality_window,
            ring_capacity: scale.quality_window.next_power_of_two() * 4,
            profile: Some(profile.name),
        },
        &registry,
    );
    let (drift_sink, mut drift_engine) = DriftEngine::new(
        DriftConfig {
            reference_size: scale.drift_reference,
            window: scale.drift_window,
            min_window: scale.drift_min_window,
            profile: Some(profile.name),
        },
        &registry,
    );

    // Clean warmup: freeze the drift reference. The quality sink stays
    // out of this run — accuracy is measured on the impaired fleet only.
    let base = FleetConfig {
        duration_scale: scale.duration_scale,
        telemetry_every: 0,
        obs: std::sync::Arc::new(cgc_core::Obs {
            drift: drift_sink,
            ..cgc_core::Obs::on(&registry)
        }),
        ..FleetConfig::default()
    };
    run_fleet(
        bundle,
        &FleetConfig {
            n_sessions: scale.warmup_sessions,
            impaired_fraction: 0.0,
            seed: base.seed ^ 0xC1EA7,
            ..base.clone()
        },
    );
    drift_engine.drain_and_sync();

    // The measured fleet: every session through the profile's channel.
    let records = run_fleet(
        bundle,
        &FleetConfig {
            n_sessions: scale.measure_sessions,
            impaired_fraction: 1.0,
            impair_profile: *profile,
            quality: quality_sink,
            ..base
        },
    );
    quality_hub.drain_and_sync();
    drift_engine.drain_and_sync();
    assert_eq!(quality_hub.shed(), 0, "quality ring sized for the fleet");

    let drift = drift_engine.report();
    let drift_score = drift.models.iter().map(|m| m.score).fold(0.0f64, f64::max);
    let drift_alarms: Vec<String> = drift.alarms().iter().map(|s| s.to_string()).collect();

    let (not_good, total_slots) = records.iter().fold((0usize, 0usize), |(ng, tot), r| {
        let flagged = r
            .report
            .qoe_slots
            .iter()
            .filter(|(_, eff)| *eff != cgc_domain::QoeLevel::Good)
            .count();
        (ng + flagged, tot + r.report.qoe_slots.len())
    });

    let (onset_sessions, detected, mut latencies) = qoe_shift_stats(&records);
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median_latency = (!latencies.is_empty()).then(|| latencies[latencies.len() / 2]);

    let title = quality_hub.accuracy(ModelKind::Title) * 100.0;
    let pattern = quality_hub.accuracy(ModelKind::Pattern) * 100.0;
    let stage = quality_hub.accuracy(ModelKind::Stage) * 100.0;
    RegimeRow {
        profile: profile.name.to_string(),
        version: profile.version,
        severity: profile.severity,
        sessions: records.len(),
        title_accuracy_pct: title,
        pattern_accuracy_pct: pattern,
        stage_accuracy_pct: stage,
        composite_accuracy_pct: (title + pattern + stage) / 3.0,
        drift_score,
        drift_alarms,
        qoe_not_good_slot_pct: 100.0 * not_good as f64 / total_slots.max(1) as f64,
        onset_sessions,
        qoe_shift_detected_pct: 100.0 * detected as f64 / onset_sessions.max(1) as f64,
        qoe_shift_detection_latency_s: median_latency,
    }
}

/// `(sessions with onset, sessions detected, per-session latency secs)` —
/// a shift counts as detected when any slot at or after the onset is
/// flagged not-Good by the effective QoE; latency runs from the scheduled
/// onset to the close of the first flagged slot.
fn qoe_shift_stats(records: &[SessionRecord]) -> (usize, usize, Vec<f64>) {
    let mut with_onset = 0;
    let mut detected = 0;
    let mut latencies = Vec::new();
    for r in records {
        let Some(onset) = r.degradation_onset_us else {
            continue;
        };
        with_onset += 1;
        let w = r.report.slot_width;
        let hit = r.report.qoe_slots.iter().enumerate().find(|(i, (_, eff))| {
            (*i as u64 + 1) * w > onset && *eff != cgc_domain::QoeLevel::Good
        });
        if let Some((i, _)) = hit {
            detected += 1;
            latencies.push(((i as u64 + 1) * w).saturating_sub(onset) as f64 / 1e6);
        }
    }
    (with_onset, detected, latencies)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick {
        Scale {
            warmup_sessions: 80,
            measure_sessions: 160,
            duration_scale: 0.05,
            quality_window: 1 << 16,
            drift_reference: 48,
            drift_window: 64,
            drift_min_window: 24,
        }
    } else {
        Scale {
            warmup_sessions: 150,
            measure_sessions: 400,
            duration_scale: 0.12,
            quality_window: 1 << 17,
            drift_reference: 128,
            drift_window: 192,
            drift_min_window: 48,
        }
    };
    let bundle = if quick {
        train_bundle(&TrainConfig::quick())
    } else {
        cgc_bench::cached_bundle()
    };

    println!(
        "== robustness under impairment ({} mode) ==\n",
        if quick { "quick" } else { "full" }
    );
    let rows: Vec<RegimeRow> = ImpairmentProfile::ALL
        .iter()
        .map(|p| {
            eprintln!("sweeping profile {} ...", p.name);
            regime_row(&bundle, p, &scale)
        })
        .collect();

    let fmt_latency = |l: Option<f64>| l.map_or("-".to_string(), |v| format!("{v:.0}s"));
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.profile.clone(),
                r.severity.to_string(),
                f(r.title_accuracy_pct, 1),
                f(r.pattern_accuracy_pct, 1),
                f(r.stage_accuracy_pct, 1),
                f(r.composite_accuracy_pct, 1),
                f(r.drift_score, 3),
                f(r.qoe_not_good_slot_pct, 1),
                fmt_latency(r.qoe_shift_detection_latency_s),
                r.drift_alarms.join(","),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "profile",
                "sev",
                "title%",
                "pattern%",
                "stage%",
                "composite%",
                "drift",
                "QoE!good%",
                "detect",
                "alarms"
            ],
            &printable
        )
    );

    // Shape checks — the regime matrix only means something if the knobs
    // actually bite in the advertised order.
    let clean = rows
        .iter()
        .find(|r| r.profile == "clean")
        .expect("clean row");
    for r in rows.iter().filter(|r| r.severity > 0) {
        assert!(
            clean.composite_accuracy_pct >= r.composite_accuracy_pct,
            "clean composite {:.1}% must beat {} ({:.1}%)",
            clean.composite_accuracy_pct,
            r.profile,
            r.composite_accuracy_pct
        );
        assert!(
            clean.qoe_not_good_slot_pct <= r.qoe_not_good_slot_pct,
            "clean flags fewer slots than {}",
            r.profile
        );
    }
    assert!(
        clean.drift_alarms.is_empty(),
        "clean traffic must not alarm the drift engine"
    );
    let onset_profiles: Vec<&RegimeRow> = rows.iter().filter(|r| r.onset_sessions > 0).collect();
    assert!(
        !onset_profiles.is_empty(),
        "at least one profile degrades mid-session"
    );
    for r in &onset_profiles {
        assert!(
            r.qoe_shift_detection_latency_s.is_some(),
            "{}: some QoE shifts must be detected",
            r.profile
        );
    }
    println!(
        "\nclean composite {:.1}% is the ceiling; worst regime {:.1}% — the\nobservatory keeps (accuracy, drift, QoE-shift latency) attributable\nper profile via the profile= label.",
        clean.composite_accuracy_pct,
        rows.iter()
            .map(|r| r.composite_accuracy_pct)
            .fold(f64::MAX, f64::min),
    );

    // The committed artifact comes from the full run; `--quick` (CI) only
    // checks the schema and shape, without clobbering it.
    if quick {
        println!("\nquick mode: schema and shape checks passed; JSON not rewritten");
    } else if let Ok(p) = write_json("impair_regimes", &rows) {
        println!("\nwrote {}", p.display());
    }
}
