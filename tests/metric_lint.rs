//! Metric-name lint: every family the production code registers must
//! follow the naming contract, and no two call sites may register the
//! same family name with different label-key sets (Prometheus clients
//! reject that, and the registry would happily serve both).
//!
//! The contract, as a regex: `^cgc_[a-z0-9_]+(_total|_us|_bytes|_depth|_size)?$`
//! — a `cgc_` prefix and lowercase snake_case throughout (the unit
//! suffix, when present, is part of the same alphabet). The lint is
//! dynamic: it drives every registering subsystem against live
//! registries and checks what actually got registered, so a family added
//! anywhere in the workspace is linted the moment any test path
//! exercises it.

use std::collections::BTreeMap;

use gamescope::deploy::fleet::{
    build_tap_feed, run_tap_feed_replay, TapFleetConfig, TapReplayOptions,
};
use gamescope::deploy::train::{train_bundle, TrainConfig};
use gamescope::obs::{self, Registry};

/// The naming contract. `^cgc_[a-z0-9_]+(_total|_us|_bytes|_depth|_size)?$`
/// reduces to "cgc_ prefix, lowercase snake_case alphabet" (the suffix
/// group draws from the same alphabet); the lint additionally rejects
/// the degenerate spellings the regex technically admits (empty tail,
/// doubled or trailing underscores).
fn name_is_clean(name: &str) -> bool {
    let Some(tail) = name.strip_prefix("cgc_") else {
        return false;
    };
    !tail.is_empty()
        && !tail.ends_with('_')
        && !tail.contains("__")
        && tail
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Folds a snapshot into `families`: family name -> sorted label-key set
/// -> one example label rendering (for the failure message).
fn collect(
    snap: &obs::Snapshot,
    origin: &str,
    families: &mut BTreeMap<String, BTreeMap<Vec<String>, String>>,
) {
    for m in &snap.metrics {
        let mut keys: Vec<String> = m.labels.iter().map(|(k, _)| k.clone()).collect();
        keys.sort();
        families
            .entry(m.name.clone())
            .or_default()
            .entry(keys)
            .or_insert_with(|| format!("{origin}: {:?}", m.labels));
    }
}

#[test]
fn every_registered_family_is_lint_clean() {
    // One live replay with every observability layer attached registers
    // the monitor, shard, pipeline, qoe, ingest, merge, journal and trace
    // families on the run's private registry in a single pass.
    let bundle = std::sync::Arc::new(train_bundle(&TrainConfig::quick()));
    let cfg = TapFleetConfig {
        n_sessions: 2,
        gameplay_secs: 8.0,
        shards: 2,
        ..Default::default()
    };
    let run = run_tap_feed_replay(
        &bundle,
        cfg.shards,
        vec![gamescope::ingest::MergeSource::new(
            "feed",
            build_tap_feed(&cfg),
        )],
        gamescope::trace::VirtualClock::new().shared(),
        TapReplayOptions {
            trace: Some(obs::TraceConfig::default()),
            ..Default::default()
        },
    );

    // The families the replay does not touch: the nettrace parse-layer
    // set and the off-thread pump counters.
    let extra = Registry::new();
    gamescope::trace::metrics::TraceMetrics::register(&extra);
    let (_sink, journal) = obs::Journal::new(obs::JournalConfig::default(), &extra);
    obs::Pump::start(
        std::sync::Arc::new(std::sync::Mutex::new(journal)),
        std::time::Duration::from_millis(50),
        &extra,
    )
    .stop();
    let (_tsink, collector) = obs::TraceCollector::new(obs::TraceConfig::default(), &extra);
    obs::Pump::start(
        std::sync::Arc::new(std::sync::Mutex::new(collector)),
        std::time::Duration::from_millis(50),
        &extra,
    )
    .stop();
    // The classification-quality observatory: constructing the hub, the
    // drift engine and the build-info gauges pre-registers every
    // cgc_quality_*, cgc_drift_* and cgc_build_* / uptime family.
    let _ = obs::QualityHub::new(obs::QualityConfig::default(), &extra);
    let _ = obs::DriftEngine::new(obs::DriftConfig::default(), &extra);
    let _ = obs::BuildInfo::register(&extra);
    // The model-lifecycle families: cgc_model_version and every
    // cgc_lifecycle_* gauge/counter the pilot narrates swaps through.
    let _ = gamescope::lifecycle::LifecycleMetrics::register(&extra);

    let mut families: BTreeMap<String, BTreeMap<Vec<String>, String>> = BTreeMap::new();
    collect(&run.fleet.snapshot, "replay registry", &mut families);
    collect(&extra.snapshot(), "extra registry", &mut families);
    // Whatever reached the process-global registry along the way (the
    // nettrace layer registers there from inside per-flow stats).
    collect(
        &Registry::global().snapshot(),
        "global registry",
        &mut families,
    );

    assert!(
        families.len() > 30,
        "lint saw only {} families — a registering subsystem went quiet",
        families.len()
    );

    let mut violations: Vec<String> = Vec::new();
    for (name, label_sets) in &families {
        if !name_is_clean(name) {
            violations.push(format!(
                "{name}: does not match ^cgc_[a-z0-9_]+(_total|_us|_bytes|_depth|_size)?$"
            ));
        }
        if label_sets.len() > 1 {
            let sets: Vec<String> = label_sets
                .iter()
                .map(|(keys, example)| format!("{keys:?} ({example})"))
                .collect();
            violations.push(format!(
                "{name}: registered with {} different label-key sets: {}",
                label_sets.len(),
                sets.join(" vs ")
            ));
        }
    }
    assert!(
        violations.is_empty(),
        "metric lint violations:\n  {}",
        violations.join("\n  ")
    );
}
