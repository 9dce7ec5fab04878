//! The model lifecycle loop, composed for deployments.
//!
//! `cgc-lifecycle` supplies the mechanisms — versioned registry, hot
//! slot, A/B scoreboard; this module wires them to the fleet:
//!
//! 1. the drift engine trips (or an operator asks) →
//! 2. [`LifecyclePilot::shadow_retrain`] re-labels journaled per-session
//!    decisions into a training set and fits a candidate off-thread →
//! 3. the candidate is registered and armed as a [`ShadowMirror`], so
//!    [`run_fleet`](crate::fleet::run_fleet)
//!    mirrors every live decision to it →
//! 4. [`LifecyclePilot::evaluate`] turns the scoreboard into a
//!    promote/hold verdict, auto-promoting under
//!    [`PromotePolicy::Auto`] — and [`LifecyclePilot::rollback`]
//!    restores the previous version with one atomic store.

use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use cgc_core::bundle::ModelBundle;
use cgc_core::pattern::PatternInferrer;
use cgc_core::PipelineMetrics;
use cgc_features::transitions::TransitionAccumulator;
use cgc_lifecycle::{AbScore, Assessment, LifecycleMetrics, LiveModel, ModelRegistry, Verdict};
use mlcore::Dataset;
use serde::Value;

use crate::fleet::SessionRecord;

/// When a `Promote` verdict is acted on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromotePolicy {
    /// Promote the moment the assessment says so.
    Auto,
    /// Surface the verdict only; an operator calls
    /// [`LifecyclePilot::promote`].
    Manual,
}

impl PromotePolicy {
    /// Parses a CLI `--promote` value (`auto` / `manual`).
    pub fn parse(s: &str) -> Option<PromotePolicy> {
        match s {
            "auto" => Some(PromotePolicy::Auto),
            "manual" => Some(PromotePolicy::Manual),
            _ => None,
        }
    }

    /// The CLI spelling of this policy.
    pub fn name(self) -> &'static str {
        match self {
            PromotePolicy::Auto => "auto",
            PromotePolicy::Manual => "manual",
        }
    }
}

/// A candidate bundle riding shadow: the fleet mirrors every live
/// decision to it and scores both against withheld ground truth.
#[derive(Debug)]
pub struct ShadowMirror {
    /// Registry version of the candidate.
    pub version: u32,
    /// The candidate bundle.
    pub bundle: Arc<ModelBundle>,
    /// Shared live-vs-candidate scoreboard.
    pub score: Arc<AbScore>,
    /// Private pipeline-metrics sink for mirrored inference, so the
    /// candidate's counters never pollute the live families.
    metrics: PipelineMetrics,
}

impl ShadowMirror {
    /// Arms a candidate for shadow evaluation.
    pub fn new(version: u32, bundle: Arc<ModelBundle>) -> ShadowMirror {
        ShadowMirror {
            version,
            bundle,
            score: Arc::new(AbScore::new()),
            metrics: PipelineMetrics::register(&cgc_obs::Registry::new()),
        }
    }

    /// The mirror's private pipeline-metrics handles.
    pub fn pipeline_metrics(&self) -> PipelineMetrics {
        self.metrics.clone()
    }
}

/// The deployment's model-lifecycle control loop: one hot slot, one
/// on-disk registry, at most one shadow candidate, and the metrics that
/// narrate all of it.
#[derive(Debug)]
pub struct LifecyclePilot {
    live: Arc<LiveModel<ModelBundle>>,
    registry: ModelRegistry,
    metrics: LifecycleMetrics,
    policy: PromotePolicy,
    shadow: Mutex<Option<Arc<ShadowMirror>>>,
    /// Live version before the last promotion — the rollback target.
    prev_version: Mutex<Option<u32>>,
}

impl LifecyclePilot {
    /// Opens the registry at `dir` and brings up the live slot: serving
    /// the newest stored version if the registry has one (the restart
    /// path), else storing `seed_bundle` as v1 and serving that.
    /// Lifecycle metric families register in `obs`.
    pub fn open(
        dir: impl Into<PathBuf>,
        seed_bundle: ModelBundle,
        train_fingerprint: u64,
        obs: &cgc_obs::Registry,
        policy: PromotePolicy,
    ) -> io::Result<LifecyclePilot> {
        let registry = ModelRegistry::open(dir.into())?;
        let metrics = LifecycleMetrics::register(obs);
        let (version, bundle) = match registry.latest()? {
            Some(m) => {
                let (bundle, manifest) = registry.load::<ModelBundle>(m.version)?;
                (manifest.version, bundle)
            }
            None => {
                let manifest = registry.store(&seed_bundle, train_fingerprint)?;
                (manifest.version, seed_bundle)
            }
        };
        metrics.set_live_version(version);
        metrics.set_shadow_version(None);
        Ok(LifecyclePilot {
            live: Arc::new(LiveModel::new_as(version, bundle)),
            registry,
            metrics,
            policy,
            shadow: Mutex::new(None),
            prev_version: Mutex::new(None),
        })
    }

    /// The hot slot serving live traffic.
    pub fn live(&self) -> &Arc<LiveModel<ModelBundle>> {
        &self.live
    }

    /// The on-disk artifact registry.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The lifecycle metric handles.
    pub fn metrics(&self) -> &LifecycleMetrics {
        &self.metrics
    }

    /// The configured promotion policy.
    pub fn policy(&self) -> PromotePolicy {
        self.policy
    }

    /// The candidate currently riding shadow, if any.
    pub fn shadow(&self) -> Option<Arc<ShadowMirror>> {
        self.shadow.lock().expect("pilot poisoned").clone()
    }

    /// Re-labels journaled per-session decisions into a pattern training
    /// set: the pipeline's own classified stage sequences (what the
    /// flight recorder kept per flow) joined with the "server log"
    /// truth pattern, sampled at the same prefix ladder the original
    /// training used so confidence keeps behaving on short windows.
    fn relabel_pattern_dataset(records: &[SessionRecord]) -> Dataset {
        let prefixes = [30usize, 60, 90, 150, 240, 420, 600, 900, usize::MAX];
        let mut x = Vec::new();
        let mut y = Vec::new();
        for r in records {
            for &p in &prefixes {
                let end = p.min(r.report.stage_slots.len());
                if end < 60 {
                    continue;
                }
                let acc = TransitionAccumulator::from_sequence(&r.report.stage_slots[..end]);
                if acc.total() == 0 {
                    continue;
                }
                x.push(acc.features().to_vec());
                y.push(r.truth_pattern.index());
            }
        }
        Dataset::new(x, y).with_n_classes(2)
    }

    /// The synchronous body of [`LifecyclePilot::shadow_retrain`].
    fn retrain_now(&self, records: &[SessionRecord]) -> io::Result<u32> {
        let data = Self::relabel_pattern_dataset(records);
        if data.len() < 8 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "only {} usable journaled sessions: not enough evidence to retrain",
                    data.len()
                ),
            ));
        }
        let live = self.live.load();
        let mut candidate: ModelBundle = live.value().clone();
        candidate.pattern = PatternInferrer::train(&data, *candidate.pattern.config());
        let manifest = self.registry.store(&candidate, data.fingerprint())?;
        let mirror = Arc::new(ShadowMirror::new(manifest.version, Arc::new(candidate)));
        *self.shadow.lock().expect("pilot poisoned") = Some(mirror);
        self.metrics.set_shadow_version(Some(manifest.version));
        Ok(manifest.version)
    }

    /// Fits, registers and arms a shadow candidate on a background thread
    /// — the live bundle with its pattern inferrer retrained on the
    /// re-labeled journal evidence (the drift-alarm handler's shape: the
    /// pipeline keeps serving the live version while the candidate fits).
    /// Join the handle for the candidate's registry version.
    pub fn shadow_retrain(
        self: &Arc<Self>,
        records: Vec<SessionRecord>,
    ) -> JoinHandle<io::Result<u32>> {
        let pilot = Arc::clone(self);
        std::thread::Builder::new()
            .name("shadow-retrain".into())
            .spawn(move || pilot.retrain_now(&records))
            .expect("spawn shadow-retrain thread")
    }

    /// Assesses the shadow candidate's scoreboard (also syncing it into
    /// the `cgc_lifecycle_*` families). `None` when nothing rides shadow.
    pub fn assess(&self) -> Option<Assessment> {
        let shadow = self.shadow()?;
        shadow.score.sync(&self.metrics);
        Some(shadow.score.assess())
    }

    /// Applies the promotion policy: assesses, and under
    /// [`PromotePolicy::Auto`] with a `Promote` verdict swaps the
    /// candidate live. Returns the assessment plus the promoted version
    /// (if the swap happened).
    pub fn evaluate(&self) -> Option<(Assessment, Option<u32>)> {
        let assessment = self.assess()?;
        let promoted =
            if assessment.verdict == Verdict::Promote && self.policy == PromotePolicy::Auto {
                self.promote()
            } else {
                None
            };
        Some((assessment, promoted))
    }

    /// Promotes the shadow candidate live — one atomic store; in-flight
    /// sessions finish on the version they pinned. Under `manual` policy
    /// this is the operator's explicit call, regardless of verdict.
    /// Returns the new live version (`None` when nothing rides shadow).
    pub fn promote(&self) -> Option<u32> {
        let mirror = self.shadow.lock().expect("pilot poisoned").take()?;
        let prev = self.live.version();
        self.live
            .publish_as(mirror.version, (*mirror.bundle).clone());
        *self.prev_version.lock().expect("pilot poisoned") = Some(prev);
        self.metrics.set_live_version(mirror.version);
        self.metrics.set_shadow_version(None);
        self.metrics.record_promotion();
        Some(mirror.version)
    }

    /// Rolls live back to the version before the last promotion —
    /// instant, the parked version is still in the slot. Returns the
    /// restored version (`None` when there is nothing to roll back to).
    pub fn rollback(&self) -> Option<u32> {
        let prev = self.prev_version.lock().expect("pilot poisoned").take()?;
        if !self.live.rollback_to(prev) {
            return None;
        }
        self.metrics.set_live_version(prev);
        self.metrics.record_rollback();
        Some(prev)
    }

    /// The JSON document served on the telemetry `/models` route:
    /// registry contents, live + shadow versions, per-kind A/B scores
    /// and the current verdict.
    pub fn models_json(&self) -> String {
        let mut root: Vec<(String, Value)> = vec![
            (
                "live_version".into(),
                Value::UInt(u64::from(self.live.version())),
            ),
            ("policy".into(), Value::String(self.policy.name().into())),
        ];
        let registry = match self.registry.list() {
            Ok(manifests) => {
                Value::Array(manifests.iter().map(serde::Serialize::to_value).collect())
            }
            Err(e) => Value::String(format!("unreadable: {e}")),
        };
        root.push(("registry".into(), registry));
        let shadow = match self.shadow() {
            None => Value::Null,
            Some(mirror) => {
                let assessment = mirror.score.assess();
                let scores: Vec<Value> = assessment
                    .scores
                    .iter()
                    .map(|s| {
                        Value::Object(vec![
                            ("model".into(), Value::String(s.kind.name().into())),
                            ("mirrored".into(), Value::UInt(s.mirrored)),
                            ("agreement".into(), Value::Float(s.agreement)),
                            ("truth_n".into(), Value::UInt(s.truth_n)),
                            ("live_accuracy".into(), Value::Float(s.live_accuracy)),
                            ("cand_accuracy".into(), Value::Float(s.cand_accuracy)),
                            ("accuracy_delta".into(), Value::Float(s.accuracy_delta())),
                        ])
                    })
                    .collect();
                Value::Object(vec![
                    ("version".into(), Value::UInt(u64::from(mirror.version))),
                    (
                        "verdict".into(),
                        Value::String(
                            match assessment.verdict {
                                Verdict::Promote => "promote",
                                Verdict::Hold => "hold",
                            }
                            .into(),
                        ),
                    ),
                    ("reason".into(), Value::String(assessment.reason)),
                    ("scores".into(), Value::Array(scores)),
                ])
            }
        };
        root.push(("shadow".into(), shadow));
        serde::write_pretty(&Value::Object(root))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{run_fleet, FleetConfig, FleetModels};
    use crate::train::quick_bundle;
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "cgc-deploy-lifecycle-{}-{tag}-{n}",
            std::process::id()
        ))
    }

    fn fleet_cfg(n: usize, seed: u64) -> FleetConfig {
        FleetConfig {
            n_sessions: n,
            seed,
            duration_scale: 0.05,
            workers: 2,
            ..Default::default()
        }
    }

    #[test]
    fn pilot_retrains_from_records_and_promotes_with_rollback() {
        let dir = scratch_dir("loop");
        let obs = cgc_obs::Registry::new();
        let bundle = ModelBundle::clone(&quick_bundle());
        let pilot = Arc::new(
            LifecyclePilot::open(&dir, bundle, 0x5EED, &obs, PromotePolicy::Manual).unwrap(),
        );
        assert_eq!(pilot.live().version(), 1);
        assert!(pilot.assess().is_none(), "no shadow yet");

        // Drift-window evidence → candidate v2 riding shadow.
        let records = run_fleet(pilot.live().load().value(), &fleet_cfg(12, 99));
        let handle = pilot.shadow_retrain(records);
        let version = handle.join().unwrap().unwrap();
        assert_eq!(version, 2);
        assert_eq!(pilot.registry().latest().unwrap().unwrap().version, 2);
        let shadow = pilot.shadow().expect("candidate armed");
        assert_eq!(shadow.version, 2);

        // A mirrored fleet populates the scoreboard end to end.
        let mirrored = run_fleet(
            FleetModels {
                source: cgc_core::ModelSource::Live(pilot.live()),
                shadow: Some(&shadow),
            },
            &fleet_cfg(8, 7),
        );
        assert!(mirrored.iter().all(|r| r.model_version == 1));
        assert!(shadow.score.score(cgc_obs::ModelKind::Title).mirrored >= 8);
        let assessment = pilot.assess().unwrap();
        assert!(!assessment.scores.is_empty());

        // Manual promote, then instant rollback: a pin taken before the
        // swap keeps serving v1 either way.
        let pinned = pilot.live().load();
        assert_eq!(pilot.promote(), Some(2));
        assert_eq!(pilot.live().version(), 2);
        assert_eq!(pinned.version(), 1, "in-flight pin unaffected by swap");
        assert!(pilot.shadow().is_none());
        assert_eq!(pilot.rollback(), Some(1));
        assert_eq!(pilot.live().version(), 1);
        assert_eq!(pilot.rollback(), None, "rollback target consumed");

        let json = pilot.models_json();
        assert!(json.contains("\"live_version\": 1"), "{json}");
        assert!(json.contains("\"registry\""), "{json}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pilot_reopens_serving_the_latest_registered_version() {
        let dir = scratch_dir("reopen");
        let obs = cgc_obs::Registry::new();
        let bundle = ModelBundle::clone(&quick_bundle());
        {
            let pilot = Arc::new(
                LifecyclePilot::open(&dir, bundle.clone(), 1, &obs, PromotePolicy::Auto).unwrap(),
            );
            let records = run_fleet(pilot.live().load().value(), &fleet_cfg(12, 99));
            pilot.retrain_now(&records).unwrap();
        }
        // A fresh process finds v2 in the registry and serves it —
        // the seed bundle is ignored.
        let pilot = LifecyclePilot::open(&dir, bundle, 1, &obs, PromotePolicy::Auto).unwrap();
        assert_eq!(pilot.live().version(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retrain_refuses_thin_evidence() {
        let dir = scratch_dir("thin");
        let obs = cgc_obs::Registry::new();
        let bundle = ModelBundle::clone(&quick_bundle());
        let pilot = LifecyclePilot::open(&dir, bundle, 1, &obs, PromotePolicy::Auto).unwrap();
        let err = pilot.retrain_now(&[]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(pilot.shadow().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
