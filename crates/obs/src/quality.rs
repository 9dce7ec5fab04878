//! Streaming classification-quality telemetry.
//!
//! The paper's premise is that QoE measurement is only as trustworthy as
//! the context classifiers behind it — so classifier quality must be a
//! *live* signal, not an offline evaluation artifact. Wherever ground
//! truth is available (the fleet simulator withholds its "server log"
//! labels; a production deployment would join CDN/platform logs), the
//! truth joins emit `(predicted, truth)` pairs per classifier through a
//! lock-free [`QualitySink`] — one [`channel`](crate::channel) producer
//! handle, so a stalled consumer sheds samples visibly
//! (`cgc_quality_shed_total`) and never stalls the pipeline.
//!
//! A [`QualityHub`] drains the ring into one rolling window per model
//! (title / stage / pattern) — the per-model core it shares with the
//! [`DriftEngine`](crate::DriftEngine) — maintains an incremental
//! [`ConfusionMatrix`] per window (record on entry, forget on exit), and
//! publishes the derived scores as gauges:
//!
//! - `cgc_quality_accuracy_pct{model=}` — windowed accuracy, percent
//! - `cgc_quality_recall_pct{model=,class=}` / `cgc_quality_precision_pct{model=,class=}`
//! - `cgc_quality_window_len{model=}` — samples currently in the window
//!
//! The `/quality` route of [`serve::TelemetryServer`](crate::serve) and
//! the `quality_error_ratio` SLO objective read these.

use std::sync::Arc;

use cgc_domain::{ActivityPattern, GameTitle, Stage};
use mlcore::metrics::ConfusionMatrix;
use serde::Serialize;

use crate::channel::Sink;
use crate::metric::Gauge;
use crate::registry::Registry;
use crate::window::{Gauges, ModelWindows, Score};

/// The classifiers whose quality is tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Launch-window game-title classifier (catalog titles + unknown).
    Title,
    /// Per-slot activity-stage classifier.
    Stage,
    /// Session gameplay-pattern classifier.
    Pattern,
}

impl ModelKind {
    /// Every tracked model, in discriminant order (`ALL[k as usize] == k`).
    pub const ALL: [ModelKind; 3] = [ModelKind::Title, ModelKind::Stage, ModelKind::Pattern];

    /// Stable label value (`model=` on every quality/drift family).
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Title => "title",
            ModelKind::Stage => "stage",
            ModelKind::Pattern => "pattern",
        }
    }

    /// Number of classes in this model's confusion matrix. The title
    /// matrix carries one extra "unknown" class for below-threshold
    /// (out-of-catalog) calls.
    pub fn n_classes(self) -> usize {
        match self {
            ModelKind::Title => GameTitle::ALL.len() + 1,
            ModelKind::Stage => Stage::ALL.len(),
            ModelKind::Pattern => ActivityPattern::ALL.len(),
        }
    }

    /// Stable label value of class `i` (`class=` on per-class gauges).
    fn class_name(self, i: usize) -> String {
        match self {
            ModelKind::Title => GameTitle::from_index(i)
                .map(|t| slug(t.name()))
                .unwrap_or_else(|| "unknown".into()),
            ModelKind::Stage => Stage::ALL
                .get(i)
                .map(|s| s.to_string())
                .unwrap_or_else(|| "?".into()),
            ModelKind::Pattern => ActivityPattern::from_index(i)
                .map(|p| slug(&p.to_string()))
                .unwrap_or_else(|| "?".into()),
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Lowercases and squashes a human name into a Prometheus-safe label
/// value: lowercase alphanumerics joined by single `_` (`CS:GO` →
/// `cs_go`). The pipeline metrics label titles and patterns with it too.
pub fn slug(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut last_us = true;
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            last_us = false;
        } else if !last_us {
            out.push('_');
            last_us = true;
        }
    }
    while out.ends_with('_') {
        out.pop();
    }
    out
}

/// The title-model class id of a (possibly unknown) title call: catalog
/// titles map to their index, `None` to the trailing "unknown" class.
pub fn title_class(title: Option<GameTitle>) -> u16 {
    title.map_or(GameTitle::ALL.len() as u16, |t| t.index() as u16)
}

/// The stage-model class id of a stage ([`Stage::ALL`] order).
pub fn stage_class(stage: Stage) -> u16 {
    Stage::ALL
        .iter()
        .position(|&s| s == stage)
        .expect("stage in ALL") as u16
}

/// The pattern-model class id of an activity pattern.
pub fn pattern_class(pattern: ActivityPattern) -> u16 {
    pattern.index() as u16
}

/// Sizing of the quality telemetry path.
#[derive(Debug, Clone, Copy)]
pub struct QualityConfig {
    /// Sink ring capacity (samples), rounded up to a power of two.
    pub ring_capacity: usize,
    /// Rolling evaluation window per model, in samples.
    pub window: usize,
    /// Optional impairment-profile label added to every quality family
    /// (`profile=`), so per-regime hubs stay distinguishable when their
    /// registries are scraped side by side. `None` (the default) keeps the
    /// legacy label set; a process must pick one convention per registry —
    /// mixing labeled and unlabeled hubs on the same registry would violate
    /// the one-label-set-per-family metrics contract.
    pub profile: Option<&'static str>,
}

impl Default for QualityConfig {
    fn default() -> Self {
        QualityConfig {
            ring_capacity: 1 << 15,
            window: 512,
            profile: None,
        }
    }
}

/// Lock-free producer handle for labeled predictions: a [`Sink`] of
/// `(model, (truth, predicted))` class-id pairs, a few bytes per ring
/// slot. Cheap to clone, one branch per call when disabled; a full ring
/// sheds the sample and counts it (`cgc_quality_shed_total`) instead of
/// blocking.
pub type QualitySink = Sink<(ModelKind, (u16, u16))>;

impl QualitySink {
    /// Feeds one (truth, predicted) pair for `model` into the ring.
    #[inline]
    pub fn emit(&self, model: ModelKind, truth: u16, predicted: u16) {
        self.push((model, (truth, predicted)));
    }
}

/// Rolling confusion matrix and gauges of one model.
struct Confusion {
    kind: ModelKind,
    matrix: ConfusionMatrix,
    accuracy: Arc<Gauge>,
    window_len: Arc<Gauge>,
    recall: Vec<Arc<Gauge>>,
    precision: Vec<Arc<Gauge>>,
}

impl Confusion {
    fn new(kind: ModelKind, gauges: &Gauges<'_>) -> Confusion {
        let per_class = |family: &str, help: &str| -> Vec<Arc<Gauge>> {
            (0..kind.n_classes())
                .map(|c| gauges.gauge(family, help, Some(("class", &kind.class_name(c)))))
                .collect()
        };
        Confusion {
            kind,
            matrix: ConfusionMatrix::new(kind.n_classes()),
            accuracy: gauges.gauge(
                "cgc_quality_accuracy_pct",
                "Rolling-window accuracy where ground truth is available, percent",
                None,
            ),
            window_len: gauges.gauge(
                "cgc_quality_window_len",
                "Labeled samples currently in the rolling quality window",
                None,
            ),
            recall: per_class(
                "cgc_quality_recall_pct",
                "Rolling-window per-class recall, percent",
            ),
            precision: per_class(
                "cgc_quality_precision_pct",
                "Rolling-window per-class precision, percent",
            ),
        }
    }
}

impl Score for Confusion {
    type Value = (u16, u16);

    fn enter(&mut self, (truth, predicted): (u16, u16)) -> bool {
        let n = self.kind.n_classes();
        if usize::from(truth) >= n || usize::from(predicted) >= n {
            return false; // malformed sample: ignore rather than panic the drainer
        }
        self.matrix.record(truth.into(), predicted.into());
        true
    }

    fn leave(&mut self, (truth, predicted): (u16, u16)) {
        self.matrix.forget(truth.into(), predicted.into());
    }

    fn sync(&mut self, len: usize) {
        let pct = |v: f64| (v * 100.0).round() as i64;
        self.window_len.set(len as i64);
        self.accuracy.set(pct(self.matrix.accuracy()));
        for c in 0..self.kind.n_classes() {
            self.recall[c].set(pct(self.matrix.recall(c)));
            self.precision[c].set(pct(self.matrix.precision(c)));
        }
    }
}

/// Consumer side: drains the sink ring into per-model rolling windows
/// and publishes accuracy/recall/precision gauges.
pub struct QualityHub {
    windows: ModelWindows<Confusion>,
}

impl QualityHub {
    /// Builds the sink/hub pair, registering every gauge and counter on
    /// `registry` up front (so the families exist — and lint — before the
    /// first sample arrives).
    pub fn new(config: QualityConfig, registry: &Registry) -> (QualitySink, QualityHub) {
        let (sink, windows) = ModelWindows::new(
            config.ring_capacity,
            [
                (
                    "cgc_quality_samples_total",
                    "Labeled (predicted, truth) pairs accepted by the quality sink",
                ),
                (
                    "cgc_quality_shed_total",
                    "Labeled pairs dropped because the quality ring was full",
                ),
            ],
            config.profile,
            registry,
            |kind, gauges| (config.window, Confusion::new(kind, gauges)),
        );
        (sink, QualityHub { windows })
    }

    /// Drains every queued sample into the rolling windows and publishes
    /// the windowed scores; returns how many samples were consumed.
    pub fn drain_and_sync(&mut self) -> usize {
        self.windows.drain_and_sync()
    }

    /// Windowed accuracy of one model (0 when its window is empty).
    pub fn accuracy(&self, kind: ModelKind) -> f64 {
        self.windows.get(kind).state.matrix.accuracy()
    }

    /// Samples shed because the ring was full.
    pub fn shed(&self) -> u64 {
        self.windows.shed()
    }

    /// The current windowed scores as a serializable report (the
    /// `/quality` body and the `quality_table` input).
    pub fn report(&self) -> QualityReport {
        QualityReport {
            shed: self.shed(),
            models: self
                .windows
                .models
                .iter()
                .map(|w| {
                    let (kind, m) = (w.kind, &w.state.matrix);
                    let classes = (0..kind.n_classes())
                        .map(|c| ClassQuality {
                            class: kind.class_name(c),
                            support: (0..kind.n_classes()).map(|p| m.get(c, p)).sum(),
                            precision: m.precision(c),
                            recall: m.recall(c),
                        })
                        .collect();
                    ModelQuality {
                        model: kind.name().into(),
                        samples: w.values.len(),
                        accuracy: m.accuracy(),
                        macro_recall: m.macro_recall(),
                        classes,
                    }
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for QualityHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QualityHub").finish_non_exhaustive()
    }
}

/// Per-class windowed scores inside a [`ModelQuality`].
#[derive(Debug, Clone, Serialize)]
pub struct ClassQuality {
    /// Stable class label.
    pub class: String,
    /// Truth-side samples of this class in the window.
    pub support: usize,
    /// Windowed precision, 0..=1.
    pub precision: f64,
    /// Windowed recall, 0..=1.
    pub recall: f64,
}

/// One model's windowed quality scores.
#[derive(Debug, Clone, Serialize)]
pub struct ModelQuality {
    /// Stable model label.
    pub model: String,
    /// Samples in the rolling window.
    pub samples: usize,
    /// Windowed accuracy, 0..=1.
    pub accuracy: f64,
    /// Windowed macro recall (classes with samples only), 0..=1.
    pub macro_recall: f64,
    /// Per-class detail.
    pub classes: Vec<ClassQuality>,
}

/// The `/quality` payload: every model's windowed scores plus the shed
/// count (a nonzero shed means the scores are built on a sampled stream).
#[derive(Debug, Clone, Serialize)]
pub struct QualityReport {
    /// Labeled pairs dropped at the ring.
    pub shed: u64,
    /// Per-model windowed scores.
    pub models: Vec<ModelQuality>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_scores_follow_the_stream() {
        let registry = Registry::new();
        let (sink, mut hub) = QualityHub::new(
            QualityConfig {
                window: 4,
                ..QualityConfig::default()
            },
            &registry,
        );
        // Four correct stage calls: accuracy 100.
        for _ in 0..4 {
            sink.emit(ModelKind::Stage, 1, 1);
        }
        hub.drain_and_sync();
        assert_eq!(hub.accuracy(ModelKind::Stage), 1.0);
        let snap = registry.snapshot();
        assert_eq!(
            snap.get_with("cgc_quality_accuracy_pct", &[("model", "stage")])
                .map(|m| m.value.clone())
                .and_then(|v| match v {
                    crate::snapshot::MetricValue::Gauge(g) => Some(g),
                    _ => None,
                }),
            Some(100)
        );
        // Four wrong calls push the correct ones out of the window.
        for _ in 0..4 {
            sink.emit(ModelKind::Stage, 1, 2);
        }
        hub.drain_and_sync();
        assert_eq!(hub.accuracy(ModelKind::Stage), 0.0);
        assert_eq!(hub.windows.get(ModelKind::Stage).values.len(), 4);
        // Other models' windows were untouched.
        assert_eq!(hub.windows.get(ModelKind::Title).values.len(), 0);
        assert_eq!(
            registry.snapshot().counter("cgc_quality_samples_total"),
            Some(8)
        );
    }

    #[test]
    fn sink_counts_under_the_quality_families() {
        let registry = Registry::new();
        let (sink, mut hub) = QualityHub::new(
            QualityConfig {
                ring_capacity: 2,
                ..QualityConfig::default()
            },
            &registry,
        );
        for _ in 0..3 {
            sink.emit(ModelKind::Pattern, 0, 0);
        }
        assert_eq!(hub.shed(), 1);
        assert_eq!(hub.drain_and_sync(), 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("cgc_quality_samples_total"), Some(2));
        assert_eq!(snap.counter("cgc_quality_shed_total"), Some(1));
        assert_eq!(hub.report().shed, 1);
    }

    #[test]
    fn report_serializes_per_model_and_class() {
        let registry = Registry::new();
        let (sink, mut hub) = QualityHub::new(QualityConfig::default(), &registry);
        sink.emit(ModelKind::Title, title_class(None), title_class(None));
        sink.emit(
            ModelKind::Title,
            title_class(Some(GameTitle::Fortnite)),
            title_class(None),
        );
        hub.drain_and_sync();
        let json = serde_json::to_string(&hub.report()).unwrap();
        assert!(json.contains("\"model\":\"title\""), "{json}");
        assert!(json.contains("\"class\":\"unknown\""), "{json}");
        assert!(json.contains("\"accuracy\":0.5"), "{json}");
        assert!(json.contains("\"model\":\"stage\""), "{json}");
    }

    #[test]
    fn quality_body_is_byte_stable() {
        // The stage and pattern objects of the `/quality` body this input
        // produced before the report serializers were derived.
        let registry = Registry::new();
        let (sink, mut hub) = QualityHub::new(QualityConfig::default(), &registry);
        for i in 0..7u16 {
            sink.emit(ModelKind::Stage, i % 4, (i * 3) % 4);
            sink.emit(ModelKind::Pattern, i % 2, 0);
        }
        hub.drain_and_sync();
        let golden = concat!(
            r#"{"model":"stage","samples":7,"accuracy":0.5714285714285714,"macro_recall":0.5,"classes":"#,
            r#"[{"class":"launch","support":2,"precision":1.0,"recall":1.0},{"class":"idle","support":2"#,
            r#","precision":0.0,"recall":0.0},{"class":"passive","support":2,"precision":1.0,"recall":1"#,
            r#".0},{"class":"active","support":1,"precision":0.0,"recall":0.0}]},{"model":"pattern","sa"#,
            r#"mples":7,"accuracy":0.5714285714285714,"macro_recall":0.5,"classes":[{"class":"spectate_"#,
            r#"and_play","support":4,"precision":0.5714285714285714,"recall":1.0},{"class":"continuous_"#,
            r#"play","support":3,"precision":0.0,"recall":0.0}]}]}"#,
        );
        let body = serde_json::to_string(&hub.report()).unwrap();
        assert!(body.starts_with(r#"{"shed":0,"models":[{"model":"title","samples":0,"#));
        assert!(body.ends_with(golden), "{body}");
    }

    #[test]
    fn slug_normalizes_names() {
        assert_eq!(slug("Baldur's Gate 3"), "baldur_s_gate_3");
        assert_eq!(slug("CS:GO"), "cs_go");
        assert_eq!(slug("Spectate-and-play"), "spectate_and_play");
        assert_eq!(slug("Fortnite"), "fortnite");
    }

    #[test]
    fn class_id_maps_are_total_and_stable() {
        assert_eq!(title_class(None) as usize, GameTitle::ALL.len());
        for t in GameTitle::ALL {
            assert_eq!(title_class(Some(t)) as usize, t.index());
        }
        for s in Stage::ALL {
            assert!((stage_class(s) as usize) < ModelKind::Stage.n_classes());
        }
        for p in ActivityPattern::ALL {
            assert!((pattern_class(p) as usize) < ModelKind::Pattern.n_classes());
        }
        // Hubs index their per-model state by discriminant.
        for (i, kind) in ModelKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i);
        }
        // Class names are lint-clean label values.
        for kind in ModelKind::ALL {
            for c in 0..kind.n_classes() {
                let name = kind.class_name(c);
                assert!(
                    name.chars()
                        .all(|ch| ch.is_ascii_lowercase() || ch.is_ascii_digit() || ch == '_'),
                    "{kind}: {name}"
                );
            }
        }
    }

    #[test]
    fn profile_label_is_applied_when_configured() {
        // The label is the shared per-model core's, so this also holds
        // every drift family to it.
        let registry = Registry::new();
        let (sink, mut hub) = QualityHub::new(
            QualityConfig {
                profile: Some("lossy-wifi"),
                window: 8,
                ..QualityConfig::default()
            },
            &registry,
        );
        sink.emit(ModelKind::Stage, 1, 1);
        hub.drain_and_sync();
        let snap = registry.snapshot();
        assert!(snap
            .get_with(
                "cgc_quality_accuracy_pct",
                &[("model", "stage"), ("profile", "lossy-wifi")]
            )
            .is_some());
        // No unlabeled twin series: the whole family carries the label.
        assert!(snap
            .get_with("cgc_quality_accuracy_pct", &[("model", "stage")])
            .is_none());
        for family in ["cgc_quality_samples_total", "cgc_quality_shed_total"] {
            assert!(snap
                .get_with(family, &[("profile", "lossy-wifi")])
                .is_some());
        }
        // An extra label sits beside it (snapshot labels sort by key).
        assert!(snap
            .get_with(
                "cgc_quality_recall_pct",
                &[
                    ("class", "idle"),
                    ("model", "stage"),
                    ("profile", "lossy-wifi")
                ]
            )
            .is_some());
    }
}
