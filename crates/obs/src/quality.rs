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
//! (title / stage / pattern), maintains an incremental
//! [`ConfusionMatrix`] per window (record on entry, forget on exit), and
//! publishes the derived scores as gauges:
//!
//! - `cgc_quality_accuracy_pct{model=}` — windowed accuracy, percent
//! - `cgc_quality_recall_pct{model=,class=}` / `cgc_quality_precision_pct{model=,class=}`
//! - `cgc_quality_window_len{model=}` — samples currently in the window
//!
//! The `/quality` route of [`serve::TelemetryServer`](crate::serve) and
//! the `quality_error_ratio` SLO objective read these.

use std::collections::VecDeque;
use std::sync::Arc;

use cgc_domain::{ActivityPattern, GameTitle, Stage};
use mlcore::metrics::ConfusionMatrix;
use serde::Serialize;

use crate::channel::{Channel, Sink};
use crate::metric::Gauge;
use crate::registry::Registry;

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

/// One labeled prediction: which model, what the truth join said, what
/// the classifier said. Compact so a ring slot stays a few bytes.
#[derive(Debug, Clone, Copy)]
pub struct QualitySample {
    /// Which classifier produced the prediction.
    pub model: ModelKind,
    /// Ground-truth class id.
    pub truth: u16,
    /// Predicted class id.
    pub predicted: u16,
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
/// [`QualitySample`]s. Cheap to clone, one branch per call when disabled;
/// a full ring sheds the sample and counts it (`cgc_quality_shed_total`)
/// instead of blocking.
pub type QualitySink = Sink<QualitySample>;

impl Sink<QualitySample> {
    /// Feeds one (truth, predicted) pair for `model` into the ring.
    #[inline]
    pub fn emit(&self, model: ModelKind, truth: u16, predicted: u16) {
        self.push(QualitySample {
            model,
            truth,
            predicted,
        });
    }
}

/// Rolling confusion-matrix state and gauges of one model.
struct ModelState {
    kind: ModelKind,
    window: VecDeque<(u16, u16)>,
    matrix: ConfusionMatrix,
    accuracy: Arc<Gauge>,
    window_len: Arc<Gauge>,
    recall: Vec<Arc<Gauge>>,
    precision: Vec<Arc<Gauge>>,
}

impl ModelState {
    fn new(kind: ModelKind, registry: &Registry, profile: Option<&'static str>) -> ModelState {
        let model = kind.name();
        let n = kind.n_classes();
        // With a profile configured, every family carries the extra label.
        let gauge = |family: &str, help: &str, class: Option<&str>| {
            let mut labels = vec![("model", model)];
            labels.extend(class.map(|c| ("class", c)));
            labels.extend(profile.map(|p| ("profile", p)));
            registry.gauge_with(family, help, &labels)
        };
        let per_class = |family: &str, help: &str| -> Vec<Arc<Gauge>> {
            (0..n)
                .map(|c| gauge(family, help, Some(&kind.class_name(c))))
                .collect()
        };
        ModelState {
            kind,
            window: VecDeque::new(),
            matrix: ConfusionMatrix::new(n),
            accuracy: gauge(
                "cgc_quality_accuracy_pct",
                "Rolling-window accuracy where ground truth is available, percent",
                None,
            ),
            window_len: gauge(
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

    fn push(&mut self, truth: u16, predicted: u16, window: usize) {
        let n = self.kind.n_classes() as u16;
        if truth >= n || predicted >= n {
            return; // malformed sample: ignore rather than panic the drainer
        }
        self.window.push_back((truth, predicted));
        self.matrix.record(truth as usize, predicted as usize);
        while self.window.len() > window.max(1) {
            let (t, p) = self.window.pop_front().expect("non-empty window");
            self.matrix.forget(t as usize, p as usize);
        }
    }

    fn sync(&self) {
        let pct = |v: f64| (v * 100.0).round() as i64;
        self.window_len.set(self.window.len() as i64);
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
    channel: Arc<Channel<QualitySample>>,
    config: QualityConfig,
    models: Vec<ModelState>,
}

impl QualityHub {
    /// Builds the sink/hub pair, registering every gauge and counter on
    /// `registry` up front (so the families exist — and lint — before the
    /// first sample arrives).
    pub fn new(config: QualityConfig, registry: &Registry) -> (QualitySink, QualityHub) {
        let channel = Channel::new(
            config.ring_capacity,
            registry,
            (
                "cgc_quality_samples_total",
                "Labeled (predicted, truth) pairs accepted by the quality sink",
            ),
            (
                "cgc_quality_shed_total",
                "Labeled pairs dropped because the quality ring was full",
            ),
            config.profile,
        );
        let models = ModelKind::ALL
            .iter()
            .map(|&kind| ModelState::new(kind, registry, config.profile))
            .collect();
        let hub = QualityHub {
            channel,
            config,
            models,
        };
        (hub.sink(), hub)
    }

    /// Another producer handle for this hub's ring.
    pub fn sink(&self) -> QualitySink {
        self.channel.sink()
    }

    /// Drains every queued sample into the rolling windows; returns how
    /// many samples were consumed.
    pub fn drain(&mut self) -> usize {
        let QualityHub {
            channel,
            config,
            models,
        } = self;
        channel.drain(|s| models[s.model as usize].push(s.truth, s.predicted, config.window))
    }

    /// Publishes the current windowed scores to the registered gauges.
    pub fn sync_gauges(&self) {
        for m in &self.models {
            m.sync();
        }
    }

    /// [`drain`](Self::drain) + [`sync_gauges`](Self::sync_gauges): what
    /// every scrape-shaped consumer wants.
    pub fn drain_and_sync(&mut self) -> usize {
        let n = self.drain();
        self.sync_gauges();
        n
    }

    /// Windowed accuracy of one model (0 when its window is empty).
    pub fn accuracy(&self, kind: ModelKind) -> f64 {
        self.models[kind as usize].matrix.accuracy()
    }

    /// Samples currently in one model's window.
    pub fn window_len(&self, kind: ModelKind) -> usize {
        self.models[kind as usize].window.len()
    }

    /// Samples shed because the ring was full.
    pub fn shed(&self) -> u64 {
        self.channel.dropped()
    }

    /// The current windowed scores as a serializable report (the
    /// `/quality` body and the `quality_table` input).
    pub fn report(&self) -> QualityReport {
        QualityReport {
            shed: self.shed(),
            models: self
                .models
                .iter()
                .map(|m| {
                    let classes = (0..m.kind.n_classes())
                        .map(|c| {
                            let support = (0..m.kind.n_classes())
                                .map(|p| m.matrix.get(c, p))
                                .sum::<usize>();
                            ClassQuality {
                                class: m.kind.class_name(c),
                                support,
                                precision: m.matrix.precision(c),
                                recall: m.matrix.recall(c),
                            }
                        })
                        .collect();
                    ModelQuality {
                        model: m.kind.name().into(),
                        samples: m.window.len(),
                        accuracy: m.matrix.accuracy(),
                        macro_recall: m.matrix.macro_recall(),
                        classes,
                    }
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for QualityHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QualityHub")
            .field("window", &self.config.window)
            .finish()
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
        assert_eq!(hub.window_len(ModelKind::Stage), 4);
        // Other models' windows were untouched.
        assert_eq!(hub.window_len(ModelKind::Title), 0);
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
    }
}
