//! Label-free score-distribution drift detection.
//!
//! Ground truth is the exception, not the rule: an ISP tap never learns
//! what game a subscriber actually launched. What the pipeline *always*
//! has is the classifiers' own score distributions — per-inference
//! confidence and top-1 margin. Under a stationary workload those
//! distributions are stable; catalog churn (a new title ships) or an
//! access-network regime change (loss/latency ramp) shifts them long
//! before anyone re-labels a dataset.
//!
//! The [`DriftEngine`] holds, per model, a **reference** histogram of
//! confidence and margin scores frozen after a warmup
//! ([`DriftConfig::reference_size`] observations) and a **current**
//! rolling window ([`DriftConfig::window`]) — the per-model core it shares
//! with the [`QualityHub`](crate::QualityHub). Each sync compares the two
//! with the Population Stability Index and a Kolmogorov–Smirnov-style
//! max-CDF-distance statistic, plus an unknown-title novelty signal (the
//! fraction of launch windows scored below the unknown-gating threshold,
//! relative to the reference). The worst of PSI and novelty-excess per
//! model is its drift score:
//!
//! - `cgc_drift_psi_milli{model=,signal=}` / `cgc_drift_ks_milli{model=,signal=}`
//! - `cgc_drift_novelty_milli{model=}` — low-confidence launch fraction
//! - `cgc_drift_score_milli{model=}` — the alarmed scalar (PSI units ×1000)
//!
//! By the usual PSI reading, < 0.1 is stationary, 0.1–0.25 is a moderate
//! shift, and ≥ 0.25 ([`ALARM_THRESHOLD`]) demands action —
//! the `drift_score` SLO objective burns against exactly that ceiling.
//!
//! Observations arrive through a lock-free [`DriftSink`] — one
//! [`channel`](crate::channel) producer handle, with the same
//! counted-never-silent shedding as the journal and quality rings; the
//! pipeline emits them zero-allocation, one branch when disabled.

use std::sync::Arc;

use serde::Serialize;

use crate::channel::Sink;
use crate::metric::Gauge;
use crate::quality::ModelKind;
use crate::registry::Registry;
use crate::window::{Gauges, ModelWindows, Score};

/// Observation ring capacity (a power of two). Between two drains a full
/// ring sheds — counted in `cgc_drift_shed_total`.
const RING_CAPACITY: usize = 1 << 15;
/// Histogram bins over the [0, 1] score range.
const BINS: usize = 10;
/// Confidence below this counts as an unknown-title novelty event (the
/// title classifier's unknown-gating threshold).
const NOVELTY_THRESHOLD: f64 = 0.65;
/// Drift score at or past this raises the model's alarm (PSI units; 0.25
/// is the conventional "major shift" boundary).
pub const ALARM_THRESHOLD: f64 = 0.25;
/// Window multiplier for the per-slot stage signal. Stage scores once per
/// pipeline slot while title and pattern score about once per session, so
/// at equal observation counts a stage window spans a sliver of
/// wall-clock (often less than one session) and its score mix is
/// dominated by whichever handful of sessions happen to fall in it — a
/// spurious "drift" under any stationary workload. Multiplying the stage
/// reference/window/min-window keeps the *time* span of the comparison
/// comparable across models.
const STAGE_SCALE: usize = 16;

/// Sizing of the drift detector.
#[derive(Debug, Clone, Copy)]
pub struct DriftConfig {
    /// Observations per model accumulated before the reference freezes
    /// (the warmup; scores stay 0 until frozen).
    pub reference_size: usize,
    /// Rolling current-window size per model, in observations.
    pub window: usize,
    /// Minimum current-window fill before scores are computed (avoids
    /// alarming on a handful of samples).
    pub min_window: usize,
    /// Optional impairment-profile label added to every drift family
    /// (`profile=`). `None` (the default) keeps the legacy label set; a
    /// process must pick one convention per registry — mixing labeled and
    /// unlabeled engines on one registry would violate the
    /// one-label-set-per-family metrics contract.
    pub profile: Option<&'static str>,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            reference_size: 512,
            window: 256,
            min_window: 32,
            profile: None,
        }
    }
}

/// Lock-free producer handle for score observations: a [`Sink`] of
/// `(model, (confidence, margin))`. Cheap to clone, one branch per call
/// when disabled; a full ring sheds the observation and counts it
/// (`cgc_drift_shed_total`) instead of blocking.
pub type DriftSink = Sink<(ModelKind, (f32, f32))>;

impl DriftSink {
    /// Feeds one (confidence, margin) score pair for `model`.
    #[inline]
    pub fn observe(&self, model: ModelKind, confidence: f64, margin: f64) {
        self.push((model, (confidence as f32, margin as f32)));
    }
}

/// Population Stability Index between two binned distributions (0 when
/// either side is empty). Both sides get additive (Laplace) smoothing of
/// half a count per bin before the ratio: with the small windows the
/// engine compares (tens of samples over ten bins), a sparse bin that one
/// side happens to miss is sampling noise, and a raw epsilon floor would
/// let that single miss dominate the whole index. Smoothing keeps the
/// noise term proportional to `1/n` while a genuinely moved mode still
/// contributes its full `(q-p)·ln(q/p)` weight.
fn psi(reference: &[u64], current: &[u64]) -> f64 {
    let rt: u64 = reference.iter().sum();
    let ct: u64 = current.iter().sum();
    if rt == 0 || ct == 0 {
        return 0.0;
    }
    const SMOOTH: f64 = 0.5;
    let rn = rt as f64 + SMOOTH * reference.len() as f64;
    let cn = ct as f64 + SMOOTH * current.len() as f64;
    reference
        .iter()
        .zip(current)
        .map(|(&r, &c)| {
            let p = (r as f64 + SMOOTH) / rn;
            let q = (c as f64 + SMOOTH) / cn;
            (q - p) * (q / p).ln()
        })
        .sum()
}

/// KS-style statistic: the maximum distance between the two binned CDFs
/// (0 when either side is empty).
fn ks(reference: &[u64], current: &[u64]) -> f64 {
    let rt: u64 = reference.iter().sum();
    let ct: u64 = current.iter().sum();
    if rt == 0 || ct == 0 {
        return 0.0;
    }
    let (mut cr, mut cc, mut worst) = (0u64, 0u64, 0.0f64);
    for (&r, &c) in reference.iter().zip(current) {
        cr += r;
        cc += c;
        worst = worst.max((cr as f64 / rt as f64 - cc as f64 / ct as f64).abs());
    }
    worst
}

/// Per-signal windowed scores of one model.
#[derive(Debug, Clone, Copy, Default)]
struct SignalScores {
    /// Population Stability Index, reference vs current.
    psi: f64,
    /// Max CDF distance, reference vs current.
    ks: f64,
}

impl SignalScores {
    fn of(reference: &[u64], current: &[u64]) -> SignalScores {
        SignalScores {
            psi: psi(reference, current),
            ks: ks(reference, current),
        }
    }
}

/// `(family, help, signal)` of the per-model drift gauges, in the order
/// [`Drift::sync`] sets them.
const GAUGES: [(&str, &str, Option<&str>); 8] = [
    (
        "cgc_drift_psi_milli",
        "Population Stability Index vs frozen reference, x1000",
        Some("confidence"),
    ),
    (
        "cgc_drift_psi_milli",
        "Population Stability Index vs frozen reference, x1000",
        Some("margin"),
    ),
    (
        "cgc_drift_ks_milli",
        "Max CDF distance vs frozen reference, x1000",
        Some("confidence"),
    ),
    (
        "cgc_drift_ks_milli",
        "Max CDF distance vs frozen reference, x1000",
        Some("margin"),
    ),
    (
        "cgc_drift_novelty_milli",
        "Low-confidence (novel-title) fraction of the current window, x1000",
        None,
    ),
    (
        "cgc_drift_score_milli",
        "Worst drift statistic of the model (PSI units x1000)",
        None,
    ),
    (
        "cgc_drift_window_len",
        "Observations currently in the drift window",
        None,
    ),
    (
        "cgc_drift_reference_frozen",
        "1 once the model's reference distribution is frozen",
        None,
    ),
];

/// Confidence and margin histograms over a set of observations.
#[derive(Debug, Default)]
struct Histograms {
    confidence: [u64; BINS],
    margin: [u64; BINS],
    total: u64,
    /// Observations below [`NOVELTY_THRESHOLD`] confidence.
    low_confidence: u64,
}

impl Histograms {
    /// Adds one observation, or with `add` false removes one.
    fn count(&mut self, (confidence, margin): (f32, f32), add: bool) {
        let bin = |v: f32| ((v.clamp(0.0, 1.0) as f64 * BINS as f64) as usize).min(BINS - 1);
        let step = |n: &mut u64| if add { *n += 1 } else { *n -= 1 };
        step(&mut self.confidence[bin(confidence)]);
        step(&mut self.margin[bin(margin)]);
        step(&mut self.total);
        if f64::from(confidence) < NOVELTY_THRESHOLD {
            step(&mut self.low_confidence);
        }
    }
}

/// Reference and current histograms of one model, and the scores derived
/// from them on sync.
struct Drift {
    reference_size: u64,
    min_window: usize,
    reference: Histograms,
    frozen: bool,
    current: Histograms,
    confidence: SignalScores,
    margin: SignalScores,
    novelty: f64,
    score: f64,
    gauges: Vec<Arc<Gauge>>,
}

impl Drift {
    fn new(reference_size: usize, min_window: usize, gauges: &Gauges<'_>) -> Drift {
        Drift {
            reference_size: reference_size as u64,
            min_window: min_window.max(1),
            reference: Histograms::default(),
            frozen: false,
            current: Histograms::default(),
            confidence: SignalScores::default(),
            margin: SignalScores::default(),
            novelty: 0.0,
            score: 0.0,
            gauges: GAUGES
                .iter()
                .map(|&(family, help, signal)| {
                    gauges.gauge(family, help, signal.map(|s| ("signal", s)))
                })
                .collect(),
        }
    }
}

impl Score for Drift {
    type Value = (f32, f32);

    /// Warmup observations build the reference and stay out of the window.
    fn enter(&mut self, observation: (f32, f32)) -> bool {
        if self.frozen {
            self.current.count(observation, true);
            return true;
        }
        self.reference.count(observation, true);
        self.frozen = self.reference.total >= self.reference_size;
        false
    }

    fn leave(&mut self, observation: (f32, f32)) {
        self.current.count(observation, false);
    }

    fn sync(&mut self, len: usize) {
        if self.frozen && len >= self.min_window {
            let (r, c) = (&self.reference, &self.current);
            self.confidence = SignalScores::of(&r.confidence, &c.confidence);
            self.margin = SignalScores::of(&r.margin, &c.margin);
            self.novelty = c.low_confidence as f64 / len as f64;
            let ref_novelty = if r.total == 0 {
                0.0
            } else {
                r.low_confidence as f64 / r.total as f64
            };
            let novelty_excess = (self.novelty - ref_novelty).max(0.0);
            self.score = self.confidence.psi.max(self.margin.psi).max(novelty_excess);
        } else {
            self.confidence = SignalScores::default();
            self.margin = SignalScores::default();
            self.novelty = 0.0;
            self.score = 0.0;
        }
        let milli = |v: f64| (v * 1000.0).round() as i64;
        let values = [
            milli(self.confidence.psi),
            milli(self.margin.psi),
            milli(self.confidence.ks),
            milli(self.margin.ks),
            milli(self.novelty),
            milli(self.score),
            len as i64,
            self.frozen as i64,
        ];
        for (gauge, value) in self.gauges.iter().zip(values) {
            gauge.set(value);
        }
    }
}

/// Consumer side: drains the observation ring into per-model reference
/// and current windows, computes PSI/KS/novelty, publishes gauges.
pub struct DriftEngine {
    windows: ModelWindows<Drift>,
}

impl DriftEngine {
    /// Builds the sink/engine pair, registering every gauge/counter on
    /// `registry` up front.
    pub fn new(config: DriftConfig, registry: &Registry) -> (DriftSink, DriftEngine) {
        let (sink, windows) = ModelWindows::new(
            RING_CAPACITY,
            [
                (
                    "cgc_drift_observations_total",
                    "Score observations accepted by the drift sink",
                ),
                (
                    "cgc_drift_shed_total",
                    "Score observations dropped because the drift ring was full",
                ),
            ],
            config.profile,
            registry,
            |kind, gauges| {
                let scale = if kind == ModelKind::Stage {
                    STAGE_SCALE
                } else {
                    1
                };
                let sized = |n: usize| n.saturating_mul(scale);
                let drift = Drift::new(
                    sized(config.reference_size),
                    sized(config.min_window),
                    gauges,
                );
                (sized(config.window), drift)
            },
        );
        (sink, DriftEngine { windows })
    }

    /// Drains queued observations into the windows, recomputes every
    /// model's scores and publishes the gauges; returns the count.
    pub fn drain_and_sync(&mut self) -> usize {
        self.windows.drain_and_sync()
    }

    /// Restarts warmup on every model: the next
    /// [`reference_size`](DriftConfig::reference_size) observations per
    /// model become the new reference (call after a deliberate retrain
    /// or catalog update).
    pub fn refresh_reference(&mut self) {
        for w in &mut self.windows.models {
            w.values.clear();
            w.state.reference = Histograms::default();
            w.state.current = Histograms::default();
            w.state.frozen = false;
        }
        self.drain_and_sync();
    }

    /// Observations shed because the ring was full.
    pub fn shed(&self) -> u64 {
        self.windows.shed()
    }

    /// The current drift state as a serializable report (the `/drift`
    /// body).
    pub fn report(&self) -> DriftReport {
        DriftReport {
            alarm_threshold: ALARM_THRESHOLD,
            shed: self.shed(),
            models: self
                .windows
                .models
                .iter()
                .map(|w| {
                    let m = &w.state;
                    ModelDriftReport {
                        model: w.kind.name().into(),
                        reference_frozen: m.frozen,
                        reference_size: m.reference.total,
                        window_len: w.values.len(),
                        psi_confidence: m.confidence.psi,
                        psi_margin: m.margin.psi,
                        ks_confidence: m.confidence.ks,
                        ks_margin: m.margin.ks,
                        novelty: m.novelty,
                        score: m.score,
                        alarm: m.score >= ALARM_THRESHOLD,
                    }
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for DriftEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriftEngine").finish_non_exhaustive()
    }
}

/// One model's drift state inside a [`DriftReport`].
#[derive(Debug, Clone, Serialize)]
pub struct ModelDriftReport {
    /// Stable model label.
    pub model: String,
    /// Whether the reference distribution has frozen.
    pub reference_frozen: bool,
    /// Observations accumulated into the reference.
    pub reference_size: u64,
    /// Observations in the current window.
    pub window_len: usize,
    /// PSI of the confidence distribution.
    pub psi_confidence: f64,
    /// PSI of the margin distribution.
    pub psi_margin: f64,
    /// KS distance of the confidence distribution.
    pub ks_confidence: f64,
    /// KS distance of the margin distribution.
    pub ks_margin: f64,
    /// Low-confidence fraction of the current window.
    pub novelty: f64,
    /// Worst drift statistic (the alarmed scalar).
    pub score: f64,
    /// Whether the score is at or past the alarm threshold.
    pub alarm: bool,
}

/// The `/drift` payload: per-model drift state plus the shed count.
#[derive(Debug, Clone, Serialize)]
pub struct DriftReport {
    /// The configured alarm ceiling.
    pub alarm_threshold: f64,
    /// Observations dropped at the ring.
    pub shed: u64,
    /// Per-model drift state.
    pub models: Vec<ModelDriftReport>,
}

impl DriftReport {
    /// Names of the models currently alarming.
    pub fn alarms(&self) -> Vec<&str> {
        self.models
            .iter()
            .filter(|m| m.alarm)
            .map(|m| m.model.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DriftEngine {
        fn score(&self, kind: ModelKind) -> f64 {
            self.windows.get(kind).state.score
        }

        fn reference_frozen(&self, kind: ModelKind) -> bool {
            self.windows.get(kind).state.frozen
        }

        fn alarms(&self) -> Vec<ModelKind> {
            let alarming = |&kind: &ModelKind| self.score(kind) >= ALARM_THRESHOLD;
            ModelKind::ALL.into_iter().filter(alarming).collect()
        }
    }

    fn engine(reference: usize, window: usize) -> (DriftSink, DriftEngine, Registry) {
        let registry = Registry::new();
        let (sink, eng) = DriftEngine::new(
            DriftConfig {
                reference_size: reference,
                window,
                min_window: 8,
                ..DriftConfig::default()
            },
            &registry,
        );
        (sink, eng, registry)
    }

    /// Deterministic pseudo-scores around a center without rand: a tiny
    /// LCG folded into ±0.05 jitter.
    fn scores(center: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut x = seed.max(1);
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let jitter = ((x >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 0.1;
                (center + jitter).clamp(0.0, 1.0)
            })
            .collect()
    }

    #[test]
    fn stationary_stream_stays_quiet() {
        let (sink, mut eng, _r) = engine(64, 32);
        for (i, c) in scores(0.9, 128, 7).iter().enumerate() {
            sink.observe(ModelKind::Title, *c, *c - 0.1 * (i % 2) as f64);
        }
        eng.drain_and_sync();
        assert!(eng.reference_frozen(ModelKind::Title));
        assert!(
            eng.score(ModelKind::Title) < ALARM_THRESHOLD,
            "stationary score {}",
            eng.score(ModelKind::Title)
        );
        assert!(eng.alarms().is_empty());
    }

    #[test]
    fn distribution_shift_trips_the_alarm_within_one_window() {
        let (sink, mut eng, registry) = engine(64, 32);
        // Warm reference + a stationary current window at high confidence.
        for c in scores(0.9, 96, 11) {
            sink.observe(ModelKind::Title, c, c * 0.8);
        }
        eng.drain_and_sync();
        assert!(eng.score(ModelKind::Title) < 0.25);
        // Catalog churn: confidences collapse. Within one window's worth
        // of observations the PSI must cross the alarm threshold.
        for c in scores(0.3, 32, 13) {
            sink.observe(ModelKind::Title, c, c * 0.5);
        }
        eng.drain_and_sync();
        assert!(
            eng.score(ModelKind::Title) >= ALARM_THRESHOLD,
            "shifted score {}",
            eng.score(ModelKind::Title)
        );
        assert_eq!(eng.alarms(), vec![ModelKind::Title]);
        // Other models never observed: no alarm, gauges stay zero.
        assert_eq!(eng.score(ModelKind::Stage), 0.0);
        let snap = registry.snapshot();
        let score = snap
            .get_with("cgc_drift_score_milli", &[("model", "title")])
            .map(|m| m.value.clone());
        assert!(
            matches!(score, Some(crate::snapshot::MetricValue::Gauge(v)) if v >= 250),
            "{score:?}"
        );
        // Novelty: the shifted window sits below the unknown threshold.
        let report = eng.report();
        let title = &report.models[0];
        assert!(title.novelty > 0.9, "{title:?}");
        assert!(title.alarm);
        assert_eq!(report.alarms(), vec!["title"]);
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"alarm\":true"), "{json}");
    }

    #[test]
    fn warmup_never_alarms() {
        let (sink, mut eng, _r) = engine(1_000, 32);
        // Wild swings, but the reference has not frozen yet.
        for c in scores(0.9, 100, 3).into_iter().chain(scores(0.1, 100, 5)) {
            sink.observe(ModelKind::Stage, c, c);
        }
        eng.drain_and_sync();
        assert!(!eng.reference_frozen(ModelKind::Stage));
        assert_eq!(eng.score(ModelKind::Stage), 0.0);
        assert!(eng.alarms().is_empty());
    }

    #[test]
    fn refresh_restarts_warmup_and_clears_the_alarm() {
        let (sink, mut eng, _r) = engine(32, 16);
        for c in scores(0.9, 48, 17) {
            sink.observe(ModelKind::Pattern, c, c);
        }
        for c in scores(0.2, 16, 19) {
            sink.observe(ModelKind::Pattern, c, c);
        }
        eng.drain_and_sync();
        assert!(eng.score(ModelKind::Pattern) >= 0.25);
        eng.refresh_reference();
        assert!(!eng.reference_frozen(ModelKind::Pattern));
        assert_eq!(eng.score(ModelKind::Pattern), 0.0);
        // The new normal (low scores) freezes as the new reference and
        // stays quiet.
        for c in scores(0.2, 64, 23) {
            sink.observe(ModelKind::Pattern, c, c);
        }
        eng.drain_and_sync();
        assert!(eng.reference_frozen(ModelKind::Pattern));
        assert!(eng.score(ModelKind::Pattern) < 0.25);
    }

    #[test]
    fn drift_body_is_byte_stable() {
        // The `/drift` body this input produced before the report types
        // were renamed and their serializers derived.
        let (sink, mut eng, _r) = engine(16, 8);
        for (i, c) in scores(0.8, 40, 5).into_iter().enumerate() {
            sink.observe(ModelKind::Title, c, c * 0.5);
            sink.observe(ModelKind::Stage, 1.0 - c, (i % 4) as f64 / 4.0);
        }
        eng.drain_and_sync();
        let golden = concat!(
            r#"{"alarm_threshold":0.25,"shed":0,"models":[{"model":"title","reference_frozen":true,"ref"#,
            r#"erence_size":16,"window_len":8,"psi_confidence":0.11200134154167755,"psi_margin":0.11200"#,
            r#"134154167757,"ks_confidence":0.125,"ks_margin":0.125,"novelty":0.0,"score":0.11200134154"#,
            r#"167757,"alarm":false},{"model":"stage","reference_frozen":false,"reference_size":40,"win"#,
            r#"dow_len":0,"psi_confidence":0.0,"psi_margin":0.0,"ks_confidence":0.0,"ks_margin":0.0,"no"#,
            r#"velty":0.0,"score":0.0,"alarm":false},{"model":"pattern","reference_frozen":false,"refer"#,
            r#"ence_size":0,"window_len":0,"psi_confidence":0.0,"psi_margin":0.0,"ks_confidence":0.0,"k"#,
            r#"s_margin":0.0,"novelty":0.0,"score":0.0,"alarm":false}]}"#,
        );
        assert_eq!(serde_json::to_string(&eng.report()).unwrap(), golden);
    }

    #[test]
    fn psi_and_ks_basics() {
        // Identical distributions: both statistics 0 (up to epsilon).
        let a = [10u64, 20, 30, 40];
        assert!(psi(&a, &a).abs() < 1e-9);
        assert!(ks(&a, &a).abs() < 1e-9);
        // Fully disjoint mass: both large.
        let lo = [100u64, 0, 0, 0];
        let hi = [0u64, 0, 0, 100];
        assert!(psi(&lo, &hi) > 1.0);
        assert!((ks(&lo, &hi) - 1.0).abs() < 1e-9);
        // Empty sides never divide by zero.
        assert_eq!(psi(&[0, 0], &[1, 2]), 0.0);
        assert_eq!(ks(&[1, 2], &[0, 0]), 0.0);
    }
}
