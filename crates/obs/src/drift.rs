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
//! rolling window ([`DriftConfig::window`]). Each sync compares the two
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
//! shift, and ≥ 0.25 ([`DriftConfig::alarm_threshold`]) demands action —
//! the `drift_score` SLO objective burns against exactly that ceiling.
//!
//! Observations arrive through a lock-free [`DriftSink`] — one
//! [`channel`](crate::channel) producer handle, with the same
//! counted-never-silent shedding as the journal and quality rings; the
//! pipeline emits them zero-allocation, one branch when disabled.

use std::collections::VecDeque;
use std::sync::Arc;

use serde::Serialize;

use crate::channel::{Channel, Sink};
use crate::metric::Gauge;
use crate::quality::ModelKind;
use crate::registry::Registry;

/// One score observation: which model inferred, how confident it was,
/// and by how much the top class beat the runner-up.
#[derive(Debug, Clone, Copy)]
pub struct DriftObservation {
    /// Which classifier produced the scores.
    pub model: ModelKind,
    /// Top-1 confidence, 0..=1.
    pub confidence: f32,
    /// Top-1 minus top-2 probability, 0..=1.
    pub margin: f32,
}

/// Sizing and thresholds of the drift detector.
#[derive(Debug, Clone, Copy)]
pub struct DriftConfig {
    /// Sink ring capacity (observations), rounded up to a power of two.
    pub ring_capacity: usize,
    /// Histogram bins over the [0, 1] score range.
    pub bins: usize,
    /// Observations per model accumulated before the reference freezes
    /// (the warmup; scores stay 0 until frozen).
    pub reference_size: usize,
    /// Rolling current-window size per model, in observations.
    pub window: usize,
    /// Minimum current-window fill before scores are computed (avoids
    /// alarming on a handful of samples).
    pub min_window: usize,
    /// Confidence below this counts as an unknown-title novelty event
    /// (matches the title classifier's unknown-gating threshold).
    pub novelty_threshold: f64,
    /// Drift score at or past this raises the model's alarm (PSI units;
    /// 0.25 is the conventional "major shift" boundary).
    pub alarm_threshold: f64,
    /// Window multiplier for the per-slot stage signal. Stage scores
    /// once per pipeline slot while title and pattern score about once
    /// per session, so at equal observation counts a stage window spans
    /// a sliver of wall-clock (often less than one session) and its
    /// score mix is dominated by whichever handful of sessions happen to
    /// fall in it — a spurious "drift" under any stationary workload.
    /// Multiplying the stage reference/window/min-window keeps the
    /// *time* span of the comparison comparable across models.
    pub stage_scale: usize,
    /// Optional impairment-profile label added to every drift family
    /// (`profile=`). `None` (the default) keeps the legacy label set; as
    /// with quality, a process must pick one convention per registry.
    pub profile: Option<&'static str>,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            ring_capacity: 1 << 15,
            bins: 10,
            reference_size: 512,
            window: 256,
            min_window: 32,
            novelty_threshold: 0.65,
            alarm_threshold: 0.25,
            stage_scale: 16,
            profile: None,
        }
    }
}

impl DriftConfig {
    /// Effective (reference, window, min-window) sizing for `kind`, with
    /// the per-slot stage multiplier applied.
    fn sizing(&self, kind: ModelKind) -> (usize, usize, usize) {
        let scale = match kind {
            ModelKind::Stage => self.stage_scale.max(1),
            _ => 1,
        };
        (
            self.reference_size.saturating_mul(scale),
            self.window.saturating_mul(scale),
            self.min_window.saturating_mul(scale),
        )
    }
}

/// Lock-free producer handle for score observations: a [`Sink`] of
/// [`DriftObservation`]s. Cheap to clone, one branch per call when
/// disabled; a full ring sheds the observation and counts it
/// (`cgc_drift_shed_total`) instead of blocking.
pub type DriftSink = Sink<DriftObservation>;

impl Sink<DriftObservation> {
    /// Feeds one (confidence, margin) score pair for `model`.
    #[inline]
    pub fn observe(&self, model: ModelKind, confidence: f64, margin: f64) {
        self.push(DriftObservation {
            model,
            confidence: confidence as f32,
            margin: margin as f32,
        });
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
pub struct SignalScores {
    /// Population Stability Index, reference vs current.
    pub psi: f64,
    /// Max CDF distance, reference vs current.
    pub ks: f64,
}

/// Reference + current windows and derived scores of one model.
struct ModelDrift {
    kind: ModelKind,
    ref_conf: Vec<u64>,
    ref_margin: Vec<u64>,
    ref_total: u64,
    ref_low_conf: u64,
    frozen: bool,
    current: VecDeque<(f32, f32)>,
    cur_conf: Vec<u64>,
    cur_margin: Vec<u64>,
    cur_low_conf: u64,
    // Derived on sync:
    confidence: SignalScores,
    margin: SignalScores,
    novelty: f64,
    score: f64,
    // Gauges:
    g_psi_conf: Arc<Gauge>,
    g_psi_margin: Arc<Gauge>,
    g_ks_conf: Arc<Gauge>,
    g_ks_margin: Arc<Gauge>,
    g_novelty: Arc<Gauge>,
    g_score: Arc<Gauge>,
    g_window_len: Arc<Gauge>,
    g_frozen: Arc<Gauge>,
}

impl ModelDrift {
    fn new(
        kind: ModelKind,
        bins: usize,
        registry: &Registry,
        profile: Option<&'static str>,
    ) -> ModelDrift {
        let model = kind.name();
        let gauge = |family: &str, help: &str, signal: Option<&str>| {
            let mut labels = vec![("model", model)];
            labels.extend(signal.map(|s| ("signal", s)));
            labels.extend(profile.map(|p| ("profile", p)));
            registry.gauge_with(family, help, &labels)
        };
        let signal = |family: &str, help: &str, s: &str| gauge(family, help, Some(s));
        let plain = |family: &str, help: &str| gauge(family, help, None);
        ModelDrift {
            kind,
            ref_conf: vec![0; bins],
            ref_margin: vec![0; bins],
            ref_total: 0,
            ref_low_conf: 0,
            frozen: false,
            current: VecDeque::new(),
            cur_conf: vec![0; bins],
            cur_margin: vec![0; bins],
            cur_low_conf: 0,
            confidence: SignalScores::default(),
            margin: SignalScores::default(),
            novelty: 0.0,
            score: 0.0,
            g_psi_conf: signal(
                "cgc_drift_psi_milli",
                "Population Stability Index vs frozen reference, x1000",
                "confidence",
            ),
            g_psi_margin: signal(
                "cgc_drift_psi_milli",
                "Population Stability Index vs frozen reference, x1000",
                "margin",
            ),
            g_ks_conf: signal(
                "cgc_drift_ks_milli",
                "Max CDF distance vs frozen reference, x1000",
                "confidence",
            ),
            g_ks_margin: signal(
                "cgc_drift_ks_milli",
                "Max CDF distance vs frozen reference, x1000",
                "margin",
            ),
            g_novelty: plain(
                "cgc_drift_novelty_milli",
                "Low-confidence (novel-title) fraction of the current window, x1000",
            ),
            g_score: plain(
                "cgc_drift_score_milli",
                "Worst drift statistic of the model (PSI units x1000)",
            ),
            g_window_len: plain(
                "cgc_drift_window_len",
                "Observations currently in the drift window",
            ),
            g_frozen: plain(
                "cgc_drift_reference_frozen",
                "1 once the model's reference distribution is frozen",
            ),
        }
    }

    fn bin(&self, v: f32) -> usize {
        let bins = self.ref_conf.len();
        ((v.clamp(0.0, 1.0) as f64 * bins as f64) as usize).min(bins - 1)
    }

    fn push(&mut self, conf: f32, margin: f32, config: &DriftConfig) {
        let (reference_size, window, _) = config.sizing(self.kind);
        let low = (conf as f64) < config.novelty_threshold;
        if !self.frozen {
            let (bc, bm) = (self.bin(conf), self.bin(margin));
            self.ref_conf[bc] += 1;
            self.ref_margin[bm] += 1;
            self.ref_total += 1;
            if low {
                self.ref_low_conf += 1;
            }
            if self.ref_total >= reference_size as u64 {
                self.frozen = true;
            }
            return;
        }
        self.current.push_back((conf, margin));
        let (bc, bm) = (self.bin(conf), self.bin(margin));
        self.cur_conf[bc] += 1;
        self.cur_margin[bm] += 1;
        if low {
            self.cur_low_conf += 1;
        }
        while self.current.len() > window.max(1) {
            let (c, m) = self.current.pop_front().expect("non-empty window");
            let (bc, bm) = (self.bin(c), self.bin(m));
            self.cur_conf[bc] -= 1;
            self.cur_margin[bm] -= 1;
            if (c as f64) < config.novelty_threshold {
                self.cur_low_conf -= 1;
            }
        }
    }

    /// Recomputes scores and publishes gauges.
    fn sync(&mut self, config: &DriftConfig) {
        let (_, _, min_window) = config.sizing(self.kind);
        let scored = self.frozen && self.current.len() >= min_window.max(1);
        if scored {
            self.confidence = SignalScores {
                psi: psi(&self.ref_conf, &self.cur_conf),
                ks: ks(&self.ref_conf, &self.cur_conf),
            };
            self.margin = SignalScores {
                psi: psi(&self.ref_margin, &self.cur_margin),
                ks: ks(&self.ref_margin, &self.cur_margin),
            };
            self.novelty = self.cur_low_conf as f64 / self.current.len() as f64;
            let ref_novelty = if self.ref_total == 0 {
                0.0
            } else {
                self.ref_low_conf as f64 / self.ref_total as f64
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
        self.g_psi_conf.set(milli(self.confidence.psi));
        self.g_psi_margin.set(milli(self.margin.psi));
        self.g_ks_conf.set(milli(self.confidence.ks));
        self.g_ks_margin.set(milli(self.margin.ks));
        self.g_novelty.set(milli(self.novelty));
        self.g_score.set(milli(self.score));
        self.g_window_len.set(self.current.len() as i64);
        self.g_frozen.set(self.frozen as i64);
    }

    /// Drops the frozen reference and restarts warmup (deliberate model
    /// or catalog update: the new normal becomes the next reference).
    fn refresh(&mut self) {
        self.ref_conf.iter_mut().for_each(|b| *b = 0);
        self.ref_margin.iter_mut().for_each(|b| *b = 0);
        self.ref_total = 0;
        self.ref_low_conf = 0;
        self.frozen = false;
        self.cur_conf.iter_mut().for_each(|b| *b = 0);
        self.cur_margin.iter_mut().for_each(|b| *b = 0);
        self.cur_low_conf = 0;
        self.current.clear();
    }
}

/// Consumer side: drains the observation ring into per-model reference
/// and current windows, computes PSI/KS/novelty, publishes gauges.
pub struct DriftEngine {
    channel: Arc<Channel<DriftObservation>>,
    config: DriftConfig,
    models: Vec<ModelDrift>,
}

impl DriftEngine {
    /// Builds the sink/engine pair, registering every gauge/counter on
    /// `registry` up front.
    pub fn new(config: DriftConfig, registry: &Registry) -> (DriftSink, DriftEngine) {
        let channel = Channel::new(
            config.ring_capacity,
            registry,
            (
                "cgc_drift_observations_total",
                "Score observations accepted by the drift sink",
            ),
            (
                "cgc_drift_shed_total",
                "Score observations dropped because the drift ring was full",
            ),
            config.profile,
        );
        let models = ModelKind::ALL
            .iter()
            .map(|&kind| ModelDrift::new(kind, config.bins.max(2), registry, config.profile))
            .collect();
        let engine = DriftEngine {
            channel,
            config,
            models,
        };
        (engine.sink(), engine)
    }

    /// Another producer handle for this engine's ring.
    pub fn sink(&self) -> DriftSink {
        self.channel.sink()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &DriftConfig {
        &self.config
    }

    /// Drains queued observations into the windows; returns the count.
    pub fn drain(&mut self) -> usize {
        let DriftEngine {
            channel,
            config,
            models,
        } = self;
        channel.drain(|obs| models[obs.model as usize].push(obs.confidence, obs.margin, config))
    }

    /// Recomputes every model's scores and publishes the gauges.
    pub fn sync_gauges(&mut self) {
        let config = self.config;
        for m in &mut self.models {
            m.sync(&config);
        }
    }

    /// [`drain`](Self::drain) + [`sync_gauges`](Self::sync_gauges).
    pub fn drain_and_sync(&mut self) -> usize {
        let n = self.drain();
        self.sync_gauges();
        n
    }

    /// The current drift score of one model (0 during warmup).
    pub fn score(&self, kind: ModelKind) -> f64 {
        self.models[kind as usize].score
    }

    /// Whether one model's reference has frozen (warmup complete).
    pub fn reference_frozen(&self, kind: ModelKind) -> bool {
        self.models[kind as usize].frozen
    }

    /// Models whose score is at or past the alarm threshold.
    pub fn alarms(&self) -> Vec<ModelKind> {
        self.models
            .iter()
            .filter(|m| m.score >= self.config.alarm_threshold)
            .map(|m| m.kind)
            .collect()
    }

    /// Restarts warmup on every model: the next
    /// [`reference_size`](DriftConfig::reference_size) observations per
    /// model become the new reference (call after a deliberate retrain
    /// or catalog update).
    pub fn refresh_reference(&mut self) {
        for m in &mut self.models {
            m.refresh();
        }
        self.sync_gauges();
    }

    /// Observations shed because the ring was full.
    pub fn shed(&self) -> u64 {
        self.channel.dropped()
    }

    /// The current drift state as a serializable report (the `/drift`
    /// body).
    pub fn report(&self) -> DriftReport {
        DriftReport {
            alarm_threshold: self.config.alarm_threshold,
            shed: self.shed(),
            models: self
                .models
                .iter()
                .map(|m| ModelDriftReport {
                    model: m.kind.name().into(),
                    reference_frozen: m.frozen,
                    reference_size: m.ref_total,
                    window_len: m.current.len(),
                    psi_confidence: m.confidence.psi,
                    psi_margin: m.margin.psi,
                    ks_confidence: m.confidence.ks,
                    ks_margin: m.margin.ks,
                    novelty: m.novelty,
                    score: m.score,
                    alarm: m.score >= self.config.alarm_threshold,
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for DriftEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriftEngine")
            .field("reference_size", &self.config.reference_size)
            .field("window", &self.config.window)
            .finish()
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
            eng.score(ModelKind::Title) < eng.config().alarm_threshold,
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
            eng.score(ModelKind::Title) >= eng.config().alarm_threshold,
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
    fn sink_counts_under_the_drift_families() {
        let registry = Registry::new();
        let (sink, mut eng) = DriftEngine::new(
            DriftConfig {
                ring_capacity: 2,
                ..DriftConfig::default()
            },
            &registry,
        );
        for _ in 0..3 {
            sink.observe(ModelKind::Title, 0.5, 0.2);
        }
        assert_eq!(eng.shed(), 1);
        assert_eq!(eng.drain_and_sync(), 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("cgc_drift_observations_total"), Some(2));
        assert_eq!(snap.counter("cgc_drift_shed_total"), Some(1));
        assert_eq!(eng.report().shed, 1);
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

    #[test]
    fn profile_label_is_applied_when_configured() {
        let registry = Registry::new();
        let (sink, mut eng) = DriftEngine::new(
            DriftConfig {
                profile: Some("lte-handover"),
                reference_size: 8,
                window: 8,
                min_window: 4,
                ..DriftConfig::default()
            },
            &registry,
        );
        for _ in 0..16 {
            sink.observe(ModelKind::Title, 0.9, 0.5);
        }
        eng.drain_and_sync();
        let snap = registry.snapshot();
        assert!(snap
            .get_with(
                "cgc_drift_score_milli",
                &[("model", "title"), ("profile", "lte-handover")]
            )
            .is_some());
        assert!(snap
            .get_with("cgc_drift_score_milli", &[("model", "title")])
            .is_none());
        for family in ["cgc_drift_observations_total", "cgc_drift_shed_total"] {
            assert!(snap
                .get_with(family, &[("profile", "lte-handover")])
                .is_some());
        }
        assert!(snap
            .get_with(
                "cgc_drift_psi_milli",
                // Snapshot labels are stored sorted by key.
                &[
                    ("model", "title"),
                    ("profile", "lte-handover"),
                    ("signal", "confidence")
                ]
            )
            .is_some());
    }
}
