//! The real-time session analyzer (Fig. 6).
//!
//! [`SessionAnalyzer`] wires the pipeline together for one streaming
//! session:
//!
//! 1. the **title process** classifies the game from the first `N` seconds
//!    of downstream packets;
//! 2. the **stage process** seeds its peak trackers during the first slots
//!    (game launch), then classifies every `I`-second slot from the
//!    EMA-smoothed relative volumetrics and feeds the stage sequence to the
//!    pattern tracker, which emits a confident activity-pattern inference;
//! 3. per slot, objective and effective QoE labels are produced by
//!    combining measured QoS with the classified context.
//!
//! Both ingestion paths converge on the same slot loop: packets one at a
//! time (`push_packet`, what a tap feeds) and launch-packets-plus-
//! volumetrics (`analyze`, what deployment-scale runs use).

use std::sync::Arc;

use cgc_domain::{ActivityPattern, QoeLevel, Stage};
use cgc_obs::event::EventKind;
use cgc_obs::quality::ModelKind;
use cgc_obs::trace::{trace_id, TraceStage};
use nettrace::packet::Packet;
use nettrace::units::{secs_to_micros, Micros};
use nettrace::vol::{VolSample, VolSeries};
use serde::{Deserialize, Serialize};

use cgc_features::vol_attrs::{raw_features, StageFeatureExtractor};

use crate::bundle::ModelBundle;
use crate::metrics::{Obs, PipelineMetrics};
use crate::pattern::{PatternPrediction, PatternTracker};
use crate::qoe::{effective_qoe, majority_level, objective_qoe, GameContext, QosMetrics};
use crate::title::TitlePrediction;

/// Analyzer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalyzerConfig {
    /// Title classification window in seconds (`N = 5` deployed).
    pub title_window_secs: f64,
    /// Slots used to seed the volumetric peak trackers before stage
    /// classification starts (they fall inside the launch animation, which
    /// is never shorter than ~30 s).
    pub seed_slots: usize,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            title_window_secs: 5.0,
            seed_slots: 10,
        }
    }
}

/// Externally measured QoS context for QoE labeling: the gray-box module
/// of Fig. 6 (prior-work estimators, or ground truth in simulation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QoeInputs {
    /// Nominal (negotiated) streaming frame rate, fps.
    pub nominal_fps: f64,
    /// Measured network latency, ms.
    pub latency_ms: f64,
    /// Measured packet loss rate.
    pub loss_rate: f64,
    /// The session's settings bitrate factor relative to the SD/30 floor
    /// (from prior-work device/resolution detection); 1.0 when unknown.
    pub settings_factor: f64,
    /// Fraction of the negotiated frame rate actually delivered (1.0 on a
    /// healthy path; loss and congestion push it down).
    pub delivered_fps_ratio: f64,
}

impl Default for QoeInputs {
    fn default() -> Self {
        QoeInputs {
            nominal_fps: 60.0,
            latency_ms: 10.0,
            loss_rate: 0.0,
            settings_factor: 1.0,
            delivered_fps_ratio: 1.0,
        }
    }
}

/// Everything the pipeline produced for one session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionReport {
    /// Title classification result.
    pub title: TitlePrediction,
    /// Confident pattern decision, if one fired during the session.
    pub pattern: Option<PatternPrediction>,
    /// Best-effort pattern at session end (even if never confident).
    pub final_pattern: Option<(ActivityPattern, f64)>,
    /// Per-slot classified stages (slot 0 = session start; the seed window
    /// reads as launch).
    pub stage_slots: Vec<Stage>,
    /// Per-slot (objective, effective) QoE labels, aligned with
    /// `stage_slots`.
    pub qoe_slots: Vec<(QoeLevel, QoeLevel)>,
    /// Slot width, microseconds.
    pub slot_width: Micros,
    /// Session-level mean downstream throughput, Mbps.
    pub mean_down_mbps: f64,
    /// Majority objective QoE over gameplay slots.
    pub objective_qoe: QoeLevel,
    /// Majority effective QoE over gameplay slots.
    pub effective_qoe: QoeLevel,
}

impl SessionReport {
    /// Seconds of gameplay the pipeline attributed to `stage`.
    pub fn stage_seconds(&self, stage: Stage) -> f64 {
        let slots = self.stage_slots.iter().filter(|s| **s == stage).count();
        slots as f64 * self.slot_width as f64 / 1e6
    }
}

/// The per-slot latency histograms (`cgc_pipeline_feature_ns`,
/// `cgc_pipeline_stage_infer_ns`) time one of every this many classified
/// slots.
pub const LATENCY_SAMPLE: u64 = 8;

/// Per-session pipeline state.
pub struct SessionAnalyzer<'b> {
    bundle: &'b ModelBundle,
    config: AnalyzerConfig,
    title: Option<TitlePrediction>,
    extractor: Option<StageFeatureExtractor>,
    seed_buf: Vec<VolSample>,
    tracker: PatternTracker,
    stage_slots: Vec<Stage>,
    qoe_slots: Vec<(QoeLevel, QoeLevel)>,
    qoe: QoeInputs,
    /// Pipeline metrics plus the journal (decision events keyed by `flow`
    /// at tap-clock `ts_base` + flow offset), trace (Slot/Classifier/
    /// Verdict spans) and drift (every inference's (confidence, margin)
    /// score pair) sinks — each one branch and zero allocation per
    /// decision while disabled.
    obs: Arc<Obs>,
    /// Head-based sampling verdict for this flow, resolved once at
    /// construction; sampled-out flows skip even the per-slot modulo.
    trace_sampled: bool,
    flow: u64,
    ts_base: u64,
    pattern_recorded: bool,
    /// Classified slots seen so far, for 1-in-[`LATENCY_SAMPLE`] latency
    /// span sampling.
    latency_tick: u64,
    total_down_bytes: u64,
    slots_seen: usize,
    // Streaming (per-packet) ingestion state.
    stream_title_buf: Vec<Packet>,
    stream_slot_index: u64,
    stream_sample: VolSample,
    stream_any: bool,
}

impl<'b> SessionAnalyzer<'b> {
    /// A fresh analyzer against a trained bundle, recording telemetry
    /// into the process-wide registry, every sink disabled.
    pub fn new(bundle: &'b ModelBundle, config: AnalyzerConfig, qoe: QoeInputs) -> Self {
        Self::with_obs(bundle, config, qoe, Obs::global(), 0, 0)
    }

    /// A fresh analyzer recording into injected pipeline metrics (an
    /// isolated registry's), every sink disabled.
    pub fn with_metrics(
        bundle: &'b ModelBundle,
        config: AnalyzerConfig,
        qoe: QoeInputs,
        metrics: PipelineMetrics,
    ) -> Self {
        let obs = Obs {
            pipeline: metrics,
            ..Obs::clone(&Obs::global())
        };
        Self::with_obs(bundle, config, qoe, obs, 0, 0)
    }

    /// A fresh analyzer recording into `obs`: decisions emit journal
    /// events and trace spans under `flow`, timestamped `ts_base` (tap
    /// clock, µs) plus the flow-relative offset of each decision, and
    /// every inference feeds the drift sink. Head sampling of `flow` is
    /// decided here, once, so a sampled-out flow pays nothing per slot.
    pub fn with_obs(
        bundle: &'b ModelBundle,
        config: AnalyzerConfig,
        qoe: QoeInputs,
        obs: impl Into<Arc<Obs>>,
        flow: u64,
        ts_base: u64,
    ) -> Self {
        let obs = obs.into();
        SessionAnalyzer {
            bundle,
            config,
            title: None,
            extractor: None,
            seed_buf: Vec::new(),
            tracker: PatternTracker::new(),
            stage_slots: Vec::new(),
            qoe_slots: Vec::new(),
            qoe,
            trace_sampled: obs.trace.sampled(flow),
            obs,
            flow,
            ts_base,
            pattern_recorded: false,
            latency_tick: 0,
            total_down_bytes: 0,
            slots_seen: 0,
            stream_title_buf: Vec::new(),
            stream_slot_index: 0,
            stream_sample: VolSample::default(),
            stream_any: false,
        }
    }

    /// Tap-clock timestamp of the most recently closed slot boundary.
    fn slot_ts(&self) -> u64 {
        self.ts_base + self.slots_seen as u64 * self.bundle.stage_slot
    }

    /// Runs the title process on the session's first packets (timestamps
    /// relative to flow start). Called once; later calls overwrite.
    pub fn ingest_title_window(&mut self, packets: &[Packet]) -> TitlePrediction {
        let window = secs_to_micros(self.config.title_window_secs);
        let in_window: Vec<Packet> = packets.iter().copied().filter(|p| p.ts < window).collect();
        self.classify_title(&in_window)
    }

    /// Runs (and times) the title RF, recording the decision.
    fn classify_title(&mut self, packets: &[Packet]) -> TitlePrediction {
        let t0 = self.trace_sampled.then(std::time::Instant::now);
        let span = self.obs.pipeline.title_infer_ns.span();
        let (pred, margin) = self.bundle.title.classify_scored(packets);
        span.finish();
        self.obs
            .drift
            .observe(ModelKind::Title, pred.confidence, margin);
        if let Some(t0) = t0 {
            let ts = self.ts_base + secs_to_micros(self.config.title_window_secs);
            self.obs.trace.record(
                self.flow,
                0,
                TraceStage::Classifier,
                ts,
                t0.elapsed().as_micros() as u64,
            );
        }
        self.obs.pipeline.record_title(pred.title, pred.confidence);
        self.title = Some(pred);
        if self.obs.journal.is_enabled() {
            let ts = self.ts_base + secs_to_micros(self.config.title_window_secs);
            self.obs.journal.emit(
                self.flow,
                ts,
                EventKind::LaunchWindowClosed {
                    packets: packets.len() as u32,
                },
            );
            self.obs.journal.emit(
                self.flow,
                ts,
                EventKind::TitleDecided {
                    title: pred.title,
                    confidence: pred.confidence,
                },
            );
        }
        pred
    }

    /// Feeds one `I`-second volumetric slot (width must equal the bundle's
    /// `stage_slot`). Returns the classified stage once seeding completes.
    pub fn push_slot(&mut self, sample: &VolSample) -> Option<Stage> {
        self.obs.pipeline.slots.inc();
        self.slots_seen += 1;
        self.total_down_bytes += sample.down_bytes;
        let width = self.bundle.stage_slot;

        if self.extractor.is_none() {
            self.seed_buf.push(*sample);
            if self.seed_buf.len() >= self.config.seed_slots {
                self.extractor = Some(StageFeatureExtractor::new(
                    &self.bundle.stage_feature,
                    width,
                    &self.seed_buf,
                ));
            }
            // The seed window is the start of the launch animation.
            self.record_slot(Stage::Launch, sample);
            return None;
        }

        // Latency spans are sampled 1-in-N: the clock reads would otherwise
        // dominate the per-slot cost on the tap hot path. Decision counters
        // stay exact; only the timing histograms are sampled.
        let sampled = self.latency_tick.is_multiple_of(LATENCY_SAMPLE);
        self.latency_tick += 1;
        let t0 = sampled.then(std::time::Instant::now);
        let feats = self
            .extractor
            .as_mut()
            .expect("extractor initialized")
            .push(sample);
        let t1 = sampled.then(std::time::Instant::now);
        let stage = if self.obs.drift.is_enabled() {
            // One probability pass yields both the argmax stage and the
            // drift signal; same flat-forest walk, same stack buffer, so
            // enabling drift adds no allocation to the slot loop.
            let p = self.bundle.stage.probabilities(&feats);
            let (mut best, mut runner_up) = (0usize, 0.0f64);
            for (i, &v) in p.iter().enumerate() {
                if v > p[best] {
                    runner_up = p[best];
                    best = i;
                } else if v > runner_up && i != best {
                    runner_up = v;
                }
            }
            self.obs
                .drift
                .observe(ModelKind::Stage, p[best], (p[best] - runner_up).max(0.0));
            crate::stage::STAGE_CLASSES[best]
        } else {
            self.bundle.stage.classify(&feats)
        };
        let slot = (self.slots_seen - 1) as u32;
        if let (Some(t0), Some(t1)) = (t0, t1) {
            let t2 = std::time::Instant::now();
            let feature = (t1 - t0).as_nanos() as u64;
            let infer = (t2 - t1).as_nanos() as u64;
            if self.trace_sampled {
                // Exemplars link these latency buckets to `/trace?flow=`:
                // a scraper jumps from a slow bucket straight to the
                // causal chain of the flow that landed in it.
                let tid = trace_id(self.flow, slot);
                let metrics = &self.obs.pipeline;
                metrics
                    .feature_ns
                    .record_with_exemplar(feature, self.flow, tid);
                metrics
                    .stage_infer_ns
                    .record_with_exemplar(infer, self.flow, tid);
            } else {
                self.obs.pipeline.feature_ns.record(feature);
                self.obs.pipeline.stage_infer_ns.record(infer);
            }
        }
        self.tracker.push(stage, &self.bundle.pattern);
        if !self.pattern_recorded {
            if let Some(d) = self.tracker.decision() {
                self.obs.pipeline.record_pattern(d.pattern, d.confidence);
                self.pattern_recorded = true;
                // Two-class model: margin is top minus runner-up, i.e.
                // 2·confidence − 1 for any confidence ≥ 0.5.
                self.obs.drift.observe(
                    ModelKind::Pattern,
                    d.confidence,
                    (2.0 * d.confidence - 1.0).max(0.0),
                );
                self.obs.journal.emit(
                    self.flow,
                    self.slot_ts(),
                    EventKind::PatternInferred {
                        pattern: d.pattern,
                        confidence: d.confidence,
                    },
                );
            }
        }
        self.record_slot(stage, sample);
        if self.trace_sampled {
            self.obs
                .trace
                .record(self.flow, slot, TraceStage::Slot, self.slot_ts(), 0);
        }
        Some(stage)
    }

    fn record_slot(&mut self, stage: Stage, sample: &VolSample) {
        let width_secs = self.bundle.stage_slot as f64 / 1e6;
        let raw = raw_features(sample, width_secs);
        // Frame-rate proxy per slot: the encoder delivers the stage's
        // nominal fraction of the configured frame rate (prior-work
        // traffic-based fps estimation reduced to its stage dependency).
        let rel_pps = crate::qoe::stage_fps_factor(stage);
        let metrics = QosMetrics {
            throughput_mbps: raw[0],
            frame_rate: self.qoe.nominal_fps * self.qoe.delivered_fps_ratio * rel_pps,
            latency_ms: self.qoe.latency_ms,
            loss_rate: self.qoe.loss_rate,
        };
        let ctx = GameContext {
            title: self.title.and_then(|t| t.title),
            pattern: self.tracker.decision().map(|d| d.pattern),
            stage,
            settings_factor: self.qoe.settings_factor,
            nominal_fps: self.qoe.nominal_fps,
        };
        let obj = objective_qoe(&metrics, &self.bundle.thresholds);
        let eff = effective_qoe(
            &metrics,
            &ctx,
            &self.bundle.calibration,
            &self.bundle.thresholds,
        );
        self.obs.pipeline.record_stage_slot(stage);
        self.obs.pipeline.record_qoe(obj, eff);
        if self.obs.journal.is_enabled() {
            // Transitions only: a steady stage or QoE level emits nothing,
            // keeping journal volume proportional to decisions, not slots.
            let slot = (self.slots_seen - 1) as u32;
            if self.stage_slots.last() != Some(&stage) {
                self.obs.journal.emit(
                    self.flow,
                    self.slot_ts(),
                    EventKind::StageEntered { slot, stage },
                );
            }
            if self.qoe_slots.last() != Some(&(obj, eff)) {
                self.obs.journal.emit(
                    self.flow,
                    self.slot_ts(),
                    EventKind::QoeShift {
                        slot,
                        objective: obj,
                        effective: eff,
                    },
                );
            }
        }
        self.stage_slots.push(stage);
        self.qoe_slots.push((obj, eff));
    }

    /// Updates the QoS context used for QoE labeling of subsequently
    /// closed slots (the gray-box estimators refresh their measurements
    /// mid-session).
    pub fn set_qoe(&mut self, qoe: QoeInputs) {
        self.qoe = qoe;
    }

    /// The title prediction, once the title window has closed (or
    /// [`SessionAnalyzer::ingest_title_window`] ran).
    pub fn title_prediction(&self) -> Option<TitlePrediction> {
        self.title
    }

    /// The most recently classified stage (the latest closed slot's label).
    pub fn current_stage(&self) -> Option<Stage> {
        self.stage_slots.last().copied()
    }

    /// Streaming path: feed packets one at a time as a tap would observe
    /// them (timestamps relative to flow start, non-decreasing). The title
    /// process fires automatically when the first packet past the `N`-second
    /// window arrives; volumetric slots close as their boundaries pass.
    /// Call [`SessionAnalyzer::finish`] at flow end — it flushes the
    /// trailing partial slot and classifies the title even for captures
    /// shorter than the window.
    pub fn push_packet(&mut self, pkt: &Packet) {
        let window = secs_to_micros(self.config.title_window_secs);
        if self.title.is_none() {
            if pkt.ts < window {
                self.stream_title_buf.push(*pkt);
            } else {
                let buf = std::mem::take(&mut self.stream_title_buf);
                self.classify_title(&buf);
            }
        }
        // Close any slots the packet's timestamp has moved past.
        let width = self.bundle.stage_slot;
        while pkt.ts >= (self.stream_slot_index + 1) * width {
            let sample = std::mem::take(&mut self.stream_sample);
            self.push_slot(&sample);
            self.stream_slot_index += 1;
        }
        self.stream_sample.add(pkt);
        self.stream_any = true;
    }

    /// Batch path for deployment-scale sessions: title window from launch
    /// packets, stages/QoE from a volumetric series covering the whole
    /// session (any width that divides the bundle's slot width evenly).
    pub fn analyze(&mut self, launch_packets: &[Packet], vol: &VolSeries) {
        self.ingest_title_window(launch_packets);
        let series = if vol.width == self.bundle.stage_slot {
            vol.clone()
        } else {
            assert!(
                self.bundle.stage_slot.is_multiple_of(vol.width),
                "vol width must divide the stage slot"
            );
            vol.rebin((self.bundle.stage_slot / vol.width) as usize)
        };
        for s in &series.samples {
            self.push_slot(s);
        }
    }

    /// Finalizes the analysis into a report, flushing streaming state.
    pub fn finish(mut self) -> SessionReport {
        // Flush the streaming path: pending title window and partial slot.
        if self.title.is_none() && !self.stream_title_buf.is_empty() {
            let buf = std::mem::take(&mut self.stream_title_buf);
            self.classify_title(&buf);
        }
        if self.stream_any {
            let sample = std::mem::take(&mut self.stream_sample);
            if sample != VolSample::default() {
                self.push_slot(&sample);
            }
        }
        self.finish_inner()
    }

    fn finish_inner(self) -> SessionReport {
        let duration_secs = self.slots_seen as f64 * self.bundle.stage_slot as f64 / 1e6;
        let mean_down_mbps = if duration_secs > 0.0 {
            self.total_down_bytes as f64 * 8.0 / duration_secs / 1e6
        } else {
            0.0
        };
        // Session QoE: majority over gameplay (non-launch) slots.
        let gameplay: Vec<usize> = self
            .stage_slots
            .iter()
            .enumerate()
            .filter(|(_, s)| **s != Stage::Launch)
            .map(|(i, _)| i)
            .collect();
        let obj: Vec<QoeLevel> = gameplay.iter().map(|&i| self.qoe_slots[i].0).collect();
        let eff: Vec<QoeLevel> = gameplay.iter().map(|&i| self.qoe_slots[i].1).collect();
        let objective_qoe = majority_level(&obj);
        let effective_qoe = majority_level(&eff);
        self.obs.journal.emit(
            self.flow,
            self.slot_ts(),
            EventKind::SessionVerdict {
                objective: objective_qoe,
                effective: effective_qoe,
            },
        );
        if self.trace_sampled {
            self.obs.trace.record(
                self.flow,
                self.slots_seen as u32,
                TraceStage::Verdict,
                self.slot_ts(),
                0,
            );
        }
        SessionReport {
            title: self.title.unwrap_or(TitlePrediction {
                title: None,
                confidence: 0.0,
            }),
            pattern: self.tracker.decision(),
            final_pattern: self.tracker.force_infer(&self.bundle.pattern),
            stage_slots: self.stage_slots,
            qoe_slots: self.qoe_slots,
            slot_width: self.bundle.stage_slot,
            mean_down_mbps,
            objective_qoe,
            effective_qoe,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cgc_domain::{GameTitle, StreamSettings};
    use gamesim::{Fidelity, SessionConfig, SessionGenerator, TitleKind};

    /// Shared with the streaming and monitor test modules.
    pub(crate) fn tiny_bundle_for_streaming() -> ModelBundle {
        tiny_bundle()
    }

    /// A tiny bundle trained on a handful of synthetic sessions; enough for
    /// exercising the analyzer mechanics (accuracy is tested elsewhere).
    fn tiny_bundle() -> ModelBundle {
        use crate::pattern::{PatternInferrer, PatternInferrerConfig};
        use crate::stage::{stage_class_id, StageClassifier, StageClassifierConfig};
        use crate::title::{TitleClassifier, TitleClassifierConfig};
        use cgc_features::launch_attrs::launch_attributes;
        use cgc_features::transitions::TransitionAccumulator;
        use cgc_features::vol_attrs::StageFeatureExtractor;
        use mlcore::forest::RandomForestConfig;
        use mlcore::Dataset;

        let mut generator = SessionGenerator::new();
        let attr = cgc_features::launch_attrs::LaunchAttrConfig::default();
        let mut tx = Vec::new();
        let mut ty = Vec::new();
        let mut sx = Vec::new();
        let mut sy = Vec::new();
        let mut px = Vec::new();
        let mut py = Vec::new();
        for (k, title) in [
            GameTitle::Fortnite,
            GameTitle::GenshinImpact,
            GameTitle::Hearthstone,
        ]
        .iter()
        .enumerate()
        {
            for i in 0..4u64 {
                let s = generator.generate(&SessionConfig {
                    kind: TitleKind::Known(*title),
                    settings: StreamSettings::default_pc(),
                    gameplay_secs: 240.0,
                    fidelity: Fidelity::LaunchOnly,
                    seed: 900 + k as u64 * 10 + i,
                });
                tx.push(launch_attributes(&s.launch_window(5.0), &attr));
                ty.push(title.index());
                // Stage rows through the pipeline's own extractor.
                let vol = s.vol_at(ModelBundle::DEFAULT_STAGE_SLOT);
                let mut ex = StageFeatureExtractor::new(
                    &Default::default(),
                    ModelBundle::DEFAULT_STAGE_SLOT,
                    &vol.samples[..10],
                );
                let mut stages = Vec::new();
                for (j, sample) in vol.samples.iter().enumerate().skip(10) {
                    let feats = ex.push(sample);
                    let mid = j as u64 * ModelBundle::DEFAULT_STAGE_SLOT
                        + ModelBundle::DEFAULT_STAGE_SLOT / 2;
                    if let Some(st) = s.timeline.stage_at(mid) {
                        sx.push(feats.to_vec());
                        sy.push(stage_class_id(st));
                        stages.push(st);
                    }
                }
                let acc = TransitionAccumulator::from_sequence(&stages);
                if acc.total() > 0 {
                    px.push(acc.features().to_vec());
                    py.push(title.pattern().index());
                }
            }
        }
        let small = RandomForestConfig {
            n_trees: 15,
            ..Default::default()
        };
        ModelBundle {
            title: TitleClassifier::train(
                &Dataset::new(tx, ty).with_n_classes(GameTitle::ALL.len()),
                TitleClassifierConfig {
                    forest: small,
                    ..Default::default()
                },
            ),
            stage: StageClassifier::train(
                &Dataset::new(sx, sy).with_n_classes(4),
                StageClassifierConfig { forest: small },
            ),
            pattern: PatternInferrer::train(
                &Dataset::new(px, py).with_n_classes(2),
                PatternInferrerConfig {
                    forest: small,
                    ..Default::default()
                },
            ),
            stage_feature: Default::default(),
            stage_slot: ModelBundle::DEFAULT_STAGE_SLOT,
            thresholds: crate::qoe::ObjectiveThresholds::default(),
            calibration: crate::qoe::CalibrationTable::default(),
        }
    }

    fn session(seed: u64) -> gamesim::Session {
        let mut generator = SessionGenerator::new();
        generator.generate(&SessionConfig {
            kind: TitleKind::Known(GameTitle::Fortnite),
            settings: StreamSettings::default_pc(),
            gameplay_secs: 120.0,
            fidelity: Fidelity::LaunchOnly,
            seed,
        })
    }

    #[test]
    fn seed_window_reads_as_launch_and_returns_none() {
        let bundle = tiny_bundle();
        let mut a = SessionAnalyzer::new(&bundle, AnalyzerConfig::default(), QoeInputs::default());
        let s = session(1);
        let vol = s.vol_at(bundle.stage_slot);
        for (i, sample) in vol.samples.iter().take(10).enumerate() {
            assert_eq!(a.push_slot(sample), None, "slot {i} inside seed window");
        }
        // After seeding, stages come back.
        assert!(a.push_slot(&vol.samples[10]).is_some());
    }

    #[test]
    fn report_accounts_every_slot() {
        let bundle = tiny_bundle();
        let s = session(2);
        let mut a = SessionAnalyzer::new(&bundle, AnalyzerConfig::default(), QoeInputs::default());
        a.analyze(&s.packets, &s.vol);
        let r = a.finish();
        let expected = s.vol.rebin(10).len();
        assert_eq!(r.stage_slots.len(), expected);
        assert_eq!(r.qoe_slots.len(), expected);
        // stage_seconds sums back to the session length.
        let total: f64 = [Stage::Launch, Stage::Idle, Stage::Passive, Stage::Active]
            .iter()
            .map(|st| r.stage_seconds(*st))
            .sum();
        assert!((total - expected as f64).abs() < 1e-9);
    }

    #[test]
    fn empty_analyzer_produces_empty_report() {
        let bundle = tiny_bundle();
        let a = SessionAnalyzer::new(&bundle, AnalyzerConfig::default(), QoeInputs::default());
        let r = a.finish();
        assert!(r.stage_slots.is_empty());
        assert_eq!(r.mean_down_mbps, 0.0);
        assert!(r.title.title.is_none());
        assert_eq!(r.objective_qoe, cgc_domain::QoeLevel::Good); // vacuous majority
    }

    #[test]
    fn analyze_rebins_finer_series() {
        let bundle = tiny_bundle();
        let s = session(3);
        // Native 100 ms series is rebinned internally to the 1 s slot.
        let mut a = SessionAnalyzer::new(&bundle, AnalyzerConfig::default(), QoeInputs::default());
        a.analyze(&s.packets, &s.vol);
        let r1 = a.finish();
        // Pre-rebinned input gives the identical report.
        let mut b = SessionAnalyzer::new(&bundle, AnalyzerConfig::default(), QoeInputs::default());
        b.analyze(&s.packets, &s.vol.rebin(10));
        let r2 = b.finish();
        assert_eq!(r1.stage_slots, r2.stage_slots);
        assert_eq!(r1.qoe_slots, r2.qoe_slots);
    }

    #[test]
    #[should_panic(expected = "divide the stage slot")]
    fn analyze_rejects_incompatible_widths() {
        let bundle = tiny_bundle();
        let mut a = SessionAnalyzer::new(&bundle, AnalyzerConfig::default(), QoeInputs::default());
        let vol = nettrace::vol::VolSeries::from_samples(
            vec![Default::default(); 4],
            0,
            300_000, // does not divide 1 s evenly
        );
        a.analyze(&[], &vol);
    }

    #[test]
    fn drift_sink_observes_every_model_without_changing_decisions() {
        use cgc_obs::drift::{DriftConfig, DriftEngine};
        use cgc_obs::Registry;
        let bundle = tiny_bundle();
        let s = session(7);

        let mut plain =
            SessionAnalyzer::new(&bundle, AnalyzerConfig::default(), QoeInputs::default());
        plain.analyze(&s.packets, &s.vol);
        let r_plain = plain.finish();

        let registry = Registry::new();
        let (sink, mut engine) = DriftEngine::new(DriftConfig::default(), &registry);
        let obs = Obs {
            drift: sink,
            ..Obs::on(&registry)
        };
        let mut drifted = SessionAnalyzer::with_obs(
            &bundle,
            AnalyzerConfig::default(),
            QoeInputs::default(),
            obs,
            0,
            0,
        );
        drifted.analyze(&s.packets, &s.vol);
        let r_drift = drifted.finish();

        // The probability-pass stage path must agree with the plain
        // classify path, slot for slot.
        assert_eq!(r_plain.stage_slots, r_drift.stage_slots);
        assert_eq!(r_plain.title, r_drift.title);

        // One title observation, one per classified (non-seed) slot, and
        // at most one pattern observation reached the engine.
        engine.drain();
        let snap = registry.snapshot();
        let total = snap.counter("cgc_drift_observations_total").unwrap();
        let classified = r_drift.stage_slots.len() as u64 - 10; // seed slots emit nothing
        assert!(
            total == 1 + classified || total == 2 + classified,
            "observations {total}, classified slots {classified}"
        );
    }

    #[test]
    fn degraded_qos_inputs_surface_in_qoe() {
        let bundle = tiny_bundle();
        let s = session(4);
        let bad_qoe = QoeInputs {
            latency_ms: 150.0,
            loss_rate: 0.05,
            ..QoeInputs::default()
        };
        let mut a = SessionAnalyzer::new(&bundle, AnalyzerConfig::default(), bad_qoe);
        a.analyze(&s.packets, &s.vol);
        let r = a.finish();
        assert_eq!(r.objective_qoe, cgc_domain::QoeLevel::Bad);
        // Context never excuses latency/loss.
        assert_eq!(r.effective_qoe, cgc_domain::QoeLevel::Bad);
    }
}

#[cfg(test)]
mod streaming_tests {
    use super::*;
    use cgc_domain::{GameTitle, StreamSettings};
    use gamesim::{Fidelity, SessionConfig, SessionGenerator, TitleKind};

    fn bundle() -> ModelBundle {
        // Reuse the tiny-bundle builder from the sibling test module.
        super::tests::tiny_bundle_for_streaming()
    }

    fn full_session(seed: u64) -> gamesim::Session {
        let mut generator = SessionGenerator::new();
        generator.generate(&SessionConfig {
            kind: TitleKind::Known(GameTitle::Fortnite),
            settings: StreamSettings::default_pc(),
            gameplay_secs: 60.0,
            fidelity: Fidelity::FullPackets,
            seed,
        })
    }

    #[test]
    fn streaming_matches_batch_analysis() {
        let b = bundle();
        let s = full_session(5);

        let mut batch = SessionAnalyzer::new(&b, AnalyzerConfig::default(), QoeInputs::default());
        let vol = VolSeries::from_packets(&s.packets, 0, b.stage_slot);
        batch.analyze(&s.packets, &vol);
        let rb = batch.finish();

        let mut stream = SessionAnalyzer::new(&b, AnalyzerConfig::default(), QoeInputs::default());
        for p in &s.packets {
            stream.push_packet(p);
        }
        let rs = stream.finish();

        // Identical title decision (same window contents).
        assert_eq!(rb.title, rs.title);
        // Identical closed slots; streaming may differ by the final partial
        // slot's handling, so compare the common prefix.
        let n = rb.stage_slots.len().min(rs.stage_slots.len());
        assert!(n + 1 >= rb.stage_slots.len());
        assert_eq!(&rb.stage_slots[..n], &rs.stage_slots[..n]);
        assert!((rb.mean_down_mbps - rs.mean_down_mbps).abs() / rb.mean_down_mbps < 0.05);
    }

    #[test]
    fn short_capture_still_gets_a_title_call() {
        let b = bundle();
        let s = full_session(6);
        let mut stream = SessionAnalyzer::new(&b, AnalyzerConfig::default(), QoeInputs::default());
        // Only 2 seconds of packets: the window never closes on its own.
        for p in s.packets.iter().filter(|p| p.ts < 2_000_000) {
            stream.push_packet(p);
        }
        let r = stream.finish();
        // A prediction exists (possibly unknown, but with real confidence).
        assert!(r.title.confidence > 0.0);
    }
}
