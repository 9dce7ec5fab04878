//! Rolling-window service-level objectives with multi-window burn-rate.
//!
//! Pipeline health must be windowed, not threshold-on-instant: a single
//! bursty second should page nobody, while a sustained drift should. The
//! [`SloEngine`] holds interval observations per objective and evaluates
//! each against a **fast** (default 5 m) and **slow** (default 1 h)
//! window. The burn rate of a window is the error budget consumed inside
//! it relative to the budget the target allows for the whole window:
//!
//! ```text
//! burn(W) = Σ value·overlap(sample, W) / |W| / target
//! ```
//!
//! * `burn_fast ≥ 1`                    → **degraded** (budget burning
//!   faster than allowed right now)
//! * `burn_fast ≥ critical_factor` and
//!   `burn_slow ≥ 1`                    → **critical** (and still burning)
//!
//! Both windows slide on whatever clock the caller passes — the fleet's
//! virtual clock or real time — so recovery needs no new observations:
//! once the burst leaves the fast window, `evaluate` returns to ok.
//!
//! [`SnapshotBridge`] derives the objective values (drop ratio, hand-off
//! p99, queue saturation, classifier staleness, rolling classification
//! error, label-free drift score) from consecutive registry
//! [`Snapshot`]s, and [`SloHub`] packages engine + bridge + clock behind
//! one `&self` entry point for the telemetry server and the fleet
//! reporter.

use std::collections::VecDeque;
use std::sync::Mutex;

use serde::{Serialize, Value};

use crate::snapshot::Snapshot;

/// The pipeline health signals tracked as objectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectiveKind {
    /// p99 of shard-batch hand-off processing time, in µs.
    HandoffP99Us,
    /// Fraction of records/events dropped (ingest queues + recorder rings).
    DropRatio,
    /// Peak bounded-queue depth as a fraction of capacity, 0..=1.
    QueueSaturation,
    /// µs since the classifier pipeline last closed a slot while flows
    /// were active.
    ClassifierStalenessUs,
    /// Worst rolling classification error (1 − accuracy) across models
    /// where ground truth is streamed into the quality hub, 0..=1.
    QualityErrorRatio,
    /// Worst label-free drift score across models (PSI units; see
    /// [`crate::drift`]).
    DriftScore,
}

impl ObjectiveKind {
    /// Every objective kind.
    pub const ALL: [ObjectiveKind; 6] = [
        ObjectiveKind::HandoffP99Us,
        ObjectiveKind::DropRatio,
        ObjectiveKind::QueueSaturation,
        ObjectiveKind::ClassifierStalenessUs,
        ObjectiveKind::QualityErrorRatio,
        ObjectiveKind::DriftScore,
    ];

    /// Stable snake_case name (JSON `objective` field, healthz reasons).
    pub fn name(self) -> &'static str {
        match self {
            ObjectiveKind::HandoffP99Us => "handoff_p99_us",
            ObjectiveKind::DropRatio => "drop_ratio",
            ObjectiveKind::QueueSaturation => "queue_saturation",
            ObjectiveKind::ClassifierStalenessUs => "classifier_staleness_us",
            ObjectiveKind::QualityErrorRatio => "quality_error_ratio",
            ObjectiveKind::DriftScore => "drift_score",
        }
    }
}

impl std::fmt::Display for ObjectiveKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One objective: a signal and the level it must stay under.
#[derive(Debug, Clone, Copy)]
pub struct Objective {
    /// Which signal.
    pub kind: ObjectiveKind,
    /// The target ceiling; windowed burn is `value / target` time-weighted.
    pub target: f64,
}

/// Window sizes, escalation factor, and the objective set.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Fast window (µs): degradation sensitivity. Default 5 minutes.
    pub fast_window_us: u64,
    /// Slow window (µs): escalation significance. Default 1 hour.
    pub slow_window_us: u64,
    /// Fast burn must reach this multiple (with slow burn ≥ 1) before a
    /// degradation escalates to critical. Default 2.
    pub critical_factor: f64,
    /// The tracked objectives.
    pub objectives: Vec<Objective>,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            fast_window_us: 300_000_000,
            slow_window_us: 3_600_000_000,
            critical_factor: 2.0,
            objectives: vec![
                Objective {
                    kind: ObjectiveKind::HandoffP99Us,
                    target: 50_000.0,
                },
                Objective {
                    kind: ObjectiveKind::DropRatio,
                    target: 0.01,
                },
                Objective {
                    kind: ObjectiveKind::QueueSaturation,
                    target: 0.5,
                },
                Objective {
                    kind: ObjectiveKind::ClassifierStalenessUs,
                    target: 30_000_000.0,
                },
                Objective {
                    kind: ObjectiveKind::QualityErrorRatio,
                    target: 0.10,
                },
                Objective {
                    kind: ObjectiveKind::DriftScore,
                    target: 0.25,
                },
            ],
        }
    }
}

/// Overall or per-objective health.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Health {
    /// Every objective inside budget.
    Ok,
    /// Fast-window burn at or past 1 on some objective.
    Degraded,
    /// Fast burn past the critical factor with the slow window burnt too.
    Critical,
}

impl Health {
    /// Stable lowercase name (healthz body, JSON `status`).
    pub fn name(self) -> &'static str {
        match self {
            Health::Ok => "ok",
            Health::Degraded => "degraded",
            Health::Critical => "critical",
        }
    }
}

impl std::fmt::Display for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One objective's evaluation.
#[derive(Debug, Clone)]
pub struct ObjectiveStatus {
    /// Which signal.
    pub kind: ObjectiveKind,
    /// The configured ceiling.
    pub target: f64,
    /// The most recently observed value.
    pub last: f64,
    /// Fast-window burn rate (≥ 1 means over budget).
    pub burn_fast: f64,
    /// Slow-window burn rate.
    pub burn_slow: f64,
    /// This objective's health.
    pub health: Health,
    /// Operator-readable explanation when not ok.
    pub reason: Option<String>,
}

impl Serialize for ObjectiveStatus {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("objective".into(), Value::String(self.kind.name().into())),
            ("target".into(), Value::Float(self.target)),
            ("last".into(), Value::Float(self.last)),
            ("burn_fast".into(), Value::Float(self.burn_fast)),
            ("burn_slow".into(), Value::Float(self.burn_slow)),
            ("status".into(), Value::String(self.health.name().into())),
            (
                "reason".into(),
                match &self.reason {
                    Some(r) => Value::String(r.clone()),
                    None => Value::Null,
                },
            ),
        ])
    }
}

/// The whole evaluation: worst objective wins.
#[derive(Debug, Clone)]
pub struct SloReport {
    /// Evaluation timestamp (µs on the engine's clock).
    pub ts: u64,
    /// Worst per-objective health.
    pub health: Health,
    /// Every objective's detail.
    pub objectives: Vec<ObjectiveStatus>,
}

impl SloReport {
    /// The reasons of every non-ok objective.
    pub fn reasons(&self) -> Vec<&str> {
        self.objectives
            .iter()
            .filter_map(|o| o.reason.as_deref())
            .collect()
    }

    /// The `/healthz` body: `ok`, or `degraded: r1; r2`, one line.
    pub fn healthz_body(&self) -> String {
        match self.health {
            Health::Ok => "ok\n".to_string(),
            h => format!("{}: {}\n", h.name(), self.reasons().join("; ")),
        }
    }
}

impl Serialize for SloReport {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("ts".into(), Value::UInt(self.ts)),
            ("status".into(), Value::String(self.health.name().into())),
            (
                "objectives".into(),
                Value::Array(self.objectives.iter().map(|o| o.to_value()).collect()),
            ),
        ])
    }
}

/// One interval observation: `value` held over `(from, to]`.
#[derive(Debug, Clone, Copy)]
struct Sample {
    from: u64,
    to: u64,
    value: f64,
}

struct ObjectiveWindow {
    objective: Objective,
    samples: VecDeque<Sample>,
    last_ts: Option<u64>,
}

impl ObjectiveWindow {
    /// Budget consumed in the window ending at `now`, relative to the
    /// budget `target` allows over the whole window.
    fn burn(&self, now: u64, window: u64) -> f64 {
        if self.objective.target <= 0.0 || window == 0 {
            return 0.0;
        }
        let lo = now.saturating_sub(window);
        let mut consumed = 0.0;
        for s in &self.samples {
            let overlap = s.to.min(now).saturating_sub(s.from.max(lo));
            if overlap > 0 {
                consumed += s.value * overlap as f64;
            }
        }
        consumed / window as f64 / self.objective.target
    }
}

/// Rolling-window burn-rate evaluator. Clock-agnostic: `observe` and
/// [`SloEngine::evaluate`] take explicit `now_us` values, which may come
/// from the fleet's virtual clock or from real time.
pub struct SloEngine {
    config: SloConfig,
    windows: Vec<ObjectiveWindow>,
}

impl SloEngine {
    /// Builds an engine tracking `config.objectives`.
    pub fn new(config: SloConfig) -> Self {
        let windows = config
            .objectives
            .iter()
            .map(|&objective| ObjectiveWindow {
                objective,
                samples: VecDeque::new(),
                last_ts: None,
            })
            .collect();
        SloEngine { config, windows }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// Records `value` for `kind`, covering the interval since the
    /// previous observation of the same kind (the first observation is
    /// zero-width — it only starts the clock, matching pull-based delta
    /// semantics where the first delta is undefined). Unknown kinds are
    /// ignored.
    pub fn observe(&mut self, now_us: u64, kind: ObjectiveKind, value: f64) {
        let slow_window = self.config.slow_window_us;
        if let Some(w) = self.windows.iter_mut().find(|w| w.objective.kind == kind) {
            let from = w.last_ts.unwrap_or(now_us).min(now_us);
            let to = now_us;
            w.samples.push_back(Sample { from, to, value });
            w.last_ts = Some(to);
            let horizon = now_us.saturating_sub(slow_window);
            while w.samples.front().is_some_and(|s| s.to <= horizon) {
                w.samples.pop_front();
            }
        }
    }

    /// Evaluates every objective's fast/slow burn at `now_us`.
    pub fn evaluate(&self, now_us: u64) -> SloReport {
        let mut overall = Health::Ok;
        let objectives = self
            .windows
            .iter()
            .map(|w| {
                let burn_fast = w.burn(now_us, self.config.fast_window_us);
                let burn_slow = w.burn(now_us, self.config.slow_window_us);
                let health = if burn_fast >= self.config.critical_factor && burn_slow >= 1.0 {
                    Health::Critical
                } else if burn_fast >= 1.0 {
                    Health::Degraded
                } else {
                    Health::Ok
                };
                overall = overall.max(health);
                let reason = (health != Health::Ok).then(|| {
                    format!(
                        "{} burning {:.1}x fast / {:.1}x slow (target {})",
                        w.objective.kind.name(),
                        burn_fast,
                        burn_slow,
                        w.objective.target
                    )
                });
                ObjectiveStatus {
                    kind: w.objective.kind,
                    target: w.objective.target,
                    last: w.samples.back().map_or(0.0, |s| s.value),
                    burn_fast,
                    burn_slow,
                    health,
                    reason,
                }
            })
            .collect();
        SloReport {
            ts: now_us,
            health: overall,
            objectives,
        }
    }
}

impl std::fmt::Debug for SloEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SloEngine")
            .field("objectives", &self.windows.len())
            .finish()
    }
}

// ------------------------------------------------------- snapshot bridge

/// Derives objective values from consecutive registry snapshots, so the
/// SLO engine needs no hooks inside the pipeline: anything the metrics
/// already count is enough.
#[derive(Default)]
pub struct SnapshotBridge {
    prev: Option<Snapshot>,
    last_slots_total: u64,
    last_advance_us: Option<u64>,
}

/// Counter families whose increments mean "a record/event was lost".
pub(crate) const DROP_COUNTERS: [&str; 3] = [
    "cgc_ingest_dropped_total",
    "cgc_journal_dropped_events_total",
    "cgc_trace_dropped_spans_total",
];

/// Counter families whose increments mean "a record/event was accepted".
pub(crate) const ACCEPT_COUNTERS: [&str; 3] = [
    "cgc_ingest_enqueued_total",
    "cgc_journal_events_total",
    "cgc_trace_spans_total",
];

impl SnapshotBridge {
    /// A bridge with no baseline yet; the first `observe` only records it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds `engine` every objective value derivable from `snap` (deltas
    /// against the previous snapshot where the signal is a rate).
    pub fn observe(&mut self, engine: &mut SloEngine, now_us: u64, snap: &Snapshot) {
        if self.prev.is_none() {
            // Baseline: no deltas to judge yet, but start the rate
            // objectives' interval clocks so the first real delta covers
            // the full baseline→now interval instead of zero width.
            engine.observe(now_us, ObjectiveKind::DropRatio, 0.0);
            engine.observe(now_us, ObjectiveKind::HandoffP99Us, 0.0);
        }
        if let Some(prev) = &self.prev {
            let d = snap.delta(prev);
            let dropped: u64 = DROP_COUNTERS.iter().filter_map(|n| d.counter(n)).sum();
            let accepted: u64 = ACCEPT_COUNTERS.iter().filter_map(|n| d.counter(n)).sum();
            let total = dropped + accepted;
            let ratio = if total == 0 {
                0.0
            } else {
                dropped as f64 / total as f64
            };
            engine.observe(now_us, ObjectiveKind::DropRatio, ratio);
            if let Some(h) = d.histogram("cgc_monitor_batch_ns") {
                if let Some(p99_ns) = h.quantile(0.99) {
                    engine.observe(now_us, ObjectiveKind::HandoffP99Us, p99_ns / 1_000.0);
                }
            }
        }
        // Saturation reads instantaneous gauges: the deepest queue as a
        // fraction of the per-queue capacity gauge.
        let capacity = snap.gauge("cgc_ingest_queue_capacity").unwrap_or(0);
        if capacity > 0 {
            let deepest = snap
                .metrics
                .iter()
                .filter(|m| m.name == "cgc_ingest_queue_depth")
                .filter_map(|m| match m.value {
                    crate::snapshot::MetricValue::Gauge(v) => Some(v),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            engine.observe(
                now_us,
                ObjectiveKind::QueueSaturation,
                (deepest.max(0) as f64 / capacity as f64).clamp(0.0, 1.0),
            );
        }
        // Staleness: µs since slot production last advanced while flows
        // were active (an idle pipeline with no flows is not stale).
        let slots = snap.counter("cgc_pipeline_slots_total").unwrap_or(0);
        if slots > self.last_slots_total || self.last_advance_us.is_none() {
            self.last_advance_us = Some(now_us);
        }
        self.last_slots_total = slots;
        let active = snap.gauge("cgc_monitor_active_flows").unwrap_or(0);
        let staleness = if active > 0 {
            now_us.saturating_sub(self.last_advance_us.unwrap_or(now_us))
        } else {
            0
        };
        engine.observe(
            now_us,
            ObjectiveKind::ClassifierStalenessUs,
            staleness as f64,
        );
        // Quality: worst rolling error across the models whose windows
        // actually hold truth-joined samples (an empty window is not
        // evidence of accuracy).
        let worst_error = snap
            .metrics
            .iter()
            .filter(|m| m.name == "cgc_quality_accuracy_pct")
            .filter_map(|m| {
                // Pair each accuracy series with the window_len series that
                // carries the same full label set, so extra labels (e.g. an
                // impairment `profile`) never silently break the pairing.
                let filled = snap
                    .metrics
                    .iter()
                    .find(|w| w.name == "cgc_quality_window_len" && w.labels == m.labels)
                    .is_some_and(
                        |w| matches!(w.value, crate::snapshot::MetricValue::Gauge(v) if v > 0),
                    );
                if !filled {
                    return None;
                }
                match m.value {
                    crate::snapshot::MetricValue::Gauge(pct) => {
                        Some((1.0 - pct as f64 / 100.0).clamp(0.0, 1.0))
                    }
                    _ => None,
                }
            })
            .fold(None, |acc: Option<f64>, e| {
                Some(acc.map_or(e, |a| a.max(e)))
            });
        if let Some(err) = worst_error {
            engine.observe(now_us, ObjectiveKind::QualityErrorRatio, err);
        }
        // Drift: worst label-free score across models (milli-gauge → PSI
        // units). Present whenever a drift engine is registered; zero
        // during warmup, so installing the engine never alarms by itself.
        let worst_drift = snap
            .metrics
            .iter()
            .filter(|m| m.name == "cgc_drift_score_milli")
            .filter_map(|m| match m.value {
                crate::snapshot::MetricValue::Gauge(v) => Some(v.max(0) as f64 / 1000.0),
                _ => None,
            })
            .fold(None, |acc: Option<f64>, s| {
                Some(acc.map_or(s, |a| a.max(s)))
            });
        if let Some(score) = worst_drift {
            engine.observe(now_us, ObjectiveKind::DriftScore, score);
        }
        self.prev = Some(snap.clone());
    }
}

impl std::fmt::Debug for SnapshotBridge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotBridge")
            .field("baselined", &self.prev.is_some())
            .finish()
    }
}

// ---------------------------------------------------------------- hub

/// Engine + bridge + clock behind one shared handle: the telemetry
/// server's `/healthz` and `/slo`, and the fleet reporter, all call
/// [`SloHub::observe_and_evaluate`] with a fresh snapshot.
pub struct SloHub {
    engine: Mutex<(SloEngine, SnapshotBridge)>,
    now: Box<dyn Fn() -> u64 + Send + Sync>,
}

impl SloHub {
    /// A hub on an explicit clock (pass the fleet's virtual clock here).
    pub fn new(config: SloConfig, now: impl Fn() -> u64 + Send + Sync + 'static) -> Self {
        SloHub {
            engine: Mutex::new((SloEngine::new(config), SnapshotBridge::new())),
            now: Box::new(now),
        }
    }

    /// A hub on real time (µs since the hub was built).
    pub fn real_time(config: SloConfig) -> Self {
        let start = std::time::Instant::now();
        Self::new(config, move || start.elapsed().as_micros() as u64)
    }

    /// Feeds `snap` through the bridge and evaluates, all under one lock
    /// (poison-recovering: a panicked scraper must not wedge health).
    pub fn observe_and_evaluate(&self, snap: &Snapshot) -> SloReport {
        let now = (self.now)();
        let mut guard = crate::channel::lock(&self.engine);
        let (engine, bridge) = &mut *guard;
        bridge.observe(engine, now, snap);
        engine.evaluate(now)
    }

    /// Evaluates without a new observation (windows still slide).
    pub fn evaluate(&self) -> SloReport {
        let now = (self.now)();
        let guard = crate::channel::lock(&self.engine);
        guard.0.evaluate(now)
    }
}

impl std::fmt::Debug for SloHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SloHub").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    const MIN: u64 = 60_000_000;

    fn engine_with(kind: ObjectiveKind, target: f64) -> SloEngine {
        SloEngine::new(SloConfig {
            objectives: vec![Objective { kind, target }],
            ..SloConfig::default()
        })
    }

    #[test]
    fn quiet_engine_is_ok() {
        let mut engine = engine_with(ObjectiveKind::DropRatio, 0.01);
        engine.observe(0, ObjectiveKind::DropRatio, 0.0);
        engine.observe(MIN, ObjectiveKind::DropRatio, 0.0);
        let report = engine.evaluate(MIN);
        assert_eq!(report.health, Health::Ok);
        assert!(report.reasons().is_empty());
        assert_eq!(report.healthz_body(), "ok\n");
    }

    #[test]
    fn drop_burst_degrades_then_recovers_as_the_window_slides() {
        let mut engine = engine_with(ObjectiveKind::DropRatio, 0.01);
        engine.observe(0, ObjectiveKind::DropRatio, 0.0); // baseline
                                                          // One minute at 20% drops: fast burn = 0.2·(60/300)/0.01 = 4.
        engine.observe(MIN, ObjectiveKind::DropRatio, 0.2);
        let burst = engine.evaluate(MIN);
        assert_eq!(burst.health, Health::Degraded, "{burst:?}");
        let status = &burst.objectives[0];
        assert!(status.burn_fast > 1.0, "{status:?}");
        assert!(
            burst.healthz_body().starts_with("degraded: drop_ratio"),
            "{}",
            burst.healthz_body()
        );
        // The burst slides out of the 5m fast window: ok again, with no
        // further observations needed.
        let recovered = engine.evaluate(MIN + 6 * MIN);
        assert_eq!(recovered.health, Health::Ok, "{recovered:?}");
        assert!(recovered.objectives[0].burn_fast < 1.0);
    }

    #[test]
    fn sustained_burn_escalates_to_critical() {
        let mut engine = engine_with(ObjectiveKind::QueueSaturation, 0.5);
        engine.observe(0, ObjectiveKind::QueueSaturation, 0.0);
        // Saturated queues for 70 minutes straight: the slow window is
        // fully burnt and the fast window far past the critical factor.
        for m in 1..=70u64 {
            engine.observe(m * MIN, ObjectiveKind::QueueSaturation, 1.0);
        }
        let report = engine.evaluate(70 * MIN);
        assert_eq!(report.health, Health::Critical, "{report:?}");
        let status = &report.objectives[0];
        assert!(status.burn_slow >= 1.0, "{status:?}");
        assert!(status.burn_fast >= 2.0, "{status:?}");
        assert!(report.healthz_body().starts_with("critical:"));
    }

    #[test]
    fn short_burst_never_escalates_past_degraded() {
        // The multi-window rule: a burst that blows the fast window past
        // the critical factor but not the hour budget stays a
        // degradation.
        let mut engine = engine_with(ObjectiveKind::QueueSaturation, 0.1);
        engine.observe(0, ObjectiveKind::QueueSaturation, 0.0);
        engine.observe(MIN, ObjectiveKind::QueueSaturation, 1.0);
        let report = engine.evaluate(MIN);
        assert_eq!(report.health, Health::Degraded, "{report:?}");
        assert!(report.objectives[0].burn_fast >= 2.0, "{report:?}");
        assert!(report.objectives[0].burn_slow < 1.0, "{report:?}");
    }

    #[test]
    fn report_serializes_with_stable_fields() {
        let mut engine = engine_with(ObjectiveKind::DropRatio, 0.01);
        engine.observe(0, ObjectiveKind::DropRatio, 0.0);
        engine.observe(MIN, ObjectiveKind::DropRatio, 0.5);
        let line = serde_json::to_string(&engine.evaluate(MIN)).unwrap();
        assert!(line.contains("\"status\":\"degraded\""), "{line}");
        assert!(line.contains("\"objective\":\"drop_ratio\""), "{line}");
        assert!(line.contains("\"burn_fast\":"), "{line}");
        assert!(line.contains("\"reason\":\"drop_ratio burning"), "{line}");
    }

    #[test]
    fn bridge_derives_drop_ratio_from_counter_deltas() {
        let registry = Registry::new();
        let enq = registry.counter("cgc_ingest_enqueued_total", "t");
        let dropped = registry.counter_with(
            "cgc_ingest_dropped_total",
            "t",
            &[("policy", "drop_oldest")],
        );
        let mut engine = engine_with(ObjectiveKind::DropRatio, 0.01);
        let mut bridge = SnapshotBridge::new();
        enq.add(100);
        bridge.observe(&mut engine, 0, &registry.snapshot()); // baseline
                                                              // Interval: 80 accepted, 20 dropped → ratio 0.2 over one minute.
        enq.add(80);
        dropped.add(20);
        bridge.observe(&mut engine, MIN, &registry.snapshot());
        let report = engine.evaluate(MIN);
        assert_eq!(report.health, Health::Degraded, "{report:?}");
        assert!((report.objectives[0].last - 0.2).abs() < 1e-9, "{report:?}");
    }

    #[test]
    fn bridge_derives_saturation_and_staleness() {
        let registry = Registry::new();
        registry
            .gauge("cgc_ingest_queue_capacity", "cap")
            .set(1_000);
        let depth = registry.gauge_with("cgc_ingest_queue_depth", "d", &[("shard", "0")]);
        let slots = registry.counter("cgc_pipeline_slots_total", "s");
        let active = registry.gauge("cgc_monitor_active_flows", "a");
        let mut engine = SloEngine::new(SloConfig {
            objectives: vec![
                Objective {
                    kind: ObjectiveKind::QueueSaturation,
                    target: 0.5,
                },
                Objective {
                    kind: ObjectiveKind::ClassifierStalenessUs,
                    target: 30_000_000.0,
                },
            ],
            ..SloConfig::default()
        });
        let mut bridge = SnapshotBridge::new();
        depth.set(900);
        active.set(5);
        slots.add(1);
        bridge.observe(&mut engine, 0, &registry.snapshot());
        // Slots stopped advancing while flows stayed active: staleness
        // grows; the queue sits at 90% of capacity.
        bridge.observe(&mut engine, 2 * MIN, &registry.snapshot());
        let report = engine.evaluate(2 * MIN);
        let sat = &report.objectives[0];
        assert!((sat.last - 0.9).abs() < 1e-9, "{sat:?}");
        let stale = &report.objectives[1];
        assert!((stale.last - (2 * MIN) as f64).abs() < 1.0, "{stale:?}");
        // Slot production resumes: staleness resets.
        slots.add(1);
        bridge.observe(&mut engine, 3 * MIN, &registry.snapshot());
        let report = engine.evaluate(3 * MIN);
        assert_eq!(report.objectives[1].last, 0.0, "{report:?}");
    }

    #[test]
    fn bridge_derives_quality_error_from_accuracy_gauges() {
        let registry = Registry::new();
        let acc_title = registry.gauge_with("cgc_quality_accuracy_pct", "a", &[("model", "title")]);
        let len_title = registry.gauge_with("cgc_quality_window_len", "w", &[("model", "title")]);
        // A second model with an empty window and 0% accuracy must NOT
        // count: no samples means no evidence.
        registry
            .gauge_with("cgc_quality_accuracy_pct", "a", &[("model", "stage")])
            .set(0);
        registry
            .gauge_with("cgc_quality_window_len", "w", &[("model", "stage")])
            .set(0);
        let mut engine = engine_with(ObjectiveKind::QualityErrorRatio, 0.10);
        let mut bridge = SnapshotBridge::new();
        acc_title.set(95);
        len_title.set(256);
        bridge.observe(&mut engine, 0, &registry.snapshot());
        bridge.observe(&mut engine, MIN, &registry.snapshot());
        let report = engine.evaluate(MIN);
        assert_eq!(report.health, Health::Ok, "{report:?}");
        assert!(
            (report.objectives[0].last - 0.05).abs() < 1e-9,
            "{report:?}"
        );
        // Accuracy collapses: sustained error past the floor degrades.
        acc_title.set(40);
        for m in 2..=7u64 {
            bridge.observe(&mut engine, m * MIN, &registry.snapshot());
        }
        let report = engine.evaluate(7 * MIN);
        assert_eq!(report.health, Health::Degraded, "{report:?}");
        assert!(report
            .healthz_body()
            .starts_with("degraded: quality_error_ratio"));
    }

    #[test]
    fn bridge_derives_drift_score_from_milli_gauges() {
        let registry = Registry::new();
        let title = registry.gauge_with("cgc_drift_score_milli", "d", &[("model", "title")]);
        registry
            .gauge_with("cgc_drift_score_milli", "d", &[("model", "stage")])
            .set(10);
        let mut engine = engine_with(ObjectiveKind::DriftScore, 0.25);
        let mut bridge = SnapshotBridge::new();
        title.set(0); // warmup: engine installed, nothing scored yet
        bridge.observe(&mut engine, 0, &registry.snapshot());
        bridge.observe(&mut engine, MIN, &registry.snapshot());
        assert_eq!(engine.evaluate(MIN).health, Health::Ok);
        // The worst model's score crosses the ceiling and stays there.
        title.set(600);
        for m in 2..=7u64 {
            bridge.observe(&mut engine, m * MIN, &registry.snapshot());
        }
        let report = engine.evaluate(7 * MIN);
        assert_eq!(report.health, Health::Degraded, "{report:?}");
        assert!((report.objectives[0].last - 0.6).abs() < 1e-9, "{report:?}");
        assert!(report.healthz_body().starts_with("degraded: drift_score"));
    }

    #[test]
    fn hub_runs_on_an_injected_clock() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let clock = Arc::new(AtomicU64::new(0));
        let tick = Arc::clone(&clock);
        let hub = SloHub::new(
            SloConfig {
                objectives: vec![Objective {
                    kind: ObjectiveKind::DropRatio,
                    target: 0.01,
                }],
                ..SloConfig::default()
            },
            move || tick.load(Ordering::Relaxed),
        );
        let registry = Registry::new();
        let enq = registry.counter("cgc_ingest_enqueued_total", "t");
        let dropped = registry.counter("cgc_ingest_dropped_total", "t");
        enq.add(10);
        assert_eq!(
            hub.observe_and_evaluate(&registry.snapshot()).health,
            Health::Ok
        );
        clock.store(MIN, Ordering::Relaxed);
        enq.add(50);
        dropped.add(50);
        let report = hub.observe_and_evaluate(&registry.snapshot());
        assert_eq!(report.health, Health::Degraded, "{report:?}");
        // Recovery purely by the clock advancing.
        clock.store(8 * MIN, Ordering::Relaxed);
        assert_eq!(hub.evaluate().health, Health::Ok);
    }
}
