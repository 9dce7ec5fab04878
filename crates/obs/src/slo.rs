//! Rolling-window service-level objectives with multi-window burn-rate.
//!
//! Pipeline health must be windowed, not threshold-on-instant: a single
//! bursty second should page nobody, while a sustained drift should. An
//! [`SloHub`] holds interval observations per objective and evaluates
//! each against a **fast** (5 m) and **slow** (1 h) window. The burn
//! rate of a window is the error budget consumed inside it relative to
//! the budget the target allows for the whole window:
//!
//! ```text
//! burn(W) = Σ value·overlap(sample, W) / |W| / target
//! ```
//!
//! * `burn_fast ≥ 1`                    → **degraded** (budget burning
//!   faster than allowed right now)
//! * `burn_fast ≥ 2` and
//!   `burn_slow ≥ 1`                    → **critical** (and still burning)
//!
//! Both windows slide on whatever clock the caller passes — the fleet's
//! virtual clock or real time — so recovery needs no new observations:
//! once the burst leaves the fast window, the next evaluation is ok.
//!
//! The hub derives the objective values (drop ratio, hand-off p99, queue
//! saturation, classifier staleness, rolling classification error,
//! label-free drift score) from consecutive registry [`Snapshot`]s, so it
//! needs no hooks inside the pipeline, and serves them behind one `&self`
//! entry point for the telemetry server and the fleet reporter.

use std::collections::VecDeque;
use std::sync::Mutex;

use serde::{Serialize, Value};

use crate::snapshot::{MetricValue, Snapshot};

/// Fast window (µs): degradation sensitivity.
const FAST_WINDOW_US: u64 = 300_000_000;
/// Slow window (µs): escalation significance.
const SLOW_WINDOW_US: u64 = 3_600_000_000;
/// Fast burn must reach this multiple (with slow burn ≥ 1) before a
/// degradation escalates to critical.
const CRITICAL_FACTOR: f64 = 2.0;
/// Every tracked objective and the ceiling it must stay under; windowed
/// burn is `value / target`, time-weighted.
const OBJECTIVES: [(ObjectiveKind, f64); 6] = [
    (ObjectiveKind::HandoffP99Us, 50_000.0),
    (ObjectiveKind::DropRatio, 0.01),
    (ObjectiveKind::QueueSaturation, 0.5),
    (ObjectiveKind::ClassifierStalenessUs, 30_000_000.0),
    (ObjectiveKind::QualityErrorRatio, 0.10),
    (ObjectiveKind::DriftScore, 0.25),
];

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
    /// Evaluation timestamp (µs on the hub's clock).
    pub ts: u64,
    /// Worst per-objective health.
    pub health: Health,
    /// Every objective's detail.
    pub objectives: Vec<ObjectiveStatus>,
}

impl SloReport {
    /// The `/healthz` body: `ok`, or `degraded: r1; r2` — the reasons of
    /// every non-ok objective — on one line.
    pub fn healthz_body(&self) -> String {
        let reasons: Vec<&str> = self
            .objectives
            .iter()
            .filter_map(|o| o.reason.as_deref())
            .collect();
        match self.health {
            Health::Ok => "ok\n".to_string(),
            h => format!("{}: {}\n", h.name(), reasons.join("; ")),
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
    kind: ObjectiveKind,
    target: f64,
    samples: VecDeque<Sample>,
    last_ts: Option<u64>,
}

impl ObjectiveWindow {
    /// Budget consumed in the window ending at `now`, relative to the
    /// budget `target` allows over the whole window.
    fn burn(&self, now: u64, window: u64) -> f64 {
        let lo = now.saturating_sub(window);
        let mut consumed = 0.0;
        for s in &self.samples {
            let overlap = s.to.min(now).saturating_sub(s.from.max(lo));
            if overlap > 0 {
                consumed += s.value * overlap as f64;
            }
        }
        consumed / window as f64 / self.target
    }
}

/// Counter families whose increments mean "a record/event was lost".
const DROP_COUNTERS: [&str; 3] = [
    "cgc_ingest_dropped_total",
    "cgc_journal_dropped_events_total",
    "cgc_trace_dropped_spans_total",
];

/// Counter families whose increments mean "a record/event was accepted".
const ACCEPT_COUNTERS: [&str; 3] = [
    "cgc_ingest_enqueued_total",
    "cgc_journal_events_total",
    "cgc_trace_spans_total",
];

/// The burn windows, and what deriving their values from consecutive
/// snapshots needs to remember.
struct State {
    windows: Vec<ObjectiveWindow>,
    prev: Option<Snapshot>,
    last_slots_total: u64,
    last_advance_us: Option<u64>,
}

impl State {
    fn new() -> State {
        State {
            windows: OBJECTIVES
                .iter()
                .map(|&(kind, target)| ObjectiveWindow {
                    kind,
                    target,
                    samples: VecDeque::new(),
                    last_ts: None,
                })
                .collect(),
            prev: None,
            last_slots_total: 0,
            last_advance_us: None,
        }
    }

    /// Records `value` for `kind`, covering the interval since the
    /// previous observation of the same kind (the first observation is
    /// zero-width — it only starts the clock, matching pull-based delta
    /// semantics where the first delta is undefined).
    fn observe(&mut self, now_us: u64, kind: ObjectiveKind, value: f64) {
        let w = &mut self.windows[kind as usize];
        let from = w.last_ts.unwrap_or(now_us).min(now_us);
        w.samples.push_back(Sample {
            from,
            to: now_us,
            value,
        });
        w.last_ts = Some(now_us);
        let horizon = now_us.saturating_sub(SLOW_WINDOW_US);
        while w.samples.front().is_some_and(|s| s.to <= horizon) {
            w.samples.pop_front();
        }
    }

    /// Observes every objective value derivable from `snap` (deltas
    /// against the previous snapshot where the signal is a rate): anything
    /// the metrics already count is enough.
    fn observe_snapshot(&mut self, now_us: u64, snap: &Snapshot) {
        let gauges = |name: &'static str| {
            snap.metrics
                .iter()
                .filter(move |m| m.name == name)
                .filter_map(|m| match m.value {
                    MetricValue::Gauge(v) => Some(v),
                    _ => None,
                })
        };
        match &self.prev {
            // Baseline: no deltas to judge yet, but start the rate
            // objectives' interval clocks so the first real delta covers
            // the full baseline→now interval instead of zero width.
            None => {
                self.observe(now_us, ObjectiveKind::DropRatio, 0.0);
                self.observe(now_us, ObjectiveKind::HandoffP99Us, 0.0);
            }
            Some(prev) => {
                let d = snap.delta(prev);
                let dropped: u64 = DROP_COUNTERS.iter().filter_map(|n| d.counter(n)).sum();
                let accepted: u64 = ACCEPT_COUNTERS.iter().filter_map(|n| d.counter(n)).sum();
                let total = dropped + accepted;
                let ratio = if total == 0 {
                    0.0
                } else {
                    dropped as f64 / total as f64
                };
                self.observe(now_us, ObjectiveKind::DropRatio, ratio);
                if let Some(p99_ns) = d
                    .histogram("cgc_monitor_batch_ns")
                    .and_then(|h| h.quantile(0.99))
                {
                    self.observe(now_us, ObjectiveKind::HandoffP99Us, p99_ns / 1_000.0);
                }
            }
        }
        // Saturation reads instantaneous gauges: the deepest queue as a
        // fraction of the per-queue capacity gauge.
        let capacity = snap.gauge("cgc_ingest_queue_capacity").unwrap_or(0);
        if capacity > 0 {
            let deepest = gauges("cgc_ingest_queue_depth").max().unwrap_or(0);
            let saturation = (deepest.max(0) as f64 / capacity as f64).clamp(0.0, 1.0);
            self.observe(now_us, ObjectiveKind::QueueSaturation, saturation);
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
        self.observe(
            now_us,
            ObjectiveKind::ClassifierStalenessUs,
            staleness as f64,
        );
        // Quality: worst rolling error across the models whose windows
        // actually hold truth-joined samples (an empty window is not
        // evidence of accuracy). Each accuracy series pairs with the
        // window_len series of the same full label set, so extra labels
        // (e.g. an impairment `profile`) never silently break the pairing.
        let worst_error = snap
            .metrics
            .iter()
            .filter(|m| m.name == "cgc_quality_accuracy_pct")
            .filter(|m| {
                snap.metrics.iter().any(|w| {
                    w.name == "cgc_quality_window_len"
                        && w.labels == m.labels
                        && matches!(w.value, MetricValue::Gauge(v) if v > 0)
                })
            })
            .filter_map(|m| match m.value {
                MetricValue::Gauge(pct) => Some((1.0 - pct as f64 / 100.0).clamp(0.0, 1.0)),
                _ => None,
            })
            .reduce(f64::max);
        if let Some(err) = worst_error {
            self.observe(now_us, ObjectiveKind::QualityErrorRatio, err);
        }
        // Drift: worst label-free score across models (milli-gauge → PSI
        // units). Present whenever a drift engine is registered; zero
        // during warmup, so installing the engine never alarms by itself.
        let worst_drift = gauges("cgc_drift_score_milli")
            .map(|v| v.max(0) as f64 / 1000.0)
            .reduce(f64::max);
        if let Some(score) = worst_drift {
            self.observe(now_us, ObjectiveKind::DriftScore, score);
        }
        self.prev = Some(snap.clone());
    }

    /// Evaluates every objective's fast/slow burn at `now_us`.
    fn evaluate(&self, now_us: u64) -> SloReport {
        let objectives: Vec<ObjectiveStatus> = self
            .windows
            .iter()
            .map(|w| {
                let burn_fast = w.burn(now_us, FAST_WINDOW_US);
                let burn_slow = w.burn(now_us, SLOW_WINDOW_US);
                let health = if burn_fast >= CRITICAL_FACTOR && burn_slow >= 1.0 {
                    Health::Critical
                } else if burn_fast >= 1.0 {
                    Health::Degraded
                } else {
                    Health::Ok
                };
                let reason = (health != Health::Ok).then(|| {
                    format!(
                        "{} burning {:.1}x fast / {:.1}x slow (target {})",
                        w.kind.name(),
                        burn_fast,
                        burn_slow,
                        w.target
                    )
                });
                ObjectiveStatus {
                    kind: w.kind,
                    target: w.target,
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
            health: objectives
                .iter()
                .map(|o| o.health)
                .max()
                .unwrap_or(Health::Ok),
            objectives,
        }
    }
}

/// Rolling-window burn-rate health on a clock: the telemetry server's
/// `/healthz` and `/slo`, and the fleet reporter, all call
/// [`SloHub::observe_and_evaluate`] with a fresh snapshot. Clock-agnostic:
/// the clock may be the fleet's virtual one or real time.
pub struct SloHub {
    state: Mutex<State>,
    now: Box<dyn Fn() -> u64 + Send + Sync>,
}

impl SloHub {
    /// A hub on an explicit clock in µs (pass the fleet's virtual clock
    /// here).
    pub fn new(now: impl Fn() -> u64 + Send + Sync + 'static) -> Self {
        SloHub {
            state: Mutex::new(State::new()),
            now: Box::new(now),
        }
    }

    /// A hub on real time (µs since the hub was built).
    pub fn real_time() -> Self {
        let start = std::time::Instant::now();
        Self::new(move || start.elapsed().as_micros() as u64)
    }

    /// Observes `snap` and evaluates, all under one lock
    /// (poison-recovering: a panicked scraper must not wedge health).
    pub fn observe_and_evaluate(&self, snap: &Snapshot) -> SloReport {
        let now = (self.now)();
        let mut state = crate::channel::lock(&self.state);
        state.observe_snapshot(now, snap);
        state.evaluate(now)
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

    fn status(report: &SloReport, kind: ObjectiveKind) -> &ObjectiveStatus {
        report.objectives.iter().find(|o| o.kind == kind).unwrap()
    }

    #[test]
    fn objectives_are_indexed_by_kind() {
        for (i, (kind, _)) in OBJECTIVES.iter().enumerate() {
            assert_eq!(*kind as usize, i, "{kind}");
        }
    }

    #[test]
    fn quiet_engine_is_ok() {
        let mut engine = State::new();
        engine.observe(0, ObjectiveKind::DropRatio, 0.0);
        engine.observe(MIN, ObjectiveKind::DropRatio, 0.0);
        let report = engine.evaluate(MIN);
        assert_eq!(report.health, Health::Ok);
        assert_eq!(report.healthz_body(), "ok\n");
    }

    #[test]
    fn drop_burst_degrades_then_recovers_as_the_window_slides() {
        let mut engine = State::new();
        engine.observe(0, ObjectiveKind::DropRatio, 0.0); // baseline
                                                          // One minute at 20% drops: fast burn = 0.2·(60/300)/0.01 = 4.
        engine.observe(MIN, ObjectiveKind::DropRatio, 0.2);
        let burst = engine.evaluate(MIN);
        assert_eq!(burst.health, Health::Degraded, "{burst:?}");
        let drops = status(&burst, ObjectiveKind::DropRatio);
        assert!(drops.burn_fast > 1.0, "{drops:?}");
        assert!(
            burst.healthz_body().starts_with("degraded: drop_ratio"),
            "{}",
            burst.healthz_body()
        );
        // The burst slides out of the 5m fast window: ok again, with no
        // further observations needed.
        let recovered = engine.evaluate(MIN + 6 * MIN);
        assert_eq!(recovered.health, Health::Ok, "{recovered:?}");
        assert!(status(&recovered, ObjectiveKind::DropRatio).burn_fast < 1.0);
    }

    #[test]
    fn sustained_burn_escalates_to_critical() {
        let mut engine = State::new();
        engine.observe(0, ObjectiveKind::QueueSaturation, 0.0);
        // Saturated queues for 70 minutes straight: the slow window is
        // fully burnt and the fast window far past the critical factor.
        for m in 1..=70u64 {
            engine.observe(m * MIN, ObjectiveKind::QueueSaturation, 1.0);
        }
        let report = engine.evaluate(70 * MIN);
        assert_eq!(report.health, Health::Critical, "{report:?}");
        let saturation = status(&report, ObjectiveKind::QueueSaturation);
        assert!(saturation.burn_slow >= 1.0, "{saturation:?}");
        assert!(saturation.burn_fast >= 2.0, "{saturation:?}");
        assert!(report.healthz_body().starts_with("critical:"));
    }

    #[test]
    fn short_burst_never_escalates_past_degraded() {
        // The multi-window rule: a burst that blows the fast window past
        // the critical factor but not the hour budget stays a
        // degradation.
        let mut engine = State::new();
        engine.observe(0, ObjectiveKind::QueueSaturation, 0.0);
        engine.observe(5 * MIN, ObjectiveKind::QueueSaturation, 1.0);
        let report = engine.evaluate(5 * MIN);
        assert_eq!(report.health, Health::Degraded, "{report:?}");
        let saturation = status(&report, ObjectiveKind::QueueSaturation);
        assert!(saturation.burn_fast >= 2.0, "{report:?}");
        assert!(saturation.burn_slow < 1.0, "{report:?}");
    }

    #[test]
    fn snapshots_derive_drop_ratio_from_counter_deltas() {
        let registry = Registry::new();
        let enq = registry.counter("cgc_ingest_enqueued_total", "t");
        let dropped = registry.counter_with(
            "cgc_ingest_dropped_total",
            "t",
            &[("policy", "drop_oldest")],
        );
        let mut engine = State::new();
        enq.add(100);
        engine.observe_snapshot(0, &registry.snapshot()); // baseline
                                                          // Interval: 80 accepted, 20 dropped → ratio 0.2 over one minute.
        enq.add(80);
        dropped.add(20);
        engine.observe_snapshot(MIN, &registry.snapshot());
        let report = engine.evaluate(MIN);
        assert_eq!(report.health, Health::Degraded, "{report:?}");
        let drops = status(&report, ObjectiveKind::DropRatio);
        assert!((drops.last - 0.2).abs() < 1e-9, "{report:?}");
    }

    #[test]
    fn snapshots_derive_saturation_and_staleness() {
        let registry = Registry::new();
        registry
            .gauge("cgc_ingest_queue_capacity", "cap")
            .set(1_000);
        let depth = registry.gauge_with("cgc_ingest_queue_depth", "d", &[("shard", "0")]);
        let slots = registry.counter("cgc_pipeline_slots_total", "s");
        let active = registry.gauge("cgc_monitor_active_flows", "a");
        let mut engine = State::new();
        depth.set(900);
        active.set(5);
        slots.add(1);
        engine.observe_snapshot(0, &registry.snapshot());
        // Slots stopped advancing while flows stayed active: staleness
        // grows; the queue sits at 90% of capacity.
        engine.observe_snapshot(2 * MIN, &registry.snapshot());
        let report = engine.evaluate(2 * MIN);
        let sat = status(&report, ObjectiveKind::QueueSaturation);
        assert!((sat.last - 0.9).abs() < 1e-9, "{sat:?}");
        let stale = status(&report, ObjectiveKind::ClassifierStalenessUs);
        assert!((stale.last - (2 * MIN) as f64).abs() < 1.0, "{stale:?}");
        // Slot production resumes: staleness resets.
        slots.add(1);
        engine.observe_snapshot(3 * MIN, &registry.snapshot());
        let report = engine.evaluate(3 * MIN);
        let stale = status(&report, ObjectiveKind::ClassifierStalenessUs);
        assert_eq!(stale.last, 0.0, "{report:?}");
    }

    #[test]
    fn snapshots_derive_quality_error_from_accuracy_gauges() {
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
        let mut engine = State::new();
        acc_title.set(95);
        len_title.set(256);
        engine.observe_snapshot(0, &registry.snapshot());
        engine.observe_snapshot(MIN, &registry.snapshot());
        let report = engine.evaluate(MIN);
        assert_eq!(report.health, Health::Ok, "{report:?}");
        let error = status(&report, ObjectiveKind::QualityErrorRatio);
        assert!((error.last - 0.05).abs() < 1e-9, "{report:?}");
        // Accuracy collapses: sustained error past the floor degrades.
        acc_title.set(40);
        for m in 2..=7u64 {
            engine.observe_snapshot(m * MIN, &registry.snapshot());
        }
        let report = engine.evaluate(7 * MIN);
        assert_eq!(report.health, Health::Degraded, "{report:?}");
        assert!(report
            .healthz_body()
            .starts_with("degraded: quality_error_ratio"));
    }

    #[test]
    fn snapshots_derive_drift_score_from_milli_gauges() {
        let registry = Registry::new();
        let title = registry.gauge_with("cgc_drift_score_milli", "d", &[("model", "title")]);
        registry
            .gauge_with("cgc_drift_score_milli", "d", &[("model", "stage")])
            .set(10);
        let mut engine = State::new();
        title.set(0); // warmup: engine installed, nothing scored yet
        engine.observe_snapshot(0, &registry.snapshot());
        engine.observe_snapshot(MIN, &registry.snapshot());
        assert_eq!(engine.evaluate(MIN).health, Health::Ok);
        // The worst model's score crosses the ceiling and stays there.
        title.set(600);
        for m in 2..=7u64 {
            engine.observe_snapshot(m * MIN, &registry.snapshot());
        }
        let report = engine.evaluate(7 * MIN);
        assert_eq!(report.health, Health::Degraded, "{report:?}");
        let drift = status(&report, ObjectiveKind::DriftScore);
        assert!((drift.last - 0.6).abs() < 1e-9, "{report:?}");
        assert!(report.healthz_body().starts_with("degraded: drift_score"));
    }

    #[test]
    fn hub_runs_on_an_injected_clock() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let clock = Arc::new(AtomicU64::new(0));
        let tick = Arc::clone(&clock);
        let hub = SloHub::new(move || tick.load(Ordering::Relaxed));
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
        let later = crate::channel::lock(&hub.state).evaluate(8 * MIN);
        assert_eq!(later.health, Health::Ok);
    }
}
