//! Pipeline telemetry: monitor/shard health and per-stage inference
//! metrics, registered with `cgc-obs`.
//!
//! Two handle sets cover the core crate's live path:
//!
//! * [`MonitorMetrics`] — tap front-end health (packets in/dropped, flow
//!   table occupancy, expiry-wheel evictions, batch counts/latency).
//!   These unify the per-monitor [`ShardStats`](crate::monitor::ShardStats)
//!   counters into process-wide series.
//! * [`PipelineMetrics`] — classifier-stage metrics (feature-extraction
//!   and RF-inference latency histograms, title/stage/pattern decision
//!   counts by label, confidence distributions, QoE calibration flips).
//!
//! Handles are `Arc`s resolved once per monitor/analyzer; recording is a
//! relaxed atomic op. Both sets travel, with the three hot-path sinks,
//! in one [`Obs`] context handed to [`TapMonitor`](crate::TapMonitor),
//! [`ShardedTapMonitor`](crate::ShardedTapMonitor) and
//! [`SessionAnalyzer`](crate::SessionAnalyzer) at construction:
//! [`Obs::on`] a private [`Registry`] for exact assertions, or the cached
//! [`Obs::global`].

use cgc_domain::{ActivityPattern, GameTitle, QoeLevel, Stage};
use cgc_obs::quality::slug;
use cgc_obs::{Counter, DriftSink, EventSink, Gauge, Histogram, Registry, TraceSink};
use std::sync::{Arc, OnceLock};

/// Everything the live path records into: where its metrics go and which
/// journal, trace and drift sinks its decisions feed. Built once by
/// whoever owns the run (the CLI's `main`, a fleet driver, a test) and
/// passed down at construction; nothing on the live path reaches for a
/// process-global sink.
///
/// ```
/// use cgc_core::Obs;
/// use cgc_obs::{Journal, JournalConfig, Registry};
///
/// let registry = Registry::new();
/// let (sink, _journal) = Journal::new(JournalConfig::default(), &registry);
/// let obs = Obs {
///     journal: sink,
///     ..Obs::on(&registry)
/// };
/// assert!(obs.journal.is_enabled() && !obs.trace.is_enabled());
/// ```
#[derive(Debug, Clone)]
pub struct Obs {
    /// Tap front-end health series.
    pub monitor: MonitorMetrics,
    /// Classifier-stage series.
    pub pipeline: PipelineMetrics,
    /// Flight recorder: flow lifecycle and decision events.
    pub journal: EventSink,
    /// Span recorder: Shard/Slot/Classifier/Verdict stage crossings.
    pub trace: TraceSink,
    /// Label-free drift detection: every inference's score pair.
    pub drift: DriftSink,
}

impl Obs {
    /// Metrics registered on `registry`, every sink disabled (each costs
    /// one branch per decision until replaced by a live one).
    pub fn on(registry: &Registry) -> Obs {
        Obs {
            monitor: MonitorMetrics::register(registry),
            pipeline: PipelineMetrics::register(registry),
            journal: EventSink::disabled(),
            trace: TraceSink::disabled(),
            drift: DriftSink::disabled(),
        }
    }

    /// [`Obs::on`] the process-wide [`Registry::global`], built once and
    /// shared.
    pub fn global() -> Arc<Obs> {
        static GLOBAL: OnceLock<Arc<Obs>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(Obs::on(Registry::global()))))
    }
}

/// Tap front-end (monitor + shard) telemetry handles.
#[derive(Debug, Clone)]
pub struct MonitorMetrics {
    /// Packets accepted into some flow's analyzer
    /// (`cgc_monitor_ingested_packets_total`).
    pub ingested: Arc<Counter>,
    /// Packets dropped by the platform filter
    /// (`cgc_monitor_ignored_packets_total`).
    pub ignored: Arc<Counter>,
    /// Flows currently tracked across all monitors
    /// (`cgc_monitor_active_flows`).
    pub active_flows: Arc<Gauge>,
    /// Flows finalized for any reason (`cgc_monitor_finalized_flows_total`).
    pub finalized: Arc<Counter>,
    /// Flows finalized early at the table cap
    /// (`cgc_monitor_evicted_flows_total`).
    pub evicted: Arc<Counter>,
    /// Expiry-wheel entries examined
    /// (`cgc_monitor_expiry_entries_scanned_total`).
    pub expiry_scanned: Arc<Counter>,
    /// Record batches processed (`cgc_monitor_batches_total`).
    pub batches: Arc<Counter>,
    /// Wall time per ingested batch, nanoseconds
    /// (`cgc_monitor_batch_ns`).
    pub batch_ns: Arc<Histogram>,
}

impl MonitorMetrics {
    /// Register (or look up) the monitor series in `registry`.
    pub fn register(registry: &Registry) -> Self {
        Self {
            ingested: registry.counter(
                "cgc_monitor_ingested_packets_total",
                "Packets accepted into a flow analyzer at the tap",
            ),
            ignored: registry.counter(
                "cgc_monitor_ignored_packets_total",
                "Packets dropped for lacking a platform signature or failing the pre-filter",
            ),
            active_flows: registry.gauge(
                "cgc_monitor_active_flows",
                "Flows currently tracked across all tap monitors",
            ),
            finalized: registry.counter(
                "cgc_monitor_finalized_flows_total",
                "Flows finalized for any reason (idle, drain or eviction)",
            ),
            evicted: registry.counter(
                "cgc_monitor_evicted_flows_total",
                "Flows finalized early because the flow table hit max_flows",
            ),
            expiry_scanned: registry.counter(
                "cgc_monitor_expiry_entries_scanned_total",
                "Expiry-wheel entries examined while finding idle/evictable flows",
            ),
            batches: registry.counter(
                "cgc_monitor_batches_total",
                "Record batches processed by the sharded front end",
            ),
            batch_ns: registry.histogram(
                "cgc_monitor_batch_ns",
                "Wall time to ingest one record batch, nanoseconds",
            ),
        }
    }

    /// Per-shard queue-depth gauge (`cgc_shard_queue_depth{shard="i"}`),
    /// created on demand by the sharded front end.
    pub fn shard_queue_depth(registry: &Registry, shard: usize) -> Arc<Gauge> {
        registry.gauge_with(
            "cgc_shard_queue_depth",
            "Batches in flight to a shard worker (sent, not yet processed)",
            &[("shard", &shard.to_string())],
        )
    }
}

/// Classifier-stage telemetry handles.
#[derive(Debug, Clone)]
pub struct PipelineMetrics {
    /// Volumetric slots pushed through analyzers
    /// (`cgc_pipeline_slots_total`).
    pub slots: Arc<Counter>,
    /// Slot decisions by stage label, indexed by
    /// [`Stage::class_id`] (`cgc_pipeline_stage_slots_total{stage=}`).
    pub stage_slots: [Arc<Counter>; Stage::ALL.len()],
    /// Per-slot feature-extraction wall time, nanoseconds
    /// (`cgc_pipeline_feature_ns`).
    pub feature_ns: Arc<Histogram>,
    /// Per-slot stage RF inference wall time, nanoseconds
    /// (`cgc_pipeline_stage_infer_ns`).
    pub stage_infer_ns: Arc<Histogram>,
    /// Title RF inference wall time, nanoseconds
    /// (`cgc_pipeline_title_infer_ns`).
    pub title_infer_ns: Arc<Histogram>,
    /// Title decisions by label, indexed by [`GameTitle::index`]
    /// (`cgc_pipeline_title_decisions_total{title=}`).
    pub title_decisions: [Arc<Counter>; GameTitle::ALL.len()],
    /// Title decisions reported unknown
    /// (`cgc_pipeline_title_decisions_total{title="unknown"}`).
    pub title_unknown: Arc<Counter>,
    /// Title decision confidence, percent
    /// (`cgc_pipeline_title_confidence_pct`).
    pub title_confidence_pct: Arc<Histogram>,
    /// Confident pattern decisions by label, indexed by
    /// [`ActivityPattern::index`] (`cgc_pattern_decisions_total{pattern=}`).
    pub pattern_decisions: [Arc<Counter>; ActivityPattern::ALL.len()],
    /// Pattern decision confidence, percent
    /// (`cgc_pattern_confidence_pct`).
    pub pattern_confidence_pct: Arc<Histogram>,
    /// Per-slot objective QoE labels, indexed worst-to-best
    /// (`cgc_qoe_slots_total{kind="objective",level=}`).
    pub qoe_objective: [Arc<Counter>; QoeLevel::ALL.len()],
    /// Per-slot effective QoE labels, indexed worst-to-best
    /// (`cgc_qoe_slots_total{kind="effective",level=}`).
    pub qoe_effective: [Arc<Counter>; QoeLevel::ALL.len()],
    /// Slots where context calibration *raised* the label
    /// (`cgc_qoe_rescued_slots_total`).
    pub qoe_rescued: Arc<Counter>,
    /// Slots where context calibration *lowered* the label
    /// (`cgc_qoe_demoted_slots_total`).
    pub qoe_demoted: Arc<Counter>,
}

impl PipelineMetrics {
    /// Register (or look up) the classifier-stage series in `registry`.
    pub fn register(registry: &Registry) -> Self {
        let stage_slots = Stage::ALL.map(|s| {
            registry.counter_with(
                "cgc_pipeline_stage_slots_total",
                "Slot decisions by classified activity stage",
                &[("stage", &s.to_string())],
            )
        });
        let title_decisions = GameTitle::ALL.map(|t| {
            registry.counter_with(
                "cgc_pipeline_title_decisions_total",
                "Title process decisions by classified label",
                &[("title", &slug(t.name()))],
            )
        });
        let title_unknown = registry.counter_with(
            "cgc_pipeline_title_decisions_total",
            "Title process decisions by classified label",
            &[("title", "unknown")],
        );
        let pattern_decisions = ActivityPattern::ALL.map(|p| {
            registry.counter_with(
                "cgc_pattern_decisions_total",
                "Confident activity-pattern decisions by label",
                &[("pattern", &slug(&p.to_string()))],
            )
        });
        let qoe_level = |kind: &str| {
            QoeLevel::ALL.map(|l| {
                registry.counter_with(
                    "cgc_qoe_slots_total",
                    "Per-slot QoE labels by kind and level",
                    &[("kind", kind), ("level", &l.to_string())],
                )
            })
        };
        Self {
            slots: registry.counter(
                "cgc_pipeline_slots_total",
                "Volumetric slots pushed through session analyzers",
            ),
            stage_slots,
            feature_ns: registry.histogram(
                "cgc_pipeline_feature_ns",
                "Per-slot stage feature extraction wall time, nanoseconds",
            ),
            stage_infer_ns: registry.histogram(
                "cgc_pipeline_stage_infer_ns",
                "Per-slot stage RF inference wall time, nanoseconds",
            ),
            title_infer_ns: registry.histogram(
                "cgc_pipeline_title_infer_ns",
                "Title RF inference wall time, nanoseconds",
            ),
            title_decisions,
            title_unknown,
            title_confidence_pct: registry.histogram(
                "cgc_pipeline_title_confidence_pct",
                "Title decision confidence, percent",
            ),
            pattern_decisions,
            pattern_confidence_pct: registry.histogram(
                "cgc_pattern_confidence_pct",
                "Pattern decision confidence at decision time, percent",
            ),
            qoe_objective: qoe_level("objective"),
            qoe_effective: qoe_level("effective"),
            qoe_rescued: registry.counter(
                "cgc_qoe_rescued_slots_total",
                "Slots where context calibration raised the QoE label above objective",
            ),
            qoe_demoted: registry.counter(
                "cgc_qoe_demoted_slots_total",
                "Slots where context calibration lowered the QoE label below objective",
            ),
        }
    }

    /// Record one slot's stage decision.
    pub fn record_stage_slot(&self, stage: Stage) {
        let i = Stage::ALL.iter().position(|s| *s == stage).expect("stage");
        self.stage_slots[i].inc();
    }

    /// Record a title decision (label counter + confidence sample).
    pub fn record_title(&self, title: Option<GameTitle>, confidence: f64) {
        match title {
            Some(t) => self.title_decisions[t.index()].inc(),
            None => self.title_unknown.inc(),
        }
        self.title_confidence_pct
            .record((confidence * 100.0).round().max(0.0) as u64);
    }

    /// Record a confident pattern decision.
    pub fn record_pattern(&self, pattern: ActivityPattern, confidence: f64) {
        self.pattern_decisions[pattern.index()].inc();
        self.pattern_confidence_pct
            .record((confidence * 100.0).round().max(0.0) as u64);
    }

    /// Record one closed slot's QoE labels and any calibration flip.
    pub fn record_qoe(&self, objective: QoeLevel, effective: QoeLevel) {
        let idx = |l: QoeLevel| QoeLevel::ALL.iter().position(|x| *x == l).expect("level");
        self.qoe_objective[idx(objective)].inc();
        self.qoe_effective[idx(effective)].inc();
        match effective.cmp(&objective) {
            std::cmp::Ordering::Greater => self.qoe_rescued.inc(),
            std::cmp::Ordering::Less => self.qoe_demoted.inc(),
            std::cmp::Ordering::Equal => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_register_is_idempotent() {
        let r = Registry::new();
        let a = MonitorMetrics::register(&r);
        let b = MonitorMetrics::register(&r);
        a.ingested.inc();
        b.ingested.inc();
        assert_eq!(a.ingested.get(), 2);
    }

    #[test]
    fn pipeline_register_creates_labelled_families() {
        let r = Registry::new();
        let m = PipelineMetrics::register(&r);
        m.record_title(Some(GameTitle::Fortnite), 0.9);
        m.record_title(None, 0.3);
        m.record_pattern(ActivityPattern::ContinuousPlay, 0.8);
        m.record_qoe(QoeLevel::Bad, QoeLevel::Good);
        m.record_qoe(QoeLevel::Good, QoeLevel::Good);
        let snap = r.snapshot();
        assert_eq!(snap.counter("cgc_pipeline_title_decisions_total"), Some(2));
        assert!(snap
            .get_with(
                "cgc_pipeline_title_decisions_total",
                &[("title", "unknown")]
            )
            .is_some());
        assert_eq!(snap.counter("cgc_pattern_decisions_total"), Some(1));
        assert_eq!(snap.counter("cgc_qoe_rescued_slots_total"), Some(1));
        assert_eq!(snap.counter("cgc_qoe_demoted_slots_total"), Some(0));
        assert_eq!(snap.counter("cgc_qoe_slots_total"), Some(4));
        assert_eq!(
            snap.histogram("cgc_pipeline_title_confidence_pct")
                .unwrap()
                .count,
            2
        );
    }

    #[test]
    fn shard_gauges_are_distinct_series() {
        let r = Registry::new();
        let g0 = MonitorMetrics::shard_queue_depth(&r, 0);
        let g1 = MonitorMetrics::shard_queue_depth(&r, 1);
        g0.inc();
        g1.add(2);
        let snap = r.snapshot();
        assert_eq!(snap.gauge("cgc_shard_queue_depth"), Some(3));
    }
}
