//! `cgc-obs` — pipeline-wide telemetry core for the gamescope stack.
//!
//! Every stage of the live path (packet ingest, flow monitoring, slot
//! feature extraction, RF inference, QoE calibration) records into
//! handles obtained from a [`Registry`] — the process-wide one via
//! [`Registry::global`], or an injected one for deterministic tests.
//!
//! Design constraints, in order:
//!
//! 1. **Allocation-free hot path.** Recording into a [`Counter`],
//!    [`Gauge`], or [`Histogram`] is a few relaxed atomic ops on
//!    pre-registered handles; the registry lock is only touched at
//!    registration and snapshot time.
//! 2. **Shard-friendly.** Counters and gauges are cache-line aligned so
//!    per-shard handles never false-share; histograms are lock-free.
//! 3. **Two export formats.** Prometheus text exposition for scraping
//!    ([`export::prometheus`]) and pretty JSON matching the artifact
//!    format used by `deploy::report` ([`export::json`]).
//! 4. **A flight recorder, not just aggregates.** Decision points emit
//!    typed [`Event`]s through an [`EventSink`]; a [`Journal`] consumer
//!    materializes per-flow decision timelines, and
//!    [`serve::TelemetryServer`] exposes `/metrics`, `/healthz`, and
//!    `/journal` over plain HTTP with zero dependencies. Every such
//!    stream — events, spans, quality samples, drift observations —
//!    travels the one [`channel`]: lock-free bounded ring, shedding that
//!    is counted and never silent, a drain, an optional off-thread
//!    [`Pump`]. Sinks are injected, never process-global.
//! 5. **Causal tracing and health, linked to the metrics.** Stage
//!    boundaries record [`trace::SpanRecord`]s through a sampled
//!    [`TraceSink`] (`/trace`, exemplars on latency histograms), and
//!    [`slo::SloEngine`] evaluates rolling multi-window burn rates
//!    behind `/healthz` and `/slo`.
//! 6. **Model quality is a metric too.** Where ground truth exists,
//!    [`quality::QualityHub`] turns streamed (predicted, truth) pairs
//!    into rolling per-class accuracy/precision/recall gauges; where it
//!    doesn't, [`drift::DriftEngine`] watches the classifiers' own score
//!    distributions for PSI/KS drift and unknown-title novelty
//!    (`/quality`, `/drift`, and two quality SLO objectives).
//!
//! ```
//! use cgc_obs::{export, Registry};
//!
//! let registry = Registry::new(); // or Registry::global()
//! let packets = registry.counter("cgc_trace_packets_total", "Packets seen");
//! let latency = registry.histogram("cgc_pipeline_feature_ns", "Feature extraction time");
//!
//! packets.inc();
//! {
//!     let _span = latency.span(); // records elapsed ns on drop
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("cgc_trace_packets_total"), Some(1));
//! assert!(export::prometheus(&snap).contains("# TYPE cgc_trace_packets_total counter"));
//! ```

#![warn(missing_docs)]

pub mod build;
pub mod channel;
pub mod drift;
pub mod event;
pub mod export;
pub mod hist;
pub mod journal;
pub mod metric;
pub mod quality;
pub mod registry;
pub mod serve;
pub mod slo;
pub mod snapshot;
mod timeline;
pub mod timer;
pub mod trace;

pub use build::BuildInfo;
pub use channel::{lock, Channel, Drain, Pump, Sink};
pub use drift::{DriftConfig, DriftEngine, DriftReport, DriftSink};
pub use event::{CloseCause, Event, EventKind, EventRing, FlowAddr};
pub use hist::Histogram;
pub use journal::{EventSink, FlowTimeline, Journal, JournalConfig};
pub use metric::{Counter, Gauge};
pub use quality::{ModelKind, QualityConfig, QualityHub, QualityReport, QualitySink};
pub use registry::Registry;
pub use serve::{ServeOptions, TelemetryServer};
pub use slo::{Health, Objective, ObjectiveKind, SloConfig, SloEngine, SloHub, SloReport};
pub use snapshot::{
    ExemplarSnapshot, HistBucket, HistogramSnapshot, MetricSnapshot, MetricValue, Snapshot,
};
pub use timer::{span, Span};
pub use trace::{SpanRecord, TraceCollector, TraceConfig, TraceSink, TraceStage, TraceTimeline};
