//! # cgc-core — the cloud gaming context classification pipeline
//!
//! The paper's primary contribution (Fig. 6): a real-time network traffic
//! analysis method that classifies the *context* of cloud game streaming
//! sessions — game title, player activity stage and gameplay activity
//! pattern — and uses it to turn objective QoE into **effective QoE**.
//!
//! * [`filter`] — selects cloud game streaming flows (platform port
//!   signatures + RTP validation + volumetric confirmation).
//! * [`title`] — classifies the game title from the first `N = 5` seconds
//!   of launch traffic with a Random Forest over packet-group attributes;
//!   low-confidence results are reported *unknown*.
//! * [`stage`] — continuously classifies the player activity stage per
//!   `I = 1` second slot from EMA-smoothed peak-relative volumetrics.
//! * [`pattern`] — infers the gameplay activity pattern from the 3×3 stage
//!   transition matrix once confidence exceeds 75 %.
//! * [`qoe`] — objective QoE from fixed expected ranges, effective QoE
//!   from context-calibrated ranges.
//! * [`pipeline`] — [`pipeline::SessionAnalyzer`] wires everything
//!   together per session.
//! * [`monitor`] — [`monitor::TapMonitor`] demultiplexes an interleaved
//!   tap feed into per-flow analyzers (the deployment front end).
//! * [`expiry`] — [`expiry::ExpiryWheel`], the bucketed idle-expiry queue
//!   behind the monitor's O(due) `finish_idle` and LRU eviction.
//! * [`shard`] — [`shard::ShardedTapMonitor`], the parallel front end:
//!   flows hashed across worker shards, each running its own monitor.
//! * [`bundle`] — serializable trained-model bundles.
//!
//! Training helpers live in `cgc-deploy` (they need the traffic
//! generator); this crate is inference-only and depends only on the
//! feature extractors and `mlcore`.

#![warn(missing_docs)]

pub mod bundle;
pub mod expiry;
pub mod filter;
pub mod metrics;
pub mod monitor;
pub mod pattern;
pub mod pipeline;
pub mod qoe;
pub mod shard;
pub mod stage;
pub mod title;
mod wordhash;

pub use bundle::{ModelBundle, ModelSource};
pub use expiry::ExpiryWheel;
pub use filter::Platform;
pub use metrics::{MonitorMetrics, Obs, PipelineMetrics};
pub use monitor::{MonitorConfig, MonitoredSession, ShardStats, TapMonitor};
pub use pattern::{PatternInferrer, PatternInferrerConfig, PatternPrediction, PatternTracker};
pub use pipeline::{AnalyzerConfig, QoeInputs, SessionAnalyzer, SessionReport};
pub use qoe::{
    effective_qoe, objective_qoe, CalibrationTable, GameContext, ObjectiveThresholds, QosMetrics,
};
pub use shard::{MonitorStats, ShardedMonitorConfig, ShardedTapMonitor, SharedModels, TapRecord};
pub use stage::{StageClassifier, StageClassifierConfig, STAGE_CLASSES};
pub use title::{TitleClassifier, TitleClassifierConfig, TitlePrediction};
