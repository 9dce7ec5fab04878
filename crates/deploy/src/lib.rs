//! # cgc-deploy — training and ISP-scale deployment simulation
//!
//! The operational half of the reproduction:
//!
//! * [`train`] — builds labeled datasets from the `gamesim` traffic
//!   generator (launch attributes per title, per-slot stage features,
//!   per-session transition features) and trains a complete
//!   [`cgc_core::ModelBundle`], including the variation-based augmentation
//!   of §4.4.
//! * [`fleet`] — one synthetic subscriber population
//!   (popularity-weighted titles, realistic durations, a long tail of
//!   unknown titles, a slice of network-impaired subscribers) behind two
//!   drivers. The slot driver ([`run_fleet`], `fleet/sessions.rs`) runs
//!   hundreds to thousands of sessions through per-session analyzers in
//!   parallel, producing records that pair ground truth with classifier
//!   output — the analogue of the paper's three-month deployment joined
//!   against server logs. The tap driver ([`drive_tap_feed`] and its
//!   private-registry wrapper [`run_tap_feed_replay`], `fleet/tap.rs`)
//!   interleaves sessions on one link and runs the live path: k-way
//!   merge → paced replay → bounded queues → sharded monitor, with
//!   [`run_tap_fleet`] (one serial monitor, no queues, no threads) as its
//!   byte-identity oracle.
//!   `fleet/population.rs` is the sampler both share,
//!   `fleet/heartbeat.rs` the slot driver's telemetry reporter.
//! * [`aggregate`] — the §5 analyses over those records: per-title player
//!   activity profiles (Fig. 11), bandwidth demand distributions
//!   (Fig. 12), objective vs effective QoE corrections (Fig. 13), field
//!   validation of title classification, and the measurement-driven
//!   calibration table.
//! * [`lifecycle`] — the model lifecycle loop: the drift alarm feeds a
//!   shadow retrain off journaled evidence, candidates ride A/B shadow
//!   on live traffic, and [`lifecycle::LifecyclePilot`] promotes (or
//!   rolls back) through a zero-stall hot-swap slot.
//! * [`report`] — text-table and JSON rendering shared by the experiment
//!   binaries.

#![warn(missing_docs)]

pub mod aggregate;
pub mod fleet;
pub mod lifecycle;
pub mod report;
pub mod train;

pub use fleet::{
    build_tap_feed, drive_tap_feed, run_fleet, run_tap_feed_replay, run_tap_fleet,
    telemetry_reporter, FleetConfig, FleetModels, SessionRecord, TapDrive, TapFleetConfig,
    TapFleetRun, TapReplayOptions, TapReplayRun,
};
pub use lifecycle::{LifecyclePilot, PromotePolicy, ShadowMirror};
pub use train::{train_bundle, TrainConfig};
