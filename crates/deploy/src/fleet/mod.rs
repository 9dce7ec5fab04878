//! Deployment-scale fleet simulation (§5).
//!
//! Drives a popularity-weighted stream of synthetic sessions through the
//! real-time pipeline and records ground truth next to classifier output —
//! the analogue of operating the system in the partner ISP for three
//! months and joining against the cloud server logs afterwards.
//!
//! One population, two drivers, three run functions:
//!
//! * `population` — the one sampler: catalog titles (Table 1 popularity),
//!   a long tail of unknown titles, the Table 2 settings matrix, per-title
//!   duration models, diurnal arrivals, and a slice of network-impaired
//!   subscribers whose streams are rate capped, lossy and delayed.
//! * `sessions` — the slot-level driver, [`run_fleet`]: every session as
//!   one-second slots through its own analyzer. The deployment-scale
//!   input path (and the benchmark's `slot-series` oracle).
//! * `tap` — the tap driver, [`run_tap_feed_replay`] over
//!   [`drive_tap_feed`]: sessions from [`build_tap_feed`] (or captures)
//!   interleaved on one link, through merge → replay → ingest engine →
//!   sharded monitor. [`run_tap_fleet`] is its queue-less byte-identity
//!   oracle.
//! * `heartbeat` — [`run_fleet`]'s telemetry reporter.
//!
//! Which feature is wired to which driver — and why the two cannot yet be
//! one — is tabulated in ARCHITECTURE.md, "Wiring audit".

mod heartbeat;
mod population;
mod sessions;
mod tap;

pub use heartbeat::{fleet_progress_line, telemetry_reporter};
pub use population::{diurnal_congestion_factor, DIURNAL_WEIGHTS};
pub use sessions::{run_fleet, FleetConfig, FleetModels, SessionRecord};
pub use tap::{
    build_tap_feed, drive_tap_feed, run_tap_feed_replay, run_tap_fleet, TapDrive, TapFleetConfig,
    TapFleetRun, TapReplayOptions, TapReplayRun,
};
