//! # nettrace — packet-level trace substrate
//!
//! Foundation crate for the `gamescope` workspace. It models everything the
//! cloud-gaming context classifier needs to observe about network traffic:
//!
//! * [`packet::Packet`] — a timestamped, directional datagram observation,
//!   the unit every other crate consumes.
//! * [`rtp`] — a Real-time Transport Protocol header codec; cloud gaming
//!   platforms stream game video and carry user input over RTP/UDP.
//! * [`flow`] — the per-direction volumetric counters an in-network
//!   monitor keeps for each flow.
//! * [`pcap`] — classic libpcap file reader/writer so synthetic sessions can
//!   round-trip through the same file format as lab Wireshark captures.
//! * [`slots`] — fixed-width time-slot aggregation (the paper computes every
//!   attribute per `T`- or `I`-second slot).
//! * [`impair`] — an adversarial network-condition engine: correlated
//!   (AR(1)/two-state) jitter, Gilbert–Elliott burst loss, bufferbloat-style
//!   bottleneck queueing over piecewise capacity traces, and a named,
//!   versioned impairment-profile catalog for fault-injection testing.
//! * [`stats`] — small numeric helpers (mean/std/percentile) shared by the
//!   feature extractors.
//! * [`metrics`] — trace-layer telemetry counters (packets seen, RTP parse
//!   outcomes, pcap decode results) registered with `cgc-obs`.
//!
//! The crate is deliberately synchronous and allocation-light: traces are
//! `Vec<Packet>` and all processing is streaming-friendly (single pass, slot
//! by slot), matching how the paper's pipeline runs inside an ISP tap.

#![warn(missing_docs)]

pub mod clock;
pub mod flow;
pub mod impair;
pub mod metrics;
pub mod packet;
pub mod pcap;
pub mod rtp;
pub mod slots;
pub mod stats;
pub mod units;
pub mod vol;

pub use clock::{shift_micros, Clock, RealClock, SharedClock, SkewMicros, VirtualClock};
pub use flow::FlowStats;
pub use impair::{
    Bottleneck, CapacitySchedule, Impairment, ImpairmentConfig, ImpairmentPlan, ImpairmentProfile,
    JitterModel, LossModel,
};
pub use packet::{Direction, FiveTuple, Packet, Protocol};
pub use slots::{SlotSeries, SlotView};
pub use units::{Micros, MICROS_PER_SEC};
pub use vol::{VolSample, VolSeries};
