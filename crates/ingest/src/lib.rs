//! `cgc-ingest` — paced live-replay ingestion for the gamescope stack.
//!
//! The offline pipeline analyzes a finished capture in one pass. This
//! crate turns the same pipeline into a long-lived streaming deployment:
//!
//! * **Paced replay** ([`replay()`]): releases a recorded feed (pcap file
//!   or gamesim session) at its recorded timestamps against a
//!   [`Clock`](nettrace::Clock) — real time at a tap, an instantly
//!   advancing virtual clock in tests — with a speed multiplier
//!   (`pace = 1.0` real time, `0` as fast as possible).
//! * **Bounded queues with backpressure** ([`queue`]): lock-free rings
//!   between producers and the analysis pipeline, with `block` /
//!   `drop_oldest` / `drop_newest` overflow policies. Drops are counted,
//!   never silent, and exported through `cgc-obs` as labeled families
//!   (`cgc_ingest_queue_depth{shard=…}`,
//!   `cgc_ingest_dropped_total{policy=…}`).
//! * **The engine** ([`engine`]): a router thread draining the queues in
//!   batches sized by queue depth (clamped to `[32, 8192]`) into a [`BatchSink`]
//!   — [`MonitorSink`] feeds the sharded tap monitor — plus graceful
//!   shutdown that quiesces producers, drains the queues dry and emits
//!   final session verdicts.
//! * **K-way merge** ([`merge`]): fuses N independently captured,
//!   independently clocked feeds (multiple NICs, pcaps or simulated
//!   taps) into one globally time-ordered stream, with per-source clock
//!   skew correction, bounded reordering tolerance, and per-source
//!   `cgc_ingest_merge_late_total{source=…}` lateness counters.
//!
//! The key invariant, proven end to end by the workspace's
//! `e2e_ingest` and `e2e_merge` tests: a virtually-clocked paced replay
//! — whether of one feed or of an M-way split merged back together —
//! produces byte-identical session reports and journal timelines to
//! offline batch analysis of the same feed.
//!
//! ```
//! use cgc_ingest::{BackpressurePolicy, BatchSink, IngestConfig, IngestEngine};
//! use cgc_obs::Registry;
//!
//! struct Count(u64);
//! impl BatchSink for Count {
//!     type Output = u64;
//!     fn on_batch(&mut self, records: &[cgc_core::shard::TapRecord]) {
//!         self.0 += records.len() as u64;
//!     }
//!     fn finish(self) -> u64 {
//!         self.0
//!     }
//! }
//!
//! let registry = Registry::new();
//! let engine = IngestEngine::start(Count(0), IngestConfig::default(), &registry);
//! let producer = engine.producer();
//! let tuple = nettrace::FiveTuple::udp_v4([10, 0, 0, 1], 49003, [100, 64, 1, 1], 50_000);
//! for i in 0..100 {
//!     producer.push(i, &tuple, 1200);
//! }
//! drop(producer);
//! let run = engine.shutdown();
//! assert_eq!(run.output, 100);
//! assert_eq!(run.dropped, 0);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod merge;
pub mod metrics;
pub mod queue;
pub mod replay;

pub use engine::{BatchSink, IngestConfig, IngestEngine, IngestProducer, IngestRun, MonitorSink};
pub use merge::{
    merge_sources, split_round_robin, KWayMerge, MergeConfig, MergeSource, MergeStats,
};
pub use metrics::{IngestMetrics, MergeMetrics};
pub use queue::{BackpressurePolicy, BoundedQueue, PushOutcome};
pub use replay::{pcap_feed, replay, ReplayConfig, ReplayStats};
