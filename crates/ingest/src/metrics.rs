//! Pre-registered metric handles for the ingestion subsystem.
//!
//! One [`IngestMetrics`] is built per engine from the registry it was
//! given (process-global in deployment, private in tests). Queue depth is
//! a labeled gauge family (`shard="0"`, `shard="1"`, …) and drops are a
//! labeled counter family keyed by the policy that caused them, so a
//! Prometheus scrape can tell a hot shard from a slow consumer and a
//! deliberate `drop_oldest` eviction from a `drop_newest` rejection.

use std::sync::Arc;

use cgc_obs::{Counter, Gauge, Histogram, Registry};

use crate::queue::BackpressurePolicy;

/// Cached handles for every metric the ingest subsystem records.
#[derive(Debug, Clone)]
pub struct IngestMetrics {
    /// Records accepted into any ingest queue.
    pub enqueued: Arc<Counter>,
    /// Records lost under `drop_oldest` (evicted from the queue).
    pub dropped_oldest: Arc<Counter>,
    /// Records lost under `drop_newest` (rejected at the queue mouth).
    pub dropped_newest: Arc<Counter>,
    /// Pushes that had to wait on a full queue under `block`.
    pub blocked: Arc<Counter>,
    /// Pushes rejected because the engine had begun shutting down.
    pub rejected_closed: Arc<Counter>,
    /// Per-shard queue depth gauges, indexed by shard id.
    pub queue_depth: Vec<Arc<Gauge>>,
    /// Slots per queue shard (set once at engine start); saturation is
    /// `max(queue_depth) / queue_capacity`, consumed by `/healthz` and
    /// the SLO engine.
    pub queue_capacity: Arc<Gauge>,
    /// Router sweeps that handed at least one record to the monitor.
    pub batches: Arc<Counter>,
    /// Size of each non-empty batch the router handed to the sink — under
    /// adaptive batching this is the distribution the policy actually
    /// chose (small at shallow depth, large at deep).
    pub batch_size: Arc<Histogram>,
    /// Records handed from the queues to the sharded monitor.
    pub handed_off: Arc<Counter>,
    /// Replayed records released by the pacing engine.
    pub replayed: Arc<Counter>,
    /// How far behind its deadline each paced release ran, microseconds.
    pub pacing_lag_us: Arc<Histogram>,
}

impl IngestMetrics {
    /// Registers (or re-attaches to) the ingest metric families on
    /// `registry`, with one depth gauge per queue shard.
    pub fn register(registry: &Registry, queues: usize) -> Self {
        let queue_depth = (0..queues)
            .map(|shard| {
                registry.gauge_with(
                    "cgc_ingest_queue_depth",
                    "Records waiting in an ingest queue shard",
                    &[("shard", &shard.to_string())],
                )
            })
            .collect();
        IngestMetrics {
            enqueued: registry.counter(
                "cgc_ingest_enqueued_total",
                "Tap records accepted into ingest queues",
            ),
            dropped_oldest: registry.counter_with(
                "cgc_ingest_dropped_total",
                "Tap records lost to ingest backpressure",
                &[("policy", "drop_oldest")],
            ),
            dropped_newest: registry.counter_with(
                "cgc_ingest_dropped_total",
                "Tap records lost to ingest backpressure",
                &[("policy", "drop_newest")],
            ),
            blocked: registry.counter(
                "cgc_ingest_blocked_total",
                "Pushes that stalled on a full ingest queue under the block policy",
            ),
            rejected_closed: registry.counter(
                "cgc_ingest_rejected_closed_total",
                "Pushes rejected because the ingest engine was shutting down",
            ),
            queue_depth,
            queue_capacity: registry.gauge(
                "cgc_ingest_queue_capacity",
                "Slots per ingest queue shard (power-of-two rounded)",
            ),
            batches: registry.counter(
                "cgc_ingest_batches_total",
                "Router sweeps that handed records to the monitor",
            ),
            batch_size: registry.histogram(
                "cgc_ingest_batch_size",
                "Records per non-empty batch handed from a queue to the sink",
            ),
            handed_off: registry.counter(
                "cgc_ingest_handed_off_total",
                "Tap records handed from ingest queues to the sharded monitor",
            ),
            replayed: registry.counter(
                "cgc_ingest_replayed_total",
                "Tap records released by the paced replay engine",
            ),
            pacing_lag_us: registry.histogram(
                "cgc_ingest_pacing_lag_us",
                "Microseconds each paced release ran behind its deadline",
            ),
        }
    }

    /// Counts one push outcome's losses against the right labeled series.
    pub fn count_drop(&self, policy: BackpressurePolicy, dropped: u64) {
        if dropped == 0 {
            return;
        }
        match policy {
            BackpressurePolicy::DropOldest => self.dropped_oldest.add(dropped),
            BackpressurePolicy::DropNewest => self.dropped_newest.add(dropped),
            BackpressurePolicy::Block => {}
        }
    }

    /// Total records lost to backpressure so far, across policies.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_oldest.get() + self.dropped_newest.get()
    }
}

/// Per-source counter handles for the k-way merge, labeled by source
/// name (`source="eth0"`, `source="lab.pcap"`, …).
///
/// Both vectors are indexed by source position in the merge, matching
/// [`crate::merge::MergeStats`]. A non-zero late counter is the merge's
/// signal that a source's disorder exceeded the configured tolerance —
/// those records were still delivered, but global output order around
/// them is no longer certified.
#[derive(Debug, Clone)]
pub struct MergeMetrics {
    /// Records each source contributed to the merged stream.
    pub merged: Vec<Arc<Counter>>,
    /// Records that arrived later than the source frontier minus the
    /// reordering tolerance (delivered anyway, counted here).
    pub late: Vec<Arc<Counter>>,
}

impl MergeMetrics {
    /// Registers (or re-attaches to) the merge counter families on
    /// `registry`, one labeled series per source label.
    pub fn register(registry: &Registry, labels: &[String]) -> Self {
        let merged = labels
            .iter()
            .map(|label| {
                registry.counter_with(
                    "cgc_ingest_merge_records_total",
                    "Records contributed to the merged stream, per source",
                    &[("source", label)],
                )
            })
            .collect();
        let late = labels
            .iter()
            .map(|label| {
                registry.counter_with(
                    "cgc_ingest_merge_late_total",
                    "Records arriving beyond the merge reordering tolerance, per source",
                    &[("source", label)],
                )
            })
            .collect();
        MergeMetrics { merged, late }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_obs::export;

    #[test]
    fn families_render_with_labels_in_prometheus() {
        let registry = Registry::new();
        let m = IngestMetrics::register(&registry, 2);
        m.enqueued.add(5);
        m.queue_depth[0].set(3);
        m.queue_depth[1].set(7);
        m.count_drop(BackpressurePolicy::DropOldest, 2);
        m.count_drop(BackpressurePolicy::DropNewest, 1);
        let text = export::prometheus(&registry.snapshot());
        assert!(
            text.contains("cgc_ingest_queue_depth{shard=\"0\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("cgc_ingest_queue_depth{shard=\"1\"} 7"),
            "{text}"
        );
        assert!(
            text.contains("cgc_ingest_dropped_total{policy=\"drop_oldest\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("cgc_ingest_dropped_total{policy=\"drop_newest\"} 1"),
            "{text}"
        );
        assert_eq!(m.dropped_total(), 3);
    }

    #[test]
    fn merge_families_render_per_source() {
        let registry = Registry::new();
        let labels = vec!["eth0".to_string(), "eth1".to_string()];
        let m = MergeMetrics::register(&registry, &labels);
        m.merged[0].add(7);
        m.merged[1].add(3);
        m.late[1].inc();
        let text = export::prometheus(&registry.snapshot());
        assert!(
            text.contains("cgc_ingest_merge_records_total{source=\"eth0\"} 7"),
            "{text}"
        );
        assert!(
            text.contains("cgc_ingest_merge_records_total{source=\"eth1\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("cgc_ingest_merge_late_total{source=\"eth1\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn block_policy_never_counts_drops() {
        let registry = Registry::new();
        let m = IngestMetrics::register(&registry, 1);
        m.count_drop(BackpressurePolicy::Block, 10);
        assert_eq!(m.dropped_total(), 0);
    }
}
