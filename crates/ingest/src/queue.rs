//! Bounded lock-free ingestion queues with explicit backpressure.
//!
//! The queue between a tap producer (replay engine, capture thread) and
//! the router that feeds the sharded monitor is where a long-lived
//! deployment absorbs bursts. Three policies cover the deployment
//! trade-offs, and every outcome is *counted, never silent*:
//!
//! * [`BackpressurePolicy::Block`] — lossless: the producer waits until
//!   space frees up (a short spin, then yields, then 100 µs sleeps, so a
//!   stalled producer leaves its core to the threads it is waiting for).
//!   Right for offline replay and for taps that can tolerate producer
//!   stall (kernel buffer upstream).
//! * [`BackpressurePolicy::DropOldest`] — freshest-data-wins: evict the
//!   oldest queued record to admit the new one. Right for live
//!   classification where stale packets are worth less than current ones.
//! * [`BackpressurePolicy::DropNewest`] — cheapest: reject the incoming
//!   record. Right when per-flow prefix integrity matters more than
//!   recency.
//!
//! The ring itself is the Vyukov array queue already proven in
//! `cgc-obs`' event ring ([`EventRing`]); this module adds the policy
//! layer and capacity bookkeeping.

use std::time::Duration;

use cgc_obs::event::EventRing;

/// What a producer does when its queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Wait until space frees up — lossless, producer pays the stall.
    #[default]
    Block,
    /// Evict the oldest queued record to admit the new one.
    DropOldest,
    /// Reject the incoming record.
    DropNewest,
}

impl BackpressurePolicy {
    /// Stable lowercase name used as the `policy` metric label.
    pub fn as_str(self) -> &'static str {
        match self {
            BackpressurePolicy::Block => "block",
            BackpressurePolicy::DropOldest => "drop_oldest",
            BackpressurePolicy::DropNewest => "drop_newest",
        }
    }

    /// Parses a CLI spelling (`block`, `drop-oldest`/`drop_oldest`,
    /// `drop-newest`/`drop_newest`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.replace('-', "_").as_str() {
            "block" => Some(BackpressurePolicy::Block),
            "drop_oldest" => Some(BackpressurePolicy::DropOldest),
            "drop_newest" => Some(BackpressurePolicy::DropNewest),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackpressurePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How one push resolved — the caller owns turning this into counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Enqueued without contention.
    Accepted,
    /// Enqueued after waiting on a full ring (`Block`).
    AcceptedAfterBlock,
    /// Enqueued after evicting `n` older records (`DropOldest`).
    AcceptedDroppingOldest(u64),
    /// The incoming record was rejected (`DropNewest`).
    Rejected,
}

impl PushOutcome {
    /// Whether the pushed record made it into the queue.
    pub fn accepted(self) -> bool {
        !matches!(self, PushOutcome::Rejected)
    }

    /// Records this push displaced or rejected.
    pub fn dropped(self) -> u64 {
        match self {
            PushOutcome::AcceptedDroppingOldest(n) => n,
            PushOutcome::Rejected => 1,
            _ => 0,
        }
    }
}

/// A bounded lock-free MPMC queue with policy-driven overflow handling.
///
/// ```
/// use cgc_ingest::{BackpressurePolicy, BoundedQueue};
///
/// let q: BoundedQueue<u64> = BoundedQueue::with_capacity(4);
/// for i in 0..4 {
///     assert!(q.push(i, BackpressurePolicy::DropOldest).accepted());
/// }
/// // Full ring + drop-oldest: the eviction is reported, never silent.
/// let outcome = q.push(4, BackpressurePolicy::DropOldest);
/// assert_eq!(outcome.dropped(), 1);
/// assert_eq!(q.try_pop(), Some(1), "record 0 was the one evicted");
/// ```
pub struct BoundedQueue<T> {
    ring: EventRing<T>,
}

impl<T> BoundedQueue<T> {
    /// A queue holding up to `capacity` records (rounded up to a power of
    /// two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        BoundedQueue {
            ring: EventRing::with_capacity(capacity),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Approximate queued records (exact when quiescent).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when (momentarily) empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Non-blocking enqueue; `Err(value)` when full.
    pub fn try_push(&self, value: T) -> Result<(), T> {
        self.ring.try_push(value)
    }

    /// Dequeues one record, `None` when empty.
    pub fn try_pop(&self) -> Option<T> {
        self.ring.try_pop()
    }

    /// Dequeues up to `max` records onto the end of `out` in queue order,
    /// claiming the whole run with one atomic operation; returns how many
    /// (0 when empty).
    pub fn pop_into(&self, out: &mut Vec<T>, max: usize) -> usize {
        self.ring.pop_into(out, max)
    }

    /// Enqueues under `policy`, resolving overflow per the policy table
    /// above. Never loses a record silently: the returned outcome carries
    /// the exact displaced/rejected count.
    pub fn push(&self, value: T, policy: BackpressurePolicy) -> PushOutcome {
        let mut value = match self.ring.try_push(value) {
            Ok(()) => return PushOutcome::Accepted,
            Err(v) => v,
        };
        match policy {
            BackpressurePolicy::Block => {
                // Same shape as the router's idle back-off: a full ring
                // holds `capacity` records of work for the consumer, so
                // once a short spin has not found space the producer is
                // only in its way — on a box with fewer cores than
                // threads a spinning producer takes the core the router
                // or a shard worker needs to make that space.
                let mut spins = 0u32;
                loop {
                    match self.ring.try_push(value) {
                        Ok(()) => return PushOutcome::AcceptedAfterBlock,
                        Err(v) => value = v,
                    }
                    spins = spins.saturating_add(1);
                    if spins < 64 {
                        std::hint::spin_loop();
                    } else if spins < 128 {
                        std::thread::yield_now();
                    } else {
                        std::thread::sleep(Duration::from_micros(100));
                    }
                }
            }
            BackpressurePolicy::DropOldest => {
                let mut evicted = 0u64;
                loop {
                    if self.ring.try_pop().is_some() {
                        evicted += 1;
                    }
                    match self.ring.try_push(value) {
                        Ok(()) => return PushOutcome::AcceptedDroppingOldest(evicted),
                        Err(v) => value = v,
                    }
                }
            }
            BackpressurePolicy::DropNewest => PushOutcome::Rejected,
        }
    }
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn policy_names_round_trip() {
        for p in [
            BackpressurePolicy::Block,
            BackpressurePolicy::DropOldest,
            BackpressurePolicy::DropNewest,
        ] {
            assert_eq!(BackpressurePolicy::parse(p.as_str()), Some(p));
        }
        assert_eq!(
            BackpressurePolicy::parse("drop-oldest"),
            Some(BackpressurePolicy::DropOldest)
        );
        assert_eq!(BackpressurePolicy::parse("nope"), None);
    }

    #[test]
    fn drop_oldest_keeps_the_freshest_records() {
        let q: BoundedQueue<u64> = BoundedQueue::with_capacity(4);
        for i in 0..4u64 {
            assert_eq!(
                q.push(i, BackpressurePolicy::DropOldest),
                PushOutcome::Accepted
            );
        }
        let out = q.push(4, BackpressurePolicy::DropOldest);
        assert_eq!(out, PushOutcome::AcceptedDroppingOldest(1));
        assert_eq!(out.dropped(), 1);
        let drained: Vec<u64> = std::iter::from_fn(|| q.try_pop()).collect();
        assert_eq!(
            drained,
            [1, 2, 3, 4],
            "oldest record evicted, rest in order"
        );
    }

    #[test]
    fn drop_newest_rejects_the_incoming_record() {
        let q: BoundedQueue<u64> = BoundedQueue::with_capacity(2);
        assert!(q.push(0, BackpressurePolicy::DropNewest).accepted());
        assert!(q.push(1, BackpressurePolicy::DropNewest).accepted());
        let out = q.push(2, BackpressurePolicy::DropNewest);
        assert_eq!(out, PushOutcome::Rejected);
        assert!(!out.accepted());
        assert_eq!(out.dropped(), 1);
        let drained: Vec<u64> = std::iter::from_fn(|| q.try_pop()).collect();
        assert_eq!(drained, [0, 1], "queue prefix preserved");
    }

    #[test]
    fn block_waits_for_the_consumer_and_loses_nothing() {
        const N: u64 = 50_000;
        let q: Arc<BoundedQueue<u64>> = Arc::new(BoundedQueue::with_capacity(64));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut blocked = 0u64;
                for i in 0..N {
                    match q.push(i, BackpressurePolicy::Block) {
                        PushOutcome::Accepted => {}
                        PushOutcome::AcceptedAfterBlock => blocked += 1,
                        other => panic!("block policy produced {other:?}"),
                    }
                }
                blocked
            })
        };
        let mut got = Vec::with_capacity(N as usize);
        while got.len() < N as usize {
            match q.try_pop() {
                Some(v) => got.push(v),
                None => std::thread::yield_now(),
            }
        }
        let blocked = producer.join().unwrap();
        assert_eq!(got, (0..N).collect::<Vec<_>>(), "lossless and in order");
        assert!(blocked > 0, "a 64-slot ring must block a 50k burst");
    }

    #[test]
    fn concurrent_drop_oldest_accounts_for_every_record() {
        const PRODUCERS: u64 = 4;
        const PER: u64 = 10_000;
        let q: Arc<BoundedQueue<u64>> = Arc::new(BoundedQueue::with_capacity(128));
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut dropped = 0u64;
                    for i in 0..PER {
                        dropped += q
                            .push(p * PER + i, BackpressurePolicy::DropOldest)
                            .dropped();
                    }
                    dropped
                })
            })
            .collect();
        let dropped: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let mut remaining = 0u64;
        while q.try_pop().is_some() {
            remaining += 1;
        }
        assert_eq!(
            dropped + remaining,
            PRODUCERS * PER,
            "every record either drained or counted dropped"
        );
    }
}
