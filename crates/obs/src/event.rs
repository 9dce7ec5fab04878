//! Typed flow-lifecycle events and the lock-free ring that carries them.
//!
//! Every decision the live path takes about a flow — admission, title
//! call, stage transition, pattern inference, QoE verdict, closure — is
//! describable as one [`Event`]: a flow id, a tap timestamp and an
//! [`EventKind`]. Producers on the tap hot path push events into an
//! [`EventRing`], a bounded lock-free MPSC/MPMC queue; a [`Journal`]
//! consumer drains it off the hot path and materializes per-session
//! decision timelines.
//!
//! Design constraints mirror the metrics core: recording an event is a
//! handful of atomic ops and one 64-ish-byte copy, never a lock and never
//! an allocation. When the ring is full the event is *dropped and
//! counted* (see [`EventSink`](crate::journal::EventSink)), so a stalled
//! consumer can only ever cost visibility, not tap throughput.
//!
//! [`Journal`]: crate::journal::Journal

use std::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;
use std::net::IpAddr;
use std::sync::atomic::{AtomicUsize, Ordering};

use cgc_domain::{ActivityPattern, GameTitle, Platform, QoeLevel, Stage};
use serde::{Serialize, Value};

/// Flow endpoint identity in downstream orientation (`server` is the
/// platform-signature side). A plain-copy mirror of the five-tuple that
/// lives below this crate in the dependency graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowAddr {
    /// Cloud-server address.
    pub server_ip: IpAddr,
    /// Cloud-server (platform signature) port.
    pub server_port: u16,
    /// Subscriber address.
    pub client_ip: IpAddr,
    /// Subscriber port.
    pub client_port: u16,
}

impl fmt::Display for FlowAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{}",
            self.server_ip, self.server_port, self.client_ip, self.client_port
        )
    }
}

impl Serialize for FlowAddr {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "server".into(),
                Value::String(format!("{}:{}", self.server_ip, self.server_port)),
            ),
            (
                "client".into(),
                Value::String(format!("{}:{}", self.client_ip, self.client_port)),
            ),
        ])
    }
}

/// Why a flow left the monitor's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CloseCause {
    /// Idle past the monitor's timeout.
    Idle,
    /// Evicted early because the flow table hit its cap.
    Evicted,
    /// Finalized by an end-of-capture drain (`finish_all`).
    Drained,
}

impl CloseCause {
    /// Stable lowercase name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            CloseCause::Idle => "idle",
            CloseCause::Evicted => "evicted",
            CloseCause::Drained => "drained",
        }
    }
}

impl fmt::Display for CloseCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One decision-point event in a flow's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A new flow passed the platform filter and got an analyzer.
    FlowAdmitted {
        /// Flow endpoints, downstream orientation.
        addr: FlowAddr,
        /// Platform inferred from the port signature.
        platform: Platform,
    },
    /// Which model-registry version the flow's analyzer pinned at
    /// admission (emitted right after `FlowAdmitted` when the monitor
    /// serves from a hot-swappable [`LiveModel`] slot, so journal
    /// timelines attribute every later decision to a model version).
    ///
    /// [`LiveModel`]: https://docs.rs/cgc-lifecycle
    ModelVersion {
        /// Registry version id the flow will classify on.
        version: u32,
    },
    /// A UDP payload on a gaming port failed RTP validation (nettrace
    /// decode path; `payload_len` is the raw UDP payload length).
    RtpInvalid {
        /// Undecodable payload length, bytes.
        payload_len: u32,
    },
    /// The title-classification window closed and the title RF ran.
    LaunchWindowClosed {
        /// Packets inside the window handed to the title RF.
        packets: u32,
    },
    /// The title process decided (possibly "unknown" when confidence was
    /// below the reporting threshold).
    TitleDecided {
        /// Classified title; `None` = reported unknown.
        title: Option<GameTitle>,
        /// RF vote share behind the decision.
        confidence: f64,
    },
    /// A closed slot was classified into a different stage than the
    /// previous slot (emitted on transitions only, bounding event volume).
    StageEntered {
        /// Slot index (0 = flow start).
        slot: u32,
        /// Stage entered.
        stage: Stage,
    },
    /// The pattern tracker reached a confident activity-pattern decision.
    PatternInferred {
        /// Inferred gameplay activity pattern.
        pattern: ActivityPattern,
        /// Confidence at decision time.
        confidence: f64,
    },
    /// The per-slot (objective, effective) QoE pair changed (emitted on
    /// shifts only, like stage transitions).
    QoeShift {
        /// Slot index of the shift.
        slot: u32,
        /// Objective QoE of the slot.
        objective: QoeLevel,
        /// Effective (context-calibrated) QoE of the slot.
        effective: QoeLevel,
    },
    /// Session-level majority QoE verdict at finalization.
    SessionVerdict {
        /// Majority objective QoE over gameplay slots.
        objective: QoeLevel,
        /// Majority effective QoE over gameplay slots.
        effective: QoeLevel,
    },
    /// The flow was finalized and removed from the monitor.
    FlowClosed {
        /// What triggered the finalization.
        cause: CloseCause,
        /// Whether volumetric confirmation ever passed.
        confirmed: bool,
    },
}

impl EventKind {
    /// Stable snake_case event name used as the `event` JSON field and in
    /// schema docs.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::FlowAdmitted { .. } => "flow_admitted",
            EventKind::RtpInvalid { .. } => "rtp_invalid",
            EventKind::ModelVersion { .. } => "model_version",
            EventKind::LaunchWindowClosed { .. } => "launch_window_closed",
            EventKind::TitleDecided { .. } => "title_decided",
            EventKind::StageEntered { .. } => "stage_entered",
            EventKind::PatternInferred { .. } => "pattern_inferred",
            EventKind::QoeShift { .. } => "qoe_shift",
            EventKind::SessionVerdict { .. } => "session_verdict",
            EventKind::FlowClosed { .. } => "flow_closed",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::FlowAdmitted { addr, platform } => {
                write!(f, "admitted [{platform}] {addr}")
            }
            EventKind::ModelVersion { version } => write!(f, "model v{version}"),
            EventKind::RtpInvalid { payload_len } => {
                write!(f, "rtp invalid ({payload_len} B payload)")
            }
            EventKind::LaunchWindowClosed { packets } => {
                write!(f, "launch window closed ({packets} pkts)")
            }
            EventKind::TitleDecided { title, confidence } => write!(
                f,
                "title={} ({:.0}%)",
                title.map(|t| t.name()).unwrap_or("unknown"),
                confidence * 100.0
            ),
            EventKind::StageEntered { slot, stage } => write!(f, "stage={stage} @slot {slot}"),
            EventKind::PatternInferred {
                pattern,
                confidence,
            } => write!(f, "pattern={pattern} ({:.0}%)", confidence * 100.0),
            EventKind::QoeShift {
                slot,
                objective,
                effective,
            } => write!(f, "qoe {objective}/{effective} @slot {slot}"),
            EventKind::SessionVerdict {
                objective,
                effective,
            } => write!(f, "verdict {objective}/{effective}"),
            EventKind::FlowClosed { cause, confirmed } => write!(
                f,
                "closed ({cause}{})",
                if *confirmed { "" } else { ", unconfirmed" }
            ),
        }
    }
}

/// One recorded event: which flow, when on the tap clock, what happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Flow id: the direction-invariant hash of the normalized five-tuple
    /// (`FiveTuple::flow_id`), or a session id for per-session runs.
    pub flow: u64,
    /// Tap timestamp of the decision, microseconds.
    pub ts: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Hex rendering of the flow id used in exports and queries (the raw
    /// u64 would lose precision in JavaScript JSON consumers).
    pub fn flow_hex(flow: u64) -> String {
        format!("{flow:016x}")
    }

    /// Abbreviated flow id for human-facing output: the low 32 bits in
    /// hex. Small sequential ids (fleet simulations) stay tell-apart-able
    /// where a high-bits prefix would render them all as zeros.
    pub fn flow_short(flow: u64) -> String {
        format!("{:08x}", flow & 0xffff_ffff)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t+{:.1}s flow {} {}",
            self.ts as f64 / 1e6,
            Event::flow_short(self.flow),
            self.kind
        )
    }
}

impl Serialize for Event {
    /// Flat, stable JSONL schema: `flow` (hex), `ts` (µs), `event` (name),
    /// then the variant's fields inline. Hand-rolled instead of derived so
    /// the wire format is a documented contract, not a derive artifact.
    fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            ("flow".into(), Value::String(Event::flow_hex(self.flow))),
            ("ts".into(), Value::UInt(self.ts)),
            ("event".into(), Value::String(self.kind.name().into())),
        ];
        match &self.kind {
            EventKind::FlowAdmitted { addr, platform } => {
                if let Value::Object(pairs) = addr.to_value() {
                    fields.extend(pairs);
                }
                fields.push(("platform".into(), Value::String(platform.to_string())));
            }
            EventKind::ModelVersion { version } => {
                fields.push(("version".into(), Value::UInt(u64::from(*version))));
            }
            EventKind::RtpInvalid { payload_len } => {
                fields.push(("payload_len".into(), Value::UInt(u64::from(*payload_len))));
            }
            EventKind::LaunchWindowClosed { packets } => {
                fields.push(("packets".into(), Value::UInt(u64::from(*packets))));
            }
            EventKind::TitleDecided { title, confidence } => {
                fields.push((
                    "title".into(),
                    match title {
                        Some(t) => Value::String(t.name().into()),
                        None => Value::Null,
                    },
                ));
                fields.push(("confidence".into(), Value::Float(*confidence)));
            }
            EventKind::StageEntered { slot, stage } => {
                fields.push(("slot".into(), Value::UInt(u64::from(*slot))));
                fields.push(("stage".into(), Value::String(stage.to_string())));
            }
            EventKind::PatternInferred {
                pattern,
                confidence,
            } => {
                fields.push(("pattern".into(), Value::String(pattern.to_string())));
                fields.push(("confidence".into(), Value::Float(*confidence)));
            }
            EventKind::QoeShift {
                slot,
                objective,
                effective,
            } => {
                fields.push(("slot".into(), Value::UInt(u64::from(*slot))));
                fields.push(("objective".into(), Value::String(objective.to_string())));
                fields.push(("effective".into(), Value::String(effective.to_string())));
            }
            EventKind::SessionVerdict {
                objective,
                effective,
            } => {
                fields.push(("objective".into(), Value::String(objective.to_string())));
                fields.push(("effective".into(), Value::String(effective.to_string())));
            }
            EventKind::FlowClosed { cause, confirmed } => {
                fields.push(("cause".into(), Value::String(cause.as_str().into())));
                fields.push(("confirmed".into(), Value::Bool(*confirmed)));
            }
        }
        Value::Object(fields)
    }
}

// ---------------------------------------------------------------- ring

struct Slot<T> {
    /// Sequence stamp: `pos` when the slot is free for the producer at
    /// `pos`, `pos + 1` once it holds that producer's value.
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Bounded lock-free multi-producer queue (Vyukov's array queue).
///
/// `try_push` never blocks and never allocates: when the ring is full it
/// returns the value to the caller, who counts the drop. Per-producer FIFO
/// order is preserved, which is all the journal needs — each flow's events
/// are produced by exactly one shard thread.
pub struct EventRing<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    /// Next enqueue position (cache-line-padded from `tail` by the
    /// interposed slots allocation being elsewhere; the two atomics still
    /// get their own lines below).
    head: CachePadded,
    tail: CachePadded,
}

/// A cache-line-aligned atomic counter so head and tail never false-share.
#[repr(align(64))]
struct CachePadded(AtomicUsize);

// SAFETY: slot handoff is mediated by the per-slot `seq` (release on
// publish, acquire on claim), so values move between threads fully
// initialized exactly once.
unsafe impl<T: Send> Send for EventRing<T> {}
unsafe impl<T: Send> Sync for EventRing<T> {}

impl<T> EventRing<T> {
    /// A ring holding up to `capacity` events (rounded up to a power of
    /// two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        let slots: Vec<Slot<T>> = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        EventRing {
            slots: slots.into_boxed_slice(),
            mask: cap - 1,
            head: CachePadded(AtomicUsize::new(0)),
            tail: CachePadded(AtomicUsize::new(0)),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Approximate number of queued events (exact when quiescent).
    pub fn len(&self) -> usize {
        self.head
            .0
            .load(Ordering::Relaxed)
            .saturating_sub(self.tail.0.load(Ordering::Relaxed))
    }

    /// True when no events are queued (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempts to enqueue without blocking. `Err(value)` when full — the
    /// caller owns the drop accounting.
    pub fn try_push(&self, value: T) -> Result<(), T> {
        let mut pos = self.head.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                match self.head.0.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gave this thread exclusive claim
                        // on the slot until the seq store below.
                        unsafe { (*slot.value.get()).write(value) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                // The slot still holds an unconsumed value a full lap
                // behind: the ring is full.
                return Err(value);
            } else {
                pos = self.head.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeues one event, `None` when the ring is (momentarily) empty.
    pub fn try_pop(&self) -> Option<T> {
        let mut pos = self.tail.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - (pos.wrapping_add(1)) as isize;
            if diff == 0 {
                match self.tail.0.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the producer published this slot with a
                        // release store of seq = pos + 1; the CAS gives
                        // this thread exclusive consumption rights.
                        let value = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.seq
                            .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                        return Some(value);
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                return None;
            } else {
                pos = self.tail.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeues up to `max` events onto the end of `out` in queue order and
    /// returns how many — the run of published slots at the tail, claimed
    /// with one compare-exchange instead of one per event. Returns 0 when
    /// the ring is (momentarily) empty or `max` is 0. Safe beside
    /// concurrent [`try_pop`](Self::try_pop) and `pop_into` callers: an
    /// event goes to exactly one of them.
    pub fn pop_into(&self, out: &mut Vec<T>, max: usize) -> usize {
        let max = max.min(self.slots.len());
        if max == 0 {
            return 0;
        }
        let mut pos = self.tail.0.load(Ordering::Relaxed);
        loop {
            // Length of the published run starting at `pos`. The acquire
            // loads pair with each producer's release store of `p + 1`.
            let mut n = 0;
            while n < max {
                let p = pos.wrapping_add(n);
                if self.slots[p & self.mask].seq.load(Ordering::Acquire) != p.wrapping_add(1) {
                    break;
                }
                n += 1;
            }
            if n == 0 {
                let seq = self.slots[pos & self.mask].seq.load(Ordering::Acquire);
                if (seq as isize - pos.wrapping_add(1) as isize) < 0 {
                    return 0; // not yet published this lap: empty
                }
                // Published since the scan, or `pos` is stale (another
                // consumer moved the tail): look again from the tail.
                pos = self.tail.0.load(Ordering::Relaxed);
                continue;
            }
            // Grow before claiming, so nothing can unwind between the
            // claim and the release of the slots.
            out.reserve(n);
            match self.tail.0.compare_exchange_weak(
                pos,
                pos.wrapping_add(n),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    for p in (0..n).map(|i| pos.wrapping_add(i)) {
                        let slot = &self.slots[p & self.mask];
                        // SAFETY: every slot of the run was seen published
                        // for position `p` (acquire load of seq = p + 1
                        // above), a published slot changes only when its
                        // consumer releases it, and the tail moves only
                        // forward — so the CAS finding it still at `pos`
                        // proves no other consumer claimed any of
                        // `pos..pos + n`; they are this thread's alone
                        // until the seq store below.
                        out.push(unsafe { (*slot.value.get()).assume_init_read() });
                        slot.seq
                            .store(p.wrapping_add(self.mask + 1), Ordering::Release);
                    }
                    return n;
                }
                Err(actual) => pos = actual,
            }
        }
    }
}

impl<T> Drop for EventRing<T> {
    fn drop(&mut self) {
        while self.try_pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ev(flow: u64, ts: u64) -> Event {
        Event {
            flow,
            ts,
            kind: EventKind::LaunchWindowClosed { packets: 7 },
        }
    }

    #[test]
    fn push_pop_roundtrips_in_order() {
        let ring = EventRing::with_capacity(8);
        for i in 0..5u64 {
            ring.try_push(ev(1, i)).unwrap();
        }
        assert_eq!(ring.len(), 5);
        for i in 0..5u64 {
            assert_eq!(ring.try_pop().unwrap().ts, i);
        }
        assert!(ring.try_pop().is_none());
        assert!(ring.is_empty());
    }

    #[test]
    fn full_ring_rejects_without_losing_slots() {
        let ring = EventRing::with_capacity(4);
        for i in 0..4u64 {
            ring.try_push(ev(1, i)).unwrap();
        }
        // Full: pushes bounce and return the value.
        let bounced = ring.try_push(ev(1, 99)).unwrap_err();
        assert_eq!(bounced.ts, 99);
        // One pop frees exactly one slot.
        assert_eq!(ring.try_pop().unwrap().ts, 0);
        ring.try_push(ev(1, 4)).unwrap();
        assert!(ring.try_push(ev(1, 100)).is_err());
        let drained: Vec<u64> = std::iter::from_fn(|| ring.try_pop())
            .map(|e| e.ts)
            .collect();
        assert_eq!(drained, [1, 2, 3, 4]);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(EventRing::<Event>::with_capacity(0).capacity(), 2);
        assert_eq!(EventRing::<Event>::with_capacity(3).capacity(), 4);
        assert_eq!(EventRing::<Event>::with_capacity(64).capacity(), 64);
    }

    #[test]
    fn concurrent_producers_lose_nothing_when_capacity_suffices() {
        const PRODUCERS: u64 = 4;
        const PER: u64 = 2_000;
        let ring = Arc::new(EventRing::with_capacity((PRODUCERS * PER) as usize));
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..PER {
                        ring.try_push(ev(p, i)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Every event arrives exactly once, and per-producer order holds.
        let mut next = [0u64; PRODUCERS as usize];
        let mut n = 0u64;
        while let Some(e) = ring.try_pop() {
            assert_eq!(e.ts, next[e.flow as usize], "producer {} reordered", e.flow);
            next[e.flow as usize] += 1;
            n += 1;
        }
        assert_eq!(n, PRODUCERS * PER);
    }

    #[test]
    fn concurrent_overflow_is_fully_accounted() {
        // More events than capacity: delivered + bounced must equal sent.
        const PRODUCERS: u64 = 4;
        const PER: u64 = 5_000;
        let ring = Arc::new(EventRing::<Event>::with_capacity(256));
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    let mut dropped = 0u64;
                    for i in 0..PER {
                        if ring.try_push(ev(p, i)).is_err() {
                            dropped += 1;
                        }
                    }
                    dropped
                })
            })
            .collect();
        let dropped: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let mut delivered = 0u64;
        while ring.try_pop().is_some() {
            delivered += 1;
        }
        assert_eq!(delivered + dropped, PRODUCERS * PER);
        assert!(
            delivered >= 256,
            "consumerless ring holds at least capacity"
        );
    }

    #[test]
    fn pop_into_takes_the_published_run_in_order() {
        let ring = EventRing::with_capacity(8);
        let mut out: Vec<u64> = vec![99];
        assert_eq!(ring.pop_into(&mut out, 4), 0, "empty ring");
        for i in 0..6u64 {
            ring.try_push(i).unwrap();
        }
        assert_eq!(ring.pop_into(&mut out, 0), 0, "max 0 takes nothing");
        assert_eq!(ring.len(), 6);
        assert_eq!(ring.pop_into(&mut out, 4), 4);
        assert_eq!(out, [99, 0, 1, 2, 3], "appended behind what was there");
        // Wraps: positions 6..10 straddle the end of the slot array.
        for i in 6..10u64 {
            ring.try_push(i).unwrap();
        }
        assert_eq!(ring.try_pop(), Some(4));
        out.clear();
        assert_eq!(
            ring.pop_into(&mut out, usize::MAX),
            5,
            "capped by what is queued"
        );
        assert_eq!(out, [5, 6, 7, 8, 9]);
        assert!(ring.is_empty());
        // Every slot is free again after the run was released.
        for i in 0..8u64 {
            ring.try_push(i).unwrap();
        }
        assert!(ring.try_push(8).is_err());
    }

    /// `PRODUCERS` threads push `(producer, 0..PER)` into a ring of
    /// `capacity` while two consumers drain it, one popping single events
    /// and the other runs (each also takes a turn at the other call, so
    /// both code paths race themselves too). All threads leave a barrier
    /// together, and a tiny ring forces a wrap-around on every lap.
    fn hammer(capacity: usize) {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;
        const PRODUCERS: usize = 3;
        const PER: usize = 20_000;
        let ring = Arc::new(EventRing::<(usize, usize)>::with_capacity(capacity));
        let taken = Arc::new(AtomicUsize::new(0));
        let start = Arc::new(Barrier::new(PRODUCERS + 2));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let (ring, start) = (Arc::clone(&ring), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..PER {
                        let mut value = (p, i);
                        while let Err(back) = ring.try_push(value) {
                            value = back;
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2usize)
            .map(|c| {
                let (ring, start, taken) =
                    (Arc::clone(&ring), Arc::clone(&start), Arc::clone(&taken));
                std::thread::spawn(move || {
                    start.wait();
                    let mut got: Vec<(usize, usize)> = Vec::new();
                    let mut turn = c;
                    while taken.load(Ordering::Relaxed) < PRODUCERS * PER {
                        turn += 1;
                        // Consumer 0 mostly pops one, consumer 1 mostly runs.
                        let n = if (turn % 8 == 0) == (c == 0) {
                            ring.pop_into(&mut got, 1 + turn % 7)
                        } else {
                            ring.try_pop().map_or(0, |v| {
                                got.push(v);
                                1
                            })
                        };
                        if n == 0 {
                            std::thread::yield_now();
                        } else {
                            taken.fetch_add(n, Ordering::Relaxed);
                        }
                    }
                    got
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }
        let mut seen = vec![vec![false; PER]; PRODUCERS];
        for h in consumers {
            let got = h.join().unwrap();
            // Per-producer FIFO: what one consumer took of one producer's
            // values, it took in the order they were pushed.
            let mut last = [None; PRODUCERS];
            for (p, i) in got {
                assert!(
                    last[p] < Some(i),
                    "capacity {capacity}: producer {p} reordered"
                );
                last[p] = Some(i);
                assert!(!seen[p][i], "capacity {capacity}: ({p}, {i}) popped twice");
                seen[p][i] = true;
            }
        }
        assert!(
            seen.iter().flatten().all(|&s| s),
            "capacity {capacity}: a pushed value was never popped"
        );
        assert!(ring.is_empty());
    }

    #[test]
    fn mixed_consumers_take_every_value_exactly_once() {
        for capacity in [2, 4, 64] {
            hammer(capacity);
        }
    }

    #[test]
    fn dropping_a_non_empty_ring_drops_each_value_once() {
        use std::sync::atomic::AtomicUsize;
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let ring = EventRing::with_capacity(8);
        for _ in 0..7 {
            assert!(ring.try_push(Counted(Arc::clone(&drops))).is_ok());
        }
        let mut out = Vec::new();
        assert_eq!(ring.pop_into(&mut out, 3), 3);
        drop(ring.try_pop());
        assert_eq!(
            drops.load(Ordering::Relaxed),
            1,
            "popped values are the caller's"
        );
        drop(out);
        assert_eq!(drops.load(Ordering::Relaxed), 4);
        drop(ring); // three values still queued
        assert_eq!(drops.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn event_jsonl_schema_is_flat_and_stable() {
        let e = Event {
            flow: 0xabcd,
            ts: 5_000_000,
            kind: EventKind::TitleDecided {
                title: Some(GameTitle::Fortnite),
                confidence: 0.93,
            },
        };
        let line = serde_json::to_string(&e).unwrap();
        assert!(line.contains("\"flow\":\"000000000000abcd\""));
        assert!(line.contains("\"ts\":5000000"));
        assert!(line.contains("\"event\":\"title_decided\""));
        assert!(line.contains("\"title\":\"Fortnite\""));
        let unknown = Event {
            flow: 1,
            ts: 0,
            kind: EventKind::TitleDecided {
                title: None,
                confidence: 0.2,
            },
        };
        assert!(serde_json::to_string(&unknown)
            .unwrap()
            .contains("\"title\":null"));
    }

    #[test]
    fn event_display_is_operator_readable() {
        let addr = FlowAddr {
            server_ip: "10.0.0.1".parse().unwrap(),
            server_port: 49003,
            client_ip: "100.64.1.1".parse().unwrap(),
            client_port: 50000,
        };
        let e = Event {
            flow: 0x0000_0000_ffee_0000,
            ts: 1_500_000,
            kind: EventKind::FlowAdmitted {
                addr,
                platform: Platform::GeForceNow,
            },
        };
        let s = e.to_string();
        assert!(s.starts_with("t+1.5s flow ffee0000"), "{s}");
        assert!(s.contains("10.0.0.1:49003 -> 100.64.1.1:50000"), "{s}");
        assert_eq!(
            EventKind::FlowClosed {
                cause: CloseCause::Evicted,
                confirmed: false
            }
            .to_string(),
            "closed (evicted, unconfirmed)"
        );
    }
}

#[cfg(test)]
mod prop_tests {
    use super::EventRing;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    proptest! {
        /// On one thread the ring is a bounded FIFO: any interleaving of
        /// `try_push`, `try_pop` and `pop_into` returns what a `VecDeque`
        /// capped at the ring's capacity returns.
        #[test]
        fn ring_matches_a_bounded_vecdeque(
            capacity in 0usize..9,
            ops in prop::collection::vec((0u8..3, 0usize..12), 0..200)
        ) {
            let ring = EventRing::with_capacity(capacity);
            let mut model: VecDeque<usize> = VecDeque::new();
            let mut next = 0usize;
            for (op, arg) in ops {
                match op {
                    0 => {
                        let accepted = ring.try_push(next).is_ok();
                        prop_assert_eq!(accepted, model.len() < ring.capacity());
                        if accepted {
                            model.push_back(next);
                        }
                        next += 1;
                    }
                    1 => prop_assert_eq!(ring.try_pop(), model.pop_front()),
                    _ => {
                        let mut out = vec![usize::MAX];
                        let n = ring.pop_into(&mut out, arg);
                        let want: Vec<usize> = model.drain(..arg.min(model.len())).collect();
                        prop_assert_eq!(n, want.len());
                        prop_assert_eq!(&out[1..], &want[..]);
                    }
                }
                prop_assert_eq!(ring.len(), model.len());
            }
        }
    }
}
