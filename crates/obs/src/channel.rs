//! The one path a telemetry record takes from a hot-path producer to its
//! consumer: a bounded lock-free ring, counted-never-silent shedding, a
//! drain, and an off-thread pump.
//!
//! Journal events, trace spans, quality samples and drift observations
//! all travel this way. A producer holds a cloneable [`Sink<T>`]; pushing
//! is a handful of atomic ops and one inline copy, never a lock, never an
//! allocation, no `dyn` — and when the ring is full the record is *shed
//! and counted*, so a stalled consumer costs visibility, not tap
//! throughput. A disabled sink is one branch. The consumer owns the
//! [`Channel<T>`] and calls [`Channel::drain`] whenever it wants the
//! queued records (scrape time, exit, or a [`Pump`] tick).

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use crate::event::EventRing;
use crate::metric::Counter;
use crate::registry::Registry;

/// Locks `mutex`, recovering from poisoning: a panicked exporter must not
/// take a recorder down with it, and every structure behind these locks
/// is only ever appended to.
pub fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// `(family name, help string)` of a counter a channel or pump registers.
pub type Family = (&'static str, &'static str);

/// Consumer side of one telemetry stream: the ring plus its accepted and
/// shed counters.
pub struct Channel<T> {
    ring: EventRing<T>,
    recorded: Arc<Counter>,
    dropped: Arc<Counter>,
}

impl<T> Channel<T> {
    /// A channel of `capacity` records (rounded up to a power of two)
    /// counting accepted records in `recorded` and shed ones in `dropped`
    /// on `registry`, both labeled `profile=` when one is given.
    pub fn new(
        capacity: usize,
        registry: &Registry,
        recorded: Family,
        dropped: Family,
        profile: Option<&'static str>,
    ) -> Arc<Channel<T>> {
        let counter = |(name, help): Family| match profile {
            Some(p) => registry.counter_with(name, help, &[("profile", p)]),
            None => registry.counter(name, help),
        };
        Arc::new(Channel {
            ring: EventRing::with_capacity(capacity),
            recorded: counter(recorded),
            dropped: counter(dropped),
        })
    }

    /// A producer handle feeding this channel.
    pub fn sink(self: &Arc<Self>) -> Sink<T> {
        Sink(Some(Arc::clone(self)))
    }

    /// Hands every queued record to `each` in queue order; returns how
    /// many. Cheap when the ring is empty.
    pub fn drain(&self, mut each: impl FnMut(T)) -> usize {
        let mut n = 0;
        while let Some(value) = self.ring.try_pop() {
            n += 1;
            each(value);
        }
        n
    }

    /// Records shed so far because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }
}

/// Producer handle: clone freely, push from any thread, never blocks.
pub struct Sink<T>(Option<Arc<Channel<T>>>);

impl<T> Sink<T> {
    /// A sink that records nowhere — every push is one branch.
    pub fn disabled() -> Self {
        Sink(None)
    }

    /// True when pushes actually reach a consumer (gate any non-trivial
    /// record building on this to keep the no-telemetry path free).
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Queues one record, or counts it as shed when the ring is full. A
    /// no-op on a disabled sink.
    #[inline]
    pub fn push(&self, value: T) {
        if let Some(channel) = &self.0 {
            match channel.ring.try_push(value) {
                Ok(()) => channel.recorded.inc(),
                Err(_) => channel.dropped.inc(),
            }
        }
    }

    /// Records this sink's channel has shed (0 when disabled).
    pub fn dropped(&self) -> u64 {
        self.0.as_ref().map_or(0, |channel| channel.dropped())
    }
}

impl<T> Clone for Sink<T> {
    fn clone(&self) -> Self {
        Sink(self.0.clone())
    }
}

impl<T> Default for Sink<T> {
    fn default() -> Self {
        Sink::disabled()
    }
}

impl<T> std::fmt::Debug for Sink<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sink")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

// ------------------------------------------------------------ pump

/// A consumer a [`Pump`] can keep drained.
pub trait Drain: Send + 'static {
    /// The pump thread's name.
    const THREAD: &'static str;
    /// Counter of drain passes the pump performed.
    const PASSES: Family;
    /// Counter of records the pump moved.
    const MOVED: Family;

    /// Moves every queued record into the consumer's state; returns how
    /// many.
    fn drain(&mut self) -> usize;
}

/// Off-thread consumer: drains a shared [`Drain`] target every `interval`
/// so its state stays fresh in long-lived deployments — scrapes read
/// drained state instead of triggering a drain themselves, and producers
/// get ring space back at a steady cadence rather than at the next scrape.
///
/// Stopping (or dropping) the pump makes the thread run one last pass, so
/// nothing queued at shutdown is lost.
pub struct Pump {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Pump {
    /// Spawns the thread draining `target` every `interval`, counting its
    /// work in `D::PASSES` / `D::MOVED` on `registry`.
    pub fn start<D: Drain>(target: Arc<Mutex<D>>, interval: Duration, registry: &Registry) -> Pump {
        let passes = registry.counter(D::PASSES.0, D::PASSES.1);
        let moved = registry.counter(D::MOVED.0, D::MOVED.1);
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(D::THREAD.into())
            .spawn(move || loop {
                let stopping = {
                    let (stopped, wake) = &*flag;
                    let guard = lock(stopped);
                    *guard
                        || *wake
                            .wait_timeout(guard, interval)
                            .unwrap_or_else(|e| e.into_inner())
                            .0
                };
                // Also the final drain: the pass after the stop flag was
                // seen picks up everything pushed before `stop` was called.
                let n = lock(&target).drain();
                passes.inc();
                if n > 0 {
                    moved.add(n as u64);
                }
                if stopping {
                    break;
                }
            })
            .expect("spawn pump thread");
        Pump {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the thread after its final drain (also what `Drop` does; call
    /// explicitly when you want the join to be visible).
    pub fn stop(self) {}
}

impl Drop for Pump {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let (stopped, wake) = &*self.stop;
            *lock(stopped) = true;
            wake.notify_all();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RECORDED: Family = ("test_records_total", "accepted");
    const DROPPED: Family = ("test_shed_total", "shed");

    /// A consumer that just collects what it drains.
    struct Collected(Arc<Channel<u64>>, Vec<u64>);

    impl Drain for Collected {
        const THREAD: &'static str = "test-pump";
        const PASSES: Family = ("test_pump_drains_total", "passes");
        const MOVED: Family = ("test_pump_records_total", "moved");

        fn drain(&mut self) -> usize {
            let Collected(channel, got) = self;
            channel.drain(|v| got.push(v))
        }
    }

    fn collected(registry: &Registry) -> (Sink<u64>, Arc<Mutex<Collected>>) {
        let channel = Channel::new(64, registry, RECORDED, DROPPED, None);
        let sink = channel.sink();
        (sink, Arc::new(Mutex::new(Collected(channel, Vec::new()))))
    }

    #[test]
    fn disabled_sink_is_a_noop() {
        let sink: Sink<u64> = Sink::default();
        assert!(!sink.is_enabled());
        sink.push(1); // must not panic or record
        assert_eq!(sink.dropped(), 0);
        assert!(!sink.clone().is_enabled());
    }

    #[test]
    fn ring_overflow_is_counted_never_silent() {
        let registry = Registry::new();
        let channel = Channel::new(8, &registry, RECORDED, DROPPED, None);
        let sink = channel.sink();
        for i in 0..20u64 {
            sink.push(i);
        }
        let mut got = Vec::new();
        let drained = channel.drain(|v| got.push(v));
        let snap = registry.snapshot();
        let recorded = snap.counter(RECORDED.0).unwrap();
        let dropped = snap.counter(DROPPED.0).unwrap();
        assert_eq!(recorded + dropped, 20);
        assert_eq!(drained as u64, recorded);
        assert_eq!(got, (0..recorded).collect::<Vec<_>>(), "queue order kept");
        assert!(dropped > 0, "an 8-slot ring cannot hold 20 records");
        assert_eq!((channel.dropped(), sink.dropped()), (dropped, dropped));
    }

    #[test]
    fn pump_drains_continuously_without_scrapes() {
        let registry = Registry::new();
        let (sink, target) = collected(&registry);
        let pump = Pump::start(Arc::clone(&target), Duration::from_millis(1), &registry);
        for i in 0..50u64 {
            sink.push(i);
        }
        // The consumer runs off-thread: records reach the target without
        // anyone calling drain() on this thread.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while lock(&target).1.len() < 50 {
            assert!(std::time::Instant::now() < deadline, "pump never drained");
            std::thread::yield_now();
        }
        pump.stop();
        let snap = registry.snapshot();
        assert!(snap.counter("test_pump_drains_total").unwrap() > 0);
        assert_eq!(snap.counter("test_pump_records_total"), Some(50));
    }

    #[test]
    fn pump_final_drain_flushes_shutdown_tail() {
        let registry = Registry::new();
        let (sink, target) = collected(&registry);
        // A pump on a long interval: nothing drains until shutdown.
        let pump = Pump::start(Arc::clone(&target), Duration::from_secs(3600), &registry);
        sink.push(1);
        sink.push(2);
        drop(pump); // final drain on drop
        assert_eq!(lock(&target).1, [1, 2]);
    }
}
