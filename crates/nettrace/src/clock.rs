//! Real vs. virtual time for long-lived deployments and deterministic
//! tests.
//!
//! Everything time-driven in the live path — paced replay, idle expiry,
//! periodic telemetry — asks a [`Clock`] instead of the OS, so the same
//! code runs against wall time at an ISP tap and against an instantly
//! advancing [`VirtualClock`] in tests. Clocks speak the tap timebase
//! ([`Micros`]): a [`RealClock`] can be anchored at an arbitrary origin
//! (e.g. the first capture timestamp of a replayed pcap) so wall elapsed
//! time and capture timestamps share one axis.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::units::Micros;

/// A monotonic microsecond clock the live path can sleep against.
///
/// Implementations must be cheap to read and safe to share across
/// threads; `sleep_until` with a past deadline returns immediately.
pub trait Clock: fmt::Debug + Send + Sync {
    /// Current time on this clock's axis, microseconds.
    fn now(&self) -> Micros;

    /// Blocks (or, for virtual clocks, advances) until `deadline`.
    fn sleep_until(&self, deadline: Micros);
}

/// Shared handle to a clock implementation.
pub type SharedClock = Arc<dyn Clock>;

/// Signed microsecond clock-skew offset between two timebases.
///
/// Multi-vantage captures (several NICs, several pcaps, several taps)
/// each carry their own clock; fusing them requires shifting every
/// per-source timestamp onto one shared axis. Offsets are signed — a
/// vantage point whose clock runs ahead needs a negative correction.
pub type SkewMicros = i64;

/// Shifts `ts` by a signed skew `offset`, saturating at the axis edges
/// (a correction can never wrap a timestamp around zero or `u64::MAX`).
pub fn shift_micros(ts: Micros, offset: SkewMicros) -> Micros {
    if offset >= 0 {
        ts.saturating_add(offset as u64)
    } else {
        ts.saturating_sub(offset.unsigned_abs())
    }
}

/// A [`Clock`] adapter that reads another clock through a constant skew
/// offset — the per-source view of a shared merge timeline.
///
/// `now()` reports `inner.now() + offset` (saturating), and
/// `sleep_until(d)` sleeps the inner clock until `d - offset`, so a
/// source whose capture clock ran `offset` µs ahead of the fused axis
/// still paces correctly against the shared clock.
#[derive(Debug, Clone)]
pub struct OffsetClock {
    inner: SharedClock,
    offset: SkewMicros,
}

impl OffsetClock {
    /// Wraps `inner`, skewing every reading by `offset` µs.
    pub fn new(inner: SharedClock, offset: SkewMicros) -> Self {
        OffsetClock { inner, offset }
    }

    /// The skew this adapter applies, µs.
    pub fn offset(&self) -> SkewMicros {
        self.offset
    }

    /// A shared handle to this adapter.
    pub fn shared(self) -> SharedClock {
        Arc::new(self)
    }
}

impl Clock for OffsetClock {
    fn now(&self) -> Micros {
        shift_micros(self.inner.now(), self.offset)
    }

    fn sleep_until(&self, deadline: Micros) {
        self.inner.sleep_until(shift_micros(deadline, -self.offset));
    }
}

/// Wall-clock time, anchored so `now()` reads `origin + elapsed`.
#[derive(Debug)]
pub struct RealClock {
    started: Instant,
    origin: Micros,
}

impl RealClock {
    /// A wall clock starting at 0 µs.
    pub fn new() -> Self {
        Self::starting_at(0)
    }

    /// A wall clock whose `now()` starts at `origin` — anchor it at the
    /// first capture timestamp to replay a pcap on its own timebase.
    pub fn starting_at(origin: Micros) -> Self {
        RealClock {
            started: Instant::now(),
            origin,
        }
    }

    /// A fresh shared wall clock starting at 0 µs.
    pub fn shared() -> SharedClock {
        Arc::new(RealClock::new())
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now(&self) -> Micros {
        self.origin + self.started.elapsed().as_micros() as u64
    }

    fn sleep_until(&self, deadline: Micros) {
        loop {
            let now = self.now();
            if now >= deadline {
                return;
            }
            // One sleep usually suffices; the loop covers early wakeups.
            std::thread::sleep(Duration::from_micros(deadline - now));
        }
    }
}

/// Manually advanced time: `sleep_until` completes instantly by jumping
/// the clock forward, which makes paced replay and idle expiry
/// deterministic and instant in tests.
///
/// Clones share the same underlying instant, so a producer advancing the
/// clock is immediately visible to every consumer.
#[derive(Debug, Clone)]
pub struct VirtualClock {
    now: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A virtual clock starting at `origin` µs.
    pub fn starting_at(origin: Micros) -> Self {
        VirtualClock {
            now: Arc::new(AtomicU64::new(origin)),
        }
    }

    /// A virtual clock starting at 0 µs.
    pub fn new() -> Self {
        Self::starting_at(0)
    }

    /// Jumps the clock forward to `t` (never backwards).
    pub fn advance_to(&self, t: Micros) {
        self.now.fetch_max(t, Ordering::SeqCst);
    }

    /// A shared handle to this clock (clones stay in sync with it).
    pub fn shared(&self) -> SharedClock {
        Arc::new(self.clone())
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Micros {
        self.now.load(Ordering::SeqCst)
    }

    fn sleep_until(&self, deadline: Micros) {
        self.advance_to(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotonic_and_anchored() {
        let c = RealClock::starting_at(5_000_000);
        let a = c.now();
        assert!(a >= 5_000_000);
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn real_clock_sleep_until_past_deadline_returns_immediately() {
        let c = RealClock::new();
        let before = Instant::now();
        c.sleep_until(0);
        assert!(before.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn real_clock_sleep_until_waits() {
        let c = RealClock::new();
        let target = c.now() + 2_000; // 2 ms
        c.sleep_until(target);
        assert!(c.now() >= target);
    }

    #[test]
    fn virtual_clock_jumps_instantly_and_never_rewinds() {
        let c = VirtualClock::starting_at(100);
        assert_eq!(c.now(), 100);
        c.sleep_until(1_000_000);
        assert_eq!(c.now(), 1_000_000);
        c.advance_to(500); // backwards: ignored
        assert_eq!(c.now(), 1_000_000);
    }

    #[test]
    fn shift_micros_is_signed_and_saturating() {
        assert_eq!(shift_micros(100, 25), 125);
        assert_eq!(shift_micros(100, -25), 75);
        assert_eq!(shift_micros(10, -25), 0, "saturates at the origin");
        assert_eq!(shift_micros(u64::MAX - 1, 25), u64::MAX);
    }

    #[test]
    fn offset_clock_skews_readings_and_unskews_sleeps() {
        let base = VirtualClock::starting_at(1_000);
        let ahead = OffsetClock::new(base.shared(), 250);
        assert_eq!(ahead.now(), 1_250);
        // Sleeping to 2_000 on the skewed axis is 1_750 on the base axis.
        ahead.sleep_until(2_000);
        assert_eq!(base.now(), 1_750);
        assert_eq!(ahead.now(), 2_000);

        let behind = OffsetClock::new(base.shared(), -500);
        assert_eq!(behind.now(), 1_250);
        assert_eq!(behind.offset(), -500);
    }

    #[test]
    fn virtual_clock_clones_share_time() {
        let c = VirtualClock::new();
        let shared: SharedClock = c.shared();
        c.advance_to(42);
        assert_eq!(shared.now(), 42);
        shared.sleep_until(99);
        assert_eq!(c.now(), 99);
    }
}
