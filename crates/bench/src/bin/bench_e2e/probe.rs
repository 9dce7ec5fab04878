//! Process-level probes: a counting global allocator and a CPU-time reader.
//!
//! Both are local to this binary. The allocator wraps `System`, so the
//! program under test allocates exactly as it would without it, plus four
//! relaxed atomic updates per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// `System` plus counters: allocations, bytes allocated, live bytes, and a
/// resettable high-water mark of live bytes.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters are statistics and publish no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Allocator counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct AllocSnapshot {
    pub allocs: u64,
    pub bytes: u64,
}

pub fn alloc_snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Restarts the high-water mark from the bytes live now and returns them:
/// the baseline a later [`peak_above`] is measured against.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Bytes the high-water mark rose above `baseline` since [`reset_peak`].
pub fn peak_above(baseline: u64) -> u64 {
    PEAK.load(Relaxed).saturating_sub(baseline)
}

/// CPU seconds (user + system) this process has used, from
/// `/proc/self/stat`; `None` where `/proc` is absent, so the caller omits
/// the metric instead of reporting zero.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, where utime and stime are the 12th and 13th.
    let mut fields = stat.get(stat.rfind(')')? + 1..)?.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    // USER_HZ is 100 on every Linux ABI Rust targets.
    Some((utime + stime) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_a_transient_allocation() {
        let base = reset_peak();
        let before = alloc_snapshot();
        let v = vec![0u8; 1 << 20];
        std::hint::black_box(&v);
        drop(v);
        // Other test threads allocate too, so only lower bounds hold.
        assert!(peak_above(base) >= 1 << 20);
        let after = alloc_snapshot();
        assert!(after.allocs > before.allocs);
        assert!(after.bytes - before.bytes >= 1 << 20);
    }

    #[test]
    fn cpu_time_advances_when_proc_exists() {
        let Some(t0) = cpu_seconds() else { return };
        let mut x = 0u64;
        while cpu_seconds().unwrap() <= t0 {
            for i in 0..1_000_000u64 {
                x = x.wrapping_add(std::hint::black_box(i));
            }
        }
        std::hint::black_box(x);
    }
}
