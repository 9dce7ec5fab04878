//! Time and rate units shared across the workspace.
//!
//! All packet timestamps are microseconds (`u64`) since an arbitrary epoch
//! (usually session start). Microsecond resolution matches the classic
//! libpcap record header and is fine-grained enough for the sub-millisecond
//! inter-arrival statistics the launch-stage attributes need.

/// Microseconds since an arbitrary epoch (normally session start).
pub type Micros = u64;

/// Microseconds in one second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// Bits per byte, named to keep throughput conversions legible.
pub const BITS_PER_BYTE: u64 = 8;

/// Converts seconds (possibly fractional) to microseconds, saturating at
/// `u64::MAX`. Negative inputs clamp to zero.
pub fn secs_to_micros(secs: f64) -> Micros {
    if secs <= 0.0 {
        return 0;
    }
    let v = secs * MICROS_PER_SEC as f64;
    if v >= u64::MAX as f64 {
        u64::MAX
    } else {
        v as u64
    }
}

/// Converts microseconds to fractional seconds.
fn micros_to_secs(us: Micros) -> f64 {
    us as f64 / MICROS_PER_SEC as f64
}

/// Converts a byte count observed over `window_us` microseconds into
/// megabits per second. Returns 0 for an empty window.
pub fn bytes_to_mbps(bytes: u64, window_us: Micros) -> f64 {
    if window_us == 0 {
        return 0.0;
    }
    (bytes * BITS_PER_BYTE) as f64 / micros_to_secs(window_us) / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_micros_roundtrip() {
        assert_eq!(secs_to_micros(1.0), MICROS_PER_SEC);
        assert_eq!(secs_to_micros(0.5), 500_000);
        assert_eq!(secs_to_micros(0.0), 0);
        assert_eq!(secs_to_micros(-3.0), 0);
        assert!((micros_to_secs(secs_to_micros(12.25)) - 12.25).abs() < 1e-9);
    }

    #[test]
    fn secs_to_micros_saturates() {
        assert_eq!(secs_to_micros(f64::MAX), u64::MAX);
    }

    #[test]
    fn throughput_conversions() {
        // 1 MB over 1 s = 8 Mbps.
        assert!((bytes_to_mbps(1_000_000, MICROS_PER_SEC) - 8.0).abs() < 1e-9);
        // Empty window yields zero instead of dividing by zero.
        assert_eq!(bytes_to_mbps(1234, 0), 0.0);
    }
}
