//! Log-linear-bucket histogram for latency-style `u64` samples.
//!
//! The bucketing scheme is HDR-style: values `0..=15` each get an exact
//! bucket; above that, every power-of-two octave is split into 8 linear
//! sub-buckets, which bounds the relative quantile error at 12.5% while
//! covering the full `u64` range in 496 buckets. Recording a sample is a
//! handful of relaxed atomic adds and never allocates — the bucket array
//! is allocated once at construction.

use crate::snapshot::{ExemplarSnapshot, HistBucket, HistogramSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};

/// Exact buckets for values `0..=15`.
const LINEAR_BUCKETS: usize = 16;
/// Sub-buckets per power-of-two octave above the linear range.
const SUB_BUCKETS: usize = 8;
/// Most significant bit of the first log-linear octave (values 16..=31).
const FIRST_OCTAVE_MSB: u32 = 4;
/// Total bucket count covering all of `u64`.
const N_BUCKETS: usize = LINEAR_BUCKETS + (64 - FIRST_OCTAVE_MSB as usize) * SUB_BUCKETS;

/// Map a sample to its bucket index.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_BUCKETS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let sub = ((v >> (msb - 3)) & 0x7) as usize;
        LINEAR_BUCKETS + (msb - FIRST_OCTAVE_MSB) as usize * SUB_BUCKETS + sub
    }
}

/// Inclusive lower bound of bucket `i`.
#[inline]
fn bucket_lo(i: usize) -> u64 {
    if i < LINEAR_BUCKETS {
        i as u64
    } else {
        let octave = (i - LINEAR_BUCKETS) / SUB_BUCKETS;
        let sub = ((i - LINEAR_BUCKETS) % SUB_BUCKETS) as u64;
        let msb = octave as u32 + FIRST_OCTAVE_MSB;
        (SUB_BUCKETS as u64 + sub) << (msb - 3)
    }
}

/// Exclusive upper bound of bucket `i` (saturating at `u64::MAX`).
#[inline]
fn bucket_hi(i: usize) -> u64 {
    if i < LINEAR_BUCKETS {
        i as u64 + 1
    } else if i + 1 >= N_BUCKETS {
        u64::MAX
    } else {
        bucket_lo(i + 1)
    }
}

/// Concurrent log-linear histogram.
///
/// Every mutation path uses relaxed atomics, so a histogram handle can
/// be shared freely across shard threads. Reads taken while writers are
/// active are approximate (counts and sum may be from slightly different
/// instants), which is the standard trade-off for lock-free telemetry.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// Seqlock-style exemplar cell: `exemplar_seq` is 0 until the first
    /// write, odd while a write is in flight, even when the value/flow/
    /// trace triple is consistent. Writers skip (last-write-wins is
    /// approximate anyway) rather than spin, so the hot path stays
    /// lock-free.
    exemplar_seq: AtomicU64,
    exemplar_value: AtomicU64,
    exemplar_flow: AtomicU64,
    exemplar_trace: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create an empty histogram (the only allocating operation).
    pub fn new() -> Self {
        let buckets = (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            exemplar_seq: AtomicU64::new(0),
            exemplar_value: AtomicU64::new(0),
            exemplar_flow: AtomicU64::new(0),
            exemplar_trace: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record one sample and attach it as the histogram's exemplar: the
    /// `(flow, trace)` identity lets an OpenMetrics scrape resolve a
    /// latency bucket back to a `/trace` timeline. Sampled call sites
    /// only — the plain [`Histogram::record`] path is untouched.
    pub fn record_with_exemplar(&self, v: u64, flow: u64, trace: u64) {
        self.record(v);
        self.write_exemplar(v, flow, trace);
    }

    /// Write the exemplar cell without touching the sample counts.
    fn write_exemplar(&self, v: u64, flow: u64, trace: u64) {
        let seq = self.exemplar_seq.load(Ordering::Relaxed);
        if seq & 1 == 1 {
            return; // another writer is mid-flight; theirs wins
        }
        if self
            .exemplar_seq
            .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        self.exemplar_value.store(v, Ordering::Relaxed);
        self.exemplar_flow.store(flow, Ordering::Relaxed);
        self.exemplar_trace.store(trace, Ordering::Relaxed);
        self.exemplar_seq.store(seq + 2, Ordering::Release);
    }

    /// The most recently attached exemplar, if any call site ever
    /// attached one and a consistent read is available right now.
    pub fn exemplar(&self) -> Option<ExemplarSnapshot> {
        for _ in 0..8 {
            let before = self.exemplar_seq.load(Ordering::Acquire);
            if before == 0 {
                return None; // never written
            }
            if before & 1 == 1 {
                std::hint::spin_loop();
                continue; // write in flight
            }
            let snap = ExemplarSnapshot {
                value: self.exemplar_value.load(Ordering::Relaxed),
                flow: self.exemplar_flow.load(Ordering::Relaxed),
                trace: self.exemplar_trace.load(Ordering::Relaxed),
            };
            if self.exemplar_seq.load(Ordering::Acquire) == before {
                return Some(snap);
            }
        }
        None // writers kept winning; exemplars are best-effort
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Capture the current contents as an immutable snapshot, keeping
    /// only non-empty buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push(HistBucket {
                    lo: bucket_lo(i),
                    hi: bucket_hi(i),
                    count: n,
                });
            }
        }
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            buckets,
            exemplar: self.exemplar(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    #[test]
    fn linear_range_is_exact() {
        for v in 0u64..16 {
            let i = bucket_index(v);
            assert_eq!(i, v as usize);
            assert_eq!(bucket_lo(i), v);
            assert_eq!(bucket_hi(i), v + 1);
        }
    }

    #[test]
    fn bucket_bounds_contain_their_values() {
        let probes = [
            16u64,
            17,
            31,
            32,
            100,
            1_000,
            65_535,
            65_536,
            1 << 30,
            (1 << 40) + 12345,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &probes {
            let i = bucket_index(v);
            assert!(i < N_BUCKETS, "index {i} out of range for {v}");
            assert!(bucket_lo(i) <= v, "lo({i}) > {v}");
            assert!(
                v < bucket_hi(i) || bucket_hi(i) == u64::MAX,
                "hi({i}) <= {v}"
            );
        }
    }

    #[test]
    fn buckets_tile_the_number_line() {
        for i in 0..N_BUCKETS - 1 {
            assert_eq!(
                bucket_hi(i),
                bucket_lo(i + 1),
                "gap or overlap between buckets {i} and {}",
                i + 1
            );
        }
    }

    #[test]
    fn relative_bucket_width_is_bounded() {
        // Above the linear range every bucket spans lo..lo+lo/8, so the
        // midpoint mis-estimates a sample by at most 12.5%.
        for i in LINEAR_BUCKETS..N_BUCKETS - 1 {
            let lo = bucket_lo(i);
            let hi = bucket_hi(i);
            assert!(hi - lo <= lo / 8 + 1, "bucket {i} too wide: {lo}..{hi}");
        }
    }

    #[test]
    fn count_sum_min_max_track_samples() {
        let h = Histogram::new();
        for v in [3u64, 9, 1000, 77] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 3 + 9 + 1000 + 77);
        assert_eq!(s.min, 3);
        assert_eq!(s.max, 1000);
    }

    #[test]
    fn empty_snapshot_is_sane() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert!(s.buckets.is_empty());
        assert!(s.quantile(0.5).is_none());
    }

    #[test]
    fn quantiles_track_exact_values_on_random_data() {
        let mut rng = StdRng::seed_from_u64(42);
        let h = Histogram::new();
        // Mixed regimes: small exact values, mid-range, heavy tail.
        let mut samples: Vec<u64> = (0..5000)
            .map(|i| match i % 3 {
                0 => rng.gen_range(0..16),
                1 => rng.gen_range(100..10_000),
                _ => rng.gen_range(100_000..50_000_000),
            })
            .collect();
        for &v in &samples {
            h.record(v);
        }
        samples.sort_unstable();
        let snap = h.snapshot();
        for q in [0.5, 0.95, 0.99] {
            let exact = samples[((samples.len() - 1) as f64 * q) as usize] as f64;
            let est = snap.quantile(q).unwrap();
            let tolerance = exact * 0.125 + 1.0;
            assert!(
                (est - exact).abs() <= tolerance,
                "q{q}: est {est} vs exact {exact} (tolerance {tolerance})"
            );
        }
    }

    #[test]
    fn exemplar_is_last_write_wins_and_consistent() {
        let h = Histogram::new();
        assert!(h.exemplar().is_none(), "no exemplar before first write");
        assert!(h.snapshot().exemplar.is_none());
        h.record_with_exemplar(120, 0xf10, 0x71c);
        h.record_with_exemplar(450, 0xf20, 0x72c);
        let e = h.exemplar().expect("exemplar after writes");
        assert_eq!(e.value, 450);
        assert_eq!(e.flow, 0xf20);
        assert_eq!(e.trace, 0x72c);
        // The samples themselves landed in the ordinary buckets.
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 570);
        assert_eq!(s.exemplar, Some(e));
    }

    #[test]
    fn concurrent_exemplar_writers_never_tear() {
        const THREADS: u64 = 4;
        const PER: u64 = 10_000;
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..PER {
                        // Keep (value, flow, trace) correlated so a torn
                        // read is detectable.
                        let v = t * PER + i;
                        h.record_with_exemplar(v, v + 1, v + 2);
                    }
                })
            })
            .collect();
        let reader = {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                let mut seen = 0u64;
                for _ in 0..50_000 {
                    if let Some(e) = h.exemplar() {
                        assert_eq!(e.flow, e.value + 1, "torn exemplar: {e:?}");
                        assert_eq!(e.trace, e.value + 2, "torn exemplar: {e:?}");
                        seen += 1;
                    }
                }
                seen
            })
        };
        for handle in handles {
            handle.join().unwrap();
        }
        reader.join().unwrap();
        let e = h.exemplar().expect("quiescent read always succeeds");
        assert_eq!(e.flow, e.value + 1);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 25_000;
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(t * PER_THREAD + i);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, THREADS * PER_THREAD);
        let n = THREADS * PER_THREAD;
        assert_eq!(s.sum, n * (n - 1) / 2);
        assert_eq!(s.buckets.iter().map(|b| b.count).sum::<u64>(), n);
    }
}
