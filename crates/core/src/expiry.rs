//! Bucketed idle-expiry queue for the tap flow table.
//!
//! The serial monitor used to find idle flows by scanning every tracked
//! flow on each `finish_idle` call — O(active flows) even when nothing is
//! due. [`ExpiryWheel`] replaces that with a timing wheel: flows are
//! bucketed by their last-seen timestamp, and a `finish_idle` pass only
//! walks the buckets whose time range has fallen behind the cutoff. A flow
//! touched again is *lazily* reinserted — the stale entry in its old bucket
//! is skipped when that bucket eventually drains, so `touch` stays O(1)
//! amortized.
//!
//! The wheel also knows the exact least-recently-seen flow (the oldest
//! live bucket is drained of stale entries first, then its minimum
//! last-seen wins), which the bounded flow table uses for LRU eviction.

use std::collections::BTreeMap;

use nettrace::units::Micros;

/// Per-entry bookkeeping: the newest bucket holding a live entry for the
/// key, and the exact last-seen time.
#[derive(Debug, Clone, Copy)]
struct Slot {
    bucket: u64,
    last_seen: Micros,
}

/// A timing wheel keyed by the monitor's dense arena slot ids.
///
/// Invariants: every live key has `Some` entry in `slots`, and
/// `buckets[slot.bucket]` contains it. Buckets may additionally hold
/// *stale* entries for keys that were touched again later (or removed, or
/// removed and reused); those are discarded when the bucket is visited.
#[derive(Debug)]
pub struct ExpiryWheel {
    /// Bucket index -> keys last touched within that bucket's time range.
    buckets: BTreeMap<u64, Vec<u32>>,
    /// Live entry per key, indexed by the key: [`touch`](Self::touch) runs
    /// once per packet, and the ids are dense, so this is an array index
    /// where a keyed hash table used to be probed. Grows to the largest id
    /// seen and stays there, like the arena the ids come from.
    slots: Vec<Option<Slot>>,
    /// Number of `Some` entries in `slots`.
    live: usize,
    /// Bucket width in microseconds.
    width: Micros,
    /// Entries examined across all drain/evict operations (stale included) —
    /// the observability counter proving expiry work is proportional to due
    /// flows, not to the table size.
    scanned: u64,
}

impl ExpiryWheel {
    /// A wheel with the given bucket width (clamped to ≥ 1 µs).
    pub fn new(bucket_width: Micros) -> Self {
        ExpiryWheel {
            buckets: BTreeMap::new(),
            slots: Vec::new(),
            live: 0,
            width: bucket_width.max(1),
            scanned: 0,
        }
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live keys remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total entries examined by [`drain_due`](Self::drain_due) and
    /// [`pop_least_recent`](Self::pop_least_recent) so far.
    pub fn entries_scanned(&self) -> u64 {
        self.scanned
    }

    /// Records that `key` was seen at `last_seen`. The previous entry (if
    /// any) goes stale in place; only the newest bucket counts.
    pub fn touch(&mut self, key: u32, last_seen: Micros) {
        let bucket = last_seen / self.width;
        let index = key as usize;
        if index >= self.slots.len() {
            self.slots.resize(index + 1, None);
        }
        match &mut self.slots[index] {
            Some(slot) => {
                let same_bucket = slot.bucket == bucket;
                slot.last_seen = last_seen;
                if same_bucket {
                    return; // entry already lives in the right bucket
                }
                slot.bucket = bucket;
            }
            vacant => {
                *vacant = Some(Slot { bucket, last_seen });
                self.live += 1;
            }
        }
        self.buckets.entry(bucket).or_default().push(key);
    }

    /// The live entry of `key`, if any.
    fn slot(&self, key: u32) -> Option<Slot> {
        self.slots.get(key as usize).copied().flatten()
    }

    /// Forgets `key` (stale bucket entries are cleaned up lazily).
    pub fn remove(&mut self, key: &u32) {
        if let Some(slot) = self.slots.get_mut(*key as usize) {
            self.live -= usize::from(slot.take().is_some());
        }
    }

    /// Exact last-seen time of a live key.
    pub fn last_seen(&self, key: &u32) -> Option<Micros> {
        self.slot(*key).map(|s| s.last_seen)
    }

    /// Removes and returns every key with `last_seen < cutoff`, visiting
    /// only buckets whose time range starts before the cutoff. Keys in the
    /// partially-due boundary bucket that are not yet idle stay put.
    pub fn drain_due(&mut self, cutoff: Micros) -> Vec<u32> {
        let mut due = Vec::new();
        // Bucket b covers [b*width, (b+1)*width): only buckets starting
        // before the cutoff can hold due keys.
        let boundary = cutoff / self.width;
        let candidates: Vec<u64> = self.buckets.range(..=boundary).map(|(&b, _)| b).collect();
        for b in candidates {
            let entries = self.buckets.remove(&b).expect("bucket present");
            let mut keep = Vec::new();
            for key in entries {
                self.scanned += 1;
                match self.slot(key) {
                    // Live entry in this bucket and actually idle.
                    Some(slot) if slot.bucket == b && slot.last_seen < cutoff => {
                        self.remove(&key);
                        due.push(key);
                    }
                    // Live entry in this bucket but inside the boundary
                    // bucket's not-yet-due half: keep it where it is.
                    Some(slot) if slot.bucket == b => keep.push(key),
                    // Stale (touched later, or removed): drop silently.
                    _ => {}
                }
            }
            if !keep.is_empty() {
                self.buckets.insert(b, keep);
            }
        }
        due
    }

    /// Removes and returns the exact least-recently-seen key, cleaning up
    /// stale entries from the oldest buckets along the way.
    pub fn pop_least_recent(&mut self) -> Option<u32> {
        loop {
            let b = *self.buckets.keys().next()?;
            let entries = self.buckets.remove(&b).expect("bucket present");
            // Keep only entries still live in this bucket; among them the
            // minimum last-seen is the global minimum, because every older
            // bucket has already been cleaned away.
            let mut live: Vec<u32> = Vec::with_capacity(entries.len());
            for key in entries {
                self.scanned += 1;
                if self.slot(key).is_some_and(|s| s.bucket == b) {
                    live.push(key);
                }
            }
            if live.is_empty() {
                continue; // bucket was all stale — try the next oldest
            }
            let (idx, _) = live
                .iter()
                .enumerate()
                .min_by_key(|(_, &k)| self.slot(k).map(|s| s.last_seen))
                .expect("non-empty");
            let victim = live.swap_remove(idx);
            self.remove(&victim);
            if !live.is_empty() {
                self.buckets.insert(b, live);
            }
            return Some(victim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_and_drain_respect_cutoff() {
        let mut w: ExpiryWheel = ExpiryWheel::new(1_000_000);
        w.touch(1, 100);
        w.touch(2, 1_500_000);
        w.touch(3, 2_500_000);
        assert_eq!(w.len(), 3);
        let mut due = w.drain_due(2_000_000);
        due.sort_unstable();
        assert_eq!(due, vec![1, 2]);
        assert_eq!(w.len(), 1);
        assert_eq!(w.drain_due(2_000_000), Vec::<u32>::new());
    }

    #[test]
    fn retouching_defers_expiry() {
        let mut w: ExpiryWheel = ExpiryWheel::new(1_000_000);
        w.touch(7, 100);
        w.touch(7, 5_000_000); // seen again much later
        assert_eq!(w.drain_due(4_000_000), Vec::<u32>::new());
        assert_eq!(w.drain_due(6_000_000), vec![7]);
        assert!(w.is_empty());
    }

    #[test]
    fn boundary_bucket_is_split_exactly() {
        // Two keys share the boundary bucket; only the one strictly before
        // the cutoff expires.
        let mut w: ExpiryWheel = ExpiryWheel::new(1_000_000);
        w.touch(1, 1_200_000);
        w.touch(2, 1_800_000);
        assert_eq!(w.drain_due(1_500_000), vec![1]);
        assert_eq!(w.len(), 1);
        assert_eq!(w.drain_due(1_900_000), vec![2]);
    }

    #[test]
    fn removed_keys_never_drain() {
        let mut w: ExpiryWheel = ExpiryWheel::new(1_000);
        w.touch(1, 10);
        w.touch(2, 20);
        w.remove(&1);
        assert_eq!(w.drain_due(1_000_000), vec![2]);
    }

    #[test]
    fn reused_slot_id_leaves_its_old_entry_stale() {
        // The monitor's arena hands a finalized flow's id to the next flow:
        // id 3 is removed, then touched again in an *older* bucket. The
        // entry it left in bucket 5 must not drain the new flow early.
        let mut w: ExpiryWheel = ExpiryWheel::new(1_000_000);
        w.touch(3, 5_500_000);
        w.touch(4, 5_600_000);
        w.remove(&3);
        assert_eq!(w.len(), 1);
        assert_eq!(w.last_seen(&3), None);
        w.touch(3, 2_500_000);
        assert_eq!(w.len(), 2);
        assert_eq!(w.drain_due(2_000_000), Vec::<u32>::new());
        assert_eq!(w.drain_due(3_000_000), vec![3]);
        assert_eq!(w.len(), 1);
        // Bucket 5 still holds the stale 3 beside the live 4.
        assert_eq!(w.drain_due(10_000_000), vec![4]);
        assert!(w.is_empty());
        assert!(w.buckets.is_empty());
    }

    #[test]
    fn sparse_high_id_on_an_empty_wheel() {
        let mut w: ExpiryWheel = ExpiryWheel::new(1_000_000);
        assert_eq!(w.last_seen(&100_000), None);
        w.remove(&100_000); // beyond the table: nothing to forget
        w.touch(100_000, 42);
        assert_eq!(w.len(), 1);
        assert_eq!(w.last_seen(&100_000), Some(42));
        assert_eq!(w.last_seen(&99_999), None);
        assert_eq!(w.pop_least_recent(), Some(100_000));
        assert!(w.is_empty());
    }

    #[test]
    fn pop_least_recent_is_exact_over_random_times() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let mut w: ExpiryWheel = ExpiryWheel::new(250_000);
        let mut truth: Vec<(u32, Micros)> = Vec::new();
        for key in 0..200u32 {
            // Touch several times; only the last matters.
            let mut last = 0;
            for _ in 0..rng.gen_range(1..4usize) {
                last = rng.gen_range(0..60_000_000u64);
                w.touch(key, last);
            }
            truth.push((key, last));
        }
        // Popping repeatedly must yield keys in exact last-seen order.
        truth.sort_by_key(|&(_, ts)| ts);
        for &(expect, _) in &truth {
            assert_eq!(w.pop_least_recent(), Some(expect));
        }
        assert_eq!(w.pop_least_recent(), None);
    }

    #[test]
    fn drain_matches_naive_scan_on_random_times() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut w: ExpiryWheel = ExpiryWheel::new(777_777);
        let mut naive: BTreeMap<u32, Micros> = BTreeMap::new();
        for key in 0..500u32 {
            let ts = rng.gen_range(0..120_000_000u64);
            w.touch(key, ts);
            naive.insert(key, ts);
        }
        for cutoff in [0, 1, 30_000_000, 60_000_001, 119_999_999, 200_000_000] {
            let mut expect: Vec<u32> = naive
                .iter()
                .filter(|(_, &ts)| ts < cutoff)
                .map(|(&k, _)| k)
                .collect();
            naive.retain(|_, &mut ts| ts >= cutoff);
            let mut got = w.drain_due(cutoff);
            expect.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expect, "cutoff {cutoff}");
        }
        assert!(w.is_empty());
        assert!(w.buckets.is_empty());
    }

    #[test]
    fn scan_work_tracks_due_flows_not_table_size() {
        // 10 000 recent flows plus one idle flow: draining the idle one
        // must not examine the whole table.
        let mut w: ExpiryWheel = ExpiryWheel::new(1_000_000);
        w.touch(0, 5); // ancient
        for key in 1..=10_000u32 {
            w.touch(key, 500_000_000 + key as u64);
        }
        let before = w.entries_scanned();
        assert_eq!(w.drain_due(100_000_000), vec![0]);
        let examined = w.entries_scanned() - before;
        assert!(examined < 10, "examined {examined} entries for 1 due flow");
        assert_eq!(w.len(), 10_000);
    }
}
