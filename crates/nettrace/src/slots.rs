//! Fixed-width time-slot aggregation.
//!
//! Every attribute in the paper is computed per time slot: launch-stage
//! packet-group attributes per `T`-second slot (§4.2.2) and volumetric
//! attributes per `I`-second slot (§4.3.1). [`SlotSeries`] partitions a
//! packet sequence into such slots relative to the flow's first packet and
//! exposes per-slot views without copying payload data.

use crate::packet::{Direction, Packet};
use crate::units::Micros;

/// A borrowed view of the packets that fell into one time slot.
#[derive(Debug, Clone, Copy)]
pub struct SlotView<'a> {
    /// Slot index (0-based from the series origin).
    pub index: usize,
    /// Slot start time (inclusive), microseconds.
    pub start: Micros,
    /// Slot width, microseconds.
    pub width: Micros,
    /// Packets whose timestamp lies in `[start, start + width)`.
    pub packets: &'a [Packet],
}

impl<'a> SlotView<'a> {
    /// Packet count in this slot, optionally filtered by direction.
    pub fn count(&self, dir: Option<Direction>) -> usize {
        match dir {
            None => self.packets.len(),
            Some(d) => self.packets.iter().filter(|p| p.dir == d).count(),
        }
    }
}

/// Packets partitioned into fixed-width slots.
///
/// Construction sorts indices by timestamp (traces from the impairment
/// channel may be mildly reordered) but keeps the packet storage shared.
#[derive(Debug, Clone)]
pub struct SlotSeries {
    packets: Vec<Packet>,
    /// `bounds[i]..bounds[i+1]` indexes the packets of slot `i`.
    bounds: Vec<usize>,
    origin: Micros,
    width: Micros,
}

impl SlotSeries {
    /// Partitions `packets` into slots of `width` microseconds starting at
    /// `origin`. Packets earlier than `origin` are discarded (they belong to
    /// a previous measurement window). `width` must be non-zero.
    ///
    /// # Panics
    /// Panics if `width == 0`.
    pub fn new(mut packets: Vec<Packet>, origin: Micros, width: Micros) -> Self {
        assert!(width > 0, "slot width must be positive");
        packets.retain(|p| p.ts >= origin);
        packets.sort_by_key(|p| p.ts);
        let n_slots = packets
            .last()
            .map(|p| ((p.ts - origin) / width) as usize + 1)
            .unwrap_or(0);
        let mut bounds = Vec::with_capacity(n_slots + 1);
        bounds.push(0);
        let mut idx = 0usize;
        for slot in 0..n_slots {
            let end_ts = origin + (slot as u64 + 1) * width;
            while idx < packets.len() && packets[idx].ts < end_ts {
                idx += 1;
            }
            bounds.push(idx);
        }
        SlotSeries {
            packets,
            bounds,
            origin,
            width,
        }
    }

    /// Convenience constructor anchored at the first packet's timestamp
    /// (how the pipeline anchors slots at flow start).
    pub fn anchored(packets: Vec<Packet>, width: Micros) -> Self {
        let origin = packets.iter().map(|p| p.ts).min().unwrap_or(0);
        Self::new(packets, origin, width)
    }

    /// Number of slots (0 when the series is empty).
    pub fn len(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// True when no packets were captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slot width in microseconds.
    pub fn width(&self) -> Micros {
        self.width
    }

    /// Series origin timestamp.
    pub fn origin(&self) -> Micros {
        self.origin
    }

    /// The view of slot `i`, or `None` past the end.
    pub fn slot(&self, i: usize) -> Option<SlotView<'_>> {
        if i + 1 >= self.bounds.len() {
            return None;
        }
        Some(SlotView {
            index: i,
            start: self.origin + i as u64 * self.width,
            width: self.width,
            packets: &self.packets[self.bounds[i]..self.bounds[i + 1]],
        })
    }

    /// Iterates over all slots in order, including empty ones.
    pub fn iter(&self) -> impl Iterator<Item = SlotView<'_>> {
        (0..self.len()).map(move |i| self.slot(i).expect("index in range"))
    }

    /// All packets in timestamp order.
    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::MICROS_PER_SEC;

    fn pkt(ts: Micros, dir: Direction, len: u32) -> Packet {
        Packet::new(ts, dir, len)
    }

    #[test]
    fn partitions_into_expected_slots() {
        let s = SlotSeries::new(
            vec![
                pkt(0, Direction::Downstream, 100),
                pkt(900_000, Direction::Downstream, 100),
                pkt(1_000_000, Direction::Downstream, 100),
                pkt(2_500_000, Direction::Upstream, 50),
            ],
            0,
            MICROS_PER_SEC,
        );
        assert_eq!(s.len(), 3);
        assert_eq!(s.slot(0).unwrap().count(None), 2);
        assert_eq!(s.slot(1).unwrap().count(None), 1);
        assert_eq!(s.slot(2).unwrap().count(Some(Direction::Upstream)), 1);
        assert!(s.slot(3).is_none());
    }

    #[test]
    fn slot_boundaries_are_half_open() {
        // ts == slot end belongs to the next slot.
        let s = SlotSeries::new(
            vec![pkt(1_000_000, Direction::Downstream, 1)],
            0,
            MICROS_PER_SEC,
        );
        assert_eq!(s.len(), 2);
        assert_eq!(s.slot(0).unwrap().count(None), 0);
        assert_eq!(s.slot(1).unwrap().count(None), 1);
    }

    #[test]
    fn empty_series() {
        let s = SlotSeries::new(vec![], 0, MICROS_PER_SEC);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let s = SlotSeries::new(
            vec![
                pkt(2_000_000, Direction::Downstream, 1),
                pkt(0, Direction::Downstream, 1),
            ],
            0,
            MICROS_PER_SEC,
        );
        assert_eq!(s.packets()[0].ts, 0);
        assert_eq!(s.len(), 3);
        // Middle slot exists and is empty.
        assert_eq!(s.slot(1).unwrap().count(None), 0);
    }

    #[test]
    fn packets_before_origin_are_dropped() {
        let s = SlotSeries::new(
            vec![
                pkt(100, Direction::Downstream, 1),
                pkt(5_000_000, Direction::Downstream, 1),
            ],
            1_000_000,
            MICROS_PER_SEC,
        );
        assert_eq!(s.packets().len(), 1);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn anchored_uses_first_packet() {
        let s = SlotSeries::anchored(
            vec![
                pkt(7_300_000, Direction::Downstream, 1),
                pkt(7_400_000, Direction::Downstream, 1),
            ],
            MICROS_PER_SEC,
        );
        assert_eq!(s.origin(), 7_300_000);
        assert_eq!(s.len(), 1);
        assert_eq!(s.slot(0).unwrap().count(None), 2);
    }

    #[test]
    #[should_panic(expected = "slot width must be positive")]
    fn zero_width_panics() {
        let _ = SlotSeries::new(vec![], 0, 0);
    }
}
