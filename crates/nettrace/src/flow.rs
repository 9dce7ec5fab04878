//! Flow bookkeeping: per-direction volumetric counters.
//!
//! An ISP-side monitor keeps a flow table keyed by normalized five-tuple
//! (`cgc_core::monitor::TapMonitor`); [`FlowStats`] is what each entry
//! accumulates: exactly the volumetric quantities the paper's stage
//! classifier consumes (packets and bytes per direction) plus the
//! metadata the cloud-gaming filter inspects (mean downstream packet
//! size, packet-rate signature).

use serde::{Deserialize, Serialize};

use crate::packet::{Direction, Packet};
use crate::units::{bytes_to_mbps, Micros};

/// Per-flow accumulated statistics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlowStats {
    /// Downstream packet count.
    pub down_pkts: u64,
    /// Upstream packet count.
    pub up_pkts: u64,
    /// Downstream wire bytes (headers included).
    pub down_bytes: u64,
    /// Upstream wire bytes.
    pub up_bytes: u64,
    /// Timestamp of the first observed packet.
    pub first_ts: Option<Micros>,
    /// Timestamp of the most recent packet.
    pub last_ts: Option<Micros>,
    /// Largest downstream payload seen — the "full packet" size candidate.
    pub max_down_payload: u32,
}

impl FlowStats {
    /// Folds one packet into the counters. `cgc_trace_packets_total` is
    /// the caller's to add to, once per batch of packets folded.
    pub fn update(&mut self, pkt: &Packet) {
        match pkt.dir {
            Direction::Downstream => {
                self.down_pkts += 1;
                self.down_bytes += u64::from(pkt.wire_len());
                self.max_down_payload = self.max_down_payload.max(pkt.payload_len);
            }
            Direction::Upstream => {
                self.up_pkts += 1;
                self.up_bytes += u64::from(pkt.wire_len());
            }
        }
        if self.first_ts.is_none() {
            self.first_ts = Some(pkt.ts);
        }
        self.last_ts = Some(self.last_ts.map_or(pkt.ts, |t| t.max(pkt.ts)));
    }

    /// Flow lifetime in microseconds (0 before two packets arrive).
    pub fn duration(&self) -> Micros {
        match (self.first_ts, self.last_ts) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => 0,
        }
    }

    /// Average downstream throughput over the flow lifetime, in Mbps.
    pub fn down_mbps(&self) -> f64 {
        bytes_to_mbps(self.down_bytes, self.duration())
    }

    /// Average upstream throughput over the flow lifetime, in Mbps.
    pub fn up_mbps(&self) -> f64 {
        bytes_to_mbps(self.up_bytes, self.duration())
    }

    /// Average downstream packet rate over the flow lifetime, in pkts/s.
    pub fn down_pps(&self) -> f64 {
        let d = self.duration();
        if d == 0 {
            0.0
        } else {
            self.down_pkts as f64 / (d as f64 / 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::WIRE_OVERHEAD;

    #[test]
    fn update_accumulates_both_directions() {
        let mut s = FlowStats::default();
        s.update(&Packet::new(0, Direction::Downstream, 1432));
        s.update(&Packet::new(1_000_000, Direction::Upstream, 60));
        assert_eq!(s.down_pkts, 1);
        assert_eq!(s.up_pkts, 1);
        assert_eq!(s.down_bytes, (1432 + WIRE_OVERHEAD) as u64);
        assert_eq!(s.max_down_payload, 1432);
        assert_eq!(s.duration(), 1_000_000);
    }

    #[test]
    fn throughput_rates() {
        let mut s = FlowStats::default();
        // 1000 packets of 946-byte payload over exactly one second:
        // 1000 * (946+54) bytes = 1 MB -> 8 Mbps.
        for i in 0..1000u64 {
            s.update(&Packet::new(i * 1001, Direction::Downstream, 946));
        }
        s.update(&Packet::new(1_000_000, Direction::Upstream, 0));
        assert!((s.down_mbps() - 8.0).abs() < 0.01);
        assert!((s.down_pps() - 1000.0).abs() < 1.0);
    }

    #[test]
    fn single_packet_flow_has_zero_rates() {
        let mut s = FlowStats::default();
        s.update(&Packet::new(5, Direction::Downstream, 100));
        assert_eq!(s.duration(), 0);
        assert_eq!(s.down_mbps(), 0.0);
        assert_eq!(s.down_pps(), 0.0);
    }
}
