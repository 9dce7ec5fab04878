//! Cloud gaming packet filter (§4.1).
//!
//! The first stage of the pipeline selects the packets that belong to
//! cloud game *streaming* flows, discarding platform administration and
//! unrelated traffic. Following the adapted prior-work signatures the
//! paper cites ([23, 32, 52]), a flow is accepted when it:
//!
//! 1. runs over UDP,
//! 2. matches a platform's server port signature,
//! 3. carries valid RTP (version 2, dynamic payload type) downstream,
//! 4. sustains a downstream packet rate and large mean payload consistent
//!    with video streaming, and
//! 5. is bidirectional (upstream input packets present).
//!
//! Conditions 1–2 are cheap per-packet checks; 4–5 are confirmed over a
//! short observation window before the flow is handed to the classifiers.
//! Condition 3 is the capture side's: a tap record carries a payload
//! length, not the payload, so RTP validity is settled where the bytes are
//! (`nettrace::pcap` parses the header) and not re-checked here.

use nettrace::flow::FlowStats;
use nettrace::packet::{FiveTuple, Packet, Protocol};

pub use cgc_domain::Platform;

/// Minimum sustained downstream packet rate (pps). Launch animations
/// stream at hundreds of pps; platform chatter stays far below.
const MIN_DOWN_PPS: f64 = 50.0;
/// Minimum mean downstream payload (bytes) — video runs near the MTU.
const MIN_MEAN_DOWN_PAYLOAD: f64 = 300.0;
/// Upstream packets required (the input channel).
const MIN_UP_PKTS: u64 = 3;

/// Cheap per-packet pre-check: UDP + known platform port.
pub fn pre_check(tuple: &FiveTuple) -> Option<Platform> {
    if tuple.proto != Protocol::Udp {
        return None;
    }
    Platform::from_port(tuple.src_port).or_else(|| Platform::from_port(tuple.dst_port))
}

/// Volumetric confirmation over an observed window of flow statistics.
pub fn confirm(stats: &FlowStats) -> bool {
    if stats.down_pkts == 0 || stats.duration() == 0 {
        return false;
    }
    let mean_payload = stats.down_bytes as f64 / stats.down_pkts as f64
        - f64::from(nettrace::packet::WIRE_OVERHEAD);
    stats.down_pps() >= MIN_DOWN_PPS
        && mean_payload >= MIN_MEAN_DOWN_PAYLOAD
        && stats.up_pkts >= MIN_UP_PKTS
}

/// Full decision for a candidate flow: platform signature + volumetric
/// confirmation. Returns the detected platform when accepted.
pub fn accept(tuple: &FiveTuple, stats: &FlowStats) -> Option<Platform> {
    let platform = pre_check(tuple)?;
    confirm(stats).then_some(platform)
}

/// Builds [`FlowStats`] from a packet slice (orientation: packets carry
/// their own direction).
pub fn stats_of(packets: &[Packet]) -> FlowStats {
    let mut s = FlowStats::default();
    for p in packets {
        s.update(p);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::packet::Direction;

    fn gfn_tuple() -> FiveTuple {
        FiveTuple::udp_v4([10, 0, 0, 1], 49004, [192, 168, 0, 2], 51000)
    }

    fn streaming_stats() -> FlowStats {
        let mut pkts = Vec::new();
        for i in 0..1000u64 {
            pkts.push(Packet::new(i * 2_000, Direction::Downstream, 1432));
        }
        for i in 0..50u64 {
            pkts.push(Packet::new(i * 40_000, Direction::Upstream, 60));
        }
        stats_of(&pkts)
    }

    #[test]
    fn platform_port_signatures() {
        assert_eq!(Platform::from_port(49003), Some(Platform::GeForceNow));
        assert_eq!(Platform::from_port(49006), Some(Platform::GeForceNow));
        assert_eq!(Platform::from_port(9295), Some(Platform::Ps5Cloud));
        assert_eq!(Platform::from_port(9988), Some(Platform::AmazonLuna));
        assert_eq!(Platform::from_port(3074), Some(Platform::XboxCloud));
        assert_eq!(Platform::from_port(443), None);
    }

    #[test]
    fn accepts_genuine_streaming_flow() {
        assert_eq!(
            accept(&gfn_tuple(), &streaming_stats()),
            Some(Platform::GeForceNow)
        );
    }

    #[test]
    fn rejects_tcp_and_unknown_ports() {
        let mut t = gfn_tuple();
        t.proto = Protocol::Tcp;
        assert_eq!(accept(&t, &streaming_stats()), None);
        let web = FiveTuple::udp_v4([10, 0, 0, 1], 443, [192, 168, 0, 2], 51000);
        assert_eq!(accept(&web, &streaming_stats()), None);
    }

    #[test]
    fn rejects_low_rate_chatter() {
        // 10 small packets over 10 s: platform keep-alive, not streaming.
        let mut pkts: Vec<Packet> = (0..10u64)
            .map(|i| Packet::new(i * 1_000_000, Direction::Downstream, 100))
            .collect();
        pkts.push(Packet::new(0, Direction::Upstream, 60));
        assert_eq!(accept(&gfn_tuple(), &stats_of(&pkts)), None);
    }

    #[test]
    fn rejects_unidirectional_flows() {
        let pkts: Vec<Packet> = (0..1000u64)
            .map(|i| Packet::new(i * 2_000, Direction::Downstream, 1432))
            .collect();
        assert_eq!(accept(&gfn_tuple(), &stats_of(&pkts)), None);
    }

    #[test]
    fn empty_stats_are_rejected() {
        assert!(!confirm(&FlowStats::default()));
    }

    #[test]
    fn reverse_orientation_also_matches() {
        assert_eq!(
            pre_check(&gfn_tuple().reversed()),
            Some(Platform::GeForceNow)
        );
    }
}
