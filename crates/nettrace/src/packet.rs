//! Packet observations and addressing.
//!
//! A [`Packet`] is the minimal record an in-network monitor keeps per
//! datagram: arrival time, direction relative to the subscriber, transport
//! five-tuple and payload length. The paper's classifiers never look at
//! payload *content* (the streams are encrypted); everything is derived from
//! sizes and timings, which is exactly what this type captures.
//!
//! The tap is IPv4-only: [`FiveTuple`] holds two `Ipv4Addr`, the pcap
//! decoder skips every other EtherType and counts the frame in
//! `cgc_trace_pcap_skipped_total`. IPv6 support, once a decoder for it
//! exists, is a second flow table keyed by a V6 tuple — not 26 more bytes
//! on every record that passes the tap.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::net::{IpAddr, Ipv4Addr};

use crate::units::Micros;

/// Transport protocol of a flow. Cloud game streaming is RTP-over-UDP; the
/// enum exists so the flow filter can reject TCP control/administrative
/// traffic that shares the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// User Datagram Protocol (all game streaming flows).
    Udp,
    /// Transmission Control Protocol (platform administration, storefront).
    Tcp,
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Udp => write!(f, "UDP"),
            Protocol::Tcp => write!(f, "TCP"),
        }
    }
}

/// Direction of a packet relative to the subscriber (client device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Cloud server → client: rendered game video and audio.
    Downstream,
    /// Client → cloud server: user inputs (mouse, keys, touch, voice).
    Upstream,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Downstream => write!(f, "down"),
            Direction::Upstream => write!(f, "up"),
        }
    }
}

/// Classic transport five-tuple identifying a flow.
///
/// By convention in this workspace the `src` side is the cloud server and
/// the `dst` side the client, i.e. the tuple is written in the *downstream*
/// orientation; [`FiveTuple::normalized`] maps both directions of a
/// bidirectional conversation onto one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FiveTuple {
    /// Server-side address.
    pub src_ip: Ipv4Addr,
    /// Client-side address.
    pub dst_ip: Ipv4Addr,
    /// Server-side port.
    pub src_port: u16,
    /// Client-side port.
    pub dst_port: u16,
    /// Transport protocol.
    pub proto: Protocol,
}

impl FiveTuple {
    /// Convenience constructor for an IPv4 UDP tuple.
    pub fn udp_v4(src: [u8; 4], src_port: u16, dst: [u8; 4], dst_port: u16) -> Self {
        FiveTuple {
            src_ip: Ipv4Addr::from(src),
            dst_ip: Ipv4Addr::from(dst),
            src_port,
            dst_port,
            proto: Protocol::Udp,
        }
    }

    /// Returns the tuple for the reverse direction of the conversation.
    pub fn reversed(&self) -> Self {
        FiveTuple {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            proto: self.proto,
        }
    }

    /// Canonical orientation so both directions of a conversation share a
    /// flow-table key: the lexicographically smaller `(ip, port)` endpoint
    /// becomes `src`.
    pub fn normalized(&self) -> Self {
        if (self.src_ip, self.src_port) <= (self.dst_ip, self.dst_port) {
            *self
        } else {
            self.reversed()
        }
    }

    /// The flow's journal/flight-recorder id: a stable 64-bit hash of the
    /// *normalized* tuple (FNV-1a over the endpoint bytes). Both directions
    /// of a conversation hash identically, and the value is independent of
    /// the process's `HashMap` seed and stable across restarts. Journals
    /// and traces store it, so its values never change — the addresses go
    /// in as the IPv4-mapped 16 bytes they always did. It costs 37
    /// dependent byte steps, which is why per-record routing
    /// ([`FiveTuple::shard`]) uses a word-wise hash instead.
    pub fn flow_id(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        fn mix(mut h: u64, bytes: &[u8]) -> u64 {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
            h
        }
        let n = self.normalized();
        let mut h = FNV_OFFSET;
        h = mix(h, &n.src_ip.to_ipv6_mapped().octets());
        h = mix(h, &n.dst_ip.to_ipv6_mapped().octets());
        h = mix(h, &n.src_port.to_be_bytes());
        h = mix(h, &n.dst_port.to_be_bytes());
        mix(h, &[n.proto as u8])
    }

    /// Word-wise routing hash, direction-invariant by construction: each
    /// `(ip, port)` endpoint is mixed on its own, the two are combined
    /// commutatively, and the protocol is folded in last — no
    /// normalization, no per-byte loop. Stable across processes, so
    /// partitioning by it is deterministic, but *not* the flow's identity:
    /// nothing may store it (that is [`FiveTuple::flow_id`]).
    fn route_hash(&self) -> u64 {
        /// SplitMix64 finalizer: every input bit reaches every output bit.
        fn mix(mut x: u64) -> u64 {
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        }
        fn endpoint(ip: Ipv4Addr, port: u16) -> u64 {
            mix((u64::from(u32::from(ip)) << 16) | u64::from(port))
        }
        let ends =
            endpoint(self.src_ip, self.src_port).wrapping_add(endpoint(self.dst_ip, self.dst_port));
        mix(ends ^ self.proto as u64)
    }

    /// Shard index for a pool of `n` workers (`n = 0` is treated as 1): the
    /// word-wise routing hash scaled into `0..n` by a multiply-high, so
    /// routing a record costs no division.
    pub fn shard(&self, n: usize) -> usize {
        ((u128::from(self.route_hash()) * n.max(1) as u128) >> 64) as usize
    }

    /// The flow's endpoints as a journal `FlowAddr` (this tuple is taken
    /// to already be in downstream orientation, `src` = server).
    pub fn flow_addr(&self) -> cgc_obs::event::FlowAddr {
        cgc_obs::event::FlowAddr {
            server_ip: IpAddr::V4(self.src_ip),
            server_port: self.src_port,
            client_ip: IpAddr::V4(self.dst_ip),
            client_port: self.dst_port,
        }
    }
}

/// Hashes the tuple as two whole words — the addresses, then the ports
/// and the protocol — where the derived implementation fed a hasher five
/// separate fields. Flow tables hash a tuple per packet; equal tuples still
/// hash equal under any hasher.
impl Hash for FiveTuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(
            (u64::from(u32::from(self.src_ip)) << 32) | u64::from(u32::from(self.dst_ip)),
        );
        state.write_u64(
            (u64::from(self.src_port) << 32)
                | (u64::from(self.dst_port) << 16)
                | ((self.proto as u64) << 8),
        );
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} -> {}:{}",
            self.proto, self.src_ip, self.src_port, self.dst_ip, self.dst_port
        )
    }
}

/// One observed datagram.
///
/// `payload_len` is the RTP payload length in bytes (what Fig. 3 of the
/// paper scatter-plots); header overhead is accounted separately via
/// [`Packet::wire_len`] when computing throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Arrival time in microseconds since session start.
    pub ts: Micros,
    /// Direction relative to the subscriber.
    pub dir: Direction,
    /// RTP payload length in bytes.
    pub payload_len: u32,
    /// RTP sequence number (per-direction, wrapping).
    pub seq: u16,
    /// RTP timestamp field (media clock).
    pub rtp_ts: u32,
    /// RTP marker bit: set on the last packet of a video frame.
    pub marker: bool,
}

/// Ethernet (14) + IPv4 (20) + UDP (8) + RTP fixed header (12) overhead in
/// bytes added to the payload when a packet is serialized onto the wire.
pub const WIRE_OVERHEAD: u32 = 14 + 20 + 8 + 12;

impl Packet {
    /// Creates a downstream packet with zeroed RTP metadata; generators fill
    /// the sequence/timestamp fields as they emit streams.
    pub fn new(ts: Micros, dir: Direction, payload_len: u32) -> Self {
        Packet {
            ts,
            dir,
            payload_len,
            seq: 0,
            rtp_ts: 0,
            marker: false,
        }
    }

    /// Total on-wire length (headers + payload) used for throughput math.
    pub fn wire_len(&self) -> u32 {
        self.payload_len + WIRE_OVERHEAD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `flow_id()` of `10.0.0.1:49003 <-> 192.168.1.5:50123` over UDP.
    const GOLDEN_FLOW_ID: u64 = 0xca7e_debd_ea39_7572;

    #[test]
    fn five_tuple_reverse_and_normalize() {
        let t = FiveTuple::udp_v4([10, 0, 0, 1], 49003, [192, 168, 1, 5], 50123);
        let r = t.reversed();
        assert_eq!(r.src_port, 50123);
        assert_eq!(r.reversed(), t);
        // Both orientations normalize to the same key.
        assert_eq!(t.normalized(), r.normalized());
    }

    #[test]
    fn normalized_is_idempotent() {
        let t = FiveTuple::udp_v4([192, 168, 1, 5], 50123, [10, 0, 0, 1], 49003);
        assert_eq!(t.normalized(), t.normalized().normalized());
    }

    #[test]
    fn wire_len_adds_header_overhead() {
        let p = Packet::new(0, Direction::Downstream, 1432);
        assert_eq!(p.wire_len(), 1432 + 54);
    }

    #[test]
    fn display_formats() {
        let t = FiveTuple::udp_v4([10, 0, 0, 1], 443, [1, 2, 3, 4], 999);
        assert_eq!(format!("{t}"), "UDP 10.0.0.1:443 -> 1.2.3.4:999");
        assert_eq!(format!("{}", Direction::Downstream), "down");
        assert_eq!(format!("{}", Protocol::Tcp), "TCP");
    }

    #[test]
    fn flow_id_and_shard_match_both_directions() {
        let t = FiveTuple::udp_v4([10, 0, 0, 1], 49003, [192, 168, 1, 5], 50123);
        assert_eq!(t.flow_id(), t.reversed().flow_id());
        assert_eq!(t.shard(8), t.reversed().shard(8));
        // Zero workers degrade to a single shard instead of dividing by 0.
        assert_eq!(t.shard(0), 0);
    }

    #[test]
    fn flow_id_values_are_pinned() {
        // Journals, traces and the benchmark's input pins store this value:
        // it is FNV-1a over the normalized tuple and must never move,
        // whatever the routing hash does.
        let t = FiveTuple::udp_v4([10, 0, 0, 1], 49003, [192, 168, 1, 5], 50123);
        assert_eq!(t.flow_id(), GOLDEN_FLOW_ID);
        assert_eq!(t.reversed().flow_id(), GOLDEN_FLOW_ID);
        assert_ne!(t.route_hash(), t.flow_id(), "routing is not identity");
    }

    #[test]
    fn route_hash_is_direction_invariant() {
        let v4 = FiveTuple::udp_v4([10, 0, 0, 1], 49003, [192, 168, 1, 5], 50123);
        let tcp = FiveTuple {
            proto: Protocol::Tcp,
            ..v4
        };
        // Swapping only the ports is a different conversation.
        let swapped = FiveTuple {
            src_port: v4.dst_port,
            dst_port: v4.src_port,
            ..v4
        };
        let all = [v4, tcp, swapped];
        for t in all {
            assert_eq!(t.route_hash(), t.reversed().route_hash(), "{t}");
            for n in [0usize, 1, 2, 3, 8, 1000] {
                assert_eq!(t.shard(n), t.reversed().shard(n));
                assert!(t.shard(n) < n.max(1));
            }
        }
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.route_hash(), b.route_hash(), "{a} vs {b}");
            }
        }
    }

    /// Everything about one tuple that is stored, routed on or printed.
    struct IdentityPin {
        tuple: FiveTuple,
        flow_id: u64,
        route_hash: u64,
        /// `shard(2)`, `shard(8)`.
        shards: (usize, usize),
        normalized: &'static str,
        display: &'static str,
        flow_addr: &'static str,
        json: &'static str,
        /// The words `Hash` feeds a hasher, in order.
        hash_words: [u64; 2],
    }

    fn pin(src: [u8; 4], src_port: u16, dst: [u8; 4], dst_port: u16, proto: Protocol) -> FiveTuple {
        let mut t = FiveTuple::udp_v4(src, src_port, dst, dst_port);
        t.proto = proto;
        t
    }

    /// Literals generated on commit c8214d6, where the two addresses were
    /// still `IpAddr` enums (a 40-byte tuple): both orientations, UDP and
    /// TCP, `src < dst` and `src > dst`, and equal addresses told apart by
    /// port only. Nothing a journal stores, a router decides or a report
    /// prints may move with the tuple's layout.
    fn identity_pins() -> Vec<IdentityPin> {
        use Protocol::{Tcp, Udp};
        vec![
            IdentityPin {
                tuple: pin([10, 0, 0, 1], 49003, [192, 168, 1, 5], 50123, Udp),
                flow_id: 0xca7e_debd_ea39_7572,
                route_hash: 0xd3fe_7123_4988_f5a5,
                shards: (1, 6),
                normalized: "UDP 10.0.0.1:49003 -> 192.168.1.5:50123",
                display: "UDP 10.0.0.1:49003 -> 192.168.1.5:50123",
                flow_addr: "10.0.0.1:49003 -> 192.168.1.5:50123",
                json: r#"{"src_ip":"10.0.0.1","dst_ip":"192.168.1.5","src_port":49003,"dst_port":50123,"proto":"Udp"}"#,
                hash_words: [0x0a00_0001_c0a8_0105, 0x0000_bf6b_c3cb_0000],
            },
            IdentityPin {
                tuple: pin([192, 168, 1, 5], 50123, [10, 0, 0, 1], 49003, Udp),
                flow_id: 0xca7e_debd_ea39_7572,
                route_hash: 0xd3fe_7123_4988_f5a5,
                shards: (1, 6),
                normalized: "UDP 10.0.0.1:49003 -> 192.168.1.5:50123",
                display: "UDP 192.168.1.5:50123 -> 10.0.0.1:49003",
                flow_addr: "192.168.1.5:50123 -> 10.0.0.1:49003",
                json: r#"{"src_ip":"192.168.1.5","dst_ip":"10.0.0.1","src_port":50123,"dst_port":49003,"proto":"Udp"}"#,
                hash_words: [0xc0a8_0105_0a00_0001, 0x0000_c3cb_bf6b_0000],
            },
            IdentityPin {
                tuple: pin([10, 0, 0, 1], 49003, [192, 168, 1, 5], 50123, Tcp),
                flow_id: 0xca7e_dfbd_ea39_7725,
                route_hash: 0x6cca_9e64_e8f8_64c2,
                shards: (0, 3),
                normalized: "TCP 10.0.0.1:49003 -> 192.168.1.5:50123",
                display: "TCP 10.0.0.1:49003 -> 192.168.1.5:50123",
                flow_addr: "10.0.0.1:49003 -> 192.168.1.5:50123",
                json: r#"{"src_ip":"10.0.0.1","dst_ip":"192.168.1.5","src_port":49003,"dst_port":50123,"proto":"Tcp"}"#,
                hash_words: [0x0a00_0001_c0a8_0105, 0x0000_bf6b_c3cb_0100],
            },
            IdentityPin {
                tuple: pin([10, 0, 0, 7], 5000, [10, 0, 0, 7], 4000, Udp),
                flow_id: 0x0a3c_05ea_0ef5_936b,
                route_hash: 0x1811_bb4f_5c8c_bbd7,
                shards: (0, 0),
                normalized: "UDP 10.0.0.7:4000 -> 10.0.0.7:5000",
                display: "UDP 10.0.0.7:5000 -> 10.0.0.7:4000",
                flow_addr: "10.0.0.7:5000 -> 10.0.0.7:4000",
                json: r#"{"src_ip":"10.0.0.7","dst_ip":"10.0.0.7","src_port":5000,"dst_port":4000,"proto":"Udp"}"#,
                hash_words: [0x0a00_0007_0a00_0007, 0x0000_1388_0fa0_0000],
            },
            IdentityPin {
                tuple: pin([10, 0, 0, 7], 4000, [10, 0, 0, 7], 5000, Tcp),
                flow_id: 0x0a3c_04ea_0ef5_91b8,
                route_hash: 0xf0ff_6c95_f49e_c9fa,
                shards: (1, 7),
                normalized: "TCP 10.0.0.7:4000 -> 10.0.0.7:5000",
                display: "TCP 10.0.0.7:4000 -> 10.0.0.7:5000",
                flow_addr: "10.0.0.7:4000 -> 10.0.0.7:5000",
                json: r#"{"src_ip":"10.0.0.7","dst_ip":"10.0.0.7","src_port":4000,"dst_port":5000,"proto":"Tcp"}"#,
                hash_words: [0x0a00_0007_0a00_0007, 0x0000_0fa0_1388_0100],
            },
            IdentityPin {
                tuple: pin([200, 1, 2, 3], 443, [100, 64, 0, 9], 50_000, Udp),
                flow_id: 0x0ccc_01cc_f484_7a8b,
                route_hash: 0x410f_3abd_7c54_201b,
                shards: (0, 2),
                normalized: "UDP 100.64.0.9:50000 -> 200.1.2.3:443",
                display: "UDP 200.1.2.3:443 -> 100.64.0.9:50000",
                flow_addr: "200.1.2.3:443 -> 100.64.0.9:50000",
                json: r#"{"src_ip":"200.1.2.3","dst_ip":"100.64.0.9","src_port":443,"dst_port":50000,"proto":"Udp"}"#,
                hash_words: [0xc801_0203_6440_0009, 0x0000_01bb_c350_0000],
            },
            IdentityPin {
                tuple: pin([100, 64, 0, 9], 50_000, [200, 1, 2, 3], 443, Tcp),
                flow_id: 0x0ccc_00cc_f484_78d8,
                route_hash: 0x47df_ce21_3320_ce5d,
                shards: (0, 2),
                normalized: "TCP 100.64.0.9:50000 -> 200.1.2.3:443",
                display: "TCP 100.64.0.9:50000 -> 200.1.2.3:443",
                flow_addr: "100.64.0.9:50000 -> 200.1.2.3:443",
                json: r#"{"src_ip":"100.64.0.9","dst_ip":"200.1.2.3","src_port":50000,"dst_port":443,"proto":"Tcp"}"#,
                hash_words: [0x6440_0009_c801_0203, 0x0000_c350_01bb_0100],
            },
        ]
    }

    #[test]
    fn identity_is_independent_of_the_tuple_layout() {
        /// Records the words written; a byte-wise write is a changed `Hash`.
        struct Words(Vec<u64>);
        impl Hasher for Words {
            fn finish(&self) -> u64 {
                0
            }
            fn write(&mut self, bytes: &[u8]) {
                panic!("FiveTuple hashes whole words, got bytes {bytes:?}");
            }
            fn write_u64(&mut self, w: u64) {
                self.0.push(w);
            }
        }
        for p in identity_pins() {
            let t = p.tuple;
            assert_eq!(t.flow_id(), p.flow_id, "{t}");
            assert_eq!(t.route_hash(), p.route_hash, "{t}");
            assert_eq!((t.shard(2), t.shard(8)), p.shards, "{t}");
            assert_eq!(t.normalized().to_string(), p.normalized);
            assert_eq!(t.to_string(), p.display);
            assert_eq!(t.flow_addr().to_string(), p.flow_addr);
            // `serde_json::to_string` is `write_compact` of `to_value`.
            let json = serde::write_compact(&t.to_value());
            assert_eq!(json, p.json);
            let back = FiveTuple::from_value(&serde::parse(&json).unwrap()).unwrap();
            assert_eq!(back, t, "serde round trip");
            let mut words = Words(Vec::new());
            t.hash(&mut words);
            assert_eq!(words.0, p.hash_words, "{t}");
        }
    }

    #[test]
    fn five_tuple_is_at_most_sixteen_bytes() {
        // Two `Ipv4Addr`, two ports and the protocol are 13 bytes, 14 at
        // `u16` alignment. Every tap record, ring slot and batch buffer
        // carries one, so a field added here is paid per packet.
        assert!(std::mem::size_of::<FiveTuple>() <= 16);
    }

    #[test]
    fn route_hash_spreads_random_tuples() {
        // 10 000 random conversations over 8 shards, held to the same
        // tolerance as the structured-address test below.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut counts = [0usize; 8];
        for _ in 0..10_000 {
            let (a, b) = (next(), next());
            let t = FiveTuple::udp_v4(
                (a as u32).to_be_bytes(),
                (a >> 32) as u16,
                (b as u32).to_be_bytes(),
                (b >> 32) as u16,
            );
            counts[t.shard(8)] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 10_000 / 16),
            "unbalanced shards: {counts:?}"
        );
    }

    #[test]
    fn shard_spreads_flows() {
        // 4096 distinct client endpoints should not collapse onto a few
        // shards: every shard of 8 gets a meaningful share.
        let mut counts = [0usize; 8];
        for a in 0..16u8 {
            for b in 0..=255u8 {
                let t = FiveTuple::udp_v4([10, 0, a, 1], 49003, [100, 64, a, b], 50_000);
                counts[t.shard(8)] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        assert_eq!(total, 16 * 256);
        assert!(
            counts.iter().all(|&c| c > total / 16),
            "unbalanced shards: {counts:?}"
        );
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// Arbitrary UDP/TCP five-tuple over small IPv4 space (collisions in
    /// the endpoint space exercise the normalization tie-breaks).
    fn arb_tuple() -> impl Strategy<Value = FiveTuple> {
        (
            any::<u32>(),
            any::<u32>(),
            any::<u16>(),
            any::<u16>(),
            any::<bool>(),
        )
            .prop_map(|(src, dst, sp, dp, udp)| {
                let mut t = FiveTuple::udp_v4(src.to_be_bytes(), sp, dst.to_be_bytes(), dp);
                if !udp {
                    t.proto = Protocol::Tcp;
                }
                t
            })
    }

    proptest! {
        /// Normalization is idempotent: applying it twice is the same as
        /// once.
        #[test]
        fn normalized_is_idempotent(t in arb_tuple()) {
            let n = t.normalized();
            prop_assert_eq!(n.normalized(), n);
        }

        /// Normalization is direction-invariant: both orientations of a
        /// conversation share the canonical key.
        #[test]
        fn normalized_is_direction_invariant(t in arb_tuple()) {
            prop_assert_eq!(t.normalized(), t.reversed().normalized());
        }

        /// Shard assignment is stable under tuple reversal, for any worker
        /// pool size: upstream and downstream packets of one conversation
        /// always land on the same worker.
        #[test]
        fn shard_is_stable_under_reversal(t in arb_tuple(), n in 1usize..64) {
            prop_assert_eq!(t.flow_id(), t.reversed().flow_id());
            prop_assert_eq!(t.shard(n), t.reversed().shard(n));
            prop_assert!(t.shard(n) < n);
        }
    }
}
