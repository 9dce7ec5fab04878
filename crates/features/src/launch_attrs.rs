//! Launch-stage attribute vectors (§4.2.2, Fig. 7).
//!
//! For a window of `N` seconds sliced into `T`-second slots, the attribute
//! vector holds, per packet group *g* ∈ {full, steady, sparse}:
//!
//! * per slot *s*: `g_ct_sum[s]` (packet count), `g_sz_mean[s]` and
//!   `g_sz_std[s]` (payload-size statistics);
//! * over the whole window: `g_iat_mean`, `g_iat_std` (inter-arrival time
//!   statistics within the group, in milliseconds).
//!
//! With the deployed `N = 5 s`, `T = 1 s` this yields `3·5·3 + 3·2 = 51`
//! attributes — the vector whose permutation importance the paper plots in
//! Fig. 9. The flow-volumetric alternative of Table 3 (packet rate and
//! throughput per slot, no grouping) is provided for comparison.

use nettrace::packet::{Direction, Packet};
use nettrace::stats;
use nettrace::units::{secs_to_micros, Micros};
use serde::{Deserialize, Serialize};

use crate::groups::{label_groups, GroupLabel, LabeledPacket};

/// Configuration of the launch attribute extractor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaunchAttrConfig {
    /// Analysis window `N` in seconds from the first packet.
    pub window_secs: f64,
    /// Time-slot width `T` in seconds.
    pub slot_secs: f64,
    /// Payload variation tolerance `V` for group labeling (relative).
    pub v: f64,
}

impl Default for LaunchAttrConfig {
    /// The deployed configuration: `N = 5 s`, `T = 1 s`, `V = 10 %`.
    fn default() -> Self {
        LaunchAttrConfig {
            window_secs: 5.0,
            slot_secs: 1.0,
            v: 0.10,
        }
    }
}

impl LaunchAttrConfig {
    /// Number of slots in the window.
    pub fn n_slots(&self) -> usize {
        (self.window_secs / self.slot_secs).ceil() as usize
    }

    /// Total attribute count: `3 groups × (3 per-slot stats × slots + 2
    /// window IAT stats)`.
    pub fn n_attributes(&self) -> usize {
        3 * (3 * self.n_slots() + 2)
    }

    /// Window length in microseconds.
    pub fn window(&self) -> Micros {
        secs_to_micros(self.window_secs)
    }

    /// Slot width in microseconds.
    pub fn slot(&self) -> Micros {
        secs_to_micros(self.slot_secs)
    }

    /// Attribute names in vector order (e.g. `full_ct_sum[0]`,
    /// `steady_sz_mean[3]`, `sparse_iat_std`).
    pub fn attribute_names(&self) -> Vec<String> {
        let mut names = Vec::with_capacity(self.n_attributes());
        for g in GroupLabel::ALL {
            for s in 0..self.n_slots() {
                names.push(format!("{}_ct_sum[{s}]", g.short()));
                names.push(format!("{}_sz_mean[{s}]", g.short()));
                names.push(format!("{}_sz_std[{s}]", g.short()));
            }
            names.push(format!("{}_iat_mean", g.short()));
            names.push(format!("{}_iat_std", g.short()));
        }
        names
    }
}

/// Extracts the packet-group attribute vector from the first `N` seconds of
/// a session's packets (timestamps relative to session start).
pub fn launch_attributes(packets: &[Packet], cfg: &LaunchAttrConfig) -> Vec<f64> {
    let labeled = label_groups(packets, cfg.window(), cfg.slot(), cfg.v);
    let n_slots = cfg.n_slots();
    let slot = cfg.slot();

    let mut out = Vec::with_capacity(cfg.n_attributes());
    for g in GroupLabel::ALL {
        let of_group: Vec<&LabeledPacket> = labeled.iter().filter(|l| l.label == g).collect();
        // Per-slot count/size stats.
        for s in 0..n_slots {
            let lo = s as u64 * slot;
            let hi = lo + slot;
            let sizes: Vec<f64> = of_group
                .iter()
                .filter(|l| l.packet.ts >= lo && l.packet.ts < hi)
                .map(|l| f64::from(l.packet.payload_len))
                .collect();
            out.push(sizes.len() as f64);
            out.push(stats::mean(&sizes));
            out.push(stats::std_dev(&sizes));
        }
        // Window-wide inter-arrival stats, milliseconds.
        let times: Vec<f64> = of_group.iter().map(|l| l.packet.ts as f64 / 1e3).collect();
        let iats = stats::diffs(&times);
        out.push(stats::mean(&iats));
        out.push(stats::std_dev(&iats));
    }
    out
}

/// The Table 3 baseline: plain flow-volumetric attributes over the same
/// window — per slot, downstream packet count and downstream kilobytes
/// (packet rate and throughput, no packet grouping). `2 × slots` values.
pub fn flow_volumetric_attributes(packets: &[Packet], cfg: &LaunchAttrConfig) -> Vec<f64> {
    let n_slots = cfg.n_slots();
    let slot = cfg.slot();
    let window = cfg.window();
    let mut counts = vec![0.0f64; n_slots];
    let mut bytes = vec![0.0f64; n_slots];
    for p in packets {
        if p.dir != Direction::Downstream || p.ts >= window {
            continue;
        }
        let s = (p.ts / slot) as usize;
        if s < n_slots {
            counts[s] += 1.0;
            bytes[s] += f64::from(p.wire_len()) / 1e3;
        }
    }
    let mut out = Vec::with_capacity(2 * n_slots);
    for s in 0..n_slots {
        out.push(counts[s]);
        out.push(bytes[s]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::units::MICROS_PER_SEC;

    fn pkt(ts: Micros, len: u32) -> Packet {
        Packet::new(ts, Direction::Downstream, len)
    }

    #[test]
    fn default_config_gives_51_attributes() {
        let cfg = LaunchAttrConfig::default();
        assert_eq!(cfg.n_slots(), 5);
        assert_eq!(cfg.n_attributes(), 51);
        let names = cfg.attribute_names();
        assert_eq!(names.len(), 51);
        assert_eq!(names[0], "full_ct_sum[0]");
        assert_eq!(names[16], "full_iat_std");
        assert!(names.contains(&"sparse_iat_mean".to_string()));
        // Names are unique.
        let set: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(set.len(), 51);
    }

    #[test]
    fn vector_length_matches_config() {
        for (n, t) in [(5.0, 1.0), (3.0, 0.5), (10.0, 2.0), (2.0, 0.1)] {
            let cfg = LaunchAttrConfig {
                window_secs: n,
                slot_secs: t,
                v: 0.1,
            };
            let pkts: Vec<Packet> = (0..100).map(|i| pkt(i * 20_000, 1432)).collect();
            let attrs = launch_attributes(&pkts, &cfg);
            assert_eq!(attrs.len(), cfg.n_attributes());
            assert_eq!(cfg.attribute_names().len(), attrs.len());
        }
    }

    #[test]
    fn full_counts_land_in_right_slots() {
        let cfg = LaunchAttrConfig::default();
        // 10 full packets in slot 0, 5 in slot 2.
        let mut pkts: Vec<Packet> = (0..10).map(|i| pkt(i * 1000, 1432)).collect();
        pkts.extend((0..5).map(|i| pkt(2 * MICROS_PER_SEC + i * 1000, 1432)));
        let attrs = launch_attributes(&pkts, &cfg);
        let names = cfg.attribute_names();
        let at = |n: &str| attrs[names.iter().position(|x| x == n).unwrap()];
        assert_eq!(at("full_ct_sum[0]"), 10.0);
        assert_eq!(at("full_ct_sum[1]"), 0.0);
        assert_eq!(at("full_ct_sum[2]"), 5.0);
        assert_eq!(at("full_sz_mean[0]"), 1432.0);
        assert_eq!(at("full_sz_std[0]"), 0.0);
    }

    #[test]
    fn steady_band_statistics() {
        let cfg = LaunchAttrConfig::default();
        // Full anchor + a 600-byte band in slot 1.
        let mut pkts = vec![pkt(0, 1432)];
        pkts.extend((0..8).map(|i| pkt(MICROS_PER_SEC + i * 10_000, 600)));
        let attrs = launch_attributes(&pkts, &cfg);
        let names = cfg.attribute_names();
        let at = |n: &str| attrs[names.iter().position(|x| x == n).unwrap()];
        assert_eq!(at("steady_ct_sum[1]"), 8.0);
        assert_eq!(at("steady_sz_mean[1]"), 600.0);
        // Band IAT: 10 ms gaps.
        assert!((at("steady_iat_mean") - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_window_yields_zero_vector() {
        let cfg = LaunchAttrConfig::default();
        let attrs = launch_attributes(&[], &cfg);
        assert_eq!(attrs.len(), 51);
        assert!(attrs.iter().all(|&a| a == 0.0));
    }

    #[test]
    fn flow_volumetric_shape_and_values() {
        let cfg = LaunchAttrConfig::default();
        let pkts = vec![pkt(0, 946), pkt(100, 946), pkt(MICROS_PER_SEC, 446)];
        let attrs = flow_volumetric_attributes(&pkts, &cfg);
        assert_eq!(attrs.len(), 10);
        assert_eq!(attrs[0], 2.0); // slot 0 count
        assert!((attrs[1] - 2.0).abs() < 1e-9); // slot 0 KB (2 × 1000 B wire)
        assert_eq!(attrs[2], 1.0); // slot 1 count
    }

    #[test]
    fn attributes_are_settings_stable_for_sizes() {
        // Same structure at different densities: size means stay, counts
        // scale — mirroring what makes the grouping robust across settings.
        let cfg = LaunchAttrConfig::default();
        let mk = |density: u64| -> Vec<f64> {
            let mut pkts = Vec::new();
            for i in 0..(50 * density) {
                pkts.push(pkt(i * (20_000 / density), 1432));
            }
            for i in 0..20 {
                pkts.push(pkt(i * 25_000, 500));
            }
            launch_attributes(&pkts, &cfg)
        };
        let a = mk(1);
        let b = mk(2);
        let names = cfg.attribute_names();
        let idx = |n: &str| names.iter().position(|x| x == n).unwrap();
        assert!(b[idx("full_ct_sum[0]")] > 1.5 * a[idx("full_ct_sum[0]")]);
        assert_eq!(a[idx("steady_sz_mean[0]")], b[idx("steady_sz_mean[0]")]);
    }
}
