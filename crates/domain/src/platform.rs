//! Cloud gaming platforms.
//!
//! The paper collects traffic on four commercial platforms (§3.1) and its
//! flow-detection signatures cover all of them (§4.1). Each platform has a
//! distinctive server-side UDP port range and a slightly different maximum
//! RTP payload (MTU budget differs per transport framing), which is why the
//! packet-group labeler detects the "full" size per flow instead of
//! hard-coding it.

use serde::{Deserialize, Serialize};

/// Cloud gaming platforms with known streaming signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Platform {
    /// NVIDIA GeForce NOW (UDP 49003–49006).
    GeForceNow,
    /// Microsoft Xbox Cloud Gaming (Teredo-range UDP ports).
    XboxCloud,
    /// Amazon Luna (UDP 9988–9999 media range).
    AmazonLuna,
    /// Sony PS5 Cloud Streaming (UDP 9295–9304).
    Ps5Cloud,
}

impl Platform {
    /// All supported platforms.
    pub const ALL: [Platform; 4] = [
        Platform::GeForceNow,
        Platform::XboxCloud,
        Platform::AmazonLuna,
        Platform::Ps5Cloud,
    ];

    /// Matches a server-side UDP port against the platform's signature.
    fn matches_port(&self, port: u16) -> bool {
        match self {
            Platform::GeForceNow => (49003..=49006).contains(&port),
            Platform::XboxCloud => (3074..=3076).contains(&port) || port == 9002,
            Platform::AmazonLuna => (9988..=9999).contains(&port),
            Platform::Ps5Cloud => (9295..=9304).contains(&port),
        }
    }

    /// Detects the platform from a server port.
    pub fn from_port(port: u16) -> Option<Platform> {
        Platform::ALL.iter().copied().find(|p| p.matches_port(port))
    }

    /// A server-side UDP port for this platform, parameterized by a small
    /// index so concurrent sessions spread over the signature range.
    pub fn server_port(&self, index: u16) -> u16 {
        match self {
            Platform::GeForceNow => 49003 + index % 4,
            Platform::XboxCloud => 3074 + index % 3,
            Platform::AmazonLuna => 9988 + index % 12,
            Platform::Ps5Cloud => 9295 + index % 10,
        }
    }

    /// Maximum RTP payload on the platform's streaming path, bytes. The
    /// platforms frame their media transport differently (extra FEC /
    /// encryption headers), so the "full" packet size varies — another
    /// reason the labeler detects it per flow.
    pub fn max_payload(&self) -> u32 {
        match self {
            Platform::GeForceNow => 1432,
            Platform::XboxCloud => 1362,
            Platform::AmazonLuna => 1378,
            Platform::Ps5Cloud => 1418,
        }
    }
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Platform::GeForceNow => write!(f, "GeForce NOW"),
            Platform::XboxCloud => write!(f, "Xbox Cloud Gaming"),
            Platform::AmazonLuna => write!(f, "Amazon Luna"),
            Platform::Ps5Cloud => write!(f, "PS5 Cloud Streaming"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_signatures_roundtrip() {
        for p in Platform::ALL {
            for idx in 0..16 {
                let port = p.server_port(idx);
                assert!(p.matches_port(port), "{p} port {port}");
                assert_eq!(Platform::from_port(port), Some(p));
            }
        }
    }

    #[test]
    fn signatures_do_not_overlap() {
        for port in 0..u16::MAX {
            let matches = Platform::ALL
                .iter()
                .filter(|p| p.matches_port(port))
                .count();
            assert!(matches <= 1, "port {port} matches {matches} platforms");
        }
    }

    #[test]
    fn unknown_ports_are_unmatched() {
        assert_eq!(Platform::from_port(443), None);
        assert_eq!(Platform::from_port(0), None);
        assert_eq!(Platform::from_port(50_000), None);
    }

    #[test]
    fn max_payloads_are_plausible() {
        for p in Platform::ALL {
            let mp = p.max_payload();
            assert!((1300..=1460).contains(&mp), "{p}: {mp}");
        }
    }
}
