//! RTP (RFC 3550) fixed-header codec.
//!
//! Cloud gaming platforms stream rendered video downstream and user input
//! upstream in standard RTP flows (paper §3.2). The pipeline itself only
//! needs sizes and timings, but the pcap round-trip path serializes real RTP
//! headers so that traces written by [`crate::pcap`] are inspectable in
//! Wireshark and so the flow filter can validate the version/payload-type
//! signature the way prior-work detectors do.

use bytes::{Buf, BufMut};

/// Length in bytes of the fixed RTP header (no CSRC entries, no extension).
pub const RTP_HEADER_LEN: usize = 12;

/// RTP protocol version carried in the two high bits of the first octet.
const RTP_VERSION: u8 = 2;

/// Dynamic payload type used by GeForce NOW style video streams (96..127
/// range is dynamic; 96 is the conventional H.264/HEVC mapping).
pub const PT_GAME_VIDEO: u8 = 96;

/// Dynamic payload type for the upstream input/control stream.
const PT_GAME_INPUT: u8 = 97;

/// A decoded RTP fixed header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtpHeader {
    /// Protocol version; always 2 on the wire.
    pub version: u8,
    /// Padding flag.
    pub padding: bool,
    /// Extension flag.
    pub extension: bool,
    /// CSRC count (we emit 0; decoding tolerates up to 15 and skips them).
    pub csrc_count: u8,
    /// Marker bit — set on the final packet of an encoded video frame,
    /// which is how the QoE estimator counts delivered frames.
    pub marker: bool,
    /// Payload type.
    pub payload_type: u8,
    /// Sequence number, increments by one per packet per direction.
    pub sequence: u16,
    /// Media timestamp (90 kHz clock for video).
    pub timestamp: u32,
    /// Synchronization source identifier.
    pub ssrc: u32,
}

/// Errors produced when decoding an RTP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtpError {
    /// Fewer than [`RTP_HEADER_LEN`] (+ CSRC) bytes available.
    Truncated,
    /// First octet does not carry version 2.
    BadVersion(u8),
}

impl std::fmt::Display for RtpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtpError::Truncated => write!(f, "RTP header truncated"),
            RtpError::BadVersion(v) => write!(f, "unsupported RTP version {v}"),
        }
    }
}

impl std::error::Error for RtpError {}

impl RtpHeader {
    /// A downstream game-video header with the given dynamic fields.
    pub fn video(sequence: u16, timestamp: u32, ssrc: u32, marker: bool) -> Self {
        RtpHeader {
            version: RTP_VERSION,
            padding: false,
            extension: false,
            csrc_count: 0,
            marker,
            payload_type: PT_GAME_VIDEO,
            sequence,
            timestamp,
            ssrc,
        }
    }

    /// An upstream input-stream header.
    pub fn input(sequence: u16, timestamp: u32, ssrc: u32) -> Self {
        RtpHeader {
            payload_type: PT_GAME_INPUT,
            ..RtpHeader::video(sequence, timestamp, ssrc, false)
        }
    }

    /// Writes the header into `buf` (network byte order).
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        let b0 = (self.version << 6)
            | ((self.padding as u8) << 5)
            | ((self.extension as u8) << 4)
            | (self.csrc_count & 0x0f);
        let b1 = ((self.marker as u8) << 7) | (self.payload_type & 0x7f);
        buf.put_u8(b0);
        buf.put_u8(b1);
        buf.put_u16(self.sequence);
        buf.put_u32(self.timestamp);
        buf.put_u32(self.ssrc);
        for _ in 0..self.csrc_count {
            buf.put_u32(0);
        }
    }

    /// Parses a header from the start of `buf`, returning it together with
    /// the number of bytes consumed (header + CSRC list).
    pub fn decode(mut buf: &[u8]) -> Result<(Self, usize), RtpError> {
        if buf.len() < RTP_HEADER_LEN {
            return Err(RtpError::Truncated);
        }
        let b0 = buf.get_u8();
        let version = b0 >> 6;
        if version != RTP_VERSION {
            return Err(RtpError::BadVersion(version));
        }
        let padding = b0 & 0x20 != 0;
        let extension = b0 & 0x10 != 0;
        let csrc_count = b0 & 0x0f;
        let b1 = buf.get_u8();
        let marker = b1 & 0x80 != 0;
        let payload_type = b1 & 0x7f;
        let sequence = buf.get_u16();
        let timestamp = buf.get_u32();
        let ssrc = buf.get_u32();
        let consumed = RTP_HEADER_LEN + 4 * csrc_count as usize;
        if buf.remaining() < 4 * csrc_count as usize {
            return Err(RtpError::Truncated);
        }
        Ok((
            RtpHeader {
                version,
                padding,
                extension,
                csrc_count,
                marker,
                payload_type,
                sequence,
                timestamp,
                ssrc,
            },
            consumed,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let h = RtpHeader::video(4242, 0xdead_beef, 0x1234_5678, true);
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), RTP_HEADER_LEN);
        let (d, used) = RtpHeader::decode(&buf).unwrap();
        assert_eq!(used, RTP_HEADER_LEN);
        assert_eq!(d, h);
    }

    #[test]
    fn input_header_uses_input_payload_type() {
        let h = RtpHeader::input(7, 100, 42);
        assert_eq!(h.payload_type, PT_GAME_INPUT);
        assert!(!h.marker);
    }

    #[test]
    fn decode_rejects_truncated() {
        assert_eq!(RtpHeader::decode(&[0x80; 5]), Err(RtpError::Truncated));
    }

    #[test]
    fn decode_rejects_bad_version() {
        let mut buf = Vec::new();
        RtpHeader::video(1, 2, 3, false).encode(&mut buf);
        buf[0] = 0x40 | (buf[0] & 0x3f); // version 1
        assert_eq!(RtpHeader::decode(&buf), Err(RtpError::BadVersion(1)));
    }

    #[test]
    fn decode_skips_csrc_entries() {
        let h = RtpHeader {
            csrc_count: 2,
            ..RtpHeader::video(9, 9, 9, false)
        };
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), RTP_HEADER_LEN + 8);
        let (d, used) = RtpHeader::decode(&buf).unwrap();
        assert_eq!(used, RTP_HEADER_LEN + 8);
        assert_eq!(d.csrc_count, 2);
    }

    #[test]
    fn truncated_csrc_list_is_an_error() {
        let h = RtpHeader {
            csrc_count: 3,
            ..RtpHeader::video(9, 9, 9, false)
        };
        let mut buf = Vec::new();
        h.encode(&mut buf);
        buf.truncate(RTP_HEADER_LEN + 4); // only one of three CSRCs present
        assert_eq!(RtpHeader::decode(&buf), Err(RtpError::Truncated));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any header round-trips bit-exactly through encode/decode.
        #[test]
        fn header_roundtrips(
            marker in any::<bool>(),
            payload_type in 0u8..128,
            sequence in any::<u16>(),
            timestamp in any::<u32>(),
            ssrc in any::<u32>(),
            csrc_count in 0u8..16,
        ) {
            let h = RtpHeader {
                version: RTP_VERSION,
                padding: false,
                extension: false,
                csrc_count,
                marker,
                payload_type,
                sequence,
                timestamp,
                ssrc,
            };
            let mut buf = Vec::new();
            h.encode(&mut buf);
            prop_assert_eq!(buf.len(), RTP_HEADER_LEN + 4 * usize::from(csrc_count));
            let (d, used) = RtpHeader::decode(&buf).unwrap();
            prop_assert_eq!(used, buf.len());
            prop_assert_eq!(d, h);
        }

        /// Arbitrary bytes never panic the decoder; short inputs are
        /// rejected cleanly.
        #[test]
        fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
            let _ = RtpHeader::decode(&bytes);
            if bytes.len() < RTP_HEADER_LEN {
                prop_assert!(RtpHeader::decode(&bytes).is_err());
            }
        }
    }
}
