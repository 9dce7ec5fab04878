//! Classic libpcap file I/O.
//!
//! The lab half of the paper works from Wireshark/tcpdump PCAP captures.
//! This module writes synthetic sessions as standard little-endian classic
//! pcap files (magic `0xa1b2c3d4`, microsecond resolution, LINKTYPE_ETHERNET)
//! with real Ethernet/IPv4/UDP/RTP framing, and reads them back into
//! [`Packet`] sequences — so the full capture-file path a downstream user
//! would run on real traces exists and is exercised in tests.
//!
//! Payload bytes are zeros: the classifiers are payload-agnostic (the real
//! streams are encrypted) and only sizes/timings matter.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use cgc_obs::EventSink;

use crate::packet::{Direction, FiveTuple, Packet, Protocol};
use crate::rtp::{RtpHeader, RTP_HEADER_LEN};
use crate::units::{Micros, MICROS_PER_SEC};

/// Classic pcap magic, microsecond timestamps, little-endian.
const PCAP_MAGIC_LE: u32 = 0xa1b2_c3d4;
/// LINKTYPE_ETHERNET.
const LINKTYPE_ETHERNET: u32 = 1;

const ETH_LEN: usize = 14;
const IPV4_LEN: usize = 20;
const UDP_LEN: usize = 8;

/// One decoded capture record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcapRecord {
    /// Capture timestamp in microseconds.
    pub ts: Micros,
    /// Five-tuple exactly as observed on the wire (src = sender).
    pub tuple: FiveTuple,
    /// Parsed RTP header, when the UDP payload carried one.
    pub rtp: Option<RtpHeader>,
    /// RTP payload length (UDP payload minus RTP header), bytes.
    pub payload_len: u32,
}

/// Errors from pcap decoding.
#[derive(Debug)]
pub enum PcapError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// File does not start with a supported magic number.
    BadMagic(u32),
    /// A record or header was malformed.
    Malformed(&'static str),
}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        PcapError::Io(e)
    }
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "pcap I/O error: {e}"),
            PcapError::BadMagic(m) => write!(f, "unsupported pcap magic {m:#x}"),
            PcapError::Malformed(what) => write!(f, "malformed pcap: {what}"),
        }
    }
}

impl std::error::Error for PcapError {}

/// Streaming pcap writer.
pub struct PcapWriter<W: Write> {
    out: W,
}

impl PcapWriter<BufWriter<File>> {
    /// Creates a pcap file at `path` and writes the global header.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::new(BufWriter::new(File::create(path)?))
    }
}

impl<W: Write> PcapWriter<W> {
    /// Wraps a writer and emits the pcap global header.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(&PCAP_MAGIC_LE.to_le_bytes())?;
        out.write_all(&2u16.to_le_bytes())?; // version major
        out.write_all(&4u16.to_le_bytes())?; // version minor
        out.write_all(&0i32.to_le_bytes())?; // thiszone
        out.write_all(&0u32.to_le_bytes())?; // sigfigs
        out.write_all(&65535u32.to_le_bytes())?; // snaplen
        out.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;
        Ok(PcapWriter { out })
    }

    /// Writes one session packet framed as Ethernet/IPv4/UDP/RTP.
    ///
    /// `down_tuple` is the session five-tuple in downstream orientation; the
    /// packet's [`Direction`] selects which orientation goes on the wire.
    fn write_packet(&mut self, down_tuple: &FiveTuple, pkt: &Packet) -> io::Result<()> {
        let tuple = match pkt.dir {
            Direction::Downstream => *down_tuple,
            Direction::Upstream => down_tuple.reversed(),
        };

        let rtp = match pkt.dir {
            Direction::Downstream => RtpHeader::video(pkt.seq, pkt.rtp_ts, 0x47464e01, pkt.marker),
            Direction::Upstream => RtpHeader::input(pkt.seq, pkt.rtp_ts, 0x47464e02),
        };
        let udp_payload_len = RTP_HEADER_LEN + pkt.payload_len as usize;
        let frame_len = ETH_LEN + IPV4_LEN + UDP_LEN + udp_payload_len;

        // Record header.
        self.out
            .write_all(&((pkt.ts / MICROS_PER_SEC) as u32).to_le_bytes())?;
        self.out
            .write_all(&((pkt.ts % MICROS_PER_SEC) as u32).to_le_bytes())?;
        self.out.write_all(&(frame_len as u32).to_le_bytes())?;
        self.out.write_all(&(frame_len as u32).to_le_bytes())?;

        // Ethernet II: synthetic locally-administered MACs, EtherType IPv4.
        self.out.write_all(&[0x02, 0, 0, 0, 0, 0x01])?;
        self.out.write_all(&[0x02, 0, 0, 0, 0, 0x02])?;
        self.out.write_all(&[0x08, 0x00])?;

        // IPv4 header.
        let total_len = (IPV4_LEN + UDP_LEN + udp_payload_len) as u16;
        let mut ip = [0u8; IPV4_LEN];
        ip[0] = 0x45;
        ip[2..4].copy_from_slice(&total_len.to_be_bytes());
        ip[8] = 64; // TTL
        ip[9] = 17; // UDP
        ip[12..16].copy_from_slice(&tuple.src_ip.octets());
        ip[16..20].copy_from_slice(&tuple.dst_ip.octets());
        let csum = ipv4_checksum(&ip);
        ip[10..12].copy_from_slice(&csum.to_be_bytes());
        self.out.write_all(&ip)?;

        // UDP header (checksum 0 = unset, legal for IPv4).
        self.out.write_all(&tuple.src_port.to_be_bytes())?;
        self.out.write_all(&tuple.dst_port.to_be_bytes())?;
        self.out
            .write_all(&((UDP_LEN + udp_payload_len) as u16).to_be_bytes())?;
        self.out.write_all(&0u16.to_be_bytes())?;

        // RTP header + zero payload.
        let mut rtp_buf = Vec::with_capacity(RTP_HEADER_LEN);
        rtp.encode(&mut rtp_buf);
        self.out.write_all(&rtp_buf)?;
        io::copy(
            &mut io::repeat(0).take(pkt.payload_len as u64),
            &mut self.out,
        )?;
        Ok(())
    }

    /// Writes an entire session and flushes.
    pub fn write_session(&mut self, down_tuple: &FiveTuple, packets: &[Packet]) -> io::Result<()> {
        for p in packets {
            self.write_packet(down_tuple, p)?;
        }
        self.out.flush()
    }
}

/// Writes `packets` of a session to a fresh pcap file at `path`.
pub fn write_session_pcap(
    path: impl AsRef<Path>,
    down_tuple: &FiveTuple,
    packets: &[Packet],
) -> io::Result<()> {
    PcapWriter::create(path)?.write_session(down_tuple, packets)
}

fn ipv4_checksum(header: &[u8]) -> u16 {
    let mut sum = 0u32;
    for chunk in header.chunks(2) {
        let word = u16::from_be_bytes([chunk[0], *chunk.get(1).unwrap_or(&0)]);
        sum += u32::from(word);
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Reads all records from a classic little-endian pcap file.
///
/// Non-IPv4/UDP frames are skipped (a gateway capture contains ARP, TCP
/// control traffic, etc.); UDP payloads that do not parse as RTP yield a
/// record with `rtp: None` and the full UDP payload length.
pub fn read_records(path: impl AsRef<Path>) -> Result<Vec<PcapRecord>, PcapError> {
    read_records_journaled(path, &EventSink::disabled())
}

/// [`read_records`] that also flight-records every malformed RTP payload
/// against its flow in `journal`, so an operator sees codec trouble on a
/// session's own timeline.
pub fn read_records_journaled(
    path: impl AsRef<Path>,
    journal: &EventSink,
) -> Result<Vec<PcapRecord>, PcapError> {
    let mut rd = BufReader::new(File::open(path)?);
    let mut hdr = [0u8; 24];
    rd.read_exact(&mut hdr)?;
    let magic = u32::from_le_bytes(hdr[0..4].try_into().unwrap());
    if magic != PCAP_MAGIC_LE {
        return Err(PcapError::BadMagic(magic));
    }
    let linktype = u32::from_le_bytes(hdr[20..24].try_into().unwrap());
    if linktype != LINKTYPE_ETHERNET {
        return Err(PcapError::Malformed("unsupported linktype"));
    }

    let metrics = crate::metrics::TraceMetrics::global();
    let mut records = Vec::new();
    loop {
        let mut rec_hdr = [0u8; 16];
        match rd.read_exact(&mut rec_hdr) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e.into()),
        }
        let ts_sec = u32::from_le_bytes(rec_hdr[0..4].try_into().unwrap()) as u64;
        let ts_usec = u32::from_le_bytes(rec_hdr[4..8].try_into().unwrap()) as u64;
        let incl_len = u32::from_le_bytes(rec_hdr[8..12].try_into().unwrap()) as usize;
        let mut frame = vec![0u8; incl_len];
        rd.read_exact(&mut frame)?;

        let ts: Micros = ts_sec * MICROS_PER_SEC + ts_usec;
        match decode_frame(ts, &frame, journal) {
            Some(rec) => {
                metrics.pcap_records.inc();
                records.push(rec);
            }
            None => metrics.pcap_skipped.inc(),
        }
    }
    Ok(records)
}

fn decode_frame(ts: Micros, frame: &[u8], journal: &EventSink) -> Option<PcapRecord> {
    if frame.len() < ETH_LEN + IPV4_LEN + UDP_LEN {
        return None;
    }
    let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
    if ethertype != 0x0800 {
        return None; // not IPv4
    }
    let ip = &frame[ETH_LEN..];
    if ip[0] >> 4 != 4 {
        return None;
    }
    let ihl = (ip[0] & 0x0f) as usize * 4;
    if ip.len() < ihl + UDP_LEN || ip[9] != 17 {
        return None; // short or not UDP
    }
    let src: [u8; 4] = ip[12..16].try_into().unwrap();
    let dst: [u8; 4] = ip[16..20].try_into().unwrap();
    let udp = &ip[ihl..];
    let src_port = u16::from_be_bytes([udp[0], udp[1]]);
    let dst_port = u16::from_be_bytes([udp[2], udp[3]]);
    let udp_len = u16::from_be_bytes([udp[4], udp[5]]) as usize;
    if udp_len < UDP_LEN || udp.len() < udp_len {
        return None;
    }
    let udp_payload = &udp[UDP_LEN..udp_len];

    let tuple = FiveTuple {
        src_ip: src.into(),
        dst_ip: dst.into(),
        src_port,
        dst_port,
        proto: Protocol::Udp,
    };
    let metrics = crate::metrics::TraceMetrics::global();
    match RtpHeader::decode(udp_payload) {
        Ok((rtp, consumed)) => {
            metrics.rtp_parsed.inc();
            Some(PcapRecord {
                ts,
                tuple,
                rtp: Some(rtp),
                payload_len: (udp_payload.len() - consumed) as u32,
            })
        }
        Err(_) => {
            metrics.rtp_malformed.inc();
            journal.emit(
                tuple.flow_id(),
                ts,
                cgc_obs::event::EventKind::RtpInvalid {
                    payload_len: udp_payload.len() as u32,
                },
            );
            Some(PcapRecord {
                ts,
                tuple,
                rtp: None,
                payload_len: udp_payload.len() as u32,
            })
        }
    }
}

/// Converts capture records back into session [`Packet`]s, assigning
/// direction by matching each record's source against `down_tuple` (the
/// session tuple in downstream orientation). Records of other flows are
/// dropped.
pub fn records_to_packets(records: &[PcapRecord], down_tuple: &FiveTuple) -> Vec<Packet> {
    let up = down_tuple.reversed();
    records
        .iter()
        .filter_map(|r| {
            let dir = if r.tuple == *down_tuple {
                Direction::Downstream
            } else if r.tuple == up {
                Direction::Upstream
            } else {
                return None;
            };
            let mut p = Packet::new(r.ts, dir, r.payload_len);
            if let Some(rtp) = r.rtp {
                p.seq = rtp.sequence;
                p.rtp_ts = rtp.timestamp;
                p.marker = rtp.marker;
            }
            Some(p)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple() -> FiveTuple {
        FiveTuple::udp_v4([10, 0, 0, 1], 49003, [192, 168, 1, 5], 50123)
    }

    fn session() -> Vec<Packet> {
        let mut pkts = Vec::new();
        for i in 0..50u64 {
            let mut p = Packet::new(i * 10_000, Direction::Downstream, 1432);
            p.seq = i as u16;
            p.rtp_ts = (i * 1500) as u32;
            p.marker = i % 5 == 4;
            pkts.push(p);
            if i % 3 == 0 {
                let mut u = Packet::new(i * 10_000 + 500, Direction::Upstream, 60);
                u.seq = (i / 3) as u16;
                pkts.push(u);
            }
        }
        pkts
    }

    #[test]
    fn roundtrip_preserves_packets() {
        let dir = std::env::temp_dir().join("nettrace_pcap_roundtrip.pcap");
        let pkts = session();
        write_session_pcap(&dir, &tuple(), &pkts).unwrap();
        let records = read_records(&dir).unwrap();
        assert_eq!(records.len(), pkts.len());
        let back = records_to_packets(&records, &tuple());
        assert_eq!(back, pkts);
        std::fs::remove_file(&dir).ok();
    }

    #[test]
    fn rtp_headers_survive_the_wire() {
        let dir = std::env::temp_dir().join("nettrace_pcap_rtp.pcap");
        write_session_pcap(&dir, &tuple(), &session()).unwrap();
        let records = read_records(&dir).unwrap();
        assert!(records.iter().all(|r| r.rtp.is_some()));
        let down_pts: Vec<u8> = records
            .iter()
            .filter(|r| r.tuple == tuple())
            .map(|r| r.rtp.unwrap().payload_type)
            .collect();
        assert!(down_pts.iter().all(|&pt| pt == crate::rtp::PT_GAME_VIDEO));
        std::fs::remove_file(&dir).ok();
    }

    #[test]
    fn foreign_flows_are_filtered_out() {
        let dir = std::env::temp_dir().join("nettrace_pcap_foreign.pcap");
        write_session_pcap(&dir, &tuple(), &session()).unwrap();
        let records = read_records(&dir).unwrap();
        let other = FiveTuple::udp_v4([9, 9, 9, 9], 1, [8, 8, 8, 8], 2);
        assert!(records_to_packets(&records, &other).is_empty());
        std::fs::remove_file(&dir).ok();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let dir = std::env::temp_dir().join("nettrace_pcap_badmagic.pcap");
        std::fs::write(&dir, [0u8; 24]).unwrap();
        match read_records(&dir) {
            Err(PcapError::BadMagic(0)) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
        std::fs::remove_file(&dir).ok();
    }

    #[test]
    fn checksum_matches_reference_vector() {
        // Reference header from RFC 1071 style example.
        let mut ip = [0u8; 20];
        ip[0] = 0x45;
        ip[2..4].copy_from_slice(&(40u16).to_be_bytes());
        ip[8] = 64;
        ip[9] = 17;
        ip[12..16].copy_from_slice(&[10, 0, 0, 1]);
        ip[16..20].copy_from_slice(&[192, 168, 1, 5]);
        let c = ipv4_checksum(&ip);
        // Verify the invariant instead of a magic constant: a header with
        // its checksum filled in sums to 0xffff before final complement.
        ip[10..12].copy_from_slice(&c.to_be_bytes());
        let mut sum = 0u32;
        for chunk in ip.chunks(2) {
            sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        assert_eq!(sum, 0xffff);
    }
}
