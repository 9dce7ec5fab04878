//! Trace-layer telemetry: RTP parse outcomes and pcap record decode
//! results.
//!
//! Handles live in `cgc-obs`; this module registers the nettrace series
//! once and caches the process-wide set, so pcap frame decode pays a
//! single relaxed atomic increment. Packets reaching the tap are counted
//! by the monitor (`cgc_monitor_ingested_packets_total`), on the registry
//! its run records into.

use cgc_obs::{Counter, Registry};
use std::sync::{Arc, OnceLock};

/// Counters for the packet/RTP parse layer.
#[derive(Debug, Clone)]
pub struct TraceMetrics {
    /// UDP payloads that parsed as RTP (`cgc_trace_rtp_parsed_total`).
    pub rtp_parsed: Arc<Counter>,
    /// UDP payloads that failed RTP decode
    /// (`cgc_trace_rtp_malformed_total`).
    pub rtp_malformed: Arc<Counter>,
    /// Capture records decoded from pcap files
    /// (`cgc_trace_pcap_records_total`).
    pub pcap_records: Arc<Counter>,
    /// Capture frames skipped as non-IPv4/UDP
    /// (`cgc_trace_pcap_skipped_total`).
    pub pcap_skipped: Arc<Counter>,
}

impl TraceMetrics {
    /// Register (or look up) the trace-layer series in `registry`.
    pub fn register(registry: &Registry) -> Self {
        Self {
            rtp_parsed: registry.counter(
                "cgc_trace_rtp_parsed_total",
                "UDP payloads successfully parsed as RTP",
            ),
            rtp_malformed: registry.counter(
                "cgc_trace_rtp_malformed_total",
                "UDP payloads that failed RTP header decode",
            ),
            pcap_records: registry.counter(
                "cgc_trace_pcap_records_total",
                "IPv4/UDP capture records decoded from pcap input",
            ),
            pcap_skipped: registry.counter(
                "cgc_trace_pcap_skipped_total",
                "Capture frames skipped as non-IPv4/UDP or truncated",
            ),
        }
    }

    /// The set registered against [`Registry::global`].
    pub fn global() -> &'static TraceMetrics {
        static GLOBAL: OnceLock<TraceMetrics> = OnceLock::new();
        GLOBAL.get_or_init(|| TraceMetrics::register(Registry::global()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent() {
        let r = Registry::new();
        let a = TraceMetrics::register(&r);
        let b = TraceMetrics::register(&r);
        a.rtp_parsed.inc();
        b.rtp_parsed.inc();
        assert_eq!(a.rtp_parsed.get(), 2);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn global_handles_are_stable() {
        let a = TraceMetrics::global();
        let b = TraceMetrics::global();
        assert!(Arc::ptr_eq(&a.rtp_parsed, &b.rtp_parsed));
    }
}
