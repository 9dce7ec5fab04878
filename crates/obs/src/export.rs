//! Snapshot exporters: Prometheus text exposition and JSON.
//!
//! The Prometheus renderer decimates log-linear histogram buckets to
//! power-of-two `le` boundaries (which align exactly with the octave
//! edges of [`crate::hist::Histogram`], so the cumulative counts are
//! exact), keeping scrape payloads small without losing tail shape.

use crate::snapshot::{HistogramSnapshot, MetricValue, Snapshot};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Render a snapshot in Prometheus text exposition format.
pub fn prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for m in &snapshot.metrics {
        if last_name != Some(m.name.as_str()) {
            if !m.help.is_empty() {
                let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
            }
            let kind = match m.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# TYPE {} {}", m.name, kind);
            last_name = Some(m.name.as_str());
        }
        match &m.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{}{} {}", m.name, label_block(&m.labels, None), v);
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "{}{} {}", m.name, label_block(&m.labels, None), v);
            }
            MetricValue::Histogram(h) => render_histogram(&mut out, &m.name, &m.labels, h),
        }
    }
    // Exemplars are an OpenMetrics feature, and OpenMetrics requires the
    // exposition to end with an explicit EOF marker — a truncated scrape
    // must be distinguishable from a complete one. Plain Prometheus text
    // (no exemplars anywhere) keeps the historical unterminated format.
    let has_exemplars = snapshot.metrics.iter().any(|m| match &m.value {
        MetricValue::Histogram(h) => h.exemplar.is_some(),
        _ => false,
    });
    if has_exemplars {
        out.push_str("# EOF\n");
    }
    out
}

/// Render a snapshot as pretty-printed JSON (the format consumed by
/// `deploy::report` artifacts).
pub fn json(snapshot: &Snapshot) -> String {
    serde_json::to_string_pretty(snapshot).expect("snapshot serialization is infallible")
}

/// Write a snapshot to `target`: `-` streams Prometheus text to stdout,
/// a path ending in `.json` gets the JSON export, anything else gets
/// Prometheus text.
pub fn dump(snapshot: &Snapshot, target: &str) -> std::io::Result<()> {
    if target == "-" {
        let mut stdout = std::io::stdout().lock();
        stdout.write_all(prometheus(snapshot).as_bytes())?;
        return Ok(());
    }
    let is_json = Path::new(target)
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("json"));
    let body = if is_json {
        json(snapshot)
    } else {
        prometheus(snapshot)
    };
    std::fs::write(target, body)
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", k, escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{}=\"{}\"", k, escape(v)));
    }
    format!("{{{}}}", parts.join(","))
}

/// Escapes a label value for the text format: backslash, double quote
/// and newline (a raw newline would split the sample line in two).
fn escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_histogram(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    h: &HistogramSnapshot,
) {
    // Cumulative counts at power-of-two boundaries. Bucket edges align
    // with octave edges, so `values <= 2^k - 1` is exactly the mass of
    // buckets with `hi <= 2^k`.
    let mut boundaries: Vec<(u64, u64)> = Vec::new();
    let mut cum = 0u64;
    let mut bi = 0;
    for k in 0..=63u32 {
        let bound = 1u128 << k;
        while bi < h.buckets.len() && (h.buckets[bi].hi as u128) <= bound {
            cum += h.buckets[bi].count;
            bi += 1;
        }
        boundaries.push(((bound - 1) as u64, cum));
        if cum == h.count {
            break;
        }
    }
    // Keep at most one leading all-below-data boundary.
    let first_nonzero = boundaries
        .iter()
        .position(|&(_, c)| c > 0)
        .unwrap_or(boundaries.len());
    let start = first_nonzero.saturating_sub(1);
    // OpenMetrics exemplar: attached to the first rendered bucket whose
    // `le` covers the exemplar value (falling through to `+Inf`), so a
    // scraper can jump from a latency bucket to `/trace?flow=`.
    let exemplar_text = h.exemplar.map(|e| {
        format!(
            " # {{flow=\"{:016x}\",trace=\"{:016x}\"}} {}",
            e.flow, e.trace, e.value
        )
    });
    let mut exemplar_pending = exemplar_text.as_deref();
    for &(le, c) in &boundaries[start..] {
        let attach = match exemplar_pending {
            Some(_) if h.exemplar.is_some_and(|e| e.value <= le) => {
                exemplar_pending.take().unwrap_or("")
            }
            _ => "",
        };
        let _ = writeln!(
            out,
            "{}_bucket{} {}{}",
            name,
            label_block(labels, Some(("le", &le.to_string()))),
            c,
            attach
        );
    }
    let _ = writeln!(
        out,
        "{}_bucket{} {}{}",
        name,
        label_block(labels, Some(("le", "+Inf"))),
        h.count,
        exemplar_pending.take().unwrap_or("")
    );
    let _ = writeln!(out, "{}_sum{} {}", name, label_block(labels, None), h.sum);
    let _ = writeln!(
        out,
        "{}_count{} {}",
        name,
        label_block(labels, None),
        h.count
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("cgc_demo_packets_total", "Packets seen").add(42);
        r.gauge_with("cgc_demo_depth", "Queue depth", &[("shard", "0")])
            .set(3);
        let h = r.histogram("cgc_demo_lat_ns", "Latency");
        for v in [5u64, 17, 120, 4096] {
            h.record(v);
        }
        r
    }

    #[test]
    fn prometheus_renders_all_kinds() {
        let text = prometheus(&sample_registry().snapshot());
        assert!(text.contains("# TYPE cgc_demo_packets_total counter"));
        assert!(text.contains("cgc_demo_packets_total 42"));
        assert!(text.contains("# TYPE cgc_demo_depth gauge"));
        assert!(text.contains("cgc_demo_depth{shard=\"0\"} 3"));
        assert!(text.contains("# TYPE cgc_demo_lat_ns histogram"));
        assert!(text.contains("cgc_demo_lat_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("cgc_demo_lat_ns_sum 4238"));
        assert!(text.contains("cgc_demo_lat_ns_count 4"));
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative_and_exact() {
        let r = Registry::new();
        let h = r.histogram("lat", "l");
        // 3 values <= 7, one more <= 127, one more <= 8191.
        for v in [1u64, 5, 7, 100, 8000] {
            h.record(v);
        }
        let text = prometheus(&r.snapshot());
        assert!(text.contains("lat_bucket{le=\"7\"} 3"), "{text}");
        assert!(text.contains("lat_bucket{le=\"127\"} 4"), "{text}");
        assert!(text.contains("lat_bucket{le=\"8191\"} 5"), "{text}");
        // Cumulative counts never decrease.
        let mut prev = 0u64;
        for line in text.lines().filter(|l| l.starts_with("lat_bucket")) {
            let c: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(c >= prev, "non-monotonic: {line}");
            prev = c;
        }
    }

    #[test]
    fn prometheus_attaches_exemplar_to_covering_bucket() {
        let r = Registry::new();
        let h = r.histogram("cgc_demo_latency_us", "Latency");
        h.record(5);
        h.record_with_exemplar(100, 0xab, 0xcd);
        let text = prometheus(&r.snapshot());
        let exemplar_lines: Vec<&str> = text.lines().filter(|l| l.contains(" # {")).collect();
        assert_eq!(exemplar_lines.len(), 1, "exactly one exemplar: {text}");
        let line = exemplar_lines[0];
        // Attached to the first bucket with le >= 100 (le="127").
        assert!(
            line.starts_with("cgc_demo_latency_us_bucket{le=\"127\"}"),
            "{line}"
        );
        assert!(
            line.ends_with("# {flow=\"00000000000000ab\",trace=\"00000000000000cd\"} 100"),
            "{line}"
        );
    }

    #[test]
    fn exposition_ends_with_eof_only_when_exemplars_present() {
        // No exemplars: historical Prometheus text, no terminator.
        let plain = prometheus(&sample_registry().snapshot());
        assert!(!plain.contains("# EOF"), "{plain}");
        // With an exemplar the scrape is OpenMetrics and must terminate.
        let r = Registry::new();
        r.histogram("cgc_demo_lat_ns", "Latency")
            .record_with_exemplar(100, 0xab, 0xcd);
        let text = prometheus(&r.snapshot());
        assert!(text.ends_with("# EOF\n"), "{text}");
        assert_eq!(text.matches("# EOF").count(), 1, "{text}");
    }

    #[test]
    fn json_roundtrips() {
        let snap = sample_registry().snapshot();
        let text = json(&snap);
        let back: Snapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn dump_picks_format_by_extension() {
        let dir = std::env::temp_dir().join("cgc_obs_dump_test");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = sample_registry().snapshot();
        let prom_path = dir.join("metrics.prom");
        let json_path = dir.join("metrics.json");
        dump(&snap, prom_path.to_str().unwrap()).unwrap();
        dump(&snap, json_path.to_str().unwrap()).unwrap();
        let prom = std::fs::read_to_string(&prom_path).unwrap();
        let js = std::fs::read_to_string(&json_path).unwrap();
        assert!(prom.contains("# TYPE"));
        let back: Snapshot = serde_json::from_str(&js).unwrap();
        assert_eq!(back, snap);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
