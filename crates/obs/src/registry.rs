//! Metric registry: named, labelled handles with get-or-create
//! semantics and whole-registry snapshots.
//!
//! Instrumented code holds `Arc` handles obtained once at registration,
//! so the hot path never touches the registry lock — only registration
//! and `snapshot()` do. A process-wide registry is available via
//! [`Registry::global`], and every consumer also accepts an injected
//! registry for deterministic tests.

use crate::hist::Histogram;
use crate::metric::{Counter, Gauge};
use crate::snapshot::{MetricSnapshot, MetricValue, Snapshot};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// A registered metric of any kind.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    help: String,
    metric: Metric,
}

/// Collection of named metrics with snapshot support.
#[derive(Debug, Default)]
pub struct Registry {
    entries: RwLock<Vec<Entry>>,
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

impl Registry {
    /// Create an empty registry (for injection into tests or tools that
    /// need isolation from the process-wide one).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        GLOBAL.get_or_init(Registry::new)
    }

    /// Get or create an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Get or create a counter with labels.
    ///
    /// # Panics
    /// If `name`+`labels` is already registered as a different kind.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.get_or_insert(name, help, labels, || {
            Metric::Counter(Arc::new(Counter::new()))
        }) {
            Metric::Counter(c) => c,
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Get or create an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Get or create a gauge with labels.
    ///
    /// # Panics
    /// If `name`+`labels` is already registered as a different kind.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.get_or_insert(name, help, labels, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    /// Get or create an unlabelled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// Get or create a histogram with labels.
    ///
    /// # Panics
    /// If `name`+`labels` is already registered as a different kind.
    fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.get_or_insert(name, help, labels, || {
            Metric::Histogram(Arc::new(Histogram::new()))
        }) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name} already registered as {}", other.kind()),
        }
    }

    fn get_or_insert(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        // Labels are stored and compared in sorted order so the same
        // series registered with a different label order deduplicates to
        // one handle instead of silently splitting the series.
        let mut sorted: Vec<(&str, &str)> = labels.to_vec();
        sorted.sort_unstable();
        let matches = |e: &Entry| {
            e.name == name
                && e.labels.len() == sorted.len()
                && e.labels
                    .iter()
                    .zip(&sorted)
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
        };
        {
            // Poison recovery throughout: a panicking exporter thread must
            // not wedge registration on the tap path — entries are only
            // ever appended, so a poisoned guard still holds valid data.
            let entries = self.entries.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(e) = entries.iter().find(|e| matches(e)) {
                return e.metric.clone();
            }
        }
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        // Re-check: another thread may have registered between locks.
        if let Some(e) = entries.iter().find(|e| matches(e)) {
            return e.metric.clone();
        }
        let metric = make();
        entries.push(Entry {
            name: name.to_string(),
            labels: sorted
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            help: help.to_string(),
            metric: metric.clone(),
        });
        metric
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capture every registered metric, sorted by name then labels.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.read().unwrap_or_else(PoisonError::into_inner);
        let mut metrics: Vec<MetricSnapshot> = entries
            .iter()
            .map(|e| MetricSnapshot {
                name: e.name.clone(),
                labels: e.labels.clone(),
                help: e.help.clone(),
                value: match &e.metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        metrics.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.labels.cmp(&b.labels)));
        Snapshot { metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_handle() {
        let r = Registry::new();
        let a = r.counter("x_total", "x");
        let b = r.counter("x_total", "x");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn labels_distinguish_series() {
        let r = Registry::new();
        let a = r.counter_with("d_total", "d", &[("title", "fortnite")]);
        let b = r.counter_with("d_total", "d", &[("title", "dota_2")]);
        a.inc();
        b.add(5);
        assert_eq!(r.len(), 2);
        let snap = r.snapshot();
        assert_eq!(snap.counter("d_total"), Some(6));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("m", "m");
        r.gauge("m", "m");
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let r = Registry::new();
        r.gauge("b_depth", "depth").set(3);
        r.counter("a_total", "a").add(7);
        r.histogram("c_ns", "latency").record(100);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["a_total", "b_depth", "c_ns"]);
        assert_eq!(snap.counter("a_total"), Some(7));
        assert_eq!(snap.gauge("b_depth"), Some(3));
        assert_eq!(snap.histogram("c_ns").unwrap().count, 1);
    }

    #[test]
    fn duplicate_registration_returns_identical_handle() {
        // Not just equal values: the very same allocation, so increments
        // through either handle land on one series.
        let r = Registry::new();
        let a = r.counter("dup_total", "d");
        let b = r.counter("dup_total", "other help text is ignored");
        assert!(Arc::ptr_eq(&a, &b));
        let g1 = r.gauge("dup_depth", "d");
        let g2 = r.gauge("dup_depth", "d");
        assert!(Arc::ptr_eq(&g1, &g2));
        let h1 = r.histogram("dup_ns", "d");
        let h2 = r.histogram("dup_ns", "d");
        assert!(Arc::ptr_eq(&h1, &h2));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let r = Registry::new();
        let a = r.counter_with(
            "lbl_total",
            "l",
            &[("kind", "objective"), ("level", "good")],
        );
        let b = r.counter_with(
            "lbl_total",
            "l",
            &[("level", "good"), ("kind", "objective")],
        );
        assert!(Arc::ptr_eq(&a, &b), "reordered labels must deduplicate");
        a.inc();
        b.inc();
        assert_eq!(r.len(), 1);
        assert_eq!(r.snapshot().counter("lbl_total"), Some(2));
    }

    #[test]
    fn snapshot_order_is_independent_of_registration_order() {
        // Golden-diffing Prometheus scrapes only works if two processes
        // that register the same series in different orders render byte-
        // identical output.
        let forward = Registry::new();
        forward.counter("z_total", "z").add(1);
        forward
            .counter_with("m_total", "m", &[("shard", "1")])
            .add(2);
        forward
            .counter_with("m_total", "m", &[("shard", "0")])
            .add(3);
        forward.gauge("a_depth", "a").set(4);
        forward.histogram("h_us", "h").record(5);

        let reverse = Registry::new();
        reverse.histogram("h_us", "h").record(5);
        reverse.gauge("a_depth", "a").set(4);
        reverse
            .counter_with("m_total", "m", &[("shard", "0")])
            .add(3);
        reverse
            .counter_with("m_total", "m", &[("shard", "1")])
            .add(2);
        reverse.counter("z_total", "z").add(1);

        let fwd = forward.snapshot();
        let rev = reverse.snapshot();
        assert_eq!(fwd, rev);
        assert_eq!(
            crate::export::prometheus(&fwd),
            crate::export::prometheus(&rev)
        );
        // And label sets within one family come out sorted.
        let shards: Vec<&str> = fwd
            .metrics
            .iter()
            .filter(|m| m.name == "m_total")
            .map(|m| m.labels[0].1.as_str())
            .collect();
        assert_eq!(shards, ["0", "1"]);
    }

    #[test]
    fn repeated_snapshots_keep_a_stable_order() {
        let r = Registry::new();
        for i in 0..16 {
            r.counter_with("stable_total", "s", &[("shard", &i.to_string())])
                .inc();
        }
        let first: Vec<_> = r
            .snapshot()
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.labels.clone()))
            .collect();
        for _ in 0..4 {
            let again: Vec<_> = r
                .snapshot()
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.labels.clone()))
                .collect();
            assert_eq!(first, again);
        }
    }

    #[test]
    fn poisoned_lock_does_not_wedge_the_registry() {
        let r = Arc::new(Registry::new());
        r.counter("survives_total", "s").add(5);
        // Poison the RwLock by panicking while holding the write guard.
        let r2 = Arc::clone(&r);
        let _ = std::thread::spawn(move || {
            let _guard = r2.entries.write().unwrap();
            panic!("exporter thread dies mid-write");
        })
        .join();
        assert!(r.entries.is_poisoned());
        // Every access path still works on the (append-only) data.
        assert_eq!(r.len(), 1);
        let c = r.counter("survives_total", "s");
        c.inc();
        let fresh = r.counter("post_poison_total", "p");
        fresh.add(2);
        let snap = r.snapshot();
        assert_eq!(snap.counter("survives_total"), Some(6));
        assert_eq!(snap.counter("post_poison_total"), Some(2));
    }

    #[test]
    fn concurrent_registration_converges_to_one_series() {
        let r = Arc::new(Registry::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.counter("contended_total", "c").inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.len(), 1);
        assert_eq!(r.snapshot().counter("contended_total"), Some(8000));
    }
}
