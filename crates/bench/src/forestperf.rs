//! Shared forest-inference and monitor performance measurement.
//!
//! Both `bench_forest` (the `BENCH_forest.json` regenerator) and
//! `bench_gate` (the CI perf-regression gate) measure through this module,
//! so the committed snapshot and the gate's fresh numbers are always
//! produced by the same methodology: same trained forest, same probe set,
//! best-of-N wall-clock reps.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cgc_core::bundle::ModelBundle;
use cgc_core::monitor::{MonitorConfig, TapMonitor};
use cgc_core::Obs;
use cgc_deploy::train::{train_bundle, TrainConfig};
use cgc_lifecycle::LiveModel;
use cgc_obs::{DriftSink, TraceSink};
use mlcore::{argmax, Classifier, Dataset, RandomForest, RandomForestConfig};
use nettrace::packet::FiveTuple;
use nettrace::units::Micros;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Stage-classifier scale: 4 engineered features, 4 activity classes.
const N_FEATURES: usize = 4;
const N_CLASSES: usize = 4;
const TRAIN_ROWS: usize = 1_200;
const PROBES: usize = 4_096;

const MONITOR_FLOWS: usize = 10_000;
const PACKETS_PER_FLOW: usize = 12;

/// Per-prediction latency of the inference paths under comparison.
#[derive(Serialize, Deserialize)]
pub struct InferencePerf {
    /// Trees in the measured forest.
    pub n_trees: usize,
    /// Depth cap the forest was trained with.
    pub max_depth: usize,
    /// Feature-vector width.
    pub n_features: usize,
    /// Class count.
    pub n_classes: usize,
    /// Total nodes in the flat node table.
    pub n_nodes: usize,
    /// Probe rows per measurement rep.
    pub probes: usize,
    /// Seed hot path: allocating pointer-chasing `RandomForest::predict`.
    pub pointer_single_ns: f64,
    /// Pointer traversal with a caller-owned buffer (no allocation).
    pub pointer_into_ns: f64,
    /// Flat node-array traversal, one row at a time.
    pub flat_single_ns: f64,
    /// Flat batch traversal (row groups in lockstep), amortized per row.
    pub flat_batch_ns_per_row: f64,
    /// `pointer_single_ns / flat_single_ns` — the per-slot latency win.
    pub speedup_flat_single: f64,
    /// `pointer_single_ns / flat_batch_ns_per_row` — the whole-slot win.
    pub speedup_flat_batch: f64,
}

/// Serial `TapMonitor` end-to-end throughput.
#[derive(Serialize, Deserialize)]
pub struct MonitorPerf {
    /// Distinct flows in the feed.
    pub flows: usize,
    /// Total tap records ingested per rep.
    pub records: usize,
    /// Best-rep ingest throughput.
    pub records_per_sec: f64,
}

/// The shape of `BENCH_forest.json`.
#[derive(Serialize, Deserialize)]
pub struct ForestSnapshot {
    /// Inference-path latencies and speedups.
    pub inference: InferencePerf,
    /// Serial monitor throughput with flat inference threaded through.
    pub monitor: MonitorPerf,
}

/// Separable-but-noisy synthetic rows: each class is a blob in feature
/// space, like the stage feature vectors the pipeline feeds.
fn synth_dataset(rows: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Vec::with_capacity(rows);
    let mut y = Vec::with_capacity(rows);
    for i in 0..rows {
        let class = i % N_CLASSES;
        let row: Vec<f64> = (0..N_FEATURES)
            .map(|f| {
                let center = (class * N_FEATURES + f) as f64 * 3.0;
                center + rng.gen_range(-2.0..2.0)
            })
            .collect();
        x.push(row);
        y.push(class);
    }
    Dataset::new(x, y)
}

fn probe_rows(seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..PROBES)
        .map(|_| (0..N_FEATURES).map(|_| rng.gen_range(-5.0..50.0)).collect())
        .collect()
}

/// Best-of-`reps` wall time for `body`, returned as ns/prediction.
fn best_ns_per_row(rows: usize, reps: usize, mut body: impl FnMut() -> usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let sink = body();
        let ns = start.elapsed().as_nanos() as f64 / rows as f64;
        black_box(sink);
        if ns < best {
            best = ns;
        }
    }
    best
}

/// Trains the stage-scale forest and measures every inference path,
/// best-of-`reps` each. Asserts flat/pointer equivalence on the probe set
/// before timing anything — a wrong kernel must never be snapshotted as a
/// speedup.
pub fn measure_inference(reps: usize) -> InferencePerf {
    let cfg = RandomForestConfig {
        n_trees: 60,
        max_depth: 10,
        seed: 9,
        ..Default::default()
    };
    let data = synth_dataset(TRAIN_ROWS, 17);
    let forest = RandomForest::fit(&data, &cfg);
    let flat = forest.to_flat();
    let probes = probe_rows(23);
    let nc = flat.n_classes();

    for x in probes.iter().take(256) {
        assert_eq!(
            forest.predict_proba(x),
            flat.predict_proba(x),
            "bench forest diverged between layouts"
        );
    }

    let pointer_single_ns = best_ns_per_row(probes.len(), reps, || {
        probes.iter().map(|x| forest.predict(x)).sum()
    });
    let pointer_into_ns = best_ns_per_row(probes.len(), reps, || {
        let mut buf = vec![0.0f64; nc];
        probes
            .iter()
            .map(|x| {
                forest.predict_proba_into(x, &mut buf);
                argmax(&buf)
            })
            .sum()
    });
    let flat_single_ns = best_ns_per_row(probes.len(), reps, || {
        let mut buf = vec![0.0f64; nc];
        probes
            .iter()
            .map(|x| {
                flat.predict_proba_into(x, &mut buf);
                argmax(&buf)
            })
            .sum()
    });
    let flat_batch_ns_per_row = best_ns_per_row(probes.len(), reps, || {
        let mut out = vec![0.0f64; probes.len() * nc];
        flat.predict_proba_batch_into(&probes, &mut out);
        out.chunks_exact(nc).map(argmax).sum()
    });

    InferencePerf {
        n_trees: forest.n_trees(),
        max_depth: cfg.max_depth,
        n_features: forest.n_features(),
        n_classes: nc,
        n_nodes: flat.n_nodes(),
        probes: probes.len(),
        pointer_single_ns,
        pointer_into_ns,
        flat_single_ns,
        flat_batch_ns_per_row,
        speedup_flat_single: pointer_single_ns / flat_single_ns,
        speedup_flat_batch: pointer_single_ns / flat_batch_ns_per_row,
    }
}

/// The serial-monitor feed from `benches/monitor.rs`: round-robin packets
/// over distinct gaming five-tuples so flows stay interleaved.
fn monitor_feed() -> Vec<(Micros, FiveTuple, u32)> {
    let tuples: Vec<FiveTuple> = (0..MONITOR_FLOWS)
        .map(|i| {
            FiveTuple::udp_v4(
                [10, 0, (i >> 8) as u8, (i & 0xff) as u8],
                49003,
                [100, 64, (i >> 8) as u8, (i & 0xff) as u8],
                50_000 + (i % 10_000) as u16,
            )
        })
        .collect();
    let mut feed = Vec::with_capacity(MONITOR_FLOWS * PACKETS_PER_FLOW);
    for tick in 0..PACKETS_PER_FLOW {
        for (i, t) in tuples.iter().enumerate() {
            let ts = tick as u64 * 1_000_000 + i as u64 * 7;
            let wire = if tick % 5 == 4 { t.reversed() } else { *t };
            feed.push((ts, wire, if tick % 5 == 4 { 120 } else { 1200 }));
        }
    }
    feed
}

/// Trains a quick bundle and replays the interleaved 10 k-flow feed
/// through a serial [`TapMonitor`], best-of-`reps`.
pub fn measure_monitor(reps: usize) -> MonitorPerf {
    measure_monitor_with_sinks(reps, TraceSink::disabled(), DriftSink::disabled())
}

/// [`measure_monitor`] with span tracing attached at `1/sample` head
/// sampling. `sample = u64::MAX` keeps the sink enabled but samples every
/// real flow out — the cost of the tracing *branches* alone, which the
/// perf gate holds against the untraced number.
pub fn measure_monitor_traced(reps: usize, sample: u64) -> MonitorPerf {
    let registry = cgc_obs::Registry::new();
    let (sink, _collector) = cgc_obs::TraceCollector::new(
        cgc_obs::TraceConfig::default().with_sample(sample),
        &registry,
    );
    measure_monitor_with_sinks(reps, sink, DriftSink::disabled())
}

/// [`measure_monitor`] with a live drift sink attached, so every title
/// and stage inference also pushes a score observation into the drift
/// ring. The perf gate holds this against the sink-absent number: the
/// observatory must ride along for near-free.
pub fn measure_monitor_drifted(reps: usize) -> MonitorPerf {
    let registry = cgc_obs::Registry::new();
    let (sink, _engine) = cgc_obs::DriftEngine::new(cgc_obs::DriftConfig::default(), &registry);
    measure_monitor_with_sinks(reps, TraceSink::disabled(), sink)
}

/// [`measure_monitor`] with the monitor served from a [`LiveModel`] hot
/// slot instead of a fixed bundle reference — the fleet configuration
/// once a `LifecyclePilot` is attached. Every flow admission pays one
/// extra `Acquire` pointer load to pin its version; the perf gate holds
/// this against the fixed-bundle number (ratio floor 0.90).
pub fn measure_monitor_live(reps: usize) -> MonitorPerf {
    let live = LiveModel::new(train_bundle(&TrainConfig::quick()));
    let feed = monitor_feed();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut monitor = TapMonitor::with_obs(&live, MonitorConfig::default(), Obs::global());
        let start = Instant::now();
        for (ts, tuple, len) in &feed {
            monitor.ingest(*ts, tuple, *len);
        }
        let flows = monitor.finish_all().len();
        let secs = start.elapsed().as_secs_f64();
        black_box(flows);
        if secs < best {
            best = secs;
        }
    }
    MonitorPerf {
        flows: MONITOR_FLOWS,
        records: feed.len(),
        records_per_sec: feed.len() as f64 / best,
    }
}

/// Records per latency-sampled ingest chunk in the swap-under-load
/// measurement: big enough that one chunk spans a few milliseconds of
/// ingest, so a stalled swap would dominate its latency rather than
/// drown in scheduler noise.
const SWAP_CHUNK: usize = 4_096;

/// Tolerated multiple of the quiet p99 chunk latency while swaps are in
/// flight. A publisher that stalled readers (a lock on the pin path, a
/// torn-state retry loop) would blow through this by orders of
/// magnitude; scheduler jitter from the one extra thread does not.
pub const SWAP_LATENCY_HEADROOM: f64 = 8.0;

/// Swap-under-load latency profile: per-chunk ingest wall times with the
/// hot slot quiet vs. with a publisher republishing mid-ingest.
#[derive(Serialize, Deserialize)]
pub struct SwapPerf {
    /// Tap records per latency-sampled chunk.
    pub chunk_records: usize,
    /// Latency samples per pass.
    pub chunks: usize,
    /// Versions published while the swapped pass was ingesting.
    pub swaps: usize,
    /// p99 chunk latency with no publisher (ns).
    pub quiet_p99_ns: f64,
    /// p99 chunk latency while swaps land (ns).
    pub swapped_p99_ns: f64,
    /// Worst chunk latency while swaps land (ns).
    pub swapped_max_ns: f64,
}

impl SwapPerf {
    /// The gate predicate: no ingest chunk during the swap storm may
    /// exceed the quiet p99 by more than [`SWAP_LATENCY_HEADROOM`].
    pub fn within_headroom(&self) -> bool {
        self.swapped_max_ns <= self.quiet_p99_ns * SWAP_LATENCY_HEADROOM
    }
}

/// One full feed replay against `live`, returning per-chunk ingest wall
/// times in nanoseconds.
fn chunk_latencies(live: &LiveModel<ModelBundle>, feed: &[(Micros, FiveTuple, u32)]) -> Vec<f64> {
    let mut monitor = TapMonitor::with_obs(live, MonitorConfig::default(), Obs::global());
    let mut latencies = Vec::with_capacity(feed.len() / SWAP_CHUNK + 1);
    for chunk in feed.chunks(SWAP_CHUNK) {
        let start = Instant::now();
        for (ts, tuple, len) in chunk {
            monitor.ingest(*ts, tuple, *len);
        }
        latencies.push(start.elapsed().as_nanos() as f64);
    }
    black_box(monitor.finish_all().len());
    latencies
}

fn p99(latencies: &[f64]) -> f64 {
    let mut sorted = latencies.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted[((sorted.len() - 1) * 99) / 100]
}

/// Measures hot-swap impact on ingest tail latency: one quiet pass over
/// the 10 k-flow feed, then `reps` passes with a publisher thread
/// republishing a cloned bundle every millisecond, keeping the reported
/// swapped pass as the best-of-`reps` by worst chunk (same best-of
/// methodology as the throughput numbers — the gate asks whether a swap
/// *must* stall ingest, not whether the scheduler *can*).
pub fn measure_swap_under_load(reps: usize) -> SwapPerf {
    let bundle = train_bundle(&TrainConfig::quick());
    let live = Arc::new(LiveModel::new(bundle.clone()));
    let feed = monitor_feed();

    let mut quiet_p99_ns = f64::INFINITY;
    for _ in 0..reps {
        quiet_p99_ns = quiet_p99_ns.min(p99(&chunk_latencies(&live, &feed)));
    }

    let mut best: Option<(Vec<f64>, usize)> = None;
    for _ in 0..reps {
        let stop = Arc::new(AtomicBool::new(false));
        let publisher = {
            let live = Arc::clone(&live);
            let stop = Arc::clone(&stop);
            let bundle = bundle.clone();
            std::thread::spawn(move || {
                let mut published = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    live.publish(bundle.clone());
                    published += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                published
            })
        };
        let latencies = chunk_latencies(&live, &feed);
        stop.store(true, Ordering::Relaxed);
        let swaps = publisher.join().expect("publisher thread panicked");
        let worst = latencies.iter().fold(0.0f64, |a, &b| a.max(b));
        let current_worst = best
            .as_ref()
            .map(|(l, _)| l.iter().fold(0.0f64, |a, &b| a.max(b)));
        if current_worst.is_none_or(|w| worst < w) {
            best = Some((latencies, swaps));
        }
    }
    let (latencies, swaps) = best.expect("at least one swapped rep");
    SwapPerf {
        chunk_records: SWAP_CHUNK,
        chunks: latencies.len(),
        swaps,
        quiet_p99_ns,
        swapped_p99_ns: p99(&latencies),
        swapped_max_ns: latencies.iter().fold(0.0f64, |a, &b| a.max(b)),
    }
}

fn measure_monitor_with_sinks(reps: usize, trace: TraceSink, drift: DriftSink) -> MonitorPerf {
    let bundle = Arc::new(train_bundle(&TrainConfig::quick()));
    let feed = monitor_feed();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let obs = Obs {
            trace: trace.clone(),
            drift: drift.clone(),
            ..Obs::clone(&Obs::global())
        };
        let mut monitor = TapMonitor::with_obs(&bundle, MonitorConfig::default(), obs);
        let start = Instant::now();
        for (ts, tuple, len) in &feed {
            monitor.ingest(*ts, tuple, *len);
        }
        let flows = monitor.finish_all().len();
        let secs = start.elapsed().as_secs_f64();
        black_box(flows);
        if secs < best {
            best = secs;
        }
    }
    MonitorPerf {
        flows: MONITOR_FLOWS,
        records: feed.len(),
        records_per_sec: feed.len() as f64 / best,
    }
}
