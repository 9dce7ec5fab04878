//! Merge + adaptive-batching performance snapshot — the regenerator for
//! `BENCH_ingest_merge.json`.
//!
//! **A model, superseded by `BENCHMARK.json`.** The router below is a
//! single-threaded *replica* of the engine's sweep, written when the
//! repository had no end-to-end benchmark: queue pushes, drains and the
//! per-shard partition all run on one thread with nothing consuming behind
//! them, and it still pops record by record and allocates its partitions
//! per batch, which the engine's router no longer does (it claims runs
//! with `BoundedQueue::pop_into` and partitions into buffers the sharded
//! monitor keeps). A model of the hot path is not a measurement of it:
//! what the tap path sustains, and what a record costs at each hop, is
//! measured on the real threaded engine by `bench_e2e` (`BENCHMARK.json`,
//! `crates/bench/src/bin/bench_e2e/README.md`). This binary and its
//! snapshot stay as the source of `bench_gate`'s two self-normalized
//! tripwires — the k-way merge scaling ratio and the committed
//! adaptive-vs-fixed p99 — and for comparing batch *policies* against each
//! other on equal footing; quote no absolute figure from them.
//!
//! Three measurements:
//!
//! 1. **K-way merge throughput** — records/s through
//!    [`cgc_ingest::KWayMerge`] (drained record by record, nothing
//!    materialised: `cgc_bench::mergeperf`) for a 256 Ki-record feed
//!    split 1, 2, 4 and 8 ways (1-way is the pass-through baseline).
//! 2. **Hand-off tail latency under a bursty schedule** — a burst lands
//!    in the ingest queues all at once and the router drains it into the
//!    partitioned per-shard dispatch that `MonitorSink` performs
//!    (`ShardedTapMonitor::ingest_batch`): every record's latency is the
//!    time from burst arrival to the completion of the dispatch that
//!    delivered it. Reported as p50/p90/p99/max per batch policy.
//! 3. **Steady-schedule throughput** — the same drain path fed in
//!    shallow matched-rate chunks, where the adaptive policy sits at its
//!    small-batch end; adaptive must not regress against any fixed size.
//!
//! The drain harness replicates the engine's router sweep (depth-sampled
//! batch sizing, depth gauge, batch-size histogram, partition + one
//! queue push per shard) **single-threaded**: it measures the CPU path a
//! dedicated-core router executes, deterministically. The threaded
//! engine is exercised by `benches/ingest.rs` and the e2e tests; on a
//! small CI box a threaded latency distribution measures the scheduler,
//! not the policy.
//!
//! ```text
//! cargo run -p cgc-bench --release --bin bench_ingest_merge
//! ```
//!
//! Writes `BENCH_ingest_merge.json` at the repository root (override the
//! output path with the first CLI argument).

use std::time::Instant;

use cgc_bench::mergeperf::{merge_feed, merge_records_per_sec};
use cgc_core::shard::TapRecord;
use cgc_ingest::{BackpressurePolicy, BatchPolicy, BoundedQueue};
use cgc_obs::Registry;
use serde::Serialize;

#[derive(Serialize)]
struct MergeThroughput {
    ways: usize,
    records: usize,
    records_per_sec: f64,
}

fn policy_name(policy: BatchPolicy) -> String {
    match policy {
        BatchPolicy::Fixed(n) => format!("fixed_{n}"),
        BatchPolicy::Adaptive { min, max } => format!("adaptive_{min}_{max}"),
    }
}

/// The policies under comparison. `fixed_32` is the matched baseline:
/// the adaptive default's `min` is 32, so a fixed policy must use 32 to
/// deliver the same trickle-rate hand-off latency — the bursty schedule
/// then shows what depth-tracking buys on top. `fixed_1024` is the old
/// router default, `fixed_8192` the throughput-tuned end.
fn policies() -> [BatchPolicy; 4] {
    [
        BatchPolicy::Fixed(32),
        BatchPolicy::Fixed(1_024),
        BatchPolicy::Fixed(8_192),
        BatchPolicy::default(),
    ]
}

/// Single-threaded replica of one router drain: sweeps `queues` with the
/// engine's depth-sampled batch sizing and hands each batch to the
/// partitioned per-shard dispatch (`ingest_batch`'s cost profile: flush
/// check, partition by shard hash, one lock-free queue push per
/// non-empty shard). Returns `(dispatch_instant_ns, record_count)` per
/// dispatch, timed from `start`.
struct DrainHarness {
    queues: Vec<BoundedQueue<TapRecord>>,
    dispatch: Vec<BoundedQueue<Vec<TapRecord>>>,
    shards: usize,
    buf: Vec<TapRecord>,
    depth_gauges: Vec<std::sync::Arc<cgc_obs::Gauge>>,
    shard_gauges: Vec<std::sync::Arc<cgc_obs::Gauge>>,
    batch_hist: std::sync::Arc<cgc_obs::Histogram>,
}

impl DrainHarness {
    fn new(queues: usize, shards: usize, registry: &Registry) -> Self {
        DrainHarness {
            queues: (0..queues)
                .map(|_| BoundedQueue::with_capacity(1 << 17))
                .collect(),
            dispatch: (0..shards)
                .map(|_| BoundedQueue::with_capacity(1 << 13))
                .collect(),
            shards,
            buf: Vec::with_capacity(1 << 13),
            depth_gauges: (0..queues)
                .map(|i| {
                    registry.gauge_with("bench_queue_depth", "probe", &[("q", &i.to_string())])
                })
                .collect(),
            shard_gauges: (0..shards)
                .map(|i| {
                    registry.gauge_with("bench_shard_depth", "probe", &[("s", &i.to_string())])
                })
                .collect(),
            batch_hist: registry.histogram("bench_batch_size", "probe"),
        }
    }

    fn push(&self, record: TapRecord) {
        let q = record.1.shard(self.queues.len());
        self.queues[q].push(record, BackpressurePolicy::Block);
    }

    /// One router sweep; returns records dispatched.
    fn sweep(&mut self, policy: BatchPolicy, start: Instant, log: &mut Vec<(u64, usize)>) -> usize {
        let mut handed = 0;
        for qi in 0..self.queues.len() {
            let target = policy.size_for(self.queues[qi].len());
            self.buf.clear();
            while self.buf.len() < target {
                match self.queues[qi].try_pop() {
                    Some(r) => self.buf.push(r),
                    None => break,
                }
            }
            self.depth_gauges[qi].set(self.queues[qi].len() as i64);
            if self.buf.is_empty() {
                continue;
            }
            self.batch_hist.record(self.buf.len() as u64);
            // MonitorSink's partitioned dispatch, cost for cost:
            // partition by shard hash, then one push per shard.
            let mut parts: Vec<Vec<TapRecord>> = (0..self.shards)
                .map(|_| Vec::with_capacity(self.buf.len() / self.shards + 16))
                .collect();
            for &(ts, tuple, len) in &self.buf {
                parts[tuple.shard(self.shards)].push((ts, tuple, len));
            }
            for (shard, part) in parts.into_iter().enumerate() {
                if !part.is_empty() {
                    // Matches `ingest_batch`: depth gauge bump, then the
                    // per-shard send.
                    self.shard_gauges[shard].inc();
                    self.dispatch[shard].push(part, BackpressurePolicy::Block);
                }
            }
            handed += self.buf.len();
            log.push((start.elapsed().as_nanos() as u64, self.buf.len()));
        }
        handed
    }

    /// Empties the dispatch queues between runs (the "workers").
    fn drain_dispatch(&self) -> usize {
        let mut n = 0;
        for q in &self.dispatch {
            while let Some(part) = q.try_pop() {
                n += part.len();
            }
        }
        n
    }
}

#[derive(Serialize, Clone)]
struct LatencyProfile {
    policy: String,
    records: usize,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    max_us: f64,
}

fn percentile(sorted: &[u64], q: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx] as f64 / 1_000.0
}

/// Bursty schedule: `burst` records land in the queues at once; the
/// router drains them dry. Each record's hand-off latency is the elapsed
/// time from burst arrival to the completion of the dispatch that
/// delivered it. Best-of-`reps` (lowest p99) to shed scheduler noise.
fn bursty_latency(policy: BatchPolicy, burst: usize, reps: usize) -> LatencyProfile {
    let feed = merge_feed(burst);
    let registry = Registry::new();
    let mut harness = DrainHarness::new(2, 4, &registry);
    let mut best: Option<Vec<u64>> = None;
    for _ in 0..reps {
        for r in &feed {
            harness.push(*r);
        }
        let start = Instant::now();
        let mut log: Vec<(u64, usize)> = Vec::with_capacity(burst / 16);
        let mut total = 0;
        while total < burst {
            total += harness.sweep(policy, start, &mut log);
        }
        assert_eq!(harness.drain_dispatch(), burst, "no record lost");
        let mut lat: Vec<u64> = Vec::with_capacity(burst);
        for (t, n) in log {
            lat.extend(std::iter::repeat_n(t, n));
        }
        lat.sort_unstable();
        let better = match &best {
            None => true,
            Some(b) => percentile(&lat, 0.99) < percentile(b, 0.99),
        };
        if better {
            best = Some(lat);
        }
    }
    let lat = best.expect("at least one rep");
    LatencyProfile {
        policy: policy_name(policy),
        records: lat.len(),
        p50_us: percentile(&lat, 0.50),
        p90_us: percentile(&lat, 0.90),
        p99_us: percentile(&lat, 0.99),
        max_us: percentile(&lat, 1.0),
    }
}

#[derive(Serialize)]
struct SteadyThroughput {
    policy: String,
    records: usize,
    records_per_sec: f64,
}

/// Steady schedule: records arrive in shallow matched-rate chunks (the
/// queue never builds a deep backlog), so the adaptive policy operates
/// at its small-batch end. Throughput must not regress vs any fixed size.
fn steady_throughput(policy: BatchPolicy, n: usize, reps: usize) -> SteadyThroughput {
    const CHUNK: usize = 512;
    let feed = merge_feed(n);
    let registry = Registry::new();
    let mut harness = DrainHarness::new(2, 4, &registry);
    let mut best = f64::MIN;
    for _ in 0..reps {
        let start = Instant::now();
        let mut log: Vec<(u64, usize)> = Vec::new();
        let mut pushed = 0;
        let mut handed = 0;
        let mut delivered = 0;
        while handed < n {
            if pushed < n {
                let next = (pushed + CHUNK).min(n);
                for r in &feed[pushed..next] {
                    harness.push(*r);
                }
                pushed = next;
            }
            // Matched rate: the router catches up to each chunk before
            // the next one arrives, so the queue stays shallow and the
            // adaptive policy operates at its small-batch end.
            loop {
                let got = harness.sweep(policy, start, &mut log);
                handed += got;
                log.clear();
                if got == 0 {
                    break;
                }
            }
            // The shard workers keep pace on the steady schedule.
            delivered += harness.drain_dispatch();
        }
        let secs = start.elapsed().as_secs_f64();
        delivered += harness.drain_dispatch();
        assert_eq!(delivered, n);
        best = best.max(n as f64 / secs);
    }
    SteadyThroughput {
        policy: policy_name(policy),
        records: n,
        records_per_sec: best,
    }
}

#[derive(Serialize)]
struct Snapshot {
    merge_throughput: Vec<MergeThroughput>,
    bursty_schedule: BurstySchedule,
    bursty_latency: Vec<LatencyProfile>,
    adaptive_p99_improvement_pct_vs_fixed: f64,
    steady_throughput: Vec<SteadyThroughput>,
}

#[derive(Serialize)]
struct BurstySchedule {
    burst_size: usize,
    queues: usize,
    shards: usize,
    backpressure: String,
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_ingest_merge.json".into());

    // 1. K-way merge throughput.
    let feed = merge_feed(262_144);
    const WAYS: [usize; 4] = [1, 2, 4, 8];
    let merge_tp: Vec<MergeThroughput> = WAYS
        .iter()
        .zip(merge_records_per_sec(&feed, &WAYS, 15))
        .map(|(&ways, records_per_sec)| {
            eprintln!("merge {ways}-way: {:.1}M records/s", records_per_sec / 1e6);
            MergeThroughput {
                ways,
                records: feed.len(),
                records_per_sec,
            }
        })
        .collect();

    // 2. Bursty hand-off tail latency, adaptive vs fixed drain_batch.
    const BURST: usize = 65_536;
    let mut bursty = Vec::new();
    for policy in policies() {
        let profile = bursty_latency(policy, BURST, 7);
        eprintln!(
            "bursty {:>18}: p50 {:>8.1} µs  p90 {:>8.1} µs  p99 {:>8.1} µs  max {:>9.1} µs",
            profile.policy, profile.p50_us, profile.p90_us, profile.p99_us, profile.max_us
        );
        bursty.push(profile);
    }
    let fixed_p99 = bursty[0].p99_us;
    let adaptive_p99 = bursty.last().unwrap().p99_us;
    let improvement = (1.0 - adaptive_p99 / fixed_p99) * 100.0;
    eprintln!(
        "adaptive p99 improvement vs {}: {improvement:.1}%",
        bursty[0].policy
    );

    // 3. Steady throughput: adaptive must not regress.
    let mut steady = Vec::new();
    for policy in policies() {
        let s = steady_throughput(policy, 1 << 20, 5);
        eprintln!(
            "steady {:>18}: {:.1}M records/s",
            s.policy,
            s.records_per_sec / 1e6
        );
        steady.push(s);
    }

    let snapshot = Snapshot {
        merge_throughput: merge_tp,
        bursty_schedule: BurstySchedule {
            burst_size: BURST,
            queues: 2,
            shards: 4,
            backpressure: "block".into(),
        },
        bursty_latency: bursty,
        adaptive_p99_improvement_pct_vs_fixed: improvement,
        steady_throughput: steady,
    };
    let json = serde_json::to_string_pretty(&snapshot).expect("serialize snapshot");
    std::fs::write(&out, json + "\n").expect("write snapshot");
    eprintln!("wrote {out}");
}
