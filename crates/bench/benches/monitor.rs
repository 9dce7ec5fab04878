//! Tap front-end throughput: serial `TapMonitor` vs `ShardedTapMonitor`
//! at 1 and N worker shards over the same interleaved feed of 10 000+
//! flows. The sharded rows should beat the single shard on multi-core
//! machines — the point of the sharded front end.
//!
//! The feed is synthetic (round-robin packets over distinct gaming
//! five-tuples) so the benchmark measures the monitor path — hashing,
//! batching, flow table, expiry wheel, analyzer pushes — not the traffic
//! generator.

use std::sync::Arc;

use cgc_core::monitor::{MonitorConfig, TapMonitor};
use cgc_core::shard::{ShardedMonitorConfig, ShardedTapMonitor};
use cgc_core::Obs;
use cgc_deploy::train::{train_bundle, TrainConfig};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nettrace::packet::FiveTuple;
use nettrace::units::Micros;

const FLOWS: usize = 10_000;
const PACKETS_PER_FLOW: usize = 12;

/// Round-robin feed: every flow gets a packet each "tick", so flows stay
/// interleaved the whole time like on a real tap.
fn synth_feed() -> Vec<(Micros, FiveTuple, u32)> {
    let tuples: Vec<FiveTuple> = (0..FLOWS)
        .map(|i| {
            FiveTuple::udp_v4(
                [10, 0, (i >> 8) as u8, (i & 0xff) as u8],
                49003, // GeForce Now signature port => accepted as gaming
                [100, 64, (i >> 8) as u8, (i & 0xff) as u8],
                50_000 + (i % 10_000) as u16,
            )
        })
        .collect();
    let mut feed = Vec::with_capacity(FLOWS * PACKETS_PER_FLOW);
    for tick in 0..PACKETS_PER_FLOW {
        for (i, t) in tuples.iter().enumerate() {
            let ts = tick as u64 * 1_000_000 + i as u64 * 7; // ~1 pps per flow
            let wire = if tick % 5 == 4 { t.reversed() } else { *t };
            feed.push((ts, wire, if tick % 5 == 4 { 120 } else { 1200 }));
        }
    }
    feed
}

fn bench_monitor(c: &mut Criterion) {
    let bundle = Arc::new(train_bundle(&TrainConfig::quick()));
    let feed = synth_feed();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    let mut g = c.benchmark_group("tap_monitor");
    g.sample_size(10);
    g.throughput(Throughput::Elements(feed.len() as u64));

    g.bench_function("serial_10k_flows", |b| {
        b.iter(|| {
            let mut monitor =
                TapMonitor::with_obs(&bundle, MonitorConfig::default(), Obs::global());
            for (ts, tuple, len) in &feed {
                monitor.ingest(*ts, tuple, *len);
            }
            monitor.finish_all().len()
        })
    });

    // N = all cores (capped at 8), overridable with MONITOR_BENCH_SHARDS;
    // on a single-core box the multi-shard row is skipped rather than
    // re-measuring W=1.
    let max_shards: usize = std::env::var("MONITOR_BENCH_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| cores.min(8));
    let mut shard_counts = vec![1usize];
    if max_shards > 1 {
        shard_counts.push(max_shards);
    }
    for shards in shard_counts {
        g.bench_function(&format!("sharded_w{shards}_10k_flows"), |b| {
            b.iter(|| {
                let mut monitor = ShardedTapMonitor::with_obs(
                    Arc::clone(&bundle),
                    ShardedMonitorConfig::with_shards(shards),
                    cgc_obs::Registry::global(),
                    Obs::global(),
                );
                for (ts, tuple, len) in &feed {
                    monitor.ingest(*ts, tuple, *len);
                }
                monitor.finish_all().0.len()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_monitor);
criterion_main!(benches);
