//! CI perf-regression gate.
//!
//! Re-measures the hot paths covered by the committed benchmark
//! snapshots and fails (exit 1) when a fresh measurement regresses more
//! than the tolerance against the committed numbers:
//!
//! * **`BENCH_forest.json`** — the flat-vs-pointer inference speedups
//!   (`speedup_flat_single`, `speedup_flat_batch`). Speedups are
//!   self-normalized (both layouts measured in the same process on the
//!   same machine), so they gate cleanly across machines of different
//!   absolute speed. The committed snapshot must also keep clearing the
//!   5× per-slot acceptance floor.
//! * **`BENCH_ingest_merge.json`** — the k-way merge scaling ratio
//!   (4-way vs 1-way records/s), again self-normalized, plus the static
//!   invariant that the committed adaptive batching policy does not lose
//!   to the fixed baseline on bursty p99.
//! * **Monitor tracing overhead** — serial monitor throughput with span
//!   tracing disabled and with tracing attached but sampled out, both
//!   held against `BENCH_forest.json`'s committed monitor number, and
//!   their self-normalized ratio: the observability layer must stay free
//!   when it is off.
//! * **Monitor drift-observation overhead** — the same serial monitor
//!   with a live drift sink attached (every inference pushes one score
//!   observation into the lock-free drift ring), self-normalized against
//!   the sink-absent run: the quality observatory must ride along within
//!   tolerance.
//! * **Live-slot indirection cost** — the same serial monitor served
//!   from a `LiveModel` hot-swap slot instead of a fixed bundle,
//!   self-normalized against the fixed-bundle run with a hard 0.90
//!   floor: pinning a model version at admission must stay near-free.
//! * **Swap-under-load tail latency** — ingest chunk latencies while a
//!   publisher hot-swaps the bundle every millisecond; no chunk may
//!   exceed a fixed headroom over the quiet run's p99, proving swaps
//!   never stall the pipeline.
//!
//! Absolute throughput numbers (records/s, raw ns) are machine-dependent
//! and deliberately **not** gated — a faster or slower CI box would make
//! them meaningless. Ratios survive the box change.
//!
//! ```text
//! cargo run -p cgc-bench --release --bin bench_gate \
//!     [BENCH_forest.json] [BENCH_ingest_merge.json]
//! ```
//!
//! `PERF_GATE_TOLERANCE` overrides the allowed fractional regression
//! (default `0.15` = 15 %).

use cgc_bench::forestperf::{
    measure_inference, measure_monitor, measure_monitor_drifted, measure_monitor_live,
    measure_monitor_traced, measure_swap_under_load, ForestSnapshot, SWAP_LATENCY_HEADROOM,
};
use cgc_bench::mergeperf::{merge_feed, merge_records_per_sec};
use serde::Deserialize;

/// Reps for the gate's fresh measurement: a notch above the snapshot
/// regenerator's, because a flaky gate is worse than a slow one.
const REPS: usize = 15;

/// Merge-feed size for the gate re-measurement: the snapshot's. At a few
/// tens of nanoseconds a record the ratio moves with how much of the feed
/// the caches hold, so the two must measure the same feed.
const MERGE_RECORDS: usize = 262_144;

#[derive(Deserialize)]
struct MergeRow {
    ways: usize,
    records_per_sec: f64,
}

#[derive(Deserialize)]
struct IngestSnapshot {
    merge_throughput: Vec<MergeRow>,
    adaptive_p99_improvement_pct_vs_fixed: f64,
}

struct Gate {
    tolerance: f64,
    failures: Vec<String>,
}

impl Gate {
    /// `current` must not sit more than `tolerance` below `committed`.
    fn check(&mut self, what: &str, current: f64, committed: f64) {
        let floor = committed * (1.0 - self.tolerance);
        let verdict = if current >= floor { "ok" } else { "FAIL" };
        eprintln!(
            "  {verdict:>4}  {what}: current {current:.3} vs committed {committed:.3} (floor {floor:.3})"
        );
        if current < floor {
            self.failures
                .push(format!("{what}: {current:.3} < floor {floor:.3}"));
        }
    }

    /// A static invariant on the committed snapshot itself.
    fn require(&mut self, what: &str, ok: bool) {
        eprintln!("  {:>4}  {what}", if ok { "ok" } else { "FAIL" });
        if !ok {
            self.failures.push(what.to_string());
        }
    }
}

fn committed_ratio(snapshot: &IngestSnapshot, ways: usize) -> f64 {
    let rps = |w: usize| {
        snapshot
            .merge_throughput
            .iter()
            .find(|r| r.ways == w)
            .unwrap_or_else(|| panic!("committed snapshot has no {w}-way merge row"))
            .records_per_sec
    };
    rps(ways) / rps(1)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let forest_path = args.next().unwrap_or_else(|| "BENCH_forest.json".into());
    let ingest_path = args
        .next()
        .unwrap_or_else(|| "BENCH_ingest_merge.json".into());
    let tolerance: f64 = std::env::var("PERF_GATE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.15);
    let mut gate = Gate {
        tolerance,
        failures: Vec::new(),
    };
    eprintln!("perf gate: tolerance {:.0}%", tolerance * 100.0);

    // --- Forest inference -------------------------------------------------
    let committed: ForestSnapshot = serde_json::from_str(
        &std::fs::read_to_string(&forest_path)
            .unwrap_or_else(|e| panic!("read {forest_path}: {e}")),
    )
    .expect("parse committed forest snapshot");
    eprintln!("forest inference (fresh measurement, best of {REPS}):");
    let fresh = measure_inference(REPS);
    gate.check(
        "flat single-row speedup",
        fresh.speedup_flat_single,
        committed.inference.speedup_flat_single,
    );
    gate.check(
        "flat batch speedup",
        fresh.speedup_flat_batch,
        committed.inference.speedup_flat_batch,
    );
    gate.require(
        "committed snapshot clears the 5x per-slot inference floor",
        committed
            .inference
            .speedup_flat_single
            .max(committed.inference.speedup_flat_batch)
            >= 5.0,
    );

    // --- Monitor throughput under tracing ----------------------------------
    // Three serial-monitor measurements in this process: tracing disabled
    // (the committed configuration), tracing attached but every flow
    // sampled out (the cost of the branches alone), and their ratio.
    // The tracing-cost checks are self-normalized; the disabled path is
    // additionally held against the committed absolute number so a hot-path
    // regression that slips past the inference gates still trips here.
    const MONITOR_REPS: usize = 5;
    eprintln!("monitor throughput under tracing (fresh measurement, best of {MONITOR_REPS}):");
    let untraced = measure_monitor(MONITOR_REPS);
    let sampled_out = measure_monitor_traced(MONITOR_REPS, u64::MAX);
    gate.check(
        "monitor records/s, tracing disabled, vs committed",
        untraced.records_per_sec,
        committed.monitor.records_per_sec,
    );
    gate.check(
        "monitor records/s, tracing sampled out, vs committed",
        sampled_out.records_per_sec,
        committed.monitor.records_per_sec,
    );
    gate.check(
        "monitor sampled-out/disabled throughput ratio",
        sampled_out.records_per_sec / untraced.records_per_sec,
        1.0,
    );

    // --- Monitor throughput under drift observation ------------------------
    // The quality observatory's hot-path cost: a live drift sink makes
    // every title/stage inference push one score observation into a
    // lock-free ring. Self-normalized against the sink-absent run above —
    // the observatory must ride along within tolerance.
    eprintln!(
        "monitor throughput under drift observation (fresh measurement, best of {MONITOR_REPS}):"
    );
    let drifted = measure_monitor_drifted(MONITOR_REPS);
    gate.check(
        "monitor drift-sink installed/absent throughput ratio",
        drifted.records_per_sec / untraced.records_per_sec,
        1.0,
    );

    // --- Monitor throughput under live-slot indirection --------------------
    // The hot-swap slot's read-path cost: every flow admission pins its
    // model version with one Acquire pointer load instead of chasing a
    // plain reference. Self-normalized against the fixed-bundle run, with
    // a hard 0.90 floor — if the indirection ever costs more than 10 % of
    // monitor throughput, the zero-stall swap story is broken.
    eprintln!(
        "monitor throughput under live-slot indirection (fresh measurement, best of {MONITOR_REPS}):"
    );
    let live = measure_monitor_live(MONITOR_REPS);
    let live_ratio = live.records_per_sec / untraced.records_per_sec;
    gate.check(
        "monitor live-slot/fixed-bundle throughput ratio",
        live_ratio,
        1.0,
    );
    gate.require(
        &format!("live-slot throughput ratio {live_ratio:.3} clears the 0.90 hot-swap floor"),
        live_ratio >= 0.90,
    );

    // --- Swap-under-load tail latency --------------------------------------
    // Ingest chunk latencies while a publisher republishes the bundle
    // every millisecond. A swap must never stall ingest: the worst chunk
    // during the swap storm has to stay within a fixed headroom of the
    // quiet run's p99.
    eprintln!("swap-under-load tail latency (fresh measurement, best of 3):");
    let swap = measure_swap_under_load(3);
    eprintln!(
        "        {} swaps landed; quiet p99 {:.0} ns, swapped p99 {:.0} ns, swapped max {:.0} ns",
        swap.swaps, swap.quiet_p99_ns, swap.swapped_p99_ns, swap.swapped_max_ns
    );
    gate.require(
        "swap storm landed at least one hot-swap mid-ingest",
        swap.swaps > 0,
    );
    gate.require(
        &format!(
            "no ingest chunk during hot-swaps exceeds {SWAP_LATENCY_HEADROOM:.0}x the quiet p99 floor"
        ),
        swap.within_headroom(),
    );

    // --- Ingest merge ------------------------------------------------------
    let ingest: IngestSnapshot = serde_json::from_str(
        &std::fs::read_to_string(&ingest_path)
            .unwrap_or_else(|e| panic!("read {ingest_path}: {e}")),
    )
    .expect("parse committed ingest snapshot");
    eprintln!("ingest merge scaling (fresh measurement, best of {REPS}):");
    let feed = merge_feed(MERGE_RECORDS);
    let fresh = merge_records_per_sec(&feed, &[1, 4], REPS);
    gate.check(
        "merge 4-way/1-way throughput ratio",
        fresh[1] / fresh[0],
        committed_ratio(&ingest, 4),
    );
    gate.require(
        "committed adaptive batching beats fixed baseline on bursty p99",
        ingest.adaptive_p99_improvement_pct_vs_fixed > 0.0,
    );

    if gate.failures.is_empty() {
        eprintln!("perf gate: green");
    } else {
        eprintln!("perf gate: {} regression(s):", gate.failures.len());
        for f in &gate.failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
