//! The traced run (`--trace 1`): one budget line per layer, from outside.
//!
//! Every layer of the repository is measured by timing calls into its
//! public functions — `[s]` a staged single-thread call on the workload's
//! own records, `[l]` observed while the real threaded path runs, `[c]` an
//! exact count — under the benchmark's own span recorder. End-to-end
//! numbers never come from here: they are measured with tracing off.
//!
//! Which end-to-end metric each layer metric should move, and where (the
//! prediction elsewhere is *no change*):
//!
//! | layer metrics | moves | on |
//! |---|---|---|
//! | `ingest.merge.*` | `live_`/`serial_records_per_s` | merged-taps (a pass-through copy elsewhere) |
//! | `ingest.replay.*` | generator honesty: lag must stay ≪ `verdict_lateness_p50_ms` | paced-fleet |
//! | `ingest.queue.*`, `ingest.engine.*` | `live_records_per_s`; depth and sweep gap → `verdict_lateness_p50_ms` | steady-fleet, merged-taps; paced-fleet |
//! | `core.shard.*` | `live_records_per_s` | steady-fleet, launch-storm, merged-taps |
//! | `core.monitor.*` | `serial_`/`live_records_per_s`; `admit_finalize` | all tap feeds; launch-storm |
//! | `core.filter.*` | `serial_`/`live_records_per_s` | merged-taps |
//! | `core.expiry.*` | `serial_records_per_s` | launch-storm |
//! | `core.pipeline.packet_ns` | `serial_records_per_s` | steady-fleet |
//! | `core.title.*`, `features.launch.*`, `mlcore.title_forest.*` | throughput, `title_lateness_p50_ms` | launch-storm |
//! | `nettrace.rebin.*`, `core.pipeline.slot_ns`, `features.stage.*`, `mlcore.stage_forest.*`, `core.pattern.*`, `core.qoe.*` | `slots_per_s` | slot-series (< 3 % of any tap feed) |
//! | `obs.*`, `lifecycle.*` | `serial_`/`live_records_per_s` | launch-storm |
//! | `gamesim.*` | `setup_s` | all |
//! | `deploy.*` | whole-path diagnostics, reported not gated | all |
//! | `budget.*` | the layer terms over the end-to-end figure; out of 0.9–1.1 fails the run | serial sum: tap feeds; slot sum: slot-series |

use std::hint::black_box;

use crate::drives::{self, Observed, PACED_RATE};
use crate::feeds::{Input, Workload};
use crate::spans::{Span, Spans};
use crate::surface::{
    self, ModelBundle, Pacing, Packet, SerialOptions, Stage, TapRecord, VerdictKind, VolSample,
};
use crate::{probe, stats, Args, Outcome, Reported};

/// Measured passes of each staged call, after one discarded pass.
const STAGED_REPS: u32 = 3;

/// Back-to-back pairs behind every overhead share.
const PAIRS: u32 = 5;

/// Measured rounds behind each budget ratio, after one discarded round.
/// A round's ratio scatters by about 4 % on a shared 2-core machine; the
/// median of nine keeps a ratio near 0.95 clear of the 0.9 limit.
const ROUNDS: u32 = 9;

/// The load generator times one `push` in this many.
const PUSH_SAMPLE: u64 = 64;

/// Idle timeout of the expiry-stressing serial pass, µs.
const EXPIRY_IDLE_US: u64 = 5_000_000;

struct Ctx<'a> {
    bundle: &'a std::sync::Arc<ModelBundle>,
    input: &'a Input,
    spans: Spans,
    metrics: Vec<Reported>,
}

impl Ctx<'_> {
    /// Median nanoseconds of `f` over [`STAGED_REPS`] passes after one
    /// warm-up, each pass under a span named `name`; also hands back the
    /// last pass's result.
    fn staged<T>(&mut self, name: &'static str, mut f: impl FnMut() -> T) -> (f64, T) {
        black_box(f());
        let mut ns = Vec::new();
        let mut last = None;
        for rep in 1..=STAGED_REPS {
            let (out, took) = self.spans.time(name, None, rep, &mut f);
            ns.push(took as f64);
            last = Some(out);
        }
        (
            stats::median(&ns).expect("STAGED_REPS is positive"),
            last.expect("STAGED_REPS is positive"),
        )
    }

    /// How much longer `b` takes than `a`, %: the median over [`PAIRS`]
    /// back-to-back pairs of `b / a - 1`, so a slow phase of the machine
    /// hits both halves of a pair alike. Each pass runs under a span.
    fn overhead(
        &mut self,
        a: (&'static str, &mut dyn FnMut()),
        b: (&'static str, &mut dyn FnMut()),
    ) -> f64 {
        let mut ratios = Vec::new();
        for rep in 1..=PAIRS {
            let ((), a_ns) = self.spans.time(a.0, None, rep, &mut *a.1);
            let ((), b_ns) = self.spans.time(b.0, None, rep, &mut *b.1);
            ratios.push(b_ns as f64 / a_ns as f64 - 1.0);
        }
        100.0 * stats::median(&ratios).expect("PAIRS is positive")
    }

    fn put(&mut self, name: &'static str, value: f64, n: usize) {
        self.metrics.push(Reported::single(name, value, n));
    }

    /// One pass of `f` under a span named `name`: its result and its
    /// nanoseconds.
    fn timed<T>(&mut self, name: &'static str, rep: u32, f: impl FnOnce() -> T) -> (T, f64) {
        let (out, ns) = self.spans.time(name, None, rep, f);
        (out, ns as f64)
    }
}

/// Per-round values of a budget's metrics; each is reported as its median
/// over the measured rounds.
#[derive(Default)]
struct Rounds(Vec<(&'static str, Vec<f64>)>);

impl Rounds {
    /// Keeps the values of round `rep`; round 0 is the warm-up and dropped.
    fn push<const N: usize>(&mut self, rep: u32, values: [(&'static str, f64); N]) {
        if rep == 0 {
            return;
        }
        if self.0.is_empty() {
            self.0 = values.iter().map(|&(name, _)| (name, Vec::new())).collect();
        }
        for ((_, column), (_, value)) in self.0.iter_mut().zip(values) {
            column.push(value);
        }
    }

    fn report(self, ctx: &mut Ctx<'_>) {
        for (name, column) in self.0 {
            ctx.metrics.extend(Reported::median_of(name, &column));
        }
    }
}

/// Packets of every gaming flow in flow-relative time, from the offered
/// feed (the server side holds the lower, platform-signature port).
fn flow_packets(input: &Input) -> Vec<Vec<Packet>> {
    let mut flows: Vec<Vec<Packet>> = vec![Vec::new(); input.truth.len()];
    let mut first: Vec<Option<u64>> = vec![None; input.truth.len()];
    for &(ts, tuple, len) in &input.merged {
        if let Some(&i) = input.by_flow.get(&tuple.normalized()) {
            let start = *first[i].get_or_insert(ts);
            let dir = if tuple.src_port < tuple.dst_port {
                surface::Direction::Downstream
            } else {
                surface::Direction::Upstream
            };
            flows[i].push(Packet::new(ts.saturating_sub(start), dir, len));
        }
    }
    flows
}

/// The workload's own records with both ports moved off every platform
/// signature, so the monitor rejects each one.
fn rejected_records(input: &Input) -> Vec<TapRecord> {
    input
        .merged
        .iter()
        .map(|&(ts, mut tuple, len)| {
            tuple.src_port = 40_000 + tuple.src_port % 1_000;
            tuple.dst_port = 41_000 + tuple.dst_port % 1_000;
            (ts, tuple, len)
        })
        .collect()
}

/// The first offered record of every gaming flow.
fn first_records(input: &Input) -> Vec<TapRecord> {
    let mut seen = std::collections::HashSet::new();
    input
        .merged
        .iter()
        .filter(|r| input.by_flow.contains_key(&r.1.normalized()) && seen.insert(r.1.normalized()))
        .copied()
        .collect()
}

fn per(total_ns: f64, count: u64) -> f64 {
    total_ns / count.max(1) as f64
}

/// `[s]` metrics of the tap layers — merge, replay, queue, monitor, filter,
/// expiry, journal, registry, lifecycle — and the serial budget.
///
/// The budget's terms are each timed on their own, none derived from the
/// figure they are held to: `merge_sources`; the monitor's own work (a
/// monitor run over the gaming records with the floor analyzer, minus the
/// standalone pipeline run with it); the standalone pipeline on the same
/// packets; the reject path. Terms and target (one serial-drive rep) are
/// measured in [`ROUNDS`] back-to-back rounds after a discarded one, and the
/// ratio reported is the median of the per-round ratios, so a slow phase of
/// the machine hits both sides of a round alike.
fn staged_tap_layers(ctx: &mut Ctx<'_>, bench: &mut drives::Bench<'_>) {
    let (bundle, input) = (ctx.bundle, ctx.input);
    let records = input.records();
    let flows = input.truth.len() as u64;
    let serial = |merged: &[TapRecord], opts| surface::serial_monitor(bundle, merged, opts);

    let (replay_ns, _) = ctx.staged("ingest.replay", || surface::replay_noop(&input.merged));
    ctx.put(
        "ingest.replay.ns_per_rec",
        per(replay_ns, records),
        records as usize,
    );

    let (queue_ns, _) = ctx.staged("ingest.queue.roundtrip", || {
        surface::queue_roundtrip(&input.merged)
    });
    ctx.put(
        "ingest.queue.roundtrip_ns",
        per(queue_ns, records),
        records as usize,
    );

    let (monitor_ns, run) = ctx.staged("core.monitor", || {
        serial(&input.merged, SerialOptions::default())
    });
    ctx.put(
        "core.monitor.ns_per_rec",
        per(monitor_ns, records),
        records as usize,
    );
    ctx.put(
        "core.filter.ignored_share",
        100.0 * run.ignored as f64 / records as f64,
        records as usize,
    );
    ctx.put(
        "obs.journal.events_per_flow",
        run.journal_events as f64 / flows as f64,
        flows as usize,
    );
    ctx.put(
        "obs.journal.dropped",
        run.journal_dropped as f64,
        run.journal_events as usize,
    );
    ctx.put("obs.registry.snapshot_ms", run.snapshot_ns as f64 / 1e6, 1);

    let gaming: Vec<TapRecord> = input
        .merged
        .iter()
        .filter(|r| input.by_flow.contains_key(&r.1.normalized()))
        .copied()
        .collect();
    assert_eq!(
        gaming.len() as u64,
        run.ingested,
        "the monitor ingests exactly the generated gaming records"
    );
    let packets = flow_packets(input);
    let rejected = rejected_records(input);
    let floor = SerialOptions {
        floor: true,
        ..Default::default()
    };
    let ignored_share = run.ignored as f64 / records as f64;
    let mut rounds = Rounds::default();
    let mut late = 0;
    for rep in 0..=ROUNDS {
        bench.reps(drives::SERIAL, 1);
        let target_ns = 1e9 / bench.serial.per_s.last().expect("one rep just ran");
        let sources = input.sources.clone();
        let ((_, late_now), merge_ns) = ctx.timed("ingest.merge", rep, || surface::merge(sources));
        late = late_now;
        let (_, floor_monitor_ns) = ctx.timed("core.monitor.floor", rep, || serial(&gaming, floor));
        let (_, floor_pipeline_ns) = ctx.timed("core.pipeline.floor", rep, || {
            surface::pipeline_packets(bundle, &packets, true)
        });
        let (_, packet_ns) = ctx.timed("core.pipeline.packets", rep, || {
            surface::pipeline_packets(bundle, &packets, false)
        });
        let (rejected_run, reject_ns) = ctx.timed("core.filter.reject", rep, || {
            serial(&rejected, SerialOptions::default())
        });
        assert_eq!(
            rejected_run.ingested, 0,
            "a rewritten record still matched a platform port"
        );
        let own_ns = floor_monitor_ns - floor_pipeline_ns;
        let sum_ns = per(
            merge_ns + own_ns + packet_ns + ignored_share * reject_ns,
            records,
        );
        rounds.push(
            rep,
            [
                ("ingest.merge.ns_per_rec", per(merge_ns, records)),
                ("core.monitor.self_ns_per_rec", per(own_ns, run.ingested)),
                ("core.pipeline.packet_ns", per(packet_ns, run.ingested)),
                ("core.filter.reject_ns_per_rec", per(reject_ns, records)),
                ("budget.serial_staged_ns_per_rec", sum_ns),
                ("budget.serial_sum_ratio", sum_ns / target_ns),
            ],
        );
    }
    rounds.report(ctx);
    ctx.put(
        "ingest.merge.late_share",
        100.0 * late as f64 / records as f64,
        records as usize,
    );

    let firsts = first_records(input);
    let (admit_ns, _) = ctx.staged("core.monitor.admit_finalize", || {
        serial(&firsts, SerialOptions::default())
    });
    ctx.put(
        "core.monitor.admit_finalize_us_per_flow",
        per(admit_ns, flows) / 1e3,
        flows as usize,
    );

    let expiring = SerialOptions {
        idle_timeout: Some(EXPIRY_IDLE_US),
        ..Default::default()
    };
    let (_, expiry_run) = ctx.staged("core.expiry", || serial(&input.merged, expiring));
    ctx.put(
        "core.expiry.scanned_per_flow",
        expiry_run.expiry_scanned as f64 / flows as f64,
        flows as usize,
    );
    ctx.put(
        "core.expiry.finish_idle_us",
        expiry_run.finish_idle_ns as f64 / 1e3,
        1,
    );

    let quiet = SerialOptions {
        no_journal: true,
        ..Default::default()
    };
    let journal_overhead = ctx.overhead(
        ("obs.journal.off", &mut || {
            drop(serial(&input.merged, quiet))
        }),
        ("obs.journal.on", &mut || {
            drop(serial(&input.merged, SerialOptions::default()))
        }),
    );
    ctx.put(
        "obs.journal.overhead_share",
        journal_overhead,
        PAIRS as usize,
    );
    let events_per_flow = (run.journal_events / flows.max(1)).max(1);
    let (drain_ns, _) = ctx.staged("obs.journal.drain", || {
        surface::journal_drain_ns(flows, events_per_flow)
    });
    ctx.put(
        "obs.journal.drain_ns_per_event",
        per(drain_ns, flows * events_per_flow),
        (flows * events_per_flow) as usize,
    );

    let pinned = SerialOptions {
        live_model: true,
        ..Default::default()
    };
    let pin_overhead = ctx.overhead(
        ("lifecycle.fixed", &mut || {
            drop(serial(&input.merged, SerialOptions::default()))
        }),
        ("lifecycle.pinned", &mut || {
            drop(serial(&input.merged, pinned))
        }),
    );
    ctx.put("lifecycle.pin_overhead_share", pin_overhead, PAIRS as usize);
}

/// `[s]` metrics of the classification layers — title, launch features,
/// forests, stage features, pattern, QoE, the pipeline's own share of a
/// slot — and the slot budget.
///
/// As in the serial budget, every term is timed on its own: the four
/// children through their public functions, and the pipeline's own share as
/// a `push_slot` pass with the floor analyzer (QoE labels plus the
/// pipeline's bookkeeping, no features, forest or pattern) minus the QoE
/// term. They are held to one analyzer-drive rep per round.
fn staged_classifier_layers(ctx: &mut Ctx<'_>, bench: &mut drives::Bench<'_>) {
    let (bundle, input) = (ctx.bundle, ctx.input);
    let flows = input.slots.len() as u64;
    let windows: Vec<Vec<Packet>> = input.slots.iter().map(|s| s.launch.clone()).collect();
    let vols: Vec<&surface::VolSeries> = input.slots.iter().map(|s| &s.vol).collect();
    let series = surface::rebin_to_slots(bundle, &vols);
    let slots: u64 = series.iter().map(|s| s.len() as u64).sum();

    let (launch_ns, rows) =
        ctx.staged("features.launch", || surface::launch_rows(bundle, &windows));
    ctx.put(
        "features.launch.us_per_window",
        per(launch_ns, flows) / 1e3,
        flows as usize,
    );
    let (forest_ns, _) = ctx.staged("mlcore.title_forest", || {
        surface::title_forest(bundle, &rows)
    });
    ctx.put(
        "mlcore.title_forest.us_per_row",
        per(forest_ns, flows) / 1e3,
        flows as usize,
    );
    let (slot_ns, _) = ctx.staged("core.pipeline.slots", || {
        surface::pipeline_slots(bundle, &series, false)
    });
    ctx.put("core.pipeline.slot_ns", per(slot_ns, slots), slots as usize);

    // What each child is fed: the feature rows, and the classified stages
    // cut back into one sequence per session.
    let stage_rows = surface::stage_rows(bundle, &series);
    let classified = stage_rows.len() as u64;
    let stages = surface::stage_forest(bundle, &stage_rows);
    let seed = surface::seed_slots();
    let mut rest = stages.as_slice();
    let per_session: Vec<Vec<Stage>> = series
        .iter()
        .map(|s| {
            let (head, tail) = rest.split_at(s.len().saturating_sub(seed));
            rest = tail;
            head.to_vec()
        })
        .collect();
    let labelled: Vec<(Vec<VolSample>, Vec<Stage>)> = series
        .iter()
        .zip(&per_session)
        .map(|(samples, stages)| {
            let mut all = vec![Stage::Launch; samples.len() - stages.len()];
            all.extend(stages);
            (samples.clone(), all)
        })
        .collect();

    let mut rounds = Rounds::default();
    for rep in 0..=ROUNDS {
        bench.reps(drives::ANALYZER, 1);
        let target_ns = 1e9 / bench.analyzer.per_s.last().expect("one rep just ran");
        let (_, rebin_ns) = ctx.timed("nettrace.rebin", rep, || {
            surface::rebin_to_slots(bundle, &vols)
        });
        let (_, title_ns) = ctx.timed("core.title", rep, || {
            surface::title_classify(bundle, &windows)
        });
        let (_, feature_ns) = ctx.timed("features.stage", rep, || {
            surface::stage_rows(bundle, &series)
        });
        let (_, stage_ns) = ctx.timed("mlcore.stage_forest", rep, || {
            surface::stage_forest(bundle, &stage_rows)
        });
        let (_, pattern_ns) = ctx.timed("core.pattern", rep, || {
            surface::pattern_push(bundle, &per_session)
        });
        let (_, qoe_ns) = ctx.timed("core.qoe", rep, || {
            for (samples, stages) in &labelled {
                surface::qoe_labels(bundle, samples, stages);
            }
        });
        let (_, floor_ns) = ctx.timed("core.pipeline.floor_slots", rep, || {
            surface::pipeline_slots(bundle, &series, true)
        });
        let sum_ns = per(
            rebin_ns + title_ns + feature_ns + stage_ns + pattern_ns + floor_ns,
            slots,
        );
        rounds.push(
            rep,
            [
                ("nettrace.rebin.ns_per_slot", per(rebin_ns, slots)),
                ("core.title.us_per_flow", per(title_ns, flows) / 1e3),
                ("features.stage.ns_per_slot", per(feature_ns, classified)),
                ("mlcore.stage_forest.ns_per_row", per(stage_ns, classified)),
                ("core.pattern.ns_per_slot", per(pattern_ns, classified)),
                ("core.qoe.ns_per_slot", per(qoe_ns, slots)),
                ("core.pipeline.self_slot_ns", per(floor_ns - qoe_ns, slots)),
                ("budget.slot_sum_ratio", sum_ns / target_ns),
            ],
        );
    }
    rounds.report(ctx);
}

/// Adds the spans of one composed run under a new `name` span.
fn add_run_spans(
    spans: &mut Spans,
    name: &'static str,
    rep: u32,
    run: &surface::ComposedRun,
    pushes: &[(u64, u64)],
) {
    let root = spans.len();
    let span = |name, (start_ns, end_ns): (u64, u64), parent| Span {
        name,
        start_ns,
        end_ns,
        parent,
        rep,
    };
    spans.add(span(name, (run.merge_span.0, run.shutdown_span.1), None));
    spans.add(span("ingest.merge", run.merge_span, Some(root)));
    let replay = spans.len();
    spans.add(span("ingest.replay", run.replay_span, Some(root)));
    for &push in pushes {
        spans.add(span("ingest.queue.push", push, Some(replay)));
    }
    if let Some(sink) = &run.sink {
        for &(start, end) in &sink.batches {
            spans.add(span("core.shard.dispatch", (start, end), Some(root)));
        }
        spans.add(span("core.shard.drain", sink.finish, Some(root)));
    }
}

/// `[l]` metrics: what the router, queues and shards do while the real
/// threaded path runs closed loop, from a benchmark-owned sink around
/// `MonitorSink` and a load generator that times one push in 64.
/// Returns `(untraced records/s, peak MB)` of the plain live path.
fn live_layers(ctx: &mut Ctx<'_>, bench: &mut drives::Bench<'_>) -> (f64, f64) {
    let (bundle, input) = (ctx.bundle, ctx.input);
    let records = input.records();

    // Untraced reference: the plain call, with process CPU and allocator
    // counters read around it.
    let cpu = probe::cpu_seconds();
    let allocs = probe::alloc_snapshot();
    bench.reps(drives::LIVE, STAGED_REPS as usize);
    let plain = &bench.live;
    let passes = plain.per_s.len() as f64;
    let offered = records as f64 * passes;
    let spent = probe::alloc_snapshot();
    if let (Some(before), Some(after)) = (cpu, probe::cpu_seconds()) {
        ctx.put(
            "deploy.cpu_s_per_mrec",
            (after - before) / (offered / 1e6),
            passes as usize,
        );
    }
    ctx.put(
        "deploy.allocs_per_krec",
        (spent.allocs - allocs.allocs) as f64 / (offered / 1e3),
        passes as usize,
    );
    // The feed's clone and the merged copy are part of every pass.
    ctx.put(
        "deploy.alloc_mb_per_mrec",
        (spent.bytes - allocs.bytes) as f64 / 1e6 / (offered / 1e6),
        passes as usize,
    );
    let untraced = stats::median(&plain.per_s).expect("three live reps");

    // Traced against plain in back-to-back pairs, both on the same outer
    // stopwatch, feed clone included.
    let epoch = ctx.spans.epoch();
    let mut traced_runs = Vec::new();
    let mut depth = Vec::new();
    let trace_overhead = ctx.overhead(
        ("live.plain", &mut || {
            drop(surface::live_replay(bundle, input.sources.clone()))
        }),
        ("live.traced", &mut || {
            let mut pushes: Vec<(u64, u64)> = Vec::new();
            let mut released = 0u64;
            let sources = input.sources.clone();
            let run = surface::composed_replay(
                bundle,
                sources,
                Pacing::Unpaced,
                epoch,
                true,
                |tap, record| {
                    released += 1;
                    if released.is_multiple_of(PUSH_SAMPLE) {
                        let start = epoch.elapsed().as_nanos() as u64;
                        tap.push(record);
                        pushes.push((start, epoch.elapsed().as_nanos() as u64));
                        depth.push(tap.queue_depth() as f64);
                    } else {
                        tap.push(record);
                    }
                },
            );
            traced_runs.push((run, pushes));
        }),
    );
    ctx.put(
        "deploy.trace_overhead_share",
        trace_overhead,
        PAIRS as usize,
    );
    let mut push_ns = Vec::new();
    for (rep, (run, pushes)) in traced_runs.iter().enumerate() {
        drives::check_tap_run(
            &mut bench.tally,
            "live traced",
            input,
            &bench.oracle,
            &run.counts,
            &run.sessions.verdicts(),
        );
        push_ns.extend(pushes.iter().map(|&(a, b)| (b - a) as f64));
        add_run_spans(
            &mut ctx.spans,
            "live.traced.run",
            rep as u32 + 1,
            run,
            pushes,
        );
    }
    let (run, _) = traced_runs.last().expect("PAIRS is positive");
    let wall_ns = (run.shutdown_span.1 - run.merge_span.0) as f64;
    let sink = run.sink.as_ref().expect("the sink was timed");
    let batches = sink.batches.len() as u64;
    let dispatch_ns: u64 = sink.batches.iter().map(|&(a, b)| b - a).sum();
    let gaps: Vec<f64> = sink
        .batches
        .windows(2)
        .map(|w| w[1].0.saturating_sub(w[0].1) as f64)
        .collect();
    let loads = &run.shard_loads;
    let mean_load = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;

    ctx.put(
        "ingest.queue.push_ns",
        stats::median(&push_ns).unwrap_or(0.0),
        push_ns.len(),
    );
    ctx.put(
        "ingest.queue.blocked_share",
        100.0 * run.counts.blocked as f64 / records as f64,
        records as usize,
    );
    ctx.put(
        "ingest.queue.depth_p95",
        stats::percentile(&depth, 95.0).unwrap_or(0.0),
        depth.len(),
    );
    ctx.put("ingest.engine.batches", batches as f64, 1);
    ctx.put(
        "ingest.engine.batch_mean",
        records as f64 / batches.max(1) as f64,
        batches as usize,
    );
    ctx.put(
        "ingest.engine.gap_ns_per_rec",
        per(gaps.iter().sum(), records),
        gaps.len(),
    );
    ctx.put(
        "ingest.engine.sweep_gap_p50_us",
        stats::median(&gaps).unwrap_or(0.0) / 1e3,
        gaps.len(),
    );
    ctx.put(
        "core.shard.dispatch_ns_per_rec",
        per(dispatch_ns as f64, records),
        batches as usize,
    );
    ctx.put(
        "core.shard.skew",
        loads.iter().copied().max().unwrap_or(0) as f64 / mean_load.max(1.0),
        loads.len(),
    );
    ctx.put(
        "core.shard.worker_busy_share",
        100.0 * run.telemetry.worker_busy_ns as f64 / (wall_ns * surface::SHARDS as f64),
        1,
    );
    ctx.put(
        "core.shard.drain_ms",
        (sink.finish.1 - sink.finish.0) as f64 / 1e6,
        1,
    );
    (untraced, stats::median(&bench.live.peak_mb).unwrap_or(0.0))
}

/// `[l]` metrics of the open loop: one rep at the paced rate and one each
/// at twice and three times it, with the no-backlog check.
fn paced_layers(ctx: &mut Ctx<'_>, bench: &mut drives::Bench<'_>) {
    let (bundle, input) = (ctx.bundle, ctx.input);
    let expected = bench.expected_verdicts();
    let mut max_sustained = 0.0;
    for (rep, factor) in [(1u32, 1.0), (2, 2.0), (3, 3.0)] {
        let sources = input.sources.clone();
        let base = probe::reset_peak();
        let (run, observed, pace) =
            drives::paced_rep(bundle, input, sources, PACED_RATE * factor, true);
        let peak = probe::peak_above(base) as f64 / 1e6;
        drives::check_tap_run(
            &mut bench.tally,
            "paced traced",
            input,
            &bench.oracle,
            &run.counts,
            &run.sessions.verdicts(),
        );
        add_run_spans(&mut ctx.spans, "paced.traced", rep, &run, &[]);
        let (stage, title, excluded) = drives::lateness_ms(input, &run, pace, &observed, expected);
        if drives::sustained(&run, &observed) {
            max_sustained = factor;
        }
        let p50 = stats::median(&stage).unwrap_or(0.0);
        match rep {
            1 => {
                ctx.put(
                    "ingest.replay.gen_lag_p95_us",
                    run.telemetry.pacing_lag_p95_us,
                    1,
                );
                ctx.put("ingest.replay.max_lag_us", run.max_lag_us as f64, 1);
                ctx.put(
                    "deploy.lateness_p95_ms",
                    stats::percentile(&stage, 95.0).unwrap_or(0.0),
                    stage.len(),
                );
                ctx.put(
                    "deploy.lateness_p99_ms",
                    stats::percentile(&stage, 99.0).unwrap_or(0.0),
                    stage.len(),
                );
                ctx.put(
                    "deploy.title_lateness_p90_ms",
                    stats::percentile(&title, 90.0).unwrap_or(0.0),
                    title.len(),
                );
                ctx.put(
                    "deploy.slot_boundary_wait_p95_ms",
                    boundary_wait_p95_ms(input, &observed),
                    stage.len(),
                );
                ctx.put(
                    "deploy.paced_excluded_share",
                    100.0 * excluded as f64 / expected.max(1) as f64,
                    expected as usize,
                );
                ctx.put("deploy.peak_mb.paced", peak, 1);
                if let Some((p, v)) = stats::highest_supported_percentile(&stage) {
                    println!("   stage lateness: p{p} = {v:.4} ms is the highest percentile {} samples support", stage.len());
                }
            }
            2 => ctx.put("deploy.lateness_p50_ms.x2", p50, stage.len()),
            _ => ctx.put("deploy.lateness_p50_ms.x3", p50, stage.len()),
        }
    }
    ctx.put("deploy.max_sustained_x", max_sustained, 3);
}

/// p95 of the virtual gap between a slot boundary and the packet that
/// closes it, ms: slots close on packet arrival, a design property that
/// no speed-up changes.
fn boundary_wait_p95_ms(input: &Input, observed: &Observed) -> f64 {
    let waits: Vec<f64> = observed
        .events
        .iter()
        .filter(|e| e.2 == VerdictKind::Stage)
        .filter_map(|&(flow, ts, _, _)| {
            let trigger = input.triggers.get(&flow)?.trigger_ts(ts)?;
            Some(trigger.saturating_sub(ts) as f64 / 1e3)
        })
        .collect();
    stats::percentile(&waits, 95.0).unwrap_or(0.0)
}

/// The traced run of one workload.
pub fn run(workload: &'static Workload, args: &Args) -> Outcome {
    let scale = if args.quick { 8 } else { 1 };
    let crate::Setup {
        bundle,
        input,
        setup_s,
    } = crate::set_up(workload, args.seed, scale, 1);
    println!(
        "== {} seed {} (traced) :: {} records, {} sessions, checksum {:016x}, set up in {:.2} s",
        workload.name,
        args.seed,
        input.records(),
        input.truth.len(),
        input.checksum,
        setup_s[0]
    );
    let mut ctx = Ctx {
        bundle: &bundle,
        input: &input,
        spans: Spans::new(),
        metrics: Vec::new(),
    };
    ctx.put("gamesim.generate_s", input.generate_s, input.truth.len());
    ctx.put("gamesim.records", input.records() as f64, 1);

    let (mut bench, _) = ctx.spans.time("oracle.serial", None, 0, || {
        drives::Bench::new(&bundle, &input)
    });
    staged_tap_layers(&mut ctx, &mut bench);
    staged_classifier_layers(&mut ctx, &mut bench);
    let serial_rps = stats::median(&bench.serial.per_s).expect("the budget ran serial reps");

    let (live_rps, live_peak) = live_layers(&mut ctx, &mut bench);
    ctx.put(
        "deploy.live_over_serial",
        live_rps / serial_rps,
        STAGED_REPS as usize,
    );
    ctx.put("deploy.peak_mb.live", live_peak, STAGED_REPS as usize);
    ctx.metrics.extend(Reported::median_of(
        "deploy.peak_mb.serial",
        &bench.serial.peak_mb,
    ));
    ctx.metrics.extend(Reported::median_of(
        "deploy.peak_mb.analyzer",
        &bench.analyzer.peak_mb,
    ));
    paced_layers(&mut ctx, &mut bench);
    let mut tally = std::mem::take(&mut bench.tally);

    // The budget must sum where it is meant to: the serial table on the
    // tap feeds, the slot table where sessions are long enough that what
    // `analyze` pays once per session does not show.
    let budget = if workload.primary_drive() == drives::ANALYZER {
        "budget.slot_sum_ratio"
    } else {
        "budget.serial_sum_ratio"
    };
    let ratio = ctx
        .metrics
        .iter()
        .find(|m| m.name == budget)
        .map_or(f64::NAN, |m| m.value);
    println!("   {budget} = {ratio:.3}: the layer terms over the end-to-end figure");
    tally.attempted += 1;
    if !(0.9..=1.1).contains(&ratio) {
        tally.fail(
            1,
            format!("{budget} = {ratio:.3}: the layer terms do not sum to within 10 % of the end-to-end figure"),
        );
    }

    let path = args
        .trace_out
        .join(format!("{}.trace.jsonl", workload.name));
    match ctx.spans.write_jsonl(&path) {
        Ok(()) => println!("   {} spans written to {}", ctx.spans.len(), path.display()),
        Err(e) => {
            tally.attempted += 1;
            tally.fail(1, format!("writing {}: {e}", path.display()));
        }
    }

    // Report in dictionary order; a metric that could not be measured
    // here (no `/proc`) is left out, never reported as zero.
    let mut metrics = Vec::new();
    for spec in &crate::manifest::PER_LAYER {
        match ctx.metrics.iter().find(|m| m.name == spec.name) {
            Some(m) => metrics.push(m.clone()),
            None => println!("   {} omitted: not measurable on this machine", spec.name),
        }
    }
    Outcome {
        workload: workload.name,
        tally,
        metrics,
        records: input.records(),
        checksum: input.checksum,
    }
}
