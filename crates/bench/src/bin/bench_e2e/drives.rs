//! The four drives behind the end-to-end metrics.
//!
//! Every workload runs all four on its own input, each for its share of
//! `--seconds`; a metric always comes from the same drive, so it means the
//! same thing on every workload:
//!
//! * **live** — closed loop through `run_tap_feed_replay`: merge, queues,
//!   router, shards, drain, final verdicts → `live_records_per_s`.
//! * **serial** — the same job on one thread, `merge_sources` →
//!   `TapMonitor` → `finish_all` → `serial_records_per_s`. Also the
//!   oracle every live and paced run is compared with.
//! * **paced** — open loop on the wall clock at [`PACED_RATE`] through the
//!   composed wiring → `verdict_lateness_p50_ms`, `title_lateness_p50_ms`.
//! * **analyzer** — `SessionAnalyzer` per session on title-window packets
//!   plus volumetric slots, no ingest, shard or monitor → `slots_per_s`.
//!
//! One process, one load-generator thread; the system under test keeps its
//! own threads. Every rep's clone of the feed is made before its timer
//! starts, reps of the four drives are interleaved, and every timed
//! quantity is a median over measured reps after one warm-up rep of each
//! closed drive, whose timing is discarded and whose tally is kept.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use crate::feeds::Input;
use crate::probe;
use crate::surface::{
    self, ComposedRun, FiveTuple, ModelBundle, Pacing, SerialOptions, TapCounts, Verdict,
    VerdictKind,
};

/// Offered load of the paced drive, records per second: about a quarter of
/// the closed-loop capacity probed on the 2-core sandbox (≈3 M rec/s).
pub const PACED_RATE: f64 = 750_000.0;

/// Seconds of back-to-back closed-loop reps before anything is measured.
const SPIN_UP_SECS: f64 = 2.0;

/// The load generator polls the journal every this many releases.
const POLL_EVERY: u64 = 16;

/// Index of each drive in `Workload::shares`.
pub const LIVE: usize = 0;
pub const SERIAL: usize = 1;
pub const PACED: usize = 2;
pub const ANALYZER: usize = 3;

/// Operations attempted and failed, and why.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts `n` failed operations, keeping the first few reasons.
    pub fn fail(&mut self, n: u64, why: String) {
        if n > 0 {
            self.failed += n;
            if self.notes.len() < 16 {
                self.notes.push(why);
            }
        }
    }
}

/// Serial-oracle digest of every session, by normalized tuple.
pub type Oracle = HashMap<FiveTuple, u64>;

pub fn oracle_of(verdicts: &[Verdict]) -> Oracle {
    verdicts.iter().map(|v| (v.flow, v.digest)).collect()
}

/// Counts one tap-path run into `tally`: records offered plus sessions
/// expected were attempted; records not delivered and sessions differing
/// from the oracle failed.
pub fn check_tap_run(
    tally: &mut Tally,
    drive: &str,
    input: &Input,
    oracle: &Oracle,
    counts: &TapCounts,
    verdicts: &[Verdict],
) {
    let offered = input.records();
    tally.attempted += offered + oracle.len() as u64;
    let undelivered = counts.dropped
        + counts.rejected_closed
        + offered.saturating_sub(counts.ingested + counts.ignored);
    tally.fail(
        undelivered,
        format!(
            "{drive}: {undelivered} of {offered} records undelivered (dropped {}, rejected {}, ingested {}, ignored {})",
            counts.dropped, counts.rejected_closed, counts.ingested, counts.ignored
        ),
    );
    if counts.enqueued != offered || counts.handed_off != offered {
        tally.fail(
            1,
            format!(
                "{drive}: enqueued {} / handed_off {} differ from offered {offered}",
                counts.enqueued, counts.handed_off
            ),
        );
    }
    let matching = verdicts
        .iter()
        .filter(|v| oracle.get(&v.flow) == Some(&v.digest))
        .count();
    let differing = oracle.len().max(verdicts.len()) - matching;
    tally.fail(
        differing as u64,
        format!(
            "{drive}: {differing} of {} sessions differ from the serial oracle",
            oracle.len()
        ),
    );
}

/// Correct and scored title and stage verdicts of one pass over an input.
#[derive(Debug, Clone, Copy, Default)]
pub struct Score {
    pub title_correct: u64,
    pub title_total: u64,
    pub stage_correct: u64,
    pub stage_total: u64,
}

impl Score {
    fn add(&mut self, truth: &crate::feeds::Truth, v: &Verdict) {
        if let Some(title) = truth.title {
            self.title_total += 1;
            self.title_correct += u64::from(v.title == Some(title));
        }
        // The first slots seed the feature extractor and are labelled
        // Launch without a look; only slots the stage forest saw count.
        for (slot, &stage) in v.stages.iter().enumerate().skip(surface::seed_slots()) {
            if let Some(expected) =
                truth.stage_at_slot(v.started_at.max(truth.start), slot, v.slot_width)
            {
                self.stage_total += 1;
                self.stage_correct += u64::from(stage == expected);
            }
        }
    }

    /// Known-title sessions whose title verdict equals the truth, %.
    pub fn title_accuracy(&self) -> f64 {
        100.0 * self.title_correct as f64 / self.title_total.max(1) as f64
    }

    /// Slots classified by the stage forest whose verdict equals the truth
    /// at the slot's midpoint, %.
    pub fn stage_accuracy(&self) -> f64 {
        100.0 * self.stage_correct as f64 / self.stage_total.max(1) as f64
    }
}

/// Scores tap-path verdicts against the truth of their flows.
pub fn score_tap(input: &Input, verdicts: &[Verdict]) -> Score {
    let mut score = Score::default();
    for v in verdicts {
        if let Some(&i) = input.by_flow.get(&v.flow) {
            score.add(&input.truth[i], v);
        }
    }
    score
}

/// Peak live heap a closure adds above the bytes live when it starts, MB.
fn peak_mb<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let base = probe::reset_peak();
    let out = f();
    (out, probe::peak_above(base) as f64 / 1e6)
}

/// Per-rep results of a throughput drive.
#[derive(Debug, Default)]
pub struct Throughput {
    /// Units per wall second of each measured rep.
    pub per_s: Vec<f64>,
    /// Peak heap above the pre-rep baseline of each measured rep, MB.
    pub peak_mb: Vec<f64>,
}

/// One pass of the serial drive: `merge_sources`, then the serial monitor.
/// Returns the run, its wall seconds and its peak heap in MB.
pub fn serial_pass(bundle: &Arc<ModelBundle>, input: &Input) -> (surface::SerialRun, f64, f64) {
    let sources = input.sources.clone();
    let t = Instant::now();
    let (run, peak) = peak_mb(|| {
        let (merged, _late) = surface::merge(sources);
        surface::serial_monitor(bundle, &merged, SerialOptions::default())
    });
    (run, t.elapsed().as_secs_f64(), peak)
}

/// One workload's drives and everything they have measured so far.
pub struct Bench<'a> {
    bundle: &'a Arc<ModelBundle>,
    input: &'a Input,
    /// Serial-oracle digests every tap-path run is compared with.
    pub oracle: Oracle,
    /// Verdicts of the oracle pass, for scoring.
    pub reference: surface::SerialRun,
    pub tally: Tally,
    pub live: Throughput,
    pub serial: Throughput,
    pub analyzer: Throughput,
    pub paced: Paced,
    /// Score and per-session digests of the first analyzer pass.
    pub analyzer_score: Score,
    analyzer_digests: Vec<u64>,
}

impl<'a> Bench<'a> {
    /// Takes the oracle pass and the warm-up reps of the closed drives. The
    /// paced drive has none: the composition self-check has
    /// already run its wiring, and an open-loop rep costs whole seconds.
    pub fn new(bundle: &'a Arc<ModelBundle>, input: &'a Input) -> Self {
        let (reference, _, _) = serial_pass(bundle, input);
        let mut bench = Bench {
            bundle,
            input,
            oracle: oracle_of(&reference.sessions.verdicts()),
            reference,
            tally: Tally::default(),
            live: Throughput::default(),
            serial: Throughput::default(),
            analyzer: Throughput::default(),
            paced: Paced::default(),
            analyzer_score: Score::default(),
            analyzer_digests: Vec::new(),
        };
        // Warm-up reps: their timings are discarded, their tally is kept.
        // The closed loop is kept running for a while: a shared 2-core
        // machine that has seen mostly one busy thread for a minute (an
        // idle gap, set-up, the analyzer drive) runs its next threaded
        // work with about 30 % less throughput and half the hand-off
        // latency, and stays that way through a run whose threaded reps
        // are short; a second or two of sustained threaded load ends it.
        let spin_up = Instant::now();
        while spin_up.elapsed().as_secs_f64() < SPIN_UP_SECS {
            bench.rep(LIVE);
        }
        bench.rep(ANALYZER);
        bench.live = Throughput::default();
        bench.analyzer = Throughput::default();
        bench
    }

    /// Stage and title verdict events the oracle's journal holds.
    pub fn expected_verdicts(&self) -> u64 {
        self.reference.stage_events + self.reference.title_events
    }

    /// Spends `seconds` on measured reps, always giving the next rep to
    /// the drive furthest behind its share. Interleaving the drives this
    /// way spreads every drive's reps over the whole run, so a slow phase
    /// of the machine costs each median a few samples, not all of them.
    pub fn run(&mut self, shares: [f64; 4], seconds: f64) {
        let mut used = [0.0f64; 4];
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let drive = (0..4)
                .filter(|&d| shares[d] > 0.0)
                .min_by(|&a, &b| (used[a] / shares[a]).total_cmp(&(used[b] / shares[b])))
                .expect("a drive has a share");
            let t = Instant::now();
            self.rep(drive);
            used[drive] += t.elapsed().as_secs_f64();
        }
    }

    /// `n` measured reps of one drive.
    pub fn reps(&mut self, drive: usize, n: usize) {
        for _ in 0..n {
            self.rep(drive);
        }
    }

    fn rep(&mut self, drive: usize) {
        match drive {
            LIVE => self.live_rep(),
            SERIAL => self.serial_rep(),
            PACED => self.paced_rep(),
            _ => self.analyzer_rep(),
        }
    }

    fn live_rep(&mut self) {
        let sources = self.input.sources.clone();
        let t = Instant::now();
        let (run, peak) = peak_mb(|| surface::live_replay(self.bundle, sources));
        let wall = t.elapsed().as_secs_f64();
        self.live.per_s.push(self.input.records() as f64 / wall);
        self.live.peak_mb.push(peak);
        check_tap_run(
            &mut self.tally,
            "live",
            self.input,
            &self.oracle,
            &run.counts,
            &run.sessions.verdicts(),
        );
    }

    fn serial_rep(&mut self) {
        let (run, wall, peak) = serial_pass(self.bundle, self.input);
        self.serial.per_s.push(self.input.records() as f64 / wall);
        self.serial.peak_mb.push(peak);
        // The oracle is a serial pass itself: repeating it checks that the
        // path is deterministic.
        let counts = TapCounts {
            enqueued: self.input.records(),
            handed_off: self.input.records(),
            ingested: run.ingested,
            ignored: run.ignored,
            ..Default::default()
        };
        check_tap_run(
            &mut self.tally,
            "serial",
            self.input,
            &self.oracle,
            &counts,
            &run.sessions.verdicts(),
        );
    }

    fn analyzer_rep(&mut self) {
        let (bundle, input) = (self.bundle, self.input);
        let t = Instant::now();
        let (reports, peak) = peak_mb(|| {
            input
                .slots
                .iter()
                .map(|s| surface::analyze_session(bundle, &s.launch, &s.vol))
                .collect::<Vec<_>>()
        });
        let wall = t.elapsed().as_secs_f64();
        let verdicts: Vec<Verdict> = reports.iter().map(|r| r.verdict()).collect();
        self.analyzer.per_s.push(input.slot_count() as f64 / wall);
        self.analyzer.peak_mb.push(peak);
        let digests: Vec<u64> = verdicts.iter().map(|v| v.digest).collect();
        if self.analyzer_digests.is_empty() {
            for (truth, v) in input.truth.iter().zip(&verdicts) {
                self.analyzer_score.add(truth, v);
            }
            self.analyzer_digests = digests.clone();
        }
        self.tally.attempted += input.slot_count() + verdicts.len() as u64;
        let classified: u64 = verdicts.iter().map(|v| v.stages.len() as u64).sum();
        self.tally.fail(
            input.slot_count().abs_diff(classified),
            format!(
                "analyzer: classified {classified} of {} slots",
                input.slot_count()
            ),
        );
        let differing = self
            .analyzer_digests
            .iter()
            .zip(&digests)
            .filter(|(a, b)| a != b)
            .count();
        self.tally.fail(
            differing as u64,
            format!("analyzer: {differing} sessions differ between reps"),
        );
    }

    fn paced_rep(&mut self) {
        let expected = self.expected_verdicts();
        let sources = self.input.sources.clone();
        let ((run, observed, pace), peak) =
            peak_mb(|| paced_rep(self.bundle, self.input, sources, PACED_RATE, false));
        check_tap_run(
            &mut self.tally,
            "paced",
            self.input,
            &self.oracle,
            &run.counts,
            &run.sessions.verdicts(),
        );
        self.tally.attempted += expected;
        let out = &mut self.paced;
        out.reps += 1;
        if !sustained(&run, &observed) {
            return;
        }
        let (stage, title, excluded) = lateness_ms(self.input, &run, pace, &observed, expected);
        out.sustained += 1;
        out.excluded += excluded;
        out.unobserved += observed.unobserved;
        out.stage_ms.push(stage);
        out.title_ms.push(title);
        out.peak_mb.push(peak);
        out.lag_p95_us.push(run.telemetry.pacing_lag_p95_us);
    }
}

/// What the paced drive measured.
#[derive(Debug, Default)]
pub struct Paced {
    /// Stage-verdict lateness samples of each measured rep, ms.
    pub stage_ms: Vec<Vec<f64>>,
    /// Title-verdict lateness samples of each measured rep, ms.
    pub title_ms: Vec<Vec<f64>>,
    /// Verdicts with no trigger record after them (flushed at shutdown) or
    /// observed only after the replay ended: excluded, counted here.
    pub excluded: u64,
    /// Verdicts that fell out of the journal's bounded tail unobserved.
    pub unobserved: u64,
    pub peak_mb: Vec<f64>,
    /// p95 lag of the generator behind its own schedule, µs, per rep.
    pub lag_p95_us: Vec<f64>,
    /// Reps that passed the no-backlog check, of `reps` run. Only they
    /// contribute samples: on a shared machine a descheduled generator
    /// thread fills the queues on catching up, and that rep measured the
    /// machine. A run in which no rep sustained the rate fails.
    pub sustained: usize,
    pub reps: usize,
}

/// Verdict events the load generator saw surface, with when.
#[derive(Debug, Default)]
pub struct Observed {
    /// `(flow, event_ts, kind, seen_ns)`.
    pub events: Vec<(u64, u64, VerdictKind, u64)>,
    pub unobserved: u64,
    /// Deepest ingest queue, sampled every 1024 releases, records.
    pub depth: Vec<f64>,
}

/// The load generator's body of a paced rep: offer the record, and every
/// [`POLL_EVERY`] releases drain the journal and stamp what surfaced.
pub fn paced_release(
    observed: &mut Observed,
    released: &mut u64,
    epoch: Instant,
    tap: &mut surface::Tap<'_>,
    record: surface::TapRecord,
) {
    tap.push(record);
    *released += 1;
    if !released.is_multiple_of(POLL_EVERY) {
        return;
    }
    let mark = observed.events.len();
    let events = &mut observed.events;
    let (drained, missed) = tap.poll_verdicts(|flow, ts, kind| events.push((flow, ts, kind, 0)));
    if drained > 0 {
        let seen = epoch.elapsed().as_nanos() as u64;
        for e in &mut observed.events[mark..] {
            e.3 = seen;
        }
        observed.unobserved += missed as u64;
    }
    if released.is_multiple_of(POLL_EVERY * 64) {
        observed.depth.push(tap.queue_depth() as f64);
    }
}

/// Speed multiplier that offers `input` at `rate` records per second.
pub fn pace_for(input: &Input, rate: f64) -> f64 {
    rate * input.span_secs() / input.records().max(1) as f64
}

/// Lateness of every observed verdict of one rep, ms — stage verdicts,
/// then title verdicts: the time each was seen minus the time its trigger
/// record was due to be sent. Third, how many of the `expected` verdicts
/// were excluded: no trigger record after them (flushed at shutdown), or
/// not seen before the replay ended.
pub fn lateness_ms(
    input: &Input,
    run: &ComposedRun,
    pace: f64,
    observed: &Observed,
    expected: u64,
) -> (Vec<f64>, Vec<f64>, u64) {
    let first_ts = input.merged.first().map_or(0, |r| r.0);
    let (mut stage, mut title) = (Vec::new(), Vec::new());
    for &(flow, ts, kind, seen_ns) in &observed.events {
        let trigger = input.triggers.get(&flow).and_then(|i| i.trigger_ts(ts));
        let Some(trigger) = trigger else {
            continue;
        };
        let due_ns = run.origin_ns as f64 + (trigger.saturating_sub(first_ts)) as f64 / pace * 1e3;
        let late_ms = (seen_ns as f64 - due_ns) / 1e6;
        match kind {
            VerdictKind::Stage => stage.push(late_ms),
            VerdictKind::Title => title.push(late_ms),
        }
    }
    let timed = (stage.len() + title.len()) as u64;
    let excluded = expected.saturating_sub(timed + observed.unobserved);
    (stage, title, excluded)
}

/// One open-loop rep offering `sources` (a clone of the input's, made off
/// the clock and outside the memory baseline) at `rate` records per second.
pub fn paced_rep(
    bundle: &Arc<ModelBundle>,
    input: &Input,
    sources: Vec<surface::MergeSource>,
    rate: f64,
    time_sink: bool,
) -> (ComposedRun, Observed, f64) {
    let pace = pace_for(input, rate);
    let epoch = Instant::now();
    let mut observed = Observed::default();
    let mut released = 0;
    let run = surface::composed_replay(
        bundle,
        sources,
        Pacing::Real(pace),
        epoch,
        time_sink,
        |tap, record| paced_release(&mut observed, &mut released, epoch, tap, record),
    );
    (run, observed, pace)
}

/// Longest a paced rep may take to drain after its last record, ns: more
/// means a backlog had grown.
const MAX_DRAIN_NS: u64 = 100_000_000;

/// True when a paced rep kept up: nothing blocked on a full queue, no
/// queue passed half its capacity and the drain after the last record was
/// short.
pub fn sustained(run: &ComposedRun, observed: &Observed) -> bool {
    let capacity = surface::queue_capacity() as f64;
    run.counts.blocked == 0
        && observed.depth.iter().all(|&d| d <= capacity / 2.0)
        && run.shutdown_span.1 - run.shutdown_span.0 <= MAX_DRAIN_NS
}
