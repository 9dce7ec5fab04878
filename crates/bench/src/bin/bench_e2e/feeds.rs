//! Workload inputs, generated from `--seed` only.
//!
//! The program under test receives just the generated records; titles,
//! stage timelines and the trigger index stay on the benchmark's side as
//! ground truth. Every input carries a packet feed (what a tap would
//! capture) and per-session slot inputs (title-window packets plus the
//! volumetric series), so every drive can run on every workload.

use std::collections::HashMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::surface::{
    self, fnv1a, Direction, Fidelity, FiveTuple, GameTitle, MergeSource, Micros, Packet, Protocol,
    SessionConfig, SessionGenerator, Stage, StageTimeline, StreamSettings, TapRecord, TitleKind,
    VolSeries, CATALOG, FNV_OFFSET,
};

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 20250927;

/// Capture timestamps start here, so a negative clock skew cannot
/// saturate at zero.
const BASE_TS: Micros = 1_000_000;

/// What the generator knows about one session and the program must find.
#[derive(Debug, Clone)]
pub struct Truth {
    /// The catalog title, `None` for an out-of-catalog title.
    pub title: Option<GameTitle>,
    pub timeline: StageTimeline,
    /// Capture timestamp of the session's time zero.
    pub start: Micros,
}

impl Truth {
    /// The true stage at the midpoint of the `slot`-th `width`-wide slot
    /// of a flow first seen at capture time `flow_start`.
    pub fn stage_at_slot(&self, flow_start: Micros, slot: usize, width: Micros) -> Option<Stage> {
        let mid = flow_start.saturating_sub(self.start) + slot as u64 * width + width / 2;
        self.timeline.stage_at(mid)
    }
}

/// What the per-session analyzer drive is handed for one session.
#[derive(Debug, Clone)]
pub struct SlotInput {
    /// Launch packets trimmed to the title window.
    pub launch: Vec<Packet>,
    /// The session's volumetric series at its native 100 ms width.
    pub vol: VolSeries,
}

/// Where each flow's records sit in the offered (merged) feed, for finding
/// the record that triggered a verdict.
#[derive(Debug, Default)]
pub struct FlowIndex {
    /// Running maximum of the flow's timestamps in offered order — equal
    /// to the timestamps themselves except behind a late record.
    ts_max: Vec<Micros>,
    /// Capture timestamp of the same records.
    ts: Vec<Micros>,
}

impl FlowIndex {
    /// Timestamp of the first offered record of the flow at or past
    /// `event_ts`: the record whose arrival makes the verdict due. `None`
    /// when no record follows, i.e. the event was flushed at shutdown.
    pub fn trigger_ts(&self, event_ts: Micros) -> Option<Micros> {
        let i = self.ts_max.partition_point(|&t| t < event_ts);
        self.ts.get(i).copied()
    }
}

/// One generated workload input.
#[derive(Debug)]
pub struct Input {
    /// The packet feed as captured, one source per capture point.
    pub sources: Vec<MergeSource>,
    /// The same feed in the order the tap path is offered it.
    pub merged: Vec<TapRecord>,
    /// Ground truth per session, and where to find it by normalized tuple.
    pub truth: Vec<Truth>,
    pub by_flow: HashMap<FiveTuple, usize>,
    /// Per-session analyzer inputs, parallel to `truth`.
    pub slots: Vec<SlotInput>,
    pub triggers: HashMap<u64, FlowIndex>,
    /// FNV-1a over every generated record, packet and volumetric sample.
    pub checksum: u64,
    /// Seconds spent inside `SessionGenerator::generate`.
    pub generate_s: f64,
}

impl Input {
    pub fn records(&self) -> u64 {
        self.merged.len() as u64
    }

    /// One-second slots the analyzer drive classifies per pass.
    pub fn slot_count(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.vol.len().div_ceil(10) as u64)
            .sum()
    }

    /// Virtual seconds the feed spans.
    pub fn span_secs(&self) -> f64 {
        match (self.merged.first(), self.merged.last()) {
            (Some(a), Some(b)) => b.0.saturating_sub(a.0) as f64 / 1e6,
            _ => 0.0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Mix {
    /// Catalog popularity, the rest of the playtime going to
    /// out-of-catalog titles.
    Popularity,
    /// Every catalog title equally often.
    Uniform,
}

/// The shape of one fleet of generated sessions.
#[derive(Debug, Clone, Copy)]
struct Fleet {
    sessions: usize,
    gameplay_secs: f64,
    stagger: Micros,
    mix: Mix,
    fidelity: Fidelity,
    /// Capture only the first this many µs of each session's packets; the
    /// slot inputs still cover the whole session.
    cutoff: Option<Micros>,
}

/// Splits `n` over `weights` in proportion, by largest remainder.
fn allocate(weights: &[f64], n: usize) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let quotas: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder.sort_by(|&a, &b| quotas[b].fract().total_cmp(&quotas[a].fract()));
    let short = n - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

/// Who plays what on which settings: the same for every seed, so that
/// runs on different seeds measure the same population and differ only in
/// its realisation (packet timing, stage timelines, addresses, order).
/// Titles are allocated in proportion to the mix, not drawn, so a small
/// fleet still has the catalog's shape.
fn composition(mix: Mix, n: usize) -> Vec<(TitleKind, StreamSettings)> {
    let mut weights: Vec<f64> = match mix {
        Mix::Uniform => vec![1.0; CATALOG.len()],
        Mix::Popularity => CATALOG.iter().map(|e| e.popularity).collect(),
    };
    if let Mix::Popularity = mix {
        weights.push(1.0 - weights.iter().sum::<f64>());
    }
    let mut rng = StdRng::seed_from_u64(0x636f_6d70_6f73_6974);
    let mut out = Vec::with_capacity(n);
    for (i, count) in allocate(&weights, n).into_iter().enumerate() {
        for k in 0..count {
            let kind = match CATALOG.get(i) {
                Some(entry) => TitleKind::Known(entry.title),
                None => TitleKind::Other {
                    pattern: if k % 5 < 3 {
                        surface::ActivityPattern::SpectateAndPlay
                    } else {
                        surface::ActivityPattern::ContinuousPlay
                    },
                    variant: k as u32 % 40,
                },
            };
            out.push((kind, surface::sample_lab_settings(&mut rng)));
        }
    }
    out
}

/// Sessions, their truth and slot inputs, and their packets as tap
/// records tagged with the session index.
struct Generated {
    truth: Vec<Truth>,
    by_flow: HashMap<FiveTuple, usize>,
    slots: Vec<SlotInput>,
    records: Vec<(TapRecord, usize)>,
    generate_s: f64,
}

fn generate(seed: u64, fleet: Fleet) -> Generated {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut generator = SessionGenerator::new();
    let window = surface::title_window_us();
    let mut out = Generated {
        truth: Vec::new(),
        by_flow: HashMap::new(),
        slots: Vec::new(),
        records: Vec::new(),
        generate_s: 0.0,
    };
    let mut players = composition(fleet.mix, fleet.sessions);
    players.shuffle(&mut rng);
    for (i, (kind, settings)) in players.into_iter().enumerate() {
        let mut config = SessionConfig {
            kind,
            settings,
            gameplay_secs: fleet.gameplay_secs,
            fidelity: fleet.fidelity,
            seed: 0,
        };
        // Five-tuples are drawn from the session seed; on the rare
        // collision draw again, so truth stays one-to-one with flows.
        let session = loop {
            config.seed = rng.gen();
            let t = Instant::now();
            let s = generator.generate(&config);
            out.generate_s += t.elapsed().as_secs_f64();
            if !out.by_flow.contains_key(&s.tuple.normalized()) {
                break s;
            }
        };
        let start = BASE_TS + i as u64 * fleet.stagger;
        let cutoff = fleet.cutoff.unwrap_or(Micros::MAX);
        for p in session.packets.iter().filter(|p| p.ts < cutoff) {
            let tuple = match p.dir {
                Direction::Downstream => session.tuple,
                Direction::Upstream => session.tuple.reversed(),
            };
            out.records.push(((start + p.ts, tuple, p.payload_len), i));
        }
        out.slots.push(SlotInput {
            launch: session
                .packets
                .iter()
                .copied()
                .filter(|p| p.ts < window)
                .collect(),
            vol: session.vol,
        });
        out.by_flow.insert(session.tuple.normalized(), i);
        out.truth.push(Truth {
            title: session.kind.known(),
            timeline: session.timeline,
            start,
        });
    }
    out
}

fn checksum(sources: &[MergeSource], slots: &[SlotInput]) -> u64 {
    let mut h = FNV_OFFSET;
    for source in sources {
        h = fnv1a(h, source.label.as_bytes());
        h = fnv1a(h, &source.offset_us.to_le_bytes());
        for (ts, tuple, len) in &source.records {
            h = fnv1a(h, &ts.to_le_bytes());
            h = fnv1a(h, &tuple.flow_id().to_le_bytes());
            h = fnv1a(h, &[u8::from(tuple.src_port < tuple.dst_port)]);
            h = fnv1a(h, &len.to_le_bytes());
        }
    }
    for slot in slots {
        for p in &slot.launch {
            h = fnv1a(h, &p.ts.to_le_bytes());
            h = fnv1a(h, &p.payload_len.to_le_bytes());
        }
        for s in &slot.vol.samples {
            for v in [s.down_bytes, s.down_pkts, s.up_bytes, s.up_pkts] {
                h = fnv1a(h, &v.to_le_bytes());
            }
        }
    }
    h
}

fn finish(sources: Vec<MergeSource>, generated: Generated) -> Input {
    let (merged, _) = surface::merge(sources.clone());
    let mut triggers: HashMap<u64, FlowIndex> = HashMap::new();
    for (ts, tuple, _) in &merged {
        if generated.by_flow.contains_key(&tuple.normalized()) {
            let index = triggers.entry(tuple.flow_id()).or_default();
            let high = index.ts_max.last().copied().unwrap_or(0).max(*ts);
            index.ts_max.push(high);
            index.ts.push(*ts);
        }
    }
    Input {
        checksum: checksum(&sources, &generated.slots),
        sources,
        merged,
        truth: generated.truth,
        by_flow: generated.by_flow,
        slots: generated.slots,
        triggers,
        generate_s: generated.generate_s,
    }
}

/// One tap seeing every session: the records sorted by capture time.
fn single_tap(seed: u64, fleet: Fleet) -> Input {
    let mut generated = generate(seed, fleet);
    let mut records: Vec<TapRecord> = generated.records.drain(..).map(|(r, _)| r).collect();
    records.sort_by_key(|r| r.0);
    finish(vec![MergeSource::new("tap", records)], generated)
}

/// Clock skew of each capture point of `merged-taps`, µs.
const TAP_SKEWS: [i64; 4] = [0, 3_000, -2_000, 15_000];

/// Gaming sessions plus background flows making two of every three
/// records, split by subscriber over four skewed capture points, with 2 %
/// of records arriving up to 300 µs out of place (inside the merge
/// tolerance) and 0.1 % arriving 5 ms out of place (beyond it).
fn merged_taps(seed: u64, fleet: Fleet) -> Input {
    let mut generated = generate(seed, fleet);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6261_636b_6772_6e64);
    let gaming = std::mem::take(&mut generated.records);
    let first = gaming.iter().map(|(r, _)| r.0).min().unwrap_or(BASE_TS);
    let last = gaming.iter().map(|(r, _)| r.0).max().unwrap_or(BASE_TS);

    // (record, capture point): a subscriber's flows all cross one point.
    let taps = TAP_SKEWS.len();
    let mut tagged: Vec<(TapRecord, usize)> = gaming
        .into_iter()
        .map(|(r, session)| (r, session % taps))
        .collect();
    const SERVICE_PORTS: [u16; 6] = [443, 80, 53, 123, 8080, 1935];
    let flows: Vec<(FiveTuple, usize)> = (0..6 * fleet.sessions.max(1))
        .map(|i| {
            let mut tuple = FiveTuple::udp_v4(
                [23, rng.gen(), rng.gen(), rng.gen_range(1..=254)],
                SERVICE_PORTS[rng.gen_range(0..SERVICE_PORTS.len())],
                [100, 65, rng.gen(), rng.gen_range(1..=254)],
                rng.gen_range(50_000..60_000),
            );
            if rng.gen_bool(0.3) {
                tuple.proto = Protocol::Tcp;
            }
            (tuple, i % taps)
        })
        .collect();
    for _ in 0..2 * tagged.len() {
        let (tuple, tap) = flows[rng.gen_range(0..flows.len())];
        let wire = if rng.gen_bool(0.7) {
            tuple
        } else {
            tuple.reversed()
        };
        let record = (rng.gen_range(first..=last), wire, rng.gen_range(40..1_400));
        tagged.push((record, tap));
    }

    let mut per_tap: Vec<Vec<(Micros, TapRecord)>> = vec![Vec::new(); taps];
    for (record, tap) in tagged {
        // Arrival position at the capture point: the record's own time,
        // or a little (rarely a lot) later.
        let delay = match rng.gen_range(0..1000) {
            0 => 5_000,
            1..=20 => rng.gen_range(1..=300),
            _ => 0,
        };
        per_tap[tap].push((record.0 + delay, record));
    }
    let sources = per_tap
        .into_iter()
        .zip(TAP_SKEWS)
        .enumerate()
        .map(|(i, (mut arrivals, skew))| {
            arrivals.sort_by_key(|(arrival, _)| *arrival);
            // The capture point stamps with its own skewed clock; the
            // merge's offset puts the records back on the shared axis.
            let records = arrivals
                .into_iter()
                .map(|(_, (ts, tuple, len))| (surface::shift(ts, -skew), tuple, len))
                .collect();
            MergeSource::with_offset(format!("tap{i}"), skew, records)
        })
        .collect();
    finish(sources, generated)
}

/// A named workload: what it feeds the program, how the measuring time is
/// split over the four drives, and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Share of `--seconds` given to the live, serial, paced and analyzer
    /// drives, in that order.
    pub shares: [f64; 4],
    build: fn(u64, usize) -> Input,
}

impl Workload {
    /// Generates the input from `seed`; `scale` divides the session count
    /// (`--quick` passes 8).
    pub fn build(&self, seed: u64, scale: usize) -> Input {
        (self.build)(seed, scale)
    }

    /// Index of the drive the workload spends most of its time in: where
    /// its accuracies are scored and which budget it is held to.
    pub fn primary_drive(&self) -> usize {
        (0..4)
            .max_by(|&a, &b| self.shares[a].total_cmp(&self.shares[b]))
            .expect("four drives")
    }
}

fn scaled(sessions: usize, scale: usize) -> usize {
    (sessions / scale.max(1)).max(2)
}

const STEADY: Fleet = Fleet {
    sessions: 32,
    gameplay_secs: 20.0,
    stagger: 250_000,
    mix: Mix::Popularity,
    fidelity: Fidelity::FullPackets,
    cutoff: None,
};

fn steady_fleet(seed: u64, scale: usize) -> Input {
    single_tap(
        seed,
        Fleet {
            sessions: scaled(STEADY.sessions, scale),
            ..STEADY
        },
    )
}

/// Each flow is captured for its 5-s title window, the analyzer's 10 seed
/// slots (which contain it) and 3 slots the stage forest classifies. A new
/// flow starts every 175 ms, so starts spread over 28 s and about 45 % of
/// the flows are sending at any one time, as in the issue's 1000-flow
/// sketch; none idles out (60 s) before the feed ends.
fn launch_storm(seed: u64, scale: usize) -> Input {
    single_tap(
        seed,
        Fleet {
            sessions: scaled(160, scale),
            gameplay_secs: 1.0,
            stagger: 175_000,
            mix: Mix::Uniform,
            fidelity: Fidelity::FullPackets,
            cutoff: Some(13_000_000),
        },
    )
}

fn merged_taps_input(seed: u64, scale: usize) -> Input {
    merged_taps(
        seed,
        Fleet {
            sessions: scaled(32, scale),
            gameplay_secs: 8.0,
            mix: Mix::Uniform,
            cutoff: Some(20_000_000),
            ..STEADY
        },
    )
}

fn slot_series(seed: u64, scale: usize) -> Input {
    single_tap(
        seed,
        Fleet {
            sessions: scaled(96, scale),
            gameplay_secs: 1_800.0,
            stagger: 20_000,
            mix: Mix::Popularity,
            fidelity: Fidelity::LaunchOnly,
            cutoff: Some(8_000_000),
        },
    )
}

/// The five workloads. Names are fixed: later issues refer to them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "steady-fleet",
        why: "Steady-state per-packet path: queue, router and shard hand-off do most of the work, merge is a pass-through, forests are a few percent. The capacity workload.",
        shares: [0.40, 0.20, 0.30, 0.10],
        build: steady_fleet,
    },
    Workload {
        name: "paced-fleet",
        why: "The steady-fleet feed with its time spent in the open loop: waiting, not work. Moves with hand-off, wake-up and batching changes, not with a per-record CPU saving.",
        shares: [0.20, 0.15, 0.55, 0.10],
        build: steady_fleet,
    },
    Workload {
        name: "launch-storm",
        why: "Many short flows open at once: admission, 5-s packet buffering, launch attributes, title forest, finalisation and journal timelines dominate. A gain that taxes flow churn shows here.",
        shares: [0.40, 0.20, 0.30, 0.10],
        build: launch_storm,
    },
    Workload {
        name: "merged-taps",
        why: "Four skewed capture points, two background records in three: the merge does real k-way work, most records take the filter's reject path, and order is hostile (late, displaced).",
        shares: [0.40, 0.20, 0.30, 0.10],
        build: merged_taps_input,
    },
    Workload {
        name: "slot-series",
        why: "Half-hour sessions as one-second slots through SessionAnalyzer alone: features, stage forest, pattern and QoE are the work. mlcore and features gains show here; transport gains must not.",
        shares: [0.10, 0.10, 0.25, 0.55],
        build: slot_series,
    },
];

/// Record count and checksum of every workload's input at
/// [`DEFAULT_SEED`] and full scale. A change to the generator, to gamesim
/// or to the sizes above moves them — and with them every baseline.
pub const PINS: [(&str, u64, u64); 5] = [
    ("steady-fleet", 976_859, 0x0a28_ca5d_ab24_d13d),
    ("paced-fleet", 976_859, 0x0a28_ca5d_ab24_d13d),
    ("launch-storm", 1_165_429, 0xf8c0_77a4_954a_2a6b),
    ("merged-taps", 1_112_103, 0x139a_cb84_861a_39bb),
    ("slot-series", 408_079, 0x67e9_30eb_cde0_6cf2),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_reproduces_and_another_seed_does_not() {
        for w in &WORKLOADS {
            let a = w.build(DEFAULT_SEED, 8);
            let b = w.build(DEFAULT_SEED, 8);
            let c = w.build(DEFAULT_SEED + 1, 8);
            assert_eq!(a.checksum, b.checksum, "{}", w.name);
            assert_eq!(a.records(), b.records(), "{}", w.name);
            assert_ne!(a.checksum, c.checksum, "{}", w.name);
        }
    }

    #[test]
    fn default_seed_inputs_match_their_pins() {
        for (w, (name, records, checksum)) in WORKLOADS.iter().zip(PINS) {
            let input = w.build(DEFAULT_SEED, 1);
            assert_eq!(w.name, name);
            assert_eq!(
                (input.records(), input.checksum),
                (records, checksum),
                "{name}: {} records, checksum {:#018x}",
                input.records(),
                input.checksum
            );
        }
    }

    #[test]
    fn allocation_is_proportional_and_complete() {
        assert_eq!(allocate(&[1.0, 1.0, 1.0], 10), [4, 3, 3]);
        assert_eq!(allocate(&[0.5, 0.3, 0.2], 10), [5, 3, 2]);
        assert_eq!(allocate(&[0.9, 0.1], 3), [3, 0]);
        let players = composition(Mix::Popularity, 32);
        assert_eq!(players.len(), 32);
        let known = players
            .iter()
            .filter(|(kind, _)| kind.known().is_some())
            .count();
        assert_eq!(known, 22, "31 % of playtime is out of catalog");
    }

    #[test]
    fn trigger_is_the_first_record_at_or_past_the_event() {
        let index = FlowIndex {
            ts_max: vec![10, 20, 20, 40],
            ts: vec![10, 20, 15, 40], // 15 arrived late, behind 20
        };
        assert_eq!(index.trigger_ts(5), Some(10));
        assert_eq!(index.trigger_ts(20), Some(20));
        assert_eq!(index.trigger_ts(21), Some(40));
        assert_eq!(index.trigger_ts(41), None);
    }

    #[test]
    fn merged_taps_has_late_records_and_mostly_background() {
        let input = workload("merged-taps").unwrap().build(DEFAULT_SEED, 4);
        assert_eq!(input.sources.len(), 4);
        let (_, late) = surface::merge(input.sources.clone());
        assert!(late > 0, "0.1 % of records arrive beyond the tolerance");
        let gaming = input
            .merged
            .iter()
            .filter(|r| input.by_flow.contains_key(&r.1.normalized()))
            .count() as f64;
        let share = gaming / input.records() as f64;
        assert!((0.30..0.37).contains(&share), "gaming share {share}");
    }
}
