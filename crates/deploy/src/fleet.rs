//! Deployment-scale fleet simulation (§5).
//!
//! Drives a popularity-weighted stream of synthetic sessions through the
//! real-time pipeline and records ground truth next to classifier output —
//! the analogue of operating the system in the partner ISP for three
//! months and joining against the cloud server logs afterwards.
//!
//! Sessions mix catalog titles (Table 1 popularity), a long tail of
//! unknown titles, the Table 2 settings matrix, per-title duration models,
//! and a slice of network-impaired subscribers whose streams are rate
//! capped, lossy and delayed.

use cgc_core::bundle::{ModelBundle, ModelSource};
use cgc_core::pipeline::{AnalyzerConfig, QoeInputs, SessionAnalyzer, SessionReport};
use cgc_core::Obs;
use cgc_domain::{ActivityPattern, Stage, StreamSettings};
use cgc_features::vol_attrs::raw_features;
use gamesim::dataset::sample_lab_settings;
use gamesim::profile::TitleProfile;
use gamesim::{Fidelity, Session, SessionConfig, SessionGenerator, TitleKind};
use nettrace::impair::{Impairment, ImpairmentConfig, ImpairmentProfile};
use nettrace::units::MICROS_PER_SEC;
use nettrace::vol::VolSeries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use cgc_domain::catalog::CATALOG;

use crate::lifecycle::ShadowMirror;

/// What a fleet run serves from: the live model source every session
/// pins at start, plus an optional shadow candidate that live decisions
/// are mirrored to for A/B scoring.
#[derive(Clone, Copy)]
pub struct FleetModels<'a> {
    /// Live models — a fixed bundle or a hot-swappable slot.
    pub source: ModelSource<'a>,
    /// Candidate riding shadow, if any.
    pub shadow: Option<&'a ShadowMirror>,
}

impl<'a> FleetModels<'a> {
    /// A fixed bundle with no shadow — the pre-lifecycle shape.
    pub fn fixed(bundle: &'a ModelBundle) -> FleetModels<'a> {
        FleetModels {
            source: ModelSource::Fixed(bundle),
            shadow: None,
        }
    }
}

/// Fleet simulation configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of sessions to simulate.
    pub n_sessions: usize,
    /// Master seed.
    pub seed: u64,
    /// Scale on per-title session durations (1.0 = paper-scale sessions of
    /// 28–95 minutes; experiments default lower to bound compute).
    pub duration_scale: f64,
    /// Fraction of sessions playing non-catalog titles.
    pub unknown_fraction: f64,
    /// Number of distinct unknown-title variants.
    pub unknown_variants: u32,
    /// Fraction of sessions behind degraded network paths.
    pub impaired_fraction: f64,
    /// Named impairment profile applied to the impaired slice. `None`
    /// keeps the legacy `poor_network` channel; `Some(profile)` routes
    /// impaired sessions through the adversarial network-condition engine
    /// (correlated jitter, bufferbloat queueing, capacity schedules) with
    /// mid-session degradation onsets where the profile defines one.
    pub impair_profile: Option<ImpairmentProfile>,
    /// Quality sink for the withheld-truth join (disabled by default).
    /// Experiments sweeping several regimes in one process give each
    /// regime its own hub through this.
    pub quality: cgc_obs::quality::QualitySink,
    /// What every session's analyzer records into: pipeline metrics plus
    /// the journal (keyed by session id), trace and drift sinks. The
    /// default is [`Obs::global`] — global-registry metrics, no sinks.
    pub obs: std::sync::Arc<Obs>,
    /// Sample catalog titles uniformly instead of by popularity —
    /// calibration passes use this so rare titles (Hearthstone is 0.04 %
    /// of playtime) still get their demand measured.
    pub uniform_titles: bool,
    /// Length of the simulated deployment window in days; session arrivals
    /// spread over it with an evening-peaked diurnal profile.
    pub deployment_days: u32,
    /// Worker threads.
    pub workers: usize,
    /// Emit a pipeline-telemetry delta report (nonzero counter increments
    /// since the previous report) every this many completed sessions.
    /// `0` disables the reporter.
    pub telemetry_every: usize,
    /// Cooperative cancellation flag (a Ctrl-C handler sets it): workers
    /// stop claiming sessions once it reads `true`, and [`run_fleet`]
    /// returns the records completed so far.
    pub cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            n_sessions: 600,
            seed: 20241201, // deployment start: 1 Dec 2024
            duration_scale: 0.15,
            unknown_fraction: 0.25,
            unknown_variants: 8,
            impaired_fraction: 0.08,
            impair_profile: None,
            quality: cgc_obs::quality::QualitySink::disabled(),
            obs: Obs::global(),
            uniform_titles: false,
            deployment_days: 90, // 1 Dec 2024 – 1 Mar 2025
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            telemetry_every: 0,
            cancel: None,
        }
    }
}

/// Ground truth + pipeline output for one fleet session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionRecord {
    /// Global session index.
    pub id: u64,
    /// What was actually played ("server log" ground truth).
    pub truth_kind: TitleKind,
    /// Ground-truth activity pattern.
    pub truth_pattern: ActivityPattern,
    /// Stream settings of the session.
    pub settings: StreamSettings,
    /// Ground-truth seconds per stage `[launch, idle, passive, active]`.
    pub truth_stage_secs: [f64; 4],
    /// Ground-truth mean downstream throughput, Mbps.
    pub truth_mean_down_mbps: f64,
    /// 95th-percentile 1 s-slot downstream throughput, Mbps (demand proxy).
    pub peak_down_mbps: f64,
    /// Whether the session ran behind a degraded network path.
    pub impaired: bool,
    /// Name of the impairment profile applied, when the fleet ran with
    /// [`FleetConfig::impair_profile`] and this session drew the impaired
    /// slice (`None` on the legacy path and for unimpaired sessions).
    pub impair_profile: Option<String>,
    /// Degradation onset within the session, microseconds from session
    /// start, for profiles that degrade mid-session (`None` when the
    /// impairment applies from the first packet, or no impairment).
    pub degradation_onset_us: Option<u64>,
    /// Session arrival time within the simulated deployment window,
    /// microseconds since deployment start (diurnal, evening-peaked).
    pub arrival: u64,
    /// Registry version of the bundle that served this session (0 when
    /// the fleet ran against a fixed, unversioned bundle).
    pub model_version: u32,
    /// The pipeline's report.
    pub report: SessionReport,
}

impl SessionRecord {
    /// True when the classified title matches the ground truth catalog
    /// title (unknown-vs-unknown also counts as correct).
    pub fn title_correct(&self) -> bool {
        self.report.title.title == self.truth_kind.known()
    }
}

fn sample_kind(rng: &mut StdRng, cfg: &FleetConfig) -> TitleKind {
    if rng.gen_bool(cfg.unknown_fraction) {
        let variant = rng.gen_range(0..cfg.unknown_variants.max(1));
        let pattern = if rng.gen_bool(0.6) {
            ActivityPattern::SpectateAndPlay
        } else {
            ActivityPattern::ContinuousPlay
        };
        return TitleKind::Other { pattern, variant };
    }
    if cfg.uniform_titles {
        return TitleKind::Known(CATALOG[rng.gen_range(0..CATALOG.len())].title);
    }
    // 10 % uniform mixing floor: a three-month deployment sees hundreds of
    // sessions even of 0.04 %-popularity titles; a scaled-down fleet would
    // otherwise never sample them.
    if rng.gen_bool(0.10) {
        return TitleKind::Known(CATALOG[rng.gen_range(0..CATALOG.len())].title);
    }
    let total: f64 = CATALOG.iter().map(|e| e.popularity).sum();
    let mut pick = rng.gen_range(0.0..total);
    for e in &CATALOG {
        if pick < e.popularity {
            return TitleKind::Known(e.title);
        }
        pick -= e.popularity;
    }
    TitleKind::Known(CATALOG[0].title)
}

/// Relative session-arrival weight per hour of day: cloud gaming peaks in
/// the evening (the "peak hours" §5.2 worries about) and bottoms out
/// overnight. Public so impairment scheduling (and the diurnal experiment)
/// compose with the same arrival model.
pub const DIURNAL_WEIGHTS: [f64; 24] = [
    3.0, 2.0, 1.0, 1.0, 1.0, 1.0, 2.0, 3.0, // 00-07
    4.0, 5.0, 5.0, 6.0, 7.0, 7.0, 8.0, 9.0, // 08-15
    10.0, 12.0, 14.0, 16.0, 15.0, 12.0, 8.0, 5.0, // 16-23
];

/// Samples an arrival time within the deployment window.
fn sample_arrival(days: u32, rng: &mut StdRng) -> u64 {
    let day = rng.gen_range(0..days.max(1)) as u64;
    let total: f64 = DIURNAL_WEIGHTS.iter().sum();
    let mut pick = rng.gen_range(0.0..total);
    let mut hour = 23usize;
    for (h, &w) in DIURNAL_WEIGHTS.iter().enumerate() {
        if pick < w {
            hour = h;
            break;
        }
        pick -= w;
    }
    let within_hour = rng.gen_range(0..3_600_000_000u64);
    day * 86_400_000_000 + hour as u64 * 3_600_000_000 + within_hour
}

fn sample_duration_secs(kind: &TitleKind, scale: f64, rng: &mut StdRng) -> f64 {
    let p = TitleProfile::of_kind(kind);
    let mins = (p.session_minutes_mean + rng.gen_range(-1.0f64..1.0) * p.session_minutes_std)
        .clamp(p.session_minutes_mean * 0.3, p.session_minutes_mean * 2.5);
    (mins * 60.0 * scale).max(120.0)
}

/// Degrades a fleet session in place: launch packets through the
/// impairment channel, the volumetric series through a rate cap and loss
/// thinning, and returns the QoS context the observability module would
/// measure.
fn impair_session(s: &mut Session, rng: &mut StdRng) -> QoeInputs {
    let seed = rng.gen();
    let mut channel = Impairment::new(ImpairmentConfig::poor_network(seed));
    s.packets = channel.apply_all(&s.packets);

    // Rate cap & loss on the volumetric series (~4.8 Mbps ceiling).
    let cap_bytes_per_slot = (600_000.0 * (s.vol.width as f64 / 1e6)) as u64;
    let loss: f64 = rng.gen_range(0.02..0.06);
    for sample in &mut s.vol.samples {
        sample.down_bytes = sample.down_bytes.min(cap_bytes_per_slot);
        sample.down_pkts = ((sample.down_pkts as f64) * (1.0 - loss)) as u64;
    }
    QoeInputs {
        nominal_fps: s.settings.fps as f64,
        latency_ms: rng.gen_range(75.0..130.0),
        loss_rate: loss,
        settings_factor: s.settings.bitrate_factor(),
        // Heavy loss halves delivered frames.
        delivered_fps_ratio: rng.gen_range(0.35..0.55),
    }
}

/// Residual-capacity factor for an arrival hour: shared access segments
/// have the least headroom when the most neighbours stream. Peak-hour
/// arrivals see half the profile's nominal capacity; overnight arrivals a
/// modest surplus. Reuses the diurnal arrival weights so `--impair`
/// composes with the same schedule windows as `exp_diurnal`.
pub fn diurnal_congestion_factor(hour: usize) -> f64 {
    let max_w = DIURNAL_WEIGHTS
        .iter()
        .cloned()
        .fold(f64::MIN, f64::max)
        .max(1e-9);
    let w = DIURNAL_WEIGHTS[hour % 24] / max_w; // 0..=1, 1 at peak
    (1.25 - 0.75 * w).clamp(0.5, 1.25)
}

/// QoE context of a clean (unimpaired) session — also the pre-onset
/// context of a session that degrades mid-stream.
fn clean_qoe(settings: &StreamSettings, rng: &mut StdRng) -> QoeInputs {
    QoeInputs {
        nominal_fps: settings.fps as f64,
        latency_ms: rng.gen_range(8.0..25.0),
        loss_rate: rng.gen_range(0.0..0.002),
        settings_factor: settings.bitrate_factor(),
        delivered_fps_ratio: 1.0,
    }
}

/// Result of routing a session through a named impairment profile.
struct ProfileImpairment {
    /// QoS context in effect from the session start.
    qoe_pre: QoeInputs,
    /// QoS context from the degradation onset on (same as `qoe_pre` when
    /// the profile applies from the first packet).
    qoe_post: QoeInputs,
    /// Degradation onset, microseconds from session start.
    onset: Option<u64>,
}

/// Degrades a fleet session through a named impairment profile: launch
/// packets through the profile's channel (correlated jitter, burst loss,
/// bufferbloat queue over its capacity schedule), the volumetric series
/// through capacity caps and loss thinning from the onset, and synthesizes
/// the gray-box QoS context the observability module would measure on such
/// a link. `capacity_scale` composes the profile with an external schedule
/// window (diurnal congestion); 1.0 is neutral.
fn impair_session_profile(
    profile: &ImpairmentProfile,
    s: &mut Session,
    rng: &mut StdRng,
    capacity_scale: f64,
) -> ProfileImpairment {
    let duration = s.vol.width * s.vol.samples.len() as u64;
    let seed: u64 = rng.gen();
    let mut plan = profile.instantiate(seed, duration);
    if capacity_scale != 1.0 {
        if let Some(b) = &mut plan.config.bottleneck {
            b.capacity = b.capacity.scaled(capacity_scale);
        }
    }
    if profile.is_degrading() {
        let mut channel = Impairment::new(plan.config.clone());
        s.packets = channel.apply_all(&s.packets);
        channel.degrade_vol(&mut s.vol, plan.onset.unwrap_or(0));
    }
    let (lat_lo, lat_hi) = profile.latency_ms;
    let (fps_lo, fps_hi) = profile.delivered_fps_ratio;
    let qoe_post = QoeInputs {
        nominal_fps: s.settings.fps as f64,
        latency_ms: rng.gen_range(lat_lo..lat_hi.max(lat_lo + f64::EPSILON)),
        loss_rate: profile.expected_loss_rate(),
        settings_factor: s.settings.bitrate_factor(),
        delivered_fps_ratio: rng.gen_range(fps_lo..fps_hi.max(fps_lo + f64::EPSILON)),
    };
    let qoe_pre = if plan.onset.is_some() {
        clean_qoe(&s.settings, rng)
    } else {
        qoe_post
    };
    ProfileImpairment {
        qoe_pre,
        qoe_post,
        onset: plan.onset,
    }
}

fn run_one(
    models: FleetModels<'_>,
    cfg: &FleetConfig,
    generator: &mut SessionGenerator,
    id: u64,
) -> SessionRecord {
    // Pin once per session: a concurrent publish into a live slot
    // redirects only sessions admitted after it.
    let (bundle, model_version) = models.source.pin();
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(id));
    let kind = sample_kind(&mut rng, cfg);
    let settings = sample_lab_settings(&mut rng);
    let gameplay_secs = sample_duration_secs(&kind, cfg.duration_scale, &mut rng);
    let mut session = generator.generate(&SessionConfig {
        kind,
        settings,
        gameplay_secs,
        fidelity: Fidelity::LaunchOnly,
        seed: cfg.seed.wrapping_add(id.wrapping_mul(0x51ed_270b)),
    });

    // Impairment. Legacy mode (no named profile) keeps the historical RNG
    // draw order byte-for-byte so seeded fleets stay reproducible across
    // releases; profile mode samples the arrival first so diurnal profiles
    // can scale their capacity schedule by the hour's congestion.
    let impaired_draw = rng.gen_bool(cfg.impaired_fraction);
    let (qoe, qoe_post, onset, impaired, arrival) = match &cfg.impair_profile {
        Some(profile) => {
            let arrival = sample_arrival(cfg.deployment_days, &mut rng);
            let hour = ((arrival / 3_600_000_000) % 24) as usize;
            let scale = if profile.diurnal {
                diurnal_congestion_factor(hour)
            } else {
                1.0
            };
            if impaired_draw {
                let pi = impair_session_profile(profile, &mut session, &mut rng, scale);
                (
                    pi.qoe_pre,
                    Some(pi.qoe_post),
                    pi.onset,
                    profile.is_degrading(),
                    arrival,
                )
            } else {
                (clean_qoe(&settings, &mut rng), None, None, false, arrival)
            }
        }
        None => {
            let qoe = if impaired_draw {
                impair_session(&mut session, &mut rng)
            } else {
                clean_qoe(&settings, &mut rng)
            };
            let arrival = sample_arrival(cfg.deployment_days, &mut rng);
            (qoe, None, None, impaired_draw, arrival)
        }
    };

    // Ground truth aggregates.
    let truth_stage_secs: [f64; 4] = [Stage::Launch, Stage::Idle, Stage::Passive, Stage::Active]
        .map(|st| {
            session
                .timeline
                .spans
                .iter()
                .filter(|sp| sp.stage == st)
                .map(|sp| sp.duration() as f64 / 1e6)
                .sum()
        });
    let vol_1s: VolSeries = session.vol_at(MICROS_PER_SEC);
    let truth_mean_down_mbps = vol_1s.mean_down_mbps();
    // Demand proxy over *gameplay* slots only: low-demand titles stream
    // their launch animation above their gameplay peak, which would
    // otherwise inflate the learned expectation.
    let launch_slots = truth_stage_secs[0].ceil() as usize;
    let mut slot_mbps: Vec<f64> = (launch_slots..vol_1s.len())
        .map(|i| raw_features(&vol_1s.samples[i], 1.0)[0])
        .collect();
    slot_mbps.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let peak_down_mbps = nettrace::stats::percentile_sorted(&slot_mbps, 0.95);

    // Run the pipeline. Flight-record against the session id (per-session
    // runs have no five-tuple hash), timestamped from the arrival instant.
    let mut analyzer = SessionAnalyzer::with_obs(
        bundle,
        AnalyzerConfig::default(),
        qoe,
        std::sync::Arc::clone(&cfg.obs),
        id,
        arrival,
    );
    match (onset, qoe_post) {
        // Mid-session degradation: feed slots one by one and swap the QoS
        // context at the first slot boundary past the onset, so the QoE
        // estimator sees the link change exactly when the channel did.
        (Some(onset_us), Some(post)) => {
            analyzer.ingest_title_window(&session.packets);
            let series = if session.vol.width == bundle.stage_slot {
                session.vol.clone()
            } else {
                session
                    .vol
                    .rebin((bundle.stage_slot / session.vol.width) as usize)
            };
            let mut swapped = false;
            for (i, s) in series.samples.iter().enumerate() {
                if !swapped && i as u64 * series.width >= onset_us {
                    analyzer.set_qoe(post);
                    swapped = true;
                }
                analyzer.push_slot(s);
            }
        }
        _ => analyzer.analyze(&session.packets, &session.vol),
    }
    let report = analyzer.finish();

    // Truth join: the fleet simulator withholds the ground-truth labels
    // ("server logs") from the pipeline, then streams (truth, predicted)
    // pairs into the quality hub here — per session for title/pattern,
    // per slot for stage. Free when the sink is disabled.
    let quality = &cfg.quality;
    if quality.is_enabled() {
        use cgc_obs::quality::{pattern_class, stage_class, title_class, ModelKind};
        quality.emit(
            ModelKind::Title,
            title_class(kind.known()),
            title_class(report.title.title),
        );
        if let Some((predicted, _)) = report.final_pattern {
            quality.emit(
                ModelKind::Pattern,
                pattern_class(kind.pattern()),
                pattern_class(predicted),
            );
        }
        for (i, &predicted) in report.stage_slots.iter().enumerate() {
            let mid = i as u64 * report.slot_width + report.slot_width / 2;
            if let Some(truth) = session.timeline.stage_at(mid) {
                quality.emit(ModelKind::Stage, stage_class(truth), stage_class(predicted));
            }
        }
    }

    // Shadow mirroring: replay the same session through the candidate
    // bundle (private pipeline metrics, so candidate inference never
    // pollutes the live counter families) and score live vs candidate
    // against the withheld ground truth.
    if let Some(shadow) = models.shadow {
        use cgc_obs::quality::{pattern_class, stage_class, title_class, ModelKind};
        let mut mirror = SessionAnalyzer::with_metrics(
            &shadow.bundle,
            AnalyzerConfig::default(),
            qoe,
            shadow.pipeline_metrics(),
        );
        mirror.analyze(&session.packets, &session.vol);
        let cand = mirror.finish();
        shadow.score.observe(
            ModelKind::Title,
            title_class(report.title.title),
            title_class(cand.title.title),
            Some(title_class(kind.known())),
        );
        // "No verdict yet" is its own (out-of-space) class: a candidate
        // that stops concluding still loses agreement and accuracy.
        let verdict_class = |p: Option<(ActivityPattern, f64)>| {
            p.map_or(u16::MAX, |(pattern, _)| pattern_class(pattern))
        };
        shadow.score.observe(
            ModelKind::Pattern,
            verdict_class(report.final_pattern),
            verdict_class(cand.final_pattern),
            Some(pattern_class(kind.pattern())),
        );
        for (i, (&live_stage, &cand_stage)) in
            report.stage_slots.iter().zip(&cand.stage_slots).enumerate()
        {
            let mid = i as u64 * report.slot_width + report.slot_width / 2;
            let truth = session.timeline.stage_at(mid).map(stage_class);
            shadow.score.observe(
                ModelKind::Stage,
                stage_class(live_stage),
                stage_class(cand_stage),
                truth,
            );
        }
    }

    SessionRecord {
        id,
        truth_kind: kind,
        truth_pattern: kind.pattern(),
        settings,
        truth_stage_secs,
        truth_mean_down_mbps,
        peak_down_mbps,
        impaired,
        impair_profile: cfg.impair_profile.as_ref().map(|p| p.name.to_string()),
        degradation_onset_us: onset,
        arrival,
        model_version,
        report,
    }
}

/// One telemetry progress report: `done`/`total` sessions plus the nonzero
/// counter increments in `delta` (one `name{labels} +n` clause per series,
/// in snapshot order). Gauges and histograms are left to the final
/// end-of-run snapshot; interval reporting is about rates.
pub fn fleet_progress_line(done: usize, total: usize, delta: &cgc_obs::Snapshot) -> String {
    let mut clauses: Vec<String> = Vec::new();
    for m in &delta.metrics {
        if let cgc_obs::MetricValue::Counter(v) = m.value {
            if v == 0 {
                continue;
            }
            let labels = if m.labels.is_empty() {
                String::new()
            } else {
                let inner: Vec<String> = m
                    .labels
                    .iter()
                    .map(|(k, val)| format!("{k}={val}"))
                    .collect();
                format!("{{{}}}", inner.join(","))
            };
            clauses.push(format!("{}{labels} +{v}", m.name));
        }
    }
    format!("[fleet {done}/{total}] {}", clauses.join(", "))
}

/// The reporter loop behind [`run_fleet`]'s `telemetry_every` heartbeat:
/// polls `done` until it reaches `total`, and each time `every` further
/// units complete, calls `emit` with the completion count and the
/// registry's counter *delta* since the previous report — since `baseline`
/// for the first one. Extracted (and parameterized over `emit`) so the
/// delta mechanics are testable without racing a real fleet.
///
/// `baseline` is a snapshot of `registry` taken **before the workers
/// start**. The reporter runs on its own thread and may first be scheduled
/// after workers have counted; a baseline taken there would swallow those
/// increments and the deltas would no longer sum to the final totals.
pub fn telemetry_reporter(
    registry: &cgc_obs::Registry,
    baseline: cgc_obs::Snapshot,
    done: &std::sync::atomic::AtomicUsize,
    total: usize,
    every: usize,
    emit: &mut dyn FnMut(usize, cgc_obs::Snapshot),
) {
    telemetry_reporter_with_slo(
        registry,
        baseline,
        done,
        total,
        every,
        None,
        &mut |d, delta, _| emit(d, delta),
    );
}

/// [`telemetry_reporter`] with an SLO verdict riding along: each report
/// boundary also feeds the full snapshot to `slo` (when given) and hands
/// the evaluated burn-rate report to `emit`, so the heartbeat log carries
/// ok/degraded/critical next to the counter deltas.
pub fn telemetry_reporter_with_slo(
    registry: &cgc_obs::Registry,
    baseline: cgc_obs::Snapshot,
    done: &std::sync::atomic::AtomicUsize,
    total: usize,
    every: usize,
    slo: Option<&cgc_obs::SloHub>,
    emit: &mut dyn FnMut(usize, cgc_obs::Snapshot, Option<cgc_obs::SloReport>),
) {
    use std::sync::atomic::Ordering;
    if every == 0 {
        return;
    }
    let mut prev = baseline;
    let mut reported = 0usize;
    loop {
        // Acquire pairs with the workers' Release increment: a completion
        // count of d means those d sessions' counter updates are visible
        // in the snapshot taken below.
        let d = done.load(Ordering::Acquire);
        if d / every > reported {
            reported = d / every;
            let cur = registry.snapshot();
            let report = slo.map(|hub| hub.observe_and_evaluate(&cur));
            emit(d, cur.delta(&prev), report);
            prev = cur;
        }
        if d >= total {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// Runs the fleet in parallel, returning records ordered by session id.
///
/// With [`FleetConfig::telemetry_every`] set, a reporter thread rides along
/// and prints a [`fleet_progress_line`] delta of the global metrics
/// registry each time that many further sessions complete — the
/// deployment's heartbeat log.
///
/// With [`FleetConfig::cancel`] set, flipping the flag makes workers skip
/// the remaining sessions; the returned records then cover only the
/// sessions that completed (still in id order).
pub fn run_fleet(bundle: &ModelBundle, cfg: &FleetConfig) -> Vec<SessionRecord> {
    run_fleet_with_models(FleetModels::fixed(bundle), cfg)
}

/// [`run_fleet`] against an explicit model source: a hot-swappable
/// [`LiveModel`](cgc_lifecycle::LiveModel) slot keeps serving while a
/// publish lands mid-run (each session pins its version at start), and
/// an attached [`ShadowMirror`] A/B-scores a candidate on the same
/// traffic.
pub fn run_fleet_with_models(models: FleetModels<'_>, cfg: &FleetConfig) -> Vec<SessionRecord> {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let workers = cfg.workers.max(1).min(cfg.n_sessions.max(1));
    let mut records: Vec<Option<SessionRecord>> = vec![None; cfg.n_sessions];
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let slots = parking_lot::Mutex::new(&mut records);
    let cancelled = || {
        cfg.cancel
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    };

    // The heartbeat's first delta is measured from here, before any worker
    // can have counted anything.
    let baseline = (cfg.telemetry_every > 0).then(|| cgc_obs::Registry::global().snapshot());

    // Scoped workers: a panicking worker propagates when the scope joins.
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut generator = SessionGenerator::new();
                loop {
                    let id = next.fetch_add(1, Ordering::Relaxed);
                    if id >= cfg.n_sessions {
                        break;
                    }
                    if cancelled() {
                        // Keep claiming ids (so `done` still reaches the
                        // total and the telemetry reporter exits) but skip
                        // the work; the slot stays empty.
                        done.fetch_add(1, Ordering::Release);
                        continue;
                    }
                    let record = run_one(models, cfg, &mut generator, id as u64);
                    slots.lock()[id] = Some(record);
                    done.fetch_add(1, Ordering::Release);
                }
            });
        }
        if let Some(baseline) = baseline {
            // The reporter exits on its own once every session is done, so
            // the scope still joins promptly. Burn rates run on the wall
            // clock — the same axis the heartbeat intervals live on.
            scope.spawn(|| {
                let slo = cgc_obs::SloHub::real_time(cgc_obs::SloConfig::default());
                telemetry_reporter_with_slo(
                    cgc_obs::Registry::global(),
                    baseline,
                    &done,
                    cfg.n_sessions,
                    cfg.telemetry_every,
                    Some(&slo),
                    &mut |d, delta, report| {
                        let line = fleet_progress_line(d, cfg.n_sessions, &delta);
                        match report {
                            Some(r) => eprintln!("{line} [slo {}]", r.health.name()),
                            None => eprintln!("{line}"),
                        }
                    },
                );
            });
        }
    });

    // Empty slots only exist after a cancellation; flatten keeps the
    // completed records in id order either way.
    records.into_iter().flatten().collect()
}

/// Tap-fleet configuration: many subscribers' sessions interleaved on one
/// simulated ISP link, demultiplexed by the sharded tap front end.
#[derive(Debug, Clone, Copy)]
pub struct TapFleetConfig {
    /// Number of concurrent subscriber sessions on the tap.
    pub n_sessions: usize,
    /// Master seed.
    pub seed: u64,
    /// Gameplay seconds per session.
    pub gameplay_secs: f64,
    /// Session starts are staggered by this many microseconds.
    pub stagger: u64,
    /// Worker shards of the front end.
    pub shards: usize,
}

impl Default for TapFleetConfig {
    fn default() -> Self {
        TapFleetConfig {
            n_sessions: 8,
            seed: 20241201,
            gameplay_secs: 30.0,
            stagger: 2_000_000,
            shards: 4,
        }
    }
}

/// Everything a tap-fleet run produced: session reports, the metrics
/// snapshot of the run's private registry, and the flight-recorder
/// decision timelines (one per flow, admission order).
#[derive(Debug)]
pub struct TapFleetRun {
    /// Per-session reports, sorted by flow start.
    pub sessions: Vec<cgc_core::MonitoredSession>,
    /// Final metrics snapshot of the run's private registry
    /// (`cgc_monitor_*`, `cgc_shard_*`, `cgc_pipeline_*`, `cgc_qoe_*`,
    /// `cgc_journal_*` series).
    pub snapshot: cgc_obs::Snapshot,
    /// Per-flow decision timelines from the run's journal.
    pub timelines: Vec<cgc_obs::FlowTimeline>,
}

impl TapFleetRun {
    /// The timeline recorded for `tuple`'s flow, if any.
    pub fn timeline_for(
        &self,
        tuple: &nettrace::packet::FiveTuple,
    ) -> Option<&cgc_obs::FlowTimeline> {
        let id = tuple.flow_id();
        self.timelines.iter().find(|t| t.flow == id)
    }
}

/// Builds the interleaved tap feed [`run_tap_fleet`] analyzes:
/// `n_sessions` popularity-sampled sessions staggered on one link, each
/// packet as a `(ts, wire_tuple, payload_len)` tap record, sorted by
/// timestamp. Deterministic in `cfg` — the replay and offline paths call
/// this with the same config to analyze the *same* traffic.
pub fn build_tap_feed(cfg: &TapFleetConfig) -> Vec<cgc_core::shard::TapRecord> {
    use nettrace::packet::Direction;

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7a9_0000);
    let mut generator = SessionGenerator::new();
    let mut feed: Vec<cgc_core::shard::TapRecord> = Vec::new();
    for i in 0..cfg.n_sessions as u64 {
        let fleet_cfg = FleetConfig::default();
        let kind = sample_kind(&mut rng, &fleet_cfg);
        let session = generator.generate(&SessionConfig {
            kind,
            settings: sample_lab_settings(&mut rng),
            gameplay_secs: cfg.gameplay_secs,
            fidelity: Fidelity::FullPackets,
            seed: cfg.seed.wrapping_add(i.wrapping_mul(0x51ed_270b)),
        });
        let offset = i * cfg.stagger;
        for p in &session.packets {
            let tuple = match p.dir {
                Direction::Downstream => session.tuple,
                Direction::Upstream => session.tuple.reversed(),
            };
            feed.push((p.ts + offset, tuple, p.payload_len));
        }
    }
    feed.sort_by_key(|(ts, _, _)| *ts);
    feed
}

/// Interleaves `n_sessions` popularity-sampled sessions on one tap and runs
/// the feed through a [`ShardedTapMonitor`], returning a [`TapFleetRun`]:
/// per-session reports (sorted by flow start), a metrics snapshot, and
/// per-flow decision timelines, all from a registry + journal private to
/// this run — the deployment analogue of [`run_fleet`], exercised through
/// the packet path instead of per-session analyzers.
///
/// [`ShardedTapMonitor`]: cgc_core::ShardedTapMonitor
pub fn run_tap_fleet(bundle: &std::sync::Arc<ModelBundle>, cfg: &TapFleetConfig) -> TapFleetRun {
    let feed = build_tap_feed(cfg);

    // A private registry + journal so concurrent runs (tests, notably)
    // can make exact assertions against their own counters and timelines.
    let registry = cgc_obs::Registry::new();
    let (sink, journal) = cgc_obs::Journal::new(cgc_obs::JournalConfig::default(), &registry);
    let mut monitor = cgc_core::ShardedTapMonitor::with_obs(
        std::sync::Arc::clone(bundle),
        cgc_core::ShardedMonitorConfig::with_shards(cfg.shards),
        &registry,
        Obs {
            journal: sink,
            ..Obs::on(&registry)
        },
    );
    for (ts, tuple, len) in &feed {
        monitor.ingest(*ts, tuple, *len);
    }
    let (mut sessions, _stats) = monitor.finish_all();
    sessions.sort_by_key(|m| m.started_at);
    let timelines = journal.into_timelines();
    TapFleetRun {
        sessions,
        snapshot: registry.snapshot(),
        timelines,
    }
}

/// Knobs of a paced tap-fleet replay beyond the feed itself.
#[derive(Debug, Clone, Default)]
pub struct TapReplayOptions {
    /// Pacing of the recorded timeline (default: real time, `pace = 1.0`).
    pub replay: cgc_ingest::ReplayConfig,
    /// Queue sizing and backpressure policy (the engine clock field is
    /// overwritten with the replay clock).
    pub ingest: cgc_ingest::IngestConfig,
    /// K-way merge tolerance and lookahead when replaying several input
    /// feeds at once (ignored with a single source, where the merge is
    /// a pass-through).
    pub merge: cgc_ingest::MergeConfig,
    /// Expire idle flows every this many µs of replay-clock time; `None`
    /// (the default) finalizes everything at shutdown instead, keeping
    /// the run byte-identical to the offline batch path.
    pub idle_check: Option<u64>,
    /// Span tracing for the run: `Some(config)` installs a
    /// [`TraceCollector`](cgc_obs::TraceCollector) on the run's private
    /// registry and threads its sink through replay → merge → queues →
    /// router → shards → pipeline, so [`TapReplayRun::traces`] comes back
    /// with one causal timeline per sampled flow. `None` (the default)
    /// keeps every stage's hot path span-free.
    pub trace: Option<cgc_obs::TraceConfig>,
    /// Cooperative cancellation flag (a Ctrl-C handler sets it); the
    /// replay stops between records and the engine drains gracefully.
    pub cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

/// A [`TapFleetRun`] produced through the live ingestion path, plus the
/// replay, merge and queue accounting of the run.
#[derive(Debug)]
pub struct TapReplayRun {
    /// The session reports, metrics snapshot and decision timelines —
    /// same shape as the offline [`run_tap_fleet`] output.
    pub fleet: TapFleetRun,
    /// What the pacing engine released (and whether it was cancelled).
    pub replay: cgc_ingest::ReplayStats,
    /// Per-source merge accounting: how many records each input feed
    /// contributed and how many arrived beyond the reordering tolerance
    /// (still delivered). A single-feed replay shows one source with
    /// zero late. The merge is streamed, so a cancelled replay reports
    /// what had been merged when it stopped, not the whole feed.
    pub merge: cgc_ingest::MergeStats,
    /// Records admitted into the ingest queues.
    pub enqueued: u64,
    /// Records handed from the queues to the monitor.
    pub handed_off: u64,
    /// Records lost to backpressure (zero under the `block` policy).
    pub dropped: u64,
    /// Per-flow span timelines, populated when
    /// [`TapReplayOptions::trace`] was set (empty otherwise): the full
    /// ingest → merge → queue → router → shard → slot → classifier →
    /// verdict causal chain of every sampled flow.
    pub traces: Vec<cgc_obs::TraceTimeline>,
}

impl TapReplayRun {
    /// The span timeline recorded for `tuple`'s flow, if any.
    pub fn trace_for(
        &self,
        tuple: &nettrace::packet::FiveTuple,
    ) -> Option<&cgc_obs::TraceTimeline> {
        let id = tuple.flow_id();
        self.traces.iter().find(|t| t.flow == id)
    }
}

/// Runs the same tap fleet as [`run_tap_fleet`], but through the live
/// ingestion path: the feed is replayed against `clock` at the recorded
/// timestamps (scaled by `opts.replay.pace`), flows through bounded
/// ingest queues with backpressure, and is drained by the engine's
/// router into the sharded monitor. Shutdown is graceful — producers
/// quiesce, queues drain dry, and every still-open flow gets its final
/// session verdict.
///
/// With a [`VirtualClock`](nettrace::VirtualClock) this completes
/// instantly and deterministically; with a real clock it takes
/// `capture_duration / pace` of wall time.
pub fn run_tap_fleet_replay(
    bundle: &std::sync::Arc<ModelBundle>,
    cfg: &TapFleetConfig,
    clock: nettrace::clock::SharedClock,
    opts: TapReplayOptions,
) -> TapReplayRun {
    let feed = build_tap_feed(cfg);
    run_tap_feed_replay(
        bundle,
        cfg.shards,
        vec![cgc_ingest::MergeSource::new("feed", feed)],
        clock,
        opts,
    )
}

/// Replays one or more independently captured tap feeds — each with its
/// own label and clock-skew offset — through the live ingestion path.
///
/// The sources are fused by the k-way merge ([`cgc_ingest::merge`]) into
/// one globally time-ordered stream on the shared clock axis, and the
/// replay drives that merge record by record — the fused feed is never
/// materialised, and merging overlaps the router and the shard workers —
/// pacing, queueing and draining each record into the sharded monitor
/// exactly like [`run_tap_fleet_replay`]. Per-source contribution and
/// lateness counters (`cgc_ingest_merge_records_total{source=…}`,
/// `cgc_ingest_merge_late_total{source=…}`) register on the run's
/// private registry and surface in [`TapReplayRun::merge`]; after a
/// cancelled replay both count what the merge had released by then (the
/// records delivered plus the one in hand when the flag was seen), not
/// the whole feed.
pub fn run_tap_feed_replay(
    bundle: &std::sync::Arc<ModelBundle>,
    shards: usize,
    sources: Vec<cgc_ingest::MergeSource>,
    clock: nettrace::clock::SharedClock,
    opts: TapReplayOptions,
) -> TapReplayRun {
    use cgc_ingest::{IngestEngine, MonitorSink};
    use cgc_obs::TraceStage;

    let registry = cgc_obs::Registry::new();
    let (trace_sink, trace_collector) = match opts.trace {
        Some(config) => {
            let (sink, collector) = cgc_obs::TraceCollector::new(config, &registry);
            (sink, Some(collector))
        }
        None => (cgc_obs::TraceSink::disabled(), None),
    };
    let mut merge = cgc_ingest::KWayMerge::new(sources, opts.merge, Some(&registry));
    let (sink, journal) = cgc_obs::Journal::new(cgc_obs::JournalConfig::default(), &registry);
    let monitor = cgc_core::ShardedTapMonitor::with_obs(
        std::sync::Arc::clone(bundle),
        cgc_core::ShardedMonitorConfig::with_shards(shards),
        &registry,
        Obs {
            journal: sink,
            trace: trace_sink.clone(),
            ..Obs::on(&registry)
        },
    );
    let monitor_sink = match opts.idle_check {
        Some(every) => MonitorSink::with_idle_checks(monitor, every),
        None => MonitorSink::new(monitor),
    };
    let mut ingest_cfg = opts.ingest;
    ingest_cfg.clock = Some(std::sync::Arc::clone(&clock));
    ingest_cfg.trace = trace_sink.clone();
    let engine = IngestEngine::start(monitor_sink, ingest_cfg, &registry);
    let producer = engine.producer();
    let metrics = engine.metrics().clone();
    let replay_stats = cgc_ingest::replay(
        merge.by_ref(),
        &*clock,
        &opts.replay,
        Some(&metrics),
        opts.cancel.as_deref(),
        |record| {
            if trace_sink.is_enabled() {
                // The replay pulls each record out of the merge right
                // before releasing it, so one stamp here serves both the
                // Merge and the Ingest span.
                let flow = record.1.flow_id();
                trace_sink.record(flow, 0, TraceStage::Merge, record.0, 0);
                trace_sink.record(flow, 0, TraceStage::Ingest, record.0, 0);
            }
            producer.push_record(record);
        },
    );
    drop(producer);
    let run = engine.shutdown();
    let (mut sessions, _stats) = run.output;
    sessions.sort_by_key(|m| m.started_at);
    let timelines = journal.into_timelines();
    let traces = trace_collector
        .map(|mut collector| {
            collector.drain();
            collector.into_timelines()
        })
        .unwrap_or_default();
    TapReplayRun {
        fleet: TapFleetRun {
            sessions,
            snapshot: registry.snapshot(),
            timelines,
        },
        replay: replay_stats,
        merge: merge.stats(),
        enqueued: run.enqueued,
        handed_off: run.handed_off,
        dropped: run.dropped,
        traces,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train_bundle, TrainConfig};

    fn quick_fleet(n: usize) -> (ModelBundle, Vec<SessionRecord>) {
        let bundle = train_bundle(&TrainConfig::quick());
        let cfg = FleetConfig {
            n_sessions: n,
            duration_scale: 0.06,
            workers: 4,
            ..Default::default()
        };
        let records = run_fleet(&bundle, &cfg);
        (bundle, records)
    }

    #[test]
    fn fleet_produces_ordered_complete_records() {
        let (_, records) = quick_fleet(24);
        assert_eq!(records.len(), 24);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!(!r.report.stage_slots.is_empty());
            assert!(r.truth_mean_down_mbps > 0.0);
        }
    }

    #[test]
    fn fleet_is_deterministic_across_worker_counts() {
        let bundle = train_bundle(&TrainConfig::quick());
        let mk = |workers: usize| {
            run_fleet(
                &bundle,
                &FleetConfig {
                    n_sessions: 10,
                    duration_scale: 0.05,
                    workers,
                    ..Default::default()
                },
            )
        };
        let a = mk(1);
        let b = mk(4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.truth_kind, y.truth_kind);
            assert_eq!(x.report.stage_slots, y.report.stage_slots);
            assert_eq!(x.report.title, y.report.title);
        }
    }

    #[test]
    fn titles_are_mostly_classified_correctly() {
        let (_, records) = quick_fleet(40);
        let known: Vec<&SessionRecord> = records
            .iter()
            .filter(|r| r.truth_kind.known().is_some() && !r.impaired)
            .collect();
        let correct = known.iter().filter(|r| r.title_correct()).count();
        let acc = correct as f64 / known.len().max(1) as f64;
        assert!(acc > 0.7, "fleet title accuracy {acc}");
    }

    #[test]
    fn clean_profile_fleet_is_indistinguishable_from_unimpaired() {
        let bundle = train_bundle(&TrainConfig::quick());
        let cfg = FleetConfig {
            n_sessions: 10,
            duration_scale: 0.05,
            workers: 4,
            impaired_fraction: 1.0,
            impair_profile: ImpairmentProfile::by_name("clean"),
            ..Default::default()
        };
        let records = run_fleet(&bundle, &cfg);
        let baseline = run_fleet(
            &bundle,
            &FleetConfig {
                impaired_fraction: 0.0,
                impair_profile: None,
                ..cfg
            },
        );
        for (r, b) in records.iter().zip(&baseline) {
            assert_eq!(r.impair_profile.as_deref(), Some("clean"));
            assert!(!r.impaired, "clean profile must not flag sessions");
            assert_eq!(r.degradation_onset_us, None);
            // Sessions are generated from an id-derived seed, and the clean
            // profile's QoS draws land in the same always-Good latency/loss
            // bands as the unimpaired path, so verdicts must agree exactly.
            assert_eq!(r.report.objective_qoe, b.report.objective_qoe);
            assert_eq!(r.report.title, b.report.title);
            assert_eq!(r.report.stage_slots, b.report.stage_slots);
        }
    }

    #[test]
    fn degrading_profile_fleet_records_onset_and_flips_qoe() {
        use cgc_domain::QoeLevel;
        let bundle = train_bundle(&TrainConfig::quick());
        let cfg = FleetConfig {
            n_sessions: 10,
            duration_scale: 0.05,
            workers: 4,
            impaired_fraction: 1.0,
            impair_profile: ImpairmentProfile::by_name("lte-handover"),
            ..Default::default()
        };
        let records = run_fleet(&bundle, &cfg);
        let mut pre = [0u64; 2]; // [not-good, total] before onset
        let mut post = [0u64; 2];
        for r in &records {
            assert!(r.impaired);
            assert_eq!(r.impair_profile.as_deref(), Some("lte-handover"));
            let onset = r.degradation_onset_us.expect("lte-handover has an onset");
            for (i, &(obj, _)) in r.report.qoe_slots.iter().enumerate() {
                let bucket = if (i as u64) * r.report.slot_width < onset {
                    &mut pre
                } else {
                    &mut post
                };
                bucket[0] += u64::from(obj != QoeLevel::Good);
                bucket[1] += 1;
            }
        }
        assert!(pre[1] > 0 && post[1] > 0, "slots on both sides of onset");
        let pre_bad = pre[0] as f64 / pre[1] as f64;
        let post_bad = post[0] as f64 / post[1] as f64;
        assert!(
            post_bad > pre_bad,
            "QoE must be worse after onset (pre {pre_bad:.2}, post {post_bad:.2})"
        );
    }

    #[test]
    fn fleet_truth_join_uses_injected_quality_sink() {
        use cgc_obs::quality::{QualityConfig, QualityHub};
        let bundle = train_bundle(&TrainConfig::quick());
        let registry = cgc_obs::Registry::new();
        let (sink, mut hub) = QualityHub::new(
            QualityConfig {
                profile: Some("lossy-wifi"),
                ..QualityConfig::default()
            },
            &registry,
        );
        let cfg = FleetConfig {
            n_sessions: 6,
            duration_scale: 0.05,
            workers: 2,
            impaired_fraction: 1.0,
            impair_profile: ImpairmentProfile::by_name("lossy-wifi"),
            quality: sink,
            ..Default::default()
        };
        let records = run_fleet(&bundle, &cfg);
        assert_eq!(records.len(), 6);
        assert!(hub.drain_and_sync() > 0, "injected sink received samples");
        let snap = registry.snapshot();
        let labeled = snap.metrics.iter().any(|m| {
            m.name == "cgc_quality_accuracy_pct"
                && m.labels
                    .iter()
                    .any(|(k, v)| k == "profile" && v == "lossy-wifi")
        });
        assert!(labeled, "profile label present on quality series");
    }

    #[test]
    fn tap_fleet_demultiplexes_every_session() {
        let bundle = std::sync::Arc::new(train_bundle(&TrainConfig::quick()));
        let cfg = TapFleetConfig {
            n_sessions: 6,
            gameplay_secs: 15.0,
            shards: 3,
            ..Default::default()
        };
        let run = run_tap_fleet(&bundle, &cfg);
        let (sessions, snapshot) = (&run.sessions, &run.snapshot);
        assert_eq!(sessions.len(), 6);
        assert!(sessions.iter().all(|m| m.confirmed));
        assert_eq!(
            snapshot.counter("cgc_monitor_finalized_flows_total"),
            Some(6)
        );
        assert_eq!(
            snapshot.counter("cgc_monitor_ignored_packets_total"),
            Some(0)
        );
        let ingested = snapshot
            .counter("cgc_monitor_ingested_packets_total")
            .unwrap();
        assert!(ingested > 0);
        // One queue-depth gauge per worker shard.
        let depth_series = snapshot
            .metrics
            .iter()
            .filter(|m| m.name == "cgc_shard_queue_depth")
            .count();
        assert_eq!(depth_series, 3);
        // The packet path drove the full pipeline: inference counters and
        // latency histograms populated alongside the monitor's.
        assert!(snapshot.counter("cgc_pipeline_slots_total").unwrap() > 0);
        assert_eq!(
            snapshot.counter("cgc_pipeline_title_decisions_total"),
            Some(6)
        );
        assert!(snapshot.histogram("cgc_monitor_batch_ns").unwrap().count > 0);
        assert!(snapshot.counter("cgc_qoe_slots_total").unwrap() > 0);
        // The flight recorder rode along: one timeline per session, each
        // bracketed by admission and closure, nothing dropped.
        assert_eq!(run.timelines.len(), 6);
        for m in sessions {
            let tl = run.timeline_for(&m.tuple).expect("timeline per session");
            assert_eq!(tl.first_event(), "flow_admitted");
            assert_eq!(tl.last_event(), "flow_closed");
        }
        assert_eq!(
            snapshot.counter("cgc_journal_dropped_events_total"),
            Some(0)
        );
        let recorded = snapshot.counter("cgc_journal_events_total").unwrap();
        let in_timelines: u64 = run.timelines.iter().map(|t| t.events.len() as u64).sum();
        assert_eq!(recorded, in_timelines);
    }

    #[test]
    fn tap_fleet_replay_on_virtual_clock_matches_offline() {
        let bundle = std::sync::Arc::new(train_bundle(&TrainConfig::quick()));
        let cfg = TapFleetConfig {
            n_sessions: 4,
            gameplay_secs: 12.0,
            shards: 2,
            ..Default::default()
        };
        let offline = run_tap_fleet(&bundle, &cfg);
        let clock = nettrace::VirtualClock::new();
        let live = run_tap_fleet_replay(&bundle, &cfg, clock.shared(), TapReplayOptions::default());
        assert_eq!(live.dropped, 0, "block policy replay is lossless");
        assert!(!live.replay.cancelled);
        assert_eq!(live.enqueued, live.handed_off);
        assert_eq!(live.replay.released, live.enqueued);
        // Full byte-level journal equivalence lives in tests/e2e_ingest.rs;
        // here: same sessions, same reports, through the live path.
        assert_eq!(live.fleet.sessions.len(), offline.sessions.len());
        for (a, b) in offline.sessions.iter().zip(&live.fleet.sessions) {
            assert_eq!(a.tuple, b.tuple);
            assert_eq!(
                serde_json::to_string(&a.report).unwrap(),
                serde_json::to_string(&b.report).unwrap()
            );
        }
    }

    #[test]
    fn replay_traces_reconstruct_full_causal_chains() {
        use cgc_obs::TraceStage;

        let bundle = std::sync::Arc::new(train_bundle(&TrainConfig::quick()));
        let cfg = TapFleetConfig {
            n_sessions: 3,
            gameplay_secs: 12.0,
            shards: 2,
            ..Default::default()
        };
        let opts = TapReplayOptions {
            trace: Some(cgc_obs::TraceConfig {
                // Per-record stages (ingest/merge/queue/router) hold spans
                // in the ring until the end-of-run drain; size for it.
                ring_capacity: 1 << 20,
                max_spans_per_flow: 1 << 17,
                ..Default::default()
            }),
            ..Default::default()
        };
        let run = run_tap_fleet_replay(&bundle, &cfg, nettrace::VirtualClock::new().shared(), opts);
        assert_eq!(run.fleet.sessions.len(), 3);
        assert_eq!(run.traces.len(), 3, "one timeline per sampled flow");
        assert_eq!(
            run.fleet.snapshot.counter("cgc_trace_dropped_spans_total"),
            Some(0)
        );
        for m in &run.fleet.sessions {
            let tl = run.trace_for(&m.tuple).expect("trace per session");
            assert!(!tl.truncated);
            assert_eq!(
                tl.stages(),
                vec![
                    TraceStage::Ingest,
                    TraceStage::Merge,
                    TraceStage::Queue,
                    TraceStage::Router,
                    TraceStage::Shard,
                    TraceStage::Slot,
                    TraceStage::Classifier,
                    TraceStage::Verdict,
                ],
                "every pipeline stage left a span"
            );
            let chain = tl.causal_chain();
            assert_eq!(chain.first().unwrap().stage, TraceStage::Ingest);
            assert_eq!(chain.last().unwrap().stage, TraceStage::Verdict);
            // Trace flow ids are journal flow ids: the decision timeline
            // and the span timeline key to the same normalized hash.
            assert!(run.fleet.timeline_for(&m.tuple).is_some());
        }
        // Without the option, the same run keeps every stage span-free.
        let quiet = run_tap_fleet_replay(
            &bundle,
            &cfg,
            nettrace::VirtualClock::new().shared(),
            TapReplayOptions::default(),
        );
        assert!(quiet.traces.is_empty());
        assert_eq!(quiet.fleet.snapshot.counter("cgc_trace_spans_total"), None);
    }

    #[test]
    fn telemetry_reporter_with_slo_reports_health_each_boundary() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;

        let registry = cgc_obs::Registry::new();
        let done = AtomicUsize::new(0);
        // Virtual SLO clock stepped manually so burn windows are exact.
        let now = std::sync::Arc::new(AtomicUsize::new(1));
        let now_for_hub = std::sync::Arc::clone(&now);
        let hub = cgc_obs::SloHub::new(cgc_obs::SloConfig::default(), move || {
            now_for_hub.load(Ordering::Relaxed) as u64
        });
        let dropped = registry.counter("cgc_ingest_dropped_total", "");
        let accepted = registry.counter("cgc_ingest_enqueued_total", "");
        let reports: Mutex<Vec<(usize, Option<cgc_obs::SloReport>)>> = Mutex::new(Vec::new());
        let baseline = registry.snapshot();

        std::thread::scope(|scope| {
            scope.spawn(|| {
                telemetry_reporter_with_slo(
                    &registry,
                    baseline,
                    &done,
                    4,
                    2,
                    Some(&hub),
                    &mut |d, _delta, r| {
                        reports.lock().unwrap().push((d, r));
                    },
                );
            });
            accepted.add(1000);
            done.fetch_add(2, Ordering::Release);
            while reports.lock().unwrap().is_empty() {
                std::thread::yield_now();
            }
            // A drop burst between heartbeats: 20% of new records lost.
            now.store(60_000_000, Ordering::Relaxed);
            accepted.add(1000);
            dropped.add(250);
            done.fetch_add(2, Ordering::Release);
        });

        let reports = reports.into_inner().unwrap();
        assert_eq!(reports.len(), 2);
        let first = reports[0].1.as_ref().expect("slo report rides along");
        assert_eq!(first.health, cgc_obs::Health::Ok);
        let second = reports[1].1.as_ref().expect("slo report rides along");
        assert_ne!(
            second.health,
            cgc_obs::Health::Ok,
            "drop burst degrades the heartbeat verdict: {:?}",
            second
        );
        assert!(second
            .objectives
            .iter()
            .any(|o| o.kind == cgc_obs::ObjectiveKind::DropRatio && o.burn_fast >= 1.0));
    }

    #[test]
    fn split_feed_replay_matches_single_feed_replay() {
        let bundle = std::sync::Arc::new(train_bundle(&TrainConfig::quick()));
        let cfg = TapFleetConfig {
            n_sessions: 3,
            gameplay_secs: 10.0,
            shards: 2,
            ..Default::default()
        };
        let single = run_tap_fleet_replay(
            &bundle,
            &cfg,
            nettrace::VirtualClock::new().shared(),
            TapReplayOptions::default(),
        );
        assert_eq!(single.merge.labels, ["feed"]);
        assert_eq!(single.merge.late_total(), 0, "sorted feed is never late");

        let feed = build_tap_feed(&cfg);
        let sources: Vec<cgc_ingest::MergeSource> = cgc_ingest::split_round_robin(&feed, 3)
            .into_iter()
            .enumerate()
            .map(|(i, part)| cgc_ingest::MergeSource::new(format!("tap{i}"), part))
            .collect();
        let merged = run_tap_feed_replay(
            &bundle,
            cfg.shards,
            sources,
            nettrace::VirtualClock::new().shared(),
            TapReplayOptions::default(),
        );
        assert_eq!(merged.merge.labels, ["tap0", "tap1", "tap2"]);
        assert_eq!(merged.merge.merged_total(), feed.len() as u64);
        assert_eq!(merged.merge.late_total(), 0);
        assert_eq!(merged.dropped, 0);
        assert_eq!(merged.fleet.sessions.len(), single.fleet.sessions.len());
        for (a, b) in single.fleet.sessions.iter().zip(&merged.fleet.sessions) {
            assert_eq!(a.tuple, b.tuple);
            assert_eq!(
                serde_json::to_string(&a.report).unwrap(),
                serde_json::to_string(&b.report).unwrap()
            );
        }
        // The per-source counters registered on the run's registry.
        assert_eq!(
            merged
                .fleet
                .snapshot
                .counter("cgc_ingest_merge_records_total"),
            Some(feed.len() as u64)
        );
        assert_eq!(
            merged.fleet.snapshot.counter("cgc_ingest_merge_late_total"),
            Some(0)
        );
    }

    #[test]
    fn cancelled_fleet_returns_partial_records_in_order() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let bundle = train_bundle(&TrainConfig::quick());
        let cancel = std::sync::Arc::new(AtomicBool::new(true)); // pre-cancelled
        let records = run_fleet(
            &bundle,
            &FleetConfig {
                n_sessions: 8,
                duration_scale: 0.05,
                workers: 2,
                cancel: Some(std::sync::Arc::clone(&cancel)),
                ..Default::default()
            },
        );
        assert!(records.is_empty(), "pre-cancelled run completes nothing");

        cancel.store(false, Ordering::Relaxed);
        let records = run_fleet(
            &bundle,
            &FleetConfig {
                n_sessions: 4,
                duration_scale: 0.05,
                workers: 2,
                cancel: Some(cancel),
                ..Default::default()
            },
        );
        assert_eq!(records.len(), 4, "uncancelled flag changes nothing");
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.id, i as u64);
        }
    }

    #[test]
    fn fleet_progress_line_reports_nonzero_counter_deltas() {
        let r = cgc_obs::Registry::new();
        let a = r.counter("a_total", "");
        let _quiet = r.counter("quiet_total", "");
        let labelled = r.counter_with("b_total", "", &[("title", "dota_2")]);
        let before = r.snapshot();
        a.add(5);
        labelled.add(2);
        let line = fleet_progress_line(3, 10, &r.snapshot().delta(&before));
        assert!(line.starts_with("[fleet 3/10]"));
        assert!(line.contains("a_total +5"));
        assert!(line.contains("b_total{title=dota_2} +2"));
        assert!(!line.contains("quiet_total"));
    }

    #[test]
    fn telemetry_reporter_emits_exact_deltas_that_sum_to_final() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;

        // Deterministic harness: the "worker" adds to a counter, bumps
        // `done` by `every`, then waits for the reporter to emit before
        // the next batch — so every report boundary is observed exactly.
        let registry = cgc_obs::Registry::new();
        let counter = registry.counter("work_total", "units of work");
        let done = AtomicUsize::new(0);
        let reports: Mutex<Vec<(usize, cgc_obs::Snapshot)>> = Mutex::new(Vec::new());
        const EVERY: usize = 2;
        const BATCHES: usize = 5;
        let before = registry.snapshot();

        std::thread::scope(|scope| {
            // The baseline is taken here, before the "worker" below counts:
            // taken on the reporter thread it would race the first batch.
            let baseline = before.clone();
            scope.spawn(|| {
                telemetry_reporter(
                    &registry,
                    baseline,
                    &done,
                    EVERY * BATCHES,
                    EVERY,
                    &mut |d, delta| {
                        reports.lock().unwrap().push((d, delta));
                    },
                );
            });
            for batch in 0..BATCHES {
                counter.add(10 + batch as u64);
                done.fetch_add(EVERY, Ordering::Release);
                while reports.lock().unwrap().len() <= batch {
                    std::thread::yield_now();
                }
            }
        });

        let reports = reports.into_inner().unwrap();
        assert_eq!(reports.len(), BATCHES, "one report per `every` boundary");
        for (batch, (d, delta)) in reports.iter().enumerate() {
            assert_eq!(*d, (batch + 1) * EVERY);
            assert_eq!(
                delta.counter("work_total"),
                Some(10 + batch as u64),
                "delta of report {batch} is exactly that batch's increment"
            );
        }
        // Deltas sum back to the final snapshot's total.
        let summed: u64 = reports
            .iter()
            .filter_map(|(_, delta)| delta.counter("work_total"))
            .sum();
        let final_delta = registry.snapshot().delta(&before);
        assert_eq!(Some(summed), final_delta.counter("work_total"));
        assert_eq!(summed, counter.get());
    }

    #[test]
    fn telemetry_reporter_zero_interval_is_inert() {
        let registry = cgc_obs::Registry::new();
        let done = std::sync::atomic::AtomicUsize::new(5);
        let mut calls = 0usize;
        telemetry_reporter(&registry, registry.snapshot(), &done, 5, 0, &mut |_, _| {
            calls += 1
        });
        assert_eq!(calls, 0);
    }

    #[test]
    fn fleet_telemetry_reporter_does_not_disturb_results() {
        let bundle = train_bundle(&TrainConfig::quick());
        let cfg = FleetConfig {
            n_sessions: 6,
            duration_scale: 0.05,
            workers: 2,
            telemetry_every: 2,
            ..Default::default()
        };
        let records = run_fleet(&bundle, &cfg);
        assert_eq!(records.len(), 6);
    }

    #[test]
    fn impaired_sessions_exist_and_look_degraded() {
        let bundle = train_bundle(&TrainConfig::quick());
        let records = run_fleet(
            &bundle,
            &FleetConfig {
                n_sessions: 40,
                duration_scale: 0.05,
                impaired_fraction: 0.5,
                workers: 4,
                ..Default::default()
            },
        );
        let impaired: Vec<&SessionRecord> = records.iter().filter(|r| r.impaired).collect();
        assert!(impaired.len() > 5);
        // Impaired sessions should skew to worse effective QoE than clean.
        let bad_frac = |rs: &[&SessionRecord]| {
            rs.iter()
                .filter(|r| r.report.effective_qoe == cgc_domain::QoeLevel::Bad)
                .count() as f64
                / rs.len().max(1) as f64
        };
        let clean: Vec<&SessionRecord> = records.iter().filter(|r| !r.impaired).collect();
        assert!(
            bad_frac(&impaired) > bad_frac(&clean),
            "impaired {} vs clean {}",
            bad_frac(&impaired),
            bad_frac(&clean)
        );
    }
}
