//! The slot-level driver: each subscriber's session as one-second slots
//! through its own [`SessionAnalyzer`], in parallel.
//!
//! This is the deployment-scale input path — a `LaunchOnly` session is
//! its launch packets plus a volumetric series, hundreds of times smaller
//! than the same session as tap records — and the only driver that gives
//! every session its own QoS context, so it is where impairment profiles,
//! the withheld-truth quality join, shadow mirroring and the lifecycle
//! pilot are wired (ARCHITECTURE.md, "Wiring audit").

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use cgc_core::bundle::{ModelBundle, ModelSource};
use cgc_core::pipeline::{AnalyzerConfig, SessionAnalyzer, SessionReport};
use cgc_core::Obs;
use cgc_domain::{ActivityPattern, StreamSettings};
use cgc_obs::quality::{pattern_class, stage_class, title_class, ModelKind, QualitySink};
use gamesim::{Fidelity, SessionGenerator, TitleKind};
use nettrace::impair::ImpairmentProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use super::heartbeat::{fleet_progress_line, telemetry_reporter};
use super::population::{self, TitleMix};
use crate::lifecycle::ShadowMirror;

/// What a fleet run serves from: the live model source every session
/// pins at start, plus an optional shadow candidate that live decisions
/// are mirrored to for A/B scoring. A hot-swappable
/// [`LiveModel`](cgc_lifecycle::LiveModel) source keeps serving while a
/// publish lands mid-run.
#[derive(Clone, Copy)]
pub struct FleetModels<'a> {
    /// Live models — a fixed bundle or a hot-swappable slot.
    pub source: ModelSource<'a>,
    /// Candidate riding shadow, if any.
    pub shadow: Option<&'a ShadowMirror>,
}

/// A fixed bundle with no shadow — the pre-lifecycle shape.
impl<'a> From<&'a ModelBundle> for FleetModels<'a> {
    fn from(bundle: &'a ModelBundle) -> FleetModels<'a> {
        ModelSource::Fixed(bundle).into()
    }
}

/// Any model source with no shadow.
impl<'a> From<ModelSource<'a>> for FleetModels<'a> {
    fn from(source: ModelSource<'a>) -> FleetModels<'a> {
        FleetModels {
            source,
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
    /// Fraction of sessions behind degraded network paths.
    pub impaired_fraction: f64,
    /// Named impairment profile the impaired slice runs behind (the
    /// default is `poor-network`): delay, jitter, loss and a bottleneck
    /// queue over the profile's capacity schedule, with a mid-session
    /// degradation onset where the profile defines one.
    pub impair_profile: ImpairmentProfile,
    /// Quality sink for the withheld-truth join (disabled by default).
    /// Experiments sweeping several regimes in one process give each
    /// regime its own hub through this.
    pub quality: QualitySink,
    /// What every session's analyzer records into: pipeline metrics plus
    /// the journal (keyed by session id), trace and drift sinks. The
    /// default is [`Obs::global`] — global-registry metrics, no sinks.
    pub obs: Arc<Obs>,
    /// Sample catalog titles uniformly instead of by popularity —
    /// calibration passes use this so rare titles (Hearthstone is 0.04 %
    /// of playtime) still get their demand measured.
    pub uniform_titles: bool,
    /// Worker threads.
    pub workers: usize,
    /// Emit a pipeline-telemetry delta report (nonzero counter increments
    /// since the previous report) every this many completed sessions.
    /// `0` disables the reporter.
    pub telemetry_every: usize,
    /// Cooperative cancellation flag (a Ctrl-C handler sets it): workers
    /// stop claiming sessions once it reads `true`, and [`run_fleet`]
    /// returns the records completed so far.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        let mix = TitleMix::default();
        FleetConfig {
            n_sessions: 600,
            seed: 20241201, // deployment start: 1 Dec 2024
            duration_scale: 0.15,
            unknown_fraction: mix.unknown_fraction,
            impaired_fraction: 0.08,
            impair_profile: ImpairmentProfile::by_name("poor-network")
                .expect("the default profile is in the catalog"),
            quality: QualitySink::disabled(),
            obs: Obs::global(),
            uniform_titles: mix.uniform_titles,
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
    /// Name of the [`FleetConfig::impair_profile`] applied, when this
    /// session drew the impaired slice (`None` for unimpaired sessions).
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
    let mix = TitleMix {
        unknown_fraction: cfg.unknown_fraction,
        uniform_titles: cfg.uniform_titles,
    };
    let (kind, settings) = population::sample_subscriber(&mut rng, &mix);
    let gameplay_secs = population::sample_duration_secs(&kind, cfg.duration_scale, &mut rng);
    let mut session = generator.generate(&population::session_config(
        cfg.seed,
        id,
        (kind, settings),
        gameplay_secs,
        Fidelity::LaunchOnly,
    ));
    let network = population::draw_network(
        &mut session,
        &mut rng,
        cfg.impaired_fraction,
        &cfg.impair_profile,
    );
    let truth = population::truth(&session);

    // Run the pipeline. Flight-record against the session id (per-session
    // runs have no five-tuple hash), timestamped from the arrival instant.
    let mut analyzer = SessionAnalyzer::with_obs(
        bundle,
        AnalyzerConfig::default(),
        network.qoe,
        Arc::clone(&cfg.obs),
        id,
        network.arrival,
    );
    match network.degradation {
        // Mid-session degradation: feed slots one by one and swap the QoS
        // context at the first slot boundary past the onset, so the QoE
        // estimator sees the link change exactly when the channel did.
        Some((onset_us, post)) => {
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
        None => analyzer.analyze(&session.packets, &session.vol),
    }
    let report = analyzer.finish();
    let stage_truth_at = |slot: usize| {
        let mid = slot as u64 * report.slot_width + report.slot_width / 2;
        session.timeline.stage_at(mid).map(stage_class)
    };

    // Truth join: the fleet simulator withholds the ground-truth labels
    // ("server logs") from the pipeline, then streams (truth, predicted)
    // pairs into the quality hub here — per session for title/pattern,
    // per slot for stage. Free when the sink is disabled.
    let quality = &cfg.quality;
    if quality.is_enabled() {
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
            if let Some(truth) = stage_truth_at(i) {
                quality.emit(ModelKind::Stage, truth, stage_class(predicted));
            }
        }
    }

    // Shadow mirroring: replay the same session through the candidate
    // bundle (private pipeline metrics, so candidate inference never
    // pollutes the live counter families) and score live vs candidate
    // against the withheld ground truth.
    if let Some(shadow) = models.shadow {
        let mut mirror = SessionAnalyzer::with_metrics(
            &shadow.bundle,
            AnalyzerConfig::default(),
            network.qoe,
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
            shadow.score.observe(
                ModelKind::Stage,
                stage_class(live_stage),
                stage_class(cand_stage),
                stage_truth_at(i),
            );
        }
    }

    SessionRecord {
        id,
        truth_kind: kind,
        truth_pattern: kind.pattern(),
        settings,
        truth_stage_secs: truth.stage_secs,
        truth_mean_down_mbps: truth.mean_down_mbps,
        peak_down_mbps: truth.peak_down_mbps,
        impaired: network.impaired,
        impair_profile: network.profile.map(str::to_string),
        degradation_onset_us: network.degradation.map(|(onset, _)| onset),
        arrival: network.arrival,
        model_version,
        report,
    }
}

/// Runs the fleet in parallel, returning records ordered by session id.
///
/// `models` is a fixed `&ModelBundle`, any [`ModelSource`] — a
/// hot-swappable [`LiveModel`](cgc_lifecycle::LiveModel) slot keeps
/// serving while a publish lands mid-run, each session pinning its
/// version at start — or a full [`FleetModels`] whose attached
/// [`ShadowMirror`] A/B-scores a candidate on the same traffic.
///
/// With [`FleetConfig::telemetry_every`] set, a reporter thread rides along
/// and prints a [`fleet_progress_line`] delta of the global metrics
/// registry each time that many further sessions complete — the
/// deployment's heartbeat log.
///
/// With [`FleetConfig::cancel`] set, flipping the flag makes workers skip
/// the remaining sessions; the returned records then cover only the
/// sessions that completed (still in id order).
pub fn run_fleet<'a>(models: impl Into<FleetModels<'a>>, cfg: &FleetConfig) -> Vec<SessionRecord> {
    let models = models.into();
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
                let slo = cgc_obs::SloHub::real_time();
                telemetry_reporter(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::quick_bundle;

    fn quick_fleet(n: usize) -> Vec<SessionRecord> {
        let cfg = FleetConfig {
            n_sessions: n,
            duration_scale: 0.06,
            workers: 4,
            ..Default::default()
        };
        run_fleet(&*quick_bundle(), &cfg)
    }

    #[test]
    fn fleet_produces_ordered_complete_records() {
        let records = quick_fleet(24);
        assert_eq!(records.len(), 24);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!(!r.report.stage_slots.is_empty());
            assert!(r.truth_mean_down_mbps > 0.0);
        }
    }

    #[test]
    fn fleet_is_deterministic_across_worker_counts() {
        let bundle = quick_bundle();
        let mk = |workers: usize| {
            run_fleet(
                &*bundle,
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
        let records = quick_fleet(40);
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
        let bundle = quick_bundle();
        let cfg = FleetConfig {
            n_sessions: 10,
            duration_scale: 0.05,
            workers: 4,
            impaired_fraction: 1.0,
            impair_profile: ImpairmentProfile::by_name("clean").unwrap(),
            ..Default::default()
        };
        let records = run_fleet(&*bundle, &cfg);
        let baseline = run_fleet(
            &*bundle,
            &FleetConfig {
                impaired_fraction: 0.0,
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
        let cfg = FleetConfig {
            n_sessions: 10,
            duration_scale: 0.05,
            workers: 4,
            impaired_fraction: 1.0,
            impair_profile: ImpairmentProfile::by_name("lte-handover").unwrap(),
            ..Default::default()
        };
        let records = run_fleet(&*quick_bundle(), &cfg);
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
            impair_profile: ImpairmentProfile::by_name("lossy-wifi").unwrap(),
            quality: sink,
            ..Default::default()
        };
        let records = run_fleet(&*quick_bundle(), &cfg);
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
    fn cancelled_fleet_returns_partial_records_in_order() {
        let bundle = quick_bundle();
        let cancel = Arc::new(AtomicBool::new(true)); // pre-cancelled
        let records = run_fleet(
            &*bundle,
            &FleetConfig {
                n_sessions: 8,
                duration_scale: 0.05,
                workers: 2,
                cancel: Some(Arc::clone(&cancel)),
                ..Default::default()
            },
        );
        assert!(records.is_empty(), "pre-cancelled run completes nothing");

        cancel.store(false, Ordering::Relaxed);
        let records = run_fleet(
            &*bundle,
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
    fn fleet_telemetry_reporter_does_not_disturb_results() {
        let cfg = FleetConfig {
            n_sessions: 6,
            duration_scale: 0.05,
            workers: 2,
            telemetry_every: 2,
            ..Default::default()
        };
        let records = run_fleet(&*quick_bundle(), &cfg);
        assert_eq!(records.len(), 6);
    }

    #[test]
    fn impaired_sessions_exist_and_look_degraded() {
        let records = run_fleet(
            &*quick_bundle(),
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
