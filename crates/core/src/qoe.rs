//! Objective and effective QoE (§5.3).
//!
//! The ISP's observability module labels each session (or slot) as
//! good / medium / bad by mapping measured QoS — streaming frame rate,
//! throughput, latency, packet loss — onto fixed expected ranges (e.g.
//! below 30 fps or 8 Mbps ⇒ bad). That is the **objective QoE**.
//!
//! The **effective QoE** calibrates the frame-rate and throughput
//! expectations with the classified gameplay context: a Hearthstone
//! session at 6 Mbps or an idle lobby at 20 fps is *fine*, not degraded.
//! Latency and loss expectations stay unchanged — network damage is
//! network damage regardless of context.

use cgc_domain::{ActivityPattern, GameTitle, QoeLevel, Stage};
use nettrace::packet::{Direction, Packet};
use nettrace::units::{Micros, MICROS_PER_SEC};
use serde::{Deserialize, Serialize};

/// Measured QoS metrics of a session or slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QosMetrics {
    /// Downstream throughput, Mbps.
    pub throughput_mbps: f64,
    /// Delivered streaming frame rate, fps.
    pub frame_rate: f64,
    /// Network round-trip latency, milliseconds.
    pub latency_ms: f64,
    /// Packet loss rate in `[0, 1]`.
    pub loss_rate: f64,
}

/// The observability platform's fixed expected ranges.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveThresholds {
    /// Frame rate below this ⇒ bad (paper example: 30 fps).
    pub bad_fps: f64,
    /// Frame rate below this ⇒ at most medium.
    pub medium_fps: f64,
    /// Throughput below this ⇒ bad (paper example: 8 Mbps).
    pub bad_mbps: f64,
    /// Throughput below this ⇒ at most medium.
    pub medium_mbps: f64,
    /// Latency above this ⇒ bad (the paper flags lag mostly over 70 ms).
    pub bad_latency_ms: f64,
    /// Latency above this ⇒ at most medium.
    pub medium_latency_ms: f64,
    /// Loss above this ⇒ bad.
    pub bad_loss: f64,
    /// Loss above this ⇒ at most medium.
    pub medium_loss: f64,
}

impl Default for ObjectiveThresholds {
    fn default() -> Self {
        ObjectiveThresholds {
            bad_fps: 30.0,
            medium_fps: 45.0,
            bad_mbps: 8.0,
            medium_mbps: 12.0,
            bad_latency_ms: 70.0,
            medium_latency_ms: 40.0,
            bad_loss: 0.02,
            medium_loss: 0.005,
        }
    }
}

fn worst(levels: impl IntoIterator<Item = QoeLevel>) -> QoeLevel {
    levels.into_iter().min().unwrap_or(QoeLevel::Good)
}

fn level_low(value: f64, bad_below: f64, medium_below: f64) -> QoeLevel {
    if value < bad_below {
        QoeLevel::Bad
    } else if value < medium_below {
        QoeLevel::Medium
    } else {
        QoeLevel::Good
    }
}

fn level_high(value: f64, bad_above: f64, medium_above: f64) -> QoeLevel {
    if value > bad_above {
        QoeLevel::Bad
    } else if value > medium_above {
        QoeLevel::Medium
    } else {
        QoeLevel::Good
    }
}

/// Objective QoE: the worst of the four per-metric levels under fixed
/// expected ranges.
pub fn objective_qoe(m: &QosMetrics, thr: &ObjectiveThresholds) -> QoeLevel {
    worst([
        level_low(m.frame_rate, thr.bad_fps, thr.medium_fps),
        level_low(m.throughput_mbps, thr.bad_mbps, thr.medium_mbps),
        level_high(m.latency_ms, thr.bad_latency_ms, thr.medium_latency_ms),
        level_high(m.loss_rate, thr.bad_loss, thr.medium_loss),
    ])
}

/// The gameplay context used for calibration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GameContext {
    /// Classified title, if confident.
    pub title: Option<GameTitle>,
    /// Inferred activity pattern (used when the title is unknown).
    pub pattern: Option<ActivityPattern>,
    /// Player activity stage of the slot (or dominant stage of the session).
    pub stage: Stage,
    /// Bitrate multiplier of the session's negotiated streaming settings
    /// relative to the SD/30 fps floor (prior work detects the device and
    /// resolution tier from traffic; the paper keys its expected ranges to
    /// those per-settings bandwidth clusters). Use 1.0 when unknown.
    pub settings_factor: f64,
    /// Negotiated streaming frame rate of the session, fps; 0 when unknown
    /// (frame-rate expectations then fall back to the stage-scaled
    /// objective bars).
    pub nominal_fps: f64,
}

/// Empirically learned demand expectations per context: the deployment
/// measures each title's (and pattern's) typical active-stage bandwidth
/// *normalized by the settings tier* (the per-settings clusters of
/// Fig. 12) and feeds it back into the calibration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationTable {
    /// Typical active-stage throughput per catalog title at the SD/30 fps
    /// settings floor, Mbps (multiply by the settings factor for a tier).
    pub title_mbps: Vec<(GameTitle, f64)>,
    /// Typical normalized active-stage throughput per pattern (unknowns).
    pub pattern_mbps: [f64; 2],
    /// Fallback when nothing is known.
    pub default_mbps: f64,
}

impl Default for CalibrationTable {
    /// A neutral table assuming ~5 Mbps-per-settings-unit demand (a
    /// mid-catalog title) — deployments override it from measurement (see
    /// `cgc-deploy`).
    fn default() -> Self {
        CalibrationTable {
            title_mbps: Vec::new(),
            pattern_mbps: [5.0, 5.0],
            default_mbps: 5.0,
        }
    }
}

impl CalibrationTable {
    /// Expected active-stage throughput of a context at its settings tier,
    /// Mbps.
    fn expected_active_mbps(&self, ctx: &GameContext) -> f64 {
        let factor = if ctx.settings_factor > 0.0 {
            ctx.settings_factor
        } else {
            1.0
        };
        if let Some(t) = ctx.title {
            if let Some((_, mbps)) = self.title_mbps.iter().find(|(x, _)| *x == t) {
                return *mbps * factor;
            }
        }
        if let Some(p) = ctx.pattern {
            return self.pattern_mbps[p.index()] * factor;
        }
        self.default_mbps * factor
    }

    /// Records a measured typical demand for a title.
    pub fn set_title(&mut self, title: GameTitle, mbps: f64) {
        if let Some(e) = self.title_mbps.iter_mut().find(|(t, _)| *t == title) {
            e.1 = mbps;
        } else {
            self.title_mbps.push((title, mbps));
        }
    }
}

/// How much of the active-stage demand a stage intrinsically needs
/// (§3.3's relative volumetric levels).
fn stage_demand_factor(stage: Stage) -> f64 {
    match stage {
        Stage::Active => 1.0,
        Stage::Passive => 0.85,
        Stage::Idle => 0.18,
        Stage::Launch => 0.45,
    }
}

/// How much of the configured frame rate a stage intrinsically needs.
pub fn stage_fps_factor(stage: Stage) -> f64 {
    match stage {
        Stage::Active | Stage::Passive => 1.0,
        Stage::Idle => 0.35,
        Stage::Launch => 0.5,
    }
}

/// Effective QoE: frame-rate and throughput expectations are scaled by the
/// context (title/pattern demand × stage factor); latency and loss
/// expectations stay objective.
pub fn effective_qoe(
    m: &QosMetrics,
    ctx: &GameContext,
    table: &CalibrationTable,
    thr: &ObjectiveThresholds,
) -> QoeLevel {
    let expected = table.expected_active_mbps(ctx) * stage_demand_factor(ctx.stage);
    // Context can only *lower* the bar, never demand more than the
    // objective ranges (a high-demand context still passes at 8 Mbps if
    // nothing is visibly wrong). `expected` is a *typical* level, not a
    // floor, so the bars sit well below it to absorb per-slot encoder
    // variation.
    let bad_mbps = thr.bad_mbps.min(0.35 * expected);
    let medium_mbps = thr.medium_mbps.min(0.6 * expected);
    // Frame-rate expectation: the stage's fraction of the *negotiated*
    // rate when known (a healthy 30 fps card game session is not
    // degraded), else the stage-scaled objective bars.
    let f = stage_fps_factor(ctx.stage);
    let (bad_fps, medium_fps) = if ctx.nominal_fps > 0.0 {
        let expected_fps = ctx.nominal_fps * f;
        (
            thr.bad_fps.min(0.5 * expected_fps),
            thr.medium_fps.min(0.8 * expected_fps),
        )
    } else {
        (thr.bad_fps * f, thr.medium_fps * f)
    };
    worst([
        level_low(m.frame_rate, bad_fps, medium_fps),
        level_low(m.throughput_mbps, bad_mbps, medium_mbps),
        level_high(m.latency_ms, thr.bad_latency_ms, thr.medium_latency_ms),
        level_high(m.loss_rate, thr.bad_loss, thr.medium_loss),
    ])
}

/// Majority QoE level over a session's slot labels (the paper reports the
/// majority label per session); ties resolve to the worse level.
pub fn majority_level(levels: &[QoeLevel]) -> QoeLevel {
    let mut counts = [0usize; 3];
    for l in levels {
        counts[*l as usize] += 1;
    }
    let mut best = QoeLevel::Good;
    let mut best_count = 0;
    for l in [QoeLevel::Good, QoeLevel::Medium, QoeLevel::Bad] {
        if counts[l as usize] >= best_count {
            // `>=` walks toward worse levels on ties.
            if counts[l as usize] > 0 {
                best = l;
                best_count = counts[l as usize];
            }
        }
    }
    if best_count == 0 {
        QoeLevel::Good
    } else {
        best
    }
}

/// Measures the delivered frame rate from downstream RTP marker bits
/// (markers close encoded frames) over the packet window — the gray-box
/// objective QoE estimation of prior work \[32\].
pub fn measure_fps(packets: &[Packet], window: Micros) -> f64 {
    if window == 0 {
        return 0.0;
    }
    let frames = packets
        .iter()
        .filter(|p| p.dir == Direction::Downstream && p.marker)
        .count();
    frames as f64 * MICROS_PER_SEC as f64 / window as f64
}

/// Estimates downstream loss from RTP sequence-number gaps.
pub fn measure_loss(packets: &[Packet]) -> f64 {
    let seqs: Vec<u16> = packets
        .iter()
        .filter(|p| p.dir == Direction::Downstream)
        .map(|p| p.seq)
        .collect();
    if seqs.len() < 2 {
        return 0.0;
    }
    let mut expected = 0u64;
    let mut received = 0u64;
    for w in seqs.windows(2) {
        let gap = w[1].wrapping_sub(w[0]);
        // Reordered or duplicated packets contribute no loss signal.
        if (1..1000).contains(&gap) {
            expected += u64::from(gap);
            received += 1;
        }
    }
    if expected == 0 {
        0.0
    } else {
        1.0 - (received as f64 / expected as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good_metrics() -> QosMetrics {
        QosMetrics {
            throughput_mbps: 25.0,
            frame_rate: 60.0,
            latency_ms: 15.0,
            loss_rate: 0.001,
        }
    }

    #[test]
    fn objective_levels() {
        let thr = ObjectiveThresholds::default();
        assert_eq!(objective_qoe(&good_metrics(), &thr), QoeLevel::Good);
        assert_eq!(
            objective_qoe(
                &QosMetrics {
                    frame_rate: 25.0,
                    ..good_metrics()
                },
                &thr
            ),
            QoeLevel::Bad
        );
        assert_eq!(
            objective_qoe(
                &QosMetrics {
                    throughput_mbps: 10.0,
                    ..good_metrics()
                },
                &thr
            ),
            QoeLevel::Medium
        );
        assert_eq!(
            objective_qoe(
                &QosMetrics {
                    latency_ms: 100.0,
                    ..good_metrics()
                },
                &thr
            ),
            QoeLevel::Bad
        );
    }

    #[test]
    fn low_demand_title_is_rescued_by_context() {
        // Hearthstone at 5 Mbps / 24 fps in idle: objectively "bad", but
        // the card game only ever needs ~6 Mbps.
        let thr = ObjectiveThresholds::default();
        let m = QosMetrics {
            throughput_mbps: 5.0,
            frame_rate: 24.0,
            latency_ms: 15.0,
            loss_rate: 0.0,
        };
        assert_eq!(objective_qoe(&m, &thr), QoeLevel::Bad);
        let mut table = CalibrationTable::default();
        table.set_title(GameTitle::Hearthstone, 6.0);
        let ctx = GameContext {
            title: Some(GameTitle::Hearthstone),
            pattern: None,
            stage: Stage::Idle,
            settings_factor: 1.0,
            nominal_fps: 0.0,
        };
        assert_eq!(effective_qoe(&m, &ctx, &table, &thr), QoeLevel::Good);
    }

    #[test]
    fn network_damage_is_not_excused() {
        // High latency stays bad no matter the context.
        let thr = ObjectiveThresholds::default();
        let m = QosMetrics {
            latency_ms: 120.0,
            ..good_metrics()
        };
        let ctx = GameContext {
            title: Some(GameTitle::Hearthstone),
            pattern: None,
            stage: Stage::Idle,
            settings_factor: 1.0,
            nominal_fps: 0.0,
        };
        assert_eq!(
            effective_qoe(&m, &ctx, &CalibrationTable::default(), &thr),
            QoeLevel::Bad
        );
    }

    #[test]
    fn active_stage_of_demanding_title_keeps_the_bar() {
        let thr = ObjectiveThresholds::default();
        let mut table = CalibrationTable::default();
        table.set_title(GameTitle::Fortnite, 40.0);
        let ctx = GameContext {
            title: Some(GameTitle::Fortnite),
            pattern: None,
            stage: Stage::Active,
            settings_factor: 1.0,
            nominal_fps: 0.0,
        };
        let m = QosMetrics {
            throughput_mbps: 6.0,
            frame_rate: 28.0,
            latency_ms: 10.0,
            loss_rate: 0.0,
        };
        // Starved active Fortnite stays bad under both measures.
        assert_eq!(objective_qoe(&m, &thr), QoeLevel::Bad);
        assert_eq!(effective_qoe(&m, &ctx, &table, &thr), QoeLevel::Bad);
    }

    #[test]
    fn pattern_fallback_for_unknown_titles() {
        let table = CalibrationTable {
            pattern_mbps: [25.0, 15.0],
            default_mbps: 5.0,
            ..Default::default()
        };
        let ctx = GameContext {
            title: None,
            pattern: Some(ActivityPattern::ContinuousPlay),
            stage: Stage::Active,
            settings_factor: 1.0,
            nominal_fps: 0.0,
        };
        assert_eq!(table.expected_active_mbps(&ctx), 15.0);
        let none = GameContext {
            title: None,
            pattern: None,
            stage: Stage::Active,
            settings_factor: 2.0,
            nominal_fps: 0.0,
        };
        assert_eq!(table.expected_active_mbps(&none), 10.0);
    }

    #[test]
    fn majority_level_prefers_worse_on_ties() {
        use QoeLevel::*;
        assert_eq!(majority_level(&[Good, Good, Bad]), Good);
        assert_eq!(majority_level(&[Good, Bad]), Bad);
        assert_eq!(majority_level(&[Medium, Medium, Good]), Medium);
        assert_eq!(majority_level(&[]), Good);
    }

    #[test]
    fn fps_measurement_counts_markers() {
        let mut pkts = Vec::new();
        for i in 0..120u64 {
            let mut p = Packet::new(i * 16_666, Direction::Downstream, 1432);
            p.marker = i % 2 == 1; // 60 frames over 2 s
            pkts.push(p);
        }
        let fps = measure_fps(&pkts, 2 * MICROS_PER_SEC);
        assert!((fps - 30.0).abs() < 0.5, "fps {fps}");
        assert_eq!(measure_fps(&pkts, 0), 0.0);
    }

    #[test]
    fn loss_measurement_from_seq_gaps() {
        // Sequences 0..100 with every 10th missing: 10 % loss.
        let pkts: Vec<Packet> = (0..100u16)
            .filter(|s| s % 10 != 9)
            .enumerate()
            .map(|(i, s)| {
                let mut p = Packet::new(i as u64 * 1000, Direction::Downstream, 100);
                p.seq = s;
                p
            })
            .collect();
        let loss = measure_loss(&pkts);
        assert!((loss - 0.1).abs() < 0.02, "loss {loss}");
        assert_eq!(measure_loss(&[]), 0.0);
    }

    #[test]
    fn stage_factors_are_ordered() {
        assert!(stage_demand_factor(Stage::Active) > stage_demand_factor(Stage::Passive));
        assert!(stage_demand_factor(Stage::Passive) > stage_demand_factor(Stage::Idle));
        assert_eq!(
            stage_fps_factor(Stage::Active),
            stage_fps_factor(Stage::Passive)
        );
        assert!(stage_fps_factor(Stage::Idle) < 1.0);
    }
}
