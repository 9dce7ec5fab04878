//! The subscriber population both fleet drivers sample from.
//!
//! One sampler, so the slot-level driver ([`run_fleet`](super::run_fleet))
//! and the tap feed ([`build_tap_feed`](super::build_tap_feed)) draw the
//! same kind of subscriber: a popularity-weighted title with a long tail
//! of unknown ones, the Table 2 settings matrix, a per-title duration, an
//! evening-peaked arrival, and a slice of degraded network paths — plus
//! the ground-truth aggregates ("server logs") of a generated session.
//!
//! Every function takes the caller's RNG and draws from it in a fixed
//! order; seeded fleets and feeds are pinned byte for byte (see the
//! digest tests below), so a draw may be added only at the end of a
//! caller's sequence, never in the middle.

use cgc_core::pipeline::QoeInputs;
use cgc_domain::catalog::CATALOG;
use cgc_domain::{ActivityPattern, Stage, StreamSettings};
use cgc_features::vol_attrs::raw_features;
use gamesim::dataset::sample_lab_settings;
use gamesim::profile::TitleProfile;
use gamesim::{Fidelity, Session, SessionConfig, TitleKind};
use nettrace::impair::{Impairment, ImpairmentConfig, ImpairmentProfile};
use nettrace::units::MICROS_PER_SEC;
use rand::rngs::StdRng;
use rand::Rng;

/// Which titles the population plays.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TitleMix {
    /// Fraction of sessions playing non-catalog titles.
    pub unknown_fraction: f64,
    /// Number of distinct unknown-title variants.
    pub unknown_variants: u32,
    /// Sample catalog titles uniformly instead of by popularity.
    pub uniform_titles: bool,
}

impl Default for TitleMix {
    fn default() -> Self {
        TitleMix {
            unknown_fraction: 0.25,
            unknown_variants: 8,
            uniform_titles: false,
        }
    }
}

fn sample_kind(rng: &mut StdRng, mix: &TitleMix) -> TitleKind {
    if rng.gen_bool(mix.unknown_fraction) {
        let variant = rng.gen_range(0..mix.unknown_variants.max(1));
        let pattern = if rng.gen_bool(0.6) {
            ActivityPattern::SpectateAndPlay
        } else {
            ActivityPattern::ContinuousPlay
        };
        return TitleKind::Other { pattern, variant };
    }
    if mix.uniform_titles {
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

/// Draws one subscriber: what they play, then the settings they stream at.
pub(crate) fn sample_subscriber(rng: &mut StdRng, mix: &TitleMix) -> (TitleKind, StreamSettings) {
    let kind = sample_kind(rng, mix);
    (kind, sample_lab_settings(rng))
}

/// Generator config of the population's session number `id` under master
/// seed `seed`.
pub(crate) fn session_config(
    seed: u64,
    id: u64,
    (kind, settings): (TitleKind, StreamSettings),
    gameplay_secs: f64,
    fidelity: Fidelity,
) -> SessionConfig {
    SessionConfig {
        kind,
        settings,
        gameplay_secs,
        fidelity,
        seed: seed.wrapping_add(id.wrapping_mul(0x51ed_270b)),
    }
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

/// Gameplay seconds of one session of `kind`, from the per-title duration
/// model scaled by `scale`.
pub(crate) fn sample_duration_secs(kind: &TitleKind, scale: f64, rng: &mut StdRng) -> f64 {
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

/// Degrades a fleet session through a named impairment profile: launch
/// packets through the profile's channel (correlated jitter, burst loss,
/// bufferbloat queue over its capacity schedule), the volumetric series
/// through capacity caps and loss thinning from the onset, and synthesizes
/// the gray-box QoS context the observability module would measure on such
/// a link. `capacity_scale` composes the profile with an external schedule
/// window (diurnal congestion); 1.0 is neutral.
///
/// Returns the QoS context in effect from the session start and, for a
/// profile that degrades mid-session, the onset (µs from session start)
/// with the context from then on.
fn impair_session_profile(
    profile: &ImpairmentProfile,
    s: &mut Session,
    rng: &mut StdRng,
    capacity_scale: f64,
) -> (QoeInputs, Option<(u64, QoeInputs)>) {
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
    let degraded = QoeInputs {
        nominal_fps: s.settings.fps as f64,
        latency_ms: rng.gen_range(lat_lo..lat_hi.max(lat_lo + f64::EPSILON)),
        loss_rate: profile.expected_loss_rate(),
        settings_factor: s.settings.bitrate_factor(),
        delivered_fps_ratio: rng.gen_range(fps_lo..fps_hi.max(fps_lo + f64::EPSILON)),
    };
    match plan.onset {
        Some(onset) => (clean_qoe(&s.settings, rng), Some((onset, degraded))),
        None => (degraded, None),
    }
}

/// The network one session ran behind.
pub(crate) struct NetworkDraw {
    /// QoS context in effect from the session start.
    pub qoe: QoeInputs,
    /// Mid-session degradation: onset (µs from session start) and the QoS
    /// context from then on. `None` when the context holds throughout.
    pub degradation: Option<(u64, QoeInputs)>,
    /// Whether the session ran behind a degraded path.
    pub impaired: bool,
    /// Arrival within the deployment window, µs since deployment start.
    pub arrival: u64,
}

/// Draws `session`'s network path and arrival, degrading the session in
/// place when it lands in the impaired slice. Legacy mode (no named
/// profile) keeps the historical RNG draw order byte-for-byte so seeded
/// fleets stay reproducible across releases; profile mode samples the
/// arrival first so diurnal profiles can scale their capacity schedule by
/// the hour's congestion.
pub(crate) fn draw_network(
    session: &mut Session,
    rng: &mut StdRng,
    impaired_fraction: f64,
    profile: Option<&ImpairmentProfile>,
    deployment_days: u32,
) -> NetworkDraw {
    let impaired_draw = rng.gen_bool(impaired_fraction);
    match profile {
        Some(profile) => {
            let arrival = sample_arrival(deployment_days, rng);
            let hour = ((arrival / 3_600_000_000) % 24) as usize;
            let scale = if profile.diurnal {
                diurnal_congestion_factor(hour)
            } else {
                1.0
            };
            let (qoe, degradation, impaired) = if impaired_draw {
                let (qoe, degradation) = impair_session_profile(profile, session, rng, scale);
                (qoe, degradation, profile.is_degrading())
            } else {
                (clean_qoe(&session.settings, rng), None, false)
            };
            NetworkDraw {
                qoe,
                degradation,
                impaired,
                arrival,
            }
        }
        None => {
            let qoe = if impaired_draw {
                impair_session(session, rng)
            } else {
                clean_qoe(&session.settings, rng)
            };
            NetworkDraw {
                qoe,
                degradation: None,
                impaired: impaired_draw,
                arrival: sample_arrival(deployment_days, rng),
            }
        }
    }
}

/// Ground-truth aggregates of one generated session.
pub(crate) struct Truth {
    /// Seconds per stage `[launch, idle, passive, active]`.
    pub stage_secs: [f64; 4],
    /// Mean downstream throughput, Mbps.
    pub mean_down_mbps: f64,
    /// 95th-percentile 1 s-slot downstream throughput, Mbps.
    pub peak_down_mbps: f64,
}

/// Aggregates `session`'s timeline and volumetric series as delivered —
/// call after [`draw_network`], which may have degraded them.
pub(crate) fn truth(session: &Session) -> Truth {
    let stage_secs: [f64; 4] =
        [Stage::Launch, Stage::Idle, Stage::Passive, Stage::Active].map(|st| {
            session
                .timeline
                .spans
                .iter()
                .filter(|sp| sp.stage == st)
                .map(|sp| sp.duration() as f64 / 1e6)
                .sum()
        });
    let vol_1s = session.vol_at(MICROS_PER_SEC);
    // Demand proxy over *gameplay* slots only: low-demand titles stream
    // their launch animation above their gameplay peak, which would
    // otherwise inflate the learned expectation.
    let launch_slots = stage_secs[0].ceil() as usize;
    let mut slot_mbps: Vec<f64> = (launch_slots..vol_1s.len())
        .map(|i| raw_features(&vol_1s.samples[i], 1.0)[0])
        .collect();
    slot_mbps.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Truth {
        stage_secs,
        mean_down_mbps: vol_1s.mean_down_mbps(),
        peak_down_mbps: nettrace::stats::percentile_sorted(&slot_mbps, 0.95),
    }
}

#[cfg(test)]
mod tests {
    use crate::fleet::{build_tap_feed, run_fleet, FleetConfig, TapFleetConfig};
    use crate::train::quick_bundle;
    use nettrace::impair::ImpairmentProfile;

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    // The digests below were computed at the commit before the population
    // moved here (PR 14, aad5433). A mismatch means an RNG draw was
    // added, dropped or reordered: every seeded fleet, feed, benchmark
    // workload and committed result would silently change with it.

    #[test]
    fn default_tap_feed_digest_is_pinned() {
        let feed = build_tap_feed(&TapFleetConfig::default());
        let text: String = feed
            .iter()
            .map(|(ts, tuple, len)| format!("{ts} {tuple} {len}\n"))
            .collect();
        assert_eq!(feed.len(), 340_247);
        assert_eq!(fnv1a(text.as_bytes()), 0xb575_f8a2_fe08_7a28);
    }

    fn fleet_digest(profile: Option<ImpairmentProfile>) -> u64 {
        let records = run_fleet(
            &*quick_bundle(),
            &FleetConfig {
                n_sessions: 24,
                duration_scale: 0.06,
                // Half and half, so both sides of the impaired draw run.
                impaired_fraction: 0.5,
                impair_profile: profile,
                workers: 3,
                ..Default::default()
            },
        );
        fnv1a(serde_json::to_string(&records).unwrap().as_bytes())
    }

    #[test]
    fn legacy_fleet_records_digest_is_pinned() {
        assert_eq!(fleet_digest(None), 0xd48b_faf4_7ce3_6fcf);
    }

    #[test]
    fn profile_fleet_records_digest_is_pinned() {
        let profile = ImpairmentProfile::by_name("lte-handover");
        assert!(profile.is_some());
        assert_eq!(fleet_digest(profile), 0x470d_c0ec_88a2_3504);
    }
}
