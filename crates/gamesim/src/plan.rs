//! Gameplay rate plans: from a stage timeline to concrete traffic.
//!
//! The generator first lays out *what the encoder and the input loop would
//! send* per 100 ms sub-slot — downstream video bytes and frame count,
//! upstream input packet rate — as a function of the ground-truth stage,
//! the title's demand and the stream settings, plus bounded stochastic
//! texture (AR(1) rate noise, upstream spikes from stray inputs during
//! passive/idle, downstream dips on scene changes, short ramps at stage
//! boundaries). The plan is then realized either as individual packets
//! (lab fidelity) or directly as volumetric samples (fleet fidelity); both
//! paths read the same numbers, so statistics agree across fidelities.

use cgc_domain::{Stage, StreamSettings};
use nettrace::packet::{Direction, Packet};
use nettrace::units::Micros;
use nettrace::vol::VolSample;
use rand::rngs::StdRng;
use rand::Rng;
use rand_distr_normal::sample_normal;

use crate::profile::TitleProfile;
use crate::stages::StageTimeline;

/// Plan resolution: one sub-slot = 100 ms.
pub const SUBSLOT: Micros = 100_000;

/// Wire overhead per packet (Ethernet+IP+UDP+RTP), mirrored from
/// [`nettrace::packet::WIRE_OVERHEAD`] as f64 for rate math.
const OVERHEAD: f64 = 54.0;

/// Per-stage traffic levels relative to the active stage (§3.3: relative
/// levels are consistent across titles and settings).
#[derive(Debug, Clone, Copy)]
struct StageLevel {
    /// Downstream bitrate fraction of the active peak.
    down: f64,
    /// Frame-rate fraction of the configured fps.
    fps: f64,
    /// Upstream input packet-rate fraction of the active rate.
    up: f64,
}

fn stage_level(stage: Stage) -> StageLevel {
    match stage {
        // Combat: everything at peak.
        Stage::Active => StageLevel {
            down: 1.0,
            fps: 1.0,
            up: 1.0,
        },
        // Spectating: graphics keep refreshing, inputs nearly stop.
        Stage::Passive => StageLevel {
            down: 0.85,
            fps: 1.0,
            up: 0.20,
        },
        // Lobby/menus: the encoder backs off on static scenes.
        Stage::Idle => StageLevel {
            down: 0.18,
            fps: 0.35,
            up: 0.08,
        },
        // Launch traffic comes from the launch signature, not the plan.
        Stage::Launch => StageLevel {
            down: 0.0,
            fps: 0.0,
            up: 0.0,
        },
    }
}

/// One 100 ms sub-slot of the gameplay plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubTarget {
    /// Ground-truth stage of the sub-slot.
    pub stage: Stage,
    /// Downstream video payload bytes to deliver in the sub-slot.
    pub down_payload_bytes: f64,
    /// Video frames to deliver in the sub-slot (fractional).
    pub frames: f64,
    /// Upstream input packets to send in the sub-slot (fractional).
    pub up_pkts: f64,
    /// Mean upstream payload size, bytes.
    pub up_payload_mean: f64,
}

/// The traffic plan of a session's gameplay portion.
#[derive(Debug, Clone, PartialEq)]
pub struct GameplayPlan {
    /// Timestamp of the first sub-slot (gameplay start = launch end).
    pub start: Micros,
    /// Maximum RTP payload on the session's platform, bytes.
    pub max_payload: u32,
    /// Sub-slot targets covering `[start, start + len · SUBSLOT)`.
    pub sub: Vec<SubTarget>,
}

/// tiny inline normal sampler (Box–Muller) so the crate needs no extra
/// dependency beyond `rand`.
mod rand_distr_normal {
    use rand::rngs::StdRng;
    use rand::Rng;

    pub(super) fn sample_normal(rng: &mut StdRng, mean: f64, std: f64) -> f64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen();
        mean + std * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

impl GameplayPlan {
    /// Builds the plan for a timeline under a title profile and settings.
    pub fn generate(
        timeline: &StageTimeline,
        profile: &TitleProfile,
        settings: &StreamSettings,
        rng: &mut StdRng,
    ) -> GameplayPlan {
        let launch_end = timeline
            .spans
            .first()
            .filter(|s| s.stage == Stage::Launch)
            .map_or(0, |s| s.end);
        let end = timeline.end();
        let n = ((end - launch_end) / SUBSLOT) as usize;

        let peak_mbps = profile.base_mbps * settings.bitrate_factor();
        let peak_bytes_per_sub = peak_mbps * 1e6 / 8.0 * (SUBSLOT as f64 / 1e6);
        let active_up_pps: f64 = rng.gen_range(75.0..130.0);
        let up_payload_mean: f64 = rng.gen_range(55.0..95.0);

        // AR(1) multiplicative noise, stationary sigma ~= 0.07.
        let mut ar = 1.0f64;
        // Event state: remaining sub-slots of an upstream spike / downstream dip.
        let mut spike_left = 0u32;
        let mut dip_left = 0u32;
        // Ramp state: blend toward the level the stage was entered from.
        let mut cur_stage = Stage::Idle;
        let mut ramp_from = Stage::Idle;
        let mut ramp_left = 0u32;
        const RAMP_SUBS: u32 = 3;

        let mut sub = Vec::with_capacity(n);
        for i in 0..n {
            let ts = launch_end + i as u64 * SUBSLOT + SUBSLOT / 2;
            let stage = timeline.stage_at(ts).unwrap_or(Stage::Idle);
            if stage != cur_stage {
                ramp_from = cur_stage;
                cur_stage = stage;
                ramp_left = RAMP_SUBS;
            }

            let mut level = stage_level(stage);
            if ramp_left > 0 {
                // Linear ramp from the previous stage's level.
                let from = stage_level(ramp_from);
                let a = ramp_left as f64 / (RAMP_SUBS + 1) as f64;
                level = StageLevel {
                    down: level.down * (1.0 - a) + from.down * a,
                    fps: level.fps * (1.0 - a) + from.fps * a,
                    up: level.up * (1.0 - a) + from.up * a,
                };
                ramp_left -= 1;
            }

            ar = (1.0 + 0.9 * (ar - 1.0) + sample_normal(rng, 0.0, 0.03)).clamp(0.6, 1.4);

            // Stray-input spikes while not actively playing (§4.3.1's
            // "accidental mouse movement when spectating").
            if spike_left == 0
                && (stage == Stage::Passive || stage == Stage::Idle)
                && rng.gen_bool(0.006)
            {
                spike_left = rng.gen_range(1..=3);
            }
            // Scene-change dips while actively playing.
            if dip_left == 0 && stage == Stage::Active && rng.gen_bool(0.006) {
                dip_left = rng.gen_range(1..=3);
            }

            let mut up_frac = level.up;
            if spike_left > 0 {
                spike_left -= 1;
                up_frac = rng.gen_range(0.7..1.1);
            }
            let mut down_frac = level.down;
            if dip_left > 0 {
                dip_left -= 1;
                down_frac *= 0.5;
            }

            let fps_eff = (settings.fps as f64 * level.fps).max(1.0);
            sub.push(SubTarget {
                stage,
                down_payload_bytes: (peak_bytes_per_sub * down_frac * ar).max(0.0),
                frames: fps_eff * (SUBSLOT as f64 / 1e6),
                up_pkts: (active_up_pps * up_frac * ar).max(0.5) * (SUBSLOT as f64 / 1e6),
                up_payload_mean,
            });
        }
        GameplayPlan {
            start: launch_end,
            max_payload: settings.platform.max_payload(),
            sub,
        }
    }

    /// Synthesizes volumetric samples at [`SUBSLOT`] width directly from
    /// the plan (fleet fidelity), statistically matching
    /// [`GameplayPlan::emit_packets`] — including the sub-second frame
    /// burstiness packets naturally have: individual 100 ms bins fluctuate
    /// by ±20 % (I/P-frame size variation, burst placement) while
    /// one-second aggregates smooth it out, which is why the paper's
    /// `I = 1 s` slots beat overly granular ones.
    pub fn to_vol_samples(&self, rng: &mut StdRng) -> Vec<VolSample> {
        self.sub
            .iter()
            .map(|t| {
                let burst: f64 = rng.gen_range(0.78..1.22);
                let payload = t.down_payload_bytes * burst;
                let frames = t.frames.max(1e-9);
                let frame_bytes = payload / frames;
                let pkts_per_frame = (frame_bytes / f64::from(self.max_payload)).ceil().max(1.0);
                let down_pkts = (frames * pkts_per_frame).round();
                // Inputs arrive as a point process: quasi-Poisson counts.
                let up_pkts = (t.up_pkts * rng.gen_range(0.5f64..1.5)).round();
                VolSample {
                    down_bytes: (payload + OVERHEAD * down_pkts).round() as u64,
                    down_pkts: down_pkts as u64,
                    up_bytes: (up_pkts * (t.up_payload_mean + OVERHEAD)).round() as u64,
                    up_pkts: up_pkts as u64,
                }
            })
            .collect()
    }

    /// Emits gameplay packets (lab fidelity): downstream video as frame
    /// bursts of full packets plus a remainder packet with the RTP marker
    /// on the last packet of each frame, upstream inputs as small packets
    /// at the planned rate.
    pub fn emit_packets(&self, rng: &mut StdRng) -> Vec<Packet> {
        let mut out = Vec::new();
        let mut frame_acc = 0.0f64;
        let mut up_acc = 0.0f64;
        let mut seq_down: u16 = 0;
        let mut seq_up: u16 = 0;

        for (i, t) in self.sub.iter().enumerate() {
            let sub_start = self.start + i as u64 * SUBSLOT;

            // Downstream frames.
            frame_acc += t.frames;
            let n_frames = frame_acc as usize;
            frame_acc -= n_frames as f64;
            if n_frames > 0 {
                let frame_bytes = t.down_payload_bytes / n_frames as f64;
                let gap = SUBSLOT / n_frames as u64;
                for f in 0..n_frames {
                    let jitter = rng.gen_range(0..(gap / 4).max(1));
                    let frame_ts = sub_start + f as u64 * gap + jitter;
                    // Size varies per frame (I/P frames): lognormal-ish.
                    let b = (frame_bytes * rng.gen_range(0.6f64..1.4)).max(200.0);
                    let max_payload = self.max_payload;
                    let n_full = (b / f64::from(max_payload)) as usize;
                    let remainder = (b - n_full as f64 * f64::from(max_payload)) as u32;
                    let mut pkt_ts = frame_ts;
                    for k in 0..n_full {
                        let mut p = Packet::new(pkt_ts, Direction::Downstream, max_payload);
                        p.seq = seq_down;
                        seq_down = seq_down.wrapping_add(1);
                        p.rtp_ts = (frame_ts / 11) as u32; // ~90 kHz clock
                        p.marker = k == n_full.saturating_sub(1) && remainder < 60;
                        out.push(p);
                        pkt_ts += rng.gen_range(80u64..400);
                    }
                    if remainder >= 60 || n_full == 0 {
                        let mut p = Packet::new(pkt_ts, Direction::Downstream, remainder.max(60));
                        p.seq = seq_down;
                        seq_down = seq_down.wrapping_add(1);
                        p.rtp_ts = (frame_ts / 11) as u32;
                        p.marker = true;
                        out.push(p);
                    }
                }
            }

            // Upstream inputs.
            up_acc += t.up_pkts;
            let n_up = up_acc as usize;
            up_acc -= n_up as f64;
            for _ in 0..n_up {
                let ts = sub_start + rng.gen_range(0..SUBSLOT);
                let size = (t.up_payload_mean * rng.gen_range(0.5..1.6)) as u32;
                let mut p = Packet::new(ts, Direction::Upstream, size.clamp(20, 300));
                p.seq = seq_up;
                seq_up = seq_up.wrapping_add(1);
                out.push(p);
            }
        }
        out.sort_by_key(|p| p.ts);
        out
    }

    /// Mean ground-truth delivered frame rate over the gameplay, fps.
    pub fn mean_fps(&self) -> f64 {
        if self.sub.is_empty() {
            return 0.0;
        }
        let frames: f64 = self.sub.iter().map(|t| t.frames).sum();
        frames / (self.sub.len() as f64 * SUBSLOT as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_domain::{ActivityPattern, GameTitle};
    use rand::SeedableRng;

    use crate::profile::{StageMix, TitleKind};
    use crate::stages::StageTimeline;

    fn setup(seed: u64, gameplay: f64) -> (StageTimeline, GameplayPlan) {
        let mut rng = StdRng::seed_from_u64(seed);
        let profile = TitleProfile::of(GameTitle::Overwatch2);
        let tl = StageTimeline::generate(
            ActivityPattern::SpectateAndPlay,
            &StageMix {
                active: 1.0,
                passive: 1.0,
                idle: 1.0,
            },
            30.0,
            gameplay,
            &mut rng,
        );
        let plan = GameplayPlan::generate(
            &tl,
            &profile,
            &cgc_domain::StreamSettings::default_pc(),
            &mut rng,
        );
        (tl, plan)
    }

    #[test]
    fn plan_covers_gameplay() {
        let (tl, plan) = setup(1, 300.0);
        assert_eq!(plan.start, 30_000_000);
        assert_eq!(plan.sub.len(), 3000);
        assert_eq!(tl.end() - plan.start, 3000 * SUBSLOT);
    }

    #[test]
    fn stage_levels_order_downstream() {
        let (_, plan) = setup(2, 1200.0);
        let mean_by = |stage: Stage| {
            let xs: Vec<f64> = plan
                .sub
                .iter()
                .filter(|t| t.stage == stage)
                .map(|t| t.down_payload_bytes)
                .collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        let (a, p, i) = (
            mean_by(Stage::Active),
            mean_by(Stage::Passive),
            mean_by(Stage::Idle),
        );
        assert!(a > p, "active {a} <= passive {p}");
        assert!(p > 2.0 * i, "passive {p} <= 2*idle {i}");
    }

    #[test]
    fn stage_levels_order_upstream() {
        let (_, plan) = setup(3, 1200.0);
        let mean_by = |stage: Stage| {
            let xs: Vec<f64> = plan
                .sub
                .iter()
                .filter(|t| t.stage == stage)
                .map(|t| t.up_pkts)
                .collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        // Active upstream clearly above passive; passive above idle on average
        // (spikes keep them from being separable slot-by-slot).
        assert!(mean_by(Stage::Active) > 2.0 * mean_by(Stage::Passive));
        assert!(mean_by(Stage::Passive) > mean_by(Stage::Idle));
    }

    #[test]
    fn vol_samples_match_packet_realization() {
        let (_, plan) = setup(4, 120.0);
        let mut vrng = StdRng::seed_from_u64(1);
        let vol = plan.to_vol_samples(&mut vrng);
        let mut rng = StdRng::seed_from_u64(99);
        let pkts = plan.emit_packets(&mut rng);
        let from_pkts = nettrace::vol::VolSeries::from_packets(&pkts, plan.start, SUBSLOT);
        // Compare total downstream bytes within 15 %.
        let synth: u64 = vol.iter().map(|s| s.down_bytes).sum();
        let real: u64 = from_pkts.samples.iter().map(|s| s.down_bytes).sum();
        let ratio = real as f64 / synth as f64;
        assert!((0.85..1.15).contains(&ratio), "down bytes ratio {ratio}");
        // And upstream packet counts within 15 %.
        let synth_up: u64 = vol.iter().map(|s| s.up_pkts).sum();
        let real_up: u64 = from_pkts.samples.iter().map(|s| s.up_pkts).sum();
        let up_ratio = real_up as f64 / synth_up.max(1) as f64;
        assert!((0.85..1.15).contains(&up_ratio), "up pkts ratio {up_ratio}");
    }

    #[test]
    fn packets_are_sorted_and_bidirectional() {
        let (_, plan) = setup(5, 60.0);
        let mut rng = StdRng::seed_from_u64(7);
        let pkts = plan.emit_packets(&mut rng);
        assert!(pkts.windows(2).all(|w| w[0].ts <= w[1].ts));
        assert!(pkts.iter().any(|p| p.dir == Direction::Upstream));
        assert!(pkts.iter().any(|p| p.dir == Direction::Downstream));
        // Markers present (frame ends).
        assert!(pkts.iter().any(|p| p.marker));
    }

    #[test]
    fn mean_fps_tracks_settings() {
        let (_, plan) = setup(6, 600.0);
        let fps = plan.mean_fps();
        // 60 fps configured; idle slots run at 35 %, so mean is below 60
        // but above 30.
        assert!((30.0..60.5).contains(&fps), "mean fps {fps}");
    }

    #[test]
    fn plan_is_deterministic() {
        let (_, a) = setup(8, 90.0);
        let (_, b) = setup(8, 90.0);
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_title_plans_work() {
        let mut rng = StdRng::seed_from_u64(11);
        let kind = TitleKind::Other {
            pattern: ActivityPattern::ContinuousPlay,
            variant: 5,
        };
        let profile = TitleProfile::of_kind(&kind);
        let tl = StageTimeline::generate(
            kind.pattern(),
            &profile.mix,
            profile.launch_secs,
            120.0,
            &mut rng,
        );
        let plan = GameplayPlan::generate(
            &tl,
            &profile,
            &cgc_domain::StreamSettings::default_pc(),
            &mut rng,
        );
        assert!(!plan.sub.is_empty());
        let mut vrng = StdRng::seed_from_u64(2);
        assert!(plan.to_vol_samples(&mut vrng).len() == plan.sub.len());
    }
}
