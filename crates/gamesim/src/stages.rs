//! Player-activity stage timelines (§2.1, Fig. 1, Fig. 5).
//!
//! A session's gameplay is a semi-Markov chain over the three gameplay
//! stages, preceded by a launch span. The chain's transition probabilities
//! and dwell-time ranges are pattern-specific and tuned so that (with
//! neutral per-title mix weights) the ground-truth playtime fractions land
//! in the paper's Fig. 5 regime:
//!
//! * **spectate-and-play** — active 40–60 % of playtime, passive most of
//!   the remainder, repeated idle → active ⇄ passive match cycles;
//! * **continuous-play** — ≥ 95 % of playtime in active or idle, passive
//!   under 5 %, long active stretches broken by idle dialogue/menu scenes.

use cgc_domain::{ActivityPattern, Stage};
use nettrace::units::{secs_to_micros, Micros};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::profile::StageMix;

/// A contiguous span of one player activity stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSpan {
    /// The stage held during the span.
    pub stage: Stage,
    /// Span start, microseconds since session start (inclusive).
    pub start: Micros,
    /// Span end, microseconds (exclusive).
    pub end: Micros,
}

impl StageSpan {
    /// Span length in microseconds.
    pub fn duration(&self) -> Micros {
        self.end.saturating_sub(self.start)
    }
}

/// The ground-truth stage timeline of a session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTimeline {
    /// Ordered, contiguous spans starting with [`Stage::Launch`] at 0.
    pub spans: Vec<StageSpan>,
}

/// Dwell-time range in seconds for a stage under a pattern.
fn dwell_range(pattern: ActivityPattern, stage: Stage) -> (f64, f64) {
    use ActivityPattern::*;
    use Stage::*;
    match (pattern, stage) {
        (SpectateAndPlay, Idle) => (15.0, 60.0),
        (SpectateAndPlay, Active) => (26.0, 125.0),
        (SpectateAndPlay, Passive) => (20.0, 90.0),
        (ContinuousPlay, Idle) => (30.0, 200.0),
        (ContinuousPlay, Active) => (120.0, 600.0),
        (ContinuousPlay, Passive) => (5.0, 20.0),
        (_, Launch) => unreachable!("launch dwell comes from the title profile"),
    }
}

/// Next-stage distribution of the embedded chain.
fn next_stage(pattern: ActivityPattern, stage: Stage, rng: &mut StdRng) -> Stage {
    use ActivityPattern::*;
    use Stage::*;
    let p: f64 = rng.gen();
    match (pattern, stage) {
        (SpectateAndPlay, Idle) => {
            if p < 0.85 {
                Active
            } else {
                Passive
            }
        }
        (SpectateAndPlay, Active) => {
            if p < 0.65 {
                Passive
            } else {
                Idle
            }
        }
        (SpectateAndPlay, Passive) => {
            if p < 0.60 {
                Active
            } else {
                Idle
            }
        }
        (ContinuousPlay, Idle) => {
            if p < 0.95 {
                Active
            } else {
                Passive
            }
        }
        (ContinuousPlay, Active) => {
            if p < 0.85 {
                Idle
            } else {
                Passive
            }
        }
        (ContinuousPlay, Passive) => {
            if p < 0.90 {
                Active
            } else {
                Idle
            }
        }
        (_, Launch) => unreachable!("launch always transitions to idle"),
    }
}

fn mix_weight(mix: &StageMix, stage: Stage) -> f64 {
    match stage {
        Stage::Active => mix.active,
        Stage::Passive => mix.passive,
        Stage::Idle => mix.idle,
        Stage::Launch => 1.0,
    }
}

impl StageTimeline {
    /// Generates a timeline: a launch span of `launch_secs`, then gameplay
    /// spans until `gameplay_secs` of gameplay have elapsed (the final span
    /// is truncated at the session end).
    pub fn generate(
        pattern: ActivityPattern,
        mix: &StageMix,
        launch_secs: f64,
        gameplay_secs: f64,
        rng: &mut StdRng,
    ) -> StageTimeline {
        let launch_end = secs_to_micros(launch_secs);
        let session_end = launch_end + secs_to_micros(gameplay_secs);
        let mut spans = vec![StageSpan {
            stage: Stage::Launch,
            start: 0,
            end: launch_end,
        }];

        // Every session opens in the lobby / character-select idle stage.
        let mut stage = Stage::Idle;
        let mut t = launch_end;
        while t < session_end {
            let (lo, hi) = dwell_range(pattern, stage);
            let w = mix_weight(mix, stage).max(0.05);
            let dwell = secs_to_micros(rng.gen_range(lo..hi) * w);
            let end = (t + dwell.max(1)).min(session_end);
            spans.push(StageSpan {
                stage,
                start: t,
                end,
            });
            t = end;
            stage = next_stage(pattern, stage, rng);
        }
        StageTimeline { spans }
    }

    /// Session end time (end of the last span).
    pub fn end(&self) -> Micros {
        self.spans.last().map_or(0, |s| s.end)
    }

    /// The stage in effect at time `ts` (`None` past the session end).
    pub fn stage_at(&self, ts: Micros) -> Option<Stage> {
        // Spans are contiguous and ordered: binary search on start.
        let idx = self.spans.partition_point(|s| s.start <= ts);
        if idx == 0 {
            return None;
        }
        let span = &self.spans[idx - 1];
        (ts < span.end).then_some(span.stage)
    }

    /// Fraction of *gameplay* time (launch excluded) spent in `stage`.
    pub fn gameplay_fraction(&self, stage: Stage) -> f64 {
        let mut total = 0u64;
        let mut in_stage = 0u64;
        for s in &self.spans {
            if s.stage == Stage::Launch {
                continue;
            }
            total += s.duration();
            if s.stage == stage {
                in_stage += s.duration();
            }
        }
        if total == 0 {
            0.0
        } else {
            in_stage as f64 / total as f64
        }
    }

    /// Per-slot stage sequence over the gameplay portion: the stage in
    /// effect at each `width`-microsecond slot midpoint. This is the
    /// ground-truth label series the stage classifier is scored against.
    pub fn slot_stages(&self, width: Micros) -> Vec<Stage> {
        assert!(width > 0);
        let launch_end = self
            .spans
            .first()
            .filter(|s| s.stage == Stage::Launch)
            .map_or(0, |s| s.end);
        let mut out = Vec::new();
        let mut t = launch_end + width / 2;
        while t < self.end() {
            if let Some(stage) = self.stage_at(t) {
                out.push(stage);
            }
            t += width;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// 3×3 per-slot transition counts over the gameplay stage sequence
    /// (rows = from, cols = to, class-id order), self-retention included.
    fn transition_counts(tl: &StageTimeline, width: Micros) -> [[u64; 3]; 3] {
        let mut m = [[0u64; 3]; 3];
        for w in tl.slot_stages(width).windows(2) {
            m[w[0].class_id().unwrap()][w[1].class_id().unwrap()] += 1;
        }
        m
    }

    fn neutral() -> StageMix {
        StageMix {
            active: 1.0,
            passive: 1.0,
            idle: 1.0,
        }
    }

    fn mean_fractions(pattern: ActivityPattern, n: usize) -> (f64, f64, f64) {
        let mut acc = (0.0, 0.0, 0.0);
        for seed in 0..n as u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let tl = StageTimeline::generate(pattern, &neutral(), 40.0, 3600.0, &mut rng);
            acc.0 += tl.gameplay_fraction(Stage::Active);
            acc.1 += tl.gameplay_fraction(Stage::Passive);
            acc.2 += tl.gameplay_fraction(Stage::Idle);
        }
        (acc.0 / n as f64, acc.1 / n as f64, acc.2 / n as f64)
    }

    #[test]
    fn spectate_fractions_match_fig5a() {
        let (active, passive, idle) = mean_fractions(ActivityPattern::SpectateAndPlay, 40);
        assert!((0.40..=0.60).contains(&active), "active {active}");
        assert!(passive > idle, "passive {passive} vs idle {idle}");
        assert!(passive > 0.18, "passive {passive}");
    }

    #[test]
    fn continuous_fractions_match_fig5b() {
        let (active, passive, idle) = mean_fractions(ActivityPattern::ContinuousPlay, 40);
        assert!(passive < 0.05, "passive {passive}");
        assert!(active + idle > 0.95);
        assert!((0.15..=0.35).contains(&idle), "idle {idle}");
        assert!(active > 0.60, "active {active}");
    }

    #[test]
    fn timeline_is_contiguous_and_starts_with_launch() {
        let mut rng = StdRng::seed_from_u64(3);
        let tl = StageTimeline::generate(
            ActivityPattern::SpectateAndPlay,
            &neutral(),
            35.0,
            600.0,
            &mut rng,
        );
        assert_eq!(tl.spans[0].stage, Stage::Launch);
        assert_eq!(tl.spans[0].start, 0);
        for w in tl.spans.windows(2) {
            assert_eq!(w[0].end, w[1].start, "gap in timeline");
            assert!(w[0].stage != w[1].stage || w[0].stage == Stage::Launch);
        }
        assert_eq!(tl.end(), secs_to_micros(635.0));
    }

    #[test]
    fn stage_at_lookup() {
        let mut rng = StdRng::seed_from_u64(4);
        let tl = StageTimeline::generate(
            ActivityPattern::ContinuousPlay,
            &neutral(),
            30.0,
            300.0,
            &mut rng,
        );
        assert_eq!(tl.stage_at(0), Some(Stage::Launch));
        assert_eq!(tl.stage_at(29_999_999), Some(Stage::Launch));
        assert_eq!(tl.stage_at(30_000_000), Some(Stage::Idle));
        assert_eq!(tl.stage_at(tl.end()), None);
        // Every in-range timestamp resolves.
        for ts in (0..tl.end()).step_by(7_777_777) {
            assert!(tl.stage_at(ts).is_some(), "no stage at {ts}");
        }
    }

    #[test]
    fn slot_stages_exclude_launch() {
        let mut rng = StdRng::seed_from_u64(5);
        let tl = StageTimeline::generate(
            ActivityPattern::SpectateAndPlay,
            &neutral(),
            40.0,
            120.0,
            &mut rng,
        );
        let seq = tl.slot_stages(1_000_000);
        assert!(seq.iter().all(|s| s.is_gameplay()));
        assert_eq!(seq.len(), 120);
    }

    #[test]
    fn transition_counts_total_and_diagonal() {
        let mut rng = StdRng::seed_from_u64(6);
        let tl = StageTimeline::generate(
            ActivityPattern::ContinuousPlay,
            &neutral(),
            30.0,
            1800.0,
            &mut rng,
        );
        let m = transition_counts(&tl, 1_000_000);
        let total: u64 = m.iter().flatten().sum();
        assert_eq!(total, 1800 - 1);
        // Dwells are tens of seconds, so self-transitions dominate.
        let diag: u64 = (0..3).map(|i| m[i][i]).sum();
        assert!(diag as f64 / total as f64 > 0.9);
    }

    #[test]
    fn continuous_play_rarely_visits_passive() {
        let mut rng = StdRng::seed_from_u64(7);
        let tl = StageTimeline::generate(
            ActivityPattern::ContinuousPlay,
            &neutral(),
            30.0,
            3600.0,
            &mut rng,
        );
        let m = transition_counts(&tl, 1_000_000);
        let passive_row: u64 = m[Stage::Passive.class_id().unwrap()].iter().sum();
        let total: u64 = m.iter().flatten().sum();
        assert!((passive_row as f64) < 0.05 * total as f64);
    }

    #[test]
    fn mix_skews_fractions() {
        let idle_heavy = StageMix {
            active: 0.8,
            passive: 1.0,
            idle: 2.0,
        };
        let mut fa = 0.0;
        let mut fb = 0.0;
        for seed in 0..20 {
            let mut r1 = StdRng::seed_from_u64(seed);
            let mut r2 = StdRng::seed_from_u64(seed);
            let a = StageTimeline::generate(
                ActivityPattern::SpectateAndPlay,
                &neutral(),
                30.0,
                1800.0,
                &mut r1,
            );
            let b = StageTimeline::generate(
                ActivityPattern::SpectateAndPlay,
                &idle_heavy,
                30.0,
                1800.0,
                &mut r2,
            );
            fa += a.gameplay_fraction(Stage::Idle);
            fb += b.gameplay_fraction(Stage::Idle);
        }
        assert!(fb > fa * 1.3, "idle-heavy mix {fb} vs neutral {fa}");
    }
}
