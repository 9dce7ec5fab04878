//! Stage-transition accumulation (§4.3.2, Table 5).
//!
//! The gameplay-activity-pattern inferrer consumes a 3×3 matrix whose cell
//! `(from, to)` counts per-slot transitions between classified player
//! activity stages (including self-retention), normalized to probabilities
//! over the monitored duration. The nine normalized cells are the pattern
//! attributes; Table 5 reports their permutation importance.

use cgc_domain::Stage;
use serde::{Deserialize, Serialize};

/// Number of pattern attributes (3 × 3 transition cells).
const N_TRANSITION_FEATURES: usize = 9;

/// Streaming accumulator of per-slot stage transitions.
///
/// ```
/// use cgc_domain::Stage;
/// use cgc_features::transitions::TransitionAccumulator;
///
/// let acc = TransitionAccumulator::from_sequence(&[
///     Stage::Idle, Stage::Idle, Stage::Active,
/// ]);
/// let f = acc.features(); // [i→i, i→p, i→a, ...] normalized
/// assert_eq!(f[0], 0.5);  // idle→idle
/// assert_eq!(f[2], 0.5);  // idle→active
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransitionAccumulator {
    counts: [[u64; 3]; 3],
    last: Option<Stage>,
}

impl TransitionAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds the stage classified for the next slot. Launch observations
    /// reset the chain (transitions across a launch are meaningless).
    pub fn push(&mut self, stage: Stage) {
        if stage == Stage::Launch {
            self.last = None;
            return;
        }
        if let (Some(prev), Some(a), Some(b)) = (
            self.last,
            self.last.and_then(Stage::class_id),
            stage.class_id(),
        ) {
            let _ = prev;
            self.counts[a][b] += 1;
        }
        self.last = Some(stage);
    }

    /// Raw transition counts (rows = from, cols = to, idle/passive/active).
    pub fn counts(&self) -> &[[u64; 3]; 3] {
        &self.counts
    }

    /// Total recorded transitions.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// The nine transition probabilities (cells normalized by the total),
    /// in row-major order `[i→i, i→p, i→a, p→i, p→p, p→a, a→i, a→p, a→a]`.
    /// All zeros before any transition is recorded.
    pub fn features(&self) -> [f64; N_TRANSITION_FEATURES] {
        let total = self.total();
        let mut out = [0.0; N_TRANSITION_FEATURES];
        if total == 0 {
            return out;
        }
        for (i, row) in self.counts.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                out[i * 3 + j] = c as f64 / total as f64;
            }
        }
        out
    }

    /// Row-conditional transition probabilities (each row sums to 1 when
    /// visited), the Fig. 5 presentation.
    pub fn row_probabilities(&self) -> [[f64; 3]; 3] {
        let mut out = [[0.0; 3]; 3];
        for (i, row) in self.counts.iter().enumerate() {
            let sum: u64 = row.iter().sum();
            if sum > 0 {
                for (j, &c) in row.iter().enumerate() {
                    out[i][j] = c as f64 / sum as f64;
                }
            }
        }
        out
    }

    /// Builds an accumulator from a complete stage sequence.
    pub fn from_sequence(stages: &[Stage]) -> Self {
        let mut acc = Self::new();
        for &s in stages {
            acc.push(s);
        }
        acc
    }

    /// Human-readable names of the nine features, matching
    /// [`TransitionAccumulator::features`] order.
    pub fn feature_names() -> [&'static str; N_TRANSITION_FEATURES] {
        [
            "idle->idle",
            "idle->passive",
            "idle->active",
            "passive->idle",
            "passive->passive",
            "passive->active",
            "active->idle",
            "active->passive",
            "active->active",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_transitions_including_retention() {
        let acc = TransitionAccumulator::from_sequence(&[
            Stage::Idle,
            Stage::Idle,
            Stage::Active,
            Stage::Active,
            Stage::Passive,
        ]);
        assert_eq!(acc.total(), 4);
        assert_eq!(acc.counts()[0][0], 1); // idle->idle
        assert_eq!(acc.counts()[0][2], 1); // idle->active
        assert_eq!(acc.counts()[2][2], 1); // active->active
        assert_eq!(acc.counts()[2][1], 1); // active->passive
    }

    #[test]
    fn features_normalize_to_one() {
        let acc = TransitionAccumulator::from_sequence(&[
            Stage::Idle,
            Stage::Active,
            Stage::Idle,
            Stage::Active,
            Stage::Active,
        ]);
        let f = acc.features();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // idle->active occurred twice out of four transitions.
        assert!((f[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_accumulator_is_all_zero() {
        let acc = TransitionAccumulator::new();
        assert_eq!(acc.total(), 0);
        assert_eq!(acc.features(), [0.0; 9]);
        assert_eq!(acc.row_probabilities(), [[0.0; 3]; 3]);
    }

    #[test]
    fn launch_resets_the_chain() {
        let mut acc = TransitionAccumulator::new();
        acc.push(Stage::Active);
        acc.push(Stage::Launch);
        acc.push(Stage::Idle);
        // No active->idle transition was recorded across the launch.
        assert_eq!(acc.total(), 0);
        acc.push(Stage::Idle);
        assert_eq!(acc.total(), 1);
        assert_eq!(acc.counts()[0][0], 1);
    }

    #[test]
    fn row_probabilities_condition_per_row() {
        let acc = TransitionAccumulator::from_sequence(&[
            Stage::Active,
            Stage::Active,
            Stage::Active,
            Stage::Passive,
        ]);
        let rp = acc.row_probabilities();
        // From active: 2/3 retention, 1/3 to passive.
        assert!((rp[2][2] - 2.0 / 3.0).abs() < 1e-12);
        assert!((rp[2][1] - 1.0 / 3.0).abs() < 1e-12);
        // Unvisited rows stay zero.
        assert_eq!(rp[0], [0.0; 3]);
    }

    #[test]
    fn single_observation_records_nothing() {
        let acc = TransitionAccumulator::from_sequence(&[Stage::Passive]);
        assert_eq!(acc.total(), 0);
    }

    #[test]
    fn feature_names_align_with_features() {
        let names = TransitionAccumulator::feature_names();
        assert_eq!(names.len(), 9);
        assert_eq!(names[6], "active->idle");
        let acc = TransitionAccumulator::from_sequence(&[Stage::Active, Stage::Idle]);
        let f = acc.features();
        assert_eq!(f[6], 1.0);
    }
}
