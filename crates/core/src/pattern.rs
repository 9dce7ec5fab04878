//! Gameplay activity pattern inference (§4.3.2).
//!
//! A Random Forest over the nine normalized stage-transition probabilities
//! accumulated from the continuously classified player activity stages.
//! The tracker emits a pattern once the model's confidence exceeds the
//! threshold (the paper deploys 75 %, reaching a decision in ~5 minutes on
//! average) and a minimum amount of evidence has accumulated.

use cgc_domain::{ActivityPattern, Stage};
use cgc_features::transitions::TransitionAccumulator;
use mlcore::forest::{RandomForest, RandomForestConfig};
use mlcore::{argmax, Classifier, Dataset, FlatForest};
use serde::{Deserialize, Serialize, Value};

use crate::bundle::load_forest;

/// Pattern inference configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PatternInferrerConfig {
    /// Forest hyperparameters (paper Fig. 15: 100 trees, depth 10 deployed).
    pub forest: RandomForestConfig,
    /// Confidence threshold above which a prediction is emitted.
    pub confidence_threshold: f64,
    /// Minimum recorded transitions before predictions are attempted.
    pub min_transitions: u64,
    /// The confident winner must persist for this many consecutive slots
    /// before the decision fires (debounces overconfident early windows).
    pub stable_slots: u64,
}

impl Default for PatternInferrerConfig {
    fn default() -> Self {
        PatternInferrerConfig {
            forest: RandomForestConfig {
                n_trees: 100,
                max_depth: 10,
                ..Default::default()
            },
            confidence_threshold: 0.75,
            min_transitions: 60,
            stable_slots: 60,
        }
    }
}

/// A confident pattern decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PatternPrediction {
    /// The inferred gameplay activity pattern.
    pub pattern: ActivityPattern,
    /// Model confidence at decision time.
    pub confidence: f64,
    /// Number of slots observed when the decision fired.
    pub decided_after_slots: u64,
}

/// A trained gameplay-activity-pattern inferrer: the flat forest compiled
/// from the fitted one, which it holds, serializes and loads, and its
/// gating configuration.
#[derive(Debug, Clone, Serialize)]
pub struct PatternInferrer {
    pub(crate) flat: FlatForest,
    config: PatternInferrerConfig,
}

impl Deserialize for PatternInferrer {
    /// Refuses a forest that is not 9 features wide with 2 classes, the
    /// shape [`Self::infer`] serves.
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(PatternInferrer {
            flat: load_forest(v, 9, 2..=2)?,
            config: PatternInferrerConfig::from_value(v.field("config")?)?,
        })
    }
}

impl PatternInferrer {
    /// Trains on a dataset of 9-feature transition vectors labeled with
    /// [`ActivityPattern::index`] class ids.
    ///
    /// # Panics
    /// Panics unless the dataset has exactly 9 features and 2 classes.
    pub fn train(data: &Dataset, config: PatternInferrerConfig) -> PatternInferrer {
        assert_eq!(
            data.n_features(),
            9,
            "transition features are 9-dimensional"
        );
        assert_eq!(data.n_classes, 2, "two activity patterns");
        PatternInferrer {
            flat: RandomForest::fit(data, &config.forest).into_flat(),
            config,
        }
    }

    /// Raw inference on a transition-feature vector: `(pattern, confidence)`.
    /// Runs on the flat forest with a stack score buffer — no allocation.
    pub fn infer(&self, features: &[f64; 9]) -> (ActivityPattern, f64) {
        let mut p = [0.0f64; 2];
        let nc = self.flat.n_classes();
        self.flat.predict_proba_into(features, &mut p[..nc]);
        let i = argmax(&p[..nc]);
        let conf = p.get(i).copied().unwrap_or(0.0);
        (ActivityPattern::from_index(i).expect("two classes"), conf)
    }

    /// The configuration (threshold, evidence floor).
    pub fn config(&self) -> &PatternInferrerConfig {
        &self.config
    }

    /// Returns the same trained model under a different gating
    /// configuration (threshold sweeps reuse one forest).
    pub fn with_config(&self, config: PatternInferrerConfig) -> PatternInferrer {
        PatternInferrer {
            flat: self.flat.clone(),
            config,
        }
    }

    /// Content digest of the compiled inference forest (model-registry
    /// artifact verification).
    pub fn flat_checksum(&self) -> u64 {
        self.flat.checksum()
    }
}

/// Per-session streaming state: accumulates classified stages and fires a
/// [`PatternPrediction`] when the inferrer is confident.
#[derive(Debug, Clone)]
pub struct PatternTracker {
    acc: TransitionAccumulator,
    slots_seen: u64,
    decision: Option<PatternPrediction>,
    streak: Option<(ActivityPattern, u64)>,
}

impl Default for PatternTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl PatternTracker {
    /// A fresh tracker.
    pub fn new() -> Self {
        PatternTracker {
            acc: TransitionAccumulator::new(),
            slots_seen: 0,
            decision: None,
            streak: None,
        }
    }

    /// Feeds the stage classified for the next slot. A decision fires once
    /// the same pattern has stayed the confident winner for
    /// `stable_slots` consecutive slots; once fired it is retained (the
    /// paper stops refining after emitting a confident result).
    pub fn push(&mut self, stage: Stage, inferrer: &PatternInferrer) -> Option<PatternPrediction> {
        self.slots_seen += 1;
        self.acc.push(stage);
        if self.decision.is_none() && self.acc.total() >= inferrer.config.min_transitions {
            let (pattern, confidence) = inferrer.infer(&self.acc.features());
            if confidence >= inferrer.config.confidence_threshold {
                let streak = match self.streak {
                    Some((p, k)) if p == pattern => k + 1,
                    _ => 1,
                };
                self.streak = Some((pattern, streak));
                if streak >= inferrer.config.stable_slots.max(1) {
                    self.decision = Some(PatternPrediction {
                        pattern,
                        confidence,
                        decided_after_slots: self.slots_seen,
                    });
                }
            } else {
                self.streak = None;
            }
        }
        self.decision
    }

    /// The decision, if one has fired.
    pub fn decision(&self) -> Option<PatternPrediction> {
        self.decision
    }

    /// Best-effort inference regardless of confidence (for end-of-session
    /// reporting when no confident decision fired).
    pub fn force_infer(&self, inferrer: &PatternInferrer) -> Option<(ActivityPattern, f64)> {
        (self.acc.total() > 0).then(|| inferrer.infer(&self.acc.features()))
    }

    /// The accumulated transition features so far.
    pub fn features(&self) -> [f64; 9] {
        self.acc.features()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Synthetic per-slot stage sequences with pattern-typical dynamics.
    fn synth_sequence(pattern: ActivityPattern, slots: usize, rng: &mut StdRng) -> Vec<Stage> {
        let mut out = Vec::with_capacity(slots);
        let mut stage = Stage::Idle;
        let mut dwell = 0u32;
        for _ in 0..slots {
            if dwell == 0 {
                stage = match (pattern, stage) {
                    (ActivityPattern::SpectateAndPlay, Stage::Idle) => Stage::Active,
                    (ActivityPattern::SpectateAndPlay, Stage::Active) => {
                        if rng.gen_bool(0.6) {
                            Stage::Passive
                        } else {
                            Stage::Idle
                        }
                    }
                    (ActivityPattern::SpectateAndPlay, Stage::Passive) => {
                        if rng.gen_bool(0.5) {
                            Stage::Active
                        } else {
                            Stage::Idle
                        }
                    }
                    (ActivityPattern::ContinuousPlay, Stage::Active) => Stage::Idle,
                    (ActivityPattern::ContinuousPlay, _) => Stage::Active,
                    (_, Stage::Launch) => Stage::Idle,
                };
                dwell = match (pattern, stage) {
                    (ActivityPattern::ContinuousPlay, Stage::Active) => rng.gen_range(60..200),
                    (_, Stage::Active) => rng.gen_range(30..90),
                    (_, Stage::Passive) => rng.gen_range(10..40),
                    _ => rng.gen_range(15..50),
                };
            }
            dwell -= 1;
            out.push(stage);
        }
        out
    }

    fn synth_dataset(n_per_class: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for pattern in ActivityPattern::ALL {
            for _ in 0..n_per_class {
                let seq = synth_sequence(pattern, 600, &mut rng);
                let acc = TransitionAccumulator::from_sequence(&seq);
                x.push(acc.features().to_vec());
                y.push(pattern.index());
            }
        }
        Dataset::new(x, y)
    }

    #[test]
    fn learns_the_two_patterns() {
        let train = synth_dataset(40, 1);
        let inf = PatternInferrer::train(&train, PatternInferrerConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        for pattern in ActivityPattern::ALL {
            let mut correct = 0;
            for _ in 0..20 {
                let seq = synth_sequence(pattern, 600, &mut rng);
                let acc = TransitionAccumulator::from_sequence(&seq);
                let (p, _) = inf.infer(&acc.features());
                if p == pattern {
                    correct += 1;
                }
            }
            assert!(correct >= 18, "{pattern}: {correct}/20");
        }
    }

    #[test]
    fn tracker_waits_for_evidence() {
        let train = synth_dataset(30, 3);
        let inf = PatternInferrer::train(
            &train,
            PatternInferrerConfig {
                min_transitions: 50,
                ..Default::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(4);
        let seq = synth_sequence(ActivityPattern::ContinuousPlay, 400, &mut rng);
        let mut tracker = PatternTracker::new();
        let mut decided_at = None;
        for s in &seq {
            if let Some(d) = tracker.push(*s, &inf) {
                decided_at.get_or_insert(d.decided_after_slots);
            }
        }
        let d = tracker.decision().expect("decision fires");
        assert!(d.decided_after_slots > 50);
        assert!(d.confidence >= 0.75);
        assert_eq!(d.pattern, ActivityPattern::ContinuousPlay);
        // Decision is sticky.
        assert_eq!(decided_at, Some(d.decided_after_slots));
    }

    #[test]
    fn higher_threshold_decides_later_or_never() {
        let train = synth_dataset(30, 5);
        let loose = PatternInferrer::train(
            &train,
            PatternInferrerConfig {
                confidence_threshold: 0.55,
                ..Default::default()
            },
        );
        let strict = PatternInferrer::train(
            &train,
            PatternInferrerConfig {
                confidence_threshold: 0.98,
                ..Default::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(6);
        let seq = synth_sequence(ActivityPattern::SpectateAndPlay, 500, &mut rng);
        let mut t_loose = PatternTracker::new();
        let mut t_strict = PatternTracker::new();
        for s in &seq {
            t_loose.push(*s, &loose);
            t_strict.push(*s, &strict);
        }
        let dl = t_loose.decision().expect("loose decides");
        match t_strict.decision() {
            None => {}
            Some(ds) => assert!(ds.decided_after_slots >= dl.decided_after_slots),
        }
    }

    #[test]
    fn force_infer_works_without_confidence() {
        let train = synth_dataset(20, 7);
        let inf = PatternInferrer::train(&train, PatternInferrerConfig::default());
        let mut tracker = PatternTracker::new();
        assert!(tracker.force_infer(&inf).is_none());
        tracker.push(Stage::Idle, &inf);
        tracker.push(Stage::Idle, &inf);
        let (p, c) = tracker.force_infer(&inf).expect("has transitions");
        assert!(c > 0.0);
        let _ = p;
    }

    #[test]
    #[should_panic(expected = "9-dimensional")]
    fn wrong_width_panics() {
        let d = Dataset::new(vec![vec![0.0; 4], vec![0.0; 4]], vec![0, 1]);
        let _ = PatternInferrer::train(&d, PatternInferrerConfig::default());
    }
}
