//! Dataset construction and model training.
//!
//! Reproduces the paper's training procedure on generator output:
//!
//! * **Title dataset** — launch-attribute vectors from sessions of every
//!   catalog title across the Table 2 settings matrix, augmented with
//!   variation-based synthesis (§4.4).
//! * **Stage dataset** — per-slot EMA-smoothed relative volumetric
//!   features produced *exactly* as the pipeline produces them (same
//!   extractor, same seeding), labeled with the ground-truth stage at the
//!   slot midpoint; the launch period trains a fourth class so the running
//!   classifier recognizes it without an external boundary oracle.
//! * **Pattern dataset** — normalized transition features from truth stage
//!   sequences, sampled at several prefix lengths so confidence behaves
//!   sensibly on short observation windows.

use cgc_core::bundle::ModelBundle;
use cgc_core::pattern::{PatternInferrer, PatternInferrerConfig};
use cgc_core::qoe::{CalibrationTable, ObjectiveThresholds};
use cgc_core::stage::{stage_class_id, StageClassifier, StageClassifierConfig};
use cgc_core::title::{TitleClassifier, TitleClassifierConfig};
use cgc_domain::{ActivityPattern, GameTitle};
use cgc_features::launch_attrs::launch_attributes;
use cgc_features::transitions::TransitionAccumulator;
use cgc_features::vol_attrs::StageFeatureExtractor;
use gamesim::dataset::sample_lab_settings;
use gamesim::{Fidelity, Session, SessionConfig, SessionGenerator, TitleKind};
use mlcore::augment::augment_multiply;
use mlcore::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Training configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Sessions generated per catalog title for the title dataset.
    pub sessions_per_title: usize,
    /// Variation-based augmentation factor (1 = off).
    pub augment_factor: usize,
    /// Relative feature noise used by augmentation.
    pub augment_noise: f64,
    /// Sessions for the stage dataset.
    pub stage_sessions: usize,
    /// Gameplay seconds per stage-dataset session.
    pub stage_gameplay_secs: f64,
    /// Sessions per pattern for the pattern dataset.
    pub pattern_sessions: usize,
    /// Master seed.
    pub seed: u64,
    /// Title classifier configuration.
    pub title_cfg: TitleClassifierConfig,
    /// Stage classifier configuration.
    pub stage_cfg: StageClassifierConfig,
    /// Pattern inferrer configuration.
    pub pattern_cfg: PatternInferrerConfig,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            sessions_per_title: 30,
            augment_factor: 3,
            augment_noise: 0.05,
            stage_sessions: 48,
            stage_gameplay_secs: 420.0,
            pattern_sessions: 60,
            seed: 7,
            title_cfg: TitleClassifierConfig::default(),
            stage_cfg: StageClassifierConfig::default(),
            pattern_cfg: PatternInferrerConfig::default(),
        }
    }
}

impl TrainConfig {
    /// A reduced configuration for tests and quick examples.
    pub fn quick() -> Self {
        TrainConfig {
            sessions_per_title: 8,
            augment_factor: 2,
            stage_sessions: 16,
            stage_gameplay_secs: 240.0,
            pattern_sessions: 20,
            ..Default::default()
        }
    }
}

/// Generates one training session for a title kind with lab-matrix
/// settings.
fn gen_session(
    generator: &mut SessionGenerator,
    kind: TitleKind,
    gameplay_secs: f64,
    rng: &mut StdRng,
    seed: u64,
) -> Session {
    generator.generate(&SessionConfig {
        kind,
        settings: sample_lab_settings(rng),
        gameplay_secs,
        fidelity: Fidelity::LaunchOnly,
        seed,
    })
}

/// Builds the title dataset: launch-attribute vectors labeled with
/// [`GameTitle::index`], augmented per §4.4.
fn title_dataset(cfg: &TrainConfig) -> Dataset {
    let mut generator = SessionGenerator::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let attr = &cfg.title_cfg.attr;
    let mut x = Vec::new();
    let mut y = Vec::new();
    for title in GameTitle::ALL {
        for i in 0..cfg.sessions_per_title {
            let s = gen_session(
                &mut generator,
                TitleKind::Known(title),
                2.0,
                &mut rng,
                cfg.seed
                    .wrapping_mul(31)
                    .wrapping_add((title.index() * 10_000 + i) as u64),
            );
            x.push(launch_attributes(&s.launch_window(attr.window_secs), attr));
            y.push(title.index());
        }
    }
    let data = Dataset::new(x, y)
        .with_n_classes(GameTitle::ALL.len())
        .with_feature_names(attr.attribute_names());
    augment_multiply(
        &data,
        cfg.augment_factor.max(1),
        cfg.augment_noise,
        cfg.seed,
    )
}

/// Builds the stage dataset: per-slot pipeline features labeled with the
/// ground-truth stage at the slot midpoint (4 classes incl. launch).
fn stage_dataset(cfg: &TrainConfig) -> Dataset {
    let mut generator = SessionGenerator::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5747_4f45);
    let slot = ModelBundle::DEFAULT_STAGE_SLOT;
    let seed_slots = 10usize;
    let mut x = Vec::new();
    let mut y = Vec::new();
    for i in 0..cfg.stage_sessions {
        // Cycle titles so every pattern and demand level contributes.
        let title = GameTitle::ALL[i % GameTitle::ALL.len()];
        // Mostly fleet-fidelity sessions, but every fifth session is a
        // full packet trace so launch-period volumetrics of real captures
        // are also in distribution.
        let s = if i % 5 == 4 {
            generator.generate(&SessionConfig {
                kind: TitleKind::Known(title),
                settings: sample_lab_settings(&mut rng),
                gameplay_secs: cfg.stage_gameplay_secs.min(180.0),
                fidelity: Fidelity::FullPackets,
                seed: cfg.seed.wrapping_mul(97).wrapping_add(i as u64),
            })
        } else {
            gen_session(
                &mut generator,
                TitleKind::Known(title),
                cfg.stage_gameplay_secs,
                &mut rng,
                cfg.seed.wrapping_mul(97).wrapping_add(i as u64),
            )
        };
        let vol = s.vol_at(slot);
        if vol.len() <= seed_slots {
            continue;
        }
        let mut extractor =
            StageFeatureExtractor::new(&cfg_stage_feature(), slot, &vol.samples[..seed_slots]);
        for (j, sample) in vol.samples.iter().enumerate().skip(seed_slots) {
            let feats = extractor.push(sample);
            let midpoint = j as u64 * slot + slot / 2;
            let Some(stage) = s.timeline.stage_at(midpoint) else {
                continue;
            };
            x.push(feats.to_vec());
            y.push(stage_class_id(stage));
        }
    }
    Dataset::new(x, y).with_n_classes(4)
}

fn cfg_stage_feature() -> cgc_features::vol_attrs::StageFeatureConfig {
    cgc_features::vol_attrs::StageFeatureConfig::default()
}

/// The per-slot stage sequence the deployed pipeline would classify for a
/// session (peak seeding from the first slots, then slot-by-slot
/// classification).
fn classified_stage_sequence(stage_clf: &StageClassifier, s: &Session) -> Vec<cgc_domain::Stage> {
    let slot = ModelBundle::DEFAULT_STAGE_SLOT;
    let vol = s.vol_at(slot);
    let seed_slots = 10usize.min(vol.len());
    let mut extractor =
        StageFeatureExtractor::new(&cfg_stage_feature(), slot, &vol.samples[..seed_slots]);
    vol.samples
        .iter()
        .skip(seed_slots)
        .map(|sample| stage_clf.classify(&extractor.push(sample)))
        .collect()
}

/// Builds the pattern dataset **end-to-end**: transition features are
/// accumulated from the *classified* stage sequences the given stage
/// classifier produces (not from ground truth), so the inferrer is trained
/// on the same flickery distribution it will see in deployment. One sample
/// per prefix length per session.
fn pattern_dataset_with(stage_clf: &StageClassifier, cfg: &TrainConfig) -> Dataset {
    let mut generator = SessionGenerator::new();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5041_5454);
    // Short prefixes are deliberately included: early transition matrices
    // are degenerate (one lobby span) and near-identical across patterns,
    // and training on them teaches the forest to be *unconfident* there —
    // which is what makes the 75 % confidence gate wait for real evidence.
    let prefixes = [30usize, 60, 90, 150, 240, 420, 600, 900, usize::MAX];
    let mut x = Vec::new();
    let mut y = Vec::new();
    for pattern in ActivityPattern::ALL {
        for i in 0..cfg.pattern_sessions {
            // Mix catalog titles of the right pattern with unknown ones.
            let kind = if i % 3 == 2 {
                TitleKind::Other {
                    pattern,
                    variant: (i / 3) as u32,
                }
            } else {
                let candidates: Vec<GameTitle> = GameTitle::ALL
                    .iter()
                    .copied()
                    .filter(|t| t.pattern() == pattern)
                    .collect();
                TitleKind::Known(candidates[i % candidates.len()])
            };
            let s = gen_session(
                &mut generator,
                kind,
                1500.0,
                &mut rng,
                cfg.seed.wrapping_mul(193).wrapping_add(i as u64) ^ (pattern.index() as u64) << 32,
            );
            let seq = classified_stage_sequence(stage_clf, &s);
            for &p in &prefixes {
                let end = p.min(seq.len());
                if end < 60 {
                    continue;
                }
                let acc = TransitionAccumulator::from_sequence(&seq[..end]);
                if acc.total() == 0 {
                    continue;
                }
                x.push(acc.features().to_vec());
                y.push(pattern.index());
            }
        }
    }
    Dataset::new(x, y).with_n_classes(2)
}

/// Builds the pattern dataset, training an intermediate stage classifier
/// from the same config.
pub fn pattern_dataset(cfg: &TrainConfig) -> Dataset {
    let stage = StageClassifier::train(&stage_dataset(cfg), cfg.stage_cfg);
    pattern_dataset_with(&stage, cfg)
}

/// Trains a complete model bundle. The pattern inferrer is trained on the
/// stage classifier's own outputs (end-to-end consistency).
pub fn train_bundle(cfg: &TrainConfig) -> ModelBundle {
    let title = TitleClassifier::train(&title_dataset(cfg), cfg.title_cfg);
    let stage = StageClassifier::train(&stage_dataset(cfg), cfg.stage_cfg);
    let pattern = PatternInferrer::train(&pattern_dataset_with(&stage, cfg), cfg.pattern_cfg);
    ModelBundle {
        title,
        stage,
        pattern,
        stage_feature: cfg_stage_feature(),
        stage_slot: ModelBundle::DEFAULT_STAGE_SLOT,
        thresholds: ObjectiveThresholds::default(),
        calibration: CalibrationTable::default(),
    }
}

/// The deterministic [`TrainConfig::quick`] bundle, trained once per test
/// binary and shared by every test that only needs *a* trained bundle.
#[cfg(test)]
pub(crate) fn quick_bundle() -> std::sync::Arc<ModelBundle> {
    static BUNDLE: std::sync::OnceLock<std::sync::Arc<ModelBundle>> = std::sync::OnceLock::new();
    std::sync::Arc::clone(
        BUNDLE.get_or_init(|| std::sync::Arc::new(train_bundle(&TrainConfig::quick()))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcore::metrics::accuracy;
    use mlcore::Classifier;

    #[test]
    fn title_dataset_shape() {
        let cfg = TrainConfig {
            sessions_per_title: 2,
            augment_factor: 2,
            ..TrainConfig::quick()
        };
        let d = title_dataset(&cfg);
        assert_eq!(d.len(), 13 * 2 * 2);
        assert_eq!(d.n_features(), 51);
        assert_eq!(d.n_classes, 13);
        assert_eq!(d.feature_names.len(), 51);
    }

    #[test]
    fn stage_dataset_covers_all_classes() {
        let cfg = TrainConfig {
            stage_sessions: 6,
            stage_gameplay_secs: 300.0,
            ..TrainConfig::quick()
        };
        let d = stage_dataset(&cfg);
        assert_eq!(d.n_features(), 4);
        for class in 0..4 {
            assert!(
                !d.class_indices(class).is_empty(),
                "class {class} missing from stage dataset"
            );
        }
        // Features are relative: bounded by ~1.
        assert!(d.x.iter().flatten().all(|&v| (0.0..=1.5).contains(&v)));
    }

    #[test]
    fn pattern_dataset_is_balanced_and_separable() {
        let cfg = TrainConfig {
            pattern_sessions: 14,
            ..TrainConfig::quick()
        };
        let d = pattern_dataset(&cfg);
        assert_eq!(d.n_features(), 9);
        let c0 = d.class_indices(0).len();
        let c1 = d.class_indices(1).len();
        assert!(c0 > 0 && c1 > 0);
        assert!((c0 as f64 / c1 as f64).clamp(0.5, 2.0) > 0.4);
        // Quick train/test sanity.
        let (train, test) = d.stratified_split(0.3, 1);
        let m = PatternInferrer::train(&train, PatternInferrerConfig::default());
        let preds: Vec<usize> = test.x.iter().map(|x| m.forest().predict(x)).collect();
        let acc = accuracy(&test.y, &preds);
        // Short (90 s) prefixes are genuinely hard; the full-session
        // accuracy is measured in the experiments.
        assert!(acc > 0.8, "pattern accuracy {acc}");
    }

    #[test]
    fn quick_bundle_trains_and_roundtrips() {
        let json = quick_bundle().to_json().unwrap();
        let back = ModelBundle::from_json(&json).unwrap();
        assert_eq!(back.stage_slot, ModelBundle::DEFAULT_STAGE_SLOT);
    }
}
