//! # cgc-bench — experiment regenerators and benchmarks
//!
//! One binary per table/figure of the paper (see `src/bin/exp_*.rs` and
//! DESIGN.md §4 for the index), the end-to-end benchmark `bench_e2e`
//! (`BENCHMARK.json`; the one place a performance number is stored or
//! read), CI's `bench_gate`, and Criterion benches for what has no
//! end-to-end twin. This library holds the evaluation helpers the
//! experiment binaries share: multi-config launch-attribute dataset
//! construction, accuracy sweeps, and session-level stage/pattern
//! evaluation.

#![warn(missing_docs)]

use cgc_core::bundle::ModelBundle;
use cgc_core::stage::stage_class_id;
use cgc_core::title::TitleClassifierConfig;
use cgc_domain::{GameTitle, Stage};
use cgc_features::launch_attrs::{flow_volumetric_attributes, launch_attributes, LaunchAttrConfig};
use cgc_features::vol_attrs::StageFeatureExtractor;
use gamesim::dataset::sample_lab_settings;
use gamesim::{Fidelity, Session, SessionConfig, SessionGenerator, TitleKind};
use mlcore::augment::augment_multiply;
use mlcore::forest::{RandomForest, RandomForestConfig};
use mlcore::metrics::{accuracy, ConfusionMatrix};
use mlcore::{Classifier, Dataset};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How launch attributes are derived from a session for an evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrKind {
    /// The paper's packet-group attributes (full/steady/sparse).
    PacketGroup,
    /// The Table 3 baseline: plain per-slot packet rate + throughput.
    FlowVolumetric,
}

/// A generated evaluation corpus: per-title launch windows for train and
/// test splits, reusable across many `(N, T, V)` attribute configurations
/// without regenerating traffic.
pub struct LaunchCorpus {
    /// `(title, launch packets)` for training.
    pub train: Vec<(GameTitle, Vec<nettrace::packet::Packet>)>,
    /// `(title, launch packets)` for testing.
    pub test: Vec<(GameTitle, Vec<nettrace::packet::Packet>)>,
}

impl LaunchCorpus {
    /// Generates `n_train + n_test` sessions per catalog title with
    /// lab-matrix settings; packets are kept up to `max_window_secs`.
    pub fn generate(n_train: usize, n_test: usize, max_window_secs: f64, seed: u64) -> Self {
        let mut generator = SessionGenerator::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut train = Vec::new();
        let mut test = Vec::new();
        for title in GameTitle::ALL {
            for i in 0..(n_train + n_test) {
                let s = generator.generate(&SessionConfig {
                    kind: TitleKind::Known(title),
                    settings: sample_lab_settings(&mut rng),
                    gameplay_secs: 2.0,
                    fidelity: Fidelity::LaunchOnly,
                    seed: seed
                        .wrapping_mul(2654435761)
                        .wrapping_add((title.index() * 100_000 + i) as u64),
                });
                let window = s.launch_window(max_window_secs);
                if i < n_train {
                    train.push((title, window));
                } else {
                    test.push((title, window));
                }
            }
        }
        LaunchCorpus { train, test }
    }

    /// Extracts a labeled dataset from one split under an attribute
    /// configuration.
    pub fn dataset(
        split: &[(GameTitle, Vec<nettrace::packet::Packet>)],
        cfg: &LaunchAttrConfig,
        kind: AttrKind,
    ) -> Dataset {
        let mut x = Vec::with_capacity(split.len());
        let mut y = Vec::with_capacity(split.len());
        for (title, pkts) in split {
            let attrs = match kind {
                AttrKind::PacketGroup => launch_attributes(pkts, cfg),
                AttrKind::FlowVolumetric => flow_volumetric_attributes(pkts, cfg),
            };
            x.push(attrs);
            y.push(title.index());
        }
        let mut d = Dataset::new(x, y).with_n_classes(GameTitle::ALL.len());
        if kind == AttrKind::PacketGroup {
            d = d.with_feature_names(cfg.attribute_names());
        }
        d
    }
}

/// Result of one title-classification evaluation.
pub struct TitleEval {
    /// Overall accuracy.
    pub accuracy: f64,
    /// Confusion matrix over the 13 titles.
    pub confusion: ConfusionMatrix,
    /// The fitted forest (for importance analyses).
    pub forest: RandomForest,
    /// The test dataset used.
    pub test: Dataset,
}

/// Trains a Random Forest on the corpus under `(cfg, kind)` and evaluates
/// on the held-out split. Applies ×`augment` variation augmentation to the
/// training set.
pub fn eval_title(
    corpus: &LaunchCorpus,
    cfg: &LaunchAttrConfig,
    kind: AttrKind,
    forest_cfg: &RandomForestConfig,
    augment: usize,
) -> TitleEval {
    let train = LaunchCorpus::dataset(&corpus.train, cfg, kind);
    let train = augment_multiply(&train, augment.max(1), 0.05, 11);
    let test = LaunchCorpus::dataset(&corpus.test, cfg, kind);
    let forest = RandomForest::fit(&train, forest_cfg);
    let preds = forest.predict_batch(&test.x);
    TitleEval {
        accuracy: accuracy(&test.y, &preds),
        confusion: ConfusionMatrix::from_pairs(test.n_classes, &test.y, &preds),
        forest,
        test,
    }
}

/// The deployed title-classifier forest configuration used by the
/// experiments (paper: 500 trees depth 10; 150 trees reach the same
/// accuracy here at a third of the cost — exp_fig14 sweeps the full grid).
pub fn default_forest() -> RandomForestConfig {
    RandomForestConfig {
        n_trees: 150,
        max_depth: 10,
        seed: 3,
        ..Default::default()
    }
}

/// Generates gameplay sessions for stage/pattern evaluations:
/// `n` sessions cycling the catalog, `gameplay_secs` each.
pub fn gameplay_sessions(n: usize, gameplay_secs: f64, seed: u64) -> Vec<Session> {
    let mut generator = SessionGenerator::new();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            generator.generate(&SessionConfig {
                kind: TitleKind::Known(GameTitle::ALL[i % GameTitle::ALL.len()]),
                settings: sample_lab_settings(&mut rng),
                gameplay_secs,
                fidelity: Fidelity::LaunchOnly,
                seed: seed.wrapping_mul(77).wrapping_add(i as u64),
            })
        })
        .collect()
}

/// Per-slot `(features, truth stage)` rows for one session under a slot
/// width and feature configuration — the exact pipeline path.
pub fn session_stage_rows(
    session: &Session,
    slot: nettrace::units::Micros,
    feature_cfg: &cgc_features::vol_attrs::StageFeatureConfig,
    seed_slots: usize,
) -> Vec<([f64; 4], Stage)> {
    let vol = session.vol_at(slot);
    if vol.len() <= seed_slots {
        return Vec::new();
    }
    let mut extractor = StageFeatureExtractor::new(feature_cfg, slot, &vol.samples[..seed_slots]);
    let mut out = Vec::new();
    for (j, sample) in vol.samples.iter().enumerate().skip(seed_slots) {
        let feats = extractor.push(sample);
        let midpoint = j as u64 * slot + slot / 2;
        if let Some(stage) = session.timeline.stage_at(midpoint) {
            out.push((feats, stage));
        }
    }
    out
}

/// Builds a labeled stage dataset (4 classes incl. launch) from sessions.
pub fn stage_dataset_from(
    sessions: &[Session],
    slot: nettrace::units::Micros,
    feature_cfg: &cgc_features::vol_attrs::StageFeatureConfig,
    seed_slots: usize,
) -> Dataset {
    let mut x = Vec::new();
    let mut y = Vec::new();
    for s in sessions {
        for (feats, stage) in session_stage_rows(s, slot, feature_cfg, seed_slots) {
            x.push(feats.to_vec());
            y.push(stage_class_id(stage));
        }
    }
    Dataset::new(x, y).with_n_classes(4)
}

/// Loads (or trains and caches) the full-quality model bundle used by the
/// deployment experiments. The cache lives in the results directory so
/// `run_all` trains once.
pub fn cached_bundle() -> ModelBundle {
    let path = cgc_deploy::report::results_dir().join("bundle.json");
    if let Ok(b) = ModelBundle::load(&path) {
        return b;
    }
    let bundle = cgc_deploy::train::train_bundle(&cgc_deploy::train::TrainConfig::default());
    std::fs::create_dir_all(cgc_deploy::report::results_dir()).ok();
    bundle.save(&path).ok();
    bundle
}

/// The default `(N = 5 s, T = 1 s, V = 10 %)` attribute configuration.
pub fn deployed_attr_config() -> LaunchAttrConfig {
    TitleClassifierConfig::default().attr
}

/// The fleet configuration shared by the §5 experiments: a scaled-down
/// three-month deployment (durations ×0.12, ~1200 sessions).
pub fn fleet_config() -> cgc_deploy::FleetConfig {
    cgc_deploy::FleetConfig {
        n_sessions: 2000,
        duration_scale: 0.12,
        ..Default::default()
    }
}

/// Loads (or runs and caches) the shared fleet records for the §5
/// experiments, using the cached bundle with a measurement-learned
/// calibration table (two-pass: classify → calibrate → relabel QoE).
pub fn cached_fleet() -> Vec<cgc_deploy::SessionRecord> {
    let path = cgc_deploy::report::results_dir().join("fleet_records.json");
    if let Ok(body) = std::fs::read_to_string(&path) {
        if let Ok(records) = serde_json::from_str(&body) {
            return records;
        }
    }
    let mut bundle = cached_bundle();
    let cfg = fleet_config();
    // Calibration month: learn per-context demand from a first pass.
    let calib_records = cgc_deploy::run_fleet(
        &bundle,
        &cgc_deploy::FleetConfig {
            n_sessions: 300,
            seed: cfg.seed ^ 0xCA11B,
            uniform_titles: true,
            ..cfg.clone()
        },
    );
    bundle.calibration = cgc_deploy::aggregate::calibrate(&calib_records);
    let records = cgc_deploy::run_fleet(&bundle, &cfg);
    std::fs::create_dir_all(cgc_deploy::report::results_dir()).ok();
    if let Ok(json) = serde_json::to_string(&records) {
        std::fs::write(&path, json).ok();
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_and_eval_roundtrip() {
        let corpus = LaunchCorpus::generate(3, 2, 5.0, 1);
        assert_eq!(corpus.train.len(), 39);
        assert_eq!(corpus.test.len(), 26);
        let cfg = deployed_attr_config();
        let eval = eval_title(
            &corpus,
            &cfg,
            AttrKind::PacketGroup,
            &RandomForestConfig {
                n_trees: 25,
                ..Default::default()
            },
            2,
        );
        assert!(eval.accuracy > 0.5, "accuracy {}", eval.accuracy);
        assert_eq!(eval.confusion.n_classes(), 13);
    }

    #[test]
    fn stage_rows_align_with_truth() {
        let sessions = gameplay_sessions(2, 120.0, 3);
        let rows = session_stage_rows(
            &sessions[0],
            nettrace::units::MICROS_PER_SEC,
            &Default::default(),
            10,
        );
        assert!(!rows.is_empty());
        // Early rows (still in launch) are labeled Launch.
        assert_eq!(rows[0].1, Stage::Launch);
        // Later rows include gameplay stages.
        assert!(rows.iter().any(|(_, s)| s.is_gameplay()));
    }
}
