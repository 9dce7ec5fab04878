//! Game title classification (§4.2).
//!
//! A Random Forest over the packet-group attributes of the first `N`
//! seconds of a streaming flow. Predictions whose vote confidence falls
//! below the threshold are reported as *unknown* — the paper observes that
//! most misclassified sessions carry confidence under 40 %, so unknown
//! gating both absorbs out-of-catalog titles and suppresses unreliable
//! in-catalog calls (§4.4.1).

use cgc_domain::GameTitle;
use cgc_features::launch_attrs::{launch_attributes, LaunchAttrConfig};
use mlcore::forest::{RandomForest, RandomForestConfig};
use mlcore::{argmax, Classifier, Dataset, FlatForest};
use nettrace::packet::Packet;
use serde::{Deserialize, Serialize, Value};

/// Title classifier configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TitleClassifierConfig {
    /// Launch attribute extraction parameters (`N`, `T`, `V`).
    pub attr: LaunchAttrConfig,
    /// Forest hyperparameters. The paper deploys 500 trees at depth 10;
    /// the default here is 150 trees (same accuracy on our data, faster).
    pub forest: RandomForestConfig,
    /// Minimum vote confidence to report a title (below → unknown).
    pub confidence_threshold: f64,
}

impl Default for TitleClassifierConfig {
    fn default() -> Self {
        TitleClassifierConfig {
            attr: LaunchAttrConfig::default(),
            forest: RandomForestConfig {
                n_trees: 150,
                max_depth: 10,
                ..Default::default()
            },
            // The paper observes misclassified sessions carry < 40 %
            // confidence; on our traffic the separation sits higher
            // (catalog sessions p10 ≈ 0.9, out-of-catalog max ≈ 0.63), so
            // the deployed gate is 0.65.
            confidence_threshold: 0.65,
        }
    }
}

/// Outcome of classifying one session's launch window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TitlePrediction {
    /// The classified catalog title, or `None` for "unknown".
    pub title: Option<GameTitle>,
    /// Vote confidence of the top class (even when reported unknown).
    pub confidence: f64,
}

/// A trained game title classifier.
///
/// Inference runs on the [`FlatForest`] compiled from the trained forest;
/// the flat form is rebuilt on deserialization, so the wire format is
/// unchanged from the pointer-only version.
#[derive(Debug, Clone)]
pub struct TitleClassifier {
    forest: RandomForest,
    flat: FlatForest,
    config: TitleClassifierConfig,
}

impl Serialize for TitleClassifier {
    fn to_value(&self) -> Value {
        // Mirror the old derived `{ forest, config }` layout.
        Value::Object(vec![
            ("forest".to_string(), self.forest.to_value()),
            ("config".to_string(), self.config.to_value()),
        ])
    }
}

impl Deserialize for TitleClassifier {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let forest = RandomForest::from_value(v.field("forest")?)?;
        let config = TitleClassifierConfig::from_value(v.field("config")?)?;
        Ok(TitleClassifier::from_parts(forest, config))
    }
}

impl TitleClassifier {
    /// Trains on a dataset whose class ids are [`GameTitle::index`] values.
    ///
    /// # Panics
    /// Panics if the dataset's feature width does not match the attribute
    /// configuration.
    pub fn train(data: &Dataset, config: TitleClassifierConfig) -> TitleClassifier {
        assert_eq!(
            data.n_features(),
            config.attr.n_attributes(),
            "dataset width does not match attribute config"
        );
        Self::from_parts(RandomForest::fit(data, &config.forest), config)
    }

    fn from_parts(forest: RandomForest, config: TitleClassifierConfig) -> TitleClassifier {
        let flat = forest.to_flat();
        TitleClassifier {
            forest,
            flat,
            config,
        }
    }

    /// Classifies from a pre-extracted attribute vector.
    pub fn classify_features(&self, attrs: &[f64]) -> TitlePrediction {
        self.classify_features_scored(attrs).0
    }

    /// [`classify_features`](Self::classify_features) plus the top-1
    /// margin (top vote share minus runner-up share) — the label-free
    /// drift signal, computed from the same probability pass at no extra
    /// inference cost.
    fn classify_features_scored(&self, attrs: &[f64]) -> (TitlePrediction, f64) {
        let mut proba = vec![0.0f64; self.flat.n_classes()];
        self.flat.predict_proba_into(attrs, &mut proba);
        let best = argmax(&proba);
        let conf = proba.get(best).copied().unwrap_or(0.0);
        let runner_up = proba
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != best)
            .map(|(_, &p)| p)
            .fold(0.0f64, f64::max);
        let prediction = TitlePrediction {
            title: (conf >= self.config.confidence_threshold)
                .then(|| GameTitle::from_index(best))
                .flatten(),
            confidence: conf,
        };
        (prediction, (conf - runner_up).max(0.0))
    }

    /// Classifies from the raw packets of a flow's first seconds
    /// (timestamps relative to flow start).
    pub fn classify(&self, packets: &[Packet]) -> TitlePrediction {
        self.classify_scored(packets).0
    }

    /// [`classify`](Self::classify) plus the top-1 margin.
    pub fn classify_scored(&self, packets: &[Packet]) -> (TitlePrediction, f64) {
        let attrs = launch_attributes(packets, &self.config.attr);
        self.classify_features_scored(&attrs)
    }

    /// The attribute configuration the model was trained with.
    pub fn attr_config(&self) -> &LaunchAttrConfig {
        &self.config.attr
    }

    /// Access to the underlying forest (for importance analyses).
    pub fn forest(&self) -> &RandomForest {
        &self.forest
    }

    /// Content digest of the compiled inference forest (model-registry
    /// artifact verification).
    pub fn flat_checksum(&self) -> u64 {
        self.flat.checksum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgc_domain::StreamSettings;
    use gamesim::{Fidelity, SessionConfig, SessionGenerator, TitleKind};

    /// Builds a small labeled launch-attribute dataset from gamesim.
    fn tiny_dataset(titles: &[GameTitle], per_title: usize, seed0: u64) -> Dataset {
        let cfg = LaunchAttrConfig::default();
        let mut generator = SessionGenerator::new();
        let mut x = Vec::new();
        let mut y = Vec::new();
        for (k, &t) in titles.iter().enumerate() {
            for i in 0..per_title {
                let s = generator.generate(&SessionConfig {
                    kind: TitleKind::Known(t),
                    settings: StreamSettings::default_pc(),
                    gameplay_secs: 1.0,
                    fidelity: Fidelity::LaunchOnly,
                    seed: seed0 + (k * 1000 + i) as u64,
                });
                x.push(launch_attributes(&s.launch_window(5.0), &cfg));
                y.push(t.index());
            }
        }
        Dataset::new(x, y).with_n_classes(GameTitle::ALL.len())
    }

    #[test]
    fn learns_to_separate_titles() {
        let titles = [
            GameTitle::Fortnite,
            GameTitle::GenshinImpact,
            GameTitle::Hearthstone,
        ];
        let train = tiny_dataset(&titles, 8, 0);
        let test = tiny_dataset(&titles, 4, 9999);
        let clf = TitleClassifier::train(
            &train,
            TitleClassifierConfig {
                forest: RandomForestConfig {
                    n_trees: 40,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let mut correct = 0;
        for (xi, yi) in test.x.iter().zip(&test.y) {
            let p = clf.classify_features(xi);
            if p.title.map(|t| t.index()) == Some(*yi) {
                correct += 1;
            }
        }
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.8, "accuracy {acc}");
    }

    #[test]
    fn low_confidence_reports_unknown() {
        let titles = [GameTitle::Fortnite, GameTitle::CsGo];
        let train = tiny_dataset(&titles, 6, 0);
        let clf = TitleClassifier::train(
            &train,
            TitleClassifierConfig {
                confidence_threshold: 1.01, // impossible bar
                forest: RandomForestConfig {
                    n_trees: 10,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let p = clf.classify_features(&train.x[0]);
        assert!(p.title.is_none());
        assert!(p.confidence > 0.0);
    }

    #[test]
    fn classify_matches_classify_features() {
        let titles = [GameTitle::Dota2, GameTitle::R6Siege];
        let train = tiny_dataset(&titles, 5, 3);
        let clf = TitleClassifier::train(
            &train,
            TitleClassifierConfig {
                forest: RandomForestConfig {
                    n_trees: 10,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let mut generator = SessionGenerator::new();
        let s = generator.generate(&SessionConfig {
            kind: TitleKind::Known(GameTitle::Dota2),
            settings: StreamSettings::default_pc(),
            gameplay_secs: 1.0,
            fidelity: Fidelity::LaunchOnly,
            seed: 777,
        });
        let pkts = s.launch_window(5.0);
        let a = clf.classify(&pkts);
        let b = clf.classify_features(&launch_attributes(&pkts, clf.attr_config()));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "does not match attribute config")]
    fn wrong_width_dataset_panics() {
        let d = Dataset::new(vec![vec![1.0, 2.0]], vec![0]);
        let _ = TitleClassifier::train(&d, TitleClassifierConfig::default());
    }
}
