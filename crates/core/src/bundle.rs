//! Trained model bundles.
//!
//! Everything the real-time pipeline needs at inference time, packaged for
//! serialization: the three classifiers, the feature/slot configuration
//! they were trained with, the objective QoE thresholds and the learned
//! demand calibration table. Deployments train once (see
//! `cgc-deploy::train`), persist the bundle as JSON, and load it at the
//! tap.

use cgc_lifecycle::{Artifact, LiveModel, ModelDescriptor};
use mlcore::{Classifier, FlatForest};
use nettrace::units::{Micros, MICROS_PER_SEC};
use serde::{Deserialize, Serialize, Value};
use std::io;
use std::ops::RangeInclusive;
use std::path::Path;
use std::sync::Arc;

use cgc_features::vol_attrs::StageFeatureConfig;

use crate::pattern::PatternInferrer;
use crate::qoe::{CalibrationTable, ObjectiveThresholds};
use crate::stage::StageClassifier;
use crate::title::TitleClassifier;

/// A complete trained pipeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelBundle {
    /// Game title classifier (launch window).
    pub title: TitleClassifier,
    /// Player activity stage classifier (per slot).
    pub stage: StageClassifier,
    /// Gameplay activity pattern inferrer (transition features).
    pub pattern: PatternInferrer,
    /// Stage feature extraction configuration (α, peak seeding).
    pub stage_feature: StageFeatureConfig,
    /// Stage classification slot width `I`, microseconds.
    pub stage_slot: Micros,
    /// Objective QoE expected ranges.
    pub thresholds: ObjectiveThresholds,
    /// Learned context demand table for effective QoE.
    pub calibration: CalibrationTable,
}

impl ModelBundle {
    /// The deployed stage slot width: `I = 1 s`.
    pub const DEFAULT_STAGE_SLOT: Micros = MICROS_PER_SEC;

    /// Serializes the bundle to JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Deserializes a bundle from JSON.
    pub fn from_json(s: &str) -> serde_json::Result<ModelBundle> {
        serde_json::from_str(s)
    }

    /// Writes the bundle to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let json = self.to_json().map_err(io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Loads a bundle from a file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<ModelBundle> {
        let json = std::fs::read_to_string(path)?;
        Self::from_json(&json).map_err(io::Error::other)
    }
}

/// Loads a classifier's `flat` forest, refusing one whose row width is not
/// `n_features` or whose class count is outside `classes`: the classifier
/// would otherwise panic on its first row.
pub(crate) fn load_forest(
    v: &Value,
    n_features: usize,
    classes: RangeInclusive<usize>,
) -> Result<FlatForest, serde::Error> {
    let flat = FlatForest::from_value(v.field("flat")?)?;
    if flat.n_features() != n_features || !classes.contains(&flat.n_classes()) {
        return Err(serde::Error::new(format!(
            "forest of {} features and {} classes, the classifier needs {n_features} and {classes:?}",
            flat.n_features(),
            flat.n_classes(),
        )));
    }
    Ok(flat)
}

impl Artifact for ModelBundle {
    fn descriptors(&self) -> Vec<ModelDescriptor> {
        vec![
            ModelDescriptor {
                model: "title".into(),
                n_classes: self.title.flat.n_classes(),
                flat_checksum: self.title.flat_checksum(),
            },
            ModelDescriptor {
                model: "stage".into(),
                n_classes: self.stage.flat.n_classes(),
                flat_checksum: self.stage.flat_checksum(),
            },
            ModelDescriptor {
                model: "pattern".into(),
                n_classes: self.pattern.flat.n_classes(),
                flat_checksum: self.pattern.flat_checksum(),
            },
        ]
    }
}

/// Where a monitor gets its models: a fixed bundle reference (the
/// pre-lifecycle deployment shape) or a hot-swappable [`LiveModel`]
/// slot. `Copy`, so it threads through constructors like the plain
/// reference used to.
///
/// Every flow **pins** at admission: one [`ModelSource::pin`] call
/// resolves the source to a concrete `&ModelBundle` plus the registry
/// version it was published under (0 for fixed bundles). In-flight
/// flows therefore finish on the version they started with while a
/// concurrent publish redirects only new admissions — zero stall, no
/// torn reads.
#[derive(Debug, Clone, Copy)]
pub enum ModelSource<'b> {
    /// A fixed bundle, never swapped (version 0).
    Fixed(&'b ModelBundle),
    /// A hot-swappable versioned slot.
    Live(&'b LiveModel<ModelBundle>),
}

impl<'b> ModelSource<'b> {
    /// Resolves to the bundle serving *right now* plus its registry
    /// version. One atomic load on the `Live` arm; free on `Fixed`.
    pub fn pin(self) -> (&'b ModelBundle, u32) {
        match self {
            ModelSource::Fixed(bundle) => (bundle, 0),
            ModelSource::Live(slot) => {
                let pinned = slot.load();
                (pinned.value(), pinned.version())
            }
        }
    }

    /// True when decisions should be stamped with a model version
    /// (i.e. the source can actually swap).
    pub fn is_live(self) -> bool {
        matches!(self, ModelSource::Live(_))
    }
}

impl<'b> From<&'b ModelBundle> for ModelSource<'b> {
    fn from(bundle: &'b ModelBundle) -> ModelSource<'b> {
        ModelSource::Fixed(bundle)
    }
}

impl<'b> From<&'b Arc<ModelBundle>> for ModelSource<'b> {
    fn from(bundle: &'b Arc<ModelBundle>) -> ModelSource<'b> {
        ModelSource::Fixed(bundle)
    }
}

impl<'b> From<&'b LiveModel<ModelBundle>> for ModelSource<'b> {
    fn from(slot: &'b LiveModel<ModelBundle>) -> ModelSource<'b> {
        ModelSource::Live(slot)
    }
}

impl<'b> From<&'b Arc<LiveModel<ModelBundle>>> for ModelSource<'b> {
    fn from(slot: &'b Arc<LiveModel<ModelBundle>>) -> ModelSource<'b> {
        ModelSource::Live(slot)
    }
}
