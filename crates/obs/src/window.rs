//! The per-model core behind [`QualityHub`](crate::QualityHub) and
//! [`DriftEngine`](crate::DriftEngine): one profile-labelled
//! [`channel`](crate::channel) of `(model, value)` samples, drained into a
//! sliding window per [`ModelKind`], each window scored by what the
//! consumer plugs in — a confusion matrix, or PSI/KS/novelty against a
//! frozen reference.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::channel::{Channel, Family, Sink};
use crate::metric::Gauge;
use crate::quality::ModelKind;
use crate::registry::Registry;

/// What a consumer keeps about one model's window.
pub(crate) trait Score {
    /// One sample's value.
    type Value: Copy;

    /// Takes `value` into the score; `false` keeps it out of the window (a
    /// malformed sample, or one a warmup consumed).
    fn enter(&mut self, value: Self::Value) -> bool;

    /// Takes back a value the window evicted.
    fn leave(&mut self, value: Self::Value);

    /// Recomputes the score over a window of `len` values and publishes it.
    fn sync(&mut self, len: usize);
}

/// One model's window: its values, their bound and their score.
pub(crate) struct Window<S: Score> {
    pub kind: ModelKind,
    pub values: VecDeque<S::Value>,
    cap: usize,
    pub state: S,
}

/// Registers a model's gauges: `model=`, an optional extra label
/// (`class=`, `signal=`) and `profile=` when the consumer has one — with a
/// profile every family of the consumer carries it, so per-regime
/// consumers scraped side by side stay apart.
pub(crate) struct Gauges<'a> {
    registry: &'a Registry,
    model: &'static str,
    profile: Option<&'static str>,
}

impl Gauges<'_> {
    pub fn gauge(&self, family: &str, help: &str, extra: Option<(&str, &str)>) -> Arc<Gauge> {
        let mut labels = vec![("model", self.model)];
        labels.extend(extra);
        labels.extend(self.profile.map(|p| ("profile", p)));
        self.registry.gauge_with(family, help, &labels)
    }
}

/// The channel and one window per model, indexed by discriminant.
pub(crate) struct ModelWindows<S: Score> {
    channel: Arc<Channel<(ModelKind, S::Value)>>,
    pub models: Vec<Window<S>>,
}

impl<S: Score> ModelWindows<S> {
    /// A channel of `ring_capacity` samples counting accepted and shed
    /// ones in `families`, plus every model's window: `model` gives its
    /// bound and its score, registering gauges through [`Gauges`]. Every
    /// family exists — and lints — before the first sample arrives.
    pub fn new(
        ring_capacity: usize,
        families: [Family; 2],
        profile: Option<&'static str>,
        registry: &Registry,
        mut model: impl FnMut(ModelKind, &Gauges<'_>) -> (usize, S),
    ) -> (Sink<(ModelKind, S::Value)>, Self) {
        let [samples, shed] = families;
        let channel = Channel::new(ring_capacity, registry, samples, shed, profile);
        let models = ModelKind::ALL
            .into_iter()
            .map(|kind| {
                let gauges = Gauges {
                    registry,
                    model: kind.name(),
                    profile,
                };
                let (cap, state) = model(kind, &gauges);
                Window {
                    kind,
                    values: VecDeque::new(),
                    cap: cap.max(1),
                    state,
                }
            })
            .collect();
        (channel.sink(), ModelWindows { channel, models })
    }

    /// Drains every queued sample into its model's window — evicting the
    /// oldest past the bound — then rescores every model; returns how many
    /// samples were consumed.
    pub fn drain_and_sync(&mut self) -> usize {
        let models = &mut self.models;
        let n = self.channel.drain(|(kind, value)| {
            let w = &mut models[kind as usize];
            if w.state.enter(value) {
                w.values.push_back(value);
                while w.values.len() > w.cap {
                    let old = w.values.pop_front().expect("non-empty window");
                    w.state.leave(old);
                }
            }
        });
        for w in &mut self.models {
            w.state.sync(w.values.len());
        }
        n
    }

    /// Samples shed because the ring was full.
    pub fn shed(&self) -> u64 {
        self.channel.dropped()
    }

    /// One model's window.
    pub fn get(&self, kind: ModelKind) -> &Window<S> {
        &self.models[kind as usize]
    }
}
