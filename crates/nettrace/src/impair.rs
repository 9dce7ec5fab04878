//! Adversarial network-condition engine for fault injection.
//!
//! The paper's parameters (N, T, V, I, α) were tuned on clean lab traffic
//! and §4.4.1 notes that degraded networks shift them; the deployment also
//! needs genuinely bad sessions to exercise QoE labeling. Real access links
//! are not uniform-noise channels: loss is bursty (Gilbert–Elliott), jitter
//! is correlated packet to packet (an AR(1) or spike process, not iid
//! uniform), congestion shows up as *queueing delay* long before it shows up
//! as drops (bufferbloat), and capacity varies over a session (cellular
//! handovers, evening congestion, flash crowds).
//!
//! This module models all four:
//!
//! * [`LossModel`] — iid and two-state Gilbert–Elliott burst loss, with the
//!   stationary closed form exposed as
//!   [`expected_loss_rate`](LossModel::expected_loss_rate).
//! * [`JitterModel`] — uniform (legacy), AR(1)
//!   (autocorrelated Gaussian) and two-state calm/spike jitter.
//! * [`Bottleneck`] + [`CapacitySchedule`] — a FIFO bottleneck link with a
//!   deep buffer: rate shortfall becomes growing queueing delay first and
//!   tail drops only once the configured sojourn limit is exceeded, driven
//!   by a piecewise-constant capacity trace (ramps, mid-session drops,
//!   flash-crowd dips).
//! * [`ImpairmentProfile`] — a named, versioned catalog of end-to-end
//!   presets (`clean`, `dsl-bloated`, `lossy-wifi`, `lte-handover`,
//!   `congested-evening`) that the deployment simulator and the
//!   `fleet --impair <profile>` CLI select by name.
//!
//! The legacy knobs (uniform jitter, token-bucket rate cap) are preserved
//! unchanged for backward compatibility — the same fault-injection spirit as
//! the smoltcp example harness (`--drop-chance`, `--tx-rate-limit`, …).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::packet::Packet;
use crate::units::{Micros, MICROS_PER_SEC};
use crate::vol::VolSeries;

/// Packet loss model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LossModel {
    /// No loss.
    #[default]
    None,
    /// Independent (Bernoulli) loss with the given probability.
    Iid {
        /// Per-packet drop probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott burst loss: in the *good* state packets
    /// pass, in the *bad* state they drop with probability `p_bad`.
    Burst {
        /// Probability of moving good → bad per packet.
        p_enter: f64,
        /// Probability of moving bad → good per packet.
        p_exit: f64,
        /// Drop probability while in the bad state.
        p_bad: f64,
    },
}

impl LossModel {
    /// Long-run expected loss rate of the model.
    ///
    /// For [`LossModel::Burst`] this is the Gilbert–Elliott closed form:
    /// the chain's stationary bad-state probability
    /// `p_enter / (p_enter + p_exit)` times `p_bad`.
    ///
    /// ```
    /// use nettrace::impair::LossModel;
    /// let ge = LossModel::Burst { p_enter: 0.02, p_exit: 0.3, p_bad: 0.5 };
    /// let expect = 0.02 / (0.02 + 0.3) * 0.5;
    /// assert!((ge.expected_loss_rate() - expect).abs() < 1e-12);
    /// assert_eq!(LossModel::None.expected_loss_rate(), 0.0);
    /// ```
    pub fn expected_loss_rate(&self) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Iid { p } => p.clamp(0.0, 1.0),
            LossModel::Burst {
                p_enter,
                p_exit,
                p_bad,
            } => {
                let p_enter = p_enter.clamp(0.0, 1.0);
                let p_exit = p_exit.clamp(0.0, 1.0);
                if p_enter + p_exit <= 0.0 {
                    return 0.0;
                }
                p_enter / (p_enter + p_exit) * p_bad.clamp(0.0, 1.0)
            }
        }
    }
}

/// Per-packet jitter model.
///
/// Real access-network jitter is correlated: a delayed packet is usually
/// followed by another delayed packet (queue drain, radio retransmission
/// bursts). [`JitterModel::Uniform`] reproduces the legacy iid behavior;
/// the other two model correlation explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum JitterModel {
    /// No jitter.
    #[default]
    None,
    /// Legacy iid uniform jitter in `[0, max]` microseconds.
    Uniform {
        /// Maximum per-packet jitter, microseconds.
        max: Micros,
    },
    /// First-order autoregressive Gaussian jitter: the latent state evolves
    /// as `x' = rho·x + sqrt(1 − rho²)·sigma·z` with `z ~ N(0, 1)`, so the
    /// stationary distribution is `N(0, sigma²)` and the lag-1
    /// autocorrelation is `rho`. The emitted delay is `max(0, 2·sigma + x)`
    /// — centered two standard deviations above zero so ~98% of samples are
    /// positive and clamping barely distorts the process.
    Ar1 {
        /// Stationary standard deviation, microseconds.
        sigma: Micros,
        /// Lag-1 autocorrelation in `[0, 1)`.
        rho: f64,
    },
    /// Two-state Markov jitter: *calm* emits uniform `[0, calm]`, *spike*
    /// emits uniform `[spike/2, spike]` (radio handover / Wi-Fi contention
    /// bursts). State transitions happen once per packet.
    TwoState {
        /// Calm-state maximum jitter, microseconds.
        calm: Micros,
        /// Spike-state maximum jitter, microseconds.
        spike: Micros,
        /// Probability of moving calm → spike per packet.
        p_spike: f64,
        /// Probability of moving spike → calm per packet.
        p_calm: f64,
    },
}

/// Stateful sampler for a [`JitterModel`].
#[derive(Debug, Clone)]
struct JitterProcess {
    model: JitterModel,
    /// AR(1) latent state, microseconds.
    ar1_state: f64,
    /// Cached second Gaussian from the polar transform.
    spare: Option<f64>,
    /// Two-state model: currently in the spike state.
    in_spike: bool,
}

impl JitterProcess {
    /// Builds a sampler in its stationary start state (AR(1) at 0, two-state
    /// in calm).
    fn new(model: JitterModel) -> Self {
        JitterProcess {
            model,
            ar1_state: 0.0,
            spare: None,
            in_spike: false,
        }
    }

    /// Standard Gaussian via the Marsaglia polar method (the rand shim has
    /// no normal distribution).
    fn gauss<R: Rng>(&mut self, rng: &mut R) -> f64 {
        if let Some(s) = self.spare.take() {
            return s;
        }
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let m = (-2.0 * s.ln() / s).sqrt();
                self.spare = Some(v * m);
                return u * m;
            }
        }
    }

    /// Draws the next per-packet jitter, microseconds.
    fn next_jitter<R: Rng>(&mut self, rng: &mut R) -> Micros {
        match self.model {
            JitterModel::None => 0,
            JitterModel::Uniform { max } => {
                if max > 0 {
                    rng.gen_range(0..=max)
                } else {
                    0
                }
            }
            JitterModel::Ar1 { sigma, rho } => {
                let sigma = sigma as f64;
                let rho = rho.clamp(0.0, 0.999_999);
                let z = self.gauss(rng);
                self.ar1_state = rho * self.ar1_state + (1.0 - rho * rho).sqrt() * sigma * z;
                (2.0 * sigma + self.ar1_state).max(0.0) as Micros
            }
            JitterModel::TwoState {
                calm,
                spike,
                p_spike,
                p_calm,
            } => {
                if self.in_spike {
                    if rng.gen_bool(p_calm.clamp(0.0, 1.0)) {
                        self.in_spike = false;
                    }
                } else if rng.gen_bool(p_spike.clamp(0.0, 1.0)) {
                    self.in_spike = true;
                }
                if self.in_spike {
                    let lo = spike / 2;
                    if spike > lo {
                        rng.gen_range(lo..=spike)
                    } else {
                        spike
                    }
                } else if calm > 0 {
                    rng.gen_range(0..=calm)
                } else {
                    0
                }
            }
        }
    }
}

/// Piecewise-constant bottleneck capacity over session time.
///
/// Segment starts are microsecond-exact: a segment's rate applies from its
/// start timestamp (inclusive) until the next segment's start.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacitySchedule {
    /// `(start_us, bytes_per_sec)`, sorted by start, first entry at 0.
    segments: Vec<(Micros, u64)>,
}

impl CapacitySchedule {
    /// Constant capacity for the whole session.
    pub fn constant(bytes_per_sec: u64) -> Self {
        CapacitySchedule {
            segments: vec![(0, bytes_per_sec)],
        }
    }

    /// Builds from explicit `(start_us, bytes_per_sec)` steps. Steps are
    /// sorted by start; a step at 0 is prepended (repeating the first rate)
    /// if missing so `rate_at` is total.
    pub fn steps(mut steps: Vec<(Micros, u64)>) -> Self {
        assert!(!steps.is_empty(), "schedule needs at least one segment");
        steps.sort_by_key(|&(t, _)| t);
        if steps[0].0 != 0 {
            let first_rate = steps[0].1;
            steps.insert(0, (0, first_rate));
        }
        CapacitySchedule { segments: steps }
    }

    /// Cellular-like linear ramp from `from` to `to` bytes/sec over
    /// `[start, start + duration)`, quantized into `steps` equal segments.
    pub fn ramp(from: u64, to: u64, start: Micros, duration: Micros, steps: u32) -> Self {
        let steps = steps.max(1);
        let mut segs = Vec::with_capacity(steps as usize + 1);
        if start > 0 {
            segs.push((0, from));
        }
        for i in 0..steps {
            let t = start + duration * u64::from(i) / u64::from(steps);
            let frac = if steps > 1 {
                f64::from(i) / f64::from(steps - 1)
            } else {
                1.0
            };
            let rate = from as f64 + (to as f64 - from as f64) * frac;
            segs.push((t, rate.max(0.0) as u64));
        }
        Self::steps(segs)
    }

    /// Mid-session degradation: `before` bytes/sec until `onset`, `after`
    /// from then on (a handover to a congested cell, say).
    fn degrade_at(before: u64, after: u64, onset: Micros) -> Self {
        Self::steps(vec![(0, before), (onset, after)])
    }

    /// Flash-crowd dip: `base` capacity with a dip to `floor` over
    /// `[onset, onset + dip_len)`.
    pub fn dip(base: u64, floor: u64, onset: Micros, dip_len: Micros) -> Self {
        Self::steps(vec![(0, base), (onset, floor), (onset + dip_len, base)])
    }

    /// Capacity in effect at `ts` (microseconds from session start).
    fn rate_at(&self, ts: Micros) -> u64 {
        match self.segments.binary_search_by_key(&ts, |&(t, _)| t) {
            Ok(i) => self.segments[i].1,
            Err(0) => self.segments[0].1,
            Err(i) => self.segments[i - 1].1,
        }
    }

    /// Returns a copy with every segment's rate scaled by `factor`
    /// (clamped non-negative). Used to compose a profile with an external
    /// schedule window, e.g. the fleet's diurnal arrival model.
    pub fn scaled(&self, factor: f64) -> Self {
        let f = factor.max(0.0);
        CapacitySchedule {
            segments: self
                .segments
                .iter()
                .map(|&(t, r)| (t, (r as f64 * f) as u64))
                .collect(),
        }
    }
}

/// A FIFO bottleneck link with a deep buffer (bufferbloat).
///
/// Packets are served in order at the scheduled capacity; when the offered
/// load exceeds capacity the queue grows and each packet's departure is
/// pushed out by the backlog ahead of it — *queueing delay*, not loss. Only
/// when a packet's would-be sojourn time exceeds `queue_limit` is it
/// tail-dropped, which is how real CPE buffers behave.
#[derive(Debug, Clone, PartialEq)]
pub struct Bottleneck {
    /// Link capacity over time.
    pub capacity: CapacitySchedule,
    /// Maximum queueing delay before tail drop, microseconds.
    pub queue_limit: Micros,
}

/// Configuration of the impairment channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ImpairmentConfig {
    /// Fixed one-way delay added to every packet, microseconds.
    pub base_delay: Micros,
    /// Maximum additional uniform jitter per packet, microseconds (legacy
    /// knob; ignored when [`jitter_model`](Self::jitter_model) is set).
    /// Jitter may reorder packets (consumers sort by timestamp).
    pub jitter: Micros,
    /// Correlated jitter model. [`JitterModel::None`] falls back to the
    /// legacy uniform `jitter` field.
    pub jitter_model: JitterModel,
    /// Loss model.
    pub loss: LossModel,
    /// Optional downstream rate cap in bytes/second enforced with a token
    /// bucket of one second's depth; non-conforming packets are dropped
    /// (models a policer that starves the stream without buffering).
    pub rate_limit_bytes_per_sec: Option<u64>,
    /// Optional bufferbloat-style bottleneck: rate shortfall becomes
    /// queueing delay first, tail drops only past
    /// [`Bottleneck::queue_limit`].
    pub bottleneck: Option<Bottleneck>,
    /// RNG seed so impaired traces are reproducible.
    pub seed: u64,
}

impl Default for ImpairmentConfig {
    fn default() -> Self {
        ImpairmentConfig {
            base_delay: 0,
            jitter: 0,
            jitter_model: JitterModel::None,
            loss: LossModel::None,
            rate_limit_bytes_per_sec: None,
            bottleneck: None,
            seed: 0,
        }
    }
}

impl ImpairmentConfig {
    /// A clean channel (identity transform).
    pub fn clean() -> Self {
        Self::default()
    }

    /// A "poor network" preset used by the deployment simulator: high
    /// delay/jitter, bursty loss, and a rate cap well below cloud-gaming
    /// demand — the kind of session the observability platform should flag
    /// as genuinely degraded.
    pub fn poor_network(seed: u64) -> Self {
        ImpairmentConfig {
            base_delay: 70_000, // 70 ms: the paper's "large game streaming lag" marker
            jitter: 25_000,
            loss: LossModel::Burst {
                p_enter: 0.02,
                p_exit: 0.3,
                p_bad: 0.5,
            },
            rate_limit_bytes_per_sec: Some(600_000), // ~4.8 Mbps, below the 8 Mbps bad-QoE bar
            seed,
            ..Default::default()
        }
    }

    /// The jitter model actually in effect: `jitter_model` if set, else the
    /// legacy uniform `jitter` field.
    fn effective_jitter_model(&self) -> JitterModel {
        match self.jitter_model {
            JitterModel::None if self.jitter > 0 => JitterModel::Uniform { max: self.jitter },
            m => m,
        }
    }
}

/// Stateful impairment channel.
#[derive(Debug)]
pub struct Impairment {
    cfg: ImpairmentConfig,
    rng: StdRng,
    in_bad_state: bool,
    bucket_tokens: f64,
    bucket_last_ts: Option<Micros>,
    jitter: JitterProcess,
    /// Bottleneck FIFO: timestamp at which the link finishes serving
    /// everything currently queued.
    busy_until: Micros,
}

impl Impairment {
    /// Builds a channel from a configuration.
    pub fn new(cfg: ImpairmentConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        let depth = cfg.rate_limit_bytes_per_sec.unwrap_or(0) as f64;
        let jitter = JitterProcess::new(cfg.effective_jitter_model());
        Impairment {
            cfg,
            rng,
            in_bad_state: false,
            bucket_tokens: depth,
            bucket_last_ts: None,
            jitter,
            busy_until: 0,
        }
    }

    /// Applies the channel to one packet; `None` means dropped.
    ///
    /// Order of effects: random loss → token-bucket policer → bottleneck
    /// FIFO (queueing delay or tail drop) → propagation delay + jitter.
    pub fn apply(&mut self, pkt: &Packet) -> Option<Packet> {
        if self.lost() {
            return None;
        }
        if let Some(rate) = self.cfg.rate_limit_bytes_per_sec {
            if !self.conforms(pkt, rate) {
                return None;
            }
        }
        let mut ts = pkt.ts;
        if let Some(b) = &self.cfg.bottleneck {
            let serv_start = ts.max(self.busy_until);
            let qdelay = serv_start - ts;
            if qdelay > b.queue_limit {
                return None; // tail drop: buffer is full
            }
            let rate = b.capacity.rate_at(serv_start);
            if rate == 0 {
                return None; // zero-capacity window (outage)
            }
            let serv_us = (u64::from(pkt.wire_len()) * MICROS_PER_SEC).div_ceil(rate);
            self.busy_until = serv_start + serv_us;
            ts = self.busy_until;
        }
        let jitter = self.jitter.next_jitter(&mut self.rng);
        let mut out = *pkt;
        out.ts = ts.saturating_add(self.cfg.base_delay + jitter);
        Some(out)
    }

    /// Applies the channel to a whole trace, preserving arrival order of
    /// survivors (timestamps may be non-monotonic under jitter).
    pub fn apply_all(&mut self, packets: &[Packet]) -> Vec<Packet> {
        packets.iter().filter_map(|p| self.apply(p)).collect()
    }

    /// Degrades a volumetric series in place, starting at `from` (relative
    /// to the series origin; pass 0 to degrade the whole session).
    ///
    /// Slot throughput is capped to the bottleneck capacity (or the policer
    /// rate) in effect at the slot's start, and packet/byte counts are
    /// thinned by the loss model's expected rate. This is the coarse-grained
    /// twin of [`apply_all`](Self::apply_all) for pipelines that observe the
    /// 100 ms volumetric series rather than individual packets.
    pub fn degrade_vol(&mut self, vol: &mut VolSeries, from: Micros) {
        let width = vol.width.max(1);
        let loss = self.cfg.loss.expected_loss_rate().clamp(0.0, 1.0);
        for (i, s) in vol.samples.iter_mut().enumerate() {
            let t = i as u64 * width;
            if t + width <= from {
                continue;
            }
            let cap_rate = match (&self.cfg.bottleneck, self.cfg.rate_limit_bytes_per_sec) {
                (Some(b), Some(r)) => Some(b.capacity.rate_at(t).min(r)),
                (Some(b), None) => Some(b.capacity.rate_at(t)),
                (None, Some(r)) => Some(r),
                (None, None) => None,
            };
            let keep = 1.0 - loss;
            let mut bytes = s.down_bytes as f64 * keep;
            let mut pkts = s.down_pkts as f64 * keep;
            if let Some(rate) = cap_rate {
                let cap_bytes = rate as f64 * width as f64 / MICROS_PER_SEC as f64;
                if bytes > cap_bytes && bytes > 0.0 {
                    pkts *= cap_bytes / bytes;
                    bytes = cap_bytes;
                }
            }
            s.down_bytes = bytes.round() as u64;
            s.down_pkts = (pkts.round() as u64).max(u64::from(s.down_bytes > 0));
        }
    }
}

impl Impairment {
    fn lost(&mut self) -> bool {
        match self.cfg.loss {
            LossModel::None => false,
            LossModel::Iid { p } => self.rng.gen_bool(p.clamp(0.0, 1.0)),
            LossModel::Burst {
                p_enter,
                p_exit,
                p_bad,
            } => {
                if self.in_bad_state {
                    if self.rng.gen_bool(p_exit.clamp(0.0, 1.0)) {
                        self.in_bad_state = false;
                    }
                } else if self.rng.gen_bool(p_enter.clamp(0.0, 1.0)) {
                    self.in_bad_state = true;
                }
                self.in_bad_state && self.rng.gen_bool(p_bad.clamp(0.0, 1.0))
            }
        }
    }

    fn conforms(&mut self, pkt: &Packet, rate: u64) -> bool {
        let depth = rate as f64; // one second of burst
        if let Some(last) = self.bucket_last_ts {
            let elapsed = pkt.ts.saturating_sub(last) as f64 / MICROS_PER_SEC as f64;
            self.bucket_tokens = (self.bucket_tokens + elapsed * rate as f64).min(depth);
        }
        self.bucket_last_ts = Some(pkt.ts);
        let need = f64::from(pkt.wire_len());
        if self.bucket_tokens >= need {
            self.bucket_tokens -= need;
            true
        } else {
            false
        }
    }
}

/// How an [`ImpairmentProfile`] builds its capacity trace for a session of
/// known duration.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CapacityShape {
    /// No bottleneck.
    Unlimited,
    /// Constant capacity (bytes/sec) for the whole session.
    Flat(u64),
    /// `before` until the degradation onset, `after` from then on.
    DegradeAt {
        /// Capacity before onset, bytes/sec.
        before: u64,
        /// Capacity after onset, bytes/sec.
        after: u64,
    },
    /// Linear ramp from `from` down to `to` starting at the onset and
    /// finishing at session end.
    RampDown {
        /// Capacity at the onset, bytes/sec.
        from: u64,
        /// Capacity at session end, bytes/sec.
        to: u64,
    },
}

/// A named, versioned end-to-end impairment preset.
///
/// Profiles bundle channel knobs (delay, jitter, loss, capacity shape) with
/// the gray-box QoE symptoms a measurement platform would observe on such a
/// link (latency band, delivered-frame-rate ratio), so the deployment
/// simulator can synthesize consistent sessions. Select one by name:
///
/// ```
/// use nettrace::impair::ImpairmentProfile;
///
/// let p = ImpairmentProfile::by_name("lte-handover").unwrap();
/// assert_eq!(p.version, 1);
/// let plan = p.instantiate(42, 60_000_000); // 60 s session
/// assert!(plan.onset.is_some(), "handover degrades mid-session");
/// assert!(ImpairmentProfile::by_name("carrier-pigeon").is_none());
/// assert!(ImpairmentProfile::ALL.len() >= 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpairmentProfile {
    /// Stable selector used by `fleet --impair <name>` and metric labels.
    pub name: &'static str,
    /// Catalog version; bump when a profile's knobs change so committed
    /// regime matrices stay attributable.
    pub version: u32,
    /// One-line description of the network this models.
    pub summary: &'static str,
    /// Nominal severity rank (0 = clean). Documentation only — the measured
    /// regime matrix is the ground truth for ordering.
    pub severity: u8,
    /// Fixed one-way delay, microseconds.
    pub base_delay: Micros,
    /// Correlated jitter model.
    pub jitter: JitterModel,
    /// Loss model.
    pub loss: LossModel,
    /// Bottleneck queue sojourn limit, microseconds (used when the shape
    /// has a bottleneck).
    pub queue_limit: Micros,
    /// Capacity trace shape.
    shape: CapacityShape,
    /// Degradation onset as a fraction range of session duration; `None`
    /// means the profile applies from the first packet.
    pub onset_frac: Option<(f64, f64)>,
    /// Measured-latency band under this profile, milliseconds (gray-box QoE
    /// input for the deployment simulator).
    pub latency_ms: (f64, f64),
    /// Delivered/expected frame-rate ratio band under this profile.
    pub delivered_fps_ratio: (f64, f64),
    /// Scale the capacity trace by the fleet's diurnal congestion factor
    /// (evening arrivals see the least residual capacity).
    pub diurnal: bool,
}

/// A profile instantiated for one concrete session: the channel config plus
/// the degradation onset (microseconds from session start, if mid-session).
#[derive(Debug, Clone, PartialEq)]
pub struct ImpairmentPlan {
    /// Channel configuration for [`Impairment::new`].
    pub config: ImpairmentConfig,
    /// Degradation onset relative to session start, if not from the start.
    pub onset: Option<Micros>,
}

impl ImpairmentProfile {
    /// The profile catalog, mildest first.
    pub const ALL: [ImpairmentProfile; 5] = [
        ImpairmentProfile {
            name: "clean",
            version: 1,
            summary: "well-provisioned fiber access link; identity channel",
            severity: 0,
            base_delay: 0,
            jitter: JitterModel::None,
            loss: LossModel::None,
            queue_limit: 0,
            shape: CapacityShape::Unlimited,
            onset_frac: None,
            latency_ms: (10.0, 25.0),
            // A well-provisioned link delivers every frame: anything below
            // 1.0 would nudge 30/45-fps sessions across the objective
            // frame-rate bars and make `clean` measurably different from
            // the unimpaired baseline.
            delivered_fps_ratio: (1.0, 1.0),
            diurnal: false,
        },
        ImpairmentProfile {
            name: "dsl-bloated",
            version: 1,
            summary: "DSL with a deep CPE buffer: queueing delay, little loss",
            severity: 1,
            base_delay: 15_000,
            jitter: JitterModel::Ar1 {
                sigma: 4_000,
                rho: 0.95,
            },
            loss: LossModel::Iid { p: 0.002 },
            queue_limit: 250_000, // 250 ms of bloat before tail drop
            shape: CapacityShape::Flat(1_200_000), // ~9.6 Mbps
            onset_frac: None,
            latency_ms: (55.0, 110.0),
            delivered_fps_ratio: (0.72, 0.9),
            diurnal: false,
        },
        ImpairmentProfile {
            name: "lossy-wifi",
            version: 1,
            summary: "contended 2.4 GHz Wi-Fi: burst loss and spike jitter, no cap",
            severity: 2,
            base_delay: 10_000,
            jitter: JitterModel::TwoState {
                calm: 3_000,
                spike: 30_000,
                p_spike: 0.05,
                p_calm: 0.3,
            },
            loss: LossModel::Burst {
                p_enter: 0.04,
                p_exit: 0.25,
                p_bad: 0.7,
            },
            queue_limit: 0,
            shape: CapacityShape::Unlimited,
            onset_frac: None,
            latency_ms: (40.0, 90.0),
            delivered_fps_ratio: (0.55, 0.78),
            diurnal: false,
        },
        ImpairmentProfile {
            name: "lte-handover",
            version: 1,
            summary: "cellular link that hands over to a congested cell mid-session",
            severity: 3,
            base_delay: 35_000,
            jitter: JitterModel::TwoState {
                calm: 8_000,
                spike: 60_000,
                p_spike: 0.08,
                p_calm: 0.2,
            },
            loss: LossModel::Burst {
                p_enter: 0.03,
                p_exit: 0.2,
                p_bad: 0.6,
            },
            queue_limit: 150_000,
            shape: CapacityShape::DegradeAt {
                before: 2_000_000,
                after: 350_000, // ~2.8 Mbps after handover
            },
            onset_frac: Some((0.3, 0.6)),
            latency_ms: (70.0, 140.0),
            delivered_fps_ratio: (0.38, 0.6),
            diurnal: false,
        },
        ImpairmentProfile {
            name: "congested-evening",
            version: 1,
            summary: "shared access segment under evening peak: capacity ramps down, heavy bloat",
            severity: 4,
            base_delay: 45_000,
            jitter: JitterModel::Ar1 {
                sigma: 10_000,
                rho: 0.9,
            },
            loss: LossModel::Iid { p: 0.01 },
            queue_limit: 400_000, // deeply bloated shared CMTS buffer
            shape: CapacityShape::RampDown {
                from: 1_500_000,
                to: 280_000,
            },
            onset_frac: Some((0.1, 0.3)),
            latency_ms: (90.0, 180.0),
            delivered_fps_ratio: (0.28, 0.5),
            diurnal: true,
        },
    ];

    /// Looks a profile up by its stable name.
    pub fn by_name(name: &str) -> Option<ImpairmentProfile> {
        Self::ALL.into_iter().find(|p| p.name == name)
    }

    /// Whether the profile degrades traffic at all (`clean` does not).
    pub fn is_degrading(&self) -> bool {
        self.severity > 0
    }

    /// Long-run expected packet loss rate of the profile's loss model.
    pub fn expected_loss_rate(&self) -> f64 {
        self.loss.expected_loss_rate()
    }

    /// Instantiates the profile for a session of `duration` microseconds,
    /// producing the channel config and the sampled degradation onset.
    /// Deterministic in `(seed, duration)`.
    pub fn instantiate(&self, seed: u64, duration: Micros) -> ImpairmentPlan {
        // Separate RNG stream: the onset draw must not perturb the packet
        // channel's draw sequence.
        let mut rng = StdRng::seed_from_u64(seed ^ ONSET_SALT);
        let onset = self.onset_frac.map(|(lo, hi)| {
            let frac = if hi > lo { rng.gen_range(lo..hi) } else { lo };
            (duration as f64 * frac) as Micros
        });
        let capacity = match self.shape {
            CapacityShape::Unlimited => None,
            CapacityShape::Flat(rate) => Some(CapacitySchedule::constant(rate)),
            CapacityShape::DegradeAt { before, after } => Some(CapacitySchedule::degrade_at(
                before,
                after,
                onset.unwrap_or(duration / 2),
            )),
            CapacityShape::RampDown { from, to } => {
                let start = onset.unwrap_or(0);
                Some(CapacitySchedule::ramp(
                    from,
                    to,
                    start,
                    duration.saturating_sub(start).max(1),
                    6,
                ))
            }
        };
        let config = ImpairmentConfig {
            base_delay: self.base_delay,
            jitter: 0,
            jitter_model: self.jitter,
            loss: self.loss,
            rate_limit_bytes_per_sec: None,
            bottleneck: capacity.map(|c| Bottleneck {
                capacity: c,
                queue_limit: self.queue_limit,
            }),
            seed,
        };
        ImpairmentPlan { config, onset }
    }
}

/// Salt for the onset RNG stream (kept out of the packet-channel stream).
const ONSET_SALT: u64 = 0x6f6e_7365_745f_7573; // "onset_us"

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Direction;

    fn trace(n: u64, gap_us: u64, len: u32) -> Vec<Packet> {
        (0..n)
            .map(|i| Packet::new(i * gap_us, Direction::Downstream, len))
            .collect()
    }

    #[test]
    fn clean_channel_is_identity() {
        let pkts = trace(100, 1000, 1432);
        let mut ch = Impairment::new(ImpairmentConfig::clean());
        assert_eq!(ch.apply_all(&pkts), pkts);
    }

    #[test]
    fn base_delay_shifts_timestamps() {
        let pkts = trace(10, 1000, 100);
        let mut ch = Impairment::new(ImpairmentConfig {
            base_delay: 5_000,
            ..Default::default()
        });
        let out = ch.apply_all(&pkts);
        assert!(out.iter().zip(&pkts).all(|(o, p)| o.ts == p.ts + 5_000));
    }

    #[test]
    fn iid_loss_drops_roughly_p() {
        let pkts = trace(20_000, 100, 100);
        let mut ch = Impairment::new(ImpairmentConfig {
            loss: LossModel::Iid { p: 0.2 },
            seed: 7,
            ..Default::default()
        });
        let out = ch.apply_all(&pkts);
        let loss = 1.0 - out.len() as f64 / pkts.len() as f64;
        assert!((loss - 0.2).abs() < 0.02, "observed loss {loss}");
    }

    #[test]
    fn burst_loss_produces_runs() {
        let pkts = trace(50_000, 100, 100);
        let mut ch = Impairment::new(ImpairmentConfig {
            loss: LossModel::Burst {
                p_enter: 0.01,
                p_exit: 0.2,
                p_bad: 1.0,
            },
            seed: 3,
            ..Default::default()
        });
        let out = ch.apply_all(&pkts);
        assert!(out.len() < pkts.len());
        // Bursty loss should produce at least one gap of >= 3 consecutive
        // drops, which iid loss at the same average rate rarely does.
        let surviving: std::collections::HashSet<Micros> = out.iter().map(|p| p.ts).collect();
        let mut max_run = 0;
        let mut run = 0;
        for p in &pkts {
            if surviving.contains(&p.ts) {
                run = 0;
            } else {
                run += 1;
                max_run = max_run.max(run);
            }
        }
        assert!(max_run >= 3, "max drop run {max_run}");
    }

    #[test]
    fn gilbert_elliott_matches_stationary_closed_form() {
        // Long-run loss must track p_enter/(p_enter+p_exit) · p_bad.
        for (p_enter, p_exit, p_bad, seed) in [
            (0.02, 0.3, 0.5, 1u64),
            (0.04, 0.25, 0.7, 2),
            (0.1, 0.1, 1.0, 3),
        ] {
            let model = LossModel::Burst {
                p_enter,
                p_exit,
                p_bad,
            };
            let pkts = trace(200_000, 100, 100);
            let mut ch = Impairment::new(ImpairmentConfig {
                loss: model,
                seed,
                ..Default::default()
            });
            let out = ch.apply_all(&pkts);
            let observed = 1.0 - out.len() as f64 / pkts.len() as f64;
            let expected = model.expected_loss_rate();
            assert!(
                (observed - expected).abs() < expected * 0.1 + 0.002,
                "GE({p_enter},{p_exit},{p_bad}): observed {observed:.4} vs closed form {expected:.4}"
            );
        }
    }

    #[test]
    fn rate_limit_caps_throughput() {
        // 100 Mbps offered, 1 MB/s (8 Mbps) cap over 10 seconds.
        let pkts = trace(100_000, 100, 1196); // 1250 B wire @ 10k pps = 100 Mbps
        let mut ch = Impairment::new(ImpairmentConfig {
            rate_limit_bytes_per_sec: Some(1_000_000),
            ..Default::default()
        });
        let out = ch.apply_all(&pkts);
        let bytes: u64 = out.iter().map(|p| u64::from(p.wire_len())).sum();
        let dur_s = 10.0;
        let rate = bytes as f64 / dur_s;
        assert!(rate <= 1_100_000.0, "rate {rate} exceeds cap");
        assert!(rate >= 800_000.0, "rate {rate} far below cap");
    }

    #[test]
    fn jitter_stays_within_bound_and_is_reproducible() {
        let pkts = trace(1000, 1000, 100);
        let cfg = ImpairmentConfig {
            jitter: 2_000,
            seed: 11,
            ..Default::default()
        };
        let out1 = Impairment::new(cfg.clone()).apply_all(&pkts);
        let out2 = Impairment::new(cfg).apply_all(&pkts);
        assert_eq!(out1, out2);
        assert!(out1
            .iter()
            .zip(&pkts)
            .all(|(o, p)| o.ts >= p.ts && o.ts <= p.ts + 2_000));
    }

    /// Lag-1 autocorrelation of a series.
    fn autocorr(xs: &[f64]) -> f64 {
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum();
        if var == 0.0 {
            return 0.0;
        }
        let cov: f64 = xs.windows(2).map(|w| (w[0] - mean) * (w[1] - mean)).sum();
        cov / var
    }

    #[test]
    fn ar1_jitter_is_autocorrelated_iid_is_not() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ar1 = JitterProcess::new(JitterModel::Ar1 {
            sigma: 5_000,
            rho: 0.9,
        });
        let xs: Vec<f64> = (0..20_000)
            .map(|_| ar1.next_jitter(&mut rng) as f64)
            .collect();
        let mut rng2 = StdRng::seed_from_u64(5);
        let mut iid = JitterProcess::new(JitterModel::Uniform { max: 10_000 });
        let ys: Vec<f64> = (0..20_000)
            .map(|_| iid.next_jitter(&mut rng2) as f64)
            .collect();
        let (ar1_r, iid_r) = (autocorr(&xs), autocorr(&ys));
        assert!(ar1_r > 0.6, "AR(1) lag-1 autocorr {ar1_r}, want > 0.6");
        assert!(iid_r.abs() < 0.1, "iid lag-1 autocorr {iid_r}, want ≈ 0");
        assert!(ar1_r > iid_r + 0.5, "AR(1) must beat iid baseline");
    }

    #[test]
    fn two_state_jitter_produces_spike_episodes() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut jp = JitterProcess::new(JitterModel::TwoState {
            calm: 2_000,
            spike: 50_000,
            p_spike: 0.05,
            p_calm: 0.3,
        });
        let xs: Vec<Micros> = (0..20_000).map(|_| jp.next_jitter(&mut rng)).collect();
        let spikes = xs.iter().filter(|&&x| x >= 25_000).count();
        // Stationary spike share ≈ 0.05/(0.05+0.3) ≈ 14%.
        let share = spikes as f64 / xs.len() as f64;
        assert!((0.08..0.22).contains(&share), "spike share {share}");
        // Spikes cluster: at least one run of 3+ consecutive spike samples.
        let mut run = 0;
        let mut max_run = 0;
        for &x in &xs {
            if x >= 25_000 {
                run += 1;
                max_run = max_run.max(run);
            } else {
                run = 0;
            }
        }
        assert!(max_run >= 3, "max spike run {max_run}");
    }

    #[test]
    fn bufferbloat_queue_delay_is_monotone_in_offered_load() {
        // Offered load 1 MB/s; caps from 2× down to ¼×. Queue delay must
        // grow as the shortfall grows (and be ~0 when capacity exceeds load).
        let pkts = trace(5_000, 1_000, 972); // 1000 B wire @ 1000 pps = 1 MB/s
        let mut last_mean = -1.0;
        for cap in [2_000_000u64, 1_000_000, 500_000, 250_000] {
            let mut ch = Impairment::new(ImpairmentConfig {
                bottleneck: Some(Bottleneck {
                    capacity: CapacitySchedule::constant(cap),
                    queue_limit: u64::MAX, // no tail drop: pure bloat
                }),
                ..Default::default()
            });
            let out = ch.apply_all(&pkts);
            assert_eq!(out.len(), pkts.len(), "no drops with unlimited queue");
            let mean_delay = out
                .iter()
                .zip(&pkts)
                .map(|(o, p)| (o.ts - p.ts) as f64)
                .sum::<f64>()
                / out.len() as f64;
            assert!(
                mean_delay >= last_mean,
                "cap {cap}: mean queue delay {mean_delay} not monotone (prev {last_mean})"
            );
            last_mean = mean_delay;
        }
        // At ¼ capacity the queue must have built seconds of delay.
        assert!(
            last_mean > 500_000.0,
            "expected heavy bloat, got {last_mean}"
        );
    }

    #[test]
    fn bufferbloat_tail_drops_once_sojourn_limit_exceeded() {
        let pkts = trace(5_000, 1_000, 972); // 1 MB/s offered
        let mut ch = Impairment::new(ImpairmentConfig {
            bottleneck: Some(Bottleneck {
                capacity: CapacitySchedule::constant(250_000), // 4× shortfall
                queue_limit: 100_000,                          // 100 ms buffer
            }),
            ..Default::default()
        });
        let out = ch.apply_all(&pkts);
        assert!(out.len() < pkts.len(), "overload must tail-drop");
        // Survivors never exceed queue_limit + one service time of delay.
        let max_delay = out
            .iter()
            .filter_map(|o| {
                pkts.iter()
                    .rev()
                    .find(|p| p.ts <= o.ts)
                    .map(|p| o.ts - p.ts)
            })
            .max()
            .unwrap_or(0);
        // Sojourn cap (100 ms) + one packet's service time (4 ms) + slack.
        assert!(max_delay <= 110_000, "max survivor delay {max_delay}");
    }

    #[test]
    fn capacity_schedule_boundaries_are_microsecond_exact() {
        let sched = CapacitySchedule::steps(vec![(0, 1_000_000), (2_500_000, 300_000)]);
        assert_eq!(sched.rate_at(0), 1_000_000);
        assert_eq!(sched.rate_at(2_499_999), 1_000_000);
        assert_eq!(sched.rate_at(2_500_000), 300_000);
        assert_eq!(sched.rate_at(u64::MAX), 300_000);

        let dip = CapacitySchedule::dip(800_000, 100_000, 1_000_000, 500_000);
        assert_eq!(dip.rate_at(999_999), 800_000);
        assert_eq!(dip.rate_at(1_000_000), 100_000);
        assert_eq!(dip.rate_at(1_499_999), 100_000);
        assert_eq!(dip.rate_at(1_500_000), 800_000);

        let ramp = CapacitySchedule::ramp(1_000_000, 250_000, 0, 4_000_000, 4);
        assert_eq!(ramp.rate_at(0), 1_000_000);
        assert!(ramp.rate_at(3_999_999) < ramp.rate_at(0));

        let scaled = sched.scaled(0.5);
        assert_eq!(scaled.rate_at(0), 500_000);
        assert_eq!(scaled.rate_at(2_500_000), 150_000);
    }

    #[test]
    fn degrade_vol_caps_slots_and_respects_onset() {
        use crate::vol::VolSample;
        let width = 100_000; // 100 ms slots
        let samples: Vec<VolSample> = (0..50)
            .map(|_| VolSample {
                down_bytes: 200_000, // 2 MB/s offered
                down_pkts: 160,
                up_bytes: 2_000,
                up_pkts: 20,
            })
            .collect();
        let mut vol = VolSeries {
            width,
            origin: 0,
            samples,
        };
        let mut ch = Impairment::new(ImpairmentConfig {
            loss: LossModel::Iid { p: 0.1 },
            bottleneck: Some(Bottleneck {
                capacity: CapacitySchedule::constant(500_000),
                queue_limit: 200_000,
            }),
            ..Default::default()
        });
        let onset = 2_000_000; // slots 0..20 untouched
        ch.degrade_vol(&mut vol, onset);
        for (i, s) in vol.samples.iter().enumerate() {
            if (i as u64 + 1) * width <= onset {
                assert_eq!(s.down_bytes, 200_000, "slot {i} before onset modified");
            } else {
                // 500 kB/s cap over 100 ms = 50 kB per slot.
                assert!(
                    s.down_bytes <= 50_000,
                    "slot {i} exceeds cap: {}",
                    s.down_bytes
                );
                assert!(s.down_pkts < 160, "slot {i} packets not thinned");
                assert_eq!(s.up_bytes, 2_000, "upstream must be untouched");
            }
        }
    }

    #[test]
    fn profiles_resolve_by_name_and_instantiate_deterministically() {
        assert!(ImpairmentProfile::ALL.len() >= 5);
        for p in ImpairmentProfile::ALL {
            assert_eq!(ImpairmentProfile::by_name(p.name), Some(p));
            assert!(p.version >= 1);
            let a = p.instantiate(1234, 90_000_000);
            let b = p.instantiate(1234, 90_000_000);
            assert_eq!(a, b, "{}: instantiate must be deterministic", p.name);
            if let Some(onset) = a.onset {
                assert!(onset < 90_000_000, "{}: onset inside session", p.name);
                let (lo, hi) = p.onset_frac.unwrap();
                let frac = onset as f64 / 90_000_000.0;
                assert!(
                    frac >= lo - 1e-9 && frac <= hi + 1e-9,
                    "{}: onset frac {frac}",
                    p.name
                );
            }
        }
        assert!(ImpairmentProfile::by_name("nope").is_none());
        let clean = ImpairmentProfile::by_name("clean").unwrap();
        assert!(!clean.is_degrading());
        assert_eq!(
            clean.instantiate(7, 1_000_000).config,
            ImpairmentConfig {
                seed: 7,
                ..ImpairmentConfig::clean()
            }
        );
    }

    #[test]
    fn degrading_profiles_visibly_degrade_a_stream() {
        // 1.6 MB/s offered for 10 s — a typical high-bitrate session.
        let pkts = trace(20_000, 500, 772);
        for p in ImpairmentProfile::ALL.iter().filter(|p| p.is_degrading()) {
            let plan = p.instantiate(3, 10_000_000);
            let mut ch = Impairment::new(plan.config.clone());
            let out = ch.apply_all(&pkts);
            let in_bytes: u64 = pkts.iter().map(|x| u64::from(x.wire_len())).sum();
            let out_bytes: u64 = out.iter().map(|x| u64::from(x.wire_len())).sum();
            let mean_delay = out
                .iter()
                .filter_map(|o| {
                    pkts.iter()
                        .rev()
                        .find(|x| x.ts <= o.ts)
                        .map(|x| o.ts - x.ts)
                })
                .sum::<u64>() as f64
                / out.len().max(1) as f64;
            let degraded = out_bytes < in_bytes * 95 / 100 || mean_delay > 20_000.0;
            assert!(
                degraded,
                "{}: neither lossy ({out_bytes}/{in_bytes} B) nor delayed ({mean_delay} µs)",
                p.name
            );
        }
    }

    #[test]
    fn poor_network_preset_degrades_badly() {
        let pkts = trace(50_000, 100, 1196); // 100 Mbps offered over 5 s
        let mut ch = Impairment::new(ImpairmentConfig::poor_network(1));
        let out = ch.apply_all(&pkts);
        // Must lose a lot of traffic and delay the rest.
        assert!(out.len() < pkts.len() / 2);
        assert!(out[0].ts >= 70_000);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::packet::Direction;
    use proptest::prelude::*;

    proptest! {
        /// The channel never invents packets, never reorders the surviving
        /// subsequence, and delays by at least the base delay.
        #[test]
        fn channel_is_a_lossy_delaying_subsequence(
            n in 1usize..400,
            gap in 100u64..5_000,
            base_delay in 0u64..50_000,
            jitter in 0u64..5_000,
            p in 0.0f64..0.9,
            seed in any::<u64>(),
        ) {
            let pkts: Vec<Packet> = (0..n as u64)
                .map(|i| Packet::new(i * gap, Direction::Downstream, 500))
                .collect();
            let mut ch = Impairment::new(ImpairmentConfig {
                base_delay,
                jitter,
                loss: LossModel::Iid { p },
                seed,
                ..Default::default()
            });
            let out = ch.apply_all(&pkts);
            prop_assert!(out.len() <= pkts.len());
            for o in &out {
                // Each survivor maps to an input shifted by [base, base+jitter].
                let orig = (o.ts - base_delay).saturating_sub(jitter);
                prop_assert!(pkts.iter().any(|p| p.ts >= orig && p.ts + base_delay <= o.ts));
                prop_assert!(o.ts >= base_delay);
            }
        }

        /// A rate limit is never exceeded over the whole trace (beyond the
        /// one-second bucket depth).
        #[test]
        fn rate_limit_holds_globally(
            rate in 10_000u64..1_000_000,
            n in 10usize..500,
            seed in any::<u64>(),
        ) {
            let pkts: Vec<Packet> = (0..n as u64)
                .map(|i| Packet::new(i * 1_000, Direction::Downstream, 1432))
                .collect();
            let mut ch = Impairment::new(ImpairmentConfig {
                rate_limit_bytes_per_sec: Some(rate),
                seed,
                ..Default::default()
            });
            let out = ch.apply_all(&pkts);
            let bytes: u64 = out.iter().map(|p| u64::from(p.wire_len())).sum();
            let duration_s = (pkts.last().unwrap().ts as f64 / 1e6).max(1e-6);
            // Allowance: the initial bucket depth (1 s of tokens).
            prop_assert!(bytes as f64 <= rate as f64 * duration_s + rate as f64 + 1500.0);
        }

        /// A bottleneck link never forwards more bytes than capacity × time
        /// (plus one packet of slack), no matter the queue limit.
        #[test]
        fn bottleneck_respects_capacity_globally(
            cap in 50_000u64..2_000_000,
            queue_limit in 1_000u64..500_000,
            n in 10usize..500,
            seed in any::<u64>(),
        ) {
            let pkts: Vec<Packet> = (0..n as u64)
                .map(|i| Packet::new(i * 1_000, Direction::Downstream, 1432))
                .collect();
            let mut ch = Impairment::new(ImpairmentConfig {
                bottleneck: Some(Bottleneck {
                    capacity: CapacitySchedule::constant(cap),
                    queue_limit,
                }),
                seed,
                ..Default::default()
            });
            let out = ch.apply_all(&pkts);
            let bytes: u64 = out.iter().map(|p| u64::from(p.wire_len())).sum();
            let last_out = out.iter().map(|p| p.ts).max().unwrap_or(0);
            let horizon_s = (last_out as f64 / 1e6).max(1e-6);
            prop_assert!(
                bytes as f64 <= cap as f64 * horizon_s + 1500.0,
                "{bytes} B over {horizon_s} s exceeds cap {cap}"
            );
        }
    }
}
