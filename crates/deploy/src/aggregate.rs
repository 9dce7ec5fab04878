//! §5 aggregate analyses over fleet records.
//!
//! Everything here consumes [`SessionRecord`]s — the join of classifier
//! output with withheld ground truth — and produces the rows behind the
//! paper's deployment figures: player activity profiles per context
//! (Fig. 11), bandwidth demand distributions (Fig. 12), objective vs
//! effective QoE corrections (Fig. 13), the field validation of title
//! classification (§5 ¶2), and the measurement-driven calibration table
//! that the effective-QoE mapping uses.

use cgc_core::qoe::CalibrationTable;
use cgc_domain::{ActivityPattern, GameTitle, QoeLevel, Stage};
use nettrace::stats;
use serde::{Deserialize, Serialize};

use crate::fleet::SessionRecord;

/// Average minutes per stage per session for one context (Fig. 11 row).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageProfile {
    /// Context label (title name or pattern name).
    pub context: String,
    /// Sessions aggregated.
    pub sessions: usize,
    /// Mean active minutes per session.
    pub active_min: f64,
    /// Mean passive minutes per session.
    pub passive_min: f64,
    /// Mean idle minutes per session.
    pub idle_min: f64,
}

impl StageProfile {
    /// Mean total gameplay minutes per session.
    pub fn total_min(&self) -> f64 {
        self.active_min + self.passive_min + self.idle_min
    }
}

fn stage_minutes(r: &SessionRecord, stage: Stage) -> f64 {
    r.report.stage_seconds(stage) / 60.0
}

fn profile_of(context: String, rs: &[&SessionRecord]) -> StageProfile {
    let n = rs.len().max(1) as f64;
    StageProfile {
        context,
        sessions: rs.len(),
        active_min: rs
            .iter()
            .map(|r| stage_minutes(r, Stage::Active))
            .sum::<f64>()
            / n,
        passive_min: rs
            .iter()
            .map(|r| stage_minutes(r, Stage::Passive))
            .sum::<f64>()
            / n,
        idle_min: rs
            .iter()
            .map(|r| stage_minutes(r, Stage::Idle))
            .sum::<f64>()
            / n,
    }
}

/// Fig. 11(a): per classified catalog title, mean minutes per stage.
pub fn stage_profiles_by_title(records: &[SessionRecord]) -> Vec<StageProfile> {
    GameTitle::ALL
        .iter()
        .map(|t| {
            let rs: Vec<&SessionRecord> = records
                .iter()
                .filter(|r| r.report.title.title == Some(*t))
                .collect();
            profile_of(t.name().to_string(), &rs)
        })
        .collect()
}

/// Fig. 11(b): sessions whose title stayed unknown, grouped by the
/// *inferred* activity pattern.
pub fn stage_profiles_by_pattern(records: &[SessionRecord]) -> Vec<StageProfile> {
    ActivityPattern::ALL
        .iter()
        .map(|p| {
            let rs: Vec<&SessionRecord> = records
                .iter()
                .filter(|r| {
                    r.report.title.title.is_none()
                        && r.report.final_pattern.map(|(fp, _)| fp) == Some(*p)
                })
                .collect();
            profile_of(p.to_string(), &rs)
        })
        .collect()
}

/// Throughput distribution summary for one context (Fig. 12 row).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BandwidthProfile {
    /// Context label.
    pub context: String,
    /// Sessions aggregated (after the < 1 Mbps exclusion).
    pub sessions: usize,
    /// Minimum session-average throughput, Mbps.
    pub min_mbps: f64,
    /// 25th percentile.
    pub p25_mbps: f64,
    /// Median.
    pub median_mbps: f64,
    /// 75th percentile.
    pub p75_mbps: f64,
    /// Maximum.
    pub max_mbps: f64,
}

fn bandwidth_of(context: String, mut vals: Vec<f64>) -> BandwidthProfile {
    vals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    BandwidthProfile {
        context,
        sessions: vals.len(),
        min_mbps: vals.first().copied().unwrap_or(0.0),
        p25_mbps: stats::percentile_sorted(&vals, 0.25),
        median_mbps: stats::percentile_sorted(&vals, 0.5),
        p75_mbps: stats::percentile_sorted(&vals, 0.75),
        max_mbps: vals.last().copied().unwrap_or(0.0),
    }
}

/// Session-average throughputs per classified title, excluding sessions
/// under 1 Mbps (likely network-starved, as the paper excludes).
pub fn bandwidth_by_title(records: &[SessionRecord]) -> Vec<BandwidthProfile> {
    GameTitle::ALL
        .iter()
        .map(|t| {
            let vals: Vec<f64> = records
                .iter()
                .filter(|r| r.report.title.title == Some(*t) && r.report.mean_down_mbps >= 1.0)
                .map(|r| r.report.mean_down_mbps)
                .collect();
            bandwidth_of(t.name().to_string(), vals)
        })
        .collect()
}

/// Fig. 12(b): per inferred pattern for unknown-title sessions.
pub fn bandwidth_by_pattern(records: &[SessionRecord]) -> Vec<BandwidthProfile> {
    ActivityPattern::ALL
        .iter()
        .map(|p| {
            let vals: Vec<f64> = records
                .iter()
                .filter(|r| {
                    r.report.title.title.is_none()
                        && r.report.final_pattern.map(|(fp, _)| fp) == Some(*p)
                        && r.report.mean_down_mbps >= 1.0
                })
                .map(|r| r.report.mean_down_mbps)
                .collect();
            bandwidth_of(p.to_string(), vals)
        })
        .collect()
}

/// Objective vs effective QoE fractions for one context (Fig. 13 row).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QoeProfile {
    /// Context label.
    pub context: String,
    /// Sessions aggregated.
    pub sessions: usize,
    /// Fractions `[bad, medium, good]` under objective QoE.
    pub objective: [f64; 3],
    /// Fractions `[bad, medium, good]` under effective QoE.
    pub effective: [f64; 3],
}

impl QoeProfile {
    /// Fraction of sessions whose level improved after calibration.
    pub fn corrected_fraction(&self) -> f64 {
        (self.effective[2] - self.objective[2]).max(0.0)
    }
}

fn qoe_of(context: String, rs: &[&SessionRecord]) -> QoeProfile {
    let n = rs.len().max(1) as f64;
    let frac = |f: &dyn Fn(&SessionRecord) -> QoeLevel| -> [f64; 3] {
        let mut counts = [0.0; 3];
        for r in rs {
            counts[f(r) as usize] += 1.0;
        }
        counts.map(|c| c / n)
    };
    QoeProfile {
        context,
        sessions: rs.len(),
        objective: frac(&|r| r.report.objective_qoe),
        effective: frac(&|r| r.report.effective_qoe),
    }
}

/// Fig. 13(a): objective vs effective QoE per classified title.
pub fn qoe_by_title(records: &[SessionRecord]) -> Vec<QoeProfile> {
    GameTitle::ALL
        .iter()
        .map(|t| {
            let rs: Vec<&SessionRecord> = records
                .iter()
                .filter(|r| r.report.title.title == Some(*t))
                .collect();
            qoe_of(t.name().to_string(), &rs)
        })
        .collect()
}

/// Fig. 13(b): objective vs effective QoE per inferred pattern for
/// unknown-title sessions.
pub fn qoe_by_pattern(records: &[SessionRecord]) -> Vec<QoeProfile> {
    ActivityPattern::ALL
        .iter()
        .map(|p| {
            let rs: Vec<&SessionRecord> = records
                .iter()
                .filter(|r| {
                    r.report.title.title.is_none()
                        && r.report.final_pattern.map(|(fp, _)| fp) == Some(*p)
                })
                .collect();
            qoe_of(p.to_string(), &rs)
        })
        .collect()
}

/// Field validation (§5 ¶2): title classification accuracy against the
/// withheld "server log" truth, overall and per title, over catalog
/// sessions on healthy network paths.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FieldValidation {
    /// Overall accuracy across catalog sessions.
    pub overall_accuracy: f64,
    /// `(title, sessions, accuracy)` per catalog title.
    pub per_title: Vec<(String, usize, f64)>,
    /// Fraction of catalog sessions reported unknown.
    pub unknown_rate: f64,
}

/// Computes the field validation over clean catalog sessions.
pub fn field_validation(records: &[SessionRecord]) -> FieldValidation {
    let catalog: Vec<&SessionRecord> = records
        .iter()
        .filter(|r| r.truth_kind.known().is_some() && !r.impaired)
        .collect();
    let correct = catalog.iter().filter(|r| r.title_correct()).count();
    let unknown = catalog
        .iter()
        .filter(|r| r.report.title.title.is_none())
        .count();
    let per_title = GameTitle::ALL
        .iter()
        .map(|t| {
            let rs: Vec<&&SessionRecord> = catalog
                .iter()
                .filter(|r| r.truth_kind.known() == Some(*t))
                .collect();
            let ok = rs.iter().filter(|r| r.title_correct()).count();
            (
                t.name().to_string(),
                rs.len(),
                ok as f64 / rs.len().max(1) as f64,
            )
        })
        .collect();
    FieldValidation {
        overall_accuracy: correct as f64 / catalog.len().max(1) as f64,
        per_title,
        unknown_rate: unknown as f64 / catalog.len().max(1) as f64,
    }
}

/// Learns the context demand table from measurement: per classified title
/// (and per inferred pattern), the median 95th-percentile slot throughput
/// of clean sessions, normalized by each session's settings tier (the
/// Fig. 12-style per-settings clusters that power effective QoE).
pub fn calibrate(records: &[SessionRecord]) -> CalibrationTable {
    let mut table = CalibrationTable::default();
    let normalized = |r: &SessionRecord| r.peak_down_mbps / r.settings.bitrate_factor();
    // Only confidently classified sessions feed the per-title medians —
    // one misclassified high-demand session in a small bucket would skew a
    // rare title's expectation badly.
    let confident = |r: &&SessionRecord| r.report.title.confidence >= 0.7;
    for t in GameTitle::ALL {
        let vals: Vec<f64> = records
            .iter()
            .filter(confident)
            .filter(|r| !r.impaired && r.report.title.title == Some(t) && r.peak_down_mbps >= 1.0)
            .map(normalized)
            .collect();
        if !vals.is_empty() {
            table.set_title(t, stats::median(&vals));
        }
    }
    for p in ActivityPattern::ALL {
        let vals: Vec<f64> = records
            .iter()
            .filter(|r| {
                !r.impaired
                    && r.report.title.title.is_none()
                    && r.report.final_pattern.map(|(fp, _)| fp) == Some(p)
                    && r.peak_down_mbps >= 1.0
            })
            .map(normalized)
            .collect();
        if !vals.is_empty() {
            table.pattern_mbps[p.index()] = stats::median(&vals);
        }
    }
    let all: Vec<f64> = records
        .iter()
        .filter(|r| !r.impaired && r.peak_down_mbps >= 1.0)
        .map(normalized)
        .collect();
    if !all.is_empty() {
        table.default_mbps = stats::median(&all);
    }
    table
}

/// Per-slot stage classification accuracy against the ground-truth
/// timeline, scored over gameplay slots only (Table 4 uses lab sessions;
/// this is its fleet analogue, available here because the generator's
/// truth plays the role of the lab labels).
pub fn stage_accuracy(records: &[SessionRecord], timelines: &[gamesim::StageTimeline]) -> f64 {
    assert_eq!(records.len(), timelines.len());
    let mut correct = 0usize;
    let mut total = 0usize;
    for (r, tl) in records.iter().zip(timelines) {
        let width = r.report.slot_width;
        for (i, &pred) in r.report.stage_slots.iter().enumerate() {
            let midpoint = i as u64 * width + width / 2;
            let Some(truth) = tl.stage_at(midpoint) else {
                continue;
            };
            if truth == Stage::Launch {
                continue;
            }
            total += 1;
            if pred == truth {
                correct += 1;
            }
        }
    }
    correct as f64 / total.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{run_fleet, FleetConfig};
    use crate::train::quick_bundle;

    fn records() -> Vec<SessionRecord> {
        run_fleet(
            &*quick_bundle(),
            &FleetConfig {
                n_sessions: 60,
                duration_scale: 0.06,
                workers: 4,
                ..Default::default()
            },
        )
    }

    #[test]
    fn aggregations_cover_contexts() {
        let rs = records();
        let by_title = stage_profiles_by_title(&rs);
        assert_eq!(by_title.len(), 13);
        // Popular titles appear.
        assert!(by_title.iter().any(|p| p.sessions > 0));

        let by_pattern = stage_profiles_by_pattern(&rs);
        assert_eq!(by_pattern.len(), 2);

        let bw = bandwidth_by_title(&rs);
        assert!(bw
            .iter()
            .filter(|b| b.sessions > 0)
            .all(|b| b.min_mbps >= 1.0 && b.max_mbps >= b.median_mbps));

        let qoe = qoe_by_title(&rs);
        for q in qoe.iter().filter(|q| q.sessions > 0) {
            let so: f64 = q.objective.iter().sum();
            let se: f64 = q.effective.iter().sum();
            assert!((so - 1.0).abs() < 1e-9 && (se - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn field_validation_is_high_on_clean_catalog_sessions() {
        let rs = records();
        let fv = field_validation(&rs);
        assert!(
            fv.overall_accuracy > 0.75,
            "accuracy {}",
            fv.overall_accuracy
        );
        assert_eq!(fv.per_title.len(), 13);
    }

    #[test]
    fn calibration_learns_demand_ordering() {
        let rs = records();
        let table = calibrate(&rs);
        // Hearthstone demand must come out below Fortnite's when both were
        // observed.
        let get = |t: GameTitle| {
            table
                .title_mbps
                .iter()
                .find(|(x, _)| *x == t)
                .map(|(_, v)| *v)
        };
        if let (Some(h), Some(f)) = (get(GameTitle::Hearthstone), get(GameTitle::Fortnite)) {
            assert!(h < f, "Hearthstone {h} vs Fortnite {f}");
        }
        assert!(table.default_mbps > 1.0);
    }

    #[test]
    fn effective_qoe_never_lowers_good_fraction() {
        let rs = records();
        for q in qoe_by_title(&rs).iter().filter(|q| q.sessions >= 3) {
            assert!(
                q.effective[2] + 1e-9 >= q.objective[2],
                "{}: eff {:?} < obj {:?}",
                q.context,
                q.effective,
                q.objective
            );
        }
    }
}

/// Hour-of-day load profile across the deployment window (the "peak hours"
/// §5.2 provisions for).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiurnalProfile {
    /// Hour of day, 0–23.
    pub hour: usize,
    /// Sessions that *started* in this hour across the window.
    pub sessions_started: usize,
    /// Mean concurrent sessions during this hour (session-seconds /
    /// wall-seconds, averaged over the deployment days).
    pub mean_concurrent: f64,
    /// Mean aggregate downstream load during this hour, Mbps (sum of the
    /// active sessions' average throughputs).
    pub aggregate_mbps: f64,
}

/// Computes the 24-hour load profile from fleet records (arrivals carry
/// the diurnal model; durations come from the reports). `days` must match
/// the fleet's `deployment_days`.
pub fn diurnal_profile(records: &[SessionRecord], days: u32) -> Vec<DiurnalProfile> {
    const HOUR_US: u64 = 3_600_000_000;
    let mut started = [0usize; 24];
    let mut busy_secs = [0f64; 24];
    let mut load_mbps_secs = [0f64; 24];
    for r in records {
        let start = r.arrival;
        let duration = r.report.stage_slots.len() as u64 * r.report.slot_width;
        started[((start / HOUR_US) % 24) as usize] += 1;
        // Attribute the session's lifetime to the hours it overlaps.
        let mut t = start;
        let end = start + duration;
        while t < end {
            let hour_end = (t / HOUR_US + 1) * HOUR_US;
            let overlap = hour_end.min(end) - t;
            let h = ((t / HOUR_US) % 24) as usize;
            let secs = overlap as f64 / 1e6;
            busy_secs[h] += secs;
            load_mbps_secs[h] += secs * r.report.mean_down_mbps;
            t = hour_end;
        }
    }
    let wall = days.max(1) as f64 * 3600.0;
    (0..24)
        .map(|hour| DiurnalProfile {
            hour,
            sessions_started: started[hour],
            mean_concurrent: busy_secs[hour] / wall,
            aggregate_mbps: load_mbps_secs[hour] / wall,
        })
        .collect()
}

#[cfg(test)]
mod diurnal_tests {
    use super::*;
    use crate::fleet::{run_fleet, FleetConfig};
    use crate::train::quick_bundle;

    #[test]
    fn diurnal_profile_is_evening_peaked_and_conserves_time() {
        let records = run_fleet(
            &*quick_bundle(),
            &FleetConfig {
                n_sessions: 300,
                duration_scale: 0.05,
                workers: 4,
                ..Default::default()
            },
        );
        let profile = diurnal_profile(&records, 90);
        assert_eq!(profile.len(), 24);
        // Starts are conserved.
        let total: usize = profile.iter().map(|p| p.sessions_started).sum();
        assert_eq!(total, records.len());
        // Evening (18-20h) clearly busier than pre-dawn (02-04h).
        let evening: f64 = profile[18..21].iter().map(|p| p.mean_concurrent).sum();
        let night: f64 = profile[2..5].iter().map(|p| p.mean_concurrent).sum();
        assert!(evening > 3.0 * night, "evening {evening} vs night {night}");
        // Aggregate load is consistent with concurrency x typical bitrate.
        for p in &profile {
            if p.mean_concurrent > 0.01 {
                let per_session = p.aggregate_mbps / p.mean_concurrent;
                assert!(
                    (1.0..60.0).contains(&per_session),
                    "hour {}: {per_session} Mbps/session",
                    p.hour
                );
            }
        }
    }
}
