//! The deployment's heartbeat log: counter deltas (and an SLO verdict)
//! every so many completed sessions of a [`run_fleet`](super::run_fleet).

use std::sync::atomic::{AtomicUsize, Ordering};

use cgc_obs::{Registry, SloHub, SloReport, Snapshot};

/// One telemetry progress report: `done`/`total` sessions plus the nonzero
/// counter increments in `delta` (one `name{labels} +n` clause per series,
/// in snapshot order). Gauges and histograms are left to the final
/// end-of-run snapshot; interval reporting is about rates.
pub fn fleet_progress_line(done: usize, total: usize, delta: &Snapshot) -> String {
    let mut clauses: Vec<String> = Vec::new();
    for m in &delta.metrics {
        if let cgc_obs::MetricValue::Counter(v) = m.value {
            if v == 0 {
                continue;
            }
            let labels = if m.labels.is_empty() {
                String::new()
            } else {
                let inner: Vec<String> = m
                    .labels
                    .iter()
                    .map(|(k, val)| format!("{k}={val}"))
                    .collect();
                format!("{{{}}}", inner.join(","))
            };
            clauses.push(format!("{}{labels} +{v}", m.name));
        }
    }
    format!("[fleet {done}/{total}] {}", clauses.join(", "))
}

/// The reporter loop behind [`run_fleet`](super::run_fleet)'s
/// `telemetry_every` heartbeat: polls `done` until it reaches `total`, and
/// each time `every` further units complete, calls `emit` with the
/// completion count and the registry's counter *delta* since the previous
/// report — since `baseline` for the first one. Each report boundary also
/// feeds the full snapshot to `slo` (when given) and hands the evaluated
/// burn-rate report to `emit`, so the heartbeat log carries
/// ok/degraded/critical next to the counter deltas. Parameterized over
/// `emit` so the delta mechanics are testable without racing a real fleet.
///
/// `baseline` is a snapshot of `registry` taken **before the workers
/// start**. The reporter runs on its own thread and may first be scheduled
/// after workers have counted; a baseline taken there would swallow those
/// increments and the deltas would no longer sum to the final totals.
pub fn telemetry_reporter(
    registry: &Registry,
    baseline: Snapshot,
    done: &AtomicUsize,
    total: usize,
    every: usize,
    slo: Option<&SloHub>,
    emit: &mut dyn FnMut(usize, Snapshot, Option<SloReport>),
) {
    if every == 0 {
        return;
    }
    let mut prev = baseline;
    let mut reported = 0usize;
    loop {
        // Acquire pairs with the workers' Release increment: a completion
        // count of d means those d sessions' counter updates are visible
        // in the snapshot taken below.
        let d = done.load(Ordering::Acquire);
        if d / every > reported {
            reported = d / every;
            let cur = registry.snapshot();
            let report = slo.map(|hub| hub.observe_and_evaluate(&cur));
            emit(d, cur.delta(&prev), report);
            prev = cur;
        }
        if d >= total {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn telemetry_reporter_reports_slo_health_each_boundary() {
        let registry = Registry::new();
        let done = AtomicUsize::new(0);
        // Virtual SLO clock stepped manually so burn windows are exact.
        let now = std::sync::Arc::new(AtomicUsize::new(1));
        let now_for_hub = std::sync::Arc::clone(&now);
        let hub = SloHub::new(move || now_for_hub.load(Ordering::Relaxed) as u64);
        let dropped = registry.counter("cgc_ingest_dropped_total", "");
        let accepted = registry.counter("cgc_ingest_enqueued_total", "");
        let reports: Mutex<Vec<(usize, Option<SloReport>)>> = Mutex::new(Vec::new());
        let baseline = registry.snapshot();

        std::thread::scope(|scope| {
            scope.spawn(|| {
                telemetry_reporter(
                    &registry,
                    baseline,
                    &done,
                    4,
                    2,
                    Some(&hub),
                    &mut |d, _delta, r| {
                        reports.lock().unwrap().push((d, r));
                    },
                );
            });
            accepted.add(1000);
            done.fetch_add(2, Ordering::Release);
            while reports.lock().unwrap().is_empty() {
                std::thread::yield_now();
            }
            // A drop burst between heartbeats: 20% of new records lost.
            now.store(60_000_000, Ordering::Relaxed);
            accepted.add(1000);
            dropped.add(250);
            done.fetch_add(2, Ordering::Release);
        });

        let reports = reports.into_inner().unwrap();
        assert_eq!(reports.len(), 2);
        let first = reports[0].1.as_ref().expect("slo report rides along");
        assert_eq!(first.health, cgc_obs::Health::Ok);
        let second = reports[1].1.as_ref().expect("slo report rides along");
        assert_ne!(
            second.health,
            cgc_obs::Health::Ok,
            "drop burst degrades the heartbeat verdict: {:?}",
            second
        );
        assert!(second
            .objectives
            .iter()
            .any(|o| o.kind == cgc_obs::ObjectiveKind::DropRatio && o.burn_fast >= 1.0));
    }

    #[test]
    fn fleet_progress_line_reports_nonzero_counter_deltas() {
        let r = Registry::new();
        let a = r.counter("a_total", "");
        let _quiet = r.counter("quiet_total", "");
        let labelled = r.counter_with("b_total", "", &[("title", "dota_2")]);
        let before = r.snapshot();
        a.add(5);
        labelled.add(2);
        let line = fleet_progress_line(3, 10, &r.snapshot().delta(&before));
        assert!(line.starts_with("[fleet 3/10]"));
        assert!(line.contains("a_total +5"));
        assert!(line.contains("b_total{title=dota_2} +2"));
        assert!(!line.contains("quiet_total"));
    }

    #[test]
    fn telemetry_reporter_emits_exact_deltas_that_sum_to_final() {
        // Deterministic harness: the "worker" adds to a counter, bumps
        // `done` by `every`, then waits for the reporter to emit before
        // the next batch — so every report boundary is observed exactly.
        let registry = Registry::new();
        let counter = registry.counter("work_total", "units of work");
        let done = AtomicUsize::new(0);
        let reports: Mutex<Vec<(usize, Snapshot)>> = Mutex::new(Vec::new());
        const EVERY: usize = 2;
        const BATCHES: usize = 5;
        let before = registry.snapshot();

        std::thread::scope(|scope| {
            // The baseline is taken here, before the "worker" below counts:
            // taken on the reporter thread it would race the first batch.
            let baseline = before.clone();
            scope.spawn(|| {
                telemetry_reporter(
                    &registry,
                    baseline,
                    &done,
                    EVERY * BATCHES,
                    EVERY,
                    None,
                    &mut |d, delta, report| {
                        assert!(report.is_none(), "no hub, no verdict");
                        reports.lock().unwrap().push((d, delta));
                    },
                );
            });
            for batch in 0..BATCHES {
                counter.add(10 + batch as u64);
                done.fetch_add(EVERY, Ordering::Release);
                while reports.lock().unwrap().len() <= batch {
                    std::thread::yield_now();
                }
            }
        });

        let reports = reports.into_inner().unwrap();
        assert_eq!(reports.len(), BATCHES, "one report per `every` boundary");
        for (batch, (d, delta)) in reports.iter().enumerate() {
            assert_eq!(*d, (batch + 1) * EVERY);
            assert_eq!(
                delta.counter("work_total"),
                Some(10 + batch as u64),
                "delta of report {batch} is exactly that batch's increment"
            );
        }
        // Deltas sum back to the final snapshot's total.
        let summed: u64 = reports
            .iter()
            .filter_map(|(_, delta)| delta.counter("work_total"))
            .sum();
        let final_delta = registry.snapshot().delta(&before);
        assert_eq!(Some(summed), final_delta.counter("work_total"));
        assert_eq!(summed, counter.get());
    }

    #[test]
    fn telemetry_reporter_zero_interval_is_inert() {
        let registry = Registry::new();
        let done = AtomicUsize::new(5);
        let mut calls = 0usize;
        telemetry_reporter(
            &registry,
            registry.snapshot(),
            &done,
            5,
            0,
            None,
            &mut |_, _, _| calls += 1,
        );
        assert_eq!(calls, 0);
    }
}
