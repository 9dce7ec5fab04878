//! `bench_e2e` — the repository's benchmark.
//!
//! Five named workloads, each driven through the real threaded tap path
//! (closed and open loop), its single-thread baseline and the per-session
//! analyzer; verdict lateness and throughput end to end, and with
//! `--trace 1` a per-layer budget measured from outside. See `README.md`
//! in this directory for the metric dictionary.
//!
//! ```text
//! bench_e2e [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//!           [--quick] [--repeat-check] [--json <path>] [--trace-out <dir>]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. Any correctness failure exits
//! non-zero.

mod drives;
mod feeds;
mod layers;
mod manifest;
mod probe;
mod spans;
mod stats;
mod surface;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use drives::{Tally, ANALYZER};
use feeds::{Input, Workload, DEFAULT_SEED, WORKLOADS};
use manifest::{Better, END_TO_END, PER_LAYER};
use surface::ModelBundle;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat_check: bool,
    json: Option<PathBuf>,
    trace_out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        quick: false,
        repeat_check: false,
        json: None,
        trace_out: PathBuf::from("target/bench_e2e"),
    };
    let mut seconds = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => args.trace = value()? != "0",
            "--json" => args.json = Some(PathBuf::from(value()?)),
            "--trace-out" => args.trace_out = PathBuf::from(value()?),
            "--quick" => args.quick = true,
            "--repeat-check" => args.repeat_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.seconds = seconds.unwrap_or(if args.quick {
        2.0
    } else {
        manifest::RUN_SECONDS as f64
    });
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if let Some(name) = &args.workload {
        if feeds::workload(name).is_none() {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

/// One reported metric: a value with the spread behind it.
#[derive(Debug, Clone)]
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    /// Median absolute deviation of the samples behind `value`.
    pub mad: f64,
    pub n: usize,
}

impl Reported {
    /// A metric that is the median of `samples`.
    pub fn median_of(name: &'static str, samples: &[f64]) -> Option<Reported> {
        let s = stats::summarize(samples)?;
        Some(Reported {
            name,
            unit: unit_of(name),
            value: s.median,
            q1: s.q1,
            q3: s.q3,
            mad: s.mad,
            n: s.n,
        })
    }

    /// A metric that is one number; `n` says how many samples stand behind it.
    pub fn single(name: &'static str, value: f64, n: usize) -> Reported {
        Reported {
            name,
            unit: unit_of(name),
            value,
            q1: value,
            q3: value,
            mad: 0.0,
            n,
        }
    }
}

/// Unit and direction of a metric of the dictionary.
fn spec_of(name: &str) -> (&'static str, Better) {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, better)| (unit, better))
        .unwrap_or_else(|| panic!("metric {name} is not in the dictionary"))
}

fn unit_of(name: &str) -> &'static str {
    spec_of(name).0
}

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub tally: Tally,
    pub metrics: Vec<Reported>,
    pub records: u64,
    pub checksum: u64,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The driver's result line.
    fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    manifest::json_str(m.name),
                    json_number(m.value),
                    manifest::json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }

    /// Every metric with its quartiles, MAD and sample count, for `--json`.
    fn detail_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"q1\": {}, \"q3\": {}, \"mad\": {}, \"n\": {}}}",
                    manifest::json_str(m.name),
                    json_number(m.value),
                    manifest::json_str(m.unit),
                    json_number(m.q1),
                    json_number(m.q3),
                    json_number(m.mad),
                    m.n
                )
            })
            .collect();
        format!(
            "{{\"workload\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"records\": {}, \"checksum\": \"{:016x}\", \"metrics\": {{{}}}}}",
            manifest::json_str(self.workload),
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            self.records,
            self.checksum,
            metrics.join(", ")
        )
    }

    fn print_table(&self) {
        println!(
            "{:<40} {:>8} {:>6} {:>16} {:>16} {:>16} {:>8}",
            "metric", "unit", "better", "value", "q1", "q3", "n"
        );
        for m in &self.metrics {
            let better = match spec_of(m.name).1 {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            println!(
                "{:<40} {:>8} {:>6} {:>16.6} {:>16.6} {:>16.6} {:>8}",
                m.name, m.unit, better, m.value, m.q1, m.q3, m.n
            );
        }
        println!(
            "{}: attempted {} failed {}{}",
            self.workload,
            self.tally.attempted,
            self.tally.failed,
            if self.correct() {
                ""
            } else {
                "  ** INCORRECT **"
            }
        );
        for note in &self.tally.notes {
            println!("  ! {note}");
        }
    }
}

/// A JSON number with every digit the measurement has. `run_workload` has
/// already turned every non-finite metric into a failure and left it out.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "a non-finite metric reached the report");
    format!("{v}")
}

/// The trained bundle and generated input of one set-up, with how long
/// the set-up took each time it was repeated.
pub(crate) struct Setup {
    pub bundle: Arc<ModelBundle>,
    pub input: Input,
    pub setup_s: Vec<f64>,
}

/// Sets up `reps` times — bundle, feed, truth tables — keeping the last:
/// `setup_s` is the median, so work moved into set-up shows.
pub(crate) fn set_up(workload: &Workload, seed: u64, scale: usize, reps: usize) -> Setup {
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        let bundle = surface::train_bundle();
        let input = workload.build(seed, scale);
        setup_s.push(t.elapsed().as_secs_f64());
        last = Some((bundle, input));
    }
    let (bundle, input) = last.expect("at least one set-up");
    Setup {
        bundle,
        input,
        setup_s,
    }
}

/// The end-to-end run of one workload (`--trace 0`).
fn run_end_to_end(workload: &'static Workload, args: &Args) -> Outcome {
    let (scale, setups) = if args.quick { (8, 1) } else { (1, SETUP_REPS) };
    let Setup {
        bundle,
        input,
        setup_s,
    } = set_up(workload, args.seed, scale, setups);
    println!(
        "== {} seed {} :: {} records, {} sessions, {} slots, checksum {:016x}",
        workload.name,
        args.seed,
        input.records(),
        input.truth.len(),
        input.slot_count(),
        input.checksum
    );
    println!("   why: {}", workload.why);
    if !args.quick && args.seed == DEFAULT_SEED {
        let pinned = feeds::PINS.iter().any(|&(name, records, checksum)| {
            (name, records, checksum) == (workload.name, input.records(), input.checksum)
        });
        println!(
            "   input pin: {}",
            if pinned {
                "matches"
            } else {
                "DIFFERS — the generator or the sizes changed; earlier baselines no longer compare"
            }
        );
    }
    let mut bench = drives::Bench::new(&bundle, &input);
    if let Err(why) = surface::composition_matches(&bundle, &input.sources) {
        bench.tally.attempted += 1;
        bench.tally.fail(1, why);
    }
    bench.run(workload.shares, args.seconds);
    let drives::Bench {
        reference,
        live,
        serial,
        analyzer,
        paced,
        analyzer_score,
        mut tally,
        ..
    } = bench;

    // Accuracy is scored on the drive the workload spends most of its
    // time in. Memory is the largest median peak of the serial, paced and
    // analyzer drives: the paced drive runs the same wiring as the closed
    // loop, whose own peak on a small feed flips between two levels with
    // how far the queues happen to fill (`deploy.peak_mb.live` has it).
    let score = match workload.primary_drive() {
        ANALYZER => analyzer_score,
        _ => drives::score_tap(&input, &reference.sessions.verdicts()),
    };
    let peaks = [&serial.peak_mb, &paced.peak_mb, &analyzer.peak_mb]
        .into_iter()
        .max_by(|a, b| {
            let (a, b) = (stats::median(a), stats::median(b));
            a.partial_cmp(&b).expect("peaks are finite")
        })
        .expect("three drives");

    let rep_medians =
        |reps: &[Vec<f64>]| -> Vec<f64> { reps.iter().filter_map(|r| stats::median(r)).collect() };
    let lateness = |name: &'static str, reps: &[Vec<f64>]| -> Option<Reported> {
        let spread = stats::summarize(&rep_medians(reps))?;
        Some(Reported {
            name,
            unit: "ms",
            value: stats::pooled_percentile(reps, 50.0)?,
            q1: spread.q1,
            q3: spread.q3,
            mad: spread.mad,
            n: reps.iter().map(Vec::len).sum(),
        })
    };

    let median = Reported::median_of;
    let measured = [
        median("setup_s", &setup_s),
        median("live_records_per_s", &live.per_s),
        median("serial_records_per_s", &serial.per_s),
        median("slots_per_s", &analyzer.per_s),
        lateness("verdict_lateness_p50_ms", &paced.stage_ms),
        lateness("title_lateness_p50_ms", &paced.title_ms),
        median("peak_state_mb", peaks),
        Some(Reported::single(
            "title_accuracy",
            score.title_accuracy(),
            score.title_total as usize,
        )),
        Some(Reported::single(
            "stage_accuracy",
            score.stage_accuracy(),
            score.stage_total as usize,
        )),
    ];
    let mut metrics = Vec::new();
    for (spec, m) in END_TO_END.iter().zip(measured) {
        match m {
            Some(m) => metrics.push(m),
            None => {
                tally.attempted += 1;
                tally.fail(1, format!("{}: no samples", spec.name));
            }
        }
    }
    if paced.sustained == 0 {
        tally.attempted += 1;
        tally.fail(
            1,
            format!(
                "paced: none of {} reps sustained {} rec/s without a backlog",
                paced.reps,
                drives::PACED_RATE
            ),
        );
    }
    println!(
        "   paced: {} reps at {} rec/s, {} sustained, {} verdicts excluded, {} unobserved, gen lag p95 {:.0} us",
        paced.reps,
        drives::PACED_RATE,
        paced.sustained,
        paced.excluded,
        paced.unobserved,
        stats::median(&paced.lag_p95_us).unwrap_or(0.0)
    );
    Outcome {
        workload: workload.name,
        tally,
        metrics,
        records: input.records(),
        checksum: input.checksum,
    }
}

fn run_workload(workload: &'static Workload, args: &Args) -> Outcome {
    let mut outcome = if args.trace {
        layers::run(workload, args)
    } else {
        run_end_to_end(workload, args)
    };
    // A metric that is not a number is a failed measurement, not a zero.
    let tally = &mut outcome.tally;
    outcome.metrics.retain(|m| {
        if !m.value.is_finite() {
            tally.attempted += 1;
            tally.fail(1, format!("{}: measured {}", m.name, m.value));
        }
        m.value.is_finite()
    });
    outcome.print_table();
    outcome
}

fn run_set(args: &Args) -> Vec<Outcome> {
    WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
        .map(|w| run_workload(w, args))
        .collect()
}

/// Compares two sets of runs of the same commit: every end-to-end metric
/// of the second may be worse than the first by at most its bound, and one
/// that the seed determines may not differ at all.
fn repeat_check(first: &[Outcome], second: &[Outcome]) -> bool {
    let mut ok = true;
    for (a, b) in first.iter().zip(second) {
        for spec in &END_TO_END {
            let value = |o: &Outcome| {
                o.metrics
                    .iter()
                    .find(|m| m.name == spec.name)
                    .map(|m| m.value)
            };
            let (Some(x), Some(y)) = (value(a), value(b)) else {
                continue;
            };
            let worse = match spec.better {
                Better::Lower => (y - x) / x.abs(),
                Better::Higher => (x - y) / x.abs(),
            };
            let allowed = if spec.exact { 0.0 } else { spec.bound };
            let verdict = if worse.abs() <= allowed {
                "ok"
            } else {
                "OUT OF BOUND"
            };
            println!(
                "repeat-check {:<14} {:<26} {:>16.6} {:>16.6} {:>+8.2}% (bound {:.0}%) {verdict}",
                a.workload,
                spec.name,
                x,
                y,
                -100.0 * worse,
                100.0 * allowed
            );
            ok &= worse.abs() <= allowed;
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("bench_e2e: {why}");
            return ExitCode::from(2);
        }
    };
    if args.quick {
        println!("** smoke only — not comparable: --quick runs inputs ÷ 8 **");
    }
    println!(
        "bench_e2e: {} s per run, {} shards, available parallelism {}",
        args.seconds,
        surface::SHARDS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut ok = true;
    let sets = if args.repeat_check {
        // A machine that has been idle runs its first half-minute of
        // threaded work differently (lower closed-loop throughput, lower
        // hand-off latency), so one set is run and discarded first.
        println!("** repeat-check: discarded warm-up set **");
        drop(run_set(&args));
        let sets = vec![run_set(&args), run_set(&args)];
        ok &= repeat_check(&sets[0], &sets[1]);
        sets
    } else {
        vec![run_set(&args)]
    };
    if let Some(path) = &args.json {
        let lines: Vec<String> = sets.iter().flatten().map(Outcome::detail_json).collect();
        let stamp = if args.quick {
            "smoke only — not comparable"
        } else {
            "full"
        };
        let body = format!(
            "{{\"stamp\": {}, \"runs\": [\n{}\n]}}\n",
            manifest::json_str(stamp),
            lines.join(",\n")
        );
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("bench_e2e: writing {}: {e}", path.display());
            ok = false;
        }
    }
    ok &= sets.iter().flatten().all(Outcome::correct);
    // One result line per workload; the driver, which names one workload,
    // reads the last line of standard output.
    for outcome in sets.last().into_iter().flatten() {
        println!("{}", outcome.result_json());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
