//! `gamescope` — the capture-file CLI.
//!
//! ```text
//! gamescope train [--quick] [--out bundle.json]
//! gamescope generate --out s.pcap [--title fortnite] [--secs 90] [--seed 7]
//! gamescope analyze <s.pcap> [--bundle bundle.json] [--quick]
//! gamescope classify --pcap s.pcap [--bundle bundle.json]
//! gamescope fleet [--sessions 300] [--bundle bundle.json] [--telemetry-every 50]
//!                 [--serve 127.0.0.1:9090] [--journal fleet.jsonl]
//!                 [--registry models/] [--promote auto|manual] [--retrain]
//!                 [--impair lte-handover]
//! gamescope fleet --replay s.pcap|sim [--pace 1.0] [--backpressure block]
//! gamescope fleet --replay merge --input a.pcap --input b.pcap@-1500
//! ```
//!
//! Every subcommand accepts `--metrics <path|->`: on exit the global
//! metrics registry is snapshotted and dumped — Prometheus text to stdout
//! for `-`, JSON for paths ending in `.json`, Prometheus text otherwise.
//!
//! The flight recorder rides along the same way: `--journal <path|->`
//! dumps per-flow decision timelines as JSONL on exit, `--journal-table`
//! prints them as a human table on stderr, and `--serve <addr>` runs a
//! live telemetry endpoint (`/metrics`, `/healthz`, `/slo`, `/journal`,
//! `/trace`) for the duration of the command — with an off-thread
//! journal pump keeping `/journal` fresh while the command runs.
//! `--trace-sample 1/8` span-traces one flow in eight end to end through
//! the pipeline; `--trace-table` prints the sampled timelines on exit.
//!
//! `fleet --replay` switches from offline batch analysis to the live
//! ingestion path: the capture (a pcap file, `sim` for a generated
//! tap-fleet feed, or `merge` for several pcaps fused by the k-way
//! merge, each `--input` optionally carrying a `@<signed µs>` clock-skew
//! offset) is replayed at its recorded timestamps through bounded ingest
//! queues into the sharded monitor. Ctrl-C anywhere triggers a graceful
//! drain: producers quiesce, queues empty, and every open flow still
//! gets its final session verdict.

use std::process::ExitCode;
use std::sync::{Arc, Mutex};

use gamescope::deploy::fleet::{
    build_tap_feed, drive_tap_feed, run_fleet, FleetConfig, FleetModels, TapFleetConfig,
    TapReplayOptions,
};
use gamescope::deploy::lifecycle::{self, LifecyclePilot, PromotePolicy};
use gamescope::deploy::report::{journal_table, metrics_table, quality_table, trace_table};
use gamescope::deploy::train::{train_bundle, TrainConfig};
use gamescope::domain::{GameTitle, QoeLevel, StreamSettings};
use gamescope::ingest::{pcap_feed, split_round_robin, BackpressurePolicy, MergeSource};
use gamescope::obs;
use gamescope::pipeline::monitor::{MonitorConfig, MonitoredSession, TapMonitor};
use gamescope::pipeline::{ModelBundle, ModelSource, Obs};
use gamescope::sim::{Fidelity, SessionConfig, SessionGenerator, TitleKind};
use gamescope::trace::clock::RealClock;
use gamescope::trace::{pcap, shift_micros, ImpairmentProfile};

/// Ctrl-C handling: one process-wide flag, set by the SIGINT handler and
/// handed to whichever fleet driver runs as its cancel flag, so an
/// interrupt triggers a graceful drain instead of an abort.
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};

    static INTERRUPTED: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    /// The flag the handler sets — what `FleetConfig::cancel` and
    /// `TapReplayOptions::cancel` poll.
    pub fn flag() -> Arc<AtomicBool> {
        Arc::clone(INTERRUPTED.get_or_init(Arc::default))
    }

    /// True once Ctrl-C has been pressed.
    pub fn interrupted() -> bool {
        flag().load(Ordering::Relaxed)
    }

    #[cfg(unix)]
    pub fn install() {
        unsafe extern "C" fn on_sigint(_signum: i32) {
            // Only async-signal-safe work here: an initialised `OnceLock`
            // reads with one atomic load, then one atomic store.
            if let Some(flag) = INTERRUPTED.get() {
                flag.store(true, Ordering::SeqCst);
            }
        }
        // std links libc; declaring `signal` directly avoids a libc crate
        // dependency. SIG_ERR is usize::MAX.
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        // Allocate the flag before the handler can run.
        flag();
        let handler: unsafe extern "C" fn(i32) = on_sigint;
        // SAFETY: `signal` is the C library's, declared with its C
        // signature; the handler is an `extern "C" fn(i32)` that does only
        // async-signal-safe work.
        unsafe {
            signal(SIGINT, handler as usize);
        }
    }

    #[cfg(not(unix))]
    pub fn install() {}
}

const USAGE: &str = "\
gamescope — cloud gaming context classification from network traffic

USAGE:
  gamescope train    [--quick] [--out <bundle.json>]
  gamescope generate --out <s.pcap> [--title <name>] [--secs <n>] [--seed <n>]
  gamescope analyze  <s.pcap> [--bundle <bundle.json>] [--quick]
  gamescope classify --pcap <s.pcap> [--bundle <bundle.json>] [--quick]
  gamescope fleet    [--sessions <n>] [--bundle <bundle.json>] [--quick]
                     [--telemetry-every <n>] [--serve <addr>]
                     [--registry <dir>] [--promote <auto|manual>] [--retrain]
                     [--impair <profile>]
  gamescope fleet    --replay <s.pcap|sim|merge> [--pace <x>] [--shards <n>]
                     [--backpressure <block|drop-oldest|drop-newest>]
                     [--queues <n>] [--queue-capacity <n>] [--secs <n>]
                     [--input <pcap[@offset_us]>]... [--tolerance <us>]
                     [--split <m>]

FLEET REPLAY:
  --replay <src>       drive the live ingestion path instead of offline
                       batch analysis: 'sim' generates an interleaved
                       tap-fleet feed, 'merge' fuses several --input
                       pcaps with the k-way merge, anything else is read
                       as a single pcap
  --input <p[@off]>    (merge source, repeatable) a pcap to fuse; the
                       optional @<signed µs> clock-skew offset shifts its
                       timestamps onto the shared axis, e.g.
                       --input b.pcap@-1500 for a clock 1.5 ms ahead
  --tolerance <us>     merge reordering tolerance in µs (default 1000);
                       records arriving later than this against their
                       source's frontier are still delivered but counted
                       in cgc_ingest_merge_late_total{source=...}
  --split <m>          (sim source) split the generated feed round-robin
                       into m simulated taps and fuse them back with the
                       merge — demonstrates split+merge identity
  --pace <x>           speed multiplier over the recorded timeline
                       (1.0 = real time, 2.0 = double speed, 0 = as fast
                       as possible; default 1.0)
  --backpressure <p>   full-queue policy: block (lossless, default),
                       drop-oldest (freshest wins), drop-newest
  --queues <n>         ingest queues between producers and the router
  --queue-capacity <n> slots per queue (power of two)
  --shards <n>         monitor worker shards
  --secs <n>           gameplay seconds per simulated session (sim source)

FLEET LIFECYCLE:
  --registry <dir>     serve models from a versioned on-disk registry
                       through a hot-swappable slot: the newest stored
                       version is loaded (the bundle seeds v1 on first
                       run), and a drift alarm triggers a shadow retrain
                       from the run's journaled decisions, A/B shadow
                       evaluation on fresh traffic, and a promote/hold
                       verdict; the registry and verdict are served on
                       /models when --serve is given
  --promote <policy>   what to do with a Promote verdict: 'manual'
                       (default) only reports it, 'auto' hot-swaps the
                       candidate live with zero pipeline stall
  --retrain            force the shadow retrain even without a drift
                       alarm

FLEET IMPAIRMENT:
  --impair <profile>   route the impaired fraction of sessions through a
                       named adversarial network profile instead of the
                       legacy generic poor-network channel. Profiles
                       (mildest first): clean, dsl-bloated, lossy-wifi,
                       lte-handover, congested-evening. See
                       docs/IMPAIRMENTS.md for the knob catalog and the
                       symptom signature each leaves on /metrics and
                       /drift. With --quality or --serve the quality and
                       drift families carry a profile=<name> label.

Ctrl-C during fleet or replay triggers a graceful drain: in-flight work
finishes, queues empty, and open flows get final session verdicts.

OPTIONS (all subcommands):
  --metrics <path|->   dump a metrics snapshot on exit: '-' prints
                       Prometheus text to stdout, '*.json' writes JSON,
                       anything else writes Prometheus text to the path
  --metrics-table      print the snapshot as an aligned table on stderr
  --journal <path|->   dump flight-recorder timelines as JSONL on exit:
                       '-' prints to stdout, anything else writes the path
  --journal-table      print the timelines as an aligned table on stderr
  --trace-sample <n>   span-trace 1-in-n flows end to end through the
                       pipeline (ingest, merge, queue, router, shard,
                       slot, classifier, verdict); accepts '8' or '1/8'
  --trace-table        print sampled span timelines as an aligned table
                       on stderr (implies --trace-sample 1 unless given)
  --serve <addr>       serve GET /metrics, /healthz, /slo, /journal,
                       /quality, /drift, /models and /trace (filter with
                       ?flow=<hex>&slot=<n>) over HTTP (e.g.
                       127.0.0.1:9090; port 0 picks a free port) while
                       the command runs
  --quality            stream classification-quality telemetry: fleet
                       sessions join predictions against withheld truth
                       into rolling confusion gauges, and every
                       classifier feeds the label-free drift engine; a
                       quality table and drift verdict print on exit
                       (implied by --serve)
  --drift-window <n>   drift comparison window in recent scores
                       (default 256)
  --drift-reference <n> reference distribution size; the reference
                       freezes once this many warmup scores arrive
                       (default 512)
";

/// Removes `--name <value>` from `args`, returning the value.
fn take_value(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    if let Some(i) = args.iter().position(|a| a == name) {
        if i + 1 >= args.len() {
            return Err(format!("{name} requires a value"));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Ok(Some(v))
    } else {
        Ok(None)
    }
}

/// Removes a bare `--name` flag from `args`, returning its presence.
fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == name) {
        args.remove(i);
        true
    } else {
        false
    }
}

fn parse<T: std::str::FromStr>(name: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{name}: cannot parse {v:?}"))
}

/// Removes `--name <value>` from `args`, returning the parsed value.
fn take_parsed<T: std::str::FromStr>(
    args: &mut Vec<String>,
    name: &str,
) -> Result<Option<T>, String> {
    take_value(args, name)?.map(|v| parse(name, &v)).transpose()
}

/// Parses a `--trace-sample` spec: `8` and `1/8` both mean "trace one
/// flow in eight".
fn parse_sample(v: &str) -> Result<u64, String> {
    let tail = v.strip_prefix("1/").unwrap_or(v);
    match tail.parse::<u64>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "--trace-sample: {v:?} is not a rate (use a positive N or 1/N)"
        )),
    }
}

/// Splits a merge `--input` spec `path[@signed_offset_us]`: the signed
/// integer after the last `@` is the capture's clock-skew correction in
/// µs. A spec whose tail is not an integer is a plain path (so paths
/// containing `@` still work without an offset).
fn parse_input_spec(spec: &str) -> (String, i64) {
    if let Some((path, off)) = spec.rsplit_once('@') {
        if let Ok(offset) = off.parse::<i64>() {
            return (path.to_string(), offset);
        }
    }
    (spec.to_string(), 0)
}

/// Case/punctuation-insensitive catalog lookup: `cs_go`, `CS:GO` and
/// `csgo` all resolve to the same title.
fn find_title(input: &str) -> Option<GameTitle> {
    let norm = |s: &str| -> String {
        s.chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .map(|c| c.to_ascii_lowercase())
            .collect()
    };
    let wanted = norm(input);
    if wanted.is_empty() {
        return None;
    }
    if let Some(t) = GameTitle::ALL
        .into_iter()
        .find(|t| norm(t.name()) == wanted)
    {
        return Some(t);
    }
    // Unique-prefix fallback: `csgo` → CS:GO/CS2, `baldur` → Baldur's Gate 3.
    let mut matches = GameTitle::ALL
        .into_iter()
        .filter(|t| norm(t.name()).starts_with(&wanted));
    match (matches.next(), matches.next()) {
        (Some(t), None) => Some(t),
        _ => None,
    }
}

/// The training config `--quick` selects, and its name for the log.
fn train_config(quick: bool) -> (TrainConfig, &'static str) {
    if quick {
        (TrainConfig::quick(), "quick")
    } else {
        (TrainConfig::default(), "default")
    }
}

/// Loads `--bundle <path>` or trains one (`--quick` for the fast config).
fn bundle_from(args: &mut Vec<String>) -> Result<ModelBundle, String> {
    let quick = take_flag(args, "--quick");
    if let Some(path) = take_value(args, "--bundle")? {
        return ModelBundle::load(&path).map_err(|e| format!("loading bundle {path}: {e}"));
    }
    let (cfg, name) = train_config(quick);
    eprintln!("no --bundle given; training one ({name} config)...");
    Ok(train_bundle(&cfg))
}

fn cmd_train(mut args: Vec<String>) -> Result<(), String> {
    let quick = take_flag(&mut args, "--quick");
    let out = take_value(&mut args, "--out")?.unwrap_or_else(|| "bundle.json".into());
    reject_extra(&args)?;
    let (cfg, name) = train_config(quick);
    eprintln!("training models ({name} config)...");
    let bundle = train_bundle(&cfg);
    bundle
        .save(&out)
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote trained bundle to {out}");
    Ok(())
}

fn cmd_generate(mut args: Vec<String>) -> Result<(), String> {
    let out = take_value(&mut args, "--out")?.ok_or("generate requires --out <s.pcap>")?;
    let title = match take_value(&mut args, "--title")? {
        Some(name) => find_title(&name).ok_or_else(|| {
            let names: Vec<&str> = GameTitle::ALL.iter().map(|t| t.name()).collect();
            format!("unknown title {name:?}; catalog: {}", names.join(", "))
        })?,
        None => GameTitle::Fortnite,
    };
    let secs: f64 = take_parsed(&mut args, "--secs")?.unwrap_or(90.0);
    let seed: u64 = take_parsed(&mut args, "--seed")?.unwrap_or(7);
    reject_extra(&args)?;

    let mut generator = SessionGenerator::new();
    let session = generator.generate(&SessionConfig {
        kind: TitleKind::Known(title),
        settings: StreamSettings::default_pc(),
        gameplay_secs: secs,
        fidelity: Fidelity::FullPackets,
        seed,
    });
    pcap::write_session_pcap(&out, &session.tuple, &session.packets)
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {} packets of a {} session ({secs:.0}s gameplay) to {out}",
        session.packets.len(),
        title.name()
    );
    Ok(())
}

/// The telemetry the global flags asked for, built once in `main` on the
/// global registry and handed down to the command: the producer side
/// (`obs`, `quality`) for whatever the command builds, and the drift
/// consumer for the fleet's retrain trigger.
struct Telemetry {
    /// Global-registry metrics plus the journal, trace and drift sinks
    /// (each disabled unless its flag was given).
    obs: Obs,
    /// Truth-join sink of the per-session fleet.
    quality: obs::QualitySink,
    drift: Option<Arc<Mutex<obs::DriftEngine>>>,
}

fn cmd_analyze(mut args: Vec<String>, telemetry: &Telemetry) -> Result<(), String> {
    let bundle = bundle_from(&mut args)?;
    // Path comes from `--pcap <p>` (README `classify` spelling) or the
    // first positional argument (`analyze <p>`).
    let path = match take_value(&mut args, "--pcap")? {
        Some(p) => p,
        None => {
            if args.is_empty() {
                return Err("analyze requires a pcap path (positional or --pcap)".into());
            }
            args.remove(0)
        }
    };
    reject_extra(&args)?;

    let journal = &telemetry.obs.journal;
    let records =
        pcap::read_records_journaled(&path, journal).map_err(|e| format!("reading {path}: {e}"))?;
    println!("read {} capture records from {path}", records.len());

    // A tap monitor demultiplexes the capture, so multi-flow captures (or
    // ones with background chatter) work the same as single-session files.
    let mut monitor =
        TapMonitor::with_obs(&bundle, MonitorConfig::default(), telemetry.obs.clone());
    for r in &records {
        monitor.ingest_record(r);
    }
    let mut sessions = monitor.finish_all();
    sessions.sort_by_key(|m| m.started_at);
    if sessions.is_empty() {
        println!("no cloud gaming flows detected");
        return Ok(());
    }
    print_sessions(&sessions);
    Ok(())
}

/// One stdout line per monitored session, in the order given.
fn print_sessions(sessions: &[MonitoredSession]) {
    for m in sessions {
        println!(
            "t+{:>3}s {} [{}] -> title {} ({:.0}%), {:.1} Mbps, QoE {}/{}{}",
            m.started_at / 1_000_000,
            m.tuple,
            m.platform,
            m.report.title.title.map(|t| t.name()).unwrap_or("unknown"),
            m.report.title.confidence * 100.0,
            m.report.mean_down_mbps,
            m.report.objective_qoe,
            m.report.effective_qoe,
            if m.confirmed { "" } else { " (unconfirmed)" }
        );
    }
}

/// `fleet --replay`: drives a recorded feed through the live ingestion
/// path — paced replay, bounded queues, router, sharded monitor — on the
/// global registry and `main`'s sinks so `--metrics`, `--journal`,
/// `--quality` and `--serve` see the run.
fn cmd_fleet_replay(
    bundle: ModelBundle,
    source: String,
    mut args: Vec<String>,
    telemetry: &Telemetry,
) -> Result<(), String> {
    let mut opts = TapReplayOptions {
        cancel: Some(sig::flag()),
        ..TapReplayOptions::default()
    };
    if let Some(v) = take_parsed(&mut args, "--pace")? {
        opts.replay.pace = v;
    }
    if let Some(v) = take_value(&mut args, "--backpressure")? {
        opts.ingest.policy = BackpressurePolicy::parse(&v)
            .ok_or_else(|| format!("--backpressure: {v:?} is not block|drop-oldest|drop-newest"))?;
    }
    if let Some(v) = take_parsed(&mut args, "--queues")? {
        opts.ingest.queues = v;
    }
    if let Some(v) = take_parsed(&mut args, "--queue-capacity")? {
        opts.ingest.queue_capacity = v;
    }
    if let Some(v) = take_parsed(&mut args, "--tolerance")? {
        opts.merge.tolerance_us = v;
    }
    let shards: usize = take_parsed(&mut args, "--shards")?.unwrap_or(4);

    let journal = &telemetry.obs.journal;

    let sources: Vec<MergeSource> = if source == "merge" {
        let mut sources = Vec::new();
        while let Some(spec) = take_value(&mut args, "--input")? {
            let (path, offset) = parse_input_spec(&spec);
            let records = pcap::read_records_journaled(&path, journal)
                .map_err(|e| format!("reading {path}: {e}"))?;
            eprintln!(
                "read {} capture records from {path} (offset {offset:+} µs)",
                records.len()
            );
            sources.push(MergeSource::with_offset(path, offset, pcap_feed(&records)));
        }
        reject_extra(&args)?;
        if sources.is_empty() {
            return Err("--replay merge requires at least one --input <pcap[@offset_us]>".into());
        }
        sources
    } else if source == "sim" {
        let mut tap_cfg = TapFleetConfig {
            shards,
            ..Default::default()
        };
        if let Some(v) = take_parsed(&mut args, "--sessions")? {
            tap_cfg.n_sessions = v;
        }
        if let Some(v) = take_parsed(&mut args, "--secs")? {
            tap_cfg.gameplay_secs = v;
        }
        let split: usize = take_parsed(&mut args, "--split")?.unwrap_or(1);
        reject_extra(&args)?;
        eprintln!(
            "generating a {}-session tap-fleet feed ({}s gameplay each)...",
            tap_cfg.n_sessions, tap_cfg.gameplay_secs
        );
        let feed = build_tap_feed(&tap_cfg);
        if split > 1 {
            eprintln!("splitting the feed across {split} simulated taps...");
            split_round_robin(&feed, split)
                .into_iter()
                .enumerate()
                .map(|(i, part)| MergeSource::new(format!("tap{i}"), part))
                .collect()
        } else {
            vec![MergeSource::new("sim", feed)]
        }
    } else {
        reject_extra(&args)?;
        let records = pcap::read_records_journaled(&source, journal)
            .map_err(|e| format!("reading {source}: {e}"))?;
        eprintln!("read {} capture records from {source}", records.len());
        vec![MergeSource::new(source, pcap_feed(&records))]
    };

    // The banner comes from the sources, not from a fused feed: the
    // merge is streamed inside the driver and never materialised.
    let n_sources = sources.len();
    let offered: usize = sources.iter().map(|s| s.records.len()).sum();
    let ends = |s: &MergeSource| {
        let at = |r: &(u64, _, _)| shift_micros(r.0, s.offset_us);
        Some((at(s.records.first()?), at(s.records.last()?)))
    };
    let Some((first, last)) = sources
        .iter()
        .filter_map(ends)
        .reduce(|a, b| (a.0.min(b.0), a.1.max(b.1)))
    else {
        return Err("replay source produced no records".into());
    };
    eprintln!(
        "replaying {offered} records from {n_sources} source(s) spanning {:.1}s at pace {} \
         ({} backpressure, {} queue(s) x {}, {shards} shard(s)); Ctrl-C drains gracefully",
        last.saturating_sub(first) as f64 / 1e6,
        opts.replay.pace,
        opts.ingest.policy,
        opts.ingest.queues,
        opts.ingest.queue_capacity,
    );
    // Global registry and `main`'s sinks, so --metrics/--journal/--serve
    // observe the live run, merge counters included.
    let run = drive_tap_feed(
        Arc::new(bundle),
        shards,
        sources,
        Arc::new(RealClock::new()),
        &opts,
        obs::Registry::global(),
        telemetry.obs.clone(),
    );
    if run.replay.cancelled {
        eprintln!(
            "interrupted after {} of {offered} records; queues drained",
            run.replay.released
        );
    }
    // A streamed merge only knows its per-source totals once it has run.
    if n_sources > 1 || run.merge.late_total() > 0 {
        for (i, label) in run.merge.labels.iter().enumerate() {
            eprintln!(
                "merge: {label}: {} record(s), {} late beyond {} µs tolerance",
                run.merge.merged[i], run.merge.late[i], opts.merge.tolerance_us
            );
        }
    }

    print_sessions(&run.sessions);
    println!(
        "replay: {} merged ({} late), {} released, {} enqueued, {} handed off, \
         {} dropped, {} sessions{}",
        run.merge.merged_total(),
        run.merge.late_total(),
        run.replay.released,
        run.enqueued,
        run.handed_off,
        run.dropped,
        run.sessions.len(),
        if run.replay.cancelled {
            " (interrupted, drained gracefully)"
        } else {
            ""
        }
    );
    Ok(())
}

fn cmd_fleet(mut args: Vec<String>, telemetry: &Telemetry) -> Result<(), String> {
    let bundle = bundle_from(&mut args)?;
    if let Some(source) = take_value(&mut args, "--replay")? {
        return cmd_fleet_replay(bundle, source, args, telemetry);
    }
    let mut cfg = FleetConfig {
        quality: telemetry.quality.clone(),
        // Per-session analyzers journal and feed the drift engine; span
        // tracing covers the tap path only.
        obs: Arc::new(Obs {
            trace: obs::TraceSink::disabled(),
            ..telemetry.obs.clone()
        }),
        ..FleetConfig::default()
    };
    if let Some(v) = take_parsed(&mut args, "--sessions")? {
        cfg.n_sessions = v;
    }
    if let Some(v) = take_parsed(&mut args, "--telemetry-every")? {
        cfg.telemetry_every = v;
    }
    if let Some(v) = take_value(&mut args, "--impair")? {
        let profile = ImpairmentProfile::by_name(&v).ok_or_else(|| {
            let names: Vec<&str> = ImpairmentProfile::ALL.iter().map(|p| p.name).collect();
            format!(
                "--impair: unknown profile {v:?}; available: {}",
                names.join(", ")
            )
        })?;
        eprintln!(
            "impairment: {} v{} — {} (severity {}/4)",
            profile.name, profile.version, profile.summary, profile.severity
        );
        cfg.impair_profile = Some(profile);
        // The legacy default impairs only a slice of the fleet; a named
        // profile describes the whole access network it models.
        cfg.impaired_fraction = 1.0;
    }
    let registry_dir = take_value(&mut args, "--registry")?;
    let promote_policy = match take_value(&mut args, "--promote")? {
        Some(v) => PromotePolicy::parse(&v)
            .ok_or_else(|| format!("--promote: {v:?} is not auto|manual"))?,
        None => PromotePolicy::Manual,
    };
    let force_retrain = take_flag(&mut args, "--retrain");
    reject_extra(&args)?;
    if registry_dir.is_none() && (force_retrain || promote_policy != PromotePolicy::Manual) {
        return Err("--retrain/--promote require --registry <dir>".into());
    }

    // With a registry, the fleet serves from a hot-swappable slot under a
    // lifecycle pilot (installed process-wide so /models can see it);
    // without one, the classic fixed-bundle path.
    let pilot: Option<Arc<LifecyclePilot>> = match &registry_dir {
        Some(dir) => {
            let pilot = LifecyclePilot::open(
                dir,
                bundle.clone(),
                0, // CLI bundles arrive trained; their dataset is unknown
                obs::Registry::global(),
                promote_policy,
            )
            .map_err(|e| format!("opening model registry {dir}: {e}"))?;
            let pilot = lifecycle::install_global(Arc::new(pilot));
            eprintln!(
                "lifecycle: serving model v{} from registry {dir} (promote: {})",
                pilot.live().version(),
                promote_policy.name()
            );
            Some(pilot)
        }
        None => None,
    };
    cfg.cancel = Some(sig::flag());

    eprintln!("simulating {} sessions...", cfg.n_sessions);
    let records = match &pilot {
        Some(pilot) => run_fleet(ModelSource::Live(pilot.live()), &cfg),
        None => run_fleet(&bundle, &cfg),
    };

    // The lifecycle loop: a drift alarm (or --retrain) re-labels this
    // run's journaled decisions into a training set, fits a candidate,
    // rides it shadow on a fresh slice of traffic, and acts on the
    // verdict per --promote.
    if let Some(pilot) = &pilot {
        let drift_alarms: Vec<String> = telemetry
            .drift
            .as_ref()
            .map(|engine| {
                let mut engine = obs::lock(engine);
                engine.drain_and_sync();
                let report = engine.report();
                report.alarms().iter().map(|s| s.to_string()).collect()
            })
            .unwrap_or_default();
        if (force_retrain || !drift_alarms.is_empty()) && !sig::interrupted() {
            eprintln!(
                "lifecycle: {} — fitting a shadow candidate off-thread...",
                if drift_alarms.is_empty() {
                    "retrain requested".to_string()
                } else {
                    format!("drift alarm on {}", drift_alarms.join(", "))
                }
            );
            let handle = pilot.shadow_retrain(records.clone());
            match handle.join().expect("retrain thread panicked") {
                Ok(version) => {
                    let shadow = pilot.shadow().expect("candidate armed");
                    eprintln!(
                        "lifecycle: candidate v{version} registered; shadow-evaluating on fresh traffic..."
                    );
                    let eval_cfg = FleetConfig {
                        n_sessions: cfg.n_sessions.clamp(1, 120),
                        seed: cfg.seed ^ 0x5A5A,
                        telemetry_every: 0,
                        ..cfg.clone()
                    };
                    run_fleet(
                        FleetModels {
                            source: ModelSource::Live(pilot.live()),
                            shadow: Some(&shadow),
                        },
                        &eval_cfg,
                    );
                    if let Some((assessment, promoted)) = pilot.evaluate() {
                        eprintln!("lifecycle: verdict — {}", assessment.reason);
                        match promoted {
                            Some(v) => eprintln!(
                                "lifecycle: promoted v{v} live (previous version stays parked for instant rollback)"
                            ),
                            None => eprintln!(
                                "lifecycle: holding v{} live (candidate v{version} stays in the registry)",
                                pilot.live().version()
                            ),
                        }
                    }
                }
                Err(e) => eprintln!("lifecycle: retrain skipped: {e}"),
            }
        }
    }

    if records.len() < cfg.n_sessions {
        eprintln!(
            "interrupted: {} of {} sessions completed before the drain",
            records.len(),
            cfg.n_sessions
        );
    }
    let known: Vec<_> = records
        .iter()
        .filter(|r| r.truth_kind.known().is_some())
        .collect();
    let correct = known.iter().filter(|r| r.title_correct()).count();
    let qoe_count = |level: QoeLevel| {
        records
            .iter()
            .filter(|r| r.report.effective_qoe == level)
            .count()
    };
    println!(
        "fleet: {} sessions, title accuracy {}/{} on catalog titles",
        records.len(),
        correct,
        known.len()
    );
    println!(
        "effective QoE: {} good / {} medium / {} bad",
        qoe_count(QoeLevel::Good),
        qoe_count(QoeLevel::Medium),
        qoe_count(QoeLevel::Bad)
    );
    Ok(())
}

fn reject_extra(args: &[String]) -> Result<(), String> {
    if let Some(a) = args.first() {
        Err(format!("unexpected argument {a:?}"))
    } else {
        Ok(())
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics_target = take_value(&mut args, "--metrics")?;
    let verbose_metrics = take_flag(&mut args, "--metrics-table");
    let journal_target = take_value(&mut args, "--journal")?;
    let verbose_journal = take_flag(&mut args, "--journal-table");
    let trace_sample = take_value(&mut args, "--trace-sample")?;
    let verbose_trace = take_flag(&mut args, "--trace-table");
    let serve_addr = take_value(&mut args, "--serve")?;
    let quality_flag = take_flag(&mut args, "--quality");
    let drift_window: Option<usize> = take_parsed(&mut args, "--drift-window")?;
    let drift_reference: Option<usize> = take_parsed(&mut args, "--drift-reference")?;
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" || args[0] == "help" {
        print!("{USAGE}");
        return Ok(());
    }

    // Ctrl-C from here on requests a graceful drain instead of killing
    // the process mid-run.
    sig::install();

    // Everything below builds on the global registry, so `--metrics` and
    // `/metrics` see the command's series and the telemetry's own.
    let registry = obs::Registry::global();
    let mut telemetry = Telemetry {
        obs: Obs::on(registry),
        quality: obs::QualitySink::disabled(),
        drift: None,
    };
    // Any flight-recorder option builds the journal before the command
    // runs; every monitor/analyzer the command builds records into it.
    let journal = if journal_target.is_some() || verbose_journal || serve_addr.is_some() {
        let (sink, journal) = obs::Journal::new(obs::JournalConfig::default(), registry);
        telemetry.obs.journal = sink;
        Some(Arc::new(Mutex::new(journal)))
    } else {
        None
    };
    // Span tracing is opt-in (--trace-sample / --trace-table): the tap
    // monitors and ingest engine the command builds record spans for the
    // sampled flows.
    let trace = if trace_sample.is_some() || verbose_trace {
        let sample = trace_sample
            .as_deref()
            .map(parse_sample)
            .transpose()?
            .unwrap_or(1);
        let config = obs::TraceConfig {
            // The CLI replay path stamps four transport spans per record
            // (merge/ingest/queue/router); an unpaced replay produces
            // them faster than a default-sized ring absorbs between
            // drains, so size the ring for burst headroom here.
            ring_capacity: 1 << 18,
            ..obs::TraceConfig::default().with_sample(sample)
        };
        let (sink, collector) = obs::TraceCollector::new(config, registry);
        telemetry.obs.trace = sink;
        Some(Arc::new(Mutex::new(collector)))
    } else {
        None
    };
    // Quality/drift telemetry: --quality (or any live endpoint) builds
    // the quality hub and drift engine before the command runs, so its
    // analyzers and fleet truth-joins feed them. Off by default: without
    // the sinks the hot path stays zero-alloc and untouched.
    let quality_on = quality_flag || serve_addr.is_some();
    let mut quality = None;
    if quality_on {
        // Peeked here (cmd_fleet consumes and validates the flag) so the
        // quality/drift families carry the profile label from the moment
        // they are registered — relabeling later would split every series.
        let impair_label: Option<&'static str> = args
            .iter()
            .position(|a| a == "--impair")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| ImpairmentProfile::by_name(v))
            .map(|p| p.name);
        let (sink, hub) = obs::QualityHub::new(
            obs::QualityConfig {
                profile: impair_label,
                ..obs::QualityConfig::default()
            },
            registry,
        );
        telemetry.quality = sink;
        quality = Some(Arc::new(Mutex::new(hub)));
        let mut drift_cfg = obs::DriftConfig {
            profile: impair_label,
            ..obs::DriftConfig::default()
        };
        if let Some(n) = drift_window {
            drift_cfg.window = n;
        }
        if let Some(n) = drift_reference {
            drift_cfg.reference_size = n;
        }
        let (sink, engine) = obs::DriftEngine::new(drift_cfg, registry);
        telemetry.obs.drift = sink;
        telemetry.drift = Some(Arc::new(Mutex::new(engine)));
    } else if drift_window.is_some() || drift_reference.is_some() {
        eprintln!(
            "note: --drift-window/--drift-reference have no effect without --quality or --serve"
        );
    }
    // An off-thread pump keeps the span ring drained for the duration of
    // the command — without it, the per-record transport stages fill the
    // ring long before exit and later stages count as drops. The short
    // interval matters at `--pace 0`: the replay can push the whole feed
    // between two slow ticks.
    let _trace_pump = trace.as_ref().map(|collector| {
        obs::Pump::start(
            Arc::clone(collector),
            std::time::Duration::from_millis(25),
            registry,
        )
    });
    // With a live endpoint, an off-thread pump keeps /journal fresh while
    // the command runs instead of draining only at scrape/exit time.
    let _pump = match (&journal, &serve_addr) {
        (Some(journal), Some(_)) => Some(obs::Pump::start(
            Arc::clone(journal),
            std::time::Duration::from_millis(200),
            registry,
        )),
        _ => None,
    };
    // Held for the duration of the command: dropped (and thus shut down)
    // when `run` returns.
    let _server = match &serve_addr {
        Some(addr) => {
            let options = obs::ServeOptions {
                journal: journal.clone(),
                trace: trace.clone(),
                // Burn-rate evaluation on the wall clock backs /slo and
                // upgrades /healthz from the cumulative-counter fallback.
                slo: Some(Arc::new(obs::SloHub::real_time(obs::SloConfig::default()))),
                quality: quality.clone(),
                drift: telemetry.drift.clone(),
                build: Some(Arc::new(obs::BuildInfo::register(registry))),
                // Resolved per request: the lifecycle pilot installs
                // itself after the server is already up (fleet
                // --registry), and /models goes live the moment it does.
                models: Some(Arc::new(|| {
                    lifecycle::global().map(|pilot| pilot.models_json())
                })),
            };
            let server = obs::TelemetryServer::spawn_with(addr, || registry.snapshot(), options)
                .map_err(|e| format!("binding --serve {addr}: {e}"))?;
            eprintln!(
                "telemetry: serving /metrics /healthz /slo /journal /quality /drift /models{} on http://{}",
                if trace.is_some() { " /trace" } else { "" },
                server.local_addr()
            );
            Some(server)
        }
        None => None,
    };

    let cmd = args.remove(0);
    match cmd.as_str() {
        "train" => cmd_train(args),
        "generate" => cmd_generate(args),
        "analyze" | "classify" => cmd_analyze(args, &telemetry),
        "fleet" => cmd_fleet(args, &telemetry),
        other => Err(format!("unknown subcommand {other:?}\n\n{USAGE}")),
    }?;

    // Stop the pumps (final drain included) before snapshotting, so the
    // metrics, journal and trace output below see the complete streams.
    drop(_pump);
    drop(_trace_pump);
    // Final quality/drift drain so the snapshot below (and the exit
    // tables) reflect every labeled pair and score the run produced.
    if let Some(hub) = &quality {
        obs::lock(hub).drain_and_sync();
    }
    if let Some(engine) = &telemetry.drift {
        obs::lock(engine).drain_and_sync();
    }
    let snapshot = registry.snapshot();
    if verbose_metrics {
        eprintln!("\n{}", metrics_table(&snapshot));
    }
    if let Some(target) = metrics_target {
        obs::export::dump(&snapshot, &target)
            .map_err(|e| format!("writing metrics to {target}: {e}"))?;
        if target != "-" {
            eprintln!("metrics snapshot written to {target}");
        }
    }

    if let Some(trace) = &trace {
        let mut collector = obs::lock(trace);
        collector.drain();
        if verbose_trace {
            eprintln!("\n{}", trace_table(collector.timelines()));
        }
    }

    if let Some(journal) = &journal {
        let mut journal = obs::lock(journal);
        journal.drain();
        if verbose_journal {
            eprintln!("\n{}", journal_table(journal.timelines()));
        }
        if let Some(target) = journal_target {
            let body = journal.to_jsonl();
            if target == "-" {
                print!("{body}");
            } else {
                std::fs::write(&target, body)
                    .map_err(|e| format!("writing journal to {target}: {e}"))?;
                eprintln!("journal written to {target}");
            }
        }
    }

    if let Some(hub) = &quality {
        let report = obs::lock(hub).report();
        let table = quality_table(&report);
        if table.is_empty() {
            eprintln!("quality: no labeled pairs observed (offline fleet joins feed this)");
        } else {
            eprintln!("\n{table}");
        }
    }
    if let Some(engine) = &telemetry.drift {
        let report = obs::lock(engine).report();
        let alarms = report.alarms();
        if alarms.is_empty() {
            eprintln!(
                "drift: all models below the {:.2} alarm threshold",
                report.alarm_threshold
            );
        } else {
            eprintln!(
                "drift: ALARM — score over {:.2} for {}",
                report.alarm_threshold,
                alarms.join(", ")
            );
        }
    }
    Ok(())
}
