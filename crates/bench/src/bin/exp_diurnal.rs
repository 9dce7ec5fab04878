//! §5.2 context — peak-hour load: the paper motivates bandwidth
//! provisioning with "massive subscribers ... especially in high-density
//! regions during peak hours". This experiment reports the 24-hour load
//! profile of the simulated deployment: session arrivals, mean concurrent
//! sessions and aggregate downstream demand per hour of day.
//!
//! ```text
//! cargo run -p cgc-bench --release --bin exp_diurnal
//! ```

use cgc_bench::cached_fleet;
use cgc_deploy::aggregate::diurnal_profile;
use cgc_deploy::fleet::DEPLOYMENT_DAYS;
use cgc_deploy::report::{f, table, write_json};

fn main() {
    println!("== deployment load by hour of day ==\n");
    let records = cached_fleet();
    let profile = diurnal_profile(&records, DEPLOYMENT_DAYS);

    let rows: Vec<Vec<String>> = profile
        .iter()
        .map(|p| {
            let bar = "#".repeat((p.aggregate_mbps / 4.0).round() as usize);
            vec![
                format!("{:02}:00", p.hour),
                p.sessions_started.to_string(),
                f(p.mean_concurrent, 2),
                f(p.aggregate_mbps, 1),
                bar,
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &["hour", "#starts", "avg concurrent", "aggregate Mbps", ""],
            &rows
        )
    );

    let peak = profile
        .iter()
        .max_by(|a, b| a.aggregate_mbps.partial_cmp(&b.aggregate_mbps).unwrap())
        .expect("24 hours");
    let trough = profile
        .iter()
        .min_by(|a, b| a.aggregate_mbps.partial_cmp(&b.aggregate_mbps).unwrap())
        .expect("24 hours");
    println!(
        "peak hour {:02}:00 carries {}x the load of {:02}:00 — the provisioning\nheadroom the effective-QoE calibration frees up matters most here.",
        peak.hour,
        f(peak.aggregate_mbps / trough.aggregate_mbps.max(0.01), 1),
        trough.hour
    );

    if let Ok(p) = write_json("diurnal", &profile) {
        println!("\nwrote {}", p.display());
    }
}
