//! Figure 13 — fraction of sessions with good/medium/bad experience under
//! objective vs effective (context-calibrated) QoE, (a) per classified
//! title and (b) per inferred pattern for unknown titles.
//!
//! ```text
//! cargo run -p cgc-bench --release --bin exp_fig13
//! ```

use cgc_bench::cached_fleet;
use cgc_deploy::aggregate::{qoe_by_pattern, qoe_by_title, qoe_of_impaired};
use cgc_deploy::report::{pct, table, write_json};
use serde::Serialize;

#[derive(Serialize)]
struct Output {
    by_title: Vec<cgc_deploy::aggregate::QoeProfile>,
    by_pattern: Vec<cgc_deploy::aggregate::QoeProfile>,
    impaired: cgc_deploy::aggregate::QoeProfile,
}

fn main() {
    println!("== Figure 13: objective vs effective QoE ==\n");
    let records = cached_fleet();
    let by_title = qoe_by_title(&records);
    let by_pattern = qoe_by_pattern(&records);
    let impaired = qoe_of_impaired(&records);

    let render = |profiles: &[cgc_deploy::aggregate::QoeProfile]| {
        let rows: Vec<Vec<String>> = profiles
            .iter()
            .filter(|p| p.sessions > 0)
            .map(|p| {
                vec![
                    p.context.clone(),
                    p.sessions.to_string(),
                    format!(
                        "{}/{}/{}",
                        pct(p.objective[0]),
                        pct(p.objective[1]),
                        pct(p.objective[2])
                    ),
                    format!(
                        "{}/{}/{}",
                        pct(p.effective[0]),
                        pct(p.effective[1]),
                        pct(p.effective[2])
                    ),
                    pct(p.corrected_fraction()),
                ]
            })
            .collect();
        table(
            &[
                "Context",
                "#Sess",
                "objective bad/med/good",
                "effective bad/med/good",
                "corrected",
            ],
            &rows,
        )
    };

    println!("(a) per classified title:");
    println!("{}", render(&by_title));
    println!("(b) per inferred pattern (unknown titles):");
    println!("{}", render(&by_pattern));

    let get = |name: &str| {
        by_title
            .iter()
            .find(|p| p.context == name && p.sessions > 0)
    };
    if let Some(h) = get("Hearthstone") {
        println!(
            "Shape check vs paper: Hearthstone objective good {} -> effective good {}\n(paper: ~0% objective good, ~80% corrected to good).",
            pct(h.objective[2]),
            pct(h.effective[2])
        );
    }
    if let Some(c) = get("Cyberpunk 2077") {
        println!(
            "Cyberpunk 2077: objective med+bad {} -> effective good {} (paper: 56% -> 95%).",
            pct(c.objective[0] + c.objective[1]),
            pct(c.effective[2])
        );
    }
    let total_corrected: f64 = by_title
        .iter()
        .chain(&by_pattern)
        .filter(|p| p.sessions > 0)
        .map(|p| p.corrected_fraction() * p.sessions as f64)
        .sum::<f64>()
        / records.len() as f64;
    println!(
        "Overall fraction of sessions un-mislabeled by calibration: {}",
        pct(total_corrected)
    );

    println!(
        "Impaired sessions ({}): objective bad/med/good {}/{}/{} -> effective {}/{}/{}\n(context excuses low demand, never network damage).",
        impaired.sessions,
        pct(impaired.objective[0]),
        pct(impaired.objective[1]),
        pct(impaired.objective[2]),
        pct(impaired.effective[0]),
        pct(impaired.effective[1]),
        pct(impaired.effective[2])
    );

    let out = Output {
        by_title,
        by_pattern,
        impaired,
    };
    if let Ok(p) = write_json("fig13", &out) {
        println!("\nwrote {}", p.display());
    }
}
