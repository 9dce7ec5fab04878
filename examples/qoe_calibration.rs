//! Effective QoE calibration on three telling cases:
//!
//! 1. a healthy Hearthstone session — objectively "bad" (low bitrate, low
//!    frame rate) but contextually fine;
//! 2. a healthy Cyberpunk session heavy on idle dialogue — objectively
//!    mediocre, contextually fine;
//! 3. a genuinely impaired Fortnite session — bad under both measures
//!    (context never excuses network damage).
//!
//! ```text
//! cargo run --release --example qoe_calibration
//! ```

use gamescope::deploy::aggregate::calibrate;
use gamescope::deploy::train::{train_bundle, TrainConfig};
use gamescope::deploy::{run_fleet, FleetConfig};
use gamescope::domain::{GameTitle, Resolution, StreamSettings};
use gamescope::pipeline::{AnalyzerConfig, QoeInputs, SessionAnalyzer};
use gamescope::sim::{Fidelity, SessionConfig, SessionGenerator, TitleKind};
use gamescope::trace::impair::{Impairment, ImpairmentProfile};

fn main() {
    println!("training models (quick config)...");
    let mut bundle = train_bundle(&TrainConfig::quick());
    println!("learning demand calibration from a small fleet...");
    let calib = run_fleet(
        &bundle,
        &FleetConfig {
            n_sessions: 80,
            duration_scale: 0.06,
            // Uniform titles: even rare catalog entries get their demand
            // measured during calibration.
            uniform_titles: true,
            ..Default::default()
        },
    );
    bundle.calibration = calibrate(&calib);

    // The default fleet's impaired slice.
    let impairment = ImpairmentProfile::by_name("poor-network").expect("in the catalog");
    let mut generator = SessionGenerator::new();
    let mut run =
        |name: &str, title: GameTitle, settings: StreamSettings, impaired: bool, seed: u64| {
            let mut session = generator.generate(&SessionConfig {
                kind: TitleKind::Known(title),
                settings,
                gameplay_secs: 300.0,
                fidelity: Fidelity::LaunchOnly,
                seed,
            });
            let qoe = if impaired {
                let duration = session.vol.width * session.vol.samples.len() as u64;
                let mut ch = Impairment::new(impairment.instantiate(seed, duration).config);
                session.packets = ch.apply_all(&session.packets);
                ch.degrade_vol(&mut session.vol, 0);
                QoeInputs {
                    nominal_fps: settings.fps as f64,
                    latency_ms: 95.0,
                    loss_rate: impairment.expected_loss_rate(),
                    settings_factor: settings.bitrate_factor(),
                    delivered_fps_ratio: 0.45,
                }
            } else {
                QoeInputs {
                    nominal_fps: settings.fps as f64,
                    latency_ms: 12.0,
                    loss_rate: 0.0005,
                    settings_factor: settings.bitrate_factor(),
                    delivered_fps_ratio: 1.0,
                }
            };
            let mut analyzer = SessionAnalyzer::new(&bundle, AnalyzerConfig::default(), qoe);
            analyzer.analyze(&session.packets, &session.vol);
            let report = analyzer.finish();
            println!(
                "{name:<38} {:>5.1} Mbps | objective {:<6} | effective {}",
                report.mean_down_mbps,
                report.objective_qoe.to_string(),
                report.effective_qoe
            );
        };

    println!();
    let low = StreamSettings {
        resolution: Resolution::Hd,
        fps: 30,
        ..StreamSettings::default_pc()
    };
    run(
        "healthy Hearthstone (HD/30)",
        GameTitle::Hearthstone,
        low,
        false,
        1,
    );
    run(
        "healthy Cyberpunk 2077 (FHD/60)",
        GameTitle::Cyberpunk2077,
        StreamSettings::default_pc(),
        false,
        2,
    );
    run(
        "impaired Fortnite (FHD/60, lossy path)",
        GameTitle::Fortnite,
        StreamSettings::default_pc(),
        true,
        3,
    );
    println!(
        "\nthe calibration recovers the first two sessions as good experience\nwhile the genuinely damaged one stays flagged for troubleshooting."
    );
}
