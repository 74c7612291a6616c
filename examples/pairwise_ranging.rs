//! Waveform-level pairwise ranging between two phones, across every site
//! in the evaluation matrix.
//!
//! ```text
//! cargo run --release --example pairwise_ranging
//! ```
//!
//! Runs the full §2.2 physical pipeline — ZC-OFDM preamble, image-method
//! multipath channel, detection with PN validation, LS channel estimation
//! and the dual-microphone direct-path search — for two phones 15 m apart
//! in each of the six environments (the paper's four sites plus the
//! open-water and tidal-channel matrix extensions), then compares against
//! the BeepBeep and FMCW baselines at the dock (the Fig. 12b comparison in
//! miniature).

use uwgps::channel::Environment;
use uwgps::core::prelude::EnvironmentKind;
use uwgps::core::waveform::{repeated_trial_errors, PairwiseTrial, RangingScheme};

fn main() {
    let trials = 6;

    println!("Dual-microphone 1D ranging at 15 m in every matrix environment ({trials} trials)\n");
    println!("{:<16} {:>18} {:>10}", "site", "mean |error|", "failed");
    for kind in EnvironmentKind::ALL {
        // Stay in the upper water column (the viewpoint is only 1.5 m deep).
        let depth = (Environment::preset(kind).water_depth_m - 0.5).clamp(0.5, 2.0);
        let trial = PairwiseTrial::at_distance(kind, 15.0, depth);
        let (errs, failed) = repeated_trial_errors(&trial, RangingScheme::DualMicOfdm, trials, 100);
        println!(
            "{:<16} {:>15.2} m {:>7}/{}",
            kind.name(),
            mean(&errs),
            failed,
            trials
        );
    }

    println!("\nBaseline comparison in the dock environment ({trials} trials per point)\n");
    println!(
        "{:<10} {:>22} {:>22} {:>22}",
        "distance", "ours (dual-mic)", "BeepBeep", "CAT (FMCW)"
    );
    for d in [10.0, 20.0, 28.0] {
        let trial = PairwiseTrial::at_distance(EnvironmentKind::Dock, d, 2.0);
        let cell = |scheme: RangingScheme, seed: u64| {
            let (errs, failed) = repeated_trial_errors(&trial, scheme, trials, seed);
            format!("{:.2} m ({failed} failed)", mean(&errs))
        };
        println!(
            "{:<10} {:>22} {:>22} {:>22}",
            format!("{d} m"),
            cell(RangingScheme::DualMicOfdm, 100),
            cell(RangingScheme::BeepBeep, 200),
            cell(RangingScheme::CatFmcw, 300)
        );
    }
    println!("\nThe dual-microphone estimator holds sub-metre mean error; the baselines");
    println!("lock onto strong reflections (correlation) or lose resolution (FMCW).");
}

/// Mean of the successful trials' errors (NaN when every trial failed).
fn mean(errs: &[f64]) -> f64 {
    if errs.is_empty() {
        f64::NAN
    } else {
        errs.iter().sum::<f64>() / errs.len() as f64
    }
}
