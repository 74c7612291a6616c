//! Record a dive scenario as one continuous campaign WAV, then import the
//! file blind and range its rounds through the real pipeline — the
//! zero-to-import tour of the `uw-audio` + `uw_eval::import` subsystem.
//!
//! ```text
//! cargo run --release --example import_recording
//! ```
//!
//! 1. The dock 5-device headline cell runs at hybrid fidelity and every
//!    leader-link exchange is rendered onto one 2-channel PCM16 campaign
//!    WAV at its TDMA slot, with ambient noise in the gaps — what a dive
//!    recorder left running would capture.
//! 2. The file is imported blind: the burst scan finds every preamble,
//!    places it on the slot grid and fits each device's clock skew, and
//!    the loader slices the captures into a cell whose session runs
//!    detection and channel estimation on the decoded audio.
//! 3. The same audio runs once more on the on-device Q15 fixed-point
//!    path — recordings are numeric-path independent.

use uw_audio::wav::SampleFormat;
use uw_core::config::NumericPath;
use uw_core::prelude::EnvironmentKind;
use uw_eval::replay::{fixture_cell, record_cell};
use uw_eval::runner::run_cell;
use uw_eval::{import_campaign, render_campaign_wav, ImportParams, RenderOptions};

fn main() {
    let cell = fixture_cell().expect("fixture cell expands");
    println!(
        "simulating + recording {} ({} rounds)…",
        cell.id, cell.rounds
    );
    let simulated = run_cell(&cell).expect("simulated cell runs");
    let recording = record_cell(&cell).expect("recording renders");
    let opts = RenderOptions {
        format: SampleFormat::Pcm16,
        ..RenderOptions::default()
    };
    let wav = render_campaign_wav(&recording, &opts).expect("campaign renders");

    let path = std::env::temp_dir().join("uwgps_import_example.wav");
    std::fs::write(&path, &wav).expect("campaign saves");
    println!(
        "wrote {} ({} captures, {:.1} KiB)",
        path.display(),
        recording.links.len(),
        wav.len() as f64 / 1024.0
    );

    let bytes = std::fs::read(&path).expect("campaign loads");
    let params = ImportParams::new(EnvironmentKind::Dock, 5, 1);
    let (campaign, report) = import_campaign(&bytes, &params).expect("blind import");
    println!(
        "imported {} rounds, {} segments, {}/{} bursts matched",
        report.rounds_detected, report.segments, report.bursts_matched, report.bursts_found
    );
    for (label, numeric_path) in [("f64", NumericPath::F64), ("q15", NumericPath::Q15)] {
        let imported = campaign.cell_with_path(numeric_path).expect("import cell");
        let report = run_cell(&imported).expect("imported cell runs");
        let gap = (report.error_2d.median - simulated.error_2d.median).abs();
        println!(
            "imported {:<44} median 2D error {:.3} m (simulated {:.3} m, gap {gap:.3} m)",
            report.id, report.error_2d.median, simulated.error_2d.median
        );
        assert!(gap <= 0.1, "{label} import drifted out of the golden band");
    }
    println!("the blind import reproduces the simulated cell on both numeric paths ✓");
}
