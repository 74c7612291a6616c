//! Round-trip of per-device clock skew through recorded audio: captures
//! synthesized under a skewed ADC (`uw_dsp::resample::apply_ppm_skew`),
//! installed in memory as the cell's recorded audio, are compensated on
//! replay and land back inside the golden accuracy band.

use std::sync::Arc;
use uw_core::config::{Fidelity, NumericPath};
use uw_core::prelude::*;
use uw_eval::matrix::{LinkProfile, MobilityProfile, ScenarioMatrix, Topology};
use uw_eval::replay::{record_cell, Recording};
use uw_eval::runner::run_cell;
use uw_eval::{EvalCell, ReplayAudio};

fn tiny_hybrid_cell() -> EvalCell {
    let matrix = ScenarioMatrix {
        environments: vec![EnvironmentKind::Dock],
        topologies: vec![Topology::FiveDevice],
        conditions: vec![LinkProfile::Clear],
        mobilities: vec![MobilityProfile::Static],
        numeric_paths: vec![NumericPath::F64],
        faults: vec![None],
        seeds: vec![1],
        recordings: vec![],
        rounds_per_cell: 2,
        fidelity: Fidelity::Hybrid,
    };
    matrix.expand().unwrap().remove(0)
}

fn capture_len(recording: &Recording, round: usize, device: usize) -> usize {
    recording
        .links
        .iter()
        .find(|l| l.round == round && l.device == device)
        .unwrap()
        .capture
        .mic1
        .len()
}

#[test]
fn skewed_recordings_compensate_back_into_the_golden_band() {
    let schedule = FaultSchedule::parse("seed=1;skew:0..:2:300").unwrap();
    let clean = tiny_hybrid_cell();
    let skewed = tiny_hybrid_cell().with_faults(schedule).unwrap();
    assert!(skewed.id.contains("flt"), "{}", skewed.id);

    let rec_clean = record_cell(&clean).unwrap();
    let rec_skewed = record_cell(&skewed).unwrap();

    // Non-vacuity: the skewed device's ADC resampling changed its capture
    // length; unskewed devices recorded identical audio.
    assert_ne!(
        capture_len(&rec_skewed, 0, 2),
        capture_len(&rec_clean, 0, 2),
        "300 ppm skew must change the skewed device's sample count"
    );
    assert_eq!(
        capture_len(&rec_skewed, 0, 3),
        capture_len(&rec_clean, 0, 3)
    );

    // Replay both recordings; the skewed cell carries its schedule, so
    // the session compensates each capture before detection.
    let mut replay_clean = clean;
    replay_clean.replay = Some(Arc::new(ReplayAudio::new(&rec_clean)));
    let mut replay_skewed = skewed;
    replay_skewed.replay = Some(Arc::new(ReplayAudio::new(&rec_skewed)));
    let clean_report = run_cell(&replay_clean).unwrap();
    let skew_report = run_cell(&replay_skewed).unwrap();

    // Skew-then-compensate stays within the golden band and close to the
    // clean replay.
    assert!(
        skew_report.error_2d.median.is_finite()
            && skew_report.error_2d.median > 0.05
            && skew_report.error_2d.median < 2.2,
        "median {} m out of band",
        skew_report.error_2d.median
    );
    assert!(
        (skew_report.error_2d.median - clean_report.error_2d.median).abs() < 0.2,
        "compensated median {} m too far from clean {} m",
        skew_report.error_2d.median,
        clean_report.error_2d.median
    );
    assert_eq!(skew_report.rounds_failed, 0);
}
