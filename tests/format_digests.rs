//! Byte pins for the two binary formats and the JSON reports.
//!
//! Each test encodes the shared samples (`samples/mod.rs`) and folds every
//! encoding, length first, into a 64-bit FNV-1a digest. The formats are
//! frozen: a change that moves one encoded byte of a `uwlz` frame, a `uwCM`
//! manifest or an `EvalReport` / `SoakReport` JSON document fails here.
//! Every pinned binary encoding must also decode and re-encode to the same
//! bytes, so the decoders read back exactly what the encoders wrote. The
//! samples hold only exact binary fractions, so the digests are the same
//! in debug and release builds.

mod samples;

use std::collections::BTreeMap;

use uwgps::audio::CampaignManifest;
use uwgps::eval::soak::{Violation, SOAK_SCHEMA};
use uwgps::eval::{EvalReport, SoakReport};
use uwgps::serve::wire::{decode_frame, encode_frame};

/// 64-bit FNV-1a over each encoding's length and bytes.
fn digest(encodings: &[Vec<u8>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for bytes in encodings {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn uwlz_frames_are_pinned() {
    let frames: Vec<Vec<u8>> = samples::messages().iter().map(encode_frame).collect();
    for frame in &frames {
        let (msg, consumed) = decode_frame(frame).unwrap();
        assert_eq!(consumed, frame.len());
        assert_eq!(&encode_frame(&msg), frame);
    }
    assert_eq!(digest(&frames), 0xad3b_7f26_e101_6e7d);
}

#[test]
fn uwcm_manifests_are_pinned() {
    let encoded: Vec<Vec<u8>> = samples::manifests()
        .iter()
        .map(|m| m.to_bytes().unwrap())
        .collect();
    for bytes in &encoded {
        let back = CampaignManifest::from_bytes(bytes).unwrap();
        assert_eq!(&back.to_bytes().unwrap(), bytes);
    }
    assert_eq!(digest(&encoded), 0x9f1a_ff76_285f_f7c5);
}

/// The JSON documents behind `BENCH_eval_matrix.json` and `BENCH_soak.json`
/// (and the served-versus-batch byte comparisons): an eval report over the
/// sample cell, which holds NaN, +∞ and −0.0; a two-cell report whose
/// second id needs every escape the writer knows; an empty report; a soak
/// report whose violations quote a reason; and a clean soak report.
#[test]
fn json_reports_are_pinned() {
    let mut escaped = samples::report("tab\there \"quoted\" back\\slash \u{1} π");
    escaped.error_cdf.clear();
    let eval = [
        EvalReport::new(vec![samples::report("dock/5dev/occluded/swim/q15/s11")]),
        EvalReport::new(vec![samples::report("dock/5dev/clear/static/s1"), escaped]),
        EvalReport::new(Vec::new()),
    ];
    let violation = |round: usize, detail: &str| Violation {
        cell_spec: "dock:5:6:3:seed=7;loss:2..6:*:0.25".into(),
        round,
        detail: detail.into(),
        repro: "cargo run --release -p uw-bench --bin uw_soak -- --cell \"dock:5:6:3:-\"".into(),
    };
    let soak = |violations: Vec<Violation>, fault_rounds: &[(&'static str, usize)]| SoakReport {
        schema: SOAK_SCHEMA.into(),
        master_seed: 2024,
        fleets: 200,
        cells_run: 231,
        control_cells: 40,
        rounds_ok: 1987,
        rounds_failed: 61,
        fault_rounds: fault_rounds.iter().copied().collect::<BTreeMap<_, _>>(),
        reproducible: violations.is_empty(),
        violations,
    };
    let soaks = [
        soak(
            vec![
                violation(2, "round failed with reason \"too few audible devices\""),
                violation(5, "NaN position for live device 3"),
            ],
            &[("loss", 12), ("churn", 4), ("failover", 1)],
        ),
        soak(Vec::new(), &[]),
    ];
    let documents: Vec<Vec<u8>> = eval
        .iter()
        .map(EvalReport::to_json)
        .chain(soaks.iter().map(SoakReport::to_json))
        .map(String::into_bytes)
        .collect();
    assert_eq!(digest(&documents), 0x9683_aab8_b090_0a8f);
}
