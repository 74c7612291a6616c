//! Sample values of the two binary formats — `uwlz` serving frames and
//! `uwCM` campaign manifests — shared by the byte pins
//! (`format_digests.rs`, which also pins the JSON of reports over
//! [`report`]) and the fuzz harness (`codec_fuzz.rs`). Between them the
//! samples reach every message tag and every one-byte code each format
//! defines.

use uwgps::audio::{CampaignManifest, SegmentRange};
use uwgps::core::config::{Fidelity, NumericPath};
use uwgps::core::prelude::EnvironmentKind;
use uwgps::eval::report::ErrorSummary;
use uwgps::eval::{CellReport, LinkProfile, MobilityProfile, RoundSummary};
use uwgps::serve::wire::{JobSpec, WireMessage, MAX_PAYLOAD, WIRE_VERSION};
use uwgps::serve::{Priority, RejectReason};

/// A cell report whose error summary holds NaN and −0.0 and whose CDF
/// holds +∞.
pub fn report(id: &str) -> CellReport {
    CellReport {
        id: id.into(),
        environment: "dock".into(),
        n_devices: 5,
        condition: "occluded".into(),
        mobility: "swim".into(),
        numeric_path: "q15".into(),
        source: "sim".into(),
        seed: 11,
        rounds: 4,
        rounds_completed: 3,
        rounds_failed: 1,
        error_2d: ErrorSummary {
            count: 12,
            median: 0.875,
            p90: 2.5,
            p99: 3.25,
            mean: -0.0,
            max: f64::NAN,
        },
        error_cdf: vec![(0.5, 0.25), (1.5, 0.75), (f64::INFINITY, 1.0)],
        ranging_median_m: 0.125,
        flip_rate: 0.75,
        mean_dropped_links: 0.5,
        churn_excluded: 2,
        latency_acoustic_s: 1.5,
        latency_total_s: 2.25,
    }
}

/// Six `Submit`s that between them carry every environment, condition,
/// mobility, numeric-path, fidelity and priority code, with and without
/// the optional deadline, fault spec and recording name.
fn submits() -> Vec<WireMessage> {
    let conditions = [
        LinkProfile::Clear,
        LinkProfile::Occluded { bias_m: 1.75 },
        LinkProfile::MissingLink,
        LinkProfile::DeviceChurn { after_round: 3 },
    ];
    let mobilities = [
        MobilityProfile::Static,
        MobilityProfile::RopeOscillation { speed_cm_s: 4.5 },
        MobilityProfile::Swimmer { speed_cm_s: 25.0 },
        MobilityProfile::CurrentDrift { speed_cm_s: 60.0 },
    ];
    let paths = [NumericPath::F64, NumericPath::F32, NumericPath::Q15];
    let fidelities = [Fidelity::Statistical, Fidelity::Hybrid];
    let priorities = [Priority::Live, Priority::Replay];
    EnvironmentKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &environment)| WireMessage::Submit {
            tag: 1000 + i as u64,
            tenant: format!("tenant-{i}"),
            priority: priorities[(i / 2) % 2],
            deadline_ms: (i % 2 == 0).then_some(250 * i as u64),
            spec: JobSpec {
                environment,
                n_devices: 3 + i as u32,
                condition: conditions[i % 4],
                mobility: mobilities[(i + 1) % 4],
                numeric_path: paths[i % 3],
                fidelity: fidelities[i % 2],
                seed: u64::MAX - i as u64,
                rounds: 2 + i as u32,
                faults: (i % 3 == 1).then(|| "seed=7;loss:2..5:*:0.3".to_string()),
                recording: (i == 4).then(|| "campaign-π".to_string()),
            },
        })
        .collect()
}

/// One message of every `uwlz` tag, plus the `Submit`s of [`submits`]
/// and a `Rejected` for every reject reason.
pub fn messages() -> Vec<WireMessage> {
    let mut msgs = vec![
        WireMessage::Hello {
            client: "fuzz".into(),
        },
        WireMessage::HelloAck {
            version: WIRE_VERSION,
            max_payload: MAX_PAYLOAD,
        },
        WireMessage::Cancel { tag: 42 },
        WireMessage::Goodbye,
        WireMessage::Started {
            tag: 7,
            cell_id: "dock/5dev/clear/static/s1".into(),
            rounds: 12,
        },
        WireMessage::Round {
            tag: 7,
            cell_id: "dock/5dev/clear/static/s1".into(),
            summary: RoundSummary {
                round: 3,
                ok: false,
                median_error_2d_m: f64::NAN,
                dropped_links: 1,
                flipping_correct: true,
            },
        },
        WireMessage::Finalized {
            tag: 9,
            report: report("dock/5dev/occluded/swim/q15/s11"),
        },
        WireMessage::Cancelled {
            tag: 10,
            partial: report(""),
        },
        WireMessage::Failed {
            tag: 11,
            cell_id: "pool/3dev/clear/static/s2".into(),
            reason: "too few audible devices".into(),
        },
        WireMessage::ProtocolError {
            message: "unexpected tag".into(),
        },
    ];
    msgs.extend(submits());
    let reasons = [
        RejectReason::AdmissionDenied {
            tenant: "tenant-a".into(),
        },
        RejectReason::DeadlineExpired { late_ms: 17 },
        RejectReason::Overloaded {
            queued: 64,
            capacity: 64,
        },
    ];
    msgs.extend(reasons.into_iter().map(|reason| WireMessage::Rejected {
        tag: 3,
        cell_id: "dock/5dev/clear/static/s1".into(),
        tenant: "tenant-b".into(),
        reason,
    }));
    msgs
}

/// Manifests of every size class: a full 5-device, 3-round segment
/// table, the same without segments, and a minimal 2-device manifest.
pub fn manifests() -> Vec<CampaignManifest> {
    let full = CampaignManifest {
        recording: "campaign.wav".into(),
        environment: "dock".into(),
        condition: "clear".into(),
        mobility: "static".into(),
        numeric_path: "f64".into(),
        seed: 1,
        rounds: 3,
        sample_rate: 44_100,
        n_devices: 5,
        skew_ppm: vec![0.0, 200.0, -200.0, 120.0, -160.0],
        segments: (0..3)
            .flat_map(|r| {
                (1u32..5).map(move |d| SegmentRange {
                    round: r,
                    device: d,
                    start: (r as u64 * 4 + d as u64) * 20_000,
                    len: 14_112,
                })
            })
            .collect(),
    };
    let mut no_segments = full.clone();
    no_segments.segments.clear();
    let minimal = CampaignManifest {
        recording: String::new(),
        environment: "dock".into(),
        condition: "clear".into(),
        mobility: "static".into(),
        numeric_path: "q15".into(),
        seed: 0,
        rounds: 1,
        sample_rate: 44_100,
        n_devices: 2,
        skew_ppm: vec![0.0, 42.5],
        segments: vec![SegmentRange {
            round: 0,
            device: 1,
            start: 0,
            len: 1,
        }],
    };
    vec![full, no_segments, minimal]
}
