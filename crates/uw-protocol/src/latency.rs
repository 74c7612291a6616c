//! Protocol latency model (§2.3 latency analysis and §3.2 round-trip
//! measurements).
//!
//! With every diver in the leader's range, the acoustic phase of a round
//! lasts `T_round = Δ₀ + (N−1)·Δ₁`; when some divers can only synchronise
//! to peers the worst case doubles the slot term. The report phase adds the
//! airtime of the longest report ([`report_airtime_s`]): all devices report
//! to the leader at once, so the longest report sets the phase.

use crate::comm::report_airtime_s;
use crate::schedule::TdmSchedule;
use crate::{ProtocolError, Result};
use serde::{Deserialize, Serialize};

/// Latency breakdown of one localization round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundLatency {
    /// Number of devices.
    pub n_devices: usize,
    /// Acoustic TDM phase duration (s).
    pub acoustic_s: f64,
    /// Report phase duration (s).
    pub report_s: f64,
}

impl RoundLatency {
    /// Total round latency (s).
    pub fn total_s(&self) -> f64 {
        self.acoustic_s + self.report_s
    }
}

/// Acoustic round-trip time when all devices are in the leader's range:
/// `Δ₀ + (N−1)·Δ₁`.
pub fn round_trip_all_in_range(schedule: &TdmSchedule) -> f64 {
    schedule.delta0_s + (schedule.n_devices as f64 - 1.0) * schedule.delta1_s()
}

/// Worst-case acoustic round-trip time when some devices are out of the
/// leader's range and must defer by a full cycle: `Δ₀ + 2(N−1)·Δ₁`.
pub fn round_trip_worst_case(schedule: &TdmSchedule) -> f64 {
    schedule.delta0_s + 2.0 * (schedule.n_devices as f64 - 1.0) * schedule.delta1_s()
}

/// Full latency model for a round, including the report phase at the given
/// per-device bit rate (the paper uses ~100 bit/s).
pub fn round_latency(n_devices: usize, report_bps: f64) -> Result<RoundLatency> {
    if report_bps <= 0.0 {
        return Err(ProtocolError::InvalidParameter {
            reason: "report bit rate must be positive".into(),
        });
    }
    let schedule = TdmSchedule::paper_defaults(n_devices)?;
    Ok(RoundLatency {
        n_devices,
        acoustic_s: round_trip_all_in_range(&schedule),
        report_s: report_airtime_s(n_devices, report_bps),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acoustic round-trip times the paper measured for 3–7 devices
    /// (seconds).
    const PAPER_MEASURED_RTT_S: [(usize, f64); 5] =
        [(3, 1.2), (4, 1.6), (5, 1.9), (6, 2.2), (7, 2.5)];

    #[test]
    fn model_matches_paper_measurements() {
        // The measured round times in §3.2 (1.2, 1.6, 1.9, 2.2, 2.5 s for
        // N = 3..7) should match Δ₀ + (N−1)Δ₁ to within ~0.1 s.
        for (n, measured) in PAPER_MEASURED_RTT_S {
            let schedule = TdmSchedule::paper_defaults(n).unwrap();
            let model = round_trip_all_in_range(&schedule);
            assert!(
                (model - measured).abs() < 0.1,
                "N={n}: model {model} vs measured {measured}"
            );
        }
    }

    #[test]
    fn paper_quoted_examples() {
        // §1: protocol latency of 1.56 s and 1.88 s for 4- and 5-device
        // networks.
        let s4 = TdmSchedule::paper_defaults(4).unwrap();
        let s5 = TdmSchedule::paper_defaults(5).unwrap();
        assert!((round_trip_all_in_range(&s4) - 1.56).abs() < 1e-9);
        assert!((round_trip_all_in_range(&s5) - 1.88).abs() < 1e-9);
    }

    #[test]
    fn worst_case_doubles_the_slot_term() {
        let s = TdmSchedule::paper_defaults(6).unwrap();
        let normal = round_trip_all_in_range(&s);
        let worst = round_trip_worst_case(&s);
        assert!((worst - normal - 5.0 * 0.32).abs() < 1e-9);
    }

    #[test]
    fn latency_grows_linearly_with_devices() {
        let mut prev = 0.0;
        for n in 3..=8 {
            let lat = round_latency(n, 100.0).unwrap();
            assert!(lat.total_s() > prev);
            prev = lat.total_s();
            assert_eq!(lat.n_devices, n);
            // Report time is around a second, acoustic phase 1–3 s.
            assert!(lat.report_s > 0.5 && lat.report_s < 2.0);
            assert!(lat.acoustic_s > 1.0 && lat.acoustic_s < 3.5);
        }
        assert!(round_latency(5, 0.0).is_err());
    }
}
