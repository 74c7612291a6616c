//! Report back-channel (§2.4): the payload and its airtime.
//!
//! After the TDM round every device sends the leader a compressed report:
//!
//! * its depth, quantised at 0.2 m into 8 bits (0–40 m), and
//! * for every other device, the difference between the reception timestamp
//!   and that device's nominal slot start, bounded by `2·τ_max` (42 ms ≈
//!   1852 samples at 44.1 kHz) and quantised at 2 samples into 10 bits.
//!
//! A CRC-16 closes the payload. [`pack_report`] and [`unpack_report`] write
//! and read those bits; [`report_to_timestamp_table`] turns a report back
//! into the reporting device's timestamp table.
//!
//! The paper protects the payload with a rate-2/3 convolutional code and
//! sends it as binary FSK inside the device's own sub-band of 1–5 kHz, so
//! all devices transmit to the leader at once (~100 bit/s each). No modem
//! runs here: rounds take their timestamps from the protocol engine, and
//! [`report_airtime_s`] models how long that coded transmission lasts, the
//! report phase the latency model charges every round.

use crate::schedule::TdmSchedule;
use crate::timestamps::TimestampTable;
use crate::{ProtocolError, Result};
use serde::{Deserialize, Serialize};
use uw_device::sensors::{decode_depth, encode_depth};
use uw_device::DeviceId;
use uw_dsp::coding::{crc16, push_uint, read_uint};

/// Timestamp quantisation resolution in samples (§2.4).
pub const TIMESTAMP_RESOLUTION_SAMPLES: u64 = 2;

/// Number of bits per relative timestamp field.
pub const TIMESTAMP_BITS: usize = 10;

/// Number of bits for the depth field.
pub const DEPTH_BITS: usize = 8;

/// Number of bits of the closing CRC-16.
pub const CRC_BITS: usize = 16;

/// Audio sampling rate assumed for timestamp quantisation (Hz).
pub const REPORT_SAMPLE_RATE: f64 = 44_100.0;

/// Tail bits that terminate the paper's constraint-length-7 convolutional
/// code, appended to the payload before coding.
pub const CODE_TAIL_BITS: usize = 6;

/// Coded bits the paper's rate-2/3 code sends per [`CODE_RATE_IN_BITS`]
/// payload bits.
pub const CODE_RATE_OUT_BITS: usize = 3;

/// Payload bits per [`CODE_RATE_OUT_BITS`] coded bits.
pub const CODE_RATE_IN_BITS: usize = 2;

/// One device's decoded report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Reporting device.
    pub device: DeviceId,
    /// Quantised depth in metres.
    pub depth_m: f64,
    /// Per-device slot-relative reception offsets in seconds
    /// (`None` where the device was not heard). Index = device ID; the
    /// reporting device's own entry is `None`.
    pub reception_offsets_s: Vec<Option<f64>>,
}

/// Refuses a reporting `device` outside a group of `n_devices ≥ 2`.
fn check_reporter(device: DeviceId, n_devices: usize) -> Result<()> {
    if n_devices < 2 || device >= n_devices {
        return Err(ProtocolError::InvalidParameter {
            reason: format!("device {device} invalid for a group of {n_devices}"),
        });
    }
    Ok(())
}

/// Packs a report into its payload bits.
///
/// `table` supplies the reception timestamps (local clock, seconds) and
/// `sync_local_time` is the local time this device treats as the start of
/// the round (the moment it synchronised). Devices that were not heard are
/// encoded with the all-ones escape value. A reception whose slot offset
/// rounds to a quantum the field cannot hold (outside `0 ..= 1022`: from
/// one sample before its slot start, or 2,045 samples after it) is refused
/// as [`ProtocolError::InvalidParameter`] naming the device and the offset
/// in samples.
pub fn pack_report(
    device: DeviceId,
    n_devices: usize,
    depth_m: f64,
    table: &TimestampTable,
    sync_local_time: f64,
    schedule: &TdmSchedule,
) -> Result<Vec<bool>> {
    check_reporter(device, n_devices)?;
    let mut bits = Vec::new();
    push_uint(&mut bits, encode_depth(depth_m) as u64, DEPTH_BITS);
    let escape = (1u64 << TIMESTAMP_BITS) - 1;
    for other in 0..n_devices {
        if other == device {
            continue;
        }
        let field = match table.reception(other) {
            Some(t_rx) => {
                // Offset of the reception relative to the other device's slot
                // start, measured from this device's sync instant.
                let slot_start = if other == 0 {
                    0.0
                } else {
                    schedule.slot_after_leader(other)?
                };
                let offset_samples = (t_rx - sync_local_time - slot_start) * REPORT_SAMPLE_RATE;
                let q = (offset_samples / TIMESTAMP_RESOLUTION_SAMPLES as f64).round();
                if !(0.0..escape as f64).contains(&q) {
                    return Err(ProtocolError::InvalidParameter {
                        reason: format!(
                            "device {device}'s reception of device {other} lies \
                             {offset_samples:.1} samples from its slot start, outside \
                             the report's 0–{} samples",
                            (escape - 1) * TIMESTAMP_RESOLUTION_SAMPLES
                        ),
                    });
                }
                q as u64
            }
            None => escape,
        };
        push_uint(&mut bits, field, TIMESTAMP_BITS);
    }
    let crc = crc16(&bits);
    push_uint(&mut bits, crc as u64, CRC_BITS);
    Ok(bits)
}

/// Unpacks a report payload back into reception offsets.
pub fn unpack_report(device: DeviceId, n_devices: usize, bits: &[bool]) -> Result<Report> {
    check_reporter(device, n_devices)?;
    let expected = report_payload_bits(n_devices);
    if bits.len() < expected {
        return Err(ProtocolError::DecodeFailure {
            reason: format!(
                "report has {} bits, expected at least {expected}",
                bits.len()
            ),
        });
    }
    let payload = &bits[..expected - CRC_BITS];
    let (crc_field, _) =
        read_uint(bits, expected - CRC_BITS, CRC_BITS).map_err(ProtocolError::from)?;
    if crc16(payload) as u64 != crc_field {
        return Err(ProtocolError::DecodeFailure {
            reason: "CRC mismatch in report".into(),
        });
    }
    let (depth_code, mut offset) =
        read_uint(payload, 0, DEPTH_BITS).map_err(ProtocolError::from)?;
    let escape = (1u64 << TIMESTAMP_BITS) - 1;
    let mut reception_offsets_s = vec![None; n_devices];
    for (other, slot) in reception_offsets_s.iter_mut().enumerate() {
        if other == device {
            continue;
        }
        let (field, next) =
            read_uint(payload, offset, TIMESTAMP_BITS).map_err(ProtocolError::from)?;
        offset = next;
        if field != escape {
            let samples = field * TIMESTAMP_RESOLUTION_SAMPLES;
            *slot = Some(samples as f64 / REPORT_SAMPLE_RATE);
        }
    }
    Ok(Report {
        device,
        depth_m: decode_depth(depth_code as u8),
        reception_offsets_s,
    })
}

/// Number of payload bits in a report for a group of `n_devices`
/// (`10·(N−1) + 8` plus the 16-bit CRC).
pub fn report_payload_bits(n_devices: usize) -> usize {
    DEPTH_BITS + (n_devices - 1) * TIMESTAMP_BITS + CRC_BITS
}

/// Airtime of one report at the paper's ~100 bit/s per-device rate, in
/// seconds (used by the latency analysis: ~0.9–1.2 s for 6–8 devices): the
/// payload and the code's tail, expanded by the rate-2/3 code
/// (`3·(payload + 6)/2` coded bits, rounded down).
pub fn report_airtime_s(n_devices: usize, bits_per_second: f64) -> f64 {
    let coded_bits =
        CODE_RATE_OUT_BITS * (report_payload_bits(n_devices) + CODE_TAIL_BITS) / CODE_RATE_IN_BITS;
    coded_bits as f64 / bits_per_second
}

/// Converts a leader-received report plus the schedule back into absolute
/// local reception times on the reporting device's clock, relative to its
/// sync instant (the inverse of the compression in [`pack_report`]).
pub fn report_to_timestamp_table(
    report: &Report,
    schedule: &TdmSchedule,
) -> Result<TimestampTable> {
    let mut table = TimestampTable::new(report.device);
    if report.device != 0 {
        table.record_own_tx(schedule.slot_after_leader(report.device)?);
    } else {
        table.record_own_tx(0.0);
    }
    for (other, offset) in report.reception_offsets_s.iter().enumerate() {
        if let Some(off) = offset {
            let slot_start = if other == 0 {
                0.0
            } else {
                schedule.slot_after_leader(other)?
            };
            table.record_reception(other, slot_start + off);
        }
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_table(
        device: DeviceId,
        n: usize,
        schedule: &TdmSchedule,
        sync: f64,
    ) -> TimestampTable {
        let mut t = TimestampTable::new(device);
        t.record_own_tx(sync + schedule.slot_after_leader(device).unwrap_or(0.0));
        for other in 0..n {
            if other == device {
                continue;
            }
            let slot = if other == 0 {
                0.0
            } else {
                schedule.slot_after_leader(other).unwrap()
            };
            // Reception a few ms after the slot start (propagation delay).
            t.record_reception(other, sync + slot + 0.012 + other as f64 * 0.001);
        }
        t
    }

    #[test]
    fn payload_size_matches_paper() {
        // N divers: 10(N−1) + 8 bits plus CRC-16.
        assert_eq!(report_payload_bits(6), 8 + 50 + 16);
        assert_eq!(report_payload_bits(8), 8 + 70 + 16);
        // ~1 s airtime at 100 bps for N=6–8, matching §2.4.
        let t6 = report_airtime_s(6, 100.0);
        let t8 = report_airtime_s(8, 100.0);
        assert!(t6 > 0.8 && t6 < 1.4, "t6 {t6}");
        assert!(t8 > t6 && t8 < 1.7, "t8 {t8}");
    }

    #[test]
    fn pack_unpack_roundtrip() {
        // Device 1 of 4 hears the leader at `x` samples after its slot
        // start and device 2 at `2044 − x`, for `x` swept over the whole
        // codable range in non-integer steps; device 3 goes unheard. Every
        // offset comes back within one sample, half the 2-sample quantum.
        let n = 4;
        let schedule = TdmSchedule::paper_defaults(n).unwrap();
        let sync = 3.7;
        let slot2 = schedule.slot_after_leader(2).unwrap();
        let max_samples = 2044.0;
        let mut worst: f64 = 0.0;
        for k in 0..=5_530 {
            let x = (k as f64 * 0.3697).min(max_samples);
            let offsets = [x, max_samples - x];
            let mut table = TimestampTable::new(1);
            table.record_reception(0, sync + offsets[0] / REPORT_SAMPLE_RATE);
            table.record_reception(2, sync + slot2 + offsets[1] / REPORT_SAMPLE_RATE);
            let bits = pack_report(1, n, 7.35, &table, sync, &schedule).unwrap();
            assert_eq!(bits.len(), report_payload_bits(n));
            let report = unpack_report(1, n, &bits).unwrap();
            assert!(
                (report.depth_m - 7.4).abs() < 0.11,
                "depth {}",
                report.depth_m
            );
            assert_eq!(report.reception_offsets_s[1], None);
            assert_eq!(report.reception_offsets_s[3], None);
            for (other, expected) in [(0, offsets[0]), (2, offsets[1])] {
                let got = report.reception_offsets_s[other].unwrap() * REPORT_SAMPLE_RATE;
                let err = (got - expected).abs();
                assert!(err <= 1.0 + 1e-9, "device {other}: {got} vs {expected}");
                worst = worst.max(err);
            }
        }
        assert!(
            worst > 0.99,
            "the sweep should reach half a quantum: {worst}"
        );
    }

    #[test]
    fn pack_refuses_an_offset_its_field_cannot_hold() {
        let n = 3;
        let schedule = TdmSchedule::paper_defaults(n).unwrap();
        let slot2 = schedule.slot_after_leader(2).unwrap();
        let table_at = |samples: f64| {
            let mut table = TimestampTable::new(1);
            table.record_reception(0, 0.010);
            table.record_reception(2, slot2 + samples / REPORT_SAMPLE_RATE);
            table
        };
        // The largest quantum, 1,022 (2,044 samples), still round-trips.
        let bits = pack_report(1, n, 2.0, &table_at(2044.0), 0.0, &schedule).unwrap();
        let got = unpack_report(1, n, &bits).unwrap().reception_offsets_s[2].unwrap();
        assert!((got * REPORT_SAMPLE_RATE - 2044.0).abs() < 1e-6, "{got}");
        // One quantum more, a reception 0.2 s late, or one before its slot
        // start is refused, naming the device and the offset.
        for samples in [2046.0, 0.2 * REPORT_SAMPLE_RATE, -3.0] {
            match pack_report(1, n, 2.0, &table_at(samples), 0.0, &schedule) {
                Err(ProtocolError::InvalidParameter { reason }) => {
                    assert!(reason.contains("device 2"), "{reason}");
                    assert!(
                        reason.contains(&format!("{samples:.1} samples")),
                        "{reason}"
                    );
                }
                other => panic!("{samples} samples packed as {other:?}"),
            }
        }
    }

    #[test]
    fn missing_receptions_survive_roundtrip() {
        let n = 5;
        let schedule = TdmSchedule::paper_defaults(n).unwrap();
        let mut table = example_table(3, n, &schedule, 0.0);
        table.receptions.remove(&1);
        let bits = pack_report(3, n, 2.0, &table, 0.0, &schedule).unwrap();
        let report = unpack_report(3, n, &bits).unwrap();
        assert!(report.reception_offsets_s[1].is_none());
        assert!(report.reception_offsets_s[0].is_some());
    }

    #[test]
    fn corrupted_report_fails_crc() {
        let n = 5;
        let schedule = TdmSchedule::paper_defaults(n).unwrap();
        let table = example_table(1, n, &schedule, 0.0);
        let mut bits = pack_report(1, n, 2.0, &table, 0.0, &schedule).unwrap();
        bits[12] = !bits[12];
        assert!(matches!(
            unpack_report(1, n, &bits),
            Err(ProtocolError::DecodeFailure { .. })
        ));
        assert!(unpack_report(1, n, &bits[..10]).is_err());
    }

    #[test]
    fn report_to_table_reconstruction() {
        let n = 5;
        let schedule = TdmSchedule::paper_defaults(n).unwrap();
        let sync = 0.0;
        let table = example_table(2, n, &schedule, sync);
        let bits = pack_report(2, n, 5.0, &table, sync, &schedule).unwrap();
        let report = unpack_report(2, n, &bits).unwrap();
        let rebuilt = report_to_timestamp_table(&report, &schedule).unwrap();
        assert_eq!(rebuilt.device, 2);
        // Reconstructed reception times match the original table (both are
        // expressed relative to the device's sync instant).
        for other in 0..n {
            if other == 2 {
                continue;
            }
            let original = table.reception(other).unwrap() - sync;
            let rebuilt_t = rebuilt.reception(other).unwrap();
            assert!((original - rebuilt_t).abs() < 1e-4, "device {other}");
        }
        assert!((rebuilt.own_tx.unwrap() - schedule.slot_after_leader(2).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn pack_validates_inputs() {
        let schedule = TdmSchedule::paper_defaults(4).unwrap();
        let table = TimestampTable::new(1);
        assert!(pack_report(5, 4, 1.0, &table, 0.0, &schedule).is_err());
        assert!(pack_report(0, 1, 1.0, &table, 0.0, &schedule).is_err());
        // Unpacking checks the same way, before any arithmetic on the group
        // size: no panic on an empty group, no CRC read as a field.
        let bits = pack_report(1, 4, 1.0, &table, 0.0, &schedule).unwrap();
        for (device, n) in [(0, 0), (0, 1), (4, 4), (5, 4)] {
            assert!(
                matches!(
                    unpack_report(device, n, &bits),
                    Err(ProtocolError::InvalidParameter { .. })
                ),
                "device {device} of {n}"
            );
        }
    }
}
