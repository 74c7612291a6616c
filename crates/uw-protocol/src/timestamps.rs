//! Timestamp tables and pairwise distance computation (§2.3).
//!
//! During a round every device records, on its own local clock, when it
//! transmitted (`Tᶦᵢ`) and when it received each other device's message
//! (`Tᶦⱼ`). Because both terms of each difference are measured on the same
//! clock, the unknown clock offsets cancel in
//!
//! ```text
//! D_ij = c/2 · [(Tᶦⱼ − Tᶦᵢ) − (Tʲⱼ − Tʲᵢ)]        (i < j)
//! ```
//!
//! When one direction of a pair is lost, the distance can still be
//! recovered through a common neighbour `k` heard by both `i` and `j`: the
//! completed two-way distances `D_ik` and `D_jk` let each device relate its
//! clock to `k`'s transmission, which provides the missing offset for a
//! one-way measurement.

use crate::{ProtocolError, Result};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use uw_device::DeviceId;
use uw_localization::matrix::DistanceMatrix;

/// The timestamps one device collected during a round, on its local clock.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TimestampTable {
    /// The device that owns this table.
    pub device: DeviceId,
    /// Local time at which this device transmitted its own response (the
    /// leader records its query transmission time here). `None` if the
    /// device never transmitted.
    pub own_tx: Option<f64>,
    /// Local reception time of each other device's message.
    pub receptions: BTreeMap<DeviceId, f64>,
}

impl TimestampTable {
    /// Creates an empty table for a device.
    pub fn new(device: DeviceId) -> Self {
        Self {
            device,
            own_tx: None,
            receptions: BTreeMap::new(),
        }
    }

    /// Records this device's own transmission time (local clock).
    pub fn record_own_tx(&mut self, local_time_s: f64) {
        self.own_tx = Some(local_time_s);
    }

    /// Records the reception of `from`'s message at `local_time_s`.
    /// Duplicate receptions keep the earliest timestamp (the direct path).
    pub fn record_reception(&mut self, from: DeviceId, local_time_s: f64) {
        self.receptions
            .entry(from)
            .and_modify(|t| {
                if local_time_s < *t {
                    *t = local_time_s;
                }
            })
            .or_insert(local_time_s);
    }

    /// Local reception time of `from`'s message, if heard.
    pub fn reception(&self, from: DeviceId) -> Option<f64> {
        self.receptions.get(&from).copied()
    }

    /// Number of devices heard.
    pub fn heard_count(&self) -> usize {
        self.receptions.len()
    }
}

/// Computes the two-way pairwise distance between devices `i` and `j` from
/// their timestamp tables. Requires both directions to have been heard and
/// both devices to have transmitted.
pub fn pairwise_distance(
    table_i: &TimestampTable,
    table_j: &TimestampTable,
    sound_speed: f64,
) -> Result<f64> {
    if sound_speed <= 0.0 {
        return Err(ProtocolError::InvalidParameter {
            reason: "sound speed must be positive".into(),
        });
    }
    let (i, j) = (table_i.device, table_j.device);
    let t_i_j = table_i
        .reception(j)
        .ok_or_else(|| ProtocolError::RoundFailure {
            reason: format!("device {i} never heard device {j}"),
        })?;
    let t_j_i = table_j
        .reception(i)
        .ok_or_else(|| ProtocolError::RoundFailure {
            reason: format!("device {j} never heard device {i}"),
        })?;
    let t_i_i = table_i.own_tx.ok_or_else(|| ProtocolError::RoundFailure {
        reason: format!("device {i} never transmitted"),
    })?;
    let t_j_j = table_j.own_tx.ok_or_else(|| ProtocolError::RoundFailure {
        reason: format!("device {j} never transmitted"),
    })?;
    // The formula assumes i transmitted before j heard it and vice versa;
    // written symmetrically it is ((T_i_j − T_i_i) − (T_j_j − T_j_i)) / 2,
    // which is the one-way propagation time.
    let tau = ((t_i_j - t_i_i) - (t_j_j - t_j_i)) / 2.0;
    if tau < 0.0 {
        return Err(ProtocolError::RoundFailure {
            reason: format!("negative propagation time between devices {i} and {j}"),
        });
    }
    Ok(sound_speed * tau)
}

/// Recovers the distance between `i` and `j` when only the direction
/// `j → i` was heard (device `i` has `Tᶦⱼ` but `j` never heard `i`), using
/// a common neighbour `k` whose two-way distances to both are known.
///
/// Derivation: device `i` knows when `k`'s message arrived (`Tᶦₖ`) and the
/// distance `D_ik`, so `k`'s transmission happened at local time
/// `Tᶦₖ − D_ik/c`. Likewise device `j` places `k`'s transmission at
/// `Tʲₖ − D_jk/c`. Those are the *same instant*, which ties the two clocks
/// together; applying the offset to the one-way reception `Tᶦⱼ` yields the
/// propagation time from `j` to `i`.
pub fn recover_one_way_distance(
    table_i: &TimestampTable,
    table_j: &TimestampTable,
    table_k_id: DeviceId,
    d_ik: f64,
    d_jk: f64,
    sound_speed: f64,
) -> Result<f64> {
    if sound_speed <= 0.0 {
        return Err(ProtocolError::InvalidParameter {
            reason: "sound speed must be positive".into(),
        });
    }
    let (i, j) = (table_i.device, table_j.device);
    let t_i_j = table_i
        .reception(j)
        .ok_or_else(|| ProtocolError::RoundFailure {
            reason: format!("device {i} never heard device {j}; nothing to recover"),
        })?;
    let t_i_k = table_i
        .reception(table_k_id)
        .ok_or_else(|| ProtocolError::RoundFailure {
            reason: format!("device {i} never heard the common neighbour {table_k_id}"),
        })?;
    let t_j_k = table_j
        .reception(table_k_id)
        .ok_or_else(|| ProtocolError::RoundFailure {
            reason: format!("device {j} never heard the common neighbour {table_k_id}"),
        })?;
    let t_j_j = table_j.own_tx.ok_or_else(|| ProtocolError::RoundFailure {
        reason: format!("device {j} never transmitted"),
    })?;
    // k's transmission instant on each local clock.
    let k_tx_on_i = t_i_k - d_ik / sound_speed;
    let k_tx_on_j = t_j_k - d_jk / sound_speed;
    // Clock offset (i − j), so a time on j's clock maps to i's clock by
    // adding this offset.
    let offset_i_minus_j = k_tx_on_i - k_tx_on_j;
    let j_tx_on_i = t_j_j + offset_i_minus_j;
    let tau = t_i_j - j_tx_on_i;
    if tau < 0.0 {
        return Err(ProtocolError::RoundFailure {
            reason: format!("recovered negative propagation time between devices {i} and {j}"),
        });
    }
    Ok(sound_speed * tau)
}

/// Builds the full pairwise distance matrix from all devices' timestamp
/// tables: two-way distances first, then one-way recoveries through common
/// neighbours where a direction is missing. Pairs that cannot be computed
/// are left missing in the matrix.
pub fn build_distance_matrix(
    tables: &[TimestampTable],
    sound_speed: f64,
) -> Result<DistanceMatrix> {
    let n = tables.len();
    if n < 2 {
        return Err(ProtocolError::InvalidParameter {
            reason: format!("need at least two timestamp tables, got {n}"),
        });
    }
    for (idx, t) in tables.iter().enumerate() {
        if t.device != idx {
            return Err(ProtocolError::InvalidParameter {
                reason: format!("table at index {idx} belongs to device {}", t.device),
            });
        }
    }
    let mut matrix = DistanceMatrix::new(n);

    // Pass 1: two-way distances.
    for i in 0..n {
        for j in (i + 1)..n {
            if let Ok(d) = pairwise_distance(&tables[i], &tables[j], sound_speed) {
                matrix
                    .set(i, j, d)
                    .map_err(|e| ProtocolError::RoundFailure {
                        reason: e.to_string(),
                    })?;
            }
        }
    }

    // Pass 2: one-way recovery through a common neighbour with known
    // two-way distances to both endpoints.
    for i in 0..n {
        for j in (i + 1)..n {
            if matrix.has_link(i, j) {
                continue;
            }
            let heard_by_i = tables[i].reception(j).is_some();
            let heard_by_j = tables[j].reception(i).is_some();
            // Identify which direction survived.
            let (rx, tx) = if heard_by_i {
                (i, j)
            } else if heard_by_j {
                (j, i)
            } else {
                continue;
            };
            let recovered = (0..n).find_map(|k| {
                if k == i || k == j {
                    return None;
                }
                let d_rx_k = matrix
                    .get(rx.min(k), rx.max(k))
                    .filter(|_| matrix.has_link(rx, k))?;
                let d_tx_k = matrix
                    .get(tx.min(k), tx.max(k))
                    .filter(|_| matrix.has_link(tx, k))?;
                recover_one_way_distance(&tables[rx], &tables[tx], k, d_rx_k, d_tx_k, sound_speed)
                    .ok()
            });
            if let Some(d) = recovered {
                matrix
                    .set(i, j, d)
                    .map_err(|e| ProtocolError::RoundFailure {
                        reason: e.to_string(),
                    })?;
            }
        }
    }

    Ok(matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uw_device::clock::LocalClock;

    /// Builds consistent timestamp tables for devices at the given 1D
    /// positions (metres along a line), with arbitrary clock offsets and a
    /// simple response schedule. `drop` lists (rx, tx) directions to erase.
    fn synthetic_tables(
        positions: &[f64],
        clocks: &[LocalClock],
        sound_speed: f64,
        drop: &[(usize, usize)],
    ) -> Vec<TimestampTable> {
        let n = positions.len();
        // True transmit times: device i transmits at t = i seconds (true time).
        let tx_true: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut tables: Vec<TimestampTable> = (0..n).map(TimestampTable::new).collect();
        for i in 0..n {
            tables[i].record_own_tx(clocks[i].local_from_true(tx_true[i]));
            for j in 0..n {
                if i == j || drop.contains(&(i, j)) {
                    continue;
                }
                let tau = (positions[i] - positions[j]).abs() / sound_speed;
                let arrival_true = tx_true[j] + tau;
                tables[i].record_reception(j, clocks[i].local_from_true(arrival_true));
            }
        }
        tables
    }

    #[test]
    fn table_records_earliest_reception() {
        let mut t = TimestampTable::new(2);
        t.record_reception(1, 5.0);
        t.record_reception(1, 4.5);
        t.record_reception(1, 6.0);
        assert_eq!(t.reception(1), Some(4.5));
        assert_eq!(t.reception(3), None);
        assert_eq!(t.heard_count(), 1);
        t.record_own_tx(1.0);
        assert_eq!(t.own_tx, Some(1.0));
    }

    #[test]
    fn two_way_distance_cancels_clock_offsets() {
        let c = 1500.0;
        let positions = vec![0.0, 15.0, 32.0];
        let clocks = vec![
            LocalClock::new(0.0, 123.4),
            LocalClock::new(0.0, -55.0),
            LocalClock::new(0.0, 9_999.0),
        ];
        let tables = synthetic_tables(&positions, &clocks, c, &[]);
        let d01 = pairwise_distance(&tables[0], &tables[1], c).unwrap();
        let d02 = pairwise_distance(&tables[0], &tables[2], c).unwrap();
        let d12 = pairwise_distance(&tables[1], &tables[2], c).unwrap();
        assert!((d01 - 15.0).abs() < 1e-9, "d01 {d01}");
        assert!((d02 - 32.0).abs() < 1e-9, "d02 {d02}");
        assert!((d12 - 17.0).abs() < 1e-9, "d12 {d12}");
    }

    #[test]
    fn clock_skew_causes_only_small_error() {
        // ±80 ppm skew over the few seconds of a round: centimetre-level.
        let c = 1500.0;
        let positions = vec![0.0, 20.0];
        let clocks = vec![LocalClock::new(80.0, 3.0), LocalClock::new(-80.0, 77.0)];
        let tables = synthetic_tables(&positions, &clocks, c, &[]);
        let d = pairwise_distance(&tables[0], &tables[1], c).unwrap();
        assert!((d - 20.0).abs() < 0.3, "d {d}");
    }

    #[test]
    fn missing_direction_is_an_error_for_two_way() {
        let c = 1500.0;
        let positions = vec![0.0, 10.0];
        let clocks = vec![LocalClock::ideal(); 2];
        let tables = synthetic_tables(&positions, &clocks, c, &[(0, 1)]);
        assert!(pairwise_distance(&tables[0], &tables[1], c).is_err());
        assert!(pairwise_distance(&tables[1], &tables[0], c).is_err());
    }

    #[test]
    fn one_way_recovery_through_common_neighbour() {
        let c = 1500.0;
        let positions = vec![0.0, 12.0, 25.0];
        let clocks = vec![
            LocalClock::new(0.0, 11.0),
            LocalClock::new(0.0, -3.0),
            LocalClock::new(0.0, 400.0),
        ];
        // Device 1 never hears device 0 (direction 1←0 dropped), but device
        // 0 hears device 1, and both hear device 2.
        let tables = synthetic_tables(&positions, &clocks, c, &[(1, 0)]);
        let d02 = pairwise_distance(&tables[0], &tables[2], c).unwrap();
        let d12 = pairwise_distance(&tables[1], &tables[2], c).unwrap();
        let recovered = recover_one_way_distance(&tables[0], &tables[1], 2, d02, d12, c).unwrap();
        assert!((recovered - 12.0).abs() < 1e-6, "recovered {recovered}");
    }

    #[test]
    fn build_matrix_full_and_with_losses() {
        let c = 1500.0;
        let positions = vec![0.0, 10.0, 22.0, 31.0];
        let clocks = vec![
            LocalClock::new(0.0, 1.0),
            LocalClock::new(0.0, 2.0),
            LocalClock::new(0.0, 3.0),
            LocalClock::new(0.0, 4.0),
        ];
        // Full tables.
        let tables = synthetic_tables(&positions, &clocks, c, &[]);
        let matrix = build_distance_matrix(&tables, c).unwrap();
        assert_eq!(matrix.link_count(), 6);
        assert!((matrix.get(0, 3).unwrap() - 31.0).abs() < 1e-9);

        // Drop one direction (2 never hears 3): recovered through a common
        // neighbour, so the link is still present.
        let tables = synthetic_tables(&positions, &clocks, c, &[(2, 3)]);
        let matrix = build_distance_matrix(&tables, c).unwrap();
        assert_eq!(matrix.link_count(), 6);
        assert!((matrix.get(2, 3).unwrap() - 9.0).abs() < 1e-6);

        // Drop both directions: the link is genuinely missing.
        let tables = synthetic_tables(&positions, &clocks, c, &[(2, 3), (3, 2)]);
        let matrix = build_distance_matrix(&tables, c).unwrap();
        assert_eq!(matrix.link_count(), 5);
        assert!(!matrix.has_link(2, 3));
    }

    #[test]
    fn build_matrix_validates_inputs() {
        let c = 1500.0;
        assert!(build_distance_matrix(&[TimestampTable::new(0)], c).is_err());
        let bad = vec![TimestampTable::new(0), TimestampTable::new(3)];
        assert!(build_distance_matrix(&bad, c).is_err());
    }

    #[test]
    fn negative_propagation_time_is_rejected() {
        let mut a = TimestampTable::new(0);
        let mut b = TimestampTable::new(1);
        a.record_own_tx(0.0);
        b.record_own_tx(0.5);
        // Inconsistent timestamps that would imply a negative propagation
        // time: device 0 hears device 1 only 0.1 s after its own query even
        // though device 1 waited 0.4 s after hearing device 0.
        a.record_reception(1, 0.1);
        b.record_reception(0, 0.1);
        assert!(pairwise_distance(&a, &b, 1500.0).is_err());
        assert!(pairwise_distance(&a, &b, -5.0).is_err());
    }
}
