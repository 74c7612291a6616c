//! TDM response schedule (§2.3).
//!
//! The leader (ID 0) broadcasts a query. Every other device answers in a
//! time slot derived from its ID and measured from the moment it
//! synchronised:
//!
//! * a device that hears the leader responds `Δ₀ + (i−1)·Δ₁` after the
//!   query arrives;
//! * a device that misses the leader but hears device `j`'s response
//!   synchronises to that and responds `(i−j)·Δ₁` later — unless its own
//!   slot has already passed, in which case it waits a full extra cycle,
//!   `(N − j + i)·Δ₁` after `j`.
//!
//! Δ₀ absorbs the receiver's processing plus audio input/output latency;
//! Δ₁ = T_packet + T_guard where the guard interval exceeds twice the
//! maximum propagation time inside the dive group so slots never collide.

use crate::{ProtocolError, Result};
use serde::{Deserialize, Serialize};

/// TDM timing constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TdmSchedule {
    /// Number of devices in the dive group, including the leader.
    pub n_devices: usize,
    /// Δ₀: processing + audio-latency margin before the first response (s).
    pub delta0_s: f64,
    /// T_packet: duration of one response message (s).
    pub packet_s: f64,
    /// T_guard: guard interval accounting for the maximum propagation delay (s).
    pub guard_s: f64,
}

impl TdmSchedule {
    /// The paper's timing constants: Δ₀ = 600 ms, T_packet = 278 ms,
    /// T_guard = 42 ms (so Δ₁ = 320 ms).
    pub fn paper_defaults(n_devices: usize) -> Result<Self> {
        let s = Self {
            n_devices,
            delta0_s: 0.600,
            packet_s: 0.278,
            guard_s: 0.042,
        };
        s.validate()?;
        Ok(s)
    }

    /// Δ₁ = T_packet + T_guard: the slot pitch (s).
    pub fn delta1_s(&self) -> f64 {
        self.packet_s + self.guard_s
    }

    /// Maximum device separation (m) the guard interval supports at the
    /// given sound speed: `T_guard > 2·τ_max`.
    pub fn max_range_m(&self, sound_speed: f64) -> f64 {
        sound_speed * self.guard_s / 2.0
    }

    /// Validates the schedule.
    pub fn validate(&self) -> Result<()> {
        if self.n_devices < 2 {
            return Err(ProtocolError::InvalidParameter {
                reason: format!(
                    "a dive group needs at least 2 devices, got {}",
                    self.n_devices
                ),
            });
        }
        if self.delta0_s <= 0.0 || self.packet_s <= 0.0 || self.guard_s <= 0.0 {
            return Err(ProtocolError::InvalidParameter {
                reason: "all schedule intervals must be positive".into(),
            });
        }
        Ok(())
    }

    /// Response offset (s) after synchronisation for device `id` when it
    /// heard the leader's query directly.
    pub fn slot_after_leader(&self, id: usize) -> Result<f64> {
        self.check_responder(id)?;
        Ok(self.delta0_s + (id as f64 - 1.0) * self.delta1_s())
    }

    /// Response offset (s) after hearing device `heard_id`'s response, for a
    /// device `id` that did not hear the leader. Returns the offset and
    /// whether the device had to defer to the next cycle.
    pub fn slot_after_peer(&self, id: usize, heard_id: usize) -> Result<(f64, bool)> {
        self.check_responder(id)?;
        self.check_responder(heard_id)?;
        if id == heard_id {
            return Err(ProtocolError::InvalidParameter {
                reason: "a device cannot synchronise to its own response".into(),
            });
        }
        if id > heard_id {
            let gap = (id - heard_id) as f64 * self.delta1_s();
            // The paper's condition (i − j)Δ₁ > Δ₀ guarantees the device
            // still has time to transmit in this cycle.
            if gap > self.delta0_s {
                return Ok((gap, false));
            }
        }
        // Slot already passed (or is too close): wait for the next cycle.
        let gap = (self.n_devices as f64 - heard_id as f64 + id as f64) * self.delta1_s();
        Ok((gap, true))
    }

    fn check_responder(&self, id: usize) -> Result<()> {
        if id == 0 {
            return Err(ProtocolError::InvalidParameter {
                reason: "the leader (ID 0) does not occupy a response slot".into(),
            });
        }
        if id >= self.n_devices {
            return Err(ProtocolError::InvalidParameter {
                reason: format!("device id {id} outside a group of {}", self.n_devices),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_2_3() {
        let s = TdmSchedule::paper_defaults(5).unwrap();
        assert!((s.delta1_s() - 0.320).abs() < 1e-12);
        assert!((s.delta0_s - 0.600).abs() < 1e-12);
        // 42 ms guard at ~1500 m/s supports ~32 m separations.
        let max_range = s.max_range_m(1500.0);
        assert!(
            max_range > 30.0 && max_range < 33.0,
            "max range {max_range}"
        );
    }

    #[test]
    fn leader_slots_are_spaced_by_delta1() {
        let s = TdmSchedule::paper_defaults(6).unwrap();
        assert!((s.slot_after_leader(1).unwrap() - 0.600).abs() < 1e-12);
        assert!((s.slot_after_leader(2).unwrap() - 0.920).abs() < 1e-12);
        assert!((s.slot_after_leader(5).unwrap() - (0.600 + 4.0 * 0.320)).abs() < 1e-12);
        for i in 2..6 {
            let gap = s.slot_after_leader(i).unwrap() - s.slot_after_leader(i - 1).unwrap();
            assert!((gap - s.delta1_s()).abs() < 1e-12);
        }
    }

    #[test]
    fn peer_sync_same_cycle_when_enough_time_remains() {
        let s = TdmSchedule::paper_defaults(6).unwrap();
        // Device 5 heard device 2: gap (5-2)·0.32 = 0.96 > Δ₀ = 0.6 — same cycle.
        let (offset, deferred) = s.slot_after_peer(5, 2).unwrap();
        assert!(!deferred);
        assert!((offset - 0.96).abs() < 1e-12);
    }

    #[test]
    fn peer_sync_defers_when_slot_already_passed() {
        let s = TdmSchedule::paper_defaults(6).unwrap();
        // Device 2 heard device 4: its slot has long passed, so it waits
        // (N − j + i)Δ₁ = (6 − 4 + 2)·0.32.
        let (offset, deferred) = s.slot_after_peer(2, 4).unwrap();
        assert!(deferred);
        assert!((offset - 4.0 * 0.320).abs() < 1e-12);
        // Device 3 heard device 2: gap 0.32 < Δ₀ = 0.6, so it also defers.
        let (offset, deferred) = s.slot_after_peer(3, 2).unwrap();
        assert!(deferred);
        assert!((offset - (6.0 - 2.0 + 3.0) * 0.320).abs() < 1e-12);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(TdmSchedule::paper_defaults(1).is_err());
        let s = TdmSchedule::paper_defaults(5).unwrap();
        assert!(s.slot_after_leader(0).is_err());
        assert!(s.slot_after_leader(5).is_err());
        assert!(s.slot_after_peer(2, 2).is_err());
        assert!(s.slot_after_peer(0, 1).is_err());
        assert!(s.slot_after_peer(1, 7).is_err());
        let bad = TdmSchedule { guard_s: 0.0, ..s };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn guard_interval_prevents_collisions() {
        // Two consecutive responders at the maximum supported separation:
        // the second device's packet must start after the first packet has
        // fully arrived everywhere.
        let s = TdmSchedule::paper_defaults(5).unwrap();
        let c = 1500.0;
        let tau_max = s.max_range_m(c) / c;
        // Worst case: device i is τ_max late in its own sync and its packet
        // travels τ_max to a listener; the next slot starts Δ₁ later.
        let packet_end_worst = s.slot_after_leader(1).unwrap() + tau_max + s.packet_s + tau_max;
        let next_slot_start_earliest = s.slot_after_leader(2).unwrap();
        assert!(packet_end_worst <= next_slot_start_earliest + 1e-12);
    }
}
