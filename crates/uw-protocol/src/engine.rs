//! Event-driven simulation of one protocol round (§2.3).
//!
//! [`ProtocolEngine::run_round`] plays out a complete TDM round over a set
//! of devices with independent local clocks:
//!
//! 1. the leader transmits its query at true time 0;
//! 2. every device that hears the query synchronises to the arrival and
//!    schedules its response in its ID slot;
//! 3. devices that miss the query synchronise to the first response they do
//!    hear (same-cycle if their slot has not passed, otherwise deferred one
//!    cycle), exactly as Fig. 9 describes;
//! 4. every reception is timestamped on the receiving device's local clock;
//! 5. the collected timestamp tables are turned into a pairwise distance
//!    matrix with the clock-offset-cancelling formula of
//!    [`crate::timestamps`].
//!
//! The physical layer is abstracted by the [`LinkObserver`] trait: given a
//! transmitter, a receiver and the true propagation delay it returns the
//! measured timestamp error (or `None` for a lost packet). Implementations
//! range from an ideal channel to the full waveform simulation in
//! `uw-core`.

use crate::schedule::TdmSchedule;
use crate::timestamps::{build_distance_matrix, TimestampTable};
use crate::{ProtocolError, Result};
use serde::{Deserialize, Serialize};
use uw_channel::geometry::Point3;
use uw_device::clock::LocalClock;
use uw_device::DeviceId;
use uw_localization::matrix::DistanceMatrix;

/// Physical-layer abstraction: decides whether a transmission from `tx` is
/// received by `rx` and, if so, with what timestamping error (seconds added
/// to the true arrival time; may be negative).
pub trait LinkObserver {
    /// Returns `Some(error_s)` when the message is received, `None` when it
    /// is lost.
    fn observe(&mut self, tx: DeviceId, rx: DeviceId, true_delay_s: f64) -> Option<f64>;
}

/// An ideal channel: every message is received with zero timestamp error.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealObserver;

impl LinkObserver for IdealObserver {
    fn observe(&mut self, _tx: DeviceId, _rx: DeviceId, _true_delay_s: f64) -> Option<f64> {
        Some(0.0)
    }
}

/// Adapter turning a closure into a [`LinkObserver`].
pub struct FnObserver<F: FnMut(DeviceId, DeviceId, f64) -> Option<f64>>(pub F);

impl<F: FnMut(DeviceId, DeviceId, f64) -> Option<f64>> LinkObserver for FnObserver<F> {
    fn observe(&mut self, tx: DeviceId, rx: DeviceId, true_delay_s: f64) -> Option<f64> {
        (self.0)(tx, rx, true_delay_s)
    }
}

/// State of one device entering a protocol round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceRoundState {
    /// Device ID (0 = leader).
    pub id: DeviceId,
    /// Ground-truth position at the start of the round.
    pub position: Point3,
    /// Local clock.
    pub clock: LocalClock,
}

/// How a device obtained its slot synchronisation during the round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncSource {
    /// Heard the leader's query directly.
    Leader,
    /// Synchronised to a peer's response (carries the peer ID).
    Peer(DeviceId),
    /// Never synchronised and therefore never transmitted.
    None,
}

/// Result of one protocol round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundOutcome {
    /// Per-device timestamp tables (index = device ID).
    pub tables: Vec<TimestampTable>,
    /// Pairwise distance matrix computed from the tables.
    pub distances: DistanceMatrix,
    /// How each device synchronised.
    pub sync_sources: Vec<SyncSource>,
    /// True transmission time of each device (`None` if it never
    /// transmitted). The leader's query is at 0.
    pub tx_times: Vec<Option<f64>>,
    /// Wall-clock duration of the acoustic phase of the round in seconds
    /// (from the query to the end of the last response packet).
    pub acoustic_duration_s: f64,
}

/// Simulates protocol rounds for a fixed schedule and sound speed.
#[derive(Debug, Clone)]
pub struct ProtocolEngine {
    schedule: TdmSchedule,
    sound_speed: f64,
}

impl ProtocolEngine {
    /// Creates an engine. `sound_speed` is in m/s.
    pub fn new(schedule: TdmSchedule, sound_speed: f64) -> Result<Self> {
        schedule.validate()?;
        if !(1300.0..=1700.0).contains(&sound_speed) {
            return Err(ProtocolError::InvalidParameter {
                reason: format!("sound speed {sound_speed} m/s is not an underwater value"),
            });
        }
        Ok(Self {
            schedule,
            sound_speed,
        })
    }

    /// The schedule in use.
    pub fn schedule(&self) -> &TdmSchedule {
        &self.schedule
    }

    /// The sound speed in use (m/s).
    pub fn sound_speed(&self) -> f64 {
        self.sound_speed
    }

    /// Runs one round over the given devices. `devices[i].id` must equal `i`
    /// and device 0 is the leader.
    pub fn run_round(
        &self,
        devices: &[DeviceRoundState],
        observer: &mut dyn LinkObserver,
    ) -> Result<RoundOutcome> {
        let n = devices.len();
        if n != self.schedule.n_devices {
            return Err(ProtocolError::InvalidParameter {
                reason: format!(
                    "{n} devices supplied for a schedule of {}",
                    self.schedule.n_devices
                ),
            });
        }
        for (i, d) in devices.iter().enumerate() {
            if d.id != i {
                return Err(ProtocolError::InvalidParameter {
                    reason: format!("device at index {i} has id {}", d.id),
                });
            }
        }

        let mut tables: Vec<TimestampTable> = (0..n).map(TimestampTable::new).collect();
        let mut sync_sources = vec![SyncSource::None; n];
        let mut tx_times: Vec<Option<f64>> = vec![None; n];
        // Scheduled local transmission time for devices that have synced but
        // not yet transmitted.
        let mut scheduled_local_tx: Vec<Option<f64>> = vec![None; n];

        // --- Leader query at true time 0. ---
        let leader_local_tx = devices[0].clock.local_from_true(0.0);
        tables[0].record_own_tx(leader_local_tx);
        tx_times[0] = Some(0.0);
        let mut last_packet_end = self.schedule.packet_s;

        for i in 1..n {
            let tau = devices[0].position.distance(&devices[i].position) / self.sound_speed;
            if let Some(err) = observer.observe(0, i, tau) {
                let arrival_local = devices[i].clock.local_from_true(tau) + err;
                tables[i].record_reception(0, arrival_local);
                sync_sources[i] = SyncSource::Leader;
                let slot = self.schedule.slot_after_leader(i)?;
                scheduled_local_tx[i] = Some(arrival_local + slot);
            }
        }

        // --- Responses, processed in order of true transmission time. ---
        let mut transmitted = vec![false; n];
        transmitted[0] = true;
        loop {
            // Pick the pending synced device with the earliest true tx time.
            let mut next: Option<(DeviceId, f64)> = None;
            for i in 1..n {
                if transmitted[i] {
                    continue;
                }
                if let Some(local_tx) = scheduled_local_tx[i] {
                    let true_tx = devices[i].clock.true_from_local(local_tx);
                    if next.is_none_or(|(_, t)| true_tx < t) {
                        next = Some((i, true_tx));
                    }
                }
            }
            let Some((sender, true_tx)) = next else { break };
            transmitted[sender] = true;
            tx_times[sender] = Some(true_tx);
            tables[sender].record_own_tx(scheduled_local_tx[sender].expect("scheduled"));
            last_packet_end = last_packet_end.max(true_tx + self.schedule.packet_s);

            for rx in 0..n {
                if rx == sender {
                    continue;
                }
                let tau =
                    devices[sender].position.distance(&devices[rx].position) / self.sound_speed;
                let Some(err) = observer.observe(sender, rx, tau) else {
                    continue;
                };
                let arrival_true = true_tx + tau;
                let arrival_local = devices[rx].clock.local_from_true(arrival_true) + err;
                tables[rx].record_reception(sender, arrival_local);
                // A device that has not synced yet latches onto the first
                // response it hears.
                if rx != 0 && !transmitted[rx] && scheduled_local_tx[rx].is_none() {
                    let (offset, _deferred) = self.schedule.slot_after_peer(rx, sender)?;
                    scheduled_local_tx[rx] = Some(arrival_local + offset);
                    sync_sources[rx] = SyncSource::Peer(sender);
                }
            }
        }

        let distances = build_distance_matrix(&tables, self.sound_speed)?;
        Ok(RoundOutcome {
            tables,
            distances,
            sync_sources,
            tx_times,
            acoustic_duration_s: last_packet_end,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn devices_at(positions: &[Point3]) -> Vec<DeviceRoundState> {
        positions
            .iter()
            .enumerate()
            .map(|(i, &p)| DeviceRoundState {
                id: i,
                position: p,
                clock: LocalClock::new((i as f64) * 13.0 - 26.0, 100.0 * i as f64 + 7.0),
            })
            .collect()
    }

    fn square_deployment() -> Vec<Point3> {
        vec![
            Point3::new(0.0, 0.0, 1.5),
            Point3::new(12.0, 0.0, 2.0),
            Point3::new(12.0, 9.0, 3.0),
            Point3::new(0.0, 9.0, 2.5),
            Point3::new(6.0, 4.0, 1.0),
        ]
    }

    fn engine(n: usize) -> ProtocolEngine {
        ProtocolEngine::new(TdmSchedule::paper_defaults(n).unwrap(), 1500.0).unwrap()
    }

    #[test]
    fn ideal_round_recovers_exact_distances() {
        let positions = square_deployment();
        let devices = devices_at(&positions);
        let outcome = engine(5).run_round(&devices, &mut IdealObserver).unwrap();
        assert_eq!(outcome.distances.link_count(), 10);
        for i in 0..5 {
            for j in (i + 1)..5 {
                let truth = positions[i].distance(&positions[j]);
                let est = outcome.distances.get(i, j).unwrap();
                // The devices carry ±26 ppm clock skews, which contribute a
                // few centimetres over the ~2 s round.
                assert!((est - truth).abs() < 0.15, "({i},{j}): {est} vs {truth}");
            }
        }
        // Everyone synced to the leader and transmitted.
        for i in 1..5 {
            assert_eq!(outcome.sync_sources[i], SyncSource::Leader);
            assert!(outcome.tx_times[i].is_some());
        }
        assert_eq!(outcome.sync_sources[0], SyncSource::None);
    }

    #[test]
    fn responses_follow_the_tdm_order_without_collisions() {
        let devices = devices_at(&square_deployment());
        let outcome = engine(5).run_round(&devices, &mut IdealObserver).unwrap();
        let times: Vec<f64> = (1..5).map(|i| outcome.tx_times[i].unwrap()).collect();
        for w in times.windows(2) {
            // Slots are Δ₁ = 320 ms apart; propagation skews them by < 30 ms.
            assert!(w[1] - w[0] > 0.25, "slot spacing {}", w[1] - w[0]);
        }
        // Acoustic phase ends within the round-trip bound Δ₀ + (N−1)Δ₁ plus
        // propagation and the final packet duration.
        assert!(outcome.acoustic_duration_s < 0.6 + 4.0 * 0.32 + 0.278 + 0.05);
    }

    #[test]
    fn timestamp_errors_translate_to_distance_errors() {
        let devices = devices_at(&square_deployment());
        // A detection bias of +e seconds on every reception inflates every
        // two-way distance by c·e (the bias appears once in each direction
        // and the halving keeps exactly one copy): +1 ms → +1.5 m.
        let mut constant = FnObserver(|_tx, _rx, _tau| Some(0.001));
        let outcome = engine(5).run_round(&devices, &mut constant).unwrap();
        let truth = square_deployment();
        for (i, j) in outcome.distances.links() {
            let t = truth[i].distance(&truth[j]);
            let e = outcome.distances.get(i, j).unwrap();
            assert!((e - t - 1.5).abs() < 0.15, "({i},{j}): {e} vs {t}");
        }
    }

    #[test]
    fn asymmetric_timestamp_error_shifts_distance() {
        let devices = devices_at(&square_deployment());
        // +2 ms error only when device 1 receives: each affected pair gains
        // c·err/2 ≈ 1.5 m.
        let mut biased = FnObserver(|_tx, rx, _tau| if rx == 1 { Some(0.002) } else { Some(0.0) });
        let outcome = engine(5).run_round(&devices, &mut biased).unwrap();
        let truth = square_deployment();
        let err01 = outcome.distances.get(0, 1).unwrap() - truth[0].distance(&truth[1]);
        assert!((err01 - 1.5).abs() < 0.1, "err {err01}");
    }

    #[test]
    fn device_out_of_leader_range_syncs_to_a_peer() {
        let positions = square_deployment();
        let devices = devices_at(&positions);
        // Device 4 cannot hear the leader (and vice versa), but hears others.
        let mut observer = FnObserver(|tx, rx, _tau| {
            if (tx == 0 && rx == 4) || (tx == 4 && rx == 0) {
                None
            } else {
                Some(0.0)
            }
        });
        let outcome = engine(5).run_round(&devices, &mut observer).unwrap();
        assert!(matches!(outcome.sync_sources[4], SyncSource::Peer(_)));
        assert!(outcome.tx_times[4].is_some());
        // The 0–4 link is missing both directions, but the other pairs are
        // present and accurate; 0–4 may still be recovered via a common
        // neighbour only if one direction existed — here both were lost.
        assert!(!outcome.distances.has_link(0, 4));
        let truth = &positions;
        for (i, j) in outcome.distances.links() {
            let t = truth[i].distance(&truth[j]);
            let e = outcome.distances.get(i, j).unwrap();
            assert!((e - t).abs() < 0.05, "({i},{j}): {e} vs {t}");
        }
        // Device 4's pairwise distances to the peers it heard are intact.
        assert!(outcome.distances.has_link(1, 4));
        assert!(outcome.distances.has_link(2, 4));
    }

    #[test]
    fn one_way_loss_is_recovered_through_common_neighbour() {
        let positions = square_deployment();
        let devices = devices_at(&positions);
        // Device 2's response is lost at device 1 (one direction only).
        let mut observer =
            FnObserver(|tx, rx, _tau| if tx == 2 && rx == 1 { None } else { Some(0.0) });
        let outcome = engine(5).run_round(&devices, &mut observer).unwrap();
        assert!(outcome.distances.has_link(1, 2));
        let truth = positions[1].distance(&positions[2]);
        let est = outcome.distances.get(1, 2).unwrap();
        assert!((est - truth).abs() < 0.05, "{est} vs {truth}");
    }

    #[test]
    fn totally_isolated_device_never_transmits() {
        let positions = square_deployment();
        let devices = devices_at(&positions);
        let mut observer = FnObserver(
            |tx, rx, _tau| {
                if tx == 3 || rx == 3 {
                    None
                } else {
                    Some(0.0)
                }
            },
        );
        let outcome = engine(5).run_round(&devices, &mut observer).unwrap();
        assert_eq!(outcome.sync_sources[3], SyncSource::None);
        assert!(outcome.tx_times[3].is_none());
        for j in 0..5 {
            if j != 3 {
                assert!(!outcome.distances.has_link(3, j));
            }
        }
    }

    #[test]
    fn engine_validates_inputs() {
        let schedule = TdmSchedule::paper_defaults(5).unwrap();
        assert!(ProtocolEngine::new(schedule, 300.0).is_err());
        let engine = ProtocolEngine::new(schedule, 1500.0).unwrap();
        // Wrong device count.
        let devices = devices_at(&square_deployment()[..4]);
        assert!(engine.run_round(&devices, &mut IdealObserver).is_err());
        // Wrong IDs.
        let mut devices = devices_at(&square_deployment());
        devices[2].id = 7;
        assert!(engine.run_round(&devices, &mut IdealObserver).is_err());
    }

    #[test]
    fn clock_offsets_do_not_leak_into_distances() {
        // Very different clock offsets and skews across devices.
        let positions = square_deployment();
        let devices: Vec<DeviceRoundState> = positions
            .iter()
            .enumerate()
            .map(|(i, &p)| DeviceRoundState {
                id: i,
                position: p,
                clock: LocalClock::new(80.0 * (i as f64 - 2.0), 1e4 * i as f64),
            })
            .collect();
        let outcome = engine(5).run_round(&devices, &mut IdealObserver).unwrap();
        for (i, j) in outcome.distances.links() {
            let t = positions[i].distance(&positions[j]);
            let e = outcome.distances.get(i, j).unwrap();
            assert!((e - t).abs() < 0.5, "({i},{j}): {e} vs {t}");
        }
    }
}
