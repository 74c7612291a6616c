//! The smart-device model: everything one diver carries.
//!
//! A [`SmartDevice`] bundles:
//!
//! * a device ID (0 is always the dive leader),
//! * a hardware model preset ([`DeviceModel`]) giving source level,
//!   microphone noise spread and depth-sensor type,
//! * a local clock with ppm skew,
//! * a depth sensor,
//! * an orientation and a motion trajectory,
//! * the dual-microphone geometry: two microphones separated by
//!   [`MIC_SEPARATION_M`] (16 cm, the paper's phone top/bottom spacing),
//!   oriented along the device's azimuth.

use crate::clock::LocalClock;
use crate::mobility::Trajectory;
use crate::sensors::{DepthSensor, DepthSensorKind, Orientation};
use crate::{DeviceError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};
use uw_channel::geometry::Point3;

/// Distance between the two microphones on the device (m). The paper uses
/// the top and bottom microphones of a phone, 16 cm apart.
pub const MIC_SEPARATION_M: f64 = 0.16;

/// Identifier of a device within a dive group. The leader is always ID 0.
pub type DeviceId = usize;

/// Hardware presets for the devices the paper evaluates (Fig. 14b tests
/// Samsung, Pixel and OnePlus pairs; the battery test uses an Apple Watch
/// Ultra).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceModel {
    /// Samsung Galaxy S9 (the paper's primary phone).
    GalaxyS9,
    /// Google Pixel.
    Pixel,
    /// OnePlus.
    OnePlus,
    /// Apple Watch Ultra (depth gauge, smaller speaker).
    AppleWatchUltra,
}

impl DeviceModel {
    /// All phone models used in the cross-model experiment.
    pub const PHONES: [DeviceModel; 3] = [
        DeviceModel::GalaxyS9,
        DeviceModel::Pixel,
        DeviceModel::OnePlus,
    ];

    /// Relative transmit amplitude (1.0 = Galaxy S9 at maximum volume).
    pub fn source_level(&self) -> f64 {
        match self {
            DeviceModel::GalaxyS9 => 1.0,
            DeviceModel::Pixel => 0.85,
            DeviceModel::OnePlus => 0.9,
            DeviceModel::AppleWatchUltra => 0.6,
        }
    }

    /// Noise-level scale factors for the two microphones (hardware gain
    /// spread between the bottom and top microphones).
    pub fn mic_noise_scales(&self) -> [f64; 2] {
        match self {
            DeviceModel::GalaxyS9 => [1.0, 1.3],
            DeviceModel::Pixel => [1.1, 1.2],
            DeviceModel::OnePlus => [0.9, 1.4],
            DeviceModel::AppleWatchUltra => [1.0, 1.1],
        }
    }

    /// The kind of depth sensor this model carries.
    pub fn depth_sensor_kind(&self) -> DepthSensorKind {
        match self {
            DeviceModel::AppleWatchUltra => DepthSensorKind::WatchDepthGauge,
            _ => DepthSensorKind::PhonePressure,
        }
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            DeviceModel::GalaxyS9 => "Samsung Galaxy S9",
            DeviceModel::Pixel => "Google Pixel",
            DeviceModel::OnePlus => "OnePlus",
            DeviceModel::AppleWatchUltra => "Apple Watch Ultra",
        }
    }
}

/// One diver's device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SmartDevice {
    /// Device ID within the dive group (0 = leader).
    pub id: DeviceId,
    /// Hardware preset.
    pub model: DeviceModel,
    /// Local clock.
    pub clock: LocalClock,
    /// Depth sensor.
    pub depth_sensor: DepthSensor,
    /// Current orientation.
    pub orientation: Orientation,
    /// Motion trajectory (ground truth).
    pub trajectory: Trajectory,
}

impl SmartDevice {
    /// Creates a static device of the given model at a fixed position with
    /// an ideal clock.
    pub fn ideal(id: DeviceId, model: DeviceModel, position: Point3) -> Self {
        Self {
            id,
            model,
            clock: LocalClock::ideal(),
            depth_sensor: DepthSensor::new(model.depth_sensor_kind()),
            orientation: Orientation::default(),
            trajectory: Trajectory::fixed(position),
        }
    }

    /// True if this is the dive-leader device.
    pub fn is_leader(&self) -> bool {
        self.id == 0
    }

    /// Ground-truth position at time `t`.
    pub fn position_at(&self, t: f64) -> Point3 {
        self.trajectory.position_at(t)
    }

    /// Ground-truth depth at time `t` (m).
    pub fn depth_at(&self, t: f64) -> f64 {
        self.position_at(t).z
    }

    /// Positions of the two microphones at time `t`. The microphones are
    /// separated by [`MIC_SEPARATION_M`] along the direction perpendicular
    /// to the device's azimuth in the horizontal plane (holding the phone
    /// upright, the top and bottom microphones project onto a horizontal
    /// baseline when the device is tilted as divers hold it).
    pub fn mic_positions_at(&self, t: f64) -> [Point3; 2] {
        let centre = self.position_at(t);
        let az = self.orientation.azimuth_rad;
        // Baseline perpendicular to the pointing direction.
        let dx = -az.sin() * MIC_SEPARATION_M / 2.0;
        let dy = az.cos() * MIC_SEPARATION_M / 2.0;
        [
            Point3::new(centre.x - dx, centre.y - dy, centre.z),
            Point3::new(centre.x + dx, centre.y + dy, centre.z),
        ]
    }

    /// Simulates a depth-sensor reading at time `t`.
    pub fn measure_depth<R: Rng>(&self, t: f64, rng: &mut R) -> Result<f64> {
        self.depth_sensor.measure(self.depth_at(t), rng)
    }

    /// Points the device towards a target position (sets the azimuth, with
    /// an optional pointing error in radians).
    pub fn point_towards(&mut self, target: &Point3, t: f64, pointing_error_rad: f64) {
        let here = self.position_at(t);
        self.orientation.azimuth_rad = here.azimuth_to(target) + pointing_error_rad;
    }

    /// Validates that the device ID fits within a group of `group_size`.
    pub fn validate_for_group(&self, group_size: usize) -> Result<()> {
        if self.id >= group_size {
            return Err(DeviceError::InvalidParameter {
                reason: format!(
                    "device id {} does not fit in a group of {group_size}",
                    self.id
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_presets_are_distinct_and_sane() {
        for m in [
            DeviceModel::GalaxyS9,
            DeviceModel::Pixel,
            DeviceModel::OnePlus,
            DeviceModel::AppleWatchUltra,
        ] {
            assert!(m.source_level() > 0.0 && m.source_level() <= 1.0);
            let [a, b] = m.mic_noise_scales();
            assert!(a > 0.0 && b > 0.0);
            assert!(!m.name().is_empty());
        }
        assert_eq!(
            DeviceModel::AppleWatchUltra.depth_sensor_kind(),
            DepthSensorKind::WatchDepthGauge
        );
        assert_eq!(
            DeviceModel::GalaxyS9.depth_sensor_kind(),
            DepthSensorKind::PhonePressure
        );
        assert_eq!(DeviceModel::PHONES.len(), 3);
    }

    #[test]
    fn leader_is_id_zero() {
        let leader = SmartDevice::ideal(0, DeviceModel::GalaxyS9, Point3::ORIGIN);
        let diver = SmartDevice::ideal(3, DeviceModel::GalaxyS9, Point3::ORIGIN);
        assert!(leader.is_leader());
        assert!(!diver.is_leader());
    }

    #[test]
    fn mic_positions_are_separated_by_16cm() {
        let mut device = SmartDevice::ideal(1, DeviceModel::GalaxyS9, Point3::new(5.0, 5.0, 2.0));
        for az_deg in [0.0, 45.0, 90.0, 180.0, 270.0] {
            device.orientation = Orientation::from_degrees(az_deg, 0.0);
            let [m0, m1] = device.mic_positions_at(0.0);
            assert!((m0.distance(&m1) - MIC_SEPARATION_M).abs() < 1e-12);
            // Midpoint is the device position.
            let mid = m0.add(&m1).scale(0.5);
            assert!(mid.distance(&device.position_at(0.0)) < 1e-12);
            // Microphones stay at the device depth.
            assert_eq!(m0.z, 2.0);
            assert_eq!(m1.z, 2.0);
        }
    }

    #[test]
    fn point_towards_sets_azimuth() {
        let mut device = SmartDevice::ideal(0, DeviceModel::GalaxyS9, Point3::ORIGIN);
        let target = Point3::new(0.0, 7.0, 1.0);
        device.point_towards(&target, 0.0, 0.0);
        assert!((device.orientation.azimuth_rad - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        device.point_towards(&target, 0.0, 0.1);
        assert!((device.orientation.azimuth_rad - std::f64::consts::FRAC_PI_2 - 0.1).abs() < 1e-12);
    }

    #[test]
    fn group_validation() {
        let d = SmartDevice::ideal(4, DeviceModel::GalaxyS9, Point3::ORIGIN);
        assert!(d.validate_for_group(5).is_ok());
        assert!(d.validate_for_group(4).is_err());
    }

    #[test]
    fn moving_device_changes_position() {
        let mut d = SmartDevice::ideal(1, DeviceModel::GalaxyS9, Point3::ORIGIN);
        d.trajectory = crate::mobility::dock_sweep(Point3::new(0.0, 0.0, 2.5), 50.0);
        let p0 = d.position_at(0.0);
        let p10 = d.position_at(10.0);
        assert!((p0.distance(&p10) - 5.0).abs() < 1e-9);
        assert_eq!(d.depth_at(10.0), 2.5);
    }
}
