//! # uw-device — smart-device model
//!
//! The paper runs on commodity Android phones and the Apple Watch Ultra.
//! This crate models the parts of those devices that matter for underwater
//! ranging and localization, so the rest of the workspace can run
//! waveform-accurately without hardware:
//!
//! * [`clock`] — per-device local clocks with parts-per-million skew and an
//!   arbitrary offset; no global clock exists underwater.
//! * [`sensors`] — pressure-sensor depth estimation (with noise and the
//!   0.2 m quantisation used by the communication payload), the smartwatch
//!   depth gauge, and device orientation.
//! * [`mobility`] — trajectories for static, swept and oscillating devices
//!   (the rope/pole experiments and the moving-diver evaluations).
//! * [`device`] — [`device::SmartDevice`] ties the pieces together, adds the
//!   dual-microphone geometry (16 cm separation) and per-model presets for
//!   the phones the paper tested.
//!
//! The positions this crate reports feed the ground truth of
//! [`uw_channel::propagate::ChannelSimulator`]-driven experiments, and the
//! clocks drive the timestamp protocol in `uw-protocol`.
//!
//! ## Example
//!
//! ```
//! use uw_channel::geometry::Point3;
//! use uw_device::clock::LocalClock;
//! use uw_device::mobility::swimmer_circuit;
//! use uw_device::sensors::quantize_depth;
//!
//! // A skewed clock round-trips between local and true time.
//! let clock = LocalClock::new(20.0, 0.35);
//! let local = clock.local_from_true(10.0);
//! assert!((clock.true_from_local(local) - 10.0).abs() < 1e-9);
//!
//! // Depth reports are quantised to the 0.2 m the payload encodes.
//! assert!((quantize_depth(3.27) - 3.2).abs() < 1e-9);
//!
//! // A swimmer circuit moves the device but returns it every lap.
//! let swim = swimmer_circuit(Point3::new(0.0, 0.0, 2.0), 40.0);
//! assert!(swim.position_at(5.0).distance(&swim.position_at(0.0)) > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod device;
pub mod mobility;
pub mod sensors;

pub use device::{DeviceId, DeviceModel, SmartDevice};

/// Errors produced by the device layer.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceError {
    /// A configuration value was out of range.
    InvalidParameter {
        /// Description of the offending parameter.
        reason: String,
    },
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::InvalidParameter { reason } => write!(f, "invalid parameter: {reason}"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// Convenience result alias for the device layer.
pub type Result<T> = std::result::Result<T, DeviceError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = DeviceError::InvalidParameter {
            reason: "negative ppm bound".into(),
        };
        assert!(e.to_string().contains("negative ppm bound"));
    }
}
