//! # uw-core — the end-to-end underwater positioning system
//!
//! This crate ties the substrates together into the system the paper
//! describes: a dive-leader device that, on demand, runs one distributed
//! localization round and obtains the relative 3D positions of every diver
//! in the group.
//!
//! * [`config`] — system-wide configuration (environment, group size,
//!   protocol timing, ranging fidelity, localization parameters).
//! * [`faults`] — deterministic fault injection: scripted schedules of
//!   packet loss, churn, clock skew, leader failover and cross-network
//!   interference, reproducible from `(seed, schedule)`.
//! * [`network`] — the dive group: devices, ground-truth positions,
//!   occluded and missing links.
//! * [`observers`] — physical-layer models plugged into the protocol
//!   engine: a statistical model calibrated against the waveform pipeline,
//!   and helpers for loss/occlusion injection.
//! * [`waveform`] — waveform-level pairwise experiments (full channel +
//!   detection + dual-microphone ranging) used by the benchmark figures.
//! * [`session`] — one localization round: protocol → distances → reports →
//!   topology solve → 3D positions, with ground-truth error metrics.
//! * [`scenario`] — pre-built deployments matching the paper's testbeds
//!   (dock, boathouse, pool, mobility, occlusion, link-drop variants).
//! * [`metrics`] — error statistics, CDF helpers and the battery model.
//!
//! ## Example
//!
//! ```
//! use uw_core::prelude::*;
//!
//! let scenario = Scenario::dock_five_devices(7);
//! let mut session = Session::new(scenario.config().clone()).unwrap();
//! let outcome = session.run(scenario.network()).unwrap();
//! assert_eq!(outcome.positions.len(), 5);
//! // 2D errors are measured against ground truth for every non-leader device.
//! assert_eq!(outcome.errors_2d.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod faults;
pub mod metrics;
pub mod network;
pub mod observers;
pub mod scenario;
pub mod session;
pub mod waveform;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use crate::config::{Fidelity, NumericPath, SystemConfig};
    pub use crate::faults::{FaultEvent, FaultKind, FaultSchedule, RoundFailureReason};
    pub use crate::network::DiveNetwork;
    pub use crate::scenario::Scenario;
    pub use crate::session::{RoundControl, Session, SessionOutcome};
    pub use uw_channel::environment::EnvironmentKind;
    pub use uw_channel::geometry::Point3;
}

pub use config::SystemConfig;
pub use network::DiveNetwork;
pub use scenario::Scenario;
pub use session::{Session, SessionOutcome};

/// Errors surfaced by the end-to-end system.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemError {
    /// Configuration inconsistency.
    InvalidConfig {
        /// Description of the problem.
        reason: String,
    },
    /// A lower layer failed.
    Layer {
        /// Which layer failed.
        layer: &'static str,
        /// Description of the failure.
        reason: String,
    },
    /// One session round failed gracefully: the session is still usable
    /// and later rounds may succeed. Carries a structured
    /// [`faults::RoundFailureReason`] so harnesses (and
    /// [`session::Session::run_observed`] observers) can tell *why* the
    /// round produced no solve instead of pattern-matching error text.
    RoundFailed {
        /// 0-based index of the failed round.
        round: usize,
        /// Structured reason for the failure.
        reason: faults::RoundFailureReason,
    },
}

impl SystemError {
    /// The structured failure behind a gracefully-failed round, if this
    /// error is one: `(round index, reason)`.
    pub fn round_failure(&self) -> Option<(usize, &faults::RoundFailureReason)> {
        match self {
            SystemError::RoundFailed { round, reason } => Some((*round, reason)),
            _ => None,
        }
    }
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            SystemError::Layer { layer, reason } => write!(f, "{layer} layer error: {reason}"),
            SystemError::RoundFailed { round, reason } => {
                write!(f, "round {round} failed: {reason}")
            }
        }
    }
}

impl std::error::Error for SystemError {}

impl From<uw_protocol::ProtocolError> for SystemError {
    fn from(e: uw_protocol::ProtocolError) -> Self {
        SystemError::Layer {
            layer: "protocol",
            reason: e.to_string(),
        }
    }
}

impl From<uw_localization::LocalizationError> for SystemError {
    fn from(e: uw_localization::LocalizationError) -> Self {
        SystemError::Layer {
            layer: "localization",
            reason: e.to_string(),
        }
    }
}

impl From<uw_ranging::RangingError> for SystemError {
    fn from(e: uw_ranging::RangingError) -> Self {
        SystemError::Layer {
            layer: "ranging",
            reason: e.to_string(),
        }
    }
}

impl From<uw_dsp::DspError> for SystemError {
    fn from(e: uw_dsp::DspError) -> Self {
        SystemError::Layer {
            layer: "dsp",
            reason: e.to_string(),
        }
    }
}

impl From<uw_channel::ChannelError> for SystemError {
    fn from(e: uw_channel::ChannelError) -> Self {
        SystemError::Layer {
            layer: "channel",
            reason: e.to_string(),
        }
    }
}

impl From<uw_device::DeviceError> for SystemError {
    fn from(e: uw_device::DeviceError) -> Self {
        SystemError::Layer {
            layer: "device",
            reason: e.to_string(),
        }
    }
}

/// Convenience result alias for the system layer.
pub type Result<T> = std::result::Result<T, SystemError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions_and_display() {
        let e = SystemError::InvalidConfig {
            reason: "zero devices".into(),
        };
        assert!(e.to_string().contains("zero devices"));
        let e: SystemError = uw_protocol::ProtocolError::RoundFailure { reason: "x".into() }.into();
        assert!(e.to_string().contains("protocol"));
        let e: SystemError =
            uw_localization::LocalizationError::SolverFailure { reason: "x".into() }.into();
        assert!(e.to_string().contains("localization"));
        let e: SystemError = uw_ranging::RangingError::NoDirectPath.into();
        assert!(e.to_string().contains("ranging"));
        let e: SystemError = uw_channel::ChannelError::InvalidLength { reason: "x".into() }.into();
        assert!(e.to_string().contains("channel"));
        let e: SystemError = uw_device::DeviceError::InvalidParameter { reason: "x".into() }.into();
        assert!(e.to_string().contains("device"));
    }

    #[test]
    fn round_failures_carry_structured_reasons() {
        let e = SystemError::RoundFailed {
            round: 4,
            reason: faults::RoundFailureReason::LeaderSilent,
        };
        assert!(e.to_string().contains("round 4"));
        let (round, reason) = e.round_failure().unwrap();
        assert_eq!(round, 4);
        assert_eq!(reason, &faults::RoundFailureReason::LeaderSilent);
        let other = SystemError::InvalidConfig { reason: "x".into() };
        assert!(other.round_failure().is_none());
    }
}
