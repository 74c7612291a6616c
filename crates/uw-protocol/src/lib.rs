//! # uw-protocol — distributed timestamp protocol and report payload
//!
//! Implements §2.3 and §2.4 of the paper:
//!
//! * [`schedule`] — the TDM response schedule: the leader broadcasts a query
//!   and every other device answers in a slot derived from its ID, with
//!   timing constants Δ₀ = 600 ms, Δ₁ = 320 ms (T_packet = 278 ms +
//!   T_guard = 42 ms). Devices that cannot hear the leader synchronise to
//!   the first response they do hear.
//! * [`timestamps`] — per-device timestamp tables and the pairwise distance
//!   computation `D_ij = c/2·[(Tᶦⱼ − Tᶦᵢ) − (Tʲⱼ − Tʲᵢ)]` that cancels the
//!   unknown clock offsets, plus recovery of one-way-only links through a
//!   common neighbour.
//! * [`comm`] — the report each device owes the leader: depth quantised to
//!   0.2 m (8 bits), slot-relative timestamps at a 2-sample resolution
//!   (10 bits each) and a CRC-16, plus the airtime of sending it, which the
//!   latency model charges.
//! * [`engine`] — an event-driven simulation of one protocol round over the
//!   device clocks; the physical layer is abstracted behind a
//!   [`engine::LinkObserver`] so the same engine runs with an ideal
//!   channel, a statistical error model, or full waveform simulation.
//! * [`latency`] — the round-trip-time model reproduced by the protocol
//!   latency table in §3.2.
//!
//! The device clocks come from [`uw_device::clock::LocalClock`]; positions
//! use [`uw_channel::geometry::Point3`]. The distance matrices this layer
//! produces are consumed by the SMACOF solver in `uw-localization`.
//!
//! ## Example
//!
//! ```
//! use uw_channel::geometry::Point3;
//! use uw_device::clock::LocalClock;
//! use uw_protocol::engine::{DeviceRoundState, IdealObserver, ProtocolEngine};
//! use uw_protocol::TdmSchedule;
//!
//! // Three devices with wildly different clocks, ideal channel.
//! let engine = ProtocolEngine::new(TdmSchedule::paper_defaults(3).unwrap(), 1500.0).unwrap();
//! let devices = vec![
//!     DeviceRoundState { id: 0, position: Point3::new(0.0, 0.0, 1.0), clock: LocalClock::ideal() },
//!     DeviceRoundState { id: 1, position: Point3::new(12.0, 0.0, 1.0), clock: LocalClock::new(30.0, 12.5) },
//!     DeviceRoundState { id: 2, position: Point3::new(0.0, 9.0, 2.0), clock: LocalClock::new(-18.0, -3.1) },
//! ];
//! let outcome = engine.run_round(&devices, &mut IdealObserver).unwrap();
//! // The two-way timestamp combination cancels the unknown clock offsets.
//! assert!((outcome.distances.get(0, 1).unwrap() - 12.0).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comm;
pub mod engine;
pub mod latency;
pub mod schedule;
pub mod timestamps;

pub use engine::{LinkObserver, ProtocolEngine, RoundOutcome};
pub use schedule::TdmSchedule;
pub use timestamps::TimestampTable;

/// Errors produced by the protocol layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// A configuration or message field was out of range.
    InvalidParameter {
        /// Description of the offending parameter.
        reason: String,
    },
    /// Decoding of a report payload failed.
    DecodeFailure {
        /// Description of the decoding problem.
        reason: String,
    },
    /// The protocol round could not produce usable measurements.
    RoundFailure {
        /// Description of the failure.
        reason: String,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::InvalidParameter { reason } => write!(f, "invalid parameter: {reason}"),
            ProtocolError::DecodeFailure { reason } => write!(f, "decode failure: {reason}"),
            ProtocolError::RoundFailure { reason } => write!(f, "round failure: {reason}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<uw_dsp::DspError> for ProtocolError {
    fn from(e: uw_dsp::DspError) -> Self {
        ProtocolError::DecodeFailure {
            reason: e.to_string(),
        }
    }
}

/// Convenience result alias for the protocol layer.
pub type Result<T> = std::result::Result<T, ProtocolError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = ProtocolError::InvalidParameter {
            reason: "zero devices".into(),
        };
        assert!(e.to_string().contains("zero devices"));
        let e = ProtocolError::DecodeFailure {
            reason: "crc mismatch".into(),
        };
        assert!(e.to_string().contains("crc mismatch"));
        let e = ProtocolError::RoundFailure {
            reason: "no responses".into(),
        };
        assert!(e.to_string().contains("no responses"));
        let e: ProtocolError = uw_dsp::DspError::InvalidLength { reason: "x" }.into();
        assert!(matches!(e, ProtocolError::DecodeFailure { .. }));
    }
}
