//! # uwgps — Underwater 3D positioning on smart devices
//!
//! Facade crate re-exporting the full workspace: an anchor-free underwater
//! acoustic positioning system for commodity smart devices, reproducing the
//! SIGCOMM 2023 paper "Underwater 3D positioning on smart devices".
//!
//! The system lets a dive-leader device compute the relative 3D positions of
//! every other diver in the group with no external infrastructure:
//!
//! 1. A distributed timestamp protocol ([`protocol`]) schedules one acoustic
//!    response per device and collects reception timestamps.
//! 2. Pairwise distances are estimated from those timestamps and from
//!    dual-microphone direct-path estimation ([`ranging`]).
//! 3. A topology-based solver ([`localization`]) projects to 2D using depth
//!    sensors, runs weighted SMACOF multidimensional scaling with outlier
//!    detection, and resolves rotation/flipping ambiguities.
//!
//! The underwater world (acoustic channel, device audio stack, sensors,
//! mobility) is simulated by [`channel`] and [`device`], so the whole
//! pipeline runs waveform-accurately on a laptop. Above the pipeline,
//! [`eval`] runs declarative scenario matrices and [`serve`] streams
//! localization jobs through a sharded async front end (see
//! `docs/ARCHITECTURE.md` and `docs/SERVING.md`). Recorded (or
//! synthetically recorded) audio re-enters the same pipeline through
//! [`audio`] — a dependency-free WAV codec + resampler — and
//! `eval::import`, which renders recorded cells as continuous campaign
//! WAVs and imports such recordings blind as first-class cells.
//!
//! ## Quickstart
//!
//! ```
//! use uwgps::core::prelude::*;
//!
//! // Build a 5-device dock-like deployment and run one localization session.
//! let scenario = Scenario::dock_five_devices(42);
//! let mut session = Session::new(scenario.config().clone()).unwrap();
//! let outcome = session.run(&scenario.network()).unwrap();
//! assert_eq!(outcome.positions.len(), scenario.network().device_count());
//! ```

pub use uw_audio as audio;
pub use uw_channel as channel;
pub use uw_core as core;
pub use uw_device as device;
pub use uw_dsp as dsp;
pub use uw_eval as eval;
pub use uw_localization as localization;
pub use uw_protocol as protocol;
pub use uw_ranging as ranging;
pub use uw_serve as serve;

/// Workspace-wide version string.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_set() {
        assert!(!super::VERSION.is_empty());
    }
}
