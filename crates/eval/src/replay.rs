//! Recording matrix cells as audio, and the capture store recorded audio
//! is replayed from.
//!
//! The paper's evaluation is driven by recorded hydrophone audio; this
//! module is the recorder half of that loop:
//!
//! * **Record** — [`record_cell`] renders every leader-link waveform
//!   exchange of a hybrid-fidelity cell (the exact captures
//!   `uw_core::Session` would feed its detector, via
//!   [`uw_core::session::leader_link_trials`] +
//!   [`uw_core::waveform::synthesize_dual_mic`]) into a [`Recording`].
//!   [`crate::import::render_campaign_wav`] lays a recording onto one
//!   continuous 2-channel campaign WAV — the one way recorded audio is
//!   written to disk.
//! * **Replay** — [`ReplayAudio`] holds captures by (round, device) and
//!   is the [`LinkAudioSource`] a cell's session ranges against when
//!   [`EvalCell::replay`] is set. The blind importer
//!   ([`crate::import::load_campaign`]) fills it from a campaign WAV; the
//!   resulting cells carry an `import` id segment and flow through
//!   [`crate::runner::CellExecution`], [`crate::report::EvalReport`] and
//!   `uw-serve` jobs unchanged.
//!
//! Captures are synthesized in pure `f64` regardless of the receive DSP,
//! so one recording drives every numeric path.

use crate::matrix::{EvalCell, LinkProfile, MobilityProfile, ScenarioMatrix, Topology};
use std::collections::HashMap;
use uw_core::config::{Fidelity, NumericPath};
use uw_core::prelude::*;
use uw_core::session::leader_link_trials;
use uw_core::waveform::{synthesize_dual_mic, LinkAudioSource, LinkCapture};
use uw_core::{Result, SystemError};

/// The capture of one leader-link exchange within a recording.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedLink {
    /// 0-based localization round.
    pub round: usize,
    /// The non-leader device of the exchange.
    pub device: usize,
    /// The two microphone streams.
    pub capture: LinkCapture,
}

/// A rendered recording of a matrix cell: what
/// [`crate::import::render_campaign_wav`] needs to lay the cell's
/// captures onto a campaign timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Recording {
    /// Environment of the recorded cell (its ambient noise fills the
    /// campaign's gaps).
    pub environment: EnvironmentKind,
    /// Group size.
    pub n_devices: usize,
    /// RNG seed of the recorded cell.
    pub seed: u64,
    /// Rounds the recording covers.
    pub rounds: usize,
    /// Per-round, per-link captures in (round, device) order.
    pub links: Vec<RecordedLink>,
}

/// Rounds of the golden cell ([`fixture_cell`]): enough rounds for a
/// stable median over 4 devices × 3 rounds while keeping its PCM16
/// campaign near 1.5 MB.
pub const FIXTURE_ROUNDS: usize = 3;

/// The golden cell: the dock 5-device clear/static headline scenario
/// (seed 1) at hybrid fidelity on the `f64` path, shortened to
/// [`FIXTURE_ROUNDS`]. The tier-1 test `crates/eval/tests/import_golden.rs`
/// records it, renders its campaign WAV, pins the PCM16 bytes by digest
/// and imports it blind on every numeric path.
pub fn fixture_cell() -> Result<EvalCell> {
    let matrix = ScenarioMatrix {
        environments: vec![EnvironmentKind::Dock],
        topologies: vec![Topology::FiveDevice],
        conditions: vec![LinkProfile::Clear],
        mobilities: vec![MobilityProfile::Static],
        numeric_paths: vec![NumericPath::F64],
        faults: vec![None],
        seeds: vec![1],
        recordings: vec![],
        rounds_per_cell: FIXTURE_ROUNDS,
        fidelity: Fidelity::Hybrid,
    };
    Ok(matrix.expand()?.remove(0))
}

/// Renders every leader-link exchange of a hybrid cell into a
/// [`Recording`] — the deterministic "recorder" behind the repository's
/// rendered campaigns (same seeds, same channel realisations the live
/// session would draw).
pub fn record_cell(cell: &EvalCell) -> Result<Recording> {
    let config = cell.scenario.config();
    if config.fidelity != Fidelity::Hybrid {
        return Err(SystemError::InvalidConfig {
            reason: format!(
                "cell {}: only hybrid-fidelity cells process waveforms; there is \
                 nothing to record at statistical fidelity",
                cell.id
            ),
        });
    }
    let mut links = Vec::new();
    for round in 0..cell.rounds {
        for lt in leader_link_trials(config, cell.scenario.network(), round, cell.faults.as_ref())?
        {
            links.push(RecordedLink {
                round,
                device: lt.device,
                capture: synthesize_dual_mic(&lt.trial, lt.seed)?,
            });
        }
    }
    Ok(Recording {
        environment: cell.environment,
        n_devices: cell.n_devices,
        seed: cell.seed,
        rounds: cell.rounds,
        links,
    })
}

/// Captures indexed for the session's per-link lookups; the
/// [`LinkAudioSource`] a cell with recorded audio installs on its
/// sessions.
#[derive(Debug)]
pub struct ReplayAudio {
    captures: HashMap<(usize, usize), LinkCapture>,
}

impl ReplayAudio {
    /// Indexes a recording's links by (round, device).
    pub fn new(recording: &Recording) -> Self {
        Self {
            captures: recording
                .links
                .iter()
                .map(|l| ((l.round, l.device), l.capture.clone()))
                .collect(),
        }
    }

    /// Wraps an already-assembled capture map — the entry point for the
    /// field-recording importer ([`crate::import`]), whose captures come
    /// from manifest frame ranges rather than a [`Recording`].
    pub fn from_captures(captures: HashMap<(usize, usize), LinkCapture>) -> Self {
        Self { captures }
    }

    /// Number of captures available.
    pub fn len(&self) -> usize {
        self.captures.len()
    }

    /// Whether the recording holds no captures.
    pub fn is_empty(&self) -> bool {
        self.captures.is_empty()
    }
}

impl LinkAudioSource for ReplayAudio {
    fn link_capture(&self, round: usize, device: usize) -> Option<&LinkCapture> {
        self.captures.get(&(round, device))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_cell;
    use std::sync::Arc;

    fn tiny_hybrid_cell(rounds: usize) -> EvalCell {
        let matrix = ScenarioMatrix {
            environments: vec![EnvironmentKind::Dock],
            topologies: vec![Topology::FiveDevice],
            conditions: vec![LinkProfile::Clear],
            mobilities: vec![MobilityProfile::Static],
            numeric_paths: vec![NumericPath::F64],
            faults: vec![None],
            seeds: vec![1],
            recordings: vec![],
            rounds_per_cell: rounds,
            fidelity: Fidelity::Hybrid,
        };
        matrix.expand().unwrap().remove(0)
    }

    #[test]
    fn statistical_cells_cannot_be_recorded() {
        let cell = ScenarioMatrix::smoke().expand().unwrap().remove(0);
        let err = record_cell(&cell).unwrap_err();
        assert!(err.to_string().contains("statistical"), "{err}");
    }

    #[test]
    fn recording_covers_every_round_and_link() {
        let cell = tiny_hybrid_cell(2);
        let recording = record_cell(&cell).unwrap();
        // 2 rounds × 4 leader links.
        assert_eq!(recording.links.len(), 8);
        for round in 0..2 {
            for device in 1..5 {
                assert!(
                    recording
                        .links
                        .iter()
                        .any(|l| l.round == round && l.device == device),
                    "missing capture for round {round}, device {device}"
                );
            }
        }
        // Captures hold plausible audio (non-empty, bounded).
        for link in &recording.links {
            assert!(link.capture.mic1.len() > 10_000);
            assert!(link
                .capture
                .mic1
                .iter()
                .all(|s| s.is_finite() && s.abs() < 10.0));
        }
    }

    #[test]
    fn replay_cell_reproduces_the_simulated_cell() {
        // The recorder's captures, installed in memory, are exactly what
        // the live session synthesizes: the report cannot move a bit.
        let cell = tiny_hybrid_cell(1);
        let simulated = run_cell(&cell).unwrap();
        let mut replay = cell.clone();
        replay.replay = Some(Arc::new(ReplayAudio::new(&record_cell(&cell).unwrap())));
        let replayed = run_cell(&replay).unwrap();
        assert_eq!(replayed.rounds_completed, 1);
        assert_eq!(replayed, simulated);
    }

    #[test]
    fn replay_without_captures_fails_the_rounds() {
        let mut replay = tiny_hybrid_cell(1);
        replay.replay = Some(Arc::new(ReplayAudio::from_captures(HashMap::new())));
        let report = run_cell(&replay).unwrap();
        assert_eq!(report.rounds_completed, 0);
        assert_eq!(report.rounds_failed, 1);
    }
}
