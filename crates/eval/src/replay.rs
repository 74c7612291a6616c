//! Recording and replaying matrix cells as real audio.
//!
//! The paper's evaluation is driven by recorded hydrophone audio; this
//! module closes the loop between the channel simulator and that workflow:
//!
//! * **Record** — [`record_cell`] renders every leader-link waveform
//!   exchange of a hybrid-fidelity cell (the exact captures
//!   `uw_core::Session` would feed its detector, via
//!   [`uw_core::session::leader_link_trials`] +
//!   [`uw_core::waveform::synthesize_dual_mic`]) into a [`Recording`],
//!   and [`Recording::to_wav_bytes`] encodes it as a standard 2-channel
//!   WAV (one channel per microphone) with a segment directory in a
//!   custom `uwRD` chunk, written in the shared bounded codec
//!   ([`crate::codec`]). This is how the repo generates its own golden
//!   fixtures offline (`tests/fixtures/*.wav`).
//! * **Replay** — [`Recording::from_wav_bytes`] streams the file back
//!   through `uw-audio` (chunked decode, resampled to the pipeline rate
//!   if the recording used another one) and
//!   [`EvalCell::from_recording`] wraps it into a *replay cell*: the same
//!   scenario, rounds and statistics machinery, but with detection and
//!   channel estimation running on the decoded audio instead of simulator
//!   output. Replay cells carry a `replay` id segment
//!   (`dock/5dev/clear/static/replay/s1`) and flow through
//!   [`crate::runner::CellExecution`], [`crate::report::EvalReport`] and
//!   `uw-serve` jobs unchanged.
//!
//! Because captures are synthesized in pure `f64` regardless of the
//! receive DSP, one recording serves both numeric paths: replay it with
//! [`EvalCell::from_recording_with_path`] and [`uw_core::config::NumericPath::Q15`]
//! to run the on-device fixed-point pipeline over the identical audio.

use crate::matrix::{EvalCell, LinkProfile, MobilityProfile, ScenarioMatrix, Topology};
use std::collections::HashMap;
use std::sync::Arc;
use uw_audio::codec::{
    put_code, put_f64, put_str, put_u16, put_u32, put_u64, CodecError, Prefix, Reader,
};
use uw_audio::wav::{read_wav_bytes, SampleFormat, WavSpec, WavWriter};
use uw_audio::ReplaySource;
use uw_core::config::{Fidelity, NumericPath};
use uw_core::prelude::*;
use uw_core::session::leader_link_trials;
use uw_core::waveform::{synthesize_dual_mic, LinkAudioSource, LinkCapture};
use uw_core::{Result, SystemError};

/// Cell-id segment marking a replayed cell.
pub const REPLAY_SEGMENT: &str = "replay";

/// Chunk id of the segment directory inside a recording WAV.
pub const DIRECTORY_CHUNK: [u8; 4] = *b"uwRD";

/// Version byte leading the directory chunk.
const DIRECTORY_VERSION: u8 = 1;

/// Peak the encoder normalizes recordings to (headroom below full scale,
/// like a sane recording gain).
pub const NORMALIZED_PEAK: f64 = 0.98;

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

/// A rendered (or decoded) recording of a matrix cell: everything needed
/// to rebuild the cell and feed its waveform path from audio.
#[derive(Debug, Clone, PartialEq)]
pub struct Recording {
    /// Environment of the recorded cell.
    pub environment: EnvironmentKind,
    /// Group size.
    pub n_devices: usize,
    /// Link condition.
    pub condition: LinkProfile,
    /// Mobility profile.
    pub mobility: MobilityProfile,
    /// Numeric path the cell was recorded under (captures themselves are
    /// path-independent; this is the default replay path).
    pub numeric_path: NumericPath,
    /// RNG seed of the recorded cell.
    pub seed: u64,
    /// Rounds the recording covers.
    pub rounds: usize,
    /// Per-round, per-link captures in (round, device) order.
    pub links: Vec<RecordedLink>,
}

/// Rounds covered by the committed golden fixture
/// (`tests/fixtures/dock_5dev_clear_static_s1.wav`): enough rounds for a
/// stable median over 4 devices × 3 rounds while keeping the PCM16 file
/// under a megabyte.
pub const FIXTURE_ROUNDS: usize = 3;

/// The cell the committed golden fixture records: the dock 5-device
/// clear/static headline scenario (seed 1) at hybrid fidelity on the
/// `f64` path, shortened to [`FIXTURE_ROUNDS`]. Regenerate the fixture
/// with `./scripts/record_fixtures.sh`; the tier-1 test
/// `crates/eval/tests/replay_golden.rs` replays it on both numeric paths.
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
/// [`Recording`] — the deterministic "recorder" with which the repository
/// generates its own golden fixtures (same seeds, same channel
/// realisations the live session would draw).
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
        condition: cell.condition,
        mobility: cell.mobility,
        numeric_path: cell.numeric_path,
        seed: cell.seed,
        rounds: cell.rounds,
        links,
    })
}

// ---------------------------------------------------------------------------
// Directory (de)serialisation
// ---------------------------------------------------------------------------

/// `uwRD` numeric-path codes. The order (F64, Q15, F32) is this format's
/// own and differs from the serving wire's.
const PATHS: [NumericPath; 3] = [NumericPath::F64, NumericPath::Q15, NumericPath::F32];

/// Encoded size of one directory entry: round u32, device u32, start u64
/// and the two mic lengths u64.
const ENTRY_BYTES: usize = 32;

/// Link conditions travel as a code plus one `f64` parameter.
const CONDITIONS: [fn(f64) -> LinkProfile; 4] = [
    |_| LinkProfile::Clear,
    |bias_m| LinkProfile::Occluded { bias_m },
    |_| LinkProfile::MissingLink,
    |round| LinkProfile::DeviceChurn {
        after_round: round as usize,
    },
];

fn condition_tag(c: &LinkProfile) -> (u8, f64) {
    match c {
        LinkProfile::Clear => (0, 0.0),
        LinkProfile::Occluded { bias_m } => (1, *bias_m),
        LinkProfile::MissingLink => (2, 0.0),
        LinkProfile::DeviceChurn { after_round } => (3, *after_round as f64),
    }
}

/// Mobility profiles travel as a code plus one `f64` speed.
const MOBILITIES: [fn(f64) -> MobilityProfile; 4] = [
    |_| MobilityProfile::Static,
    |speed_cm_s| MobilityProfile::RopeOscillation { speed_cm_s },
    |speed_cm_s| MobilityProfile::Swimmer { speed_cm_s },
    |speed_cm_s| MobilityProfile::CurrentDrift { speed_cm_s },
];

fn mobility_tag(m: &MobilityProfile) -> (u8, f64) {
    match m {
        MobilityProfile::Static => (0, 0.0),
        MobilityProfile::RopeOscillation { speed_cm_s } => (1, *speed_cm_s),
        MobilityProfile::Swimmer { speed_cm_s } => (2, *speed_cm_s),
        MobilityProfile::CurrentDrift { speed_cm_s } => (3, *speed_cm_s),
    }
}

/// Maps a codec fault in the directory chunk into the recording's error
/// type.
fn dir_err(e: CodecError) -> SystemError {
    SystemError::InvalidConfig {
        reason: format!("recording directory {e}"),
    }
}

impl Recording {
    /// Encodes the recording as a 2-channel WAV image (channel 0 = mic 1,
    /// channel 1 = mic 2; segments concatenated with the directory in a
    /// custom [`DIRECTORY_CHUNK`]). The audio is normalized to
    /// [`NORMALIZED_PEAK`] and the gain stored in the directory, so PCM
    /// quantisation noise is as far below the signal as the format allows
    /// and decoding restores the original amplitudes.
    pub fn to_wav_bytes(&self, format: SampleFormat) -> Result<Vec<u8>> {
        let sample_rate = uw_dsp::SAMPLE_RATE as u32;
        // Layout: per segment, the frame count is the longer of the two
        // mic streams (the shorter is zero-padded in storage only — the
        // true lengths are in the directory, so replay reconstructs the
        // exact streams).
        let mut peak = 0.0f64;
        for link in &self.links {
            for s in link.capture.mic1.iter().chain(link.capture.mic2.iter()) {
                peak = peak.max(s.abs());
            }
        }
        let scale = if peak > 0.0 {
            NORMALIZED_PEAK / peak
        } else {
            1.0
        };

        let mut dir = vec![DIRECTORY_VERSION];
        let slug = self.environment.slug();
        put_str(&mut dir, Prefix::U8, "environment slug", slug).map_err(dir_err)?;
        put_u16(&mut dir, self.n_devices as u16);
        let (ctag, cparam) = condition_tag(&self.condition);
        dir.push(ctag);
        put_f64(&mut dir, cparam);
        let (mtag, mparam) = mobility_tag(&self.mobility);
        dir.push(mtag);
        put_f64(&mut dir, mparam);
        put_code(&mut dir, &PATHS, &self.numeric_path);
        put_u64(&mut dir, self.seed);
        put_u32(&mut dir, self.rounds as u32);
        put_f64(&mut dir, scale);
        put_u32(&mut dir, self.links.len() as u32);
        let mut start_frame = 0u64;
        for link in &self.links {
            let (len1, len2) = (link.capture.mic1.len(), link.capture.mic2.len());
            put_u32(&mut dir, link.round as u32);
            put_u32(&mut dir, link.device as u32);
            put_u64(&mut dir, start_frame);
            put_u64(&mut dir, len1 as u64);
            put_u64(&mut dir, len2 as u64);
            start_frame += len1.max(len2) as u64;
        }

        let spec = WavSpec {
            sample_rate,
            channels: 2,
            format,
        };
        let mut writer =
            WavWriter::new(std::io::Cursor::new(Vec::new()), spec).map_err(audio_err)?;
        writer.add_chunk(DIRECTORY_CHUNK, &dir).map_err(audio_err)?;
        let mut interleaved = Vec::new();
        for link in &self.links {
            let frames = link.capture.mic1.len().max(link.capture.mic2.len());
            interleaved.clear();
            interleaved.reserve(frames * 2);
            for i in 0..frames {
                interleaved.push(link.capture.mic1.get(i).copied().unwrap_or(0.0) * scale);
                interleaved.push(link.capture.mic2.get(i).copied().unwrap_or(0.0) * scale);
            }
            writer.write_interleaved(&interleaved).map_err(audio_err)?;
        }
        Ok(writer.finalize().map_err(audio_err)?.into_inner())
    }

    /// Decodes a recording from a WAV image produced by
    /// [`Recording::to_wav_bytes`] (or re-encoded at another sample rate —
    /// the audio is resampled back onto the pipeline's 44.1 kHz grid by
    /// `uw-audio`'s streaming resampler). The file is streamed in blocks;
    /// only the decoded `f64` segments are held.
    pub fn from_wav_bytes(bytes: Vec<u8>) -> Result<Self> {
        let reader = read_wav_bytes(bytes).map_err(audio_err)?;
        if reader.spec().channels != 2 {
            return Err(SystemError::InvalidConfig {
                reason: format!(
                    "a recording is a 2-channel (dual-microphone) WAV; this file has {}",
                    reader.spec().channels
                ),
            });
        }
        let dir_bytes = reader
            .chunk(DIRECTORY_CHUNK)
            .ok_or_else(|| SystemError::InvalidConfig {
                reason: "WAV has no uwRD directory chunk; not a cell recording".into(),
            })?
            .to_vec();
        let mut dir = Reader::new(&dir_bytes);
        let version = dir.u8("version").map_err(dir_err)?;
        if version != DIRECTORY_VERSION {
            return Err(SystemError::InvalidConfig {
                reason: format!("unsupported recording directory version {version}"),
            });
        }
        let slug = dir.str(Prefix::U8, "environment slug").map_err(dir_err)?;
        let environment = *EnvironmentKind::ALL
            .iter()
            .find(|k| k.slug() == slug)
            .ok_or_else(|| SystemError::InvalidConfig {
                reason: format!("unknown environment slug {slug:?} in recording"),
            })?;
        let n_devices = dir.u16("device count").map_err(dir_err)? as usize;
        let condition = dir.code(&CONDITIONS, "condition").map_err(dir_err)?;
        let condition = condition(dir.f64("condition parameter").map_err(dir_err)?);
        let mobility = dir.code(&MOBILITIES, "mobility").map_err(dir_err)?;
        let mobility = mobility(dir.f64("mobility speed").map_err(dir_err)?);
        let numeric_path = dir.code(&PATHS, "numeric path").map_err(dir_err)?;
        let seed = dir.u64("seed").map_err(dir_err)?;
        let rounds = dir.u32("rounds").map_err(dir_err)? as usize;
        let scale = dir.f64("gain").map_err(dir_err)?;
        if !(scale.is_finite() && scale > 0.0) {
            return Err(SystemError::InvalidConfig {
                reason: format!("recording gain {scale} is not a positive finite number"),
            });
        }
        let n_segments = dir.u32("segment count").map_err(dir_err)? as usize;
        let n_segments = dir
            .count(n_segments, ENTRY_BYTES, "segments")
            .map_err(dir_err)?;
        let entries = (0..n_segments)
            .map(|_| {
                Ok((
                    dir.u32("segment round")? as usize,
                    dir.u32("segment device")? as usize,
                    dir.u64("segment start")?,
                    dir.u64("mic1 length")?,
                    dir.u64("mic2 length")?,
                ))
            })
            .collect::<std::result::Result<Vec<_>, CodecError>>()
            .map_err(dir_err)?;

        // Stream the audio once, front to back, slicing segments off as
        // their frames arrive (segments are stored contiguously in
        // directory order). Recordings made at a non-pipeline rate are
        // resampled on the fly; segment boundaries then scale by the same
        // ratio.
        let file_rate = reader.spec().sample_rate as f64;
        let ratio = uw_dsp::SAMPLE_RATE / file_rate;
        let mut source =
            ReplaySource::new(reader, uw_dsp::SAMPLE_RATE, 1 << 15).map_err(audio_err)?;
        let mut mic1_all: Vec<f64> = Vec::new();
        let mut mic2_all: Vec<f64> = Vec::new();
        while let Some(block) = source.next_block().map_err(audio_err)? {
            let mut channels = block.channels.into_iter();
            mic1_all.extend(channels.next().expect("2 channels checked above"));
            mic2_all.extend(channels.next().expect("2 channels checked above"));
        }

        let unscale = 1.0 / scale;
        let mut links = Vec::with_capacity(n_segments);
        let mut expected_start = 0u64;
        for (round, device, start, len1, len2) in entries {
            if start != expected_start {
                return Err(SystemError::InvalidConfig {
                    reason: format!(
                        "recording segments are not contiguous (round {round} device \
                         {device} starts at {start}, expected {expected_start})"
                    ),
                });
            }
            let slice = |all: &[f64], len: u64| -> Result<Vec<f64>> {
                let lo = (start as f64 * ratio).round() as usize;
                let n = (len as f64 * ratio).round() as usize;
                match lo.checked_add(n) {
                    Some(hi) if hi <= all.len() => {
                        Ok(all[lo..hi].iter().map(|s| s * unscale).collect())
                    }
                    _ => Err(SystemError::InvalidConfig {
                        reason: format!(
                            "recording audio ends at frame {} but the directory \
                             expects {lo} + {n}",
                            all.len()
                        ),
                    }),
                }
            };
            links.push(RecordedLink {
                round,
                device,
                capture: LinkCapture {
                    mic1: slice(&mic1_all, len1)?,
                    mic2: slice(&mic2_all, len2)?,
                },
            });
            expected_start = start.saturating_add(len1.max(len2));
        }
        Ok(Self {
            environment,
            n_devices,
            condition,
            mobility,
            numeric_path,
            seed,
            rounds,
            links,
        })
    }

    /// Writes the recording to a WAV file.
    pub fn save(&self, path: impl AsRef<std::path::Path>, format: SampleFormat) -> Result<()> {
        let bytes = self.to_wav_bytes(format)?;
        std::fs::write(path, bytes).map_err(|e| SystemError::Layer {
            layer: "audio",
            reason: e.to_string(),
        })
    }

    /// Reads a recording from a WAV file.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let bytes = std::fs::read(&path).map_err(|e| SystemError::Layer {
            layer: "audio",
            reason: format!("{}: {e}", path.as_ref().display()),
        })?;
        Self::from_wav_bytes(bytes)
    }
}

fn audio_err(e: uw_audio::AudioError) -> SystemError {
    SystemError::Layer {
        layer: "audio",
        reason: e.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Replay cells
// ---------------------------------------------------------------------------

/// A decoded recording indexed for the session's per-link lookups; the
/// [`LinkAudioSource`] implementation replay cells install on their
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

impl EvalCell {
    /// Builds a *replay cell* from a recording: the recorded scenario is
    /// reconstructed (same environment, topology, condition, mobility and
    /// seed, at hybrid fidelity), the decoded audio is installed as the
    /// session's [`LinkAudioSource`], and the cell id gains a
    /// [`REPLAY_SEGMENT`] before the seed
    /// (`dock/5dev/clear/static/replay/s1`), so replayed and simulated
    /// statistics never collide in a report. The cell runs through the
    /// same [`crate::runner::CellExecution`] / [`crate::report::EvalReport`]
    /// machinery — and through `uw-serve` jobs — unchanged.
    pub fn from_recording(recording: &Recording) -> Result<Self> {
        Self::from_recording_with_path(recording, recording.numeric_path)
    }

    /// As [`EvalCell::from_recording`], but replaying on an explicitly
    /// chosen numeric path. Captures are path-independent (channel
    /// synthesis is pure `f64`), so one recording drives the `f64` oracle,
    /// the single-precision f32 path, and the on-device Q15 pipeline alike.
    pub fn from_recording_with_path(recording: &Recording, path: NumericPath) -> Result<Self> {
        let matrix = ScenarioMatrix {
            environments: vec![recording.environment],
            topologies: vec![Topology::Group(recording.n_devices)],
            conditions: vec![recording.condition],
            mobilities: vec![recording.mobility],
            numeric_paths: vec![path],
            faults: vec![None],
            seeds: vec![recording.seed],
            recordings: vec![],
            rounds_per_cell: recording.rounds,
            fidelity: Fidelity::Hybrid,
        };
        let mut cell = matrix.expand()?.remove(0);
        let mut segments: Vec<&str> = cell.id.split('/').collect();
        segments.insert(segments.len() - 1, REPLAY_SEGMENT);
        let id = segments.join("/");
        cell.id = id.clone();
        cell.scenario.set_name(id);
        cell.replay = Some(Arc::new(ReplayAudio::new(recording)));
        Ok(cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_cell;

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
    fn wav_roundtrip_preserves_the_directory_and_float32_audio() {
        let cell = tiny_hybrid_cell(1);
        let recording = record_cell(&cell).unwrap();
        let bytes = recording.to_wav_bytes(SampleFormat::Float32).unwrap();
        let decoded = Recording::from_wav_bytes(bytes).unwrap();
        assert_eq!(decoded.environment, recording.environment);
        assert_eq!(decoded.n_devices, 5);
        assert_eq!(decoded.condition, LinkProfile::Clear);
        assert_eq!(decoded.mobility, MobilityProfile::Static);
        assert_eq!(decoded.seed, 1);
        assert_eq!(decoded.rounds, 1);
        assert_eq!(decoded.links.len(), recording.links.len());
        for (a, b) in decoded.links.iter().zip(recording.links.iter()) {
            assert_eq!((a.round, a.device), (b.round, b.device));
            assert_eq!(a.capture.mic1.len(), b.capture.mic1.len());
            assert_eq!(a.capture.mic2.len(), b.capture.mic2.len());
            for (x, y) in a.capture.mic1.iter().zip(b.capture.mic1.iter()) {
                assert!((x - y).abs() < 1e-6, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn replay_cell_reproduces_the_simulated_cell() {
        let cell = tiny_hybrid_cell(1);
        let simulated = run_cell(&cell).unwrap();
        let recording = record_cell(&cell).unwrap();
        let bytes = recording.to_wav_bytes(SampleFormat::Float32).unwrap();
        let decoded = Recording::from_wav_bytes(bytes).unwrap();
        let replay = EvalCell::from_recording(&decoded).unwrap();
        assert_eq!(replay.id, "dock/5dev/clear/static/replay/s1");
        let replayed = run_cell(&replay).unwrap();
        assert_eq!(replayed.rounds_completed, 1);
        // Float32 storage keeps the waveform to ~1e-7; the integer tap
        // decisions are identical, so the statistics agree to float32
        // precision.
        assert!(
            (replayed.error_2d.median - simulated.error_2d.median).abs() < 1e-3,
            "replay median {} vs simulated {}",
            replayed.error_2d.median,
            simulated.error_2d.median
        );
    }

    #[test]
    fn replay_without_captures_fails_the_rounds() {
        let cell = tiny_hybrid_cell(1);
        let mut recording = record_cell(&cell).unwrap();
        recording.links.clear();
        let replay = EvalCell::from_recording(&recording).unwrap();
        let report = run_cell(&replay).unwrap();
        assert_eq!(report.rounds_completed, 0);
        assert_eq!(report.rounds_failed, 1);
    }

    #[test]
    fn malformed_recordings_are_rejected() {
        // Not a recording at all.
        let plain = uw_audio::wav::write_wav_bytes(
            WavSpec {
                sample_rate: 44_100,
                channels: 2,
                format: SampleFormat::Pcm16,
            },
            &[0.0; 64],
        )
        .unwrap();
        assert!(Recording::from_wav_bytes(plain).is_err());
        // Mono file.
        let mono = uw_audio::wav::write_wav_bytes(
            WavSpec {
                sample_rate: 44_100,
                channels: 1,
                format: SampleFormat::Pcm16,
            },
            &[0.0; 64],
        )
        .unwrap();
        assert!(Recording::from_wav_bytes(mono).is_err());
        // Truncated directory chunk.
        let cell = tiny_hybrid_cell(1);
        let recording = record_cell(&cell).unwrap();
        let good = recording.to_wav_bytes(SampleFormat::Pcm16).unwrap();
        let reader = read_wav_bytes(good).unwrap();
        let dir = reader.chunk(DIRECTORY_CHUNK).unwrap();
        let mut writer = WavWriter::new(
            std::io::Cursor::new(Vec::new()),
            WavSpec {
                sample_rate: 44_100,
                channels: 2,
                format: SampleFormat::Pcm16,
            },
        )
        .unwrap();
        writer
            .add_chunk(DIRECTORY_CHUNK, &dir[..dir.len() / 2])
            .unwrap();
        writer.write_interleaved(&[0.0; 32]).unwrap();
        let truncated = writer.finalize().unwrap().into_inner();
        let err = Recording::from_wav_bytes(truncated).unwrap_err();
        // Either the cursor bounds check or the segment-count bound fires
        // first depending on where the cut lands; both are clean errors.
        let msg = err.to_string();
        assert!(
            msg.contains("truncated") || msg.contains("segments"),
            "{msg}"
        );
    }

    #[test]
    fn hostile_segment_counts_error_instead_of_allocating() {
        // A directory declaring u32::MAX segments must be rejected by the
        // bytes-remaining bound, not fed to Vec::with_capacity.
        let cell = tiny_hybrid_cell(1);
        let recording = record_cell(&cell).unwrap();
        let good = recording.to_wav_bytes(SampleFormat::Pcm16).unwrap();
        let reader = read_wav_bytes(good).unwrap();
        let mut dir = reader.chunk(DIRECTORY_CHUNK).unwrap().to_vec();
        // n_segments sits after: version(1), slug(1+len), n_devices(2),
        // condition(1+8), mobility(1+8), path(1), seed(8), rounds(4),
        // scale(8).
        let slug_len = dir[1] as usize;
        let off = 1 + 1 + slug_len + 2 + 9 + 9 + 1 + 8 + 4 + 8;
        dir[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut writer = WavWriter::new(
            std::io::Cursor::new(Vec::new()),
            WavSpec {
                sample_rate: 44_100,
                channels: 2,
                format: SampleFormat::Pcm16,
            },
        )
        .unwrap();
        writer.add_chunk(DIRECTORY_CHUNK, &dir).unwrap();
        writer.write_interleaved(&[0.0; 32]).unwrap();
        let hostile = writer.finalize().unwrap().into_inner();
        let err = Recording::from_wav_bytes(hostile).unwrap_err();
        assert!(err.to_string().contains("segments"), "{err}");
    }
}
