//! # uw-audio — real-audio ingestion for the ranging pipeline
//!
//! The paper's evaluation is driven by real hydrophone recordings; this
//! crate is the bridge between recorded (or synthetically recorded) PCM
//! audio and the waveform-level DSP in `uw-ranging`:
//!
//! * [`wav`] — a hand-rolled, dependency-free RIFF/WAVE reader and writer
//!   covering the formats dive recorders actually produce (PCM16, PCM24,
//!   PCM32 and IEEE float32; mono and interleaved multichannel). Reads are
//!   chunked ([`wav::WavReader::read_frames`]), so a long dive recording
//!   never fully materializes in memory, and writers can attach small
//!   custom metadata chunks (the replay layer in `uw-eval` stores its
//!   segment directory that way). Malformed or truncated files produce
//!   [`AudioError`]s, never panics.
//! * [`resample`] — linear and polyphase windowed-sinc resamplers for
//!   bringing a recording at an arbitrary rate onto the pipeline's
//!   44.1 kHz grid, including a streaming linear resampler whose phase
//!   persists across blocks.
//! * [`replay`] — [`replay::ReplaySource`]: a chunked decode-and-resample
//!   stream over a `WavReader` that yields fixed-size per-channel `f64`
//!   blocks at a target rate, ready to feed `uw-ranging`'s detection and
//!   channel estimation in place of simulator output.
//! * [`burst`] — a bounded-memory streaming preamble detector
//!   ([`burst::BurstScanner`]) that finds every occurrence of a known
//!   template in an arbitrarily long capture via the overlap-save
//!   matched filter, with detections bitwise-identical across chunkings.
//! * [`skew`] — least-squares per-device clock-skew estimation
//!   ([`skew::estimate_skew_ppm`]) from the timing drift of detected
//!   bursts across a campaign.
//! * [`manifest`] — the `uwCM` campaign-manifest codec
//!   ([`manifest::CampaignManifest`]): a strict, fuzz-hardened binary
//!   record of a blind import (recording name, per-segment frame ranges,
//!   skew table, scenario axes) that lets evaluation load a scanned
//!   campaign without re-running the detector.
//! * [`codec`] — the bounded little-endian reader ([`codec::Reader`]),
//!   `put_*` writers, one-byte code tables and CRC-32 that every binary
//!   format of the workspace is written in: `uwCM` here, `uwRD` recording
//!   directories in `uw-eval` and `uwlz` serving frames in `uw-serve`.
//!   A fault is one [`codec::CodecError`] naming the field and its offset.
//!
//! ## Example: write, stream back, resample
//!
//! ```
//! use uw_audio::wav::{SampleFormat, WavReader, WavSpec, WavWriter};
//! use uw_audio::replay::ReplaySource;
//! use std::io::Cursor;
//!
//! // A 2-channel PCM16 file at 22.05 kHz.
//! let spec = WavSpec { sample_rate: 22_050, channels: 2, format: SampleFormat::Pcm16 };
//! let mut writer = WavWriter::new(Cursor::new(Vec::new()), spec).unwrap();
//! let frames: Vec<f64> = (0..2000).map(|i| (i as f64 * 0.01).sin() * 0.5).collect();
//! writer.write_interleaved(&frames).unwrap();
//! let bytes = writer.finalize().unwrap().into_inner();
//!
//! // Stream it back in blocks, resampled to the 44.1 kHz pipeline rate.
//! let reader = WavReader::new(Cursor::new(bytes)).unwrap();
//! let mut source = ReplaySource::new(reader, 44_100.0, 256).unwrap();
//! let mut decoded_frames = 0;
//! while let Some(block) = source.next_block().unwrap() {
//!     assert_eq!(block.channels.len(), 2);
//!     decoded_frames += block.channels[0].len();
//! }
//! // 1000 input frames become ~2000 after 22.05 → 44.1 kHz resampling.
//! assert!((decoded_frames as i64 - 2000).abs() <= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod burst;
pub mod codec;
pub mod manifest;
pub mod replay;
pub mod resample;
pub mod skew;
pub mod wav;

pub use burst::{scan_all, Burst, BurstScanner};
pub use manifest::{CampaignManifest, SegmentRange, MANIFEST_MAGIC, MANIFEST_VERSION};
pub use replay::{ReplayBlock, ReplaySource};
pub use resample::{resample_linear, SincResampler, StreamingLinearResampler};
pub use skew::{estimate_skew_ppm, SKEW_DEADBAND_PPM, SKEW_MAX_PPM};
pub use wav::{SampleFormat, WavReader, WavSpec, WavWriter};

/// Errors produced by the audio ingestion layer.
#[derive(Debug, Clone, PartialEq)]
pub enum AudioError {
    /// The file is not a RIFF/WAVE container, or a required chunk is
    /// missing or malformed.
    MalformedFile {
        /// What was wrong.
        reason: String,
    },
    /// The container is valid WAV but uses a format this reader does not
    /// support (compressed codecs, unusual bit depths).
    UnsupportedFormat {
        /// What was unsupported.
        reason: String,
    },
    /// The file ended before its declared sizes were satisfied.
    Truncated {
        /// Where the data ran out.
        reason: String,
    },
    /// An invalid parameter was passed to an encoder or resampler.
    InvalidParameter {
        /// What was invalid.
        reason: String,
    },
    /// An underlying I/O operation failed.
    Io {
        /// The I/O error, stringified (keeps the error type `Clone`).
        reason: String,
    },
}

impl std::fmt::Display for AudioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AudioError::MalformedFile { reason } => write!(f, "malformed WAV file: {reason}"),
            AudioError::UnsupportedFormat { reason } => {
                write!(f, "unsupported WAV format: {reason}")
            }
            AudioError::Truncated { reason } => write!(f, "truncated WAV file: {reason}"),
            AudioError::InvalidParameter { reason } => write!(f, "invalid parameter: {reason}"),
            AudioError::Io { reason } => write!(f, "audio I/O error: {reason}"),
        }
    }
}

impl std::error::Error for AudioError {}

impl From<std::io::Error> for AudioError {
    fn from(e: std::io::Error) -> Self {
        // Unexpected EOF mid-read means the file is shorter than its
        // headers claim — surface that as truncation, not generic I/O.
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            AudioError::Truncated {
                reason: e.to_string(),
            }
        } else {
            AudioError::Io {
                reason: e.to_string(),
            }
        }
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, AudioError>;
