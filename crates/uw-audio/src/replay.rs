//! Streaming replay: chunked decode + resample of a recording.
//!
//! [`ReplaySource`] turns a [`WavReader`] into a stream of per-channel
//! `f64` blocks at a target rate — the shape the ranging pipeline consumes.
//! Decoding is chunked (a fixed number of frames per pull, each pull
//! decoded by [`WavReader::read_channels`] straight into one buffer per
//! channel) and the resampler phase persists across blocks, so a
//! multi-hour dive recording is replayed with bounded memory and identical
//! samples to a one-shot decode. At the file's own rate those buffers are
//! the block's channels as decoded.

use crate::resample::StreamingLinearResampler;
use crate::wav::WavReader;
use crate::Result;
use std::io::{Read, Seek};

/// One decoded block: deinterleaved channels at the source's target rate.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayBlock {
    /// Per-channel samples (`channels[c][i]`), all the same length.
    pub channels: Vec<Vec<f64>>,
    /// Index of this block's first frame in the *output* (resampled)
    /// stream.
    pub start_frame: u64,
}

/// A chunked decode-and-resample stream over a WAV recording.
///
/// ```
/// use uw_audio::wav::{write_wav_bytes, read_wav_bytes, SampleFormat, WavSpec};
/// use uw_audio::replay::ReplaySource;
///
/// let spec = WavSpec { sample_rate: 44_100, channels: 1, format: SampleFormat::Float32 };
/// let bytes = write_wav_bytes(spec, &vec![0.25; 1000]).unwrap();
/// let mut source = ReplaySource::new(read_wav_bytes(bytes).unwrap(), 44_100.0, 300).unwrap();
/// let mut total = 0;
/// while let Some(block) = source.next_block().unwrap() {
///     total += block.channels[0].len();
/// }
/// assert_eq!(total, 1000); // unity ratio: frame-exact passthrough
/// ```
pub struct ReplaySource<R: Read + Seek> {
    reader: WavReader<R>,
    /// One streaming resampler per channel (kept in phase lock-step).
    resamplers: Option<Vec<StreamingLinearResampler>>,
    block_frames: usize,
    frames_emitted: u64,
    finished: bool,
}

impl<R: Read + Seek> ReplaySource<R> {
    /// Wraps `reader`, resampling to `target_rate` Hz (a no-op when the
    /// file already matches) and emitting roughly `block_frames` frames
    /// per block.
    pub fn new(reader: WavReader<R>, target_rate: f64, block_frames: usize) -> Result<Self> {
        let file_rate = reader.spec().sample_rate as f64;
        if !(target_rate.is_finite() && target_rate > 0.0) {
            return Err(crate::AudioError::InvalidParameter {
                reason: "target rate must be positive and finite".into(),
            });
        }
        let resamplers = if (file_rate - target_rate).abs() > 1e-9 {
            let ratio = target_rate / file_rate;
            let per_channel = (0..reader.spec().channels)
                .map(|_| StreamingLinearResampler::new(ratio))
                .collect::<Result<Vec<_>>>()?;
            Some(per_channel)
        } else {
            None
        };
        Ok(Self {
            reader,
            resamplers,
            block_frames: block_frames.max(1),
            frames_emitted: 0,
            finished: false,
        })
    }

    /// The underlying reader (spec, remaining frames).
    pub fn reader(&self) -> &WavReader<R> {
        &self.reader
    }

    /// Whether this source resamples (file rate ≠ target rate).
    pub fn resamples(&self) -> bool {
        self.resamplers.is_some()
    }

    /// Pulls the next block; `None` once the recording is exhausted (the
    /// final block may be shorter than the configured size).
    pub fn next_block(&mut self) -> Result<Option<ReplayBlock>> {
        // A resampled pull can legitimately produce zero output frames
        // (small block, strong downsampling); loop — not recurse, depth
        // would scale with 1/(ratio·block_frames) — until frames emerge
        // or the stream ends.
        loop {
            if self.finished {
                return Ok(None);
            }
            let per_channel = self.reader.read_channels(self.block_frames)?;
            let at_end = self.reader.frames_remaining() == 0;
            let out: Vec<Vec<f64>> = match &mut self.resamplers {
                Some(resamplers) => {
                    let mut out: Vec<Vec<f64>> = resamplers
                        .iter_mut()
                        .zip(per_channel.iter())
                        .map(|(r, ch)| r.process_block(ch))
                        .collect();
                    if at_end {
                        for (r, ch) in resamplers.iter_mut().zip(out.iter_mut()) {
                            ch.extend(r.finish());
                        }
                    }
                    out
                }
                None => per_channel,
            };
            if at_end {
                self.finished = true;
            }
            if out[0].is_empty() {
                continue;
            }
            let block = ReplayBlock {
                start_frame: self.frames_emitted,
                channels: out,
            };
            self.frames_emitted += block.channels[0].len() as u64;
            return Ok(Some(block));
        }
    }

    /// Drains the stream into whole per-channel buffers (convenience for
    /// short recordings and tests).
    pub fn collect_channels(mut self) -> Result<Vec<Vec<f64>>> {
        let channels = self.reader.spec().channels as usize;
        let mut out = vec![Vec::new(); channels];
        while let Some(block) = self.next_block()? {
            for (c, ch) in block.channels.into_iter().enumerate() {
                out[c].extend(ch);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wav::{read_wav_bytes, write_wav_bytes, SampleFormat, WavSpec};

    fn two_channel_bytes(rate: u32, frames: usize) -> Vec<u8> {
        let spec = WavSpec {
            sample_rate: rate,
            channels: 2,
            format: SampleFormat::Float32,
        };
        let interleaved: Vec<f64> = (0..frames)
            .flat_map(|i| {
                let t = i as f64 * 0.01;
                [t.sin() * 0.5, t.cos() * 0.25]
            })
            .collect();
        write_wav_bytes(spec, &interleaved).unwrap()
    }

    #[test]
    fn passthrough_blocks_cover_the_stream_in_order() {
        let bytes = two_channel_bytes(44_100, 1000);
        let mut source = ReplaySource::new(read_wav_bytes(bytes).unwrap(), 44_100.0, 300).unwrap();
        assert!(!source.resamples());
        let mut starts = Vec::new();
        let mut total = 0;
        while let Some(block) = source.next_block().unwrap() {
            assert_eq!(block.channels.len(), 2);
            assert_eq!(block.channels[0].len(), block.channels[1].len());
            starts.push(block.start_frame);
            total += block.channels[0].len();
        }
        assert_eq!(total, 1000);
        assert_eq!(starts, vec![0, 300, 600, 900]);
    }

    #[test]
    fn chunked_replay_equals_one_shot_decode_when_resampling() {
        let bytes = two_channel_bytes(22_050, 800);
        let chunked = ReplaySource::new(read_wav_bytes(bytes.clone()).unwrap(), 44_100.0, 111)
            .unwrap()
            .collect_channels()
            .unwrap();
        let one_shot = ReplaySource::new(read_wav_bytes(bytes).unwrap(), 44_100.0, 100_000)
            .unwrap()
            .collect_channels()
            .unwrap();
        assert_eq!(chunked.len(), 2);
        for (a, b) in chunked.iter().zip(one_shot.iter()) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x - y).abs() < 1e-12);
            }
        }
        // ~2× the input length after 22.05 → 44.1 kHz.
        assert!((chunked[0].len() as i64 - 1600).abs() <= 2);
    }

    #[test]
    fn invalid_target_rate_is_rejected() {
        let bytes = two_channel_bytes(44_100, 10);
        assert!(ReplaySource::new(read_wav_bytes(bytes).unwrap(), 0.0, 100).is_err());
    }
}
