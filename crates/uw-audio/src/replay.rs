//! Streaming replay: chunked decode + resample of a recording.
//!
//! [`ReplaySource`] turns a [`WavReader`] into a stream of per-channel
//! `f64` blocks at a target rate — the shape the ranging pipeline consumes.
//! Decoding is chunked (a fixed number of frames per pull, each pull
//! decoded by [`WavReader::read_selected`] straight into one buffer per
//! channel) and the resampler phase persists across blocks, so a
//! multi-hour dive recording is replayed with bounded memory. At the
//! file's own rate those buffers are the block's channels as decoded.
//!
//! A source reads only what its caller uses. Opened with
//! [`ReplaySource::with_channels`], it converts only those channels (the
//! burst scan reads one microphone of two). [`ReplaySource::skip`] and
//! [`ReplaySource::read`] hand out exact frame ranges instead of blocks:
//! at the file's own rate a skip seeks past frames undecoded and a read
//! decodes exactly its frames into the buffers it returns, so a reader of
//! scattered segments holds those segments and nothing else. When
//! resampling, a skip decodes, resamples and drops its frames, so the
//! frames a read returns are always those the block stream would carry
//! there, bit for bit.

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
    /// The file channels decoded, in block order.
    channels: Vec<usize>,
    /// One streaming resampler per decoded channel (kept in phase
    /// lock-step).
    resamplers: Option<Vec<StreamingLinearResampler>>,
    block_frames: usize,
    /// Output frames handed out or skipped so far.
    position: u64,
    /// Resampled frames decoded past a skip or read; those from
    /// `pending_at` on are the next to hand out.
    pending: Vec<Vec<f64>>,
    pending_at: usize,
    finished: bool,
}

impl<R: Read + Seek> ReplaySource<R> {
    /// Wraps `reader`, resampling to `target_rate` Hz (a no-op when the
    /// file already matches) and emitting roughly `block_frames` frames
    /// per block.
    pub fn new(reader: WavReader<R>, target_rate: f64, block_frames: usize) -> Result<Self> {
        let all: Vec<usize> = (0..reader.spec().channels as usize).collect();
        Self::with_channels(reader, target_rate, block_frames, &all)
    }

    /// As [`ReplaySource::new`], but decodes only the file's `channels`
    /// (at least one), whose buffers every block carries in that order;
    /// the others are never converted. A float32 sample that is NaN or
    /// infinite still fails the read in any channel
    /// ([`WavReader::read_selected`]).
    pub fn with_channels(
        reader: WavReader<R>,
        target_rate: f64,
        block_frames: usize,
        channels: &[usize],
    ) -> Result<Self> {
        let file_rate = reader.spec().sample_rate as f64;
        if !(target_rate.is_finite() && target_rate > 0.0) {
            return Err(crate::AudioError::InvalidParameter {
                reason: "target rate must be positive and finite".into(),
            });
        }
        let n = reader.spec().channels as usize;
        if channels.is_empty() || channels.iter().any(|&c| c >= n) {
            return Err(crate::AudioError::InvalidParameter {
                reason: format!("channels {channels:?} do not select from a {n}-channel stream"),
            });
        }
        let resamplers = if (file_rate - target_rate).abs() > 1e-9 {
            let ratio = target_rate / file_rate;
            let per_channel = channels
                .iter()
                .map(|_| StreamingLinearResampler::new(ratio))
                .collect::<Result<Vec<_>>>()?;
            Some(per_channel)
        } else {
            None
        };
        Ok(Self {
            reader,
            channels: channels.to_vec(),
            resamplers,
            block_frames: block_frames.max(1),
            position: 0,
            pending: Vec::new(),
            pending_at: 0,
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

    /// Output frames handed out or skipped so far: the index of the next
    /// frame in the output (resampled) stream.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Pulls the next block; `None` once the recording is exhausted (the
    /// final block may be shorter than the configured size).
    pub fn next_block(&mut self) -> Result<Option<ReplayBlock>> {
        let mut channels = std::mem::take(&mut self.pending);
        for ch in &mut channels {
            ch.drain(..self.pending_at);
        }
        self.pending_at = 0;
        // A resampled pull can legitimately produce zero output frames
        // (small block, strong downsampling); loop — not recurse, depth
        // would scale with 1/(ratio·block_frames) — until frames emerge
        // or the stream ends.
        while channels.first().is_none_or(Vec::is_empty) {
            match self.pull()? {
                Some(out) => channels = out,
                None => return Ok(None),
            }
        }
        let block = ReplayBlock {
            start_frame: self.position,
            channels,
        };
        self.position += block.channels[0].len() as u64;
        Ok(Some(block))
    }

    /// Skips the next `frames` output frames and returns how many it
    /// skipped (fewer only where the stream ends). At the file's own rate
    /// it seeks past them undecoded; when resampling it decodes, resamples
    /// and drops them, so the resampler's phase carries on exactly as if
    /// they had been read.
    pub fn skip(&mut self, frames: u64) -> Result<u64> {
        if self.resamplers.is_some() {
            return self.take_resampled(frames, None);
        }
        let skipped = frames.min(self.reader.frames_remaining());
        let at = self.reader.total_frames() - self.reader.frames_remaining();
        self.reader.seek_frame(at + skipped)?;
        self.position += skipped;
        Ok(skipped)
    }

    /// Reads the next `frames` output frames, one buffer per decoded
    /// channel (shorter only where the stream ends). At the file's own
    /// rate this decodes exactly those frames, with no block in between.
    pub fn read(&mut self, frames: usize) -> Result<Vec<Vec<f64>>> {
        if self.resamplers.is_some() {
            let mut out = vec![Vec::new(); self.channels.len()];
            self.take_resampled(frames as u64, Some(&mut out))?;
            return Ok(out);
        }
        let out = self.reader.read_selected(frames, &self.channels)?;
        self.position += out[0].len() as u64;
        Ok(out)
    }

    /// Drains the stream into whole per-channel buffers (convenience for
    /// short recordings and tests).
    pub fn collect_channels(mut self) -> Result<Vec<Vec<f64>>> {
        let mut out = vec![Vec::new(); self.channels.len()];
        while let Some(block) = self.next_block()? {
            for (c, ch) in block.channels.into_iter().enumerate() {
                out[c].extend(ch);
            }
        }
        Ok(out)
    }

    /// Decodes and resamples the next reader block; `None` once the
    /// recording is exhausted. The block may hold no frames.
    fn pull(&mut self) -> Result<Option<Vec<Vec<f64>>>> {
        if self.finished {
            return Ok(None);
        }
        let decoded = self
            .reader
            .read_selected(self.block_frames, &self.channels)?;
        let at_end = self.reader.frames_remaining() == 0;
        self.finished = at_end;
        Ok(Some(match &mut self.resamplers {
            Some(resamplers) => resamplers
                .iter_mut()
                .zip(&decoded)
                .map(|(r, ch)| {
                    let mut out = r.process_block(ch);
                    if at_end {
                        out.extend(r.finish());
                    }
                    out
                })
                .collect(),
            None => decoded,
        }))
    }

    /// Moves the next `frames` resampled frames out of the pending block
    /// and the pulls after it, appending them to `out` when given, and
    /// returns how many it moved (fewer only where the stream ends).
    fn take_resampled(&mut self, frames: u64, mut out: Option<&mut Vec<Vec<f64>>>) -> Result<u64> {
        let mut moved = 0;
        while moved < frames {
            let buffered = self.pending.first().map_or(0, Vec::len) - self.pending_at;
            if buffered == 0 {
                match self.pull()? {
                    Some(block) => (self.pending, self.pending_at) = (block, 0),
                    None => break,
                }
                continue;
            }
            let k = (frames - moved).min(buffered as u64) as usize;
            if let Some(out) = out.as_deref_mut() {
                for (o, p) in out.iter_mut().zip(&self.pending) {
                    o.extend_from_slice(&p[self.pending_at..self.pending_at + k]);
                }
            }
            self.pending_at += k;
            moved += k as u64;
        }
        self.position += moved;
        Ok(moved)
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
    fn skips_and_reads_are_slices_of_the_whole_stream_bitwise() {
        // At the file's rate (seeks) and resampled from 22.05 and 48 kHz
        // (decode-and-drop, phase carried), on one channel and on both in
        // swapped order: spans that end inside a block, cross blocks, run
        // into the pending frames a skip left, and run past the end.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for rate in [44_100, 22_050, 48_000] {
            let bytes = two_channel_bytes(rate, 1_000);
            for channels in [vec![1], vec![1, 0]] {
                let open = || read_wav_bytes(bytes.clone()).unwrap();
                let whole = ReplaySource::with_channels(open(), 44_100.0, 97, &channels)
                    .unwrap()
                    .collect_channels()
                    .unwrap();
                let total = whole[0].len() as u64;
                let mut source =
                    ReplaySource::with_channels(open(), 44_100.0, 97, &channels).unwrap();
                for (skip, read) in [(0, 5), (3, 150), (200, 1), (0, 90), (10, 2_000)] {
                    let start = (source.position() + skip).min(total);
                    let skipped = start - source.position();
                    assert_eq!(source.skip(skip).unwrap(), skipped);
                    assert_eq!(source.position(), start);
                    let got = source.read(read).unwrap();
                    let end = (start + read as u64).min(total);
                    assert_eq!(source.position(), end);
                    for (g, w) in got.iter().zip(&whole) {
                        assert_eq!(bits(g), bits(&w[start as usize..end as usize]), "{rate} Hz");
                    }
                }
                assert_eq!(source.skip(1).unwrap(), 0);
                assert!(source.next_block().unwrap().is_none());
                // A block pulled after a skip starts where the skip left off.
                let mut source =
                    ReplaySource::with_channels(open(), 44_100.0, 97, &channels).unwrap();
                source.skip(130).unwrap();
                let block = source.next_block().unwrap().unwrap();
                assert_eq!(block.start_frame, 130);
                let end = 130 + block.channels[0].len();
                assert_eq!(bits(&block.channels[0]), bits(&whole[0][130..end]));
            }
        }
    }

    #[test]
    fn invalid_target_rate_is_rejected() {
        let bytes = two_channel_bytes(44_100, 10);
        assert!(ReplaySource::new(read_wav_bytes(bytes).unwrap(), 0.0, 100).is_err());
    }

    #[test]
    fn channels_outside_the_file_are_rejected() {
        let bytes = two_channel_bytes(44_100, 10);
        let open = || read_wav_bytes(bytes.clone()).unwrap();
        assert!(ReplaySource::with_channels(open(), 44_100.0, 100, &[]).is_err());
        assert!(ReplaySource::with_channels(open(), 44_100.0, 100, &[2]).is_err());
    }
}
