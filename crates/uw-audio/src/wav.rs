//! Hand-rolled RIFF/WAVE encoding and decoding.
//!
//! Covers what dive recorders and phone audio stacks actually emit: PCM16,
//! PCM24, PCM32 and IEEE float32 samples, mono or interleaved multichannel,
//! in a plain `RIFF`/`WAVE` container. The reader scans the chunk list once
//! at open (bounds-checking and skipping unknown chunks, such as the `LIST`
//! and `bext` chunks phone recorders write, and odd-size padding), then
//! streams the data chunk in caller-sized blocks, each decoded straight
//! into one buffer per channel, so arbitrarily long recordings are decoded
//! incrementally; the writer streams samples out and patches the declared
//! sizes on finalize. A read may convert only some of the channels
//! ([`WavReader::read_selected`]), and [`WavReader::seek_frame`] moves to
//! any frame without decoding the frames before it, so a caller converts
//! only the samples it uses.
//!
//! Every malformed input — bad magic, impossible field combinations,
//! declared sizes beyond the end of the file — is a structured
//! [`AudioError`], never a panic. A float32 sample that is NaN or
//! infinite fails the read that covers it, in a channel the read converts
//! or not.

use crate::{AudioError, Result};
use std::io::{Read, Seek, SeekFrom, Write};

/// Sample encodings supported by the reader and writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleFormat {
    /// 16-bit signed integer PCM.
    Pcm16,
    /// 24-bit signed integer PCM (3 bytes per sample).
    Pcm24,
    /// 32-bit signed integer PCM.
    Pcm32,
    /// 32-bit IEEE float (WAVE format code 3).
    Float32,
}

impl SampleFormat {
    /// Bytes occupied by one sample.
    pub fn bytes_per_sample(&self) -> usize {
        match self {
            SampleFormat::Pcm16 => 2,
            SampleFormat::Pcm24 => 3,
            SampleFormat::Pcm32 | SampleFormat::Float32 => 4,
        }
    }

    /// Bits per sample as declared in the `fmt ` chunk.
    pub fn bits_per_sample(&self) -> u16 {
        (self.bytes_per_sample() * 8) as u16
    }

    /// WAVE format code: 1 for integer PCM, 3 for IEEE float.
    pub fn format_code(&self) -> u16 {
        match self {
            SampleFormat::Float32 => 3,
            _ => 1,
        }
    }

    /// The four formats, for table-driven tests and benches.
    pub const ALL: [SampleFormat; 4] = [
        SampleFormat::Pcm16,
        SampleFormat::Pcm24,
        SampleFormat::Pcm32,
        SampleFormat::Float32,
    ];

    /// Short lowercase name (`pcm16`, …).
    pub fn name(&self) -> &'static str {
        match self {
            SampleFormat::Pcm16 => "pcm16",
            SampleFormat::Pcm24 => "pcm24",
            SampleFormat::Pcm32 => "pcm32",
            SampleFormat::Float32 => "float32",
        }
    }

    fn from_fmt(format_code: u16, bits: u16) -> Result<Self> {
        match (format_code, bits) {
            (1, 16) => Ok(SampleFormat::Pcm16),
            (1, 24) => Ok(SampleFormat::Pcm24),
            (1, 32) => Ok(SampleFormat::Pcm32),
            (3, 32) => Ok(SampleFormat::Float32),
            _ => Err(AudioError::UnsupportedFormat {
                reason: format!("format code {format_code} with {bits} bits per sample"),
            }),
        }
    }

    /// Encodes one normalized sample into `out` (little-endian). Values
    /// outside [-1, 1] are clamped, as a real ADC would.
    fn encode(&self, value: f64, out: &mut Vec<u8>) {
        let v = value.clamp(-1.0, 1.0);
        match self {
            SampleFormat::Pcm16 => {
                let q = (v * 32767.0).round() as i16;
                out.extend_from_slice(&q.to_le_bytes());
            }
            SampleFormat::Pcm24 => {
                let q = (v * 8_388_607.0).round() as i32;
                out.extend_from_slice(&q.to_le_bytes()[..3]);
            }
            SampleFormat::Pcm32 => {
                let q = (v * 2_147_483_647.0).round() as i64 as i32;
                out.extend_from_slice(&q.to_le_bytes());
            }
            SampleFormat::Float32 => {
                out.extend_from_slice(&(v as f32).to_le_bytes());
            }
        }
    }

    /// Decodes one little-endian sample: the one-sample reference the
    /// per-channel decode is pinned against.
    #[cfg(test)]
    fn decode(&self, bytes: &[u8]) -> f64 {
        match self {
            SampleFormat::Pcm16 => pcm16([bytes[0], bytes[1]]),
            SampleFormat::Pcm24 => pcm24([bytes[0], bytes[1], bytes[2]]),
            SampleFormat::Pcm32 => pcm32([bytes[0], bytes[1], bytes[2], bytes[3]]),
            SampleFormat::Float32 => float32([bytes[0], bytes[1], bytes[2], bytes[3]]),
        }
    }
}

// One decoder per format, from a sample's little-endian bytes to a
// normalized `f64`. The scaling mirrors `SampleFormat::encode`, so
// decoding a value our writer produced and re-encoding it is byte-exact.

fn pcm16(b: [u8; 2]) -> f64 {
    i16::from_le_bytes(b) as f64 / 32767.0
}

fn pcm24(b: [u8; 3]) -> f64 {
    // Sign-extend the 24-bit value through the top byte.
    let q = i32::from_le_bytes([0, b[0], b[1], b[2]]) >> 8;
    q as f64 / 8_388_607.0
}

fn pcm32(b: [u8; 4]) -> f64 {
    i32::from_le_bytes(b) as f64 / 2_147_483_647.0
}

fn float32(b: [u8; 4]) -> f64 {
    f32::from_le_bytes(b) as f64
}

/// The decode loop: one strided pass per selected channel over the
/// `B`-byte samples of whole interleaved `channels`-wide frames, straight
/// into that channel's buffer. Channels not selected are not converted.
fn deinterleave<const B: usize>(
    bytes: &[u8],
    channels: usize,
    selected: &[usize],
    decode: impl Fn([u8; B]) -> f64,
) -> Vec<Vec<f64>> {
    let samples = bytes.as_chunks::<B>().0;
    selected
        .iter()
        .map(|&c| {
            samples
                .iter()
                .skip(c)
                .step_by(channels)
                .map(|&s| decode(s))
                .collect()
        })
        .collect()
}

/// Shape of a WAV stream: rate, channel count and sample encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WavSpec {
    /// Sampling rate in Hz.
    pub sample_rate: u32,
    /// Interleaved channel count (1 = mono).
    pub channels: u16,
    /// Sample encoding.
    pub format: SampleFormat,
}

impl WavSpec {
    /// Bytes per interleaved frame (one sample per channel).
    pub fn bytes_per_frame(&self) -> usize {
        self.format.bytes_per_sample() * self.channels as usize
    }

    fn validate(&self) -> Result<()> {
        if self.channels == 0 {
            return Err(AudioError::InvalidParameter {
                reason: "channel count must be at least 1".into(),
            });
        }
        if self.sample_rate == 0 {
            return Err(AudioError::InvalidParameter {
                reason: "sample rate must be positive".into(),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming WAV encoder over any `Write + Seek` sink.
///
/// Usage: [`WavWriter::new`] → [`WavWriter::write_interleaved`] as
/// samples become available → [`WavWriter::finalize`], which patches the
/// RIFF and `data` sizes and returns the sink. Dropping without
/// finalizing leaves the declared sizes zero — readers will reject the
/// file, which beats silently truncated audio.
#[derive(Debug)]
pub struct WavWriter<W: Write + Seek> {
    sink: W,
    spec: WavSpec,
    header_written: bool,
    /// Offset of the `data` chunk's size field, patched on finalize.
    data_size_offset: u64,
    data_bytes: u64,
    /// Staging buffer reused across writes.
    encode_buf: Vec<u8>,
}

impl<W: Write + Seek> WavWriter<W> {
    /// Creates a writer over `sink`. Nothing is written until the first
    /// samples force the header out.
    pub fn new(sink: W, spec: WavSpec) -> Result<Self> {
        spec.validate()?;
        Ok(Self {
            sink,
            spec,
            header_written: false,
            data_size_offset: 0,
            data_bytes: 0,
            encode_buf: Vec::new(),
        })
    }

    /// The spec this writer encodes to.
    pub fn spec(&self) -> &WavSpec {
        &self.spec
    }

    fn write_header(&mut self) -> Result<()> {
        // RIFF size is patched on finalize; 0 for now.
        self.sink.write_all(b"RIFF")?;
        self.sink.write_all(&0u32.to_le_bytes())?;
        self.sink.write_all(b"WAVE")?;

        // fmt chunk (16-byte PCM layout; float uses the same fields).
        let spec = self.spec;
        self.sink.write_all(b"fmt ")?;
        self.sink.write_all(&16u32.to_le_bytes())?;
        self.sink
            .write_all(&spec.format.format_code().to_le_bytes())?;
        self.sink.write_all(&spec.channels.to_le_bytes())?;
        self.sink.write_all(&spec.sample_rate.to_le_bytes())?;
        let byte_rate = spec.sample_rate as u64 * spec.bytes_per_frame() as u64;
        self.sink.write_all(&(byte_rate as u32).to_le_bytes())?;
        self.sink
            .write_all(&(spec.bytes_per_frame() as u16).to_le_bytes())?;
        self.sink
            .write_all(&spec.format.bits_per_sample().to_le_bytes())?;

        // data chunk header; size patched on finalize.
        self.sink.write_all(b"data")?;
        self.data_size_offset = self.sink.stream_position()?;
        self.sink.write_all(&0u32.to_le_bytes())?;
        self.header_written = true;
        Ok(())
    }

    /// Encodes and appends interleaved samples (`len` must be a multiple
    /// of the channel count). Values outside [-1, 1] are clamped.
    pub fn write_interleaved(&mut self, samples: &[f64]) -> Result<()> {
        if !samples.len().is_multiple_of(self.spec.channels as usize) {
            return Err(AudioError::InvalidParameter {
                reason: format!(
                    "{} samples do not form whole frames of {} channels",
                    samples.len(),
                    self.spec.channels
                ),
            });
        }
        if !self.header_written {
            self.write_header()?;
        }
        self.encode_buf.clear();
        self.encode_buf
            .reserve(samples.len() * self.spec.format.bytes_per_sample());
        for &s in samples {
            self.spec.format.encode(s, &mut self.encode_buf);
        }
        self.sink.write_all(&self.encode_buf)?;
        self.data_bytes += self.encode_buf.len() as u64;
        Ok(())
    }

    /// Pads the data chunk if needed, patches the declared sizes and
    /// returns the sink.
    pub fn finalize(mut self) -> Result<W> {
        if !self.header_written {
            self.write_header()?;
        }
        if self.data_bytes % 2 == 1 {
            // RIFF pads odd chunks with one byte that is not part of the
            // declared size (hit by e.g. odd-frame-count PCM24 mono).
            self.sink.write_all(&[0])?;
        }
        let end = self.sink.stream_position()?;
        if self.data_bytes > u32::MAX as u64 || end - 8 > u32::MAX as u64 {
            return Err(AudioError::InvalidParameter {
                reason: "audio exceeds the 4 GiB RIFF size limit".into(),
            });
        }
        self.sink.seek(SeekFrom::Start(4))?;
        self.sink.write_all(&((end - 8) as u32).to_le_bytes())?;
        self.sink.seek(SeekFrom::Start(self.data_size_offset))?;
        self.sink
            .write_all(&(self.data_bytes as u32).to_le_bytes())?;
        self.sink.seek(SeekFrom::Start(end))?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Encodes interleaved samples straight to an in-memory WAV image.
pub fn write_wav_bytes(spec: WavSpec, interleaved: &[f64]) -> Result<Vec<u8>> {
    let mut writer = WavWriter::new(std::io::Cursor::new(Vec::new()), spec)?;
    writer.write_interleaved(interleaved)?;
    Ok(writer.finalize()?.into_inner())
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Streaming WAV decoder over any `Read + Seek` source.
///
/// The constructor scans the chunk list (validating sizes against the
/// actual stream length and skipping chunks it does not use), then
/// positions the stream at the start of the audio;
/// [`WavReader::read_channels`] decodes from there in caller-sized blocks,
/// one buffer per channel.
#[derive(Debug)]
pub struct WavReader<R: Read + Seek> {
    source: R,
    spec: WavSpec,
    /// Stream offset of the first frame.
    data_offset: u64,
    total_frames: u64,
    next_frame: u64,
    read_buf: Vec<u8>,
}

fn read_exact_or<R: Read>(source: &mut R, buf: &mut [u8], what: &str) -> Result<()> {
    source.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            AudioError::Truncated {
                reason: format!("file ends inside {what}"),
            }
        } else {
            AudioError::from(e)
        }
    })
}

impl<R: Read + Seek> WavReader<R> {
    /// Opens a WAV stream: parses and validates the container, records the
    /// audio extent, and leaves the source positioned at the first frame.
    pub fn new(mut source: R) -> Result<Self> {
        let stream_len = source.seek(SeekFrom::End(0))?;
        source.seek(SeekFrom::Start(0))?;

        let mut magic = [0u8; 12];
        read_exact_or(&mut source, &mut magic, "the RIFF header")?;
        if &magic[0..4] != b"RIFF" {
            return Err(AudioError::MalformedFile {
                reason: "missing RIFF magic".into(),
            });
        }
        if &magic[8..12] != b"WAVE" {
            return Err(AudioError::MalformedFile {
                reason: "RIFF form type is not WAVE".into(),
            });
        }
        let riff_size = u32::from_le_bytes([magic[4], magic[5], magic[6], magic[7]]) as u64;
        if riff_size + 8 > stream_len {
            return Err(AudioError::Truncated {
                reason: format!(
                    "RIFF declares {} bytes but the file holds {}",
                    riff_size + 8,
                    stream_len
                ),
            });
        }

        let mut spec: Option<WavSpec> = None;
        let mut data: Option<(u64, u64)> = None;
        let mut pos = 12u64;
        // Scan only the declared RIFF extent: bytes after it (ID3 tags and
        // similar trailers that phone recorders append) are not chunks and
        // must not fail the parse.
        let riff_end = riff_size + 8;
        while pos + 8 <= riff_end {
            source.seek(SeekFrom::Start(pos))?;
            let mut header = [0u8; 8];
            read_exact_or(&mut source, &mut header, "a chunk header")?;
            let id = [header[0], header[1], header[2], header[3]];
            let size = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as u64;
            let body = pos + 8;
            if body + size > riff_end {
                return Err(AudioError::Truncated {
                    reason: format!(
                        "chunk {:?} declares {} bytes but only {} remain in the RIFF",
                        String::from_utf8_lossy(&id),
                        size,
                        riff_end - body
                    ),
                });
            }
            match &id {
                b"fmt " => {
                    if size < 16 {
                        return Err(AudioError::MalformedFile {
                            reason: format!("fmt chunk is {size} bytes, need at least 16"),
                        });
                    }
                    let mut fmt = [0u8; 16];
                    read_exact_or(&mut source, &mut fmt, "the fmt chunk")?;
                    let format_code = u16::from_le_bytes([fmt[0], fmt[1]]);
                    let channels = u16::from_le_bytes([fmt[2], fmt[3]]);
                    let sample_rate = u32::from_le_bytes([fmt[4], fmt[5], fmt[6], fmt[7]]);
                    let block_align = u16::from_le_bytes([fmt[12], fmt[13]]);
                    let bits = u16::from_le_bytes([fmt[14], fmt[15]]);
                    let format = SampleFormat::from_fmt(format_code, bits)?;
                    let parsed = WavSpec {
                        sample_rate,
                        channels,
                        format,
                    };
                    parsed.validate().map_err(|e| AudioError::MalformedFile {
                        reason: e.to_string(),
                    })?;
                    if block_align as usize != parsed.bytes_per_frame() {
                        return Err(AudioError::MalformedFile {
                            reason: format!(
                                "block align {} does not match {} channels × {} bytes",
                                block_align,
                                channels,
                                format.bytes_per_sample()
                            ),
                        });
                    }
                    spec = Some(parsed);
                }
                b"data" => {
                    if data.is_some() {
                        return Err(AudioError::MalformedFile {
                            reason: "multiple data chunks".into(),
                        });
                    }
                    data = Some((body, size));
                }
                _ => {}
            }
            // Chunks are word-aligned: odd sizes carry one pad byte.
            pos = body + size + (size % 2);
        }

        let spec = spec.ok_or_else(|| AudioError::MalformedFile {
            reason: "no fmt chunk".into(),
        })?;
        let (data_offset, data_bytes) = data.ok_or_else(|| AudioError::MalformedFile {
            reason: "no data chunk".into(),
        })?;
        let frame_bytes = spec.bytes_per_frame() as u64;
        if data_bytes % frame_bytes != 0 {
            return Err(AudioError::MalformedFile {
                reason: format!(
                    "data chunk of {data_bytes} bytes is not a whole number of {frame_bytes}-byte frames"
                ),
            });
        }
        source.seek(SeekFrom::Start(data_offset))?;
        Ok(Self {
            source,
            spec,
            data_offset,
            total_frames: data_bytes / frame_bytes,
            next_frame: 0,
            read_buf: Vec::new(),
        })
    }

    /// The stream's spec.
    pub fn spec(&self) -> &WavSpec {
        &self.spec
    }

    /// Total frames in the data chunk.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// Frames not yet consumed by [`WavReader::read_channels`].
    pub fn frames_remaining(&self) -> u64 {
        self.total_frames - self.next_frame
    }

    /// Moves the read position to `frame` (at most [`Self::total_frames`])
    /// without decoding the frames in between.
    pub fn seek_frame(&mut self, frame: u64) -> Result<()> {
        if frame > self.total_frames {
            return Err(AudioError::InvalidParameter {
                reason: format!(
                    "cannot seek to frame {frame} of a {}-frame stream",
                    self.total_frames
                ),
            });
        }
        let at = self.data_offset + frame * self.spec.bytes_per_frame() as u64;
        self.source.seek(SeekFrom::Start(at))?;
        self.next_frame = frame;
        Ok(())
    }

    /// Decodes up to `max_frames` frames from the current position into
    /// one buffer per channel (`channels[c][i]`, all the same length).
    /// Returns shorter (or empty) buffers at the end of the stream. A read
    /// the source reports as interrupted is retried; a stream that ends
    /// before its declared size is a [`AudioError::Truncated`] error, and
    /// a float32 sample that is NaN or infinite is an
    /// [`AudioError::MalformedFile`] error naming its frame (no capture
    /// produces one, and a single NaN would silently poison every
    /// correlation window it falls in).
    pub fn read_channels(&mut self, max_frames: usize) -> Result<Vec<Vec<f64>>> {
        let all: Vec<usize> = (0..self.spec.channels as usize).collect();
        self.read_selected(max_frames, &all)
    }

    /// As [`Self::read_channels`], but converts only the `selected`
    /// channels, returning one buffer per entry in that order. The frames
    /// are still read whole, and a float32 sample that is NaN or infinite
    /// fails the read in every channel, selected or not.
    pub fn read_selected(
        &mut self,
        max_frames: usize,
        selected: &[usize],
    ) -> Result<Vec<Vec<f64>>> {
        let channels = self.spec.channels as usize;
        if let Some(&c) = selected.iter().find(|&&c| c >= channels) {
            return Err(AudioError::InvalidParameter {
                reason: format!("channel {c} selected from a {channels}-channel stream"),
            });
        }
        let take = self.frames_remaining().min(max_frames as u64) as usize;
        self.read_buf.resize(take * self.spec.bytes_per_frame(), 0);
        let mut filled = 0;
        while filled < self.read_buf.len() {
            match self.source.read(&mut self.read_buf[filled..]) {
                Ok(0) => {
                    return Err(AudioError::Truncated {
                        reason: format!(
                            "audio data ends {} bytes short of the declared size",
                            self.read_buf.len() - filled
                        ),
                    })
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        let bytes = &self.read_buf[..];
        let out = match self.spec.format {
            SampleFormat::Pcm16 => deinterleave(bytes, channels, selected, pcm16),
            SampleFormat::Pcm24 => deinterleave(bytes, channels, selected, pcm24),
            SampleFormat::Pcm32 => deinterleave(bytes, channels, selected, pcm32),
            SampleFormat::Float32 => deinterleave(bytes, channels, selected, float32),
        };
        let first = self.next_frame;
        self.next_frame += take as u64;
        if self.spec.format == SampleFormat::Float32 {
            // On the raw words of every channel: an all-ones exponent is
            // NaN or infinity, in f32 and in the f64 it decodes to.
            let bad = bytes
                .as_chunks::<4>()
                .0
                .iter()
                .position(|&w| u32::from_le_bytes(w) & 0x7f80_0000 == 0x7f80_0000);
            if let Some(i) = bad {
                return Err(AudioError::MalformedFile {
                    reason: format!(
                        "non-finite float32 sample in frame {}",
                        first + (i / channels) as u64
                    ),
                });
            }
        }
        Ok(out)
    }
}

/// Opens an in-memory WAV image.
pub fn read_wav_bytes(bytes: Vec<u8>) -> Result<WavReader<std::io::Cursor<Vec<u8>>>> {
    WavReader::new(std::io::Cursor::new(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn spec(format: SampleFormat, channels: u16) -> WavSpec {
        WavSpec {
            sample_rate: 44_100,
            channels,
            format,
        }
    }

    fn tone(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.037).sin() * 0.8).collect()
    }

    #[test]
    fn mono_roundtrip_all_formats() {
        for format in SampleFormat::ALL {
            let samples = tone(500);
            let bytes = write_wav_bytes(spec(format, 1), &samples).unwrap();
            let mut reader = read_wav_bytes(bytes).unwrap();
            assert_eq!(reader.spec().format, format);
            assert_eq!(reader.total_frames(), 500);
            let decoded = reader.read_channels(1000).unwrap().remove(0);
            assert_eq!(decoded.len(), 500);
            let tol = match format {
                SampleFormat::Pcm16 => 2e-4,
                SampleFormat::Pcm24 => 1e-6,
                SampleFormat::Pcm32 => 1e-9,
                SampleFormat::Float32 => 1e-7,
            };
            for (a, b) in samples.iter().zip(decoded.iter()) {
                assert!((a - b).abs() < tol, "{format:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn chunked_reads_decode_identically_to_one_shot() {
        let samples = tone(1000);
        let bytes = write_wav_bytes(spec(SampleFormat::Pcm24, 2), &samples).unwrap();
        let mut whole = read_wav_bytes(bytes.clone()).unwrap();
        let one_shot = whole.read_channels(usize::MAX >> 1).unwrap();
        let mut chunked_reader = read_wav_bytes(bytes).unwrap();
        let mut chunked = vec![Vec::new(); 2];
        loop {
            let block = chunked_reader.read_channels(37).unwrap();
            if block[0].is_empty() {
                break;
            }
            for (all, ch) in chunked.iter_mut().zip(block) {
                all.extend(ch);
            }
        }
        assert_eq!(one_shot, chunked);
        assert_eq!(chunked_reader.frames_remaining(), 0);
    }

    #[test]
    fn per_channel_decode_is_bit_identical_to_the_scalar_decode() {
        // Pseudo-random data bytes reach every sample code (the writer
        // never emits PCM16 -32768, say); an odd frame count pads PCM24
        // mono, and the 17- and 4,096-frame reads end on a short block.
        const FRAMES: usize = 4_099;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for format in SampleFormat::ALL {
            for channels in 1..=4usize {
                let bps = format.bytes_per_sample();
                let silence = vec![0.0; FRAMES * channels];
                let mut bytes = write_wav_bytes(spec(format, channels as u16), &silence).unwrap();
                // Our writer's header is 44 bytes: RIFF, `fmt ` and the
                // `data` chunk header.
                let data = &mut bytes[44..44 + FRAMES * channels * bps];
                for b in data.iter_mut() {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    *b = (x >> 32) as u8;
                }
                if format == SampleFormat::Float32 {
                    // Keep every sample finite: an all-ones exponent (NaN
                    // or infinity) loses its top bit.
                    for s in data.chunks_exact_mut(4) {
                        if s[3] & 0x7f == 0x7f && s[2] & 0x80 != 0 {
                            s[3] &= !0x40;
                        }
                    }
                }
                let data = &bytes[44..44 + FRAMES * channels * bps];
                let expected: Vec<Vec<u64>> = (0..channels)
                    .map(|c| {
                        (0..FRAMES)
                            .map(|i| {
                                let at = (i * channels + c) * bps;
                                format.decode(&data[at..at + bps]).to_bits()
                            })
                            .collect()
                    })
                    .collect();
                // Every channel, then each channel alone and all of them
                // in reverse order, as selected subsets.
                let mut subsets = vec![(0..channels).collect::<Vec<_>>()];
                subsets.extend((0..channels).map(|c| vec![c]));
                subsets.push((0..channels).rev().collect());
                for block in [1, 17, 4_096, usize::MAX] {
                    for (k, selected) in subsets.iter().enumerate() {
                        let mut reader = read_wav_bytes(bytes.clone()).unwrap();
                        let mut got = vec![Vec::new(); selected.len()];
                        loop {
                            let read = if k == 0 {
                                reader.read_channels(block).unwrap()
                            } else {
                                reader.read_selected(block, selected).unwrap()
                            };
                            assert_eq!(read.len(), selected.len());
                            if read[0].is_empty() {
                                break;
                            }
                            for (all, ch) in got.iter_mut().zip(read) {
                                all.extend(ch.iter().map(|s| s.to_bits()));
                            }
                        }
                        let want: Vec<&Vec<u64>> = selected.iter().map(|&c| &expected[c]).collect();
                        assert!(
                            got.iter().eq(want),
                            "{format:?}, {channels} channels {selected:?}, blocks of {block}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn seeking_to_a_frame_reads_on_from_it() {
        let samples = tone(600);
        let bytes = write_wav_bytes(spec(SampleFormat::Pcm24, 3), &samples).unwrap();
        let whole = read_wav_bytes(bytes.clone())
            .unwrap()
            .read_channels(200)
            .unwrap();
        let mut reader = read_wav_bytes(bytes).unwrap();
        reader.read_channels(7).unwrap();
        for frame in [150, 20, 200] {
            reader.seek_frame(frame).unwrap();
            assert_eq!(reader.frames_remaining(), 200 - frame);
            let read = reader.read_selected(30, &[2, 0]).unwrap();
            let at = frame as usize;
            let end = (at + 30).min(200);
            assert_eq!(
                read,
                vec![whole[2][at..end].to_vec(), whole[0][at..end].to_vec()]
            );
        }
        assert!(reader.seek_frame(201).is_err());
        assert!(reader.read_selected(1, &[3]).is_err());
    }

    #[test]
    fn custom_chunks_survive_and_pad_to_even() {
        // A 3-byte chunk between `fmt ` and `data`, padded to even length,
        // where a phone recorder's `LIST` or `bext` chunk sits.
        let samples = tone(10);
        let plain = write_wav_bytes(spec(SampleFormat::Pcm16, 1), &samples).unwrap();
        let mut bytes = plain[..36].to_vec();
        bytes.extend_from_slice(b"LIST\x03\0\0\0\x01\x02\x03\0");
        bytes.extend_from_slice(&plain[36..]);
        let riff = (bytes.len() - 8) as u32;
        bytes[4..8].copy_from_slice(&riff.to_le_bytes());
        let mut reader = read_wav_bytes(bytes).unwrap();
        assert_eq!(reader.total_frames(), 10);
        let mut plain_reader = read_wav_bytes(plain).unwrap();
        assert_eq!(
            reader.read_channels(10).unwrap(),
            plain_reader.read_channels(10).unwrap()
        );
    }

    #[test]
    fn partial_frames_are_rejected_by_the_writer() {
        let mut writer =
            WavWriter::new(Cursor::new(Vec::new()), spec(SampleFormat::Pcm16, 2)).unwrap();
        assert!(writer.write_interleaved(&[0.0; 3]).is_err());
    }

    #[test]
    fn trailing_bytes_after_the_riff_are_tolerated() {
        // Phone recorders and tag editors append trailers (e.g. ID3) after
        // the RIFF extent; they are not chunks and must not fail the parse.
        let samples = tone(64);
        let mut bytes = write_wav_bytes(spec(SampleFormat::Pcm16, 1), &samples).unwrap();
        bytes.extend_from_slice(b"ID3\x04junk trailer that is not a chunk");
        let mut reader = read_wav_bytes(bytes).unwrap();
        assert_eq!(reader.total_frames(), 64);
        assert_eq!(reader.read_channels(100).unwrap()[0].len(), 64);
    }

    #[test]
    fn clipping_is_clamped_not_wrapped() {
        let bytes = write_wav_bytes(spec(SampleFormat::Pcm16, 1), &[2.0, -2.0]).unwrap();
        let mut reader = read_wav_bytes(bytes).unwrap();
        let decoded = reader.read_channels(2).unwrap().remove(0);
        assert!((decoded[0] - 1.0).abs() < 1e-9);
        assert!((decoded[1] + 1.0).abs() < 1e-9);
    }
}
