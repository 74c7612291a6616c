//! Hand-rolled RIFF/WAVE encoding and decoding.
//!
//! Covers what dive recorders and phone audio stacks actually emit: PCM16,
//! PCM24, PCM32 and IEEE float32 samples, mono or interleaved multichannel,
//! in a plain `RIFF`/`WAVE` container. The reader scans the chunk list once
//! at open (tolerating unknown chunks and odd-size padding), then streams
//! the data chunk in caller-sized blocks so arbitrarily long recordings are
//! decoded incrementally; the writer streams samples out and patches the
//! declared sizes on finalize. Both sides support small custom metadata
//! chunks, which the replay layer uses for its segment directory.
//!
//! Every malformed input — bad magic, impossible field combinations,
//! declared sizes beyond the end of the file — is a structured
//! [`AudioError`], never a panic.

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

    /// Decodes one little-endian sample from `bytes` into a normalized
    /// `f64`. The scaling mirrors [`SampleFormat::encode`], so decoding a
    /// value our writer produced and re-encoding it is byte-exact.
    fn decode(&self, bytes: &[u8]) -> f64 {
        match self {
            SampleFormat::Pcm16 => {
                let q = i16::from_le_bytes([bytes[0], bytes[1]]);
                q as f64 / 32767.0
            }
            SampleFormat::Pcm24 => {
                // Sign-extend the 24-bit value through the top byte.
                let q = i32::from_le_bytes([0, bytes[0], bytes[1], bytes[2]]) >> 8;
                q as f64 / 8_388_607.0
            }
            SampleFormat::Pcm32 => {
                let q = i32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
                q as f64 / 2_147_483_647.0
            }
            SampleFormat::Float32 => {
                f32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as f64
            }
        }
    }
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

/// Largest custom metadata chunk the writer accepts and the reader
/// retains (directories and annotations, not bulk data).
pub const MAX_METADATA_CHUNK_BYTES: usize = 1 << 20;

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming WAV encoder over any `Write + Seek` sink.
///
/// Usage: [`WavWriter::new`] → optional [`WavWriter::add_chunk`] calls →
/// [`WavWriter::write_interleaved`] as samples become available →
/// [`WavWriter::finalize`], which patches the RIFF and `data` sizes and
/// returns the sink. Dropping without finalizing leaves the declared sizes
/// zero — readers will reject the file, which beats silently truncated
/// audio.
#[derive(Debug)]
pub struct WavWriter<W: Write + Seek> {
    sink: W,
    spec: WavSpec,
    /// Custom chunks staged until the header is emitted.
    pending_chunks: Vec<([u8; 4], Vec<u8>)>,
    header_written: bool,
    /// Offset of the `data` chunk's size field, patched on finalize.
    data_size_offset: u64,
    data_bytes: u64,
    /// Staging buffer reused across writes.
    encode_buf: Vec<u8>,
}

impl<W: Write + Seek> WavWriter<W> {
    /// Creates a writer over `sink`. Nothing is written until the first
    /// samples (or custom chunks) force the header out.
    pub fn new(sink: W, spec: WavSpec) -> Result<Self> {
        spec.validate()?;
        Ok(Self {
            sink,
            spec,
            pending_chunks: Vec::new(),
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

    /// Stages a custom metadata chunk, written between `fmt ` and `data`.
    /// Must be called before the first [`WavWriter::write_interleaved`];
    /// the id must not collide with the structural chunks.
    pub fn add_chunk(&mut self, id: [u8; 4], data: &[u8]) -> Result<()> {
        if self.header_written {
            return Err(AudioError::InvalidParameter {
                reason: "custom chunks must be added before any samples are written".into(),
            });
        }
        if matches!(&id, b"RIFF" | b"WAVE" | b"fmt " | b"data") {
            return Err(AudioError::InvalidParameter {
                reason: format!(
                    "chunk id {:?} collides with a structural chunk",
                    String::from_utf8_lossy(&id)
                ),
            });
        }
        if data.len() > MAX_METADATA_CHUNK_BYTES {
            return Err(AudioError::InvalidParameter {
                reason: format!(
                    "metadata chunk of {} bytes exceeds the {} byte cap",
                    data.len(),
                    MAX_METADATA_CHUNK_BYTES
                ),
            });
        }
        self.pending_chunks.push((id, data.to_vec()));
        Ok(())
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

        // Custom metadata chunks, each padded to even length.
        for (id, data) in std::mem::take(&mut self.pending_chunks) {
            self.sink.write_all(&id)?;
            self.sink.write_all(&(data.len() as u32).to_le_bytes())?;
            self.sink.write_all(&data)?;
            if data.len() % 2 == 1 {
                self.sink.write_all(&[0])?;
            }
        }

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

    /// Frames written so far.
    pub fn frames_written(&self) -> u64 {
        self.data_bytes / self.spec.bytes_per_frame() as u64
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
/// actual stream length and retaining small metadata chunks), then
/// positions the stream at the start of the audio; [`WavReader::read_frames`]
/// decodes from there in caller-sized blocks.
#[derive(Debug)]
pub struct WavReader<R: Read + Seek> {
    source: R,
    spec: WavSpec,
    /// Non-structural chunks found before/after the data chunk.
    chunks: Vec<([u8; 4], Vec<u8>)>,
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
        let mut chunks = Vec::new();
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
                _ => {
                    if size as usize <= MAX_METADATA_CHUNK_BYTES {
                        let mut content = vec![0u8; size as usize];
                        read_exact_or(
                            &mut source,
                            &mut content,
                            &format!("chunk {:?}", String::from_utf8_lossy(&id)),
                        )?;
                        chunks.push((id, content));
                    }
                }
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
            chunks,
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

    /// Frames not yet consumed by [`WavReader::read_frames`].
    pub fn frames_remaining(&self) -> u64 {
        self.total_frames - self.next_frame
    }

    /// Looks up a retained metadata chunk by id.
    pub fn chunk(&self, id: [u8; 4]) -> Option<&[u8]> {
        self.chunks
            .iter()
            .find(|(cid, _)| *cid == id)
            .map(|(_, data)| data.as_slice())
    }

    /// All retained metadata chunks in file order.
    pub fn chunks(&self) -> &[([u8; 4], Vec<u8>)] {
        &self.chunks
    }

    /// Repositions the stream cursor to an absolute frame index (for
    /// segment directories that index into one long recording).
    pub fn seek_to_frame(&mut self, frame: u64) -> Result<()> {
        if frame > self.total_frames {
            return Err(AudioError::InvalidParameter {
                reason: format!(
                    "frame {frame} is beyond the stream's {} frames",
                    self.total_frames
                ),
            });
        }
        self.source.seek(SeekFrom::Start(
            self.data_offset + frame * self.spec.bytes_per_frame() as u64,
        ))?;
        self.next_frame = frame;
        Ok(())
    }

    /// Decodes up to `max_frames` interleaved frames from the current
    /// position. Returns fewer (or an empty vector) at the end of the
    /// stream; a stream that ends before its declared size is a
    /// [`AudioError::Truncated`] error, and a float32 sample that is NaN
    /// or infinite is an [`AudioError::MalformedFile`] error naming its
    /// frame (no capture produces one, and a single NaN would silently
    /// poison every correlation window it falls in).
    pub fn read_frames(&mut self, max_frames: usize) -> Result<Vec<f64>> {
        let take = (self.frames_remaining().min(max_frames as u64)) as usize;
        if take == 0 {
            return Ok(Vec::new());
        }
        let frame_bytes = self.spec.bytes_per_frame();
        self.read_buf.resize(take * frame_bytes, 0);
        let mut filled = 0;
        while filled < self.read_buf.len() {
            let n = self.source.read(&mut self.read_buf[filled..])?;
            if n == 0 {
                return Err(AudioError::Truncated {
                    reason: format!(
                        "audio data ends {} bytes short of the declared size",
                        self.read_buf.len() - filled
                    ),
                });
            }
            filled += n;
        }
        let bytes_per_sample = self.spec.format.bytes_per_sample();
        let mut out = Vec::with_capacity(take * self.spec.channels as usize);
        for sample in self.read_buf.chunks_exact(bytes_per_sample) {
            out.push(self.spec.format.decode(sample));
        }
        let first = self.next_frame;
        self.next_frame += take as u64;
        if self.spec.format == SampleFormat::Float32 {
            if let Some(i) = out.iter().position(|s| !s.is_finite()) {
                let frame = first + (i / self.spec.channels as usize) as u64;
                return Err(AudioError::MalformedFile {
                    reason: format!("non-finite float32 sample in frame {frame}"),
                });
            }
        }
        Ok(out)
    }

    /// Decodes the remainder of the stream into per-channel buffers
    /// (convenience for short files; long recordings should use
    /// [`WavReader::read_frames`] block by block).
    pub fn read_all_channels(&mut self) -> Result<Vec<Vec<f64>>> {
        let channels = self.spec.channels as usize;
        let mut out = vec![Vec::new(); channels];
        loop {
            let block = self.read_frames(16_384)?;
            if block.is_empty() {
                break;
            }
            for frame in block.chunks_exact(channels) {
                for (c, &s) in frame.iter().enumerate() {
                    out[c].push(s);
                }
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
            let decoded = reader.read_frames(1000).unwrap();
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
        let one_shot = whole.read_frames(usize::MAX >> 1).unwrap();
        let mut chunked_reader = read_wav_bytes(bytes).unwrap();
        let mut chunked = Vec::new();
        loop {
            let block = chunked_reader.read_frames(37).unwrap();
            if block.is_empty() {
                break;
            }
            chunked.extend(block);
        }
        assert_eq!(one_shot, chunked);
        assert_eq!(chunked_reader.frames_remaining(), 0);
    }

    #[test]
    fn custom_chunks_survive_and_pad_to_even() {
        let mut writer =
            WavWriter::new(Cursor::new(Vec::new()), spec(SampleFormat::Pcm16, 1)).unwrap();
        writer.add_chunk(*b"uwRD", &[1, 2, 3]).unwrap(); // odd length → padded
        writer.write_interleaved(&tone(10)).unwrap();
        // Chunks cannot be added after samples.
        assert!(writer.add_chunk(*b"late", &[0]).is_err());
        let bytes = writer.finalize().unwrap().into_inner();
        let reader = read_wav_bytes(bytes).unwrap();
        assert_eq!(reader.chunk(*b"uwRD"), Some(&[1u8, 2, 3][..]));
        assert_eq!(reader.chunk(*b"none"), None);
        assert_eq!(reader.total_frames(), 10);
    }

    #[test]
    fn structural_chunk_ids_are_rejected() {
        let mut writer =
            WavWriter::new(Cursor::new(Vec::new()), spec(SampleFormat::Pcm16, 1)).unwrap();
        assert!(writer.add_chunk(*b"data", &[0]).is_err());
        assert!(writer.add_chunk(*b"fmt ", &[0]).is_err());
    }

    #[test]
    fn partial_frames_are_rejected_by_the_writer() {
        let mut writer =
            WavWriter::new(Cursor::new(Vec::new()), spec(SampleFormat::Pcm16, 2)).unwrap();
        assert!(writer.write_interleaved(&[0.0; 3]).is_err());
    }

    #[test]
    fn seeking_rewinds_the_stream() {
        let samples = tone(100);
        let bytes = write_wav_bytes(spec(SampleFormat::Float32, 1), &samples).unwrap();
        let mut reader = read_wav_bytes(bytes).unwrap();
        let first = reader.read_frames(100).unwrap();
        reader.seek_to_frame(40).unwrap();
        let again = reader.read_frames(10).unwrap();
        assert_eq!(&first[40..50], &again[..]);
        assert!(reader.seek_to_frame(101).is_err());
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
        assert_eq!(reader.read_frames(100).unwrap().len(), 64);
    }

    #[test]
    fn clipping_is_clamped_not_wrapped() {
        let bytes = write_wav_bytes(spec(SampleFormat::Pcm16, 1), &[2.0, -2.0]).unwrap();
        let mut reader = read_wav_bytes(bytes).unwrap();
        let decoded = reader.read_frames(2).unwrap();
        assert!((decoded[0] - 1.0).abs() < 1e-9);
        assert!((decoded[1] + 1.0).abs() < 1e-9);
    }
}
