//! Property tests for the WAV codec: the writer→reader pair is
//! self-inverse, and hostile inputs produce errors, never panics.
//!
//! The round-trip property is stated at byte level: encoding arbitrary
//! samples, decoding them, and re-encoding the decoded values must
//! reproduce the first byte stream exactly, for every sample format ×
//! channel count × length combination (including the odd-data-size
//! PCM24 mono case, which exercises the RIFF pad byte). That is the
//! property the golden campaign digest leans on: the rendered bytes are
//! exactly what the writer was given.

use proptest::prelude::*;
use std::io::{Cursor, ErrorKind, Read, Seek, SeekFrom};
use uw_audio::replay::ReplaySource;
use uw_audio::wav::{read_wav_bytes, write_wav_bytes, SampleFormat, WavReader, WavSpec};
use uw_audio::AudioError;

fn format_for(index: usize) -> SampleFormat {
    SampleFormat::ALL[index % SampleFormat::ALL.len()]
}

/// Re-interleaves per-channel buffers into frames.
fn interleave(channels: &[Vec<f64>]) -> Vec<f64> {
    (0..channels[0].len())
        .flat_map(|i| channels.iter().map(move |ch| ch[i]))
        .collect()
}

fn read_all(bytes: Vec<u8>) -> (WavSpec, Vec<f64>) {
    let mut reader = read_wav_bytes(bytes).expect("valid file parses");
    let spec = *reader.spec();
    let mut samples = Vec::new();
    loop {
        // Deliberately small blocks: chunked reads must cover the stream.
        let block = reader.read_channels(17).expect("valid data decodes");
        if block[0].is_empty() {
            break;
        }
        samples.extend(interleave(&block));
    }
    (spec, samples)
}

/// A source whose every other `read` call is interrupted before it
/// transfers a byte, as a signal arriving mid-read would.
struct Interrupting {
    inner: Cursor<Vec<u8>>,
    interrupt: bool,
}

impl Read for Interrupting {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.interrupt = !self.interrupt;
        if self.interrupt {
            return Err(ErrorKind::Interrupted.into());
        }
        self.inner.read(buf)
    }
}

impl Seek for Interrupting {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.inner.seek(pos)
    }
}

/// Passes when `err` is the float32 rejection naming `frame`.
fn names_frame(err: AudioError, frame: usize) -> Result<(), TestCaseError> {
    match err {
        AudioError::MalformedFile { reason } => {
            prop_assert!(reason.ends_with(&format!("frame {frame}")), "{}", reason);
        }
        other => prop_assert!(false, "unexpected error class: {:?}", other),
    }
    Ok(())
}

/// `wav` with a chunk `id` holding `payload` planted at byte `at` (a chunk
/// boundary), padded to even length, and the RIFF size patched — the way
/// phone recorders add `LIST` and `bext` chunks.
fn plant_chunk(wav: &[u8], at: usize, id: &[u8; 4], payload: &[u8]) -> Vec<u8> {
    let mut bytes = wav[..at].to_vec();
    bytes.extend_from_slice(id);
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(payload);
    if payload.len() % 2 == 1 {
        bytes.push(0);
    }
    bytes.extend_from_slice(&wav[at..]);
    let riff = (bytes.len() - 8) as u32;
    bytes[4..8].copy_from_slice(&riff.to_le_bytes());
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// write → read → write is byte-exact for every format × channels ×
    /// length (quantisation happens once, on the first write).
    #[test]
    fn roundtrip_is_byte_exact(
        format_index in 0usize..4,
        channels in 1u16..5,
        frames in 0usize..120,
        fill in prop::collection::vec(-1.2f64..1.2, 0..600),
    ) {
        let format = format_for(format_index);
        let spec = WavSpec { sample_rate: 44_100, channels, format };
        let n = frames * channels as usize;
        let samples: Vec<f64> = (0..n).map(|i| fill.get(i).copied().unwrap_or(0.37)).collect();
        let first = write_wav_bytes(spec, &samples).unwrap();
        let (decoded_spec, decoded) = read_all(first.clone());
        prop_assert_eq!(decoded_spec, spec);
        prop_assert_eq!(decoded.len(), n);
        let second = write_wav_bytes(spec, &decoded).unwrap();
        prop_assert_eq!(first, second);
    }

    /// Odd-length PCM24 data (odd frame count, mono or 3 channels) pads
    /// its data chunk to even length, and the pad never leaks into the
    /// decoded samples or hides a chunk planted after it.
    #[test]
    fn pcm24_odd_lengths_pad_correctly(
        frames in 1usize..80,
        channels_sel in 0usize..2,
        tail_marker in prop::collection::vec(any::<u8>(), 1..9),
    ) {
        let channels = [1u16, 3][channels_sel];
        let spec = WavSpec { sample_rate: 8_000, channels, format: SampleFormat::Pcm24 };
        let n = frames * channels as usize;
        let samples: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7).sin()).collect();
        let bytes = write_wav_bytes(spec, &samples).unwrap();
        // Data bytes are 3·n; when odd, the container grows by a pad byte.
        prop_assert_eq!(bytes.len() % 2, 0);
        let bytes = plant_chunk(&bytes, bytes.len(), b"tail", &tail_marker);
        let mut reader = read_wav_bytes(bytes).unwrap();
        prop_assert_eq!(reader.total_frames(), frames as u64);
        let decoded = interleave(&reader.read_channels(usize::MAX >> 8).unwrap());
        prop_assert_eq!(decoded.len(), n);
        for (a, b) in samples.iter().zip(decoded.iter()) {
            prop_assert!((a.clamp(-1.0, 1.0) - b).abs() < 1e-6);
        }
    }

    /// Any truncation of a valid file is a structured error, not a panic
    /// (and never decodes as a shorter-but-valid stream).
    #[test]
    fn truncated_files_error_cleanly(
        format_index in 0usize..4,
        frames in 1usize..60,
        cut_fraction in 0.0f64..1.0,
    ) {
        let format = format_for(format_index);
        let spec = WavSpec { sample_rate: 16_000, channels: 2, format };
        let samples: Vec<f64> = (0..frames * 2).map(|i| ((i as f64) * 0.3).cos()).collect();
        let full = write_wav_bytes(spec, &samples).unwrap();
        let cut = ((full.len() as f64) * cut_fraction) as usize;
        prop_assume!(cut < full.len());
        let err = read_wav_bytes(full[..cut].to_vec()).expect_err("truncated file must not parse");
        prop_assert!(
            matches!(err, AudioError::Truncated { .. } | AudioError::MalformedFile { .. }),
            "unexpected error class: {:?}", err
        );
    }

    /// Corrupting any single header byte parses as an error or as some
    /// other valid interpretation — but never panics and never decodes
    /// more frames than the container holds.
    #[test]
    fn corrupted_headers_never_panic(
        byte_index in 0usize..44,
        new_value in any::<u8>(),
        frames in 1usize..40,
    ) {
        let spec = WavSpec { sample_rate: 44_100, channels: 1, format: SampleFormat::Pcm16 };
        let samples: Vec<f64> = (0..frames).map(|i| (i as f64 * 0.5).sin()).collect();
        let mut bytes = write_wav_bytes(spec, &samples).unwrap();
        prop_assume!(byte_index < bytes.len());
        bytes[byte_index] = new_value;
        if let Ok(mut reader) = read_wav_bytes(bytes.clone()) {
            let declared = reader.total_frames();
            if let Ok(decoded) = reader.read_channels(usize::MAX >> 8) {
                prop_assert_eq!(decoded.len(), usize::from(reader.spec().channels));
                prop_assert!(decoded.iter().all(|ch| ch.len() as u64 <= declared));
            }
        }
    }

    /// Metadata chunks of arbitrary (odd and even) sizes between `fmt `
    /// and `data` are skipped and never disturb frame accounting.
    #[test]
    fn metadata_chunks_roundtrip(
        payload in prop::collection::vec(any::<u8>(), 0..200),
        frames in 0usize..50,
    ) {
        let spec = WavSpec { sample_rate: 44_100, channels: 1, format: SampleFormat::Float32 };
        let samples: Vec<f64> = (0..frames).map(|i| i as f64 * 1e-3).collect();
        let plain = write_wav_bytes(spec, &samples).unwrap();
        // 12 bytes of RIFF header and the 24-byte `fmt ` chunk come first.
        let bytes = plant_chunk(&plain, 36, b"bext", &payload);
        let (planted_spec, planted) = read_all(bytes);
        prop_assert_eq!(planted_spec, spec);
        prop_assert_eq!(planted.len(), frames);
        prop_assert_eq!(planted, read_all(plain).1);
    }

    /// A NaN or infinite float32 sample anywhere in the data chunk is a
    /// structured error naming its frame, whatever the read chunking and
    /// whether read from the `WavReader` or through `ReplaySource` —
    /// never a value handed on to the burst scanner.
    #[test]
    fn non_finite_float32_samples_are_rejected(
        channels in 1u16..4,
        frames in 1usize..80,
        frame_sel in 0usize..1000,
        channel_sel in 0usize..4,
        kind in 0usize..3,
        block in 1usize..40,
    ) {
        let spec = WavSpec { sample_rate: 44_100, channels, format: SampleFormat::Float32 };
        let n = frames * channels as usize;
        let samples: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.3).sin() * 0.5).collect();
        let mut bytes = write_wav_bytes(spec, &samples).unwrap();
        let bad_frame = frame_sel % frames;
        let bad = bad_frame * channels as usize + channel_sel % channels as usize;
        let data = bytes.windows(4).position(|w| w == b"data").unwrap() + 8;
        let value = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][kind];
        bytes[data + 4 * bad..data + 4 * bad + 4].copy_from_slice(&value.to_le_bytes());
        let mut reader = read_wav_bytes(bytes.clone()).unwrap();
        let mut decoded = 0usize;
        let err = loop {
            match reader.read_channels(block) {
                Ok(read) => {
                    prop_assert!(!read[0].is_empty(), "stream ended without an error");
                    prop_assert!(read.iter().flatten().all(|s| s.is_finite()));
                    decoded += read[0].len();
                }
                Err(e) => break e,
            }
        };
        prop_assert!(decoded <= bad_frame);
        names_frame(err, bad_frame)?;

        let mut source = ReplaySource::new(read_wav_bytes(bytes).unwrap(), 44_100.0, block).unwrap();
        let mut replayed = 0usize;
        let err = loop {
            match source.next_block() {
                Ok(Some(b)) => {
                    prop_assert!(b.channels.iter().flatten().all(|s| s.is_finite()));
                    replayed += b.channels[0].len();
                }
                Ok(None) => return Err(TestCaseError::fail("replay ended without an error")),
                Err(e) => break e,
            }
        };
        prop_assert!(replayed <= bad_frame);
        names_frame(err, bad_frame)?;
    }

    /// An interrupted `read` is retried, as `read_exact` retries it in the
    /// header parse: a source interrupted on every other call replays
    /// exactly what an uninterrupted one does.
    #[test]
    fn interrupted_reads_are_retried(
        format_index in 0usize..4,
        channels in 1u16..5,
        frames in 0usize..120,
        block in 1usize..40,
    ) {
        let format = format_for(format_index);
        let spec = WavSpec { sample_rate: 44_100, channels, format };
        let n = frames * channels as usize;
        let samples: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.3).sin() * 0.5).collect();
        let bytes = write_wav_bytes(spec, &samples).unwrap();
        let plain = ReplaySource::new(read_wav_bytes(bytes.clone()).unwrap(), 44_100.0, block)
            .unwrap()
            .collect_channels()
            .unwrap();
        let source = Interrupting { inner: Cursor::new(bytes), interrupt: false };
        let reader = WavReader::new(source).unwrap();
        let interrupted = ReplaySource::new(reader, 44_100.0, block)
            .unwrap()
            .collect_channels()
            .unwrap();
        prop_assert_eq!(interrupted, plain);
    }
}

#[test]
fn garbage_prefixes_are_rejected() {
    for bytes in [
        Vec::new(),
        b"RIFF".to_vec(),
        b"RIFFxxxxWAVE".to_vec(),
        b"OggS\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0".to_vec(),
        vec![0u8; 64],
    ] {
        assert!(read_wav_bytes(bytes).is_err());
    }
}
