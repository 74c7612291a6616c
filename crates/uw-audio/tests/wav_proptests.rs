//! Property tests for the WAV codec: the writer→reader pair is
//! self-inverse, and hostile inputs produce errors, never panics.
//!
//! The round-trip property is stated at byte level: encoding arbitrary
//! samples, decoding them, and re-encoding the decoded values must
//! reproduce the first byte stream exactly, for every sample format ×
//! channel count × length combination (including the odd-data-size
//! PCM24 mono case, which exercises the RIFF pad byte). That is the
//! property the replay subsystem leans on when it regenerates golden
//! fixtures offline.

use proptest::prelude::*;
use uw_audio::wav::{read_wav_bytes, write_wav_bytes, SampleFormat, WavSpec, WavWriter};
use uw_audio::AudioError;

fn format_for(index: usize) -> SampleFormat {
    SampleFormat::ALL[index % SampleFormat::ALL.len()]
}

fn read_all(bytes: Vec<u8>) -> (WavSpec, Vec<f64>) {
    let mut reader = read_wav_bytes(bytes).expect("valid file parses");
    let spec = *reader.spec();
    let mut samples = Vec::new();
    loop {
        // Deliberately small blocks: chunked reads must cover the stream.
        let block = reader.read_frames(17).expect("valid data decodes");
        if block.is_empty() {
            break;
        }
        samples.extend(block);
    }
    (spec, samples)
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
    /// decoded samples or a trailing custom chunk.
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
        let mut writer = WavWriter::new(std::io::Cursor::new(Vec::new()), spec).unwrap();
        writer.add_chunk(*b"tail", &tail_marker).unwrap();
        writer.write_interleaved(&samples).unwrap();
        let bytes = writer.finalize().unwrap().into_inner();
        // Data bytes are 3·n; when odd, the container grows by a pad byte.
        prop_assert_eq!(bytes.len() % 2, 0);
        let mut reader = read_wav_bytes(bytes).unwrap();
        prop_assert_eq!(reader.total_frames(), frames as u64);
        prop_assert_eq!(reader.chunk(*b"tail").unwrap(), &tail_marker[..]);
        let decoded = reader.read_frames(usize::MAX >> 8).unwrap();
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
            if let Ok(decoded) = reader.read_frames(usize::MAX >> 8) {
                prop_assert!(
                    decoded.len() as u64 <= declared * u64::from(reader.spec().channels)
                );
            }
        }
    }

    /// Custom metadata chunks of arbitrary (odd and even) sizes round-trip
    /// and never disturb frame accounting.
    #[test]
    fn metadata_chunks_roundtrip(
        payload in prop::collection::vec(any::<u8>(), 0..200),
        frames in 0usize..50,
    ) {
        let spec = WavSpec { sample_rate: 44_100, channels: 1, format: SampleFormat::Float32 };
        let samples: Vec<f64> = (0..frames).map(|i| i as f64 * 1e-3).collect();
        let mut writer = WavWriter::new(std::io::Cursor::new(Vec::new()), spec).unwrap();
        writer.add_chunk(*b"uwRD", &payload).unwrap();
        writer.write_interleaved(&samples).unwrap();
        let bytes = writer.finalize().unwrap().into_inner();
        let reader = read_wav_bytes(bytes).unwrap();
        prop_assert_eq!(reader.chunk(*b"uwRD").unwrap(), &payload[..]);
        prop_assert_eq!(reader.total_frames(), frames as u64);
    }

    /// A NaN or infinite float32 sample anywhere in the data chunk is a
    /// structured error naming its frame, whatever the read chunking —
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
        let mut reader = read_wav_bytes(bytes).unwrap();
        let mut decoded = 0usize;
        let err = loop {
            match reader.read_frames(block) {
                Ok(frames_read) => {
                    prop_assert!(!frames_read.is_empty(), "stream ended without an error");
                    prop_assert!(frames_read.iter().all(|s| s.is_finite()));
                    decoded += frames_read.len() / channels as usize;
                }
                Err(e) => break e,
            }
        };
        prop_assert!(decoded <= bad_frame);
        match err {
            AudioError::MalformedFile { reason } => {
                prop_assert!(reason.ends_with(&format!("frame {bad_frame}")), "{}", reason);
            }
            other => prop_assert!(false, "unexpected error class: {:?}", other),
        }
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
