//! Byte pins for the three binary formats.
//!
//! Each test encodes the shared samples (`samples/mod.rs`) and folds every
//! encoding, length first, into a 64-bit FNV-1a digest. The formats are
//! frozen: a change that moves one encoded byte of a `uwlz` frame, a `uwCM`
//! manifest or a `uwRD` recording fails here. Every pinned encoding must
//! also decode and re-encode to the same bytes, so the decoders read back
//! exactly what the encoders wrote. The samples hold only exact binary
//! fractions, so the digests are the same in debug and release builds.

mod samples;

use uwgps::audio::{CampaignManifest, SampleFormat};
use uwgps::eval::Recording;
use uwgps::serve::wire::{decode_frame, encode_frame};

/// 64-bit FNV-1a over each encoding's length and bytes.
fn digest(encodings: &[Vec<u8>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for bytes in encodings {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn uwlz_frames_are_pinned() {
    let frames: Vec<Vec<u8>> = samples::messages().iter().map(encode_frame).collect();
    for frame in &frames {
        let (msg, consumed) = decode_frame(frame).unwrap();
        assert_eq!(consumed, frame.len());
        assert_eq!(&encode_frame(&msg), frame);
    }
    assert_eq!(digest(&frames), 0xad3b_7f26_e101_6e7d);
}

#[test]
fn uwcm_manifests_are_pinned() {
    let encoded: Vec<Vec<u8>> = samples::manifests()
        .iter()
        .map(|m| m.to_bytes().unwrap())
        .collect();
    for bytes in &encoded {
        let back = CampaignManifest::from_bytes(bytes).unwrap();
        assert_eq!(&back.to_bytes().unwrap(), bytes);
    }
    assert_eq!(digest(&encoded), 0x9f1a_ff76_285f_f7c5);
}

#[test]
fn uwrd_recordings_are_pinned() {
    let mut wavs = Vec::new();
    for recording in samples::recordings() {
        for format in [SampleFormat::Float32, SampleFormat::Pcm16] {
            let bytes = recording.to_wav_bytes(format).unwrap();
            let back = Recording::from_wav_bytes(bytes.clone()).unwrap();
            assert_eq!(back, recording);
            assert_eq!(back.to_wav_bytes(format).unwrap(), bytes);
            wavs.push(bytes);
        }
    }
    assert_eq!(digest(&wavs), 0x91f4_640b_7e68_a1c9);
}
