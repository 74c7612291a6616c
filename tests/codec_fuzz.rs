//! One fuzz harness for the three binary formats: `uwlz` serving frames,
//! `uwCM` campaign manifests and `uwRD` recording directories. Each
//! decoder takes input from outside — a socket, a file next to a field
//! recording, a chunk of a WAV — so each must survive anything without
//! panicking and answer with one of its structured errors.
//!
//! Every battery is written once, generic over [`Format`], and runs on all
//! three formats (one test module per format):
//! - truncation at every byte;
//! - single-byte flips of 0x01, 0x80 and 0xFF at every position;
//! - hostile count and length prefixes;
//! - random noise, and noise behind a valid prefix.
//!
//! Whatever decodes must re-encode: to exactly the same bytes for the
//! canonical `uwlz` and `uwCM` encodings (so a flip can never masquerade
//! as the original), and to bytes that decode again for `uwRD`, whose WAV
//! container carries padding and a normalising gain. `uwRD` runs through
//! `Recording::from_wav_bytes`, so segment slicing is fuzzed too. Checks
//! that belong to one format follow the batteries as short tests.

mod samples;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt::Debug;
use std::io::Read;
use uwgps::audio::{
    AudioError, CampaignManifest, SampleFormat, WavSpec, WavWriter, MANIFEST_MAGIC,
    MANIFEST_VERSION,
};
use uwgps::core::SystemError;
use uwgps::eval::replay::DIRECTORY_CHUNK;
use uwgps::eval::Recording;
use uwgps::serve::wire::{
    crc32, decode_frame, encode_frame, FrameReader, WireError, WireMessage, HEADER_LEN,
    MAX_PAYLOAD, TRAILER_LEN, WIRE_MAGIC, WIRE_VERSION,
};

/// One binary format under test.
trait Format {
    type Value;
    type Error: Debug;
    /// Whether a decoded value re-encodes to exactly the bytes it came from.
    const CANONICAL: bool;
    /// Error classes (variant names) a cut encoding may decode to.
    const CUT: &'static [&'static str];
    /// Error classes any malformed input may decode to.
    const MALFORMED: &'static [&'static str];
    /// Error classes noise behind [`Format::behind_valid_prefix`] may decode
    /// to: only those raised past the header checks.
    const PAST_HEADER: &'static [&'static str];

    /// Valid encodings for the batteries to cut and flip.
    fn samples() -> Vec<Vec<u8>>;
    fn decode(bytes: &[u8]) -> Result<Self::Value, Self::Error>;
    fn encode(value: &Self::Value) -> Vec<u8>;
    /// `body` behind bytes that pass the format's header checks.
    fn behind_valid_prefix(body: &[u8]) -> Vec<u8>;
    /// Encodings whose count or length prefix claims more than follows,
    /// each with the start of the error's `Debug` form it must produce.
    fn hostile() -> Vec<(Vec<u8>, String)>;
}

/// An error's variant name.
fn class(err: &impl Debug) -> String {
    let debug = format!("{err:?}");
    debug.split([' ', '{', '(']).next().unwrap_or("").to_owned()
}

/// Decodes `bytes`: an error must be one of `allowed`, and a value must
/// re-encode as [`Format::CANONICAL`] promises.
fn check<F: Format>(bytes: &[u8], allowed: &[&str], what: &str) {
    match F::decode(bytes) {
        Ok(value) => {
            let again = F::encode(&value);
            if F::CANONICAL {
                assert_eq!(again, bytes, "{what}: decoded, but re-encodes differently");
            } else {
                assert!(
                    F::decode(&again).is_ok(),
                    "{what}: re-encoding fails to decode"
                );
            }
        }
        Err(err) => assert!(
            allowed.contains(&class(&err).as_str()),
            "{what}: unexpected {err:?}"
        ),
    }
}

fn truncation<F: Format>() {
    for bytes in F::samples() {
        for cut in 0..bytes.len() {
            match F::decode(&bytes[..cut]) {
                Err(err) if F::CUT.contains(&class(&err).as_str()) => {}
                Err(err) => panic!("cut at {cut}/{}: unexpected {err:?}", bytes.len()),
                Ok(_) => panic!("cut at {cut}/{} decoded", bytes.len()),
            }
        }
    }
}

fn flips<F: Format>() {
    for bytes in F::samples() {
        for pos in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = bytes.clone();
                bad[pos] ^= flip;
                check::<F>(&bad, F::MALFORMED, &format!("flip {flip:#x} at byte {pos}"));
            }
        }
    }
}

fn hostile<F: Format>() {
    for (bytes, want) in F::hostile() {
        match F::decode(&bytes) {
            Err(err) => assert!(format!("{err:?}").starts_with(&want), "{err:?}, not {want}"),
            Ok(_) => panic!("hostile input decoded; expected {want}"),
        }
    }
}

fn noise(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..max_len);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn random_streams<F: Format>() {
    let mut rng = StdRng::seed_from_u64(0xF0CC);
    for _ in 0..4000 {
        check::<F>(&noise(&mut rng, 512), F::MALFORMED, "noise");
    }
}

fn prefixed_noise<F: Format>() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for _ in 0..4000 {
        let bytes = F::behind_valid_prefix(&noise(&mut rng, 384));
        check::<F>(&bytes, F::PAST_HEADER, "noise behind a valid prefix");
    }
}

macro_rules! batteries {
    ($($name:ident: $format:ty),*) => {$(
        mod $name {
            use super::*;

            #[test]
            fn truncation_at_every_byte_is_a_clean_error() {
                truncation::<$format>();
            }

            #[test]
            fn single_byte_flips_never_panic() {
                flips::<$format>();
            }

            #[test]
            fn hostile_prefixes_are_rejected_before_allocation() {
                hostile::<$format>();
            }

            #[test]
            fn random_byte_streams_never_panic() {
                random_streams::<$format>();
            }

            #[test]
            fn noise_behind_a_valid_prefix_never_panics() {
                prefixed_noise::<$format>();
            }
        }
    )*};
}

batteries!(uwlz: Uwlz, uwcm: UwCm, uwrd: UwRd);

// ---------------------------------------------------------------------
// uwlz: serving frames
// ---------------------------------------------------------------------

struct Uwlz;

const TAGS: [u8; 12] = [
    0x01, 0x02, 0x03, 0x04, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0xFE,
];

/// A header with a known tag that claims `len` payload bytes.
fn header_claiming(tag: u8, len: u32) -> Vec<u8> {
    let mut buf = WIRE_MAGIC.to_vec();
    buf.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    buf.extend_from_slice(&[tag, 0x00]);
    buf.extend_from_slice(&len.to_le_bytes());
    buf
}

/// Rewrites a frame's CRC trailer, so the payload decoder runs on
/// whatever the payload holds.
fn seal(mut frame: Vec<u8>) -> Vec<u8> {
    let body_end = frame.len() - TRAILER_LEN;
    let crc = crc32(&frame[..body_end]);
    frame[body_end..].copy_from_slice(&crc.to_le_bytes());
    frame
}

/// Overwrites `frame[at..]` with `patch` behind a valid CRC.
fn patch_frame(mut frame: Vec<u8>, at: usize, patch: &[u8]) -> Vec<u8> {
    frame[at..at + patch.len()].copy_from_slice(patch);
    seal(frame)
}

impl Format for Uwlz {
    type Value = WireMessage;
    type Error = WireError;
    const CANONICAL: bool = true;
    const CUT: &'static [&'static str] = &["Truncated"];
    const MALFORMED: &'static [&'static str] = &[
        "Truncated",
        "BadMagic",
        "UnsupportedVersion",
        "UnknownTag",
        "CrcMismatch",
        "Oversized",
        "Malformed",
    ];
    const PAST_HEADER: &'static [&'static str] = &["Malformed"];

    fn samples() -> Vec<Vec<u8>> {
        samples::messages().iter().map(encode_frame).collect()
    }

    /// Runs both decoders. The stream reader sees the bytes as a socket
    /// would and must reach the same verdict, except that a stream with
    /// no bytes at all is a clean end.
    fn decode(bytes: &[u8]) -> Result<WireMessage, WireError> {
        let framed = decode_frame(bytes).map(|(msg, _)| msg);
        match FrameReader::new(bytes).read_message() {
            Ok(None) => assert!(
                bytes.is_empty(),
                "{} bytes read as a clean end",
                bytes.len()
            ),
            streamed => assert_eq!(
                format!("{:?}", streamed.map(Option::unwrap)),
                format!("{framed:?}")
            ),
        }
        framed
    }

    fn encode(msg: &WireMessage) -> Vec<u8> {
        encode_frame(msg)
    }

    fn behind_valid_prefix(body: &[u8]) -> Vec<u8> {
        let tag = TAGS[body.len() % TAGS.len()];
        let mut frame = header_claiming(tag, body.len() as u32);
        frame.extend_from_slice(body);
        frame.extend_from_slice(&[0; TRAILER_LEN]);
        seal(frame)
    }

    fn hostile() -> Vec<(Vec<u8>, String)> {
        let oversized = [
            MAX_PAYLOAD + 1,
            MAX_PAYLOAD * 2,
            u32::MAX / 2,
            u32::MAX - TRAILER_LEN as u32,
            u32::MAX,
        ];
        let mut cases: Vec<_> = oversized
            .iter()
            .map(|&len| {
                let want = format!("Oversized {{ len: {len}, max: {MAX_PAYLOAD} }}");
                (header_claiming(0x04, len), want)
            })
            .collect();
        // A report CDF claiming u32::MAX points. With an empty CDF its
        // count sits just before the report's six closing 8-byte fields.
        let mut report = samples::messages()
            .into_iter()
            .find_map(|msg| match msg {
                WireMessage::Finalized { report, .. } => Some(report),
                _ => None,
            })
            .unwrap();
        report.error_cdf.clear();
        let finalized = encode_frame(&WireMessage::Finalized { tag: 9, report });
        let at = finalized.len() - TRAILER_LEN - 6 * 8 - 4;
        cases.push((
            patch_frame(finalized, at, &u32::MAX.to_le_bytes()),
            malformed("report cdf length"),
        ));
        cases
    }
}

fn malformed(context: &str) -> String {
    format!("Malformed {{ context: {context:?} }}")
}

#[test]
fn uwlz_rejects_every_single_byte_flip() {
    // Header fields fail their own checks; payload and trailer the CRC.
    for frame in Uwlz::samples() {
        for pos in 0..frame.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = frame.clone();
                bad[pos] ^= flip;
                assert!(
                    decode_frame(&bad).is_err(),
                    "flip {flip:#x} at byte {pos} slipped through"
                );
            }
        }
    }
}

#[test]
fn uwlz_errors_are_attributable() {
    let frame = encode_frame(&WireMessage::Hello {
        client: "attribution".into(),
    });
    let flipped = |pos: usize, value: u8| {
        let mut bad = frame.clone();
        bad[pos] = value;
        decode_frame(&bad)
    };
    assert!(matches!(flipped(0, b'X'), Err(WireError::BadMagic { .. })));
    assert!(matches!(
        flipped(4, 0xFF),
        Err(WireError::UnsupportedVersion { got: 0xFF })
    ));
    assert!(matches!(
        flipped(HEADER_LEN, frame[HEADER_LEN] ^ 0xFF),
        Err(WireError::CrcMismatch { .. })
    ));
    let last = frame.len() - 1;
    assert!(matches!(
        flipped(last, frame[last] ^ 0xFF),
        Err(WireError::CrcMismatch { .. })
    ));
    // Reserved flags fail the shared header check, so the stream reader
    // rejects them from the header alone, before reading the payload.
    let flags = malformed("reserved flags");
    assert_eq!(format!("{:?}", flipped(7, 0x01).unwrap_err()), flags);
    let mut header = frame[..HEADER_LEN].to_vec();
    header[7] = 0x01;
    let streamed = FrameReader::new(header.as_slice()).read_message();
    assert_eq!(format!("{:?}", streamed.unwrap_err()), flags);
}

#[test]
fn uwlz_a_length_prefix_at_the_cap_is_not_rejected_for_size() {
    // Exactly MAX_PAYLOAD passes the size check; the frame is then merely
    // incomplete, which is a different, honest error.
    let at_cap = header_claiming(0x04, MAX_PAYLOAD);
    assert!(matches!(Uwlz::decode(&at_cap), Err(WireError::Truncated)));
}

#[test]
fn uwlz_truncated_inner_lengths_cannot_force_allocation() {
    // A string claiming u32::MAX bytes, right after the Failed tag: the
    // decoder checks the claim against the bytes left before reserving.
    let failed = encode_frame(&WireMessage::Failed {
        tag: 1,
        cell_id: String::new(),
        reason: String::new(),
    });
    let bad = patch_frame(failed, HEADER_LEN + 8, &u32::MAX.to_le_bytes());
    assert_eq!(
        format!("{:?}", Uwlz::decode(&bad).unwrap_err()),
        malformed("failed cell")
    );
}

/// A reader that returns `ErrorKind::Interrupted` on every other call, as
/// signal-heavy processes see, and at most 3 bytes otherwise.
struct InterruptingReader<'a> {
    data: &'a [u8],
    tick: bool,
}

impl Read for InterruptingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.tick = !self.tick;
        if self.tick {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        let n = buf.len().min(self.data.len()).min(3);
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

#[test]
fn uwlz_interrupted_reads_are_retried_not_fatal() {
    let frames = Uwlz::samples();
    let stream = frames.concat();
    let mut reader = FrameReader::new(InterruptingReader {
        data: &stream,
        tick: false,
    });
    for frame in &frames {
        let msg = reader.read_message().unwrap().expect("frame expected");
        assert_eq!(&encode_frame(&msg), frame);
    }
    assert!(matches!(reader.read_message(), Ok(None)));
}

#[test]
fn uwlz_garbage_between_frames_poisons_the_stream_not_the_process() {
    // A valid frame, then noise: the reader yields the frame, then a
    // structured error — never a phantom message, never a panic.
    let mut stream = encode_frame(&WireMessage::Cancel { tag: 42 });
    stream.extend_from_slice(b"\xDE\xAD\xBE\xEF garbage follows");
    let mut reader = FrameReader::new(stream.as_slice());
    assert_eq!(
        reader.read_message().unwrap(),
        Some(WireMessage::Cancel { tag: 42 })
    );
    assert!(reader.read_message().is_err());
}

// ---------------------------------------------------------------------
// uwCM: campaign manifests
// ---------------------------------------------------------------------

struct UwCm;

impl Format for UwCm {
    type Value = CampaignManifest;
    type Error = AudioError;
    const CANONICAL: bool = true;
    const CUT: &'static [&'static str] = &["Truncated", "MalformedFile"];
    const MALFORMED: &'static [&'static str] = Self::CUT;
    const PAST_HEADER: &'static [&'static str] = Self::CUT;

    fn samples() -> Vec<Vec<u8>> {
        let manifests = samples::manifests();
        manifests.iter().map(|m| m.to_bytes().unwrap()).collect()
    }

    fn decode(bytes: &[u8]) -> Result<CampaignManifest, AudioError> {
        CampaignManifest::from_bytes(bytes)
    }

    fn encode(manifest: &CampaignManifest) -> Vec<u8> {
        manifest.to_bytes().unwrap()
    }

    fn behind_valid_prefix(body: &[u8]) -> Vec<u8> {
        let mut bytes = MANIFEST_MAGIC.to_vec();
        bytes.push(MANIFEST_VERSION);
        bytes.extend_from_slice(body);
        bytes
    }

    fn hostile() -> Vec<(Vec<u8>, String)> {
        let samples = Self::samples();
        let (full, no_segments) = (&samples[0], &samples[1]);
        let mut cases = Vec::new();
        // The recording name claims 65535 bytes (its u16 prefix follows
        // the magic and version).
        let mut bad = full.clone();
        bad[5..7].copy_from_slice(&u16::MAX.to_le_bytes());
        cases.push((bad, "Truncated { reason: \"manifest recording name".into()));
        // The segment count is the last field of a manifest without
        // segments: claim 4 billion with nothing behind the claim.
        let mut bad = no_segments.clone();
        let n = bad.len();
        bad[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        cases.push((
            bad,
            "MalformedFile { reason: \"manifest segment table".into(),
        ));
        // The device count sits before 5 skews, the segment count and 12
        // segments: claim 65535 devices.
        let mut bad = full.clone();
        let at = bad.len() - (4 + 12 * 24 + 5 * 8 + 2);
        bad[at..at + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        cases.push((bad, "MalformedFile { reason: \"manifest skew table".into()));
        cases
    }
}

#[test]
fn uwcm_errors_are_attributable() {
    let bytes = &UwCm::samples()[0];
    let reason = |bad: &[u8]| match CampaignManifest::from_bytes(bad) {
        Err(AudioError::MalformedFile { reason }) => reason,
        other => panic!("expected MalformedFile, got {other:?}"),
    };
    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'X';
    assert!(reason(&bad_magic).contains("magic"));
    let mut bad_version = bytes.clone();
    bad_version[MANIFEST_MAGIC.len()] = MANIFEST_VERSION + 1;
    assert!(reason(&bad_version).contains("version"));
    let mut trailing = bytes.clone();
    trailing.extend_from_slice(b"junk");
    assert!(reason(&trailing).contains("trailing"));
}

// ---------------------------------------------------------------------
// uwRD: recording directories, through the WAV they travel in
// ---------------------------------------------------------------------

struct UwRd;

/// The first byte of every `uwRD` directory: its version.
const DIRECTORY_VERSION: u8 = 1;

/// A 2-channel WAV carrying `directory` as its `uwRD` chunk and 16
/// silent frames.
fn recording_wav(directory: &[u8]) -> Vec<u8> {
    let spec = WavSpec {
        sample_rate: 44_100,
        channels: 2,
        format: SampleFormat::Pcm16,
    };
    let mut writer = WavWriter::new(std::io::Cursor::new(Vec::new()), spec).unwrap();
    writer.add_chunk(DIRECTORY_CHUNK, directory).unwrap();
    writer.write_interleaved(&[0.0; 32]).unwrap();
    writer.finalize().unwrap().into_inner()
}

impl Format for UwRd {
    type Value = Recording;
    type Error = SystemError;
    const CANONICAL: bool = false;
    const CUT: &'static [&'static str] = &["InvalidConfig", "Layer"];
    const MALFORMED: &'static [&'static str] = Self::CUT;
    const PAST_HEADER: &'static [&'static str] = &["InvalidConfig"];

    fn samples() -> Vec<Vec<u8>> {
        let formats = [SampleFormat::Float32, SampleFormat::Pcm16];
        samples::recordings()
            .iter()
            .flat_map(|r| formats.map(|format| r.to_wav_bytes(format).unwrap()))
            .collect()
    }

    fn decode(bytes: &[u8]) -> Result<Recording, SystemError> {
        Recording::from_wav_bytes(bytes.to_vec())
    }

    fn encode(recording: &Recording) -> Vec<u8> {
        recording.to_wav_bytes(SampleFormat::Float32).unwrap()
    }

    fn behind_valid_prefix(body: &[u8]) -> Vec<u8> {
        recording_wav(&[&[DIRECTORY_VERSION], body].concat())
    }

    fn hostile() -> Vec<(Vec<u8>, String)> {
        // The first sample: slug "boathouse", then three segments of 7, 6
        // and 4 frames.
        let wav = &Self::samples()[0];
        let dir = wav.windows(4).position(|w| w == DIRECTORY_CHUNK).unwrap() + 8;
        let slug_len = wav[dir + 1] as usize;
        // Version, slug, device count, condition, mobility, path, seed,
        // rounds and gain come before the segment count.
        let count_at = dir + 1 + 1 + slug_len + 2 + 9 + 9 + 1 + 8 + 4 + 8;
        let patched = |at: usize, patch: &[u8]| {
            let mut bad = wav.clone();
            bad[at..at + patch.len()].copy_from_slice(patch);
            bad
        };
        let invalid = |reason: &str| format!("InvalidConfig {{ reason: \"{reason}");
        vec![
            // The second segment's mic-1 length, 4 (count) + 32 (first
            // entry) + 16 (round, device, start) bytes on: its end must
            // not overflow past the audio.
            (
                patched(count_at + 4 + 32 + 16, &u64::MAX.to_le_bytes()),
                invalid("recording audio ends at frame"),
            ),
            (
                patched(count_at, &u32::MAX.to_le_bytes()),
                invalid("recording directory segments at offset"),
            ),
            (
                patched(dir + 1, &[u8::MAX]),
                invalid("recording directory environment slug at offset 2: truncated"),
            ),
        ]
    }
}
