//! Campaign manifest: the durable record of a blind import.
//!
//! Scanning an hour of raw audio is expensive; re-running the matched
//! filter every time a matrix wants the campaign would dominate every
//! evaluation. A [`CampaignManifest`] captures everything the scan
//! learned — which recording, where every (round, device) burst segment
//! lives as frame ranges, the per-device clock-skew estimates, and the
//! scenario axes the campaign was captured under — in a compact binary
//! format (`uwCM` v1) that sits next to the WAV. Loading a campaign is
//! then a cheap seek-and-slice pass.
//!
//! The format is written in the shared bounded codec ([`crate::codec`]),
//! strict in both directions: every count is guarded against the bytes
//! left, parsing never panics on truncated or corrupt bytes (the
//! workspace's `tests/codec_fuzz.rs` drives every byte-level mutation),
//! and trailing bytes after the last segment are rejected so a manifest
//! has exactly one valid encoding.
//!
//! Scenario axes travel as short UTF-8 slugs (`"dock"`, `"clear"`,
//! `"static"`, `"f64"`) rather than enum tags: `uw-audio` stays ignorant
//! of the evaluation layer's types, and `uw-eval` owns slug ↔ enum
//! mapping when it builds matrix cells from a manifest.

use crate::codec::{
    put_f64, put_str, put_u16, put_u32, put_u64, CodecError, Fault, Prefix, Reader,
};
use crate::skew::SKEW_MAX_PPM;
use crate::{AudioError, Result};

/// File magic for the campaign manifest format.
pub const MANIFEST_MAGIC: &[u8; 4] = b"uwCM";
/// Current manifest format version.
pub const MANIFEST_VERSION: u8 = 1;

/// Encoded size of one [`SegmentRange`]: round u32 + device u32 +
/// start u64 + len u64.
const SEGMENT_BYTES: usize = 24;

/// One burst segment inside the continuous recording: the frame range
/// holding device `device`'s preamble capture for round `round`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRange {
    /// Protocol round index, `0..rounds`.
    pub round: u32,
    /// Responding device id, `1..n_devices` (device 0 is the leader,
    /// whose self-chirp anchors the grid and needs no segment).
    pub device: u32,
    /// First frame of the segment in the recording.
    pub start: u64,
    /// Segment length in frames; always non-zero in a valid manifest.
    pub len: u64,
}

/// A parsed (or freshly scanned) campaign manifest. See the module docs
/// for the wire layout and strictness guarantees.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignManifest {
    /// Recording file name the frame ranges refer to (relative path).
    pub recording: String,
    /// Environment axis slug (e.g. `"dock"`).
    pub environment: String,
    /// Channel-condition axis slug (e.g. `"clear"`).
    pub condition: String,
    /// Mobility axis slug (e.g. `"static"`).
    pub mobility: String,
    /// Numeric-path axis slug the campaign was captured against.
    pub numeric_path: String,
    /// Scenario seed the campaign corresponds to.
    pub seed: u64,
    /// Number of protocol rounds in the campaign.
    pub rounds: u32,
    /// Recording sample rate in Hz.
    pub sample_rate: u32,
    /// Device count including the leader (device 0).
    pub n_devices: u16,
    /// Estimated clock skew in ppm, one entry per device (leader first;
    /// the leader is the reference clock, so entry 0 is 0 by
    /// construction).
    pub skew_ppm: Vec<f64>,
    /// Frame ranges of every detected burst segment.
    pub segments: Vec<SegmentRange>,
}

impl CampaignManifest {
    /// Serialises the manifest to its `uwCM` v1 byte form.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        if self.skew_ppm.len() != self.n_devices as usize {
            return Err(invalid(format!(
                "skew table has {} entries for {} devices",
                self.skew_ppm.len(),
                self.n_devices
            )));
        }
        let mut out = Vec::with_capacity(64 + self.segments.len() * SEGMENT_BYTES);
        out.extend_from_slice(MANIFEST_MAGIC);
        out.push(MANIFEST_VERSION);
        let strings = [
            (Prefix::U16, "recording name", &self.recording),
            (Prefix::U8, "environment slug", &self.environment),
            (Prefix::U8, "condition slug", &self.condition),
            (Prefix::U8, "mobility slug", &self.mobility),
            (Prefix::U8, "numeric path slug", &self.numeric_path),
        ];
        for (prefix, field, s) in strings {
            put_str(&mut out, prefix, field, s).map_err(|e| invalid(e.to_string()))?;
        }
        put_u64(&mut out, self.seed);
        put_u32(&mut out, self.rounds);
        put_u32(&mut out, self.sample_rate);
        put_u16(&mut out, self.n_devices);
        for &ppm in &self.skew_ppm {
            put_f64(&mut out, ppm);
        }
        let n_segments = u32::try_from(self.segments.len())
            .map_err(|_| invalid("segment count exceeds u32".to_string()))?;
        put_u32(&mut out, n_segments);
        for s in &self.segments {
            put_u32(&mut out, s.round);
            put_u32(&mut out, s.device);
            put_u64(&mut out, s.start);
            put_u64(&mut out, s.len);
        }
        Ok(out)
    }

    /// Parses a manifest from bytes. Structured errors on any malformed,
    /// truncated, or trailing input — never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let magic = r.array::<4>("magic").map_err(parse_err)?;
        if &magic != MANIFEST_MAGIC {
            return Err(malformed(format!("bad magic {magic:02x?}")));
        }
        let version = r.u8("version").map_err(parse_err)?;
        if version != MANIFEST_VERSION {
            return Err(malformed(format!(
                "unsupported manifest version {version} (expected {MANIFEST_VERSION})"
            )));
        }
        let manifest = Self::read_fields(&mut r).map_err(parse_err)?;
        if let Some(d) = manifest.skew_ppm.iter().position(|ppm| !ppm.is_finite()) {
            return Err(malformed(format!("non-finite skew for device {d}")));
        }
        Ok(manifest)
    }

    /// Everything after the version byte, up to the end of the input.
    fn read_fields(r: &mut Reader<'_>) -> std::result::Result<Self, CodecError> {
        let recording = r.str(Prefix::U16, "recording name")?;
        let environment = r.str(Prefix::U8, "environment slug")?;
        let condition = r.str(Prefix::U8, "condition slug")?;
        let mobility = r.str(Prefix::U8, "mobility slug")?;
        let numeric_path = r.str(Prefix::U8, "numeric path slug")?;
        let seed = r.u64("seed")?;
        let rounds = r.u32("rounds")?;
        let sample_rate = r.u32("sample rate")?;
        let n_devices = r.u16("device count")?;
        let skews = r.count(n_devices as usize, 8, "skew table")?;
        let skew_ppm = (0..skews)
            .map(|_| r.f64("skew entry"))
            .collect::<std::result::Result<_, _>>()?;
        let n_segments = r.u32("segment count")? as usize;
        let n_segments = r.count(n_segments, SEGMENT_BYTES, "segment table")?;
        let segments = (0..n_segments)
            .map(|_| {
                Ok(SegmentRange {
                    round: r.u32("segment round")?,
                    device: r.u32("segment device")?,
                    start: r.u64("segment start")?,
                    len: r.u64("segment length")?,
                })
            })
            .collect::<std::result::Result<_, _>>()?;
        r.finish("segment table")?;
        Ok(Self {
            recording,
            environment,
            condition,
            mobility,
            numeric_path,
            seed,
            rounds,
            sample_rate,
            n_devices,
            skew_ppm,
            segments,
        })
    }

    /// Structural validation against the recording the manifest claims to
    /// describe (`total_frames` long). Rejects hostile frame ranges:
    /// zero-length, out-of-bounds (with overflow-safe arithmetic),
    /// overlapping, duplicated (round, device) slots, devices outside the
    /// roster, and skews beyond crystal tolerance.
    pub fn validate(&self, total_frames: u64) -> Result<()> {
        if self.rounds == 0 {
            return Err(invalid("campaign has zero rounds".to_string()));
        }
        if self.n_devices < 2 {
            return Err(invalid(format!(
                "campaign needs a leader and at least one follower, got {} devices",
                self.n_devices
            )));
        }
        if self.sample_rate == 0 {
            return Err(invalid("zero sample rate".to_string()));
        }
        if self.skew_ppm.len() != self.n_devices as usize {
            return Err(invalid(format!(
                "skew table has {} entries for {} devices",
                self.skew_ppm.len(),
                self.n_devices
            )));
        }
        for (d, &ppm) in self.skew_ppm.iter().enumerate() {
            if !ppm.is_finite() || ppm.abs() > SKEW_MAX_PPM {
                return Err(invalid(format!(
                    "device {d} skew {ppm} ppm outside ±{SKEW_MAX_PPM} ppm"
                )));
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for s in &self.segments {
            if s.len == 0 {
                return Err(invalid(format!(
                    "zero-length segment for round {} device {}",
                    s.round, s.device
                )));
            }
            if s.device == 0 || s.device >= self.n_devices as u32 {
                return Err(invalid(format!(
                    "segment device {} outside follower range 1..{}",
                    s.device, self.n_devices
                )));
            }
            if s.round >= self.rounds {
                return Err(invalid(format!(
                    "segment round {} beyond campaign rounds {}",
                    s.round, self.rounds
                )));
            }
            let end = s.start.checked_add(s.len).ok_or_else(|| {
                invalid(format!("segment range {} + {} overflows", s.start, s.len))
            })?;
            if end > total_frames {
                return Err(invalid(format!(
                    "segment ends at frame {end} but recording has {total_frames}"
                )));
            }
            if !seen.insert((s.round, s.device)) {
                return Err(invalid(format!(
                    "duplicate segment for round {} device {}",
                    s.round, s.device
                )));
            }
        }
        // Every segment now ends inside the recording, so no sum below
        // can overflow.
        let mut by_start: Vec<&SegmentRange> = self.segments.iter().collect();
        by_start.sort_by_key(|s| s.start);
        for pair in by_start.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if a.start + a.len > b.start {
                return Err(invalid(format!(
                    "segments overlap: [{}, {}) and [{}, {})",
                    a.start,
                    a.start + a.len,
                    b.start,
                    b.start + b.len
                )));
            }
        }
        Ok(())
    }
}

/// Maps a codec fault met while parsing into the manifest's error type.
fn parse_err(e: CodecError) -> AudioError {
    let reason = format!("manifest {e}");
    match e.fault {
        Fault::Truncated { .. } => AudioError::Truncated { reason },
        _ => malformed(reason),
    }
}

fn malformed(reason: String) -> AudioError {
    AudioError::MalformedFile { reason }
}

fn invalid(reason: String) -> AudioError {
    AudioError::InvalidParameter { reason }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> CampaignManifest {
        CampaignManifest {
            recording: "campaign.wav".into(),
            environment: "dock".into(),
            condition: "clear".into(),
            mobility: "static".into(),
            numeric_path: "f64".into(),
            seed: 1,
            rounds: 3,
            sample_rate: 44_100,
            n_devices: 5,
            skew_ppm: vec![0.0, 200.0, -200.0, 120.0, -160.0],
            segments: (0..3)
                .flat_map(|r| {
                    (1u32..5).map(move |d| SegmentRange {
                        round: r,
                        device: d,
                        start: (r as u64 * 4 + d as u64) * 20_000,
                        len: 14_112,
                    })
                })
                .collect(),
        }
    }

    #[test]
    fn roundtrips_exactly() {
        let m = sample();
        let bytes = m.to_bytes().unwrap();
        let back = CampaignManifest::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
        back.validate(400_000).unwrap();
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().to_bytes().unwrap();
        bytes.push(0);
        assert!(matches!(
            CampaignManifest::from_bytes(&bytes),
            Err(AudioError::MalformedFile { .. })
        ));
    }

    #[test]
    fn hostile_ranges_fail_validation() {
        // Each mutation goes through the codec first, so the hostile
        // values are shown to survive parsing and to be caught here.
        const TOTAL: u64 = 400_000;
        let mutations: [fn(&mut CampaignManifest); 13] = [
            |m| m.segments[0].len = 0,
            // The end of the range overflows u64.
            |m| (m.segments[0].start, m.segments[0].len) = (u64::MAX - 5, 10),
            |m| (m.segments[3].start, m.segments[3].len) = (u64::MAX - 7, 16),
            // Two ranges at the top of u64 sort next to each other: the
            // overlap scan must not add up the first one's end.
            |m| {
                (m.segments[0].start, m.segments[0].len) = (u64::MAX - 5, 10);
                (m.segments[1].start, m.segments[1].len) = (u64::MAX - 1, 1);
            },
            |m| m.segments[0].start = TOTAL,
            |m| m.segments[5].start = TOTAL - 1,
            |m| m.segments[1].start = m.segments[0].start + 1, // overlap
            |m| {
                // duplicate (round, device) slot
                m.segments[1].round = m.segments[0].round;
                m.segments[1].device = m.segments[0].device;
                m.segments[1].start = 390_000;
            },
            |m| m.segments[7].device = 0, // the leader never has a segment
            |m| m.segments[0].device = 9, // beyond the roster
            |m| m.segments[0].round = 99,
            |m| m.segments[2].round = 3_000_000,
            |m| m.skew_ppm[2] = 1.0e4, // beyond crystal tolerance
        ];
        for (i, mutate) in mutations.iter().enumerate() {
            let mut m = sample();
            mutate(&mut m);
            let parsed = CampaignManifest::from_bytes(&m.to_bytes().unwrap()).unwrap();
            assert!(
                matches!(
                    parsed.validate(TOTAL),
                    Err(AudioError::InvalidParameter { .. })
                ),
                "mutation {i} passed validation"
            );
        }
    }

    #[test]
    fn hostile_counts_fail_fast_without_allocation() {
        // A header that claims 4 billion segments but carries none: the
        // remaining-bytes guard must reject it before reserving memory.
        let mut m = sample();
        m.segments.clear();
        let mut bytes = m.to_bytes().unwrap();
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            CampaignManifest::from_bytes(&bytes),
            Err(AudioError::MalformedFile { .. })
        ));
    }
}
