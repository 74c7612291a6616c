//! Field-recording import: from one continuous raw capture to matrix cells.
//!
//! The paper's evaluation substrate is long dock recordings — an
//! uninterrupted 2-channel hydrophone WAV in which every TDMA round of
//! the protocol is buried at its slot offset, each device's clock running
//! a few tens of ppm off nominal. This module is the one way recorded
//! audio becomes matrix cells — a blind import of the raw capture:
//!
//! 1. **Scan** — [`scan_campaign`] streams the recording's first
//!    microphone (bounded memory, via a [`uw_audio::ReplaySource`] opened
//!    on channel 0 alone, which converts each block of that channel
//!    straight into one buffer; the second channel is never converted,
//!    though a float32 NaN in it still fails the scan) through a
//!    [`uw_audio::burst::BurstScanner`] that borrows the f32 ranging
//!    preamble's matched filter
//!    ([`uw_core::waveform::preamble_filter_f32`], built once per process
//!    from the transmitted waveform,
//!    [`uw_core::waveform::preamble_waveform`]; its burst positions are
//!    pinned to the f64 filter's peaks), associates every detected burst
//!    with its (round, device) TDMA slot using the protocol's own
//!    schedule ([`uw_protocol::schedule::TdmSchedule::paper_defaults`]),
//!    fits each device's clock skew from the drift of its bursts across
//!    the campaign ([`uw_audio::skew::estimate_skew_ppm`]), and emits a
//!    [`CampaignManifest`] of per-segment frame ranges.
//! 2. **Load** — [`load_campaign`] re-opens the file and visits the
//!    manifest's segments in start order: it skips to each one (a frame
//!    seek at the file's own rate) and decodes exactly its frames of both
//!    channels, so its memory is the segment buffers alone. It undoes
//!    each device's skew on both microphones in one pass through
//!    [`uw_core::waveform::LinkCapture::from_imported_segment`] (the
//!    `compensate_clock_ppm` seam), and assembles a
//!    [`crate::replay::ReplayAudio`] the session machinery can range
//!    against. Every capture is, bit for bit, the whole file decoded,
//!    sliced at the segment and resampled one stream at a time.
//! 3. **Evaluate** — the resulting [`ImportedCampaign`] plugs into
//!    [`ScenarioMatrix::recordings`]: the matrix expands it into cells
//!    (crossed with the numeric-path axis, ids gaining an
//!    [`IMPORT_SEGMENT`]) that run through batch, serve and reports like
//!    any simulated cell.
//!
//! The module also contains the inverse — [`render_campaign_wav`] lays a
//! recorded cell's captures ([`crate::replay::record_cell`]) onto one
//! continuous timeline with per-device clock skew, ambient noise in the
//! gaps, and the leader's self-heard preamble as a grid anchor; it is the
//! one way recorded audio is written to disk. The golden test
//! (`crates/eval/tests/import_golden.rs`) renders a dock cell this way,
//! pins the PCM16 bytes by digest, imports it blind, and pins the
//! replayed error against the simulated cell on every numeric path.
//!
//! ## Timeline convention
//!
//! The recording clock is the **leader's** clock. Round `r` starts at
//! `r · period` where `period` is the protocol's full round latency
//! (acoustic schedule + serial report phase at
//! [`CAMPAIGN_REPORT_BPS`]). The leader's own transmission — heard by its
//! own microphones at effectively zero range — appears `lead_in` samples
//! later; follower `d`'s capture window opens at slot offset
//! `Δ0 + (d−1)·Δ1`, its preamble arriving `lead_in + delay` samples into
//! the window. A device with skew `p` ppm drifts by
//! `elapsed · fs · p · 1e-6` samples relative to this grid, which is
//! exactly the slope the skew fit recovers.

use crate::matrix::{EvalCell, LinkProfile, MobilityProfile, ScenarioMatrix, Topology};
use crate::replay::{Recording, ReplayAudio};
use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashMap;
use std::io::{Read, Seek};
use std::sync::Arc;
use uw_audio::burst::{Burst, BurstScanner};
use uw_audio::manifest::{CampaignManifest, SegmentRange};
use uw_audio::skew::estimate_skew_ppm;
use uw_audio::wav::{SampleFormat, WavReader, WavSpec, WavWriter};
use uw_audio::ReplaySource;
use uw_channel::environment::Environment;
use uw_channel::noise::ambient_noise;
use uw_core::config::{Fidelity, NumericPath};
use uw_core::prelude::*;
use uw_core::waveform::{preamble_filter_f32, preamble_waveform, LinkCapture};
use uw_core::{Result, SystemError};
use uw_dsp::resample::apply_ppm_skew;
use uw_dsp::SAMPLE_RATE;
use uw_protocol::latency::round_latency;
use uw_protocol::schedule::TdmSchedule;

/// Cell-id segment marking a cell whose audio came from a blind import
/// of a continuous field recording.
pub const IMPORT_SEGMENT: &str = "import";

/// Report-phase bitrate assumed when converting the protocol schedule
/// into the campaign's round period. Matches the
/// `uw_core::config::SystemConfig` default, so recordings and simulations
/// agree on the grid.
pub const CAMPAIGN_REPORT_BPS: f64 = 100.0;

/// Default normalized-correlation threshold for the burst scan. Ambient
/// noise against the 9 840-sample preamble correlates at
/// `O(1/√9840) ≈ 0.01`; real arrivals score above 0.6 even under heavy
/// multipath, so 0.35 leaves a wide margin in both directions.
pub const DEFAULT_SCAN_THRESHOLD: f64 = 0.35;

/// Frames per streamed block during scanning and loading.
const STREAM_BLOCK_FRAMES: usize = 65_536;

/// Ambient noise rendered before round 0, seconds.
const RENDER_START_PAD_S: f64 = 0.5;

/// Extra tail rendered after the last capture ends, seconds.
const RENDER_TAIL_S: f64 = 0.3;

/// Peak a rendered campaign is normalized to (headroom below full scale,
/// like a sane recording gain).
const NORMALIZED_PEAK: f64 = 0.98;

/// The TDMA timing grid of a campaign: everything position arithmetic
/// needs, precomputed once per import or render.
#[derive(Debug, Clone)]
pub struct CampaignLayout {
    /// Devices including the leader.
    pub n_devices: usize,
    /// Full round period in seconds (acoustic schedule + report phase).
    pub period_s: f64,
    /// Slot offset within a round per device id; entry 0 (the leader) is
    /// 0, follower `d` is `Δ0 + (d−1)·Δ1`.
    pub slot_s: Vec<f64>,
    /// Inter-follower slot spacing Δ1, seconds.
    pub slot_spacing_s: f64,
    /// Lead-in samples every capture window opens with.
    pub lead_in: usize,
}

impl CampaignLayout {
    /// Builds the paper-default layout for an `n_devices` group.
    pub fn for_devices(n_devices: usize) -> Result<Self> {
        let schedule = TdmSchedule::paper_defaults(n_devices).map_err(SystemError::from)?;
        let period_s = round_latency(n_devices, CAMPAIGN_REPORT_BPS)
            .map_err(SystemError::from)?
            .total_s();
        let mut slot_s = vec![0.0];
        for d in 1..n_devices {
            slot_s.push(schedule.slot_after_leader(d).map_err(SystemError::from)?);
        }
        let slot_spacing_s = if n_devices > 2 {
            slot_s[2] - slot_s[1]
        } else {
            slot_s.get(1).copied().unwrap_or(period_s)
        };
        Ok(Self {
            n_devices,
            period_s,
            slot_s,
            slot_spacing_s,
            lead_in: uw_channel::propagate::PropagateOptions::default().lead_in_samples,
        })
    }

    /// Campaign-time in seconds at which round `r`, device `d`'s capture
    /// window nominally opens (`d == 0` is the leader's own slot).
    pub fn elapsed_s(&self, round: usize, device: usize) -> f64 {
        round as f64 * self.period_s + self.slot_s[device]
    }

    /// Nominal grid sample (relative to campaign start) of that window.
    pub fn grid_sample(&self, round: usize, device: usize) -> i64 {
        (self.elapsed_s(round, device) * SAMPLE_RATE).round() as i64
    }

    /// Nominal segment length: one follower slot of samples.
    pub fn segment_len(&self) -> u64 {
        (self.slot_spacing_s * SAMPLE_RATE).round() as u64
    }
}

// ---------------------------------------------------------------------------
// Axis slugs (manifest is plain strings; this module owns the mapping)
// ---------------------------------------------------------------------------

pub(crate) fn condition_slug(c: &LinkProfile) -> String {
    match c {
        LinkProfile::Clear => "clear".into(),
        LinkProfile::Occluded { bias_m } => format!("occluded:{bias_m}"),
        LinkProfile::MissingLink => "missing".into(),
        LinkProfile::DeviceChurn { after_round } => format!("churn:{after_round}"),
    }
}

pub(crate) fn condition_from_slug(s: &str) -> Result<LinkProfile> {
    match s {
        "clear" => return Ok(LinkProfile::Clear),
        "missing" => return Ok(LinkProfile::MissingLink),
        _ => {}
    }
    if let Some(v) = s.strip_prefix("occluded:") {
        let bias_m = v.parse().map_err(|_| bad_slug("condition", s))?;
        return Ok(LinkProfile::Occluded { bias_m });
    }
    if let Some(v) = s.strip_prefix("churn:") {
        let after_round = v.parse().map_err(|_| bad_slug("condition", s))?;
        return Ok(LinkProfile::DeviceChurn { after_round });
    }
    Err(bad_slug("condition", s))
}

pub(crate) fn mobility_slug(m: &MobilityProfile) -> String {
    match m {
        MobilityProfile::Static => "static".into(),
        MobilityProfile::RopeOscillation { speed_cm_s } => format!("rope:{speed_cm_s}"),
        MobilityProfile::Swimmer { speed_cm_s } => format!("swim:{speed_cm_s}"),
        MobilityProfile::CurrentDrift { speed_cm_s } => format!("drift:{speed_cm_s}"),
    }
}

pub(crate) fn mobility_from_slug(s: &str) -> Result<MobilityProfile> {
    if s == "static" {
        return Ok(MobilityProfile::Static);
    }
    for (prefix, build) in [
        (
            "rope:",
            MobilityProfile::RopeOscillation { speed_cm_s: 0.0 },
        ),
        ("swim:", MobilityProfile::Swimmer { speed_cm_s: 0.0 }),
        ("drift:", MobilityProfile::CurrentDrift { speed_cm_s: 0.0 }),
    ] {
        if let Some(v) = s.strip_prefix(prefix) {
            let speed_cm_s: f64 = v.parse().map_err(|_| bad_slug("mobility", s))?;
            return Ok(match build {
                MobilityProfile::RopeOscillation { .. } => {
                    MobilityProfile::RopeOscillation { speed_cm_s }
                }
                MobilityProfile::Swimmer { .. } => MobilityProfile::Swimmer { speed_cm_s },
                _ => MobilityProfile::CurrentDrift { speed_cm_s },
            });
        }
    }
    Err(bad_slug("mobility", s))
}

fn bad_slug(axis: &str, slug: &str) -> SystemError {
    SystemError::InvalidConfig {
        reason: format!("unknown {axis} slug {slug:?} in campaign manifest"),
    }
}

fn audio_err(e: uw_audio::AudioError) -> SystemError {
    SystemError::Layer {
        layer: "audio",
        reason: e.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Rendering: a recorded cell → one continuous 2-channel campaign WAV
// ---------------------------------------------------------------------------

/// Knobs for [`render_campaign_wav`].
#[derive(Debug, Clone)]
pub struct RenderOptions {
    /// Per-device sample-clock skew in ppm, leader first. Empty means
    /// every clock is nominal; otherwise the length must equal the
    /// recording's device count and the leader's entry must be `0.0`
    /// (the recording clock *is* the leader's clock).
    pub skew_ppm: Vec<f64>,
    /// Sample format of the produced WAV.
    pub format: SampleFormat,
}

impl Default for RenderOptions {
    fn default() -> Self {
        Self {
            skew_ppm: Vec::new(),
            format: SampleFormat::Float32,
        }
    }
}

/// Renders a recorded cell as one continuous 2-channel campaign WAV —
/// no segment table, no markers: exactly what a dive recorder left
/// running for the whole campaign would produce. Captures land at their
/// TDMA slot offsets (stretched by their device's clock skew), the
/// leader's self-heard preamble anchors each round, and the gaps carry
/// the environment's ambient noise.
pub fn render_campaign_wav(recording: &Recording, opts: &RenderOptions) -> Result<Vec<u8>> {
    let n = recording.n_devices;
    let layout = CampaignLayout::for_devices(n)?;
    let skews: Vec<f64> = if opts.skew_ppm.is_empty() {
        vec![0.0; n]
    } else {
        opts.skew_ppm.clone()
    };
    if skews.len() != n {
        return Err(SystemError::InvalidConfig {
            reason: format!(
                "render skew table has {} entries for {n} devices",
                skews.len()
            ),
        });
    }
    if skews[0] != 0.0 {
        return Err(SystemError::InvalidConfig {
            reason: format!(
                "the leader (device 0) is the recording's reference clock; its skew \
                 must be 0, got {} ppm",
                skews[0]
            ),
        });
    }
    for (d, &p) in skews.iter().enumerate() {
        if !p.is_finite() || p.abs() > uw_audio::SKEW_MAX_PPM {
            return Err(SystemError::InvalidConfig {
                reason: format!(
                    "device {d} render skew {p} ppm outside ±{} ppm",
                    uw_audio::SKEW_MAX_PPM
                ),
            });
        }
    }

    let start_pad = (RENDER_START_PAD_S * SAMPLE_RATE).round() as usize;
    let template = preamble_waveform(NumericPath::F64);

    // Placement list: (position, mic1 samples, mic2 samples).
    let mut placements: Vec<(usize, Vec<f64>, Vec<f64>)> = Vec::new();
    for r in 0..recording.rounds {
        // The leader's self-chirp: the raw transmit waveform on both mics
        // (zero range), opening the round's capture grid.
        let pos = start_pad + layout.grid_sample(r, 0) as usize + layout.lead_in;
        placements.push((pos, template.to_vec(), template.to_vec()));
    }
    for link in &recording.links {
        if link.device == 0 || link.device >= n {
            return Err(SystemError::InvalidConfig {
                reason: format!("recorded link device {} outside group of {n}", link.device),
            });
        }
        if link.round >= recording.rounds {
            return Err(SystemError::InvalidConfig {
                reason: format!(
                    "recorded link round {} beyond campaign rounds {}",
                    link.round, recording.rounds
                ),
            });
        }
        let p = skews[link.device];
        let elapsed = layout.elapsed_s(link.round, link.device);
        let pos = start_pad + (elapsed * SAMPLE_RATE * (1.0 + p * 1e-6)).round() as usize;
        let [mic1, mic2] = if p != 0.0 {
            apply_ppm_skew(&link.capture.mic1, &link.capture.mic2, p).map_err(SystemError::from)?
        } else {
            [link.capture.mic1.clone(), link.capture.mic2.clone()]
        };
        placements.push((pos, mic1, mic2));
    }

    let total = placements
        .iter()
        .map(|(pos, m1, _)| pos + m1.len())
        .max()
        .unwrap_or(start_pad)
        + (RENDER_TAIL_S * SAMPLE_RATE).round() as usize;
    let mut mic1 = vec![0.0f64; total];
    let mut mic2 = vec![0.0f64; total];
    for (pos, s1, s2) in &placements {
        for (i, &v) in s1.iter().enumerate() {
            mic1[pos + i] += v;
        }
        for (i, &v) in s2.iter().enumerate() {
            mic2[pos + i] += v;
        }
    }

    // Ambient noise fills only the uncovered gaps: captures already carry
    // their own channel noise, and keeping them untouched lets a clean
    // (zero-skew) import reproduce the simulated cell almost exactly.
    let mut covered: Vec<(usize, usize)> = placements
        .iter()
        .map(|(pos, m1, _)| (*pos, pos + m1.len()))
        .collect();
    covered.sort_unstable();
    let mut gaps: Vec<(usize, usize)> = Vec::new();
    let mut cursor = 0usize;
    for &(s, e) in &covered {
        if s > cursor {
            gaps.push((cursor, s));
        }
        cursor = cursor.max(e);
    }
    if cursor < total {
        gaps.push((cursor, total));
    }
    let profile = Environment::preset(recording.environment).noise;
    let mut rng = StdRng::seed_from_u64(recording.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for &(s, e) in &gaps {
        let n1 = ambient_noise(&profile, e - s, SAMPLE_RATE, &mut rng);
        let n2 = ambient_noise(&profile, e - s, SAMPLE_RATE, &mut rng);
        mic1[s..e].copy_from_slice(&n1);
        mic2[s..e].copy_from_slice(&n2);
    }

    // Normalize jointly (one recording gain for both channels).
    let peak = mic1
        .iter()
        .chain(mic2.iter())
        .fold(0.0f64, |a, &v| a.max(v.abs()));
    let scale = if peak > 0.0 {
        NORMALIZED_PEAK / peak
    } else {
        1.0
    };

    let spec = WavSpec {
        sample_rate: SAMPLE_RATE as u32,
        channels: 2,
        format: opts.format,
    };
    let mut writer = WavWriter::new(std::io::Cursor::new(Vec::new()), spec).map_err(audio_err)?;
    let mut interleaved = Vec::with_capacity(total * 2);
    for i in 0..total {
        interleaved.push(mic1[i] * scale);
        interleaved.push(mic2[i] * scale);
    }
    writer.write_interleaved(&interleaved).map_err(audio_err)?;
    Ok(writer.finalize().map_err(audio_err)?.into_inner())
}

// ---------------------------------------------------------------------------
// Scanning: raw WAV → CampaignManifest
// ---------------------------------------------------------------------------

/// What the importer must be told about a campaign (a field team always
/// knows its deployment); everything temporal — burst positions, round
/// count, per-device skew — is recovered blind from the audio.
#[derive(Debug, Clone)]
pub struct ImportParams {
    /// Environment the campaign was captured in.
    pub environment: EnvironmentKind,
    /// Device count including the leader.
    pub n_devices: usize,
    /// Link condition of the deployment.
    pub condition: LinkProfile,
    /// Mobility profile of the deployment.
    pub mobility: MobilityProfile,
    /// Default numeric path recorded into the manifest.
    pub numeric_path: NumericPath,
    /// Scenario seed the campaign corresponds to.
    pub seed: u64,
    /// Recording name written into the manifest.
    pub recording_name: String,
    /// Burst-scan correlation threshold.
    pub threshold: f64,
    /// Round-count override; `None` auto-detects from the detected grid.
    pub rounds: Option<usize>,
}

impl ImportParams {
    /// Parameters for a clear/static campaign at `environment` with
    /// `n_devices` devices and scenario seed `seed`, default numerics.
    pub fn new(environment: EnvironmentKind, n_devices: usize, seed: u64) -> Self {
        Self {
            environment,
            n_devices,
            condition: LinkProfile::Clear,
            mobility: MobilityProfile::Static,
            numeric_path: NumericPath::F64,
            seed,
            recording_name: "campaign.wav".to_string(),
            threshold: DEFAULT_SCAN_THRESHOLD,
            rounds: None,
        }
    }
}

/// Diagnostics from a [`scan_campaign`] pass.
#[derive(Debug, Clone)]
pub struct ImportReport {
    /// Bursts the detector found in the recording.
    pub bursts_found: usize,
    /// Bursts matched to a (round, device) slot or a leader anchor.
    pub bursts_matched: usize,
    /// Rounds the campaign grid covers.
    pub rounds_detected: usize,
    /// Follower segments entered into the manifest.
    pub segments: usize,
    /// Estimated per-device skew, leader first (ppm).
    pub skew_ppm: Vec<f64>,
    /// Total frames streamed (on the 44.1 kHz grid).
    pub total_frames: u64,
    /// Recovered campaign start (frame of round 0's grid origin).
    pub campaign_start: u64,
}

/// Pass 1 of a blind import: stream the recording's first microphone
/// once, detect every preamble burst, associate bursts to the TDMA grid,
/// fit per-device clock skew, and emit the validated [`CampaignManifest`].
pub fn scan_campaign<R: Read + Seek>(
    reader: WavReader<R>,
    params: &ImportParams,
) -> Result<(CampaignManifest, ImportReport)> {
    let spec = *reader.spec();
    if spec.channels != 2 {
        return Err(SystemError::InvalidConfig {
            reason: format!(
                "campaign recordings are 2-channel (one per microphone), got {}",
                spec.channels
            ),
        });
    }
    if params.n_devices < 2 {
        return Err(SystemError::InvalidConfig {
            reason: format!(
                "campaign needs a leader and at least one follower, got {} devices",
                params.n_devices
            ),
        });
    }
    let layout = CampaignLayout::for_devices(params.n_devices)?;
    let filter = preamble_filter_f32();
    let mut scanner = BurstScanner::with_filter(filter, params.threshold, filter.template_len())
        .map_err(audio_err)?;

    // Only the first microphone is scanned; the second is never converted.
    let mut source = ReplaySource::with_channels(reader, SAMPLE_RATE, STREAM_BLOCK_FRAMES, &[0])
        .map_err(audio_err)?;
    let mut bursts: Vec<Burst> = Vec::new();
    let mut total_frames: u64 = 0;
    while let Some(block) = source.next_block().map_err(audio_err)? {
        total_frames += block.channels[0].len() as u64;
        bursts.extend(scanner.push(&block.channels[0]).map_err(audio_err)?);
    }
    bursts.extend(scanner.finish().map_err(audio_err)?);

    let (manifest, report) = associate_bursts(&bursts, &layout, params, total_frames)?;
    manifest
        .validate(total_frames)
        .map_err(|e| SystemError::InvalidConfig {
            reason: format!("scan produced an invalid manifest: {e}"),
        })?;
    Ok((manifest, report))
}

/// The grid-association core of the scan: pure position arithmetic, split
/// out so the property tests can drive it with synthetic burst streams.
fn associate_bursts(
    bursts: &[Burst],
    layout: &CampaignLayout,
    params: &ImportParams,
    total_frames: u64,
) -> Result<(CampaignManifest, ImportReport)> {
    let n = layout.n_devices;
    let first = bursts.first().ok_or_else(|| SystemError::InvalidConfig {
        reason: "no preamble bursts detected in the recording".to_string(),
    })?;
    // The earliest burst is the leader's round-0 self-chirp, `lead_in`
    // samples after the campaign grid's origin.
    let t0 = first.position as i64 - layout.lead_in as i64;
    if t0 < 0 {
        return Err(SystemError::InvalidConfig {
            reason: format!(
                "first burst at sample {} leaves no room for the {}-sample lead-in",
                first.position, layout.lead_in
            ),
        });
    }
    let last = bursts.last().expect("non-empty").position;
    let period_samples = layout.period_s * SAMPLE_RATE;
    let max_rounds = match params.rounds {
        Some(r) => r,
        None => ((last as i64 - t0) as f64 / period_samples).floor() as usize + 1,
    };
    // Half a follower slot either way: generous enough for propagation
    // delay plus per-round drift, tight enough that neighbouring slots
    // never capture each other's bursts.
    let tolerance = (layout.slot_spacing_s * SAMPLE_RATE / 2.0) as i64;

    let positions: Vec<i64> = bursts.iter().map(|b| b.position as i64).collect();
    let mut used = vec![false; bursts.len()];
    // Nearest unused burst to `expected` within `tolerance`.
    let claim = |expected: i64, used: &mut Vec<bool>| -> Option<usize> {
        let split = positions.partition_point(|&p| p < expected);
        let mut best: Option<(usize, i64)> = None;
        for idx in (0..split).rev() {
            let d = (positions[idx] - expected).abs();
            if d > tolerance {
                break;
            }
            if !used[idx] && best.is_none_or(|(_, bd)| d < bd) {
                best = Some((idx, d));
            }
        }
        for idx in split..positions.len() {
            let d = (positions[idx] - expected).abs();
            if d > tolerance {
                break;
            }
            if !used[idx] && best.is_none_or(|(_, bd)| d < bd) {
                best = Some((idx, d));
            }
        }
        best.map(|(idx, _)| {
            used[idx] = true;
            idx
        })
    };

    // Running per-device offsets track delay + accumulated drift, so the
    // prediction stays centred even when total drift over a long campaign
    // exceeds the one-shot tolerance.
    let mut offsets = vec![0i64; n];
    let mut observations: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n];
    let mut matched_slots: Vec<(usize, usize)> = Vec::new();
    let mut bursts_matched = 0usize;
    let mut last_matched_round = None;
    for r in 0..max_rounds {
        let mut any = false;
        for d in 0..n {
            let nominal = t0 + layout.grid_sample(r, d) + layout.lead_in as i64;
            if let Some(idx) = claim(nominal + offsets[d], &mut used) {
                let offset = positions[idx] - nominal;
                observations[d].push((layout.elapsed_s(r, d), offset as f64));
                offsets[d] = offset;
                bursts_matched += 1;
                any = true;
                if d > 0 {
                    matched_slots.push((r, d));
                }
            }
        }
        if any {
            last_matched_round = Some(r);
        }
    }
    let rounds_detected = match params.rounds {
        Some(r) => r,
        None => last_matched_round.map_or(0, |r| r + 1),
    };
    if rounds_detected == 0 || matched_slots.is_empty() {
        return Err(SystemError::InvalidConfig {
            reason: format!(
                "detected {} bursts but none matched the {}-device TDMA grid",
                bursts.len(),
                n
            ),
        });
    }

    let mut skew_ppm = vec![0.0f64; n];
    for d in 1..n {
        skew_ppm[d] = estimate_skew_ppm(&observations[d], SAMPLE_RATE)
            .map_err(audio_err)?
            .unwrap_or(0.0);
    }

    // Cut segments on the fitted grid (nominal slot + fitted drift), not
    // on raw burst positions: the regression averages out detection
    // jitter, and the propagation delay stays inside the segment where
    // the ranging estimator expects it.
    let mut segments: Vec<SegmentRange> = Vec::with_capacity(matched_slots.len());
    for &(r, d) in &matched_slots {
        let drift = (layout.elapsed_s(r, d) * SAMPLE_RATE * skew_ppm[d] * 1e-6).round() as i64;
        let start = t0 + layout.grid_sample(r, d) + drift;
        if start < 0 {
            return Err(SystemError::InvalidConfig {
                reason: format!("segment for round {r} device {d} starts before the file"),
            });
        }
        segments.push(SegmentRange {
            round: r as u32,
            device: d as u32,
            start: start as u64,
            len: layout.segment_len(),
        });
    }
    // Clamp lengths so consecutive segments (and the file end) never
    // overlap structurally; only reverb tail is lost.
    segments.sort_by_key(|s| s.start);
    for i in 0..segments.len() {
        let next_start = segments
            .get(i + 1)
            .map(|s| s.start)
            .unwrap_or(total_frames)
            .min(total_frames);
        let s = &mut segments[i];
        if s.start >= next_start {
            return Err(SystemError::InvalidConfig {
                reason: format!(
                    "segment for round {} device {} has no room before the next segment",
                    s.round, s.device
                ),
            });
        }
        s.len = s.len.min(next_start - s.start);
    }

    let manifest = CampaignManifest {
        recording: params.recording_name.clone(),
        environment: params.environment.slug().to_string(),
        condition: condition_slug(&params.condition),
        mobility: mobility_slug(&params.mobility),
        numeric_path: params.numeric_path.slug().to_string(),
        seed: params.seed,
        rounds: rounds_detected as u32,
        sample_rate: SAMPLE_RATE as u32,
        n_devices: n as u16,
        skew_ppm: skew_ppm.clone(),
        segments,
    };
    let segments_count = manifest.segments.len();
    let report = ImportReport {
        bursts_found: bursts.len(),
        bursts_matched,
        rounds_detected,
        segments: segments_count,
        skew_ppm,
        total_frames,
        campaign_start: t0 as u64,
    };
    Ok((manifest, report))
}

// ---------------------------------------------------------------------------
// Loading: CampaignManifest + WAV → ImportedCampaign
// ---------------------------------------------------------------------------

/// A loaded campaign: the manifest plus decoded, skew-compensated
/// captures, ready to expand into matrix cells. Cheap to clone (the
/// audio is shared).
#[derive(Debug, Clone)]
pub struct ImportedCampaign {
    /// The manifest the campaign was loaded from.
    pub manifest: CampaignManifest,
    /// Decoded environment axis.
    pub environment: EnvironmentKind,
    /// Decoded link-condition axis.
    pub condition: LinkProfile,
    /// Decoded mobility axis.
    pub mobility: MobilityProfile,
    /// Default numeric path from the manifest.
    pub numeric_path: NumericPath,
    /// Scenario seed.
    pub seed: u64,
    /// Device count including the leader.
    pub n_devices: usize,
    /// Rounds the campaign covers.
    pub rounds: usize,
    /// Decoded skew-compensated captures, shared across cells.
    pub audio: Arc<ReplayAudio>,
}

impl ImportedCampaign {
    /// Builds the campaign's matrix cell on an explicit numeric path. The
    /// cell id carries an [`IMPORT_SEGMENT`] before the seed
    /// (`dock/5dev/clear/static/import/s1`), so imported statistics never
    /// collide with simulated ones.
    pub fn cell_with_path(&self, path: NumericPath) -> Result<EvalCell> {
        let matrix = ScenarioMatrix {
            environments: vec![self.environment],
            topologies: vec![Topology::Group(self.n_devices)],
            conditions: vec![self.condition],
            mobilities: vec![self.mobility],
            numeric_paths: vec![path],
            faults: vec![None],
            seeds: vec![self.seed],
            recordings: Vec::new(),
            rounds_per_cell: self.rounds,
            fidelity: Fidelity::Hybrid,
        };
        let mut cell = matrix.expand()?.remove(0);
        let mut segments: Vec<&str> = cell.id.split('/').collect();
        segments.insert(segments.len() - 1, IMPORT_SEGMENT);
        let id = segments.join("/");
        cell.id = id.clone();
        cell.scenario.set_name(id);
        cell.replay = Some(self.audio.clone());
        Ok(cell)
    }

    /// The campaign's cell on its manifest-default numeric path.
    pub fn cell(&self) -> Result<EvalCell> {
        self.cell_with_path(self.numeric_path)
    }
}

/// Pass 2 of a blind import: read the manifest's frame ranges from the
/// recording (seeking past the frames between them), compensate each
/// device's fitted skew, and assemble the campaign's [`ReplayAudio`].
pub fn load_campaign<R: Read + Seek>(
    reader: WavReader<R>,
    manifest: &CampaignManifest,
) -> Result<ImportedCampaign> {
    let spec = *reader.spec();
    if spec.channels != 2 {
        return Err(SystemError::InvalidConfig {
            reason: format!(
                "campaign recordings are 2-channel (one per microphone), got {}",
                spec.channels
            ),
        });
    }
    let environment = EnvironmentKind::from_slug(&manifest.environment)
        .ok_or_else(|| bad_slug("environment", &manifest.environment))?;
    let condition = condition_from_slug(&manifest.condition)?;
    let mobility = mobility_from_slug(&manifest.mobility)?;
    let numeric_path = NumericPath::from_slug(&manifest.numeric_path)
        .ok_or_else(|| bad_slug("numeric path", &manifest.numeric_path))?;

    // Every check but the end bound, which waits for the stream: a
    // resampled stream's length is known only once it ends.
    let fits = |total_frames: u64| {
        manifest
            .validate(total_frames)
            .map_err(|e| SystemError::InvalidConfig {
                reason: format!("campaign manifest does not fit the recording: {e}"),
            })
    };
    fits(u64::MAX)?;

    // One pass in start order: skip to each segment, read its frames, and
    // undo its device's skew. The validated segments do not overlap.
    let mut order: Vec<&SegmentRange> = manifest.segments.iter().collect();
    order.sort_by_key(|s| s.start);
    let mut source =
        ReplaySource::new(reader, SAMPLE_RATE, STREAM_BLOCK_FRAMES).map_err(audio_err)?;
    let mut captures: HashMap<(usize, usize), LinkCapture> = HashMap::new();
    for seg in order {
        source
            .skip(seg.start - source.position())
            .map_err(audio_err)?;
        let mics = source.read(seg.len as usize).map_err(audio_err)?;
        if mics[0].len() as u64 != seg.len {
            // The stream ended inside this segment, so the end bound fails.
            fits(source.position())?;
            unreachable!("a segment read short ends past the recording");
        }
        let [mic1, mic2] = <[Vec<f64>; 2]>::try_from(mics).expect("two channels were read");
        let ppm = manifest
            .skew_ppm
            .get(seg.device as usize)
            .copied()
            .unwrap_or(0.0);
        captures.insert(
            (seg.round as usize, seg.device as usize),
            LinkCapture::from_imported_segment(mic1, mic2, ppm)?,
        );
    }

    Ok(ImportedCampaign {
        manifest: manifest.clone(),
        environment,
        condition,
        mobility,
        numeric_path,
        seed: manifest.seed,
        n_devices: manifest.n_devices as usize,
        rounds: manifest.rounds as usize,
        audio: Arc::new(ReplayAudio::from_captures(captures)),
    })
}

/// Scan + load in one call over in-memory WAV bytes: the full blind
/// import of a continuous recording.
pub fn import_campaign(
    wav_bytes: &[u8],
    params: &ImportParams,
) -> Result<(ImportedCampaign, ImportReport)> {
    let reader = WavReader::new(std::io::Cursor::new(wav_bytes)).map_err(audio_err)?;
    let (manifest, report) = scan_campaign(reader, params)?;
    let reader = WavReader::new(std::io::Cursor::new(wav_bytes)).map_err(audio_err)?;
    let campaign = load_campaign(reader, &manifest)?;
    Ok((campaign, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::record_cell;
    use uw_core::config::Fidelity;

    fn tiny_cell(rounds: usize) -> EvalCell {
        let matrix = ScenarioMatrix {
            environments: vec![EnvironmentKind::Dock],
            topologies: vec![Topology::FiveDevice],
            conditions: vec![LinkProfile::Clear],
            mobilities: vec![MobilityProfile::Static],
            numeric_paths: vec![NumericPath::F64],
            faults: vec![None],
            seeds: vec![1],
            recordings: Vec::new(),
            rounds_per_cell: rounds,
            fidelity: Fidelity::Hybrid,
        };
        matrix.expand().unwrap().remove(0)
    }

    #[test]
    fn axis_slugs_roundtrip() {
        for c in [
            LinkProfile::Clear,
            LinkProfile::Occluded { bias_m: 3.25 },
            LinkProfile::MissingLink,
            LinkProfile::DeviceChurn { after_round: 7 },
        ] {
            assert_eq!(condition_from_slug(&condition_slug(&c)).unwrap(), c);
        }
        for m in [
            MobilityProfile::Static,
            MobilityProfile::RopeOscillation { speed_cm_s: 6.5 },
            MobilityProfile::Swimmer { speed_cm_s: 10.0 },
            MobilityProfile::CurrentDrift { speed_cm_s: 2.75 },
        ] {
            assert_eq!(mobility_from_slug(&mobility_slug(&m)).unwrap(), m);
        }
        for k in EnvironmentKind::ALL {
            assert_eq!(EnvironmentKind::from_slug(k.slug()), Some(k));
        }
        for p in [NumericPath::F64, NumericPath::F32, NumericPath::Q15] {
            assert_eq!(NumericPath::from_slug(p.slug()), Some(p));
        }
        assert!(condition_from_slug("sunny").is_err());
        assert!(mobility_from_slug("rope:fast").is_err());
        assert_eq!(EnvironmentKind::from_slug("moon"), None);
        assert_eq!(NumericPath::from_slug("f128"), None);
    }

    #[test]
    fn scan_recovers_every_slot_of_a_clean_render() {
        let cell = tiny_cell(2);
        let recording = record_cell(&cell).unwrap();
        let wav = render_campaign_wav(&recording, &RenderOptions::default()).unwrap();
        let params = ImportParams::new(EnvironmentKind::Dock, 5, 1);
        let reader = WavReader::new(std::io::Cursor::new(wav.as_slice())).unwrap();
        let (manifest, report) = scan_campaign(reader, &params).unwrap();
        assert_eq!(report.rounds_detected, 2);
        // 2 rounds × 4 followers, plus 2 leader anchors matched.
        assert_eq!(manifest.segments.len(), 8);
        assert_eq!(report.bursts_found, 10);
        assert_eq!(report.bursts_matched, 10);
        // Clean clocks: the fit stays within what ±1-sample detection
        // jitter over a 2-round baseline can fake.
        for &p in &manifest.skew_ppm {
            assert!(p.abs() < 30.0, "clean-clock skew fit {p} ppm");
        }
        // Manifest bytes roundtrip.
        let bytes = manifest.to_bytes().unwrap();
        assert_eq!(CampaignManifest::from_bytes(&bytes).unwrap(), manifest);
    }

    #[test]
    fn import_produces_runnable_cells_with_import_ids() {
        let cell = tiny_cell(2);
        let recording = record_cell(&cell).unwrap();
        let wav = render_campaign_wav(&recording, &RenderOptions::default()).unwrap();
        let params = ImportParams::new(EnvironmentKind::Dock, 5, 1);
        let (campaign, _) = import_campaign(&wav, &params).unwrap();
        assert_eq!(campaign.rounds, 2);
        assert_eq!(campaign.audio.len(), 8);
        let cell = campaign.cell().unwrap();
        assert_eq!(cell.id, "dock/5dev/clear/static/import/s1");
        assert!(cell.replay.is_some());
        let q15 = campaign.cell_with_path(NumericPath::Q15).unwrap();
        assert_eq!(q15.id, "dock/5dev/clear/static/q15/import/s1");
    }

    #[test]
    fn recordings_axis_expands_into_matrix_cells() {
        let cell = tiny_cell(2);
        let recording = record_cell(&cell).unwrap();
        let wav = render_campaign_wav(&recording, &RenderOptions::default()).unwrap();
        let params = ImportParams::new(EnvironmentKind::Dock, 5, 1);
        let (campaign, _) = import_campaign(&wav, &params).unwrap();
        let matrix = ScenarioMatrix {
            environments: vec![EnvironmentKind::Dock],
            topologies: vec![Topology::FiveDevice],
            conditions: vec![LinkProfile::Clear],
            mobilities: vec![MobilityProfile::Static],
            numeric_paths: vec![NumericPath::F64, NumericPath::Q15],
            faults: vec![None],
            seeds: vec![1],
            recordings: vec![Arc::new(campaign)],
            rounds_per_cell: 2,
            fidelity: Fidelity::Hybrid,
        };
        assert_eq!(matrix.cell_count(), 4);
        let cells = matrix.expand().unwrap();
        assert_eq!(cells.len(), 4);
        let ids: Vec<&str> = cells.iter().map(|c| c.id.as_str()).collect();
        assert!(ids.contains(&"dock/5dev/clear/static/import/s1"));
        assert!(ids.contains(&"dock/5dev/clear/static/q15/import/s1"));
        assert_eq!(
            cells.iter().filter(|c| c.replay.is_some()).count(),
            2,
            "campaign cells carry audio, simulated cells do not"
        );
    }

    #[test]
    fn ambient_only_recordings_are_rejected_with_no_bursts() {
        // Pure noise, no campaign: scan must fail cleanly, not hang or
        // hallucinate a grid.
        let profile = Environment::preset(EnvironmentKind::Dock).noise;
        let mut rng = StdRng::seed_from_u64(7);
        let n = (2.0 * SAMPLE_RATE) as usize;
        let m1 = ambient_noise(&profile, n, SAMPLE_RATE, &mut rng);
        let m2 = ambient_noise(&profile, n, SAMPLE_RATE, &mut rng);
        let spec = WavSpec {
            sample_rate: SAMPLE_RATE as u32,
            channels: 2,
            format: SampleFormat::Float32,
        };
        let mut writer = WavWriter::new(std::io::Cursor::new(Vec::new()), spec).unwrap();
        let mut interleaved = Vec::with_capacity(n * 2);
        for i in 0..n {
            interleaved.push(m1[i]);
            interleaved.push(m2[i]);
        }
        writer.write_interleaved(&interleaved).unwrap();
        let wav = writer.finalize().unwrap().into_inner();
        let params = ImportParams::new(EnvironmentKind::Dock, 5, 1);
        let reader = WavReader::new(std::io::Cursor::new(wav.as_slice())).unwrap();
        let err = scan_campaign(reader, &params).unwrap_err();
        assert!(err.to_string().contains("no preamble bursts"), "{err}");
    }

    #[test]
    fn render_rejects_bad_skew_tables() {
        let cell = tiny_cell(1);
        let recording = record_cell(&cell).unwrap();
        let mut opts = RenderOptions {
            skew_ppm: vec![0.0, 1.0], // wrong length for 5 devices
            ..RenderOptions::default()
        };
        assert!(render_campaign_wav(&recording, &opts).is_err());
        opts.skew_ppm = vec![50.0, 0.0, 0.0, 0.0, 0.0]; // leader must be 0
        assert!(render_campaign_wav(&recording, &opts).is_err());
        opts.skew_ppm = vec![0.0, 0.0, f64::NAN, 0.0, 0.0];
        assert!(render_campaign_wav(&recording, &opts).is_err());
    }
}
