//! The versioned binary wire format of the serving layer.
//!
//! The vendored serde is a no-op, so the protocol is an explicit binary
//! format, written — like the `uwCM` campaign manifest — in the shared
//! bounded codec [`uw_eval::codec`] (`uw-audio`'s, re-exported). Every
//! message travels in one length-prefixed frame:
//!
//! | offset | size | field   | contents                                  |
//! |-------:|-----:|---------|-------------------------------------------|
//! |      0 |    4 | magic   | `b"UWLZ"`                                 |
//! |      4 |    2 | version | [`WIRE_VERSION`], little-endian           |
//! |      6 |    1 | tag     | message type (see the `tag_` constants)   |
//! |      7 |    1 | flags   | reserved, must be 0                       |
//! |      8 |    4 | length  | payload length in bytes, little-endian    |
//! |     12 |  `n` | payload | message-specific fields                   |
//! | 12+`n` |    4 | crc32   | IEEE CRC-32 of bytes `0..12+n`, LE        |
//!
//! Integers are little-endian; `f64` values travel as their raw IEEE-754
//! bit patterns ([`f64::to_bits`]), so a decoded report is *bit-identical*
//! to the encoded one — NaNs included — which is what lets the TCP path
//! reproduce the batch runner's `EvalReport` JSON byte for byte. Strings
//! are a `u32` length followed by UTF-8 bytes.
//!
//! Defensive decoding: one header check, shared by [`decode_frame`] and
//! [`FrameReader`], validates the payload length against [`MAX_PAYLOAD`]
//! *before* any allocation; the codec's bounded reader checks every inner
//! length (strings, CDF vectors) against the bytes actually remaining; the
//! CRC is verified before the payload is interpreted, and trailing payload
//! bytes are an error. Malformed input of any shape yields a structured
//! [`WireError`], never a panic.
//!
//! Version negotiation: a frame whose version field differs from
//! [`WIRE_VERSION`] decodes to [`WireError::UnsupportedVersion`] — the
//! server answers with a [`WireMessage::ProtocolError`] frame (encoded at
//! *its* version) and closes; [`WireMessage::HelloAck`] tells a client the
//! server's version and payload cap up front.
//!
//! Jobs travel as declarative [`JobSpec`] matrix coordinates, not as
//! serialized scenarios: the server re-expands the spec through a
//! single-entry [`ScenarioMatrix`], which reproduces the exact cell —
//! same id, same RNG seeding, same churn clamping — the submitter's own
//! expansion would have built. Ad-hoc scenario jobs and cells carrying
//! decoded audio are deliberately not wire-transportable; a job names a
//! registered campaign instead ([`JobSpec::recording`]).

use crate::job::RejectReason;
use crate::tenant::Priority;
use std::io::Read;
use uw_core::config::{Fidelity, NumericPath};
use uw_core::prelude::{EnvironmentKind, FaultSchedule};
pub use uw_eval::codec::crc32;
use uw_eval::codec::{
    self, put_bool, put_code, put_f64, put_u16, put_u32, put_u64, CodecError, Prefix, Reader,
};
use uw_eval::report::ErrorSummary;
use uw_eval::runner::RoundSummary;
use uw_eval::{CellReport, EvalCell, LinkProfile, MobilityProfile, ScenarioMatrix, Topology};

/// Frame magic: the first four bytes of every frame.
pub const WIRE_MAGIC: [u8; 4] = *b"UWLZ";
/// Protocol version this build speaks (frame header field).
pub const WIRE_VERSION: u16 = 1;
/// Hard cap on a frame's payload length, enforced *before* allocation.
pub const MAX_PAYLOAD: u32 = 1 << 20;
/// Fixed frame-header length (magic + version + tag + flags + length).
pub const HEADER_LEN: usize = 12;
/// CRC trailer length.
pub const TRAILER_LEN: usize = 4;

// Message type tags. Client → server messages use the low range,
// server → client the high range; 0xFE is the shared protocol-error tag.
const TAG_HELLO: u8 = 0x01;
const TAG_SUBMIT: u8 = 0x02;
const TAG_CANCEL: u8 = 0x03;
const TAG_GOODBYE: u8 = 0x04;
const TAG_HELLO_ACK: u8 = 0x81;
const TAG_STARTED: u8 = 0x82;
const TAG_ROUND: u8 = 0x83;
const TAG_FINALIZED: u8 = 0x84;
const TAG_CANCELLED: u8 = 0x85;
const TAG_FAILED: u8 = 0x86;
const TAG_REJECTED: u8 = 0x87;
const TAG_PROTOCOL_ERROR: u8 = 0xFE;

/// Structured decode/transport errors. Every way a byte stream can be
/// wrong maps to exactly one variant — the workspace's binary-format fuzz
/// harness (`tests/codec_fuzz.rs`) pins that mapping.
#[derive(Debug)]
pub enum WireError {
    /// The buffer ends mid-frame; more bytes may complete it.
    Truncated,
    /// The first four bytes are not [`WIRE_MAGIC`].
    BadMagic {
        /// The bytes found instead.
        got: [u8; 4],
    },
    /// The frame's version field differs from [`WIRE_VERSION`].
    UnsupportedVersion {
        /// The version the peer sent.
        got: u16,
    },
    /// The frame's type tag names no known message.
    UnknownTag {
        /// The unknown tag.
        tag: u8,
    },
    /// The CRC trailer does not match the frame bytes.
    CrcMismatch {
        /// CRC in the frame trailer.
        got: u32,
        /// CRC computed over the received bytes.
        want: u32,
    },
    /// The length prefix exceeds [`MAX_PAYLOAD`]; nothing was allocated.
    Oversized {
        /// The advertised payload length.
        len: u32,
        /// The enforced cap.
        max: u32,
    },
    /// The payload's internal structure is invalid (short field, bad
    /// UTF-8, trailing bytes, out-of-range enum code, …).
    Malformed {
        /// What was being decoded when the payload ran out of shape.
        context: &'static str,
    },
    /// The underlying transport failed.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadMagic { got } => write!(f, "bad magic {got:02x?}"),
            WireError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported wire version {got} (this build speaks {WIRE_VERSION})"
                )
            }
            WireError::UnknownTag { tag } => write!(f, "unknown message tag 0x{tag:02x}"),
            WireError::CrcMismatch { got, want } => {
                write!(f, "crc mismatch: frame says {got:08x}, computed {want:08x}")
            }
            WireError::Oversized { len, max } => {
                write!(f, "payload length {len} exceeds cap {max}")
            }
            WireError::Malformed { context } => write!(f, "malformed payload: {context}"),
            WireError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

impl From<CodecError> for WireError {
    /// Every payload fault — short field, bad UTF-8, unknown code, lying
    /// count, trailing bytes — is `Malformed`, attributed to its field.
    fn from(e: CodecError) -> Self {
        WireError::Malformed { context: e.field }
    }
}

/// Declarative coordinates of one matrix cell — the wire representation
/// of a localization job. [`JobSpec::to_cell`] re-expands it server-side
/// through a single-entry [`ScenarioMatrix`], reproducing the exact cell
/// (id, RNG seeding, churn clamping, fault slug) the submitter's own
/// expansion would build.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Environment preset.
    pub environment: EnvironmentKind,
    /// Group size.
    pub n_devices: u32,
    /// Link condition.
    pub condition: LinkProfile,
    /// Mobility profile.
    pub mobility: MobilityProfile,
    /// Numeric path of the waveform-level DSP.
    pub numeric_path: NumericPath,
    /// Physical-layer fidelity.
    pub fidelity: Fidelity,
    /// RNG seed.
    pub seed: u64,
    /// Rounds to run.
    pub rounds: u32,
    /// Canonical [`FaultSchedule`] spec string, if the cell is faulted.
    pub faults: Option<String>,
    /// Name of a server-registered imported campaign
    /// ([`uw_eval::ImportedCampaign`]) to run the job against instead of
    /// the simulator. Recorded audio itself never travels over the wire —
    /// the server resolves the name in its recording registry
    /// ([`crate::server::Server::register_recording`]) and rejects jobs
    /// naming an unknown recording. When set, `environment`, `n_devices`,
    /// `condition`, `mobility`, `seed` and `rounds` must match the
    /// campaign manifest; only `numeric_path` selects among the
    /// campaign's cells.
    pub recording: Option<String>,
}

impl JobSpec {
    /// Extracts the wire spec from a matrix-expanded cell. Returns `None`
    /// for cells carrying recorded audio — audio does not travel over
    /// this protocol (name a registered campaign in
    /// [`JobSpec::recording`], or run the cell in process).
    pub fn from_cell(cell: &EvalCell) -> Option<Self> {
        if cell.replay.is_some() {
            return None;
        }
        Some(Self {
            environment: cell.environment,
            n_devices: cell.n_devices as u32,
            condition: cell.condition,
            mobility: cell.mobility,
            numeric_path: cell.numeric_path,
            fidelity: cell.scenario.config().fidelity,
            seed: cell.seed,
            rounds: cell.rounds as u32,
            faults: cell.faults.as_ref().map(|f| f.to_spec()),
            recording: None,
        })
    }

    /// Reconstructs the ready-to-run cell by expanding a single-entry
    /// matrix. Deterministic: equal specs yield equal cells (and equal
    /// ids), so the streamed report merges exactly like the batch one.
    pub fn to_cell(&self) -> uw_core::Result<EvalCell> {
        if let Some(name) = &self.recording {
            return Err(uw_core::SystemError::InvalidConfig {
                reason: format!(
                    "job references recording {name:?}: resolve it through the \
                     server's recording registry, not JobSpec::to_cell"
                ),
            });
        }
        let faults = match &self.faults {
            Some(spec) => Some(FaultSchedule::parse(spec)?),
            None => None,
        };
        let matrix = ScenarioMatrix {
            environments: vec![self.environment],
            topologies: vec![Topology::Group(self.n_devices as usize)],
            conditions: vec![self.condition],
            mobilities: vec![self.mobility],
            numeric_paths: vec![self.numeric_path],
            faults: vec![faults],
            seeds: vec![self.seed],
            recordings: vec![],
            rounds_per_cell: self.rounds as usize,
            fidelity: self.fidelity,
        };
        let mut cells = matrix.expand()?;
        Ok(cells.remove(0))
    }
}

/// One protocol message. Client → server: `Hello`, `Submit`, `Cancel`,
/// `Goodbye`. Server → client: `HelloAck`, the per-job event mirror of
/// [`crate::job::CellUpdate`] (`Started` … `Rejected`), and
/// `ProtocolError`. The `tag` fields are *client-chosen* correlation ids
/// — the server echoes them on every event of the job, so a pipelined
/// client can multiplex thousands of jobs over one connection.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// Connection opener; `client` is a display name for logs.
    Hello {
        /// Client display name.
        client: String,
    },
    /// Server's reply to `Hello`: its version and payload cap.
    HelloAck {
        /// The server's [`WIRE_VERSION`].
        version: u16,
        /// The server's [`MAX_PAYLOAD`].
        max_payload: u32,
    },
    /// Submit one job.
    Submit {
        /// Client-chosen correlation id, echoed on every event.
        tag: u64,
        /// Tenant the job bills to.
        tenant: String,
        /// Priority class.
        priority: Priority,
        /// Deadline budget in milliseconds from server receipt; `None`
        /// means no deadline.
        deadline_ms: Option<u64>,
        /// The job's matrix coordinates.
        spec: JobSpec,
    },
    /// Request cooperative cancellation of a submitted job.
    Cancel {
        /// Correlation id of the job to cancel.
        tag: u64,
    },
    /// Orderly half-close: no more submissions will follow; the server
    /// finishes in-flight jobs and then closes the connection.
    Goodbye,
    /// Mirror of [`crate::job::CellUpdate::CellStarted`].
    Started {
        /// Correlation id.
        tag: u64,
        /// Cell id the job reports under.
        cell_id: String,
        /// Rounds the job will run.
        rounds: u64,
    },
    /// Mirror of [`crate::job::CellUpdate::RoundCompleted`].
    Round {
        /// Correlation id.
        tag: u64,
        /// Cell id the job reports under.
        cell_id: String,
        /// The round's result.
        summary: RoundSummary,
    },
    /// Mirror of [`crate::job::CellUpdate::CellFinalized`]; the report is
    /// bit-identical to the server-side one.
    Finalized {
        /// Correlation id.
        tag: u64,
        /// The finalized per-cell report.
        report: CellReport,
    },
    /// Mirror of [`crate::job::CellUpdate::JobCancelled`].
    Cancelled {
        /// Correlation id.
        tag: u64,
        /// Statistics over the rounds that ran before cancellation.
        partial: CellReport,
    },
    /// Mirror of [`crate::job::CellUpdate::JobFailed`].
    Failed {
        /// Correlation id.
        tag: u64,
        /// Cell id the job reported under.
        cell_id: String,
        /// Failure reason.
        reason: String,
    },
    /// Mirror of [`crate::job::CellUpdate::JobRejected`].
    Rejected {
        /// Correlation id.
        tag: u64,
        /// Cell id the job would have reported under.
        cell_id: String,
        /// Tenant that submitted it.
        tenant: String,
        /// The structured rejection.
        reason: RejectReason,
    },
    /// The peer violated the protocol; the connection closes after this.
    ProtocolError {
        /// Human-readable description.
        message: String,
    },
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

// One-byte code tables of the plain enums: entry `i` travels as byte `i`.
const ENVIRONMENTS: [EnvironmentKind; 6] = [
    EnvironmentKind::Pool,
    EnvironmentKind::Dock,
    EnvironmentKind::Viewpoint,
    EnvironmentKind::Boathouse,
    EnvironmentKind::OpenWater,
    EnvironmentKind::TidalChannel,
];
const PATHS: [NumericPath; 3] = [NumericPath::F64, NumericPath::F32, NumericPath::Q15];
const FIDELITIES: [Fidelity; 2] = [Fidelity::Statistical, Fidelity::Hybrid];
const PRIORITIES: [Priority; 2] = [Priority::Live, Priority::Replay];

/// Every wire string is a `u32` length followed by UTF-8 bytes.
const STR: Prefix = Prefix::U32;

/// Appends a wire string. Payloads are capped at [`MAX_PAYLOAD`], far
/// below what the length prefix can hold.
fn put_str(out: &mut Vec<u8>, s: &str) {
    codec::put_str(out, STR, "string", s).expect("a wire string fits its u32 length prefix");
}

fn put_opt_str(out: &mut Vec<u8>, s: &Option<String>) {
    put_bool(out, s.is_some());
    if let Some(s) = s {
        put_str(out, s);
    }
}

fn encode_spec(out: &mut Vec<u8>, spec: &JobSpec) {
    put_code(out, &ENVIRONMENTS, &spec.environment);
    put_u32(out, spec.n_devices);
    match spec.condition {
        LinkProfile::Clear => out.push(0),
        LinkProfile::Occluded { bias_m } => {
            out.push(1);
            put_f64(out, bias_m);
        }
        LinkProfile::MissingLink => out.push(2),
        LinkProfile::DeviceChurn { after_round } => {
            out.push(3);
            put_u64(out, after_round as u64);
        }
    }
    match spec.mobility {
        MobilityProfile::Static => out.push(0),
        MobilityProfile::RopeOscillation { speed_cm_s } => {
            out.push(1);
            put_f64(out, speed_cm_s);
        }
        MobilityProfile::Swimmer { speed_cm_s } => {
            out.push(2);
            put_f64(out, speed_cm_s);
        }
        MobilityProfile::CurrentDrift { speed_cm_s } => {
            out.push(3);
            put_f64(out, speed_cm_s);
        }
    }
    put_code(out, &PATHS, &spec.numeric_path);
    put_code(out, &FIDELITIES, &spec.fidelity);
    put_u64(out, spec.seed);
    put_u32(out, spec.rounds);
    put_opt_str(out, &spec.faults);
    put_opt_str(out, &spec.recording);
}

fn encode_summary(out: &mut Vec<u8>, s: &RoundSummary) {
    put_u64(out, s.round as u64);
    put_bool(out, s.ok);
    put_f64(out, s.median_error_2d_m);
    put_u64(out, s.dropped_links as u64);
    put_bool(out, s.flipping_correct);
}

fn encode_error_summary(out: &mut Vec<u8>, s: &ErrorSummary) {
    put_u64(out, s.count as u64);
    put_f64(out, s.median);
    put_f64(out, s.p90);
    put_f64(out, s.p99);
    put_f64(out, s.mean);
    put_f64(out, s.max);
}

fn encode_report(out: &mut Vec<u8>, r: &CellReport) {
    put_str(out, &r.id);
    put_str(out, &r.environment);
    put_u64(out, r.n_devices as u64);
    put_str(out, &r.condition);
    put_str(out, &r.mobility);
    put_str(out, &r.numeric_path);
    put_str(out, &r.source);
    put_u64(out, r.seed);
    put_u64(out, r.rounds as u64);
    put_u64(out, r.rounds_completed as u64);
    put_u64(out, r.rounds_failed as u64);
    encode_error_summary(out, &r.error_2d);
    put_u32(out, r.error_cdf.len() as u32);
    for &(e, f) in &r.error_cdf {
        put_f64(out, e);
        put_f64(out, f);
    }
    put_f64(out, r.ranging_median_m);
    put_f64(out, r.flip_rate);
    put_f64(out, r.mean_dropped_links);
    put_u64(out, r.churn_excluded as u64);
    put_f64(out, r.latency_acoustic_s);
    put_f64(out, r.latency_total_s);
}

fn encode_reason(out: &mut Vec<u8>, reason: &RejectReason) {
    match reason {
        RejectReason::AdmissionDenied { tenant } => {
            out.push(0);
            put_str(out, tenant);
        }
        RejectReason::DeadlineExpired { late_ms } => {
            out.push(1);
            put_u64(out, *late_ms);
        }
        RejectReason::Overloaded { queued, capacity } => {
            out.push(2);
            put_u64(out, *queued as u64);
            put_u64(out, *capacity as u64);
        }
    }
}

fn encode_payload(msg: &WireMessage, out: &mut Vec<u8>) -> u8 {
    match msg {
        WireMessage::Hello { client } => {
            put_str(out, client);
            TAG_HELLO
        }
        WireMessage::HelloAck {
            version,
            max_payload,
        } => {
            put_u16(out, *version);
            put_u32(out, *max_payload);
            TAG_HELLO_ACK
        }
        WireMessage::Submit {
            tag,
            tenant,
            priority,
            deadline_ms,
            spec,
        } => {
            put_u64(out, *tag);
            put_str(out, tenant);
            put_code(out, &PRIORITIES, priority);
            put_bool(out, deadline_ms.is_some());
            if let Some(ms) = deadline_ms {
                put_u64(out, *ms);
            }
            encode_spec(out, spec);
            TAG_SUBMIT
        }
        WireMessage::Cancel { tag } => {
            put_u64(out, *tag);
            TAG_CANCEL
        }
        WireMessage::Goodbye => TAG_GOODBYE,
        WireMessage::Started {
            tag,
            cell_id,
            rounds,
        } => {
            put_u64(out, *tag);
            put_str(out, cell_id);
            put_u64(out, *rounds);
            TAG_STARTED
        }
        WireMessage::Round {
            tag,
            cell_id,
            summary,
        } => {
            put_u64(out, *tag);
            put_str(out, cell_id);
            encode_summary(out, summary);
            TAG_ROUND
        }
        WireMessage::Finalized { tag, report } => {
            put_u64(out, *tag);
            encode_report(out, report);
            TAG_FINALIZED
        }
        WireMessage::Cancelled { tag, partial } => {
            put_u64(out, *tag);
            encode_report(out, partial);
            TAG_CANCELLED
        }
        WireMessage::Failed {
            tag,
            cell_id,
            reason,
        } => {
            put_u64(out, *tag);
            put_str(out, cell_id);
            put_str(out, reason);
            TAG_FAILED
        }
        WireMessage::Rejected {
            tag,
            cell_id,
            tenant,
            reason,
        } => {
            put_u64(out, *tag);
            put_str(out, cell_id);
            put_str(out, tenant);
            encode_reason(out, reason);
            TAG_REJECTED
        }
        WireMessage::ProtocolError { message } => {
            put_str(out, message);
            TAG_PROTOCOL_ERROR
        }
    }
}

/// Encodes a message into one complete frame (header + payload + CRC).
///
/// Panics if the payload would exceed [`MAX_PAYLOAD`] — impossible for
/// the messages this protocol defines (reports are a few KiB; the cap is
/// 1 MiB).
pub fn encode_frame(msg: &WireMessage) -> Vec<u8> {
    let mut payload = Vec::new();
    let tag = encode_payload(msg, &mut payload);
    assert!(
        payload.len() as u64 <= MAX_PAYLOAD as u64,
        "payload {} exceeds wire cap {MAX_PAYLOAD}",
        payload.len()
    );
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&WIRE_MAGIC);
    put_u16(&mut out, WIRE_VERSION);
    out.push(tag);
    out.push(0); // flags (reserved)
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(&payload);
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn decode_spec(c: &mut Reader<'_>) -> Result<JobSpec, WireError> {
    let environment = c.code(&ENVIRONMENTS, "spec environment")?;
    let n_devices = c.u32("spec n_devices")?;
    let condition = match c.u8("spec condition tag")? {
        0 => LinkProfile::Clear,
        1 => LinkProfile::Occluded {
            bias_m: c.f64("spec occlusion bias")?,
        },
        2 => LinkProfile::MissingLink,
        3 => LinkProfile::DeviceChurn {
            after_round: c.usize("spec churn round")?,
        },
        _ => {
            return Err(WireError::Malformed {
                context: "condition tag",
            })
        }
    };
    let mobility = match c.u8("spec mobility tag")? {
        0 => MobilityProfile::Static,
        1 => MobilityProfile::RopeOscillation {
            speed_cm_s: c.f64("spec rope speed")?,
        },
        2 => MobilityProfile::Swimmer {
            speed_cm_s: c.f64("spec swim speed")?,
        },
        3 => MobilityProfile::CurrentDrift {
            speed_cm_s: c.f64("spec drift speed")?,
        },
        _ => {
            return Err(WireError::Malformed {
                context: "mobility tag",
            })
        }
    };
    Ok(JobSpec {
        environment,
        n_devices,
        condition,
        mobility,
        numeric_path: c.code(&PATHS, "spec numeric path")?,
        fidelity: c.code(&FIDELITIES, "spec fidelity")?,
        seed: c.u64("spec seed")?,
        rounds: c.u32("spec rounds")?,
        faults: decode_opt_str(c, "spec faults")?,
        recording: decode_opt_str(c, "spec recording")?,
    })
}

fn decode_opt_str(c: &mut Reader<'_>, field: &'static str) -> Result<Option<String>, CodecError> {
    c.bool(field)?.then(|| c.str(STR, field)).transpose()
}

fn decode_summary(c: &mut Reader<'_>) -> Result<RoundSummary, CodecError> {
    Ok(RoundSummary {
        round: c.usize("summary round")?,
        ok: c.bool("summary ok")?,
        median_error_2d_m: c.f64("summary median")?,
        dropped_links: c.usize("summary drops")?,
        flipping_correct: c.bool("summary flip")?,
    })
}

fn decode_error_summary(c: &mut Reader<'_>) -> Result<ErrorSummary, CodecError> {
    Ok(ErrorSummary {
        count: c.usize("error count")?,
        median: c.f64("error median")?,
        p90: c.f64("error p90")?,
        p99: c.f64("error p99")?,
        mean: c.f64("error mean")?,
        max: c.f64("error max")?,
    })
}

fn decode_report(c: &mut Reader<'_>) -> Result<CellReport, CodecError> {
    let id = c.str(STR, "report id")?;
    let environment = c.str(STR, "report environment")?;
    let n_devices = c.usize("report n_devices")?;
    let condition = c.str(STR, "report condition")?;
    let mobility = c.str(STR, "report mobility")?;
    let numeric_path = c.str(STR, "report numeric_path")?;
    let source = c.str(STR, "report source")?;
    let seed = c.u64("report seed")?;
    let rounds = c.usize("report rounds")?;
    let rounds_completed = c.usize("report rounds_completed")?;
    let rounds_failed = c.usize("report rounds_failed")?;
    let error_2d = decode_error_summary(c)?;
    // Each CDF point is 16 bytes.
    let cdf_len = c.u32("report cdf length")? as usize;
    let cdf_len = c.count(cdf_len, 16, "report cdf length")?;
    let error_cdf = (0..cdf_len)
        .map(|_| Ok((c.f64("report cdf error")?, c.f64("report cdf fraction")?)))
        .collect::<Result<_, CodecError>>()?;
    Ok(CellReport {
        id,
        environment,
        n_devices,
        condition,
        mobility,
        numeric_path,
        source,
        seed,
        rounds,
        rounds_completed,
        rounds_failed,
        error_2d,
        error_cdf,
        ranging_median_m: c.f64("report ranging")?,
        flip_rate: c.f64("report flip rate")?,
        mean_dropped_links: c.f64("report drops")?,
        churn_excluded: c.usize("report churn")?,
        latency_acoustic_s: c.f64("report latency acoustic")?,
        latency_total_s: c.f64("report latency total")?,
    })
}

fn decode_reason(c: &mut Reader<'_>) -> Result<RejectReason, WireError> {
    Ok(match c.u8("reject reason tag")? {
        0 => RejectReason::AdmissionDenied {
            tenant: c.str(STR, "reject tenant")?,
        },
        1 => RejectReason::DeadlineExpired {
            late_ms: c.u64("reject late_ms")?,
        },
        2 => RejectReason::Overloaded {
            queued: c.usize("reject queued")?,
            capacity: c.usize("reject capacity")?,
        },
        _ => {
            return Err(WireError::Malformed {
                context: "reject reason tag",
            })
        }
    })
}

fn decode_payload(tag: u8, payload: &[u8]) -> Result<WireMessage, WireError> {
    let mut c = Reader::new(payload);
    let msg = match tag {
        TAG_HELLO => WireMessage::Hello {
            client: c.str(STR, "hello client")?,
        },
        TAG_HELLO_ACK => WireMessage::HelloAck {
            version: c.u16("helloack version")?,
            max_payload: c.u32("helloack cap")?,
        },
        TAG_SUBMIT => WireMessage::Submit {
            tag: c.u64("submit tag")?,
            tenant: c.str(STR, "submit tenant")?,
            priority: c.code(&PRIORITIES, "submit priority")?,
            deadline_ms: c
                .bool("submit deadline flag")?
                .then(|| c.u64("submit deadline"))
                .transpose()?,
            spec: decode_spec(&mut c)?,
        },
        TAG_CANCEL => WireMessage::Cancel {
            tag: c.u64("cancel tag")?,
        },
        TAG_GOODBYE => WireMessage::Goodbye,
        TAG_STARTED => WireMessage::Started {
            tag: c.u64("started tag")?,
            cell_id: c.str(STR, "started cell")?,
            rounds: c.u64("started rounds")?,
        },
        TAG_ROUND => WireMessage::Round {
            tag: c.u64("round tag")?,
            cell_id: c.str(STR, "round cell")?,
            summary: decode_summary(&mut c)?,
        },
        TAG_FINALIZED => WireMessage::Finalized {
            tag: c.u64("finalized tag")?,
            report: decode_report(&mut c)?,
        },
        TAG_CANCELLED => WireMessage::Cancelled {
            tag: c.u64("cancelled tag")?,
            partial: decode_report(&mut c)?,
        },
        TAG_FAILED => WireMessage::Failed {
            tag: c.u64("failed tag")?,
            cell_id: c.str(STR, "failed cell")?,
            reason: c.str(STR, "failed reason")?,
        },
        TAG_REJECTED => WireMessage::Rejected {
            tag: c.u64("rejected tag")?,
            cell_id: c.str(STR, "rejected cell")?,
            tenant: c.str(STR, "rejected tenant")?,
            reason: decode_reason(&mut c)?,
        },
        TAG_PROTOCOL_ERROR => WireMessage::ProtocolError {
            message: c.str(STR, "protocol error")?,
        },
        tag => return Err(WireError::UnknownTag { tag }),
    };
    c.finish("trailing payload bytes")?;
    Ok(msg)
}

/// Validates a frame header — magic, version, reserved flags, payload
/// cap, in that order — and returns its tag and payload length. Both
/// [`decode_frame`] and [`FrameReader`] run it before they look at (or
/// allocate for) the payload, so a hostile length prefix costs nothing.
fn check_header(header: &[u8]) -> Result<(u8, usize), WireError> {
    let mut h = Reader::new(header);
    let got = h.array("magic")?;
    if got != WIRE_MAGIC {
        return Err(WireError::BadMagic { got });
    }
    let version = h.u16("version")?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion { got: version });
    }
    let tag = h.u8("tag")?;
    if h.u8("flags")? != 0 {
        return Err(WireError::Malformed {
            context: "reserved flags",
        });
    }
    let len = h.u32("length")?;
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized {
            len,
            max: MAX_PAYLOAD,
        });
    }
    Ok((tag, len as usize))
}

/// Decodes one frame from the front of `buf`. On success returns the
/// message and the total frame length consumed. [`WireError::Truncated`]
/// means the buffer ends mid-frame: read more bytes and retry.
///
/// Validation order: header (magic → version → flags → length cap) →
/// completeness → CRC → tag → payload structure. The length cap is
/// enforced before the payload is even *looked at*, so a hostile length
/// prefix cannot drive an allocation.
pub fn decode_frame(buf: &[u8]) -> Result<(WireMessage, usize), WireError> {
    let header = buf.get(..HEADER_LEN).ok_or(WireError::Truncated)?;
    let (tag, len) = check_header(header)?;
    let body_end = HEADER_LEN + len;
    let total = body_end + TRAILER_LEN;
    let frame = buf.get(..total).ok_or(WireError::Truncated)?;
    let want = crc32(&frame[..body_end]);
    let got = Reader::new(&frame[body_end..]).u32("crc")?;
    if got != want {
        return Err(WireError::CrcMismatch { got, want });
    }
    let msg = decode_payload(tag, &frame[HEADER_LEN..body_end])?;
    Ok((msg, total))
}

/// Incremental frame reader over any [`Read`] — handles arbitrarily split
/// reads (TCP segments, 1-byte trickles) by buffering exactly one frame
/// at a time. The payload cap is enforced from the header before the
/// payload buffer is allocated.
pub struct FrameReader<R> {
    inner: R,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> Self {
        Self { inner }
    }

    /// Consumes and returns the wrapped stream.
    pub fn into_inner(self) -> R {
        self.inner
    }

    fn read_full(&mut self, buf: &mut [u8]) -> Result<(), WireError> {
        self.inner.read_exact(buf).map_err(WireError::from)
    }

    /// Reads the next complete frame. `Ok(None)` on clean EOF at a frame
    /// boundary; EOF mid-frame is [`WireError::Truncated`].
    pub fn read_message(&mut self) -> Result<Option<WireMessage>, WireError> {
        let mut header = [0u8; HEADER_LEN];
        // Distinguish clean EOF (no bytes at all) from a torn frame.
        let mut got = 0usize;
        while got < 1 {
            match self.inner.read(&mut header[..1]) {
                Ok(0) => return Ok(None),
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(WireError::from(e)),
            }
        }
        self.read_full(&mut header[1..])?;
        let (_, len) = check_header(&header)?;
        let mut frame = vec![0u8; HEADER_LEN + len + TRAILER_LEN];
        frame[..HEADER_LEN].copy_from_slice(&header);
        self.read_full(&mut frame[HEADER_LEN..])?;
        let (msg, consumed) = decode_frame(&frame)?;
        debug_assert_eq!(consumed, frame.len());
        Ok(Some(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 check: crc32(b"123456789") == 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip() {
        let msg = WireMessage::Hello {
            client: "bench".into(),
        };
        let bytes = encode_frame(&msg);
        let (decoded, consumed) = decode_frame(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, msg);
        // Byte-exact re-encode.
        assert_eq!(encode_frame(&decoded), bytes);
    }

    #[test]
    fn job_specs_reconstruct_matrix_cells_exactly() {
        let mut matrix = ScenarioMatrix::smoke();
        matrix.rounds_per_cell = 2;
        for cell in matrix.expand().unwrap() {
            let spec = JobSpec::from_cell(&cell).unwrap();
            let rebuilt = spec.to_cell().unwrap();
            assert_eq!(rebuilt.id, cell.id);
            assert_eq!(rebuilt.seed, cell.seed);
            assert_eq!(rebuilt.rounds, cell.rounds);
            assert_eq!(rebuilt.scenario.name(), cell.scenario.name());
        }
    }

    #[test]
    fn truncation_and_corruption_are_structured() {
        let bytes = encode_frame(&WireMessage::Goodbye);
        assert!(matches!(
            decode_frame(&bytes[..bytes.len() - 1]),
            Err(WireError::Truncated)
        ));
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        assert!(matches!(
            decode_frame(&corrupt),
            Err(WireError::CrcMismatch { .. })
        ));
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 0xFF;
        wrong_version[5] = 0x00;
        assert!(matches!(
            decode_frame(&wrong_version),
            Err(WireError::UnsupportedVersion { got: 255 })
        ));
    }
}
