//! A reference load that tracks the machine's current speed.
//!
//! On a shared two-core VM the same code runs up to twice as fast in one
//! ten-second phase as in the next, so raw wall times of identical runs
//! spread further than any regression bound worth having. Each process
//! therefore times a fixed slice of this file's own code while none of the
//! workload's operations is in flight, and reports its timings at a
//! reference speed: a raw time is scaled by [`REFERENCE_MS`] over the
//! median slice time. The workspace never runs this code, and the slice
//! never runs beside the workload, so a change that makes the workload
//! heavier does not slow the slice.
//!
//! The slice's mix sets how far it moves with the machine. Cache-resident
//! arithmetic alone moved about 1.5× as much as `field-rounds` did across
//! the VM's phases, so dividing by it overcorrected; a streaming
//! decode-like pass alone hardly moved. The slice is therefore about 60%
//! of the first by time and 40% of the second, which tracked the workload
//! best (see README.md, Steadiness).
//!
//! A short slice's median cannot see the host taking the vCPUs away, which
//! a closed loop of long operations suffers as lost time. So the timed
//! part of a closed loop also reads the kernel's steal counter, and a
//! timing at reference speed is the wall time multiplied by the share of
//! busy CPU time that was not stolen, then scaled by the slice.
//!
//! An open loop is corrected operation by operation instead
//! ([`GapSlices`]): its sender times the slice, one part at a time, in the
//! idle gaps between jobs, and each job is scaled by the slices nearest its
//! due time. Its latency is light execution plus hand-offs between
//! threads, which the machine's slow phases stretch more than they stretch
//! the slice: over 1-s windows the latency moved with the slice at a
//! log-log slope of 1.8–1.9, so the factor is the slice ratio squared
//! ([`OPEN_LOOP_EXPONENT`]). The slices see the host's steal too, so no
//! separate steal correction applies there.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Median slice time, in milliseconds, that counts as reference speed: the
/// slice's median on a 2-vCPU Intel Xeon VM at 2.0 GHz.
pub const REFERENCE_MS: f64 = 4.0;
/// Samples per block of the decode-like pass (the importer's block size).
const DECODE_BLOCK: usize = 65_536;
/// Blocks the decode-like pass converts per slice.
const DECODE_BLOCKS: usize = 6;
/// Power of the slice ratio that scales an open loop's timings (see the
/// module docs).
pub const OPEN_LOOP_EXPONENT: i32 = 2;
/// Samples of each slice part, nearest in time to an operation, whose
/// median gives that operation's factor: about one second of gaps.
const NEAREST: usize = 15;

/// Slice times collected over one run, and the stolen share of the timed
/// part's busy CPU time.
#[derive(Debug, Default)]
pub struct Calibration {
    samples_ms: Vec<f64>,
    /// Steal over busy CPU time, 0 until [`Calibration::end_steal`].
    pub steal_share: f64,
    steal_from: Option<CpuTicks>,
}

impl Calibration {
    /// Times one slice of the reference load; returns its duration so a
    /// timed window can leave it out.
    pub fn sample(&mut self) -> Duration {
        let t = Instant::now();
        black_box(reference_slice());
        let took = t.elapsed();
        self.samples_ms.push(took.as_secs_f64() * 1e3);
        took
    }

    /// Median slice time so far, ms (NaN before the first sample).
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.samples_ms)
    }

    /// Scales a raw duration (or divides a raw rate) to reference speed.
    pub fn factor(&self) -> f64 {
        (1.0 - self.steal_share) * REFERENCE_MS / self.median_ms()
    }

    /// Starts counting steal: call where the timed part begins.
    pub fn start_steal(&mut self) {
        self.steal_from = CpuTicks::read();
    }

    /// Sets [`Calibration::steal_share`] from the counters since
    /// [`Calibration::start_steal`]; stays 0 where the kernel reports no
    /// steal.
    pub fn end_steal(&mut self) {
        if let (Some(from), Some(to)) = (self.steal_from, CpuTicks::read()) {
            self.steal_share = to.steal_share_since(&from);
        }
    }
}

/// The reference slice timed in an open loop's idle gaps. A gap between
/// two jobs is often too short for the whole slice, so each gap times one
/// of its two parts, the arithmetic or the decode-like pass; a part runs
/// only when 1.5 times its recent time fits before the next job is due.
#[derive(Debug, Default)]
pub struct GapSlices {
    /// Per part: when each sample started and how long it took (ms).
    parts: [Vec<(Instant, f64)>; 2],
}

impl GapSlices {
    /// Times `rounds` of each part back to back: before and after an open
    /// loop, so every part has samples however few gaps the loop leaves.
    pub fn sample_idle(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.sample(0);
            self.sample(1);
        }
    }

    /// Idle time `part` needs: 1.5 times the median of its latest samples
    /// (a whole reference slice before any).
    fn need(&self, part: usize) -> Duration {
        let recent: Vec<f64> = self.parts[part]
            .iter()
            .rev()
            .take(NEAREST)
            .map(|(_, ms)| *ms)
            .collect();
        let ms = if recent.is_empty() {
            REFERENCE_MS
        } else {
            1.5 * crate::stats::median(&recent)
        };
        Duration::from_secs_f64(ms / 1e3)
    }

    /// The shortest idle time in which some part fits.
    pub fn shortest_need(&self) -> Duration {
        self.need(0).min(self.need(1))
    }

    /// In an idle gap that ends at `gap_end`: times the part with fewer
    /// samples if it fits before then, else the other part if that fits.
    pub fn sample_in_gap(&mut self, gap_end: Instant) {
        let lagging = usize::from(self.parts[1].len() < self.parts[0].len());
        for part in [lagging, 1 - lagging] {
            if Instant::now() + self.need(part) <= gap_end {
                self.sample(part);
                return;
            }
        }
    }

    /// Times one sample of `part` (0: arithmetic, 1: decode-like pass).
    pub fn sample(&mut self, part: usize) {
        let t = Instant::now();
        if part == 0 {
            black_box(arithmetic());
        } else {
            black_box(decode_pass());
        }
        self.parts[part].push((t, t.elapsed().as_secs_f64() * 1e3));
    }

    /// Samples timed so far, per part.
    pub fn counts(&self) -> [usize; 2] {
        [self.parts[0].len(), self.parts[1].len()]
    }

    /// Factor to reference speed at `at`: [`REFERENCE_MS`] over the slice
    /// time there, to the power [`OPEN_LOOP_EXPONENT`]. The slice time is
    /// the sum over parts of the median of the [`NEAREST`] samples nearest
    /// `at`. NaN while a part has no samples.
    pub fn factor_at(&self, at: Instant) -> f64 {
        let slice_ms: f64 = self.parts.iter().map(|p| nearest_median(p, at)).sum();
        (REFERENCE_MS / slice_ms).powi(OPEN_LOOP_EXPONENT)
    }
}

/// Median of the [`NEAREST`] samples of a time-ordered series nearest
/// `at`; NaN for an empty series.
fn nearest_median(samples: &[(Instant, f64)], at: Instant) -> f64 {
    let split = samples.partition_point(|(t, _)| *t < at);
    let (mut before, mut after) = (split, split);
    while after - before < NEAREST.min(samples.len()) {
        let take_before = after == samples.len()
            || (before > 0 && at - samples[before - 1].0 <= samples[after].0 - at);
        if take_before {
            before -= 1;
        } else {
            after += 1;
        }
    }
    let window: Vec<f64> = samples[before..after].iter().map(|(_, ms)| *ms).collect();
    crate::stats::median(&window)
}

/// Busy and stolen CPU time of all CPUs, in clock ticks, from the first
/// line of `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CpuTicks {
    busy: u64,
    steal: u64,
}

impl CpuTicks {
    fn read() -> Option<CpuTicks> {
        Self::parse(&std::fs::read_to_string("/proc/stat").ok()?)
    }

    /// Parses `cpu user nice system idle iowait irq softirq steal …`; busy
    /// time is everything but idle and iowait.
    fn parse(stat: &str) -> Option<CpuTicks> {
        let f: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .map(|v| v.parse().ok())
            .collect::<Option<_>>()?;
        let (user, nice, system, irq, softirq, steal) =
            (f[0], f[1], f[2], *f.get(5)?, *f.get(6)?, *f.get(7)?);
        Some(CpuTicks {
            busy: user + nice + system + irq + softirq + steal,
            steal,
        })
    }

    fn steal_share_since(&self, from: &CpuTicks) -> f64 {
        let busy = self.busy.saturating_sub(from.busy);
        if busy == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(from.steal) as f64 / busy as f64
    }
}

/// The fixed work: a radix-2 complex FFT, a short real convolution, small
/// symmetric eigen-solves, an allocation churn and a sort, then a
/// decode-like pass — the kinds of work the workloads spend their time on,
/// in code the workspace does not share.
fn reference_slice() -> f64 {
    arithmetic() + decode_pass()
}

/// PCM16 samples for the decode-like pass, made once per process.
fn pcm() -> &'static [i16] {
    static PCM: OnceLock<Vec<i16>> = OnceLock::new();
    PCM.get_or_init(|| {
        let mut state: u64 = 0xDEAD_BEEF_CAFE_F00D;
        (0..DECODE_BLOCK * DECODE_BLOCKS)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 48) as i16
            })
            .collect()
    })
}

/// Converts PCM16 blocks to fresh f64 blocks, as a streaming decoder does,
/// and tracks a sliding-window energy over each.
fn decode_pass() -> f64 {
    let mut best = 0.0f64;
    for block in pcm().chunks(DECODE_BLOCK) {
        let x: Vec<f64> = block.iter().map(|&s| f64::from(s) / 32768.0).collect();
        let mut energy = 0.0;
        for (i, v) in x.iter().enumerate() {
            energy += v * v;
            if i >= 256 {
                energy -= x[i - 256] * x[i - 256];
            }
            best = best.max(energy);
        }
    }
    best
}

#[allow(clippy::needless_range_loop)] // symmetric fill reads clearer by index
fn arithmetic() -> f64 {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let mut acc = 0.0;

    let mut re: Vec<f64> = (0..4096).map(|_| next()).collect();
    let mut im = vec![0.0; 4096];
    for _ in 0..2 {
        fft(&mut re, &mut im);
    }
    acc += re[17] + im[33];

    let signal: Vec<f32> = (0..16_384).map(|_| next() as f32).collect();
    let taps: Vec<f32> = (0..32).map(|_| next() as f32).collect();
    let mut out = 0.0f32;
    for w in signal.windows(taps.len()) {
        out += w.iter().zip(&taps).map(|(a, b)| a * b).sum::<f32>();
    }
    acc += f64::from(out);

    for _ in 0..150 {
        let mut m = [[0.0f64; 5]; 5];
        for i in 0..5 {
            for j in i..5 {
                let v = next();
                m[i][j] = v;
                m[j][i] = v;
            }
        }
        acc += jacobi_sweeps(&mut m);
    }

    let vecs: Vec<Vec<f64>> = (0..1_000).map(|k| vec![k as f64; 24]).collect();
    acc += vecs.iter().map(|v| v[3]).sum::<f64>();

    let mut keys: Vec<f64> = (0..8_192).map(|_| next()).collect();
    keys.sort_by(|a, b| a.partial_cmp(b).expect("finite keys"));
    acc + keys[4_096]
}

fn fft(re: &mut [f64], im: &mut [f64]) {
    let n = re.len();
    let mut j = 0;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j ^= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let angle = -2.0 * std::f64::consts::PI / len as f64;
        for start in (0..n).step_by(len) {
            for k in 0..len / 2 {
                let (s, c) = (angle * k as f64).sin_cos();
                let (a, b) = (start + k, start + k + len / 2);
                let tr = re[b] * c - im[b] * s;
                let ti = re[b] * s + im[b] * c;
                re[b] = re[a] - tr;
                im[b] = im[a] - ti;
                re[a] += tr;
                im[a] += ti;
            }
        }
        len <<= 1;
    }
}

/// Four cyclic Jacobi sweeps on a symmetric 5×5 matrix; returns the trace.
#[allow(clippy::needless_range_loop)] // rotations index two rows and columns at once
fn jacobi_sweeps(m: &mut [[f64; 5]; 5]) -> f64 {
    for _ in 0..4 {
        for p in 0..5 {
            for q in p + 1..5 {
                if m[p][q].abs() < 1e-12 {
                    continue;
                }
                let theta = (m[q][q] - m[p][p]) / (2.0 * m[p][q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..5 {
                    let (mkp, mkq) = (m[k][p], m[k][q]);
                    m[k][p] = c * mkp - s * mkq;
                    m[k][q] = s * mkp + c * mkq;
                }
                for k in 0..5 {
                    let (mpk, mqk) = (m[p][k], m[q][k]);
                    m[p][k] = c * mpk - s * mqk;
                    m[q][k] = s * mpk + c * mqk;
                }
            }
        }
    }
    (0..5).map(|i| m[i][i]).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_slice_is_deterministic_and_the_factor_is_a_ratio() {
        assert_eq!(reference_slice().to_bits(), reference_slice().to_bits());
        let c = Calibration {
            samples_ms: vec![5.0, 1.0, 2.0],
            ..Calibration::default()
        };
        assert_eq!(c.median_ms(), 2.0);
        assert_eq!(c.factor(), REFERENCE_MS / 2.0);
        let c = Calibration {
            steal_share: 0.25,
            ..c
        };
        assert_eq!(c.factor(), 0.75 * REFERENCE_MS / 2.0);
    }

    #[test]
    fn a_gap_factor_uses_the_samples_nearest_in_time() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut g = GapSlices::default();
        assert!(g.factor_at(t0).is_nan());
        assert_eq!(
            g.shortest_need(),
            Duration::from_secs_f64(REFERENCE_MS / 1e3)
        );
        // Arithmetic reads 1 ms early and 3 ms late, 20 samples each; the
        // decode pass has one sample of 1 ms.
        g.parts[0] = (0..20)
            .map(|i| (at(i), 1.0))
            .chain((0..20).map(|i| (at(100 + i), 3.0)))
            .collect();
        g.parts[1] = vec![(at(50), 1.0)];
        // Early on only the 1-ms samples are nearest: a 2-ms slice.
        assert_eq!(
            g.factor_at(at(5)),
            (REFERENCE_MS / 2.0).powi(OPEN_LOOP_EXPONENT)
        );
        // Late, only the 3-ms ones: a 4-ms slice, reference speed.
        assert_eq!(g.factor_at(at(200)), 1.0);
        // A part needs 1.5 times its recent median.
        assert_eq!(g.shortest_need(), Duration::from_secs_f64(1.5e-3));
    }

    #[test]
    fn steal_share_comes_from_the_aggregate_cpu_line() {
        let parse = |s: &str| CpuTicks::parse(s).expect("parses");
        let a = parse("cpu  100 0 20 500 1 0 5 25 0 0\ncpu0 50 0 10 250 0 0 2 12 0 0\n");
        assert_eq!(
            a,
            CpuTicks {
                busy: 150,
                steal: 25
            }
        );
        let b = parse("cpu  160 0 30 600 1 0 5 55 0 0\n");
        assert_eq!(b.steal_share_since(&a), 30.0 / 100.0);
        assert_eq!(a.steal_share_since(&a), 0.0);
        assert_eq!(CpuTicks::parse("cpu0 1 2 3\n"), None);
        assert_eq!(CpuTicks::parse("cpu  1 2 3\n"), None);
    }
}
