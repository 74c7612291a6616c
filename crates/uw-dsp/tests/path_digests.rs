//! Bit pins for the three numeric paths.
//!
//! Each test below runs one family of planned transforms or correlators on
//! seeded, integer-generated inputs and folds every output word's
//! `to_bits()` into a 64-bit FNV-1a digest. The digests are constants: a
//! change that moves a single output bit on the f64 oracle, the f32 phone
//! path or the Q15 fixed-point path fails here, whatever its tolerance
//! against the oracle. The inputs are exact dyadic rationals drawn from an
//! integer LCG, so they are the same on every build; the digests were
//! recorded on x86-64 Linux and agree between debug and release builds.
//!
//! Covered: `FftPlan` / `F32FftPlan` / `FixedFftPlan` forward then inverse
//! at 2048 (radix-2) and 1920 (Bluestein) points, including the scales the
//! Q15 plan returns; each matched filter's raw and normalised correlation
//! of a signal barely longer than the template and of one that spans
//! several blocks and ends on a short final block (the f32 filter's tail
//! leg); and `ls_channel_estimate` on each path's paper-default preamble.

use uw_dsp::complex::Complex64;
use uw_dsp::fixed::{ComplexQ15, FixedFftPlan, NumericPath, Q15MatchedFilter};
use uw_dsp::float32::{Complex32, F32FftPlan, F32MatchedFilter};
use uw_dsp::ofdm::OfdmConfig;
use uw_dsp::plan::FftPlan;
use uw_dsp::MatchedFilter;
use uw_ranging::channel_est::ls_channel_estimate;
use uw_ranging::preamble::RangingPreamble;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// Integer LCG whose samples are exact multiples of 2⁻²³ in `[-amp, amp)`.
struct Lcg(u64);

impl Lcg {
    fn sample(&mut self, amp: f64) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let q = (self.0 >> 40) as i64 - (1 << 23);
        amp * q as f64 / (1u64 << 23) as f64
    }

    fn signal(&mut self, n: usize, amp: f64) -> Vec<f64> {
        (0..n).map(|_| self.sample(amp)).collect()
    }

    fn complex(&mut self, n: usize, amp: f64) -> Vec<Complex64> {
        (0..n)
            .map(|_| Complex64::new(self.sample(amp), self.sample(amp)))
            .collect()
    }
}

fn digest_f64_plan(n: usize) -> u64 {
    let mut data = Lcg(n as u64).complex(n, 0.5);
    let mut plan = FftPlan::new(n).unwrap();
    let mut h = Fnv::new();
    plan.process_forward(&mut data).unwrap();
    for c in &data {
        h.f64s(&[c.re, c.im]);
    }
    plan.process_inverse(&mut data).unwrap();
    for c in &data {
        h.f64s(&[c.re, c.im]);
    }
    h.0
}

fn digest_f32_plan(n: usize) -> u64 {
    let mut data: Vec<Complex32> = Lcg(n as u64)
        .complex(n, 0.5)
        .into_iter()
        .map(Complex32::from_complex64)
        .collect();
    let mut plan = F32FftPlan::new(n).unwrap();
    let mut h = Fnv::new();
    plan.process_forward(&mut data).unwrap();
    for c in &data {
        h.word(c.re.to_bits() as u64);
        h.word(c.im.to_bits() as u64);
    }
    plan.process_inverse(&mut data).unwrap();
    for c in &data {
        h.word(c.re.to_bits() as u64);
        h.word(c.im.to_bits() as u64);
    }
    h.0
}

fn digest_q15_plan(n: usize) -> u64 {
    let mut data: Vec<ComplexQ15> = Lcg(n as u64)
        .complex(n, 0.5)
        .into_iter()
        .map(ComplexQ15::from_complex64)
        .collect();
    let mut plan = FixedFftPlan::new(n).unwrap();
    let mut h = Fnv::new();
    let scale = plan.process_forward(&mut data).unwrap();
    h.f64s(&[scale]);
    for c in &data {
        h.word(c.re.raw() as u16 as u64);
        h.word(c.im.raw() as u16 as u64);
    }
    let scale = plan.process_inverse(&mut data).unwrap();
    h.f64s(&[scale]);
    for c in &data {
        h.word(c.re.raw() as u16 as u64);
        h.word(c.im.raw() as u16 as u64);
    }
    h.0
}

#[test]
fn fft_plans_are_bit_pinned() {
    assert_eq!(digest_f64_plan(2048), 0x7e5b_9e4e_4f54_7bc8, "f64 radix-2");
    assert_eq!(
        digest_f64_plan(1920),
        0xdb6a_7dca_e4f5_8e1d,
        "f64 Bluestein"
    );
    assert_eq!(digest_f32_plan(2048), 0x66cb_d7aa_cec1_fe8d, "f32 radix-2");
    assert_eq!(
        digest_f32_plan(1920),
        0xcba8_11fa_0b08_2d7e,
        "f32 Bluestein"
    );
    assert_eq!(digest_q15_plan(2048), 0xbba3_50b7_ac4a_dacf, "Q15 radix-2");
    assert_eq!(
        digest_q15_plan(1920),
        0x1b12_1bf1_f549_26b9,
        "Q15 Bluestein"
    );
}

/// Template length above 512 samples, so the f32 filter carries a
/// half-size tail leg (1024-point blocks beside its 2048-point main leg).
const TEMPLATE_LEN: usize = 700;

/// The two correlation inputs: one barely longer than the template, and
/// one whose lags span eight full f32 main blocks plus a final block short
/// enough for the tail leg (and four blocks of the f64 and Q15 filters).
fn filter_inputs() -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut lcg = Lcg(7);
    let template = lcg.signal(TEMPLATE_LEN, 0.9);
    let short = lcg.signal(TEMPLATE_LEN + 17, 0.3);
    let main_step = 2048 - TEMPLATE_LEN + 1;
    let tail_step = 1024 - TEMPLATE_LEN + 1;
    let n_out = 8 * main_step + tail_step / 2;
    let mut long = lcg.signal(n_out + TEMPLATE_LEN - 1, 0.3);
    for (i, &t) in template.iter().enumerate() {
        long[5000 + i] += 0.5 * t;
    }
    (template, short, long)
}

fn digest_filter(
    raw: impl Fn(&[f64], &mut Vec<f64>),
    normalized: impl Fn(&[f64]) -> Vec<f64>,
) -> u64 {
    let (_, short, long) = filter_inputs();
    let mut h = Fnv::new();
    let mut out = Vec::new();
    for signal in [&short, &long] {
        raw(signal, &mut out);
        h.f64s(&out);
        h.f64s(&normalized(signal));
    }
    h.0
}

#[test]
fn matched_filters_are_bit_pinned() {
    let (template, _, _) = filter_inputs();
    let f64_filter = MatchedFilter::new(&template).unwrap();
    let f32_filter = F32MatchedFilter::new(&template).unwrap();
    let q15_filter = Q15MatchedFilter::new(&template).unwrap();
    assert_eq!(f32_filter.block_len(), 2048);
    let d = digest_filter(
        |s, out| f64_filter.correlate_into(s, out).unwrap(),
        |s| f64_filter.correlate_normalized(s).unwrap(),
    );
    assert_eq!(d, 0x9ff9_e8d5_3fe5_2b28, "f64 matched filter");
    let d = digest_filter(
        |s, out| f32_filter.correlate_into(s, out).unwrap(),
        |s| f32_filter.correlate_normalized(s).unwrap(),
    );
    assert_eq!(d, 0xee53_a5a9_ea55_37ec, "f32 matched filter");
    let d = digest_filter(
        |s, out| q15_filter.correlate_into(s, out).unwrap(),
        |s| q15_filter.correlate_normalized(s).unwrap(),
    );
    assert_eq!(d, 0x297c_8922_d561_33f5, "Q15 matched filter");
}

fn digest_channel_estimate(path: NumericPath) -> u64 {
    let preamble = RangingPreamble::new_with_path(OfdmConfig::default(), path).unwrap();
    let offset = 1200;
    let mut stream = Lcg(11).signal(offset + preamble.len() + 3000, 0.05);
    for (i, &w) in preamble.waveform.iter().enumerate() {
        stream[offset + i] += 0.6 * w;
        stream[offset + 37 + i] += 0.25 * w;
    }
    let est = ls_channel_estimate(&stream, &preamble, offset - 20).unwrap();
    let mut h = Fnv::new();
    for c in &est.freq_response {
        h.f64s(&[c.re, c.im]);
    }
    h.f64s(&est.impulse_magnitude);
    h.0
}

#[test]
fn channel_estimates_are_bit_pinned() {
    assert_eq!(
        digest_channel_estimate(NumericPath::F64),
        0x3dc9_8892_cc3d_2252,
        "f64"
    );
    assert_eq!(
        digest_channel_estimate(NumericPath::F32),
        0x5957_7e99_9fe9_46f1,
        "f32"
    );
    assert_eq!(
        digest_channel_estimate(NumericPath::Q15),
        0x8cff_8039_29bf_8b21,
        "Q15"
    );
}
