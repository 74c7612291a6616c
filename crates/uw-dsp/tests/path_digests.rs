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
//! of a signal barely longer than the template (the bottom rung of every
//! block-length ladder), of one that spans several blocks and ends on a
//! short final block, and of a 1,800-sample signal pinned in its own
//! assertions (the middle rung of the Q15 ladder); `ls_channel_estimate`
//! on each path's paper-default preamble; and `validation_score` at 132
//! candidate starts of the channel-estimate input.
//!
//! The f64 and Q15 matched-filter constants were re-pinned when each block
//! started to run on the shortest rung that covers its lags, with the f64
//! filter moved onto the real-input leg. The f32 constants did not move.
//! Largest |Δ| of the f64 filter against the one-shot oracles over the
//! three inputs, measured then (unchanged from the complex leg to within
//! the oracles' own rounding): raw against `xcorr_fft` 2.2e-11, normalised
//! against `xcorr_normalized` 1.9e-13.
//!
//! The f64 and f32 channel-estimate constants were re-pinned when those
//! paths started to sum the four PN-signed symbol bodies before one
//! transform and to pack a link's two microphones into one complex
//! transform pair (`uw_ranging::channel_est`); the Q15 constant did not
//! move. Largest |Δ| against the per-symbol estimate they replaced, on
//! this file's input: f64 profile 2.0e-15 (4.1e-16 of its 4.89 peak),
//! frequency response 6.3e-14 (1.7e-15 of its 37.9 peak); f32 profile
//! 4.8e-7 (9.8e-8 of the peak), frequency response 6.6e-6 (1.7e-7). The
//! crate-private two-microphone entry is pinned in `channel_est`'s own
//! unit tests, next to its per-symbol reference test.

use uw_dsp::complex::Complex64;
use uw_dsp::fixed::{ComplexQ15, FixedFftPlan, NumericPath, Q15MatchedFilter};
use uw_dsp::float32::{Complex32, F32FftPlan, F32MatchedFilter};
use uw_dsp::matched::{Correlate, OverlapSave};
use uw_dsp::ofdm::OfdmConfig;
use uw_dsp::plan::FftPlan;
use uw_dsp::MatchedFilter;
use uw_ranging::channel_est::ls_channel_estimate;
use uw_ranging::detect::validation_score;
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

/// Template length above 512 samples, so the float paths' ladder has two
/// rungs (1024 and 2048 points) and the Q15 ladder three (up to 4096).
const TEMPLATE_LEN: usize = 700;

/// The correlation inputs: one barely longer than the template; one whose
/// lags span eight full 2048-point float blocks plus a final block short
/// enough for the 1024-point rung (and four Q15 blocks, the last on the
/// 2048-point rung); and one 1,800-sample signal whose 1,101 lags fit one
/// 2048-point block but not one 1024-point block.
struct FilterInputs {
    template: Vec<f64>,
    short: Vec<f64>,
    long: Vec<f64>,
    mid: Vec<f64>,
}

fn filter_inputs() -> FilterInputs {
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
    let mut mid = lcg.signal(1800, 0.3);
    for (i, &t) in template.iter().enumerate() {
        mid[600 + i] += 0.5 * t;
    }
    FilterInputs {
        template,
        short,
        long,
        mid,
    }
}

/// Digest of a filter's raw and normalised correlation of each signal.
fn digest_filter<T: Correlate>(filter: &OverlapSave<T>, signals: &[&[f64]]) -> u64 {
    let mut h = Fnv::new();
    let mut out = Vec::new();
    for &signal in signals {
        filter.correlate_into(signal, &mut out).unwrap();
        h.f64s(&out);
        h.f64s(&filter.correlate_normalized(signal).unwrap());
    }
    h.0
}

#[test]
fn matched_filters_are_bit_pinned() {
    let FilterInputs {
        template,
        short,
        long,
        ..
    } = filter_inputs();
    let signals: [&[f64]; 2] = [&short, &long];
    let f32_filter = F32MatchedFilter::new(&template).unwrap();
    assert_eq!(f32_filter.block_len(), 2048);
    assert_eq!(
        digest_filter(&MatchedFilter::new(&template).unwrap(), &signals),
        0x91b0_e7bf_8928_ec2c,
        "f64 matched filter"
    );
    assert_eq!(
        digest_filter(&f32_filter, &signals),
        0xee53_a5a9_ea55_37ec,
        "f32 matched filter"
    );
    assert_eq!(
        digest_filter(&Q15MatchedFilter::new(&template).unwrap(), &signals),
        0xa21b_8149_eb1c_c118,
        "Q15 matched filter"
    );
}

/// The 1,800-sample input, pinned apart so the constants above stay
/// comparable across changes to the block-length choice.
#[test]
fn matched_filters_are_bit_pinned_on_a_mid_length_signal() {
    let FilterInputs { template, mid, .. } = filter_inputs();
    let signals: [&[f64]; 1] = [&mid];
    assert_eq!(
        digest_filter(&MatchedFilter::new(&template).unwrap(), &signals),
        0x9aa3_21c8_a776_7b02,
        "f64 matched filter"
    );
    assert_eq!(
        digest_filter(&F32MatchedFilter::new(&template).unwrap(), &signals),
        0xaf5f_34b0_6911_6761,
        "f32 matched filter"
    );
    assert_eq!(
        digest_filter(&Q15MatchedFilter::new(&template).unwrap(), &signals),
        0xf244_4991_f3bd_9475,
        "Q15 matched filter"
    );
}

/// Where the channel-estimate input plants its preamble.
const PREAMBLE_OFFSET: usize = 1200;

/// The channel-estimate input: the preamble at [`PREAMBLE_OFFSET`] and an
/// echo 37 samples later, over integer-LCG noise.
fn channel_input(preamble: &RangingPreamble) -> Vec<f64> {
    let offset = PREAMBLE_OFFSET;
    let mut stream = Lcg(11).signal(offset + preamble.len() + 3000, 0.05);
    for (i, &w) in preamble.waveform.iter().enumerate() {
        stream[offset + i] += 0.6 * w;
        stream[offset + 37 + i] += 0.25 * w;
    }
    stream
}

fn digest_channel_estimate(path: NumericPath) -> u64 {
    let preamble = RangingPreamble::new_with_path(OfdmConfig::default(), path).unwrap();
    let stream = channel_input(&preamble);
    let est = ls_channel_estimate(&stream, &preamble, PREAMBLE_OFFSET - 20).unwrap();
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
        0xa475_40f5_2ac1_6d1e,
        "f64"
    );
    assert_eq!(
        digest_channel_estimate(NumericPath::F32),
        0x515a_f578_9c6a_81db,
        "f32"
    );
    assert_eq!(
        digest_channel_estimate(NumericPath::Q15),
        0x8cff_8039_29bf_8b21,
        "Q15"
    );
}

/// PN auto-correlation validation (which runs in `f64` on every path) at
/// every candidate start within 64 samples of the planted preamble, at
/// starts in the leading noise, and at the last start whose symbols still
/// fit the stream.
#[test]
fn validation_scores_are_bit_pinned() {
    let preamble = RangingPreamble::default_paper().unwrap();
    let stream = channel_input(&preamble);
    let last = stream.len() - preamble.len();
    let mut h = Fnv::new();
    for start in (PREAMBLE_OFFSET - 64..=PREAMBLE_OFFSET + 64).chain([0, 333, last]) {
        h.f64s(&[validation_score(&stream, &preamble, start).unwrap()]);
    }
    assert_eq!(h.0, 0xcce0_e95e_6748_66fc, "validation_score");
}
