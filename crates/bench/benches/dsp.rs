//! Criterion micro-benchmarks for the DSP hot paths: FFTs, preamble
//! correlation, LS channel estimation and Viterbi decoding. These are the
//! operations a phone must run in real time during a protocol round.
//!
//! The `*_naive`/`*_oneshot` entries measure the plan-free reference path
//! (twiddles, Bluestein chirps and buffers rebuilt per call) so every run
//! records the planned-vs-naive ratio alongside the absolute numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uw_dsp::coding::{conv_decode_two_thirds, conv_encode_two_thirds};
use uw_dsp::complex::to_complex;
use uw_dsp::correlation::xcorr_normalized;
use uw_dsp::fft::{fft, fft_any};
use uw_dsp::fixed::{ComplexQ15, FixedFftPlan, Q15MatchedFilter};
use uw_dsp::float32::{Complex32, F32FftPlan, F32MatchedFilter};
use uw_dsp::plan::FftPlan;
use uw_ranging::channel_est::ls_channel_estimate;
use uw_ranging::detect::{detect_preamble, DetectorConfig};
use uw_ranging::preamble::RangingPreamble;

fn bench_fft(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let pow2: Vec<f64> = (0..2048).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let sym: Vec<f64> = (0..1920).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let pow2_c = to_complex(&pow2);
    let sym_c = to_complex(&sym);

    c.bench_function("fft_radix2_2048_naive", |b| {
        b.iter(|| fft(&pow2_c).unwrap())
    });
    let mut plan2048 = FftPlan::new(2048).unwrap();
    let mut buf2048 = pow2_c.clone();
    c.bench_function("fft_radix2_2048", |b| {
        b.iter(|| {
            buf2048.copy_from_slice(&pow2_c);
            plan2048.process_forward(&mut buf2048).unwrap();
        })
    });

    c.bench_function("fft_bluestein_1920_naive", |b| {
        b.iter(|| fft_any(&sym_c).unwrap())
    });
    let mut plan1920 = FftPlan::new(1920).unwrap();
    let mut buf1920 = sym_c.clone();
    c.bench_function("fft_bluestein_1920", |b| {
        b.iter(|| {
            buf1920.copy_from_slice(&sym_c);
            plan1920.process_forward(&mut buf1920).unwrap();
        })
    });

    // Fixed-point counterparts of the two plan benches above: the
    // float-vs-Q15 perf axis BENCH_pipeline.json records from this PR on.
    let pow2_q: Vec<ComplexQ15> = pow2_c
        .iter()
        .map(|&c| ComplexQ15::from_complex64(c))
        .collect();
    let sym_q: Vec<ComplexQ15> = sym_c
        .iter()
        .map(|&c| ComplexQ15::from_complex64(c))
        .collect();
    let mut fixed2048 = FixedFftPlan::new(2048).unwrap();
    let mut qbuf2048 = pow2_q.clone();
    c.bench_function("q15_fft_radix2_2048", |b| {
        b.iter(|| {
            qbuf2048.copy_from_slice(&pow2_q);
            fixed2048.process_forward(&mut qbuf2048).unwrap()
        })
    });
    let mut fixed1920 = FixedFftPlan::new(1920).unwrap();
    let mut qbuf1920 = sym_q.clone();
    c.bench_function("q15_fft_bluestein_1920", |b| {
        b.iter(|| {
            qbuf1920.copy_from_slice(&sym_q);
            fixed1920.process_forward(&mut qbuf1920).unwrap()
        })
    });

    // Single-precision counterparts: the third leg of the numeric-path
    // perf axis (8-wide f32 lanes vs 4-wide f64 vs 8-wide Q15).
    let pow2_f: Vec<Complex32> = pow2_c
        .iter()
        .map(|&c| Complex32::from_complex64(c))
        .collect();
    let sym_f: Vec<Complex32> = sym_c
        .iter()
        .map(|&c| Complex32::from_complex64(c))
        .collect();
    let mut f32_2048 = F32FftPlan::new(2048).unwrap();
    let mut fbuf2048 = pow2_f.clone();
    c.bench_function("f32_fft_radix2_2048", |b| {
        b.iter(|| {
            fbuf2048.copy_from_slice(&pow2_f);
            f32_2048.process_forward(&mut fbuf2048).unwrap()
        })
    });
    let mut f32_1920 = F32FftPlan::new(1920).unwrap();
    let mut fbuf1920 = sym_f.clone();
    c.bench_function("f32_fft_bluestein_1920", |b| {
        b.iter(|| {
            fbuf1920.copy_from_slice(&sym_f);
            f32_1920.process_forward(&mut fbuf1920).unwrap()
        })
    });
}

fn bench_detection(c: &mut Criterion) {
    let preamble = RangingPreamble::default_paper().unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let mut stream: Vec<f64> = (0..preamble.len() + 20_000)
        .map(|_| 0.02 * rng.gen_range(-1.0..1.0))
        .collect();
    for (i, &p) in preamble.waveform.iter().enumerate() {
        stream[5_000 + i] += 0.5 * p;
    }
    let config = DetectorConfig::default();

    // One-shot reference: template spectrum + next_pow2(signal + template)
    // monster FFT rebuilt per call.
    c.bench_function("preamble_correlation_65k_oneshot", |b| {
        b.iter(|| xcorr_normalized(&stream, &preamble.waveform).unwrap())
    });
    // Streaming matched filter: cached template spectrum, overlap-save
    // blocks through a cached plan, pooled scratch, reused output buffer.
    let mut corr_out: Vec<f64> = Vec::new();
    c.bench_function("preamble_correlation_65k_stream", |b| {
        b.iter(|| {
            preamble
                .correlate_normalized_into(&stream, &mut corr_out)
                .unwrap()
        })
    });

    // Q15 matched filter over the same 65k stream (the fixed-point leg of
    // the float-vs-Q15 axis; the f64 leg is the `_stream` bench above).
    let q15_filter = Q15MatchedFilter::new(&preamble.waveform).unwrap();
    let mut q15_out: Vec<f64> = Vec::new();
    c.bench_function("q15_matched_filter_65k", |b| {
        b.iter(|| {
            q15_filter
                .correlate_normalized_into(&stream, &mut q15_out)
                .unwrap()
        })
    });

    // The production phone path: the same 65k stream through the f32
    // lane-kernel matched filter. This is the ISSUE's acceptance bench
    // (`preamble_correlation_65k` < 1 ms); the f64 oracle leg stays in
    // `preamble_correlation_65k_stream` above.
    let f32_filter = F32MatchedFilter::new(&preamble.waveform).unwrap();
    let mut f32_out: Vec<f64> = Vec::new();
    c.bench_function("preamble_correlation_65k", |b| {
        b.iter(|| {
            f32_filter
                .correlate_normalized_into(&stream, &mut f32_out)
                .unwrap()
        })
    });

    c.bench_function("preamble_detect_with_validation", |b| {
        b.iter(|| detect_preamble(&stream, &preamble, &config).unwrap())
    });
    c.bench_function("ls_channel_estimate", |b| {
        b.iter(|| ls_channel_estimate(&stream, &preamble, 4_744).unwrap())
    });
}

fn bench_coding(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    // A 5-device report payload: 8 + 4·10 + 16 = 64 bits.
    let bits: Vec<bool> = (0..64).map(|_| rng.gen_bool(0.5)).collect();
    let coded = conv_encode_two_thirds(&bits);
    c.bench_function("conv_encode_report", |b| {
        b.iter(|| conv_encode_two_thirds(&bits))
    });
    c.bench_function("viterbi_decode_report", |b| {
        b.iter(|| conv_decode_two_thirds(&coded).unwrap())
    });
}

fn config() -> Criterion {
    Criterion::default().sample_size(10)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_fft, bench_detection, bench_coding
}
criterion_main!(benches);
