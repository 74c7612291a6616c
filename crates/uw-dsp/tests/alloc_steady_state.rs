//! Verifies the plan layer's allocation contract with a counting global
//! allocator: once a plan (or matched filter) is warmed up, steady-state
//! processing performs **zero** heap allocations — on all three numeric
//! paths (f64, f32, Q15) and through the structure-of-arrays entry points.
//! Construction-time allocation counts are also recorded against loose
//! budgets so a pathological regression (per-stage allocation, repeated
//! table rebuilds) shows up as a test failure rather than a perf mystery.
//!
//! Everything runs inside a single `#[test]` so no concurrent test can
//! pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use uw_dsp::complex::Complex64;
use uw_dsp::fixed::{ComplexQ15, FixedRadix2Plan, Q15MatchedFilter};
use uw_dsp::float32::{Complex32, F32MatchedFilter, F32Radix2Plan};
use uw_dsp::matched::MatchedFilter;
use uw_dsp::plan::{FftPlan, Radix2Plan};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` up to five times and returns the *minimum* allocation count
/// observed across attempts.
///
/// The counter is process-global, and the test thread is not alone in
/// the process: libtest's controller thread occasionally allocates
/// (timeout bookkeeping, output plumbing) and a single such allocation
/// landing inside a measured window would flag allocation-free code. A
/// real steady-state allocation in the code under test reproduces on
/// every attempt, so the minimum filters the cross-thread noise without
/// weakening the zero-alloc contract.
fn allocations_during(mut f: impl FnMut()) -> usize {
    let mut best = usize::MAX;
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        f();
        let n = ALLOCATIONS.load(Ordering::Relaxed) - before;
        best = best.min(n);
        if best == 0 {
            break;
        }
    }
    best
}

#[test]
fn steady_state_processing_is_allocation_free() {
    // --- FftPlan, Bluestein path (the paper's 1920-sample symbol). ---
    let mut plan = FftPlan::new(1920).unwrap();
    let mut buf: Vec<Complex64> = (0..1920)
        .map(|i| Complex64::new((i as f64 * 0.37).sin(), 0.0))
        .collect();
    // Warm-up exercises every internal path once.
    plan.process_forward(&mut buf).unwrap();
    plan.process_inverse(&mut buf).unwrap();

    let n = allocations_during(|| {
        plan.process_forward(&mut buf).unwrap();
        plan.process_inverse(&mut buf).unwrap();
    });
    assert_eq!(
        n, 0,
        "steady-state Bluestein FftPlan::process allocated {n} times"
    );

    // --- FftPlan, radix-2 path. ---
    let mut plan2 = FftPlan::new(2048).unwrap();
    let mut buf2 = vec![Complex64::ONE; 2048];
    plan2.process_forward(&mut buf2).unwrap();
    let n = allocations_during(|| {
        plan2.process_forward(&mut buf2).unwrap();
        plan2.process_inverse(&mut buf2).unwrap();
    });
    assert_eq!(
        n, 0,
        "steady-state radix-2 FftPlan::process allocated {n} times"
    );

    // --- Bare Radix2Plan (used by the matched filter). ---
    let raw = Radix2Plan::new(4096).unwrap();
    let mut buf3 = vec![Complex64::ONE; 4096];
    raw.forward(&mut buf3).unwrap();
    let n = allocations_during(|| {
        raw.forward(&mut buf3).unwrap();
        raw.inverse(&mut buf3).unwrap();
    });
    assert_eq!(
        n, 0,
        "steady-state Radix2Plan transforms allocated {n} times"
    );

    // --- MatchedFilter streaming correlation into a reused buffer. ---
    // The template is over 512 samples, so every filter's block-length
    // ladder has a rung below its top one; `short` (301 lags) runs there.
    let template: Vec<f64> = (0..700).map(|i| (i as f64 * 0.21).sin()).collect();
    let signal: Vec<f64> = (0..20_000).map(|i| (i as f64 * 0.17).cos()).collect();
    let short = &signal[..1000];
    let filter = MatchedFilter::new(&template).unwrap();
    let mut out = Vec::new();
    // Two warm-up passes: the first builds the pooled scratch and sizes
    // `out`; the second confirms the pool round-trip.
    filter.correlate_normalized_into(&signal, &mut out).unwrap();
    filter.correlate_normalized_into(&signal, &mut out).unwrap();

    let n = allocations_during(|| {
        filter.correlate_normalized_into(&signal, &mut out).unwrap();
    });
    assert_eq!(
        n, 0,
        "steady-state MatchedFilter correlation allocated {n} times"
    );

    // Raw (unnormalised) path too.
    filter.correlate_into(&signal, &mut out).unwrap();
    let n = allocations_during(|| {
        filter.correlate_into(&signal, &mut out).unwrap();
    });
    assert_eq!(
        n, 0,
        "steady-state raw MatchedFilter correlation allocated {n} times"
    );
    filter.correlate_normalized_into(short, &mut out).unwrap();
    let n = allocations_during(|| {
        filter.correlate_normalized_into(short, &mut out).unwrap();
    });
    assert_eq!(
        n, 0,
        "steady-state short MatchedFilter correlation allocated {n} times"
    );

    // --- Structure-of-arrays lane-kernel entry points (f64). ---
    let mut re = vec![0.5f64; 4096];
    let mut im = vec![0.0f64; 4096];
    raw.forward_soa(&mut re, &mut im).unwrap();
    let n = allocations_during(|| {
        raw.forward_soa(&mut re, &mut im).unwrap();
        raw.inverse_soa(&mut re, &mut im).unwrap();
    });
    assert_eq!(n, 0, "steady-state f64 SoA transforms allocated {n} times");

    // --- f32 lane-kernel plan, interleaved and SoA entry points. ---
    let f32_plan = F32Radix2Plan::new(2048).unwrap();
    let mut fbuf = vec![Complex32::new(0.5, 0.0); 2048];
    f32_plan.forward(&mut fbuf).unwrap();
    let n = allocations_during(|| {
        f32_plan.forward(&mut fbuf).unwrap();
        f32_plan.inverse(&mut fbuf).unwrap();
    });
    assert_eq!(n, 0, "steady-state F32Radix2Plan allocated {n} times");
    let mut fre = vec![0.5f32; 2048];
    let mut fim = vec![0.0f32; 2048];
    f32_plan.forward_soa(&mut fre, &mut fim).unwrap();
    let n = allocations_during(|| {
        f32_plan.forward_soa(&mut fre, &mut fim).unwrap();
        f32_plan.inverse_soa(&mut fre, &mut fim).unwrap();
    });
    assert_eq!(n, 0, "steady-state f32 SoA transforms allocated {n} times");

    // --- Q15 lane-kernel plan, interleaved and SoA entry points. ---
    let q15_plan = FixedRadix2Plan::new(2048).unwrap();
    let mut qbuf = vec![ComplexQ15::from_complex64(Complex64::new(0.5, 0.0)); 2048];
    q15_plan.forward(&mut qbuf).unwrap();
    let n = allocations_during(|| {
        q15_plan.forward(&mut qbuf).unwrap();
        q15_plan.inverse_raw(&mut qbuf).unwrap();
    });
    assert_eq!(n, 0, "steady-state FixedRadix2Plan allocated {n} times");
    let mut qre = vec![8192i32; 2048];
    let mut qim = vec![0i32; 2048];
    q15_plan.forward_soa(&mut qre, &mut qim).unwrap();
    let n = allocations_during(|| {
        q15_plan.forward_soa(&mut qre, &mut qim).unwrap();
        q15_plan.inverse_raw_soa(&mut qre, &mut qim).unwrap();
    });
    assert_eq!(n, 0, "steady-state Q15 SoA transforms allocated {n} times");

    // --- f32 and Q15 matched filters, streaming into reused buffers. ---
    let f32_filter = F32MatchedFilter::new(&template).unwrap();
    f32_filter
        .correlate_normalized_into(&signal, &mut out)
        .unwrap();
    f32_filter
        .correlate_normalized_into(&signal, &mut out)
        .unwrap();
    let n = allocations_during(|| {
        f32_filter
            .correlate_normalized_into(&signal, &mut out)
            .unwrap();
    });
    assert_eq!(
        n, 0,
        "steady-state F32MatchedFilter correlation allocated {n} times"
    );
    f32_filter
        .correlate_normalized_into(short, &mut out)
        .unwrap();
    let n = allocations_during(|| {
        f32_filter
            .correlate_normalized_into(short, &mut out)
            .unwrap();
    });
    assert_eq!(
        n, 0,
        "steady-state short F32MatchedFilter correlation allocated {n} times"
    );

    let q15_filter = Q15MatchedFilter::new(&template).unwrap();
    q15_filter
        .correlate_normalized_into(&signal, &mut out)
        .unwrap();
    q15_filter
        .correlate_normalized_into(&signal, &mut out)
        .unwrap();
    let n = allocations_during(|| {
        q15_filter
            .correlate_normalized_into(&signal, &mut out)
            .unwrap();
    });
    assert_eq!(
        n, 0,
        "steady-state Q15MatchedFilter correlation allocated {n} times"
    );
    q15_filter
        .correlate_normalized_into(short, &mut out)
        .unwrap();
    let n = allocations_during(|| {
        q15_filter
            .correlate_normalized_into(short, &mut out)
            .unwrap();
    });
    assert_eq!(
        n, 0,
        "steady-state short Q15MatchedFilter correlation allocated {n} times"
    );

    // --- Construction-time allocation budgets. ---
    // Plan/filter construction is allowed to allocate (tables, pooled
    // scratch), but the counts must stay in the same ballpark recorded
    // here: a few allocations per table/scratch vector, NOT one per
    // stage, twiddle, or block. The budgets are ~2× the counts measured
    // when the lane-kernel layout landed, so real regressions (per-stage
    // allocation, repeated table rebuilds) trip the assert while normal
    // library drift does not.
    let n = allocations_during(|| {
        std::hint::black_box(Radix2Plan::new(2048).unwrap());
    });
    assert!(n <= 40, "Radix2Plan::new(2048) allocated {n} times (> 40)");
    let n = allocations_during(|| {
        std::hint::black_box(F32Radix2Plan::new(2048).unwrap());
    });
    assert!(
        n <= 40,
        "F32Radix2Plan::new(2048) allocated {n} times (> 40)"
    );
    let n = allocations_during(|| {
        std::hint::black_box(FixedRadix2Plan::new(2048).unwrap());
    });
    assert!(
        n <= 60,
        "FixedRadix2Plan::new(2048) allocated {n} times (> 60)"
    );
    let n = allocations_during(|| {
        std::hint::black_box(MatchedFilter::new(&template).unwrap());
    });
    assert!(n <= 80, "MatchedFilter::new allocated {n} times (> 80)");
    let n = allocations_during(|| {
        std::hint::black_box(F32MatchedFilter::new(&template).unwrap());
    });
    assert!(n <= 80, "F32MatchedFilter::new allocated {n} times (> 80)");
    let n = allocations_during(|| {
        std::hint::black_box(Q15MatchedFilter::new(&template).unwrap());
    });
    assert!(
        n <= 100,
        "Q15MatchedFilter::new allocated {n} times (> 100)"
    );
}
