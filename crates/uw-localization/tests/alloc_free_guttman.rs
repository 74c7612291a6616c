//! Verifies the Guttman loop's allocation contract with a counting global
//! allocator: a SMACOF run makes its buffers and factors V before the
//! first iteration, so an iteration allocates nothing. One [`refine`] call
//! must make the same number of allocations whether it stops after 2
//! iterations or runs 100 or more.
//!
//! Everything runs inside a single `#[test]` so no concurrent test can
//! pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use uw_localization::matrix::{DistanceMatrix, Vec2, WeightMatrix};
use uw_localization::smacof::{refine, SmacofConfig};

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

/// Runs `f` five times and returns the *minimum* allocation count
/// observed across attempts, with the value of the last attempt.
///
/// The counter is process-global, and libtest's controller thread
/// occasionally allocates; a real per-iteration allocation in the code
/// under test reproduces on every attempt, so the minimum filters the
/// cross-thread noise without weakening the contract.
fn allocations_during<T>(mut f: impl FnMut() -> T) -> (usize, T) {
    let mut best = usize::MAX;
    let mut out = None;
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let value = f();
        best = best.min(ALLOCATIONS.load(Ordering::Relaxed) - before);
        out = Some(value);
    }
    (best, out.expect("five attempts ran"))
}

#[test]
fn guttman_iterations_allocate_nothing() {
    // Eight devices on two rings, one link measured 4 m long, started
    // from the rings flattened onto a parabola: the run takes about 200
    // iterations to settle.
    let truth: Vec<Vec2> = (0..8)
        .map(|i| {
            let angle = i as f64 * std::f64::consts::TAU / 8.0;
            let radius = if i % 2 == 0 { 20.0 } else { 9.0 };
            Vec2::new(radius * angle.cos(), radius * angle.sin())
        })
        .collect();
    let mut distances = DistanceMatrix::from_points_2d(&truth);
    let long = distances.get(1, 5).expect("link present") + 4.0;
    distances.set(1, 5, long).expect("finite distance");
    let weights = WeightMatrix::from_distances(&distances);
    let initial: Vec<Vec2> = truth
        .iter()
        .map(|p| Vec2::new(p.x, 0.001 * p.x * p.x))
        .collect();

    let run = |max_iterations: usize| {
        let config = SmacofConfig {
            max_iterations,
            ..SmacofConfig::default()
        };
        allocations_during(|| {
            refine(&distances, &weights, &config, &initial)
                .expect("connected weights solve")
                .iterations
        })
    };
    let (short, short_iterations) = run(2);
    let (long, long_iterations) = run(300);
    assert_eq!(short_iterations, 2);
    assert!(
        long_iterations >= 100,
        "the long run settled after {long_iterations} iterations"
    );
    assert_eq!(
        long, short,
        "{long_iterations} iterations made {long} allocations, 2 made {short}"
    );
}
