//! Small numeric helpers: percentiles with a tail-sample rule, a stable
//! output digest, and the open-loop schedule's due-time arithmetic.

use std::time::{Duration, Instant};

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Sorts a sample set ascending (NaN-free input).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p`% of the samples at or below it. `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The `p`th percentile, but only when at least `min_beyond` samples lie
/// above its rank; otherwise the tail is too thin to report.
pub fn tail_percentile(sorted: &[f64], p: f64, min_beyond: usize) -> Option<f64> {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    if rank == 0 || sorted.len() - rank.min(sorted.len()) < min_beyond {
        return None;
    }
    percentile(sorted, p)
}

/// Median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    if s.is_empty() {
        return f64::NAN;
    }
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Arithmetic mean; 0 for an empty set (a layer that did no work).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// FNV-1a (64-bit) over a byte stream: a platform-independent digest of
/// the benchmark's outputs, folded in operation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Lower-case 16-digit hex form, as pinned in `digests.txt`.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// An open-loop arrival schedule at a fixed rate: operation `i` is due at
/// `start + i / rate`, computed in integer nanoseconds so the schedule
/// never drifts however many operations it covers.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    rate_per_s: u64,
}

impl Schedule {
    /// A schedule of `rate_per_s` operations per second from `start`.
    pub fn new(start: Instant, rate_per_s: u64) -> Self {
        assert!(rate_per_s > 0, "an open loop needs a positive rate");
        Self { start, rate_per_s }
    }

    /// Offset of operation `i`'s due time from the start.
    pub fn offset(&self, i: u64) -> Duration {
        let nanos = u128::from(i) * 1_000_000_000 / u128::from(self.rate_per_s);
        Duration::from_nanos(u64::try_from(nanos).expect("schedule spans under 584 years"))
    }

    /// Due instant of operation `i`.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.offset(i)
    }

    /// Operations due strictly before `window` has elapsed.
    pub fn count_within(&self, window: Duration) -> u64 {
        let nanos = window.as_nanos() * u128::from(self.rate_per_s);
        u64::try_from(nanos.div_ceil(1_000_000_000)).expect("window fits the schedule")
    }

    /// How late an operation sent at `sent` ran against its due time
    /// (zero when it went out early or on time).
    pub fn lateness(&self, i: u64, sent: Instant) -> Duration {
        sent.saturating_duration_since(self.due(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 95.0), Some(95.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 200 samples: p95 is rank 190, leaving exactly 10 above it.
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 95.0, MIN_TAIL_SAMPLES), Some(190.0));
        // 199 samples: rank ceil(189.05) = 190 leaves only 9 above.
        let s: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 95.0, MIN_TAIL_SAMPLES), None);
        // The median of 20 samples has 10 above it.
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 50.0, MIN_TAIL_SAMPLES), Some(10.0));
        assert_eq!(tail_percentile(&s, 55.0, MIN_TAIL_SAMPLES), None);
        assert_eq!(tail_percentile(&[], 50.0, MIN_TAIL_SAMPLES), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn digest_is_stable() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Digest::default().hex(), "cbf29ce484222325");
        let mut d = Digest::default();
        d.update(b"a");
        assert_eq!(d.hex(), "af63dc4c8601ec8c");
        let mut d = Digest::default();
        d.update(b"foobar");
        assert_eq!(d.hex(), "85944171f73967e8");
        // Folding in pieces equals folding the concatenation, and order
        // matters.
        let mut split = Digest::default();
        split.update(b"foo");
        split.update(b"bar");
        assert_eq!(split, d);
        let mut swapped = Digest::default();
        swapped.update(b"bar");
        swapped.update(b"foo");
        assert_ne!(swapped, d);
    }

    #[test]
    fn schedule_due_times_are_exact() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 100);
        assert_eq!(s.offset(0), Duration::ZERO);
        assert_eq!(s.offset(1), Duration::from_millis(10));
        assert_eq!(s.offset(100), Duration::from_secs(1));
        // No accumulated rounding: a non-divisor rate stays exact at scale.
        let s3 = Schedule::new(t0, 3);
        assert_eq!(s3.offset(3_000_000), Duration::from_secs(1_000_000));
        assert_eq!(s3.offset(1), Duration::from_nanos(333_333_333));
        assert_eq!(s3.offset(2), Duration::from_nanos(666_666_666));
        assert_eq!(s.due(5), t0 + Duration::from_millis(50));
    }

    #[test]
    fn schedule_counts_and_lateness() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 100);
        // Due at 0, 10, …, 990 ms: 100 operations start inside one second.
        assert_eq!(s.count_within(Duration::from_secs(1)), 100);
        assert_eq!(s.count_within(Duration::from_millis(1001)), 101);
        assert_eq!(s.count_within(Duration::ZERO), 0);
        assert_eq!(
            s.lateness(2, t0 + Duration::from_millis(23)),
            Duration::from_millis(3)
        );
        assert_eq!(
            s.lateness(2, t0 + Duration::from_millis(15)),
            Duration::ZERO
        );
    }
}
