//! Per-device local clocks.
//!
//! There is no global clock underwater: each device timestamps events with
//! its own oscillator, which runs at `f_nominal · (1 + skew)` where the skew
//! is a few tens of parts per million on Android hardware [Guggenberger et
//! al., 2015], plus an arbitrary offset from the moment the app started.
//! The distributed timestamp protocol (§2.3) is designed so these offsets
//! cancel; the simulator needs an explicit clock model to prove that.

use serde::{Deserialize, Serialize};

/// A local clock with constant frequency skew and offset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalClock {
    /// Frequency skew in parts per million; positive means the clock runs
    /// fast (its seconds are shorter than true seconds).
    pub skew_ppm: f64,
    /// Offset in seconds: the local time reported at true time 0.
    pub offset_s: f64,
}

impl Default for LocalClock {
    fn default() -> Self {
        Self {
            skew_ppm: 0.0,
            offset_s: 0.0,
        }
    }
}

impl LocalClock {
    /// An ideal clock (no skew, no offset).
    pub fn ideal() -> Self {
        Self::default()
    }

    /// Creates a clock with the given skew and offset.
    pub fn new(skew_ppm: f64, offset_s: f64) -> Self {
        Self { skew_ppm, offset_s }
    }

    /// Converts a true (wall) time to this clock's local time.
    pub fn local_from_true(&self, true_time_s: f64) -> f64 {
        self.offset_s + true_time_s * (1.0 + self.skew_ppm * 1e-6)
    }

    /// Converts a local time reported by this clock back to true time.
    pub fn true_from_local(&self, local_time_s: f64) -> f64 {
        (local_time_s - self.offset_s) / (1.0 + self.skew_ppm * 1e-6)
    }

    /// The duration, in local seconds, of `true_duration_s` true seconds.
    pub fn local_duration(&self, true_duration_s: f64) -> f64 {
        true_duration_s * (1.0 + self.skew_ppm * 1e-6)
    }

    /// Clock drift accumulated over `true_duration_s` seconds, in seconds
    /// (how far apart this clock and an ideal clock drift over the window).
    pub fn drift_over(&self, true_duration_s: f64) -> f64 {
        self.local_duration(true_duration_s) - true_duration_s
    }
}

/// Draws a random clock with skew uniform in `±max_skew_ppm` and offset
/// uniform in `[0, max_offset_s)`.
pub fn random_clock<R: rand::Rng>(max_skew_ppm: f64, max_offset_s: f64, rng: &mut R) -> LocalClock {
    let skew = if max_skew_ppm > 0.0 {
        rng.gen_range(-max_skew_ppm..max_skew_ppm)
    } else {
        0.0
    };
    let offset = if max_offset_s > 0.0 {
        rng.gen_range(0.0..max_offset_s)
    } else {
        0.0
    };
    LocalClock::new(skew, offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ideal_clock_is_identity() {
        let c = LocalClock::ideal();
        assert_eq!(c.local_from_true(12.5), 12.5);
        assert_eq!(c.true_from_local(12.5), 12.5);
        assert_eq!(c.drift_over(1000.0), 0.0);
    }

    #[test]
    fn conversions_roundtrip() {
        let c = LocalClock::new(37.0, 123.456);
        for t in [0.0, 1.0, 17.3, 1000.0] {
            let local = c.local_from_true(t);
            let back = c.true_from_local(local);
            assert!((back - t).abs() < 1e-9);
        }
    }

    #[test]
    fn positive_skew_runs_fast() {
        let c = LocalClock::new(80.0, 0.0);
        // After 100 true seconds the local clock shows more elapsed time.
        assert!(c.local_duration(100.0) > 100.0);
        // 80 ppm over 100 s is 8 ms.
        assert!((c.drift_over(100.0) - 0.008).abs() < 1e-9);
        let slow = LocalClock::new(-80.0, 0.0);
        assert!(slow.local_duration(100.0) < 100.0);
    }

    #[test]
    fn drift_magnitude_matches_paper_assumptions() {
        // 1–80 ppm (appendix): over a 2 s protocol round the worst-case
        // drift is 160 µs ≈ 0.24 m at 1500 m/s — comfortably sub-metre.
        let worst = LocalClock::new(80.0, 0.0);
        let drift = worst.drift_over(2.0);
        assert!(drift < 200e-6);
        assert!(drift * 1500.0 < 0.3);
    }

    #[test]
    fn random_clock_within_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let c = random_clock(80.0, 10.0, &mut rng);
            assert!(c.skew_ppm.abs() <= 80.0);
            assert!(c.offset_s >= 0.0 && c.offset_s < 10.0);
        }
        let c = random_clock(0.0, 0.0, &mut rng);
        assert_eq!(c, LocalClock::ideal());
    }
}
