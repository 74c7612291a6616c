//! Error statistics, CDF helpers and the battery model used by the
//! evaluation harness.

use serde::{Deserialize, Serialize};
use uw_dsp::peaks::empirical_cdf;
pub use uw_dsp::peaks::percentile;

/// Points of an empirical CDF, down-sampled for plotting.
pub fn cdf_points(samples: &[f64], n_points: usize) -> Vec<(f64, f64)> {
    if samples.is_empty() || n_points == 0 {
        return Vec::new();
    }
    let (values, fracs) = empirical_cdf(samples);
    let step = (values.len().max(1) - 1).max(1) as f64 / (n_points.saturating_sub(1)).max(1) as f64;
    (0..n_points)
        .map(|k| {
            let idx = ((k as f64 * step).round() as usize).min(values.len() - 1);
            (values[idx], fracs[idx])
        })
        .collect()
}

/// Battery model for the duty-cycled acoustic transmissions (§3.1).
///
/// The paper measured the Apple Watch Ultra losing 90% and the Galaxy S9
/// losing 63% of their battery over 4.5 hours of continuous periodic
/// transmission. This model scales those drain rates by the transmit duty
/// cycle of the localization workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatteryModel {
    /// Fraction of battery drained per hour while transmitting continuously
    /// at the measurement duty cycle.
    pub drain_per_hour_at_reference: f64,
    /// Reference duty cycle of the measurement campaign (fraction of time
    /// spent transmitting).
    pub reference_duty_cycle: f64,
    /// Idle (screen-off, app armed) drain per hour.
    pub idle_drain_per_hour: f64,
}

impl BatteryModel {
    /// The smartwatch model from the paper's measurement (90% over 4.5 h,
    /// siren duty cycle ≈ 1.0).
    pub fn apple_watch_ultra() -> Self {
        Self {
            drain_per_hour_at_reference: 0.90 / 4.5,
            reference_duty_cycle: 1.0,
            idle_drain_per_hour: 0.01,
        }
    }

    /// The smartphone model (63% over 4.5 h, preamble every 3 s ≈ 0.074 duty
    /// cycle at maximum volume).
    pub fn galaxy_s9() -> Self {
        Self {
            drain_per_hour_at_reference: 0.63 / 4.5,
            reference_duty_cycle: 0.074,
            idle_drain_per_hour: 0.008,
        }
    }

    /// Battery fraction drained over `hours` at the given transmit duty
    /// cycle (clamped to `[0, 1]`).
    pub fn drain(&self, hours: f64, duty_cycle: f64) -> f64 {
        let duty = duty_cycle.clamp(0.0, 1.0);
        let active =
            self.drain_per_hour_at_reference * (duty / self.reference_duty_cycle.max(1e-9));
        ((active + self.idle_drain_per_hour) * hours).clamp(0.0, 1.0)
    }

    /// Hours until the battery is exhausted at the given duty cycle.
    pub fn hours_to_empty(&self, duty_cycle: f64) -> f64 {
        let duty = duty_cycle.clamp(0.0, 1.0);
        let per_hour = self.drain_per_hour_at_reference
            * (duty / self.reference_duty_cycle.max(1e-9))
            + self.idle_drain_per_hour;
        if per_hour <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / per_hour
        }
    }
}

/// Transmit duty cycle of the localization workload: one round of
/// `acoustic_s` seconds of which this device transmits for `tx_s`, repeated
/// every `interval_s` seconds.
pub fn localization_duty_cycle(tx_s: f64, interval_s: f64) -> f64 {
    if interval_s <= 0.0 {
        return 0.0;
    }
    (tx_s / interval_s).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_points_are_monotone() {
        let samples: Vec<f64> = (0..100).map(|i| (i as f64) * 0.01).collect();
        let pts = cdf_points(&samples, 10);
        assert_eq!(pts.len(), 10);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert!(cdf_points(&[], 5).is_empty());
        assert!(cdf_points(&samples, 0).is_empty());
    }

    #[test]
    fn battery_models_match_paper_measurements() {
        // At the measurement duty cycles the paper's 4.5 h campaign drains
        // 90% (watch) and 63% (phone).
        let watch = BatteryModel::apple_watch_ultra();
        let phone = BatteryModel::galaxy_s9();
        assert!((watch.drain(4.5, 1.0) - 0.90).abs() < 0.05);
        assert!((phone.drain(4.5, 0.074) - 0.63).abs() < 0.05);
        // Both outlast the recommended maximum recreational dive time at the
        // actual localization duty cycle (one ~0.3 s transmission per 60 s
        // round trigger).
        let duty = localization_duty_cycle(0.3, 60.0);
        assert!(watch.hours_to_empty(duty) > 4.5);
        assert!(phone.hours_to_empty(duty) > 4.5);
    }

    #[test]
    fn drain_scales_with_duty_cycle_and_clamps() {
        let phone = BatteryModel::galaxy_s9();
        assert!(phone.drain(1.0, 0.5) > phone.drain(1.0, 0.05));
        assert_eq!(phone.drain(1000.0, 1.0), 1.0);
        assert_eq!(localization_duty_cycle(1.0, 0.0), 0.0);
        assert!((localization_duty_cycle(0.3, 60.0) - 0.005).abs() < 1e-12);
    }
}
