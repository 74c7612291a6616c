//! Integration tests spanning the whole workspace: channel → device →
//! ranging → protocol → localization, driven through the public facade.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uwgps::core::prelude::*;
use uwgps::core::scenario::Scenario as CoreScenario;
use uwgps::localization::ambiguity::{geometric_side, resolve_ambiguities};
use uwgps::localization::pipeline::truth_in_leader_frame;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

#[test]
fn dock_testbed_localizes_with_submetre_median() {
    let scenario = Scenario::dock_five_devices(101);
    let mut session = Session::new(scenario.config().clone()).unwrap();
    let outcomes = session.run_many(scenario.network(), 15).unwrap();
    let errors: Vec<f64> = outcomes.iter().flat_map(|o| o.errors_2d.clone()).collect();
    let med = median(errors);
    // Paper Fig. 18a: median 0.9 m at the dock. The statistical channel model
    // plus the 5-degree pointing error puts this reproduction's median in the
    // 0.8-1.8 m range depending on the seed; accept up to 2 m.
    assert!(med < 2.0, "median 2D error {med}");
}

#[test]
fn boathouse_testbed_has_larger_but_bounded_errors() {
    let dock = Scenario::dock_five_devices(55);
    let boathouse = CoreScenario::boathouse_five_devices(55);
    let mut dock_session = Session::new(dock.config().clone()).unwrap();
    let mut boat_session = Session::new(boathouse.config().clone()).unwrap();
    let dock_errs: Vec<f64> = dock_session
        .run_many(dock.network(), 20)
        .unwrap()
        .iter()
        .flat_map(|o| o.errors_2d.clone())
        .collect();
    let boat_errs: Vec<f64> = boat_session
        .run_many(boathouse.network(), 20)
        .unwrap()
        .iter()
        .flat_map(|o| o.errors_2d.clone())
        .collect();
    // Both stay within a few metres at the 95th percentile.
    let p95 = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[(v.len() as f64 * 0.95) as usize - 1]
    };
    assert!(p95(dock_errs) < 8.0);
    assert!(p95(boat_errs) < 10.0);
}

#[test]
fn four_and_five_device_networks_are_comparable() {
    let five = Scenario::dock_five_devices(77);
    let four = CoreScenario::four_devices(77);
    let mut s5 = Session::new(five.config().clone()).unwrap();
    let mut s4 = Session::new(four.config().clone()).unwrap();
    let e5 = median(
        s5.run_many(five.network(), 10)
            .unwrap()
            .iter()
            .flat_map(|o| o.errors_2d.clone())
            .collect(),
    );
    let e4 = median(
        s4.run_many(four.network(), 10)
            .unwrap()
            .iter()
            .flat_map(|o| o.errors_2d.clone())
            .collect(),
    );
    // §3.2: medians 0.9 m vs 0.8 m — the two should be close.
    assert!((e5 - e4).abs() < 1.0, "5-device {e5} vs 4-device {e4}");
}

#[test]
fn occluded_link_is_handled_by_outlier_detection() {
    // A heavily occluded link (reflection 12 m longer than the direct path)
    // pushes the normalised stress well past the 1.5 m threshold, so
    // Algorithm 1 reliably identifies and drops it; without detection the
    // corrupted link distorts the whole topology (Fig. 19a).
    let with = CoreScenario::dock_with_occlusion(31, 12.0);
    let mut without = CoreScenario::dock_with_occlusion(31, 12.0);
    without.config_mut().localizer.disable_outlier_detection = true;

    let mut s_with = Session::new(with.config().clone()).unwrap();
    let mut s_without = Session::new(without.config().clone()).unwrap();
    let errs_with: Vec<f64> = s_with
        .run_many(with.network(), 24)
        .unwrap()
        .iter()
        .flat_map(|o| o.errors_2d.clone())
        .collect();
    let errs_without: Vec<f64> = s_without
        .run_many(without.network(), 24)
        .unwrap()
        .iter()
        .flat_map(|o| o.errors_2d.clone())
        .collect();
    assert!(
        median(errs_with.clone()) <= median(errs_without.clone()) + 0.5,
        "with {} vs without {}",
        median(errs_with),
        median(errs_without)
    );
}

#[test]
fn missing_link_still_localizes() {
    let scenario = CoreScenario::dock_with_missing_link(13, 2, 4).unwrap();
    let mut session = Session::new(scenario.config().clone()).unwrap();
    let outcomes = session.run_many(scenario.network(), 8).unwrap();
    let med = median(outcomes.iter().flat_map(|o| o.errors_2d.clone()).collect());
    // Fig. 19b: median with a dropped link is ~1.0 m.
    assert!(med < 2.0, "median {med}");
    // The dropped link is indeed absent from the measured matrix.
    for o in &outcomes {
        assert!(!o.distances.has_link(2, 4));
    }
}

#[test]
fn moving_device_errors_stay_bounded() {
    let scenario = CoreScenario::dock_with_moving_device(17, 1, 50.0).unwrap();
    let mut session = Session::new(scenario.config().clone()).unwrap();
    let outcomes = session.run_many(scenario.network(), 8).unwrap();
    let moving_errs: Vec<f64> = outcomes.iter().map(|o| o.errors_2d[0]).collect();
    // Fig. 20: the moving device's median error stays below ~1 m; accept 2 m.
    assert!(median(moving_errs) < 2.0);
}

#[test]
fn flipping_disambiguation_improves_with_more_voters() {
    // With three voters the flipping decision should essentially always be
    // right (paper: 100%); the single-voter case is allowed to be wrong
    // sometimes (paper: 90.1%).
    let scenario = Scenario::dock_five_devices(909);
    let mut session = Session::new(scenario.config().clone()).unwrap();
    let outcomes = session.run_many(scenario.network(), 20).unwrap();
    let correct = outcomes.iter().filter(|o| o.flipping_correct).count();
    assert!(
        correct >= 18,
        "flipping correct in only {correct}/20 rounds"
    );
}

#[test]
fn one_voter_flipping_accuracy_matches_its_sign_error_rate() {
    // Tab. flipping with one voter (paper: 90.1%): device 2 alone votes on
    // the dock testbed's true layout in 200 rounds, its side sign wrong
    // with the configured per-device probability (10%). The vote is right
    // when it leaves the true configuration unflipped. The band holds the
    // accuracy at seeds 1 to 10.
    let scenario = CoreScenario::dock_five_devices(1);
    let error_prob = scenario.config().mic_sign_error_prob;
    let frame = truth_in_leader_frame(&scenario.network().positions_at(0.0));
    let pointing = scenario.network().leader_pointing_azimuth(0.0).unwrap();
    let mut rng = StdRng::seed_from_u64(1 ^ 0xF11);
    let correct = (0..200)
        .filter(|_| {
            let mut sign = geometric_side(&frame, 2);
            if sign != 0 && rng.gen_bool(error_prob) {
                sign = -sign;
            }
            let mut side_signs = vec![None; frame.len()];
            side_signs[2] = Some(sign);
            !resolve_ambiguities(&frame, pointing, &side_signs)
                .unwrap()
                .flipped
        })
        .count();
    let accuracy = 100.0 * correct as f64 / 200.0;
    assert!(
        (85.0..=93.0).contains(&accuracy),
        "one-voter flipping accuracy {accuracy}%"
    );
}

#[test]
fn protocol_latency_matches_paper_table() {
    // Mean round times reported in §3.2 for 3–7 devices.
    for (n, expected) in [(3usize, 1.2f64), (4, 1.6), (5, 1.9), (6, 2.2), (7, 2.5)] {
        let scenario = CoreScenario::dock_n_devices(n, 3).unwrap();
        let mut session = Session::new(scenario.config().clone()).unwrap();
        let outcome = session.run(scenario.network()).unwrap();
        assert!(
            (outcome.latency.acoustic_s - expected).abs() < 0.1,
            "N={n}: {} vs {expected}",
            outcome.latency.acoustic_s
        );
    }
}

#[test]
fn facade_reexports_are_usable() {
    // The facade exposes every layer.
    let c = uwgps::channel::sound_speed::wilson_sound_speed(
        &uwgps::channel::sound_speed::WaterProperties::default(),
    );
    assert!(c > 1400.0 && c < 1600.0);
    let preamble = uwgps::ranging::preamble::RangingPreamble::default_paper().unwrap();
    assert_eq!(preamble.config.symbol_len, 1920);
    let schedule = uwgps::protocol::schedule::TdmSchedule::paper_defaults(5).unwrap();
    assert!((schedule.delta1_s() - 0.32).abs() < 1e-12);
    assert!(!uwgps::VERSION.is_empty());
}
