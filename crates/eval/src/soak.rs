//! Fleet-scale soak harness: hundreds of dive-group cells under scripted
//! fault schedules, with invariants checked after every round.
//!
//! The eval matrix answers "how accurate is the system"; the soak harness
//! answers "does the system stay *sane* under faults". A [`SoakPlan`]
//! expands a master seed into many fleet cells — single groups and
//! two-group fleets whose schedules carry mutual [`FaultKind::Interference`]
//! windows (two dive groups sharing the acoustic channel) — mixing packet
//! loss, churn, clock skew and leader failover. [`run_cell`] drives each
//! cell round by round and checks, after every round, that:
//!
//! * every error is a *structured* round failure
//!   ([`uw_core::SystemError::RoundFailed`]) — never a panic, never an
//!   opaque layer error;
//! * no `NaN` leaks outside churn excision (silent devices are the only
//!   ones allowed NaN horizontal state);
//! * dropping below 3 live devices degrades gracefully
//!   ([`RoundFailureReason::TooFewLiveDevices`]) and the session keeps
//!   running;
//! * fault-free control cells hold the accuracy band
//!   ([`CONTROL_MEDIAN_BAND_M`]);
//! * a leader failover is followed by a successor group (the survivors
//!   re-initialised under the next device as leader) that localizes again;
//! * the whole cell is bitwise reproducible from `(seed, schedule)` — the
//!   outcome digest of a re-run must match exactly.
//!
//! Any violation is reported with a one-line repro command
//! ([`SoakCell::repro_command`]) that replays exactly that cell. A
//! test-only sabotage hook ([`Sabotage::Nan`]) injects a deliberate NaN so
//! the checker itself can be exercised end to end.

use std::collections::BTreeMap;

use crate::json::{self, Layout};
use uw_core::faults::{FaultEvent, FaultKind, FaultSchedule, RoundFailureReason};
use uw_core::prelude::*;
use uw_core::session::SessionOutcome;
use uw_core::{Result, SystemError};

/// Schema identifier stamped into every soak report.
pub const SOAK_SCHEMA: &str = "uwgps-soak-v1";

/// Accuracy band enforced on fault-free control cells: the median 2D error
/// over all rounds must stay below this (the eval matrix holds medians of
/// 1.2–2.2 m across sites and group sizes; 4 m flags a broken solver, not
/// a noisy draw).
pub const CONTROL_MEDIAN_BAND_M: f64 = 4.0;

/// Marker used in a cell spec for "no fault schedule".
const NO_SCHEDULE: &str = "-";

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic per-fleet draw stream (independent of global RNG state).
struct Stream {
    state: u64,
}

impl Stream {
    fn new(master_seed: u64, fleet: usize) -> Self {
        Self {
            state: splitmix64(master_seed ^ splitmix64(0xF1EE7 ^ fleet as u64)),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.state)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw in `lo..hi` (exclusive upper bound).
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

/// One soak cell: a dive group in an environment, run for a number of
/// rounds under an optional fault schedule. The textual spec
/// `env:n:rounds:seed:<schedule>` (schedule per
/// [`FaultSchedule::to_spec`], or `-` for none) identifies the cell
/// completely — any failure replays from it alone.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakCell {
    /// Site preset.
    pub environment: EnvironmentKind,
    /// Group size (3–8 devices).
    pub n_devices: usize,
    /// Rounds to run.
    pub rounds: usize,
    /// Scenario RNG seed.
    pub seed: u64,
    /// Scripted faults, if any.
    pub faults: Option<FaultSchedule>,
}

impl SoakCell {
    /// The cell's one-line spec: `env:n:rounds:seed:<schedule>`.
    pub fn spec(&self) -> String {
        format!(
            "{}:{}:{}:{}:{}",
            self.environment.slug(),
            self.n_devices,
            self.rounds,
            self.seed,
            self.faults
                .as_ref()
                .map_or_else(|| NO_SCHEDULE.into(), |f| f.to_spec()),
        )
    }

    /// Parses a cell spec produced by [`SoakCell::spec`].
    pub fn parse(spec: &str) -> Result<Self> {
        let bad = |reason: String| SystemError::InvalidConfig { reason };
        let mut parts = spec.splitn(5, ':');
        let mut next = |what: &str| {
            parts
                .next()
                .ok_or_else(|| bad(format!("soak cell spec '{spec}': missing {what}")))
        };
        let env_slug = next("environment")?;
        let environment = EnvironmentKind::from_slug(env_slug)
            .ok_or_else(|| bad(format!("soak cell spec: unknown environment '{env_slug}'")))?;
        let n_devices: usize = next("device count")?
            .parse()
            .map_err(|e| bad(format!("soak cell spec: bad device count: {e}")))?;
        let rounds: usize = next("round count")?
            .parse()
            .map_err(|e| bad(format!("soak cell spec: bad round count: {e}")))?;
        let seed: u64 = next("seed")?
            .parse()
            .map_err(|e| bad(format!("soak cell spec: bad seed: {e}")))?;
        let schedule = next("fault schedule")?;
        let faults = if schedule == NO_SCHEDULE {
            None
        } else {
            let f = FaultSchedule::parse(schedule)?;
            f.validate(n_devices)?;
            Some(f)
        };
        Ok(Self {
            environment,
            n_devices,
            rounds,
            seed,
            faults,
        })
    }

    /// The one-line command that replays exactly this cell.
    pub fn repro_command(&self) -> String {
        format!(
            "cargo run --release -p uw-eval --bin uw_soak -- --cell '{}'",
            self.spec()
        )
    }
}

/// Test-only invariant sabotage: deliberately corrupt an outcome so the
/// checker's detection (and its repro line) can be verified end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sabotage {
    /// No sabotage (the normal mode).
    #[default]
    None,
    /// Overwrite one live device's horizontal estimate with NaN in the
    /// first successful round.
    Nan,
}

impl Sabotage {
    /// Parses a `--sabotage` argument value.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "none" => Ok(Sabotage::None),
            "nan" => Ok(Sabotage::Nan),
            other => Err(SystemError::InvalidConfig {
                reason: format!("unknown sabotage mode '{other}' (expected 'none' or 'nan')"),
            }),
        }
    }
}

/// A generated fleet plan: `fleets` fleet cells (some fleets are two
/// groups coupled by interference, so `cells.len() >= fleets`),
/// deterministic in `master_seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakPlan {
    /// Seed the plan was expanded from.
    pub master_seed: u64,
    /// Number of fleets requested.
    pub fleets: usize,
    /// The concrete cells, in generation order.
    pub cells: Vec<SoakCell>,
}

impl SoakPlan {
    /// Expands `master_seed` into `fleets` fleet cells with mixed fault
    /// schedules. Every third fleet is a fault-free single-group control
    /// cell (its accuracy band is enforced); the rest draw 1–3 faults, and
    /// ~40% of faulted fleets are two groups whose schedules carry mutual
    /// interference windows.
    pub fn generate(master_seed: u64, fleets: usize) -> Self {
        let mut cells = Vec::new();
        for fleet in 0..fleets {
            let mut s = Stream::new(master_seed, fleet);
            let environment = EnvironmentKind::ALL[s.range(0, EnvironmentKind::ALL.len())];
            let n_devices = s.range(4, 9);
            let rounds = s.range(6, 11);
            let seed = s.next_u64() & 0xFFFF_FFFF;
            if fleet % 3 == 0 {
                // Control cell: no faults, band enforced.
                cells.push(SoakCell {
                    environment,
                    n_devices,
                    rounds,
                    seed,
                    faults: None,
                });
                continue;
            }
            let groups = if s.unit() < 0.4 { 2 } else { 1 };
            for group in 0..groups {
                let mut schedule = FaultSchedule::new(s.next_u64() & 0xFFFF_FFFF);
                if s.unit() < 0.5 {
                    let from = s.range(1, rounds.max(2));
                    let to = (from + s.range(1, 4)).min(rounds - 1).max(from);
                    schedule = schedule.with(FaultEvent::window(
                        from,
                        to,
                        FaultKind::PacketLoss {
                            link: None,
                            prob: 0.05 + 0.3 * s.unit(),
                        },
                    ));
                }
                if s.unit() < 0.45 {
                    schedule = schedule.with(FaultEvent::from(
                        s.range(rounds / 2, rounds),
                        FaultKind::Churn {
                            device: s.range(1, n_devices),
                        },
                    ));
                }
                if s.unit() < 0.4 {
                    let magnitude = 40.0 + 260.0 * s.unit();
                    let ppm = if s.unit() < 0.5 {
                        magnitude
                    } else {
                        -magnitude
                    };
                    schedule = schedule.with(FaultEvent::from(
                        0,
                        FaultKind::ClockSkew {
                            device: s.range(1, n_devices),
                            ppm,
                        },
                    ));
                }
                if s.unit() < 0.2 {
                    schedule = schedule.with(FaultEvent::from(
                        s.range(rounds / 2, rounds),
                        FaultKind::LeaderFailover,
                    ));
                }
                if groups == 2 {
                    // Both groups hear the rival group's preambles for a
                    // shared stretch of the session.
                    let from = s.range(0, rounds / 2 + 1);
                    schedule = schedule.with(FaultEvent::window(
                        from,
                        rounds - 1,
                        FaultKind::Interference {
                            gain_db: -12.0 + 10.0 * s.unit(),
                        },
                    ));
                }
                if schedule.is_empty() {
                    // A faulted fleet always carries at least one fault.
                    schedule = schedule.with(FaultEvent::window(
                        1,
                        rounds - 1,
                        FaultKind::PacketLoss {
                            link: None,
                            prob: 0.15,
                        },
                    ));
                }
                cells.push(SoakCell {
                    environment,
                    n_devices,
                    rounds,
                    seed: seed ^ ((group as u64) << 48),
                    faults: Some(schedule),
                });
            }
        }
        Self {
            master_seed,
            fleets,
            cells,
        }
    }
}

/// One invariant violation, with everything needed to chase it.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Spec of the violating cell.
    pub cell_spec: String,
    /// 0-based round the violation surfaced in (successor-session rounds
    /// keep counting from the primary session).
    pub round: usize,
    /// What went wrong.
    pub detail: String,
    /// One-line replay command.
    pub repro: String,
}

/// Result of soaking one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The cell that ran.
    pub cell: SoakCell,
    /// Rounds that produced a solve.
    pub rounds_ok: usize,
    /// Rounds that failed gracefully (structured round failures).
    pub rounds_failed: usize,
    /// Active fault windows seen, counted per kind label and round.
    pub fault_rounds: BTreeMap<&'static str, usize>,
    /// Median 2D error over all successful rounds (NaN if none).
    pub median_error_2d_m: f64,
    /// Invariant violations (empty on a healthy cell).
    pub violations: Vec<Violation>,
    /// Order-sensitive digest of every round's outcome bits; two runs of
    /// the same `(seed, schedule)` must agree exactly.
    pub digest: u64,
}

/// Digest accumulator: order-sensitive mixing of outcome bits.
struct Digest {
    state: u64,
}

impl Digest {
    fn new() -> Self {
        Self {
            state: 0x000D_1E57_u64,
        }
    }

    fn mix_u64(&mut self, v: u64) {
        self.state = splitmix64(self.state ^ v);
    }

    fn mix_f64(&mut self, v: f64) {
        self.mix_u64(v.to_bits());
    }

    fn mix_str(&mut self, s: &str) {
        for b in s.bytes() {
            self.mix_u64(b as u64);
        }
    }

    fn mix_outcome(&mut self, outcome: &SessionOutcome) {
        for p in &outcome.positions {
            self.mix_f64(p.x);
            self.mix_f64(p.y);
            self.mix_f64(p.z);
        }
        for e in &outcome.errors_2d {
            self.mix_f64(*e);
        }
        for &d in &outcome.silent_devices {
            self.mix_u64(d as u64);
        }
        self.mix_u64(outcome.flipping_correct as u64);
    }
}

/// Per-round invariant checks on a successful outcome. `silent` is the
/// set of devices excused from finite horizontal state this round.
fn check_outcome(
    cell: &SoakCell,
    round: usize,
    outcome: &SessionOutcome,
    violations: &mut Vec<Violation>,
) {
    let mut violate = |detail: String| {
        violations.push(Violation {
            cell_spec: cell.spec(),
            round,
            detail,
            repro: cell.repro_command(),
        });
    };
    for (i, p) in outcome.positions.iter().enumerate() {
        let silent = outcome.silent_devices.contains(&i);
        if silent {
            continue;
        }
        if !(p.x.is_finite() && p.y.is_finite() && p.z.is_finite()) {
            violate(format!(
                "NaN position for live device {i} (outside churn excision)"
            ));
        }
    }
    for (k, e) in outcome.errors_2d.iter().enumerate() {
        let device = k + 1;
        if !outcome.silent_devices.contains(&device) && !e.is_finite() {
            violate(format!("non-finite 2D error for live device {device}"));
        }
    }
    for e in &outcome.ranging_errors {
        if !e.is_finite() {
            violate("non-finite ranging error".to_string());
        }
    }
}

/// Runs one soak cell: primary session under its schedule, and — after a
/// scripted leader failover — a successor group re-initialised from the
/// surviving devices. Checks every invariant after every round.
pub fn run_cell(cell: &SoakCell, sabotage: Sabotage) -> Result<CellResult> {
    let scenario = Scenario::for_site(cell.environment, cell.n_devices, cell.seed)?;
    let mut session = Session::new(scenario.config().clone())?;
    if let Some(faults) = &cell.faults {
        session.set_fault_schedule(faults.clone())?;
    }

    let failover_round = cell
        .faults
        .as_ref()
        .and_then(|f| f.leader_failover_round())
        .filter(|&r| r < cell.rounds);
    // Rounds the primary session runs; after a failover the survivors
    // re-form under a new leader (one failed round marks the handover).
    let primary_rounds = failover_round.map_or(cell.rounds, |r| r + 1);

    let mut digest = Digest::new();
    let mut violations = Vec::new();
    let mut fault_rounds: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut rounds_ok = 0;
    let mut rounds_failed = 0;
    let mut errors = Vec::new();
    let mut sabotaged = false;

    let mut consume = |round: usize,
                       result: &mut Result<SessionOutcome>,
                       expect_failover: bool,
                       digest: &mut Digest,
                       violations: &mut Vec<Violation>,
                       rounds_ok: &mut usize,
                       rounds_failed: &mut usize,
                       errors: &mut Vec<f64>| {
        match result {
            Ok(outcome) => {
                if sabotage == Sabotage::Nan && !sabotaged {
                    // Corrupt the first live non-leader estimate; the
                    // checker below must catch it.
                    if let Some(p) = outcome
                        .positions
                        .iter_mut()
                        .enumerate()
                        .skip(1)
                        .find(|(i, _)| !outcome.silent_devices.contains(i))
                        .map(|(_, p)| p)
                    {
                        p.x = f64::NAN;
                        sabotaged = true;
                    }
                }
                *rounds_ok += 1;
                check_outcome(cell, round, outcome, violations);
                if expect_failover {
                    violations.push(Violation {
                        cell_spec: cell.spec(),
                        round,
                        detail: "scheduled leader failover did not silence the leader".to_string(),
                        repro: cell.repro_command(),
                    });
                }
                digest.mix_outcome(outcome);
                errors.extend(outcome.errors_2d.iter().copied().filter(|e| e.is_finite()));
            }
            Err(e) => {
                *rounds_failed += 1;
                match e.round_failure() {
                    Some((_, reason)) => digest.mix_str(&reason.to_string()),
                    None => violations.push(Violation {
                        cell_spec: cell.spec(),
                        round,
                        detail: format!("non-structured error: {e}"),
                        repro: cell.repro_command(),
                    }),
                }
            }
        }
    };

    for round in 0..primary_rounds {
        if let Some(faults) = &cell.faults {
            for event in faults.active_in(round) {
                *fault_rounds.entry(event.kind.label()).or_insert(0) += 1;
            }
        }
        let expect_failover = failover_round == Some(round);
        let mut result = session.run(scenario.network());
        if expect_failover {
            // The handover round must fail as LeaderSilent, not solve.
            if let Err(e) = &result {
                if !matches!(
                    e.round_failure(),
                    Some((_, RoundFailureReason::LeaderSilent))
                ) && !matches!(
                    e.round_failure(),
                    Some((_, RoundFailureReason::TooFewLiveDevices { .. }))
                ) {
                    violations.push(Violation {
                        cell_spec: cell.spec(),
                        round,
                        detail: format!("failover round failed with '{e}'"),
                        repro: cell.repro_command(),
                    });
                }
            }
        }
        consume(
            round,
            &mut result,
            expect_failover,
            &mut digest,
            &mut violations,
            &mut rounds_ok,
            &mut rounds_failed,
            &mut errors,
        );
    }

    // Failover continuation: the survivors re-initialise as a new group
    // under the next device as leader (the protocol's initiator is always
    // device 0, so the harness — like real divers — re-forms the group).
    if let Some(fo) = failover_round {
        let survivors = scenario.network().positions_at(0.0);
        if survivors.len() >= 4 {
            let successor_network =
                DiveNetwork::new(scenario.network().environment().kind, &survivors[1..])?;
            let mut successor_config = scenario.config().clone();
            successor_config.n_devices = survivors.len() - 1;
            let mut successor = Session::new(successor_config)?;
            for round in (fo + 1)..cell.rounds {
                let mut result = successor.run(&successor_network);
                consume(
                    round,
                    &mut result,
                    false,
                    &mut digest,
                    &mut violations,
                    &mut rounds_ok,
                    &mut rounds_failed,
                    &mut errors,
                );
            }
        }
    }

    errors.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = if errors.is_empty() {
        f64::NAN
    } else {
        uw_core::metrics::percentile(&errors, 50.0)
    };
    if cell.faults.is_none() {
        // Control band: a fault-free cell must localize, and accurately.
        if !(median.is_finite() && median < CONTROL_MEDIAN_BAND_M) {
            violations.push(Violation {
                cell_spec: cell.spec(),
                round: cell.rounds.saturating_sub(1),
                detail: format!(
                    "control cell median 2D error {median:.2} m outside band (< {CONTROL_MEDIAN_BAND_M} m)"
                ),
                repro: cell.repro_command(),
            });
        }
    }

    Ok(CellResult {
        cell: cell.clone(),
        rounds_ok,
        rounds_failed,
        fault_rounds,
        median_error_2d_m: median,
        violations,
        digest: digest.state,
    })
}

/// Aggregated soak run.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// Schema identifier ([`SOAK_SCHEMA`]).
    pub schema: String,
    /// Master seed the plan expanded from.
    pub master_seed: u64,
    /// Fleets requested.
    pub fleets: usize,
    /// Cells run (>= fleets; two-group fleets contribute two cells).
    pub cells_run: usize,
    /// Cells with no fault schedule (accuracy band enforced).
    pub control_cells: usize,
    /// Total rounds that produced a solve.
    pub rounds_ok: usize,
    /// Total rounds that failed gracefully.
    pub rounds_failed: usize,
    /// Active fault windows seen across all cells, per kind label.
    pub fault_rounds: BTreeMap<&'static str, usize>,
    /// Whether every cell's re-run digest matched (bitwise repro check).
    pub reproducible: bool,
    /// All invariant violations (empty on a healthy soak).
    pub violations: Vec<Violation>,
}

impl SoakReport {
    /// Serialises the report to pretty-printed JSON through the crate's
    /// one writer ([`crate::json`]), which escapes every string.
    pub fn to_json(&self) -> String {
        json::document(|o| {
            o.key("schema").str(&self.schema);
            o.key("master_seed").raw(self.master_seed);
            o.key("fleets").raw(self.fleets);
            o.key("cells_run").raw(self.cells_run);
            o.key("control_cells").raw(self.control_cells);
            o.key("rounds_ok").raw(self.rounds_ok);
            o.key("rounds_failed").raw(self.rounds_failed);
            o.key("fault_rounds").object(Layout::Line, |kinds| {
                for (label, count) in &self.fault_rounds {
                    kinds.key(label).raw(count);
                }
            });
            o.key("reproducible").raw(self.reproducible);
            o.key("invariant_violations").raw(self.violations.len());
            o.key("violations").array(Layout::Lines, |rows| {
                for v in &self.violations {
                    rows.item().object(Layout::Line, |row| {
                        row.key("cell").str(&v.cell_spec);
                        row.key("round").raw(v.round);
                        row.key("detail").str(&v.detail);
                        row.key("repro").str(&v.repro);
                    });
                }
            });
        })
    }
}

/// Runs a full plan (in parallel), optionally re-running every cell to
/// verify bitwise reproducibility from `(seed, schedule)`.
pub fn run_plan(plan: &SoakPlan, sabotage: Sabotage, recheck: bool) -> Result<SoakReport> {
    use rayon::prelude::*;
    let results: Vec<Result<(CellResult, bool)>> = plan
        .cells
        .par_iter()
        .map(|cell| {
            let result = run_cell(cell, sabotage)?;
            let matches = if recheck {
                run_cell(cell, sabotage)?.digest == result.digest
            } else {
                true
            };
            Ok((result, matches))
        })
        .collect();

    let mut report = SoakReport {
        schema: SOAK_SCHEMA.into(),
        master_seed: plan.master_seed,
        fleets: plan.fleets,
        cells_run: 0,
        control_cells: 0,
        rounds_ok: 0,
        rounds_failed: 0,
        fault_rounds: BTreeMap::new(),
        reproducible: true,
        violations: Vec::new(),
    };
    for entry in results {
        let (result, matches) = entry?;
        report.cells_run += 1;
        if result.cell.faults.is_none() {
            report.control_cells += 1;
        }
        report.rounds_ok += result.rounds_ok;
        report.rounds_failed += result.rounds_failed;
        for (&label, &count) in &result.fault_rounds {
            *report.fault_rounds.entry(label).or_insert(0) += count;
        }
        if !matches {
            report.reproducible = false;
            report.violations.push(Violation {
                cell_spec: result.cell.spec(),
                round: 0,
                detail: "re-run digest differs: cell is not bitwise reproducible".into(),
                repro: result.cell.repro_command(),
            });
        }
        report.violations.extend(result.violations);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_specs_round_trip() {
        let plan = SoakPlan::generate(42, 9);
        assert!(plan.cells.len() >= 9);
        for cell in &plan.cells {
            let parsed = SoakCell::parse(&cell.spec()).unwrap();
            assert_eq!(&parsed, cell);
            assert_eq!(
                cell.repro_command(),
                format!(
                    "cargo run --release -p uw-eval --bin uw_soak -- --cell '{}'",
                    cell.spec()
                )
            );
        }
        // Controls are fault-free; faulted cells never have an empty
        // schedule.
        assert!(plan.cells.iter().any(|c| c.faults.is_none()));
        assert!(plan
            .cells
            .iter()
            .filter_map(|c| c.faults.as_ref())
            .all(|f| !f.is_empty()));
    }

    #[test]
    fn generation_is_deterministic_and_schedules_validate() {
        let a = SoakPlan::generate(7, 12);
        let b = SoakPlan::generate(7, 12);
        assert_eq!(a, b);
        let c = SoakPlan::generate(8, 12);
        assert_ne!(a, c);
        for cell in &a.cells {
            if let Some(f) = &cell.faults {
                f.validate(cell.n_devices).unwrap();
            }
        }
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(SoakCell::parse("atlantis:5:6:1:-").is_err());
        assert!(SoakCell::parse("dock:x:6:1:-").is_err());
        assert!(SoakCell::parse("dock:5:6:1").is_err());
        assert!(SoakCell::parse("dock:5:6:1:seed=1;churn:1..:99").is_err());
    }

    #[test]
    fn control_cell_soaks_clean_and_reproducibly() {
        let cell = SoakCell {
            environment: EnvironmentKind::Dock,
            n_devices: 5,
            rounds: 4,
            seed: 3,
            faults: None,
        };
        let a = run_cell(&cell, Sabotage::None).unwrap();
        let b = run_cell(&cell, Sabotage::None).unwrap();
        assert_eq!(a.digest, b.digest);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.rounds_ok, 4);
        assert!(a.median_error_2d_m < CONTROL_MEDIAN_BAND_M);
    }

    #[test]
    fn sabotage_is_caught_with_a_working_repro_line() {
        let cell = SoakCell {
            environment: EnvironmentKind::Dock,
            n_devices: 5,
            rounds: 3,
            seed: 3,
            faults: None,
        };
        let result = run_cell(&cell, Sabotage::Nan).unwrap();
        assert!(!result.violations.is_empty());
        let v = &result.violations[0];
        assert!(v.detail.contains("NaN position"), "{}", v.detail);
        assert!(v.repro.contains("--cell 'dock:5:3:3:-'"), "{}", v.repro);
        // The repro line's spec parses back to the same cell.
        let spec = v.repro.split('\'').nth(1).unwrap();
        assert_eq!(SoakCell::parse(spec).unwrap(), cell);
    }

    #[test]
    fn failover_hands_over_to_a_successor_group() {
        let cell = SoakCell {
            environment: EnvironmentKind::Dock,
            n_devices: 5,
            rounds: 6,
            seed: 11,
            faults: Some(
                FaultSchedule::new(1).with(FaultEvent::from(3, FaultKind::LeaderFailover)),
            ),
        };
        let result = run_cell(&cell, Sabotage::None).unwrap();
        assert!(result.violations.is_empty(), "{:?}", result.violations);
        // Rounds 0–2 on the primary, round 3 is the (graceful) handover,
        // rounds 4–5 on the successor group.
        assert_eq!(result.rounds_failed, 1);
        assert_eq!(result.rounds_ok, 5);
        assert!(result.fault_rounds["failover"] >= 1);
    }

    #[test]
    fn violation_strings_are_escaped() {
        let report = SoakReport {
            schema: SOAK_SCHEMA.into(),
            master_seed: 1,
            fleets: 1,
            cells_run: 1,
            control_cells: 0,
            rounds_ok: 0,
            rounds_failed: 1,
            fault_rounds: BTreeMap::new(),
            reproducible: true,
            violations: vec![Violation {
                cell_spec: "dock:5:3:3:-".into(),
                round: 0,
                detail: "reason \"a\\\"b\"\n".into(),
                repro: "uw_soak --cell 'dock:5:3:3:-'".into(),
            }],
        };
        let json = report.to_json();
        assert!(
            json.contains(r#""detail": "reason \"a\\\"b\"\n""#),
            "{json}"
        );
    }

    #[test]
    fn small_plan_soaks_with_zero_violations() {
        let plan = SoakPlan::generate(2024, 6);
        let report = run_plan(&plan, Sabotage::None, true).unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.reproducible);
        assert_eq!(report.cells_run, plan.cells.len());
        assert!(report.rounds_ok > 0);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"uwgps-soak-v1\""));
        assert!(json.contains("\"invariant_violations\": 0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
