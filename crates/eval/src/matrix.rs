//! Declarative scenario matrices and their expansion into concrete cells.
//!
//! A [`ScenarioMatrix`] is the cross product of six axes:
//!
//! * **environments** — [`EnvironmentKind`] presets (the paper's four sites
//!   plus the open-water and tidal-channel extensions),
//! * **topologies** — group sizes ([`Topology`]),
//! * **link conditions** — clear, occluded, missing-link, device-churn
//!   ([`LinkProfile`]),
//! * **mobility profiles** — static, rope oscillation, swimmer circuit,
//!   current drift ([`MobilityProfile`]),
//! * **numeric paths** — the `f64` oracle, the single-precision `f32`
//!   lane-kernel path, or the on-device Q15 fixed-point DSP
//!   ([`NumericPath`]; f32 and Q15 cells must run at [`Fidelity::Hybrid`],
//!   since the statistical model never touches the DSP),
//! * **seeds** — one cell per RNG seed.
//!
//! [`ScenarioMatrix::expand`] turns the matrix into concrete [`EvalCell`]s,
//! each carrying a ready-to-run [`Scenario`] and a stable identifier like
//! `dock/5dev/clear/static/s1` (f64), `dock/5dev/clear/static/f32/s1`
//! (single precision), or `dock/5dev/clear/static/q15/s1` (fixed point)
//! that the reproduction guide keys on.

use uw_core::config::{Fidelity, NumericPath};
use uw_core::prelude::*;
use uw_core::Result;

/// Network topology axis: how many devices form the dive group. The paper's
/// measured layouts are used where they exist (dock 4/5, boathouse 5,
/// pool 4); other combinations get the deterministic spiral layout of
/// [`Scenario::site_n_devices`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Four devices (§3.2 "4-device networks").
    FourDevice,
    /// Five devices (the paper's main testbeds, Fig. 18).
    FiveDevice,
    /// An arbitrary group size (3–8), for the latency/scaling sweeps.
    Group(usize),
}

impl Topology {
    /// Number of devices in the group.
    pub fn n_devices(&self) -> usize {
        match self {
            Topology::FourDevice => 4,
            Topology::FiveDevice => 5,
            Topology::Group(n) => *n,
        }
    }

    /// Identifier fragment, e.g. `5dev`.
    pub fn slug(&self) -> String {
        format!("{}dev", self.n_devices())
    }
}

/// Link-condition axis: what (if anything) is wrong with the links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkProfile {
    /// All links clear.
    Clear,
    /// The leader–device-1 direct path is occluded; its range estimate is
    /// biased by the reflection's extra path length (Fig. 19a).
    Occluded {
        /// Extra path length of the reflection (m).
        bias_m: f64,
    },
    /// One non-leader link (device 2 ↔ last device) is missing entirely
    /// (out-of-range pair, Fig. 19b).
    MissingLink,
    /// The last device falls silent from the given round onwards (device
    /// churn: battery death or a diver leaving the group).
    DeviceChurn {
        /// First 0-based round in which the device is silent.
        after_round: usize,
    },
}

impl LinkProfile {
    /// Identifier fragment, e.g. `occluded`.
    pub fn slug(&self) -> &'static str {
        match self {
            LinkProfile::Clear => "clear",
            LinkProfile::Occluded { .. } => "occluded",
            LinkProfile::MissingLink => "misslink",
            LinkProfile::DeviceChurn { .. } => "churn",
        }
    }
}

/// Mobility axis: how devices move during the session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MobilityProfile {
    /// All devices hold position.
    Static,
    /// Device 2 oscillates around its position on a rope (Fig. 20).
    RopeOscillation {
        /// Peak speed in cm/s.
        speed_cm_s: f64,
    },
    /// Device 2 swims a closed circuit with a gentle depth bob.
    Swimmer {
        /// Swimming speed in cm/s.
        speed_cm_s: f64,
    },
    /// Every non-leader device drifts with a current at a device-dependent
    /// fraction of the given speed.
    CurrentDrift {
        /// Nominal current speed in cm/s.
        speed_cm_s: f64,
    },
}

impl MobilityProfile {
    /// Identifier fragment, e.g. `rope40`.
    pub fn slug(&self) -> String {
        match self {
            MobilityProfile::Static => "static".into(),
            MobilityProfile::RopeOscillation { speed_cm_s } => {
                format!("rope{}", speed_cm_s.round() as i64)
            }
            MobilityProfile::Swimmer { speed_cm_s } => {
                format!("swim{}", speed_cm_s.round() as i64)
            }
            MobilityProfile::CurrentDrift { speed_cm_s } => {
                format!("drift{}", speed_cm_s.round() as i64)
            }
        }
    }
}

/// A declarative evaluation grid: the cross product of the six axes, plus
/// per-matrix execution knobs.
#[derive(Debug, Clone)]
pub struct ScenarioMatrix {
    /// Environment axis.
    pub environments: Vec<EnvironmentKind>,
    /// Topology axis.
    pub topologies: Vec<Topology>,
    /// Link-condition axis.
    pub conditions: Vec<LinkProfile>,
    /// Mobility axis.
    pub mobilities: Vec<MobilityProfile>,
    /// Numeric-path axis: `f64` oracle, single-precision `f32`, and/or the
    /// on-device Q15 DSP. f32 and Q15 entries require
    /// `fidelity == Fidelity::Hybrid` (enforced at expansion), because
    /// only the waveform pipeline exercises the DSP.
    pub numeric_paths: Vec<NumericPath>,
    /// Fault-schedule axis: each entry crosses the grid with a scripted
    /// [`FaultSchedule`] (installed on every cell's session) or with
    /// `None` for the clean run. The default everywhere is `vec![None]`,
    /// which leaves cell ids — and therefore the committed report
    /// artifacts — untouched; a `Some` entry inserts a `flt<hash>` id
    /// segment before the seed so faulted and clean statistics never
    /// collide.
    pub faults: Vec<Option<FaultSchedule>>,
    /// Seed axis (one cell per seed).
    pub seeds: Vec<u64>,
    /// Imported field-recording campaigns ([`crate::import`]): each entry
    /// expands into one cell **per numeric path** of this matrix, running
    /// the campaign's decoded audio through the session machinery. A
    /// campaign fixes its own environment, topology, condition, mobility,
    /// seed and round count (they were physical properties of the
    /// deployment), so it crosses only the numeric-path axis; its cell
    /// ids carry an `import` segment before the seed. Default empty,
    /// which leaves every existing grid untouched.
    pub recordings: Vec<std::sync::Arc<crate::import::ImportedCampaign>>,
    /// Localization rounds for every cell of this matrix. Cells needing a
    /// different count go in their own matrix within a suite (e.g.
    /// [`ScenarioMatrix::latency_sweep`] runs 2 rounds while the grids run
    /// 12); each expanded [`EvalCell`] carries its own `rounds`.
    pub rounds_per_cell: usize,
    /// Physical-layer fidelity for every cell in this matrix.
    pub fidelity: Fidelity,
}

/// One concrete cell of an expanded matrix.
#[derive(Debug, Clone)]
pub struct EvalCell {
    /// Stable identifier: `environment/topology/condition/mobility/seed`,
    /// with an `f32` or `q15` segment before the seed on the non-f64
    /// numeric paths.
    pub id: String,
    /// Environment of the cell.
    pub environment: EnvironmentKind,
    /// Group size.
    pub n_devices: usize,
    /// Link condition.
    pub condition: LinkProfile,
    /// Mobility profile.
    pub mobility: MobilityProfile,
    /// Numeric path of the waveform-level DSP.
    pub numeric_path: NumericPath,
    /// RNG seed.
    pub seed: u64,
    /// Scripted fault schedule installed on the cell's session, or `None`
    /// for a clean run.
    pub faults: Option<FaultSchedule>,
    /// Rounds to run.
    pub rounds: usize,
    /// The ready-to-run scenario.
    pub scenario: Scenario,
    /// Recorded leader-link audio (set by
    /// [`crate::import::ImportedCampaign::cell_with_path`]): when set, the
    /// cell's session runs detection and channel estimation on these
    /// decoded captures instead of simulator output. `None` for simulated
    /// cells.
    pub replay: Option<std::sync::Arc<crate::replay::ReplayAudio>>,
}

impl EvalCell {
    /// Wraps a ready-made [`Scenario`] into an ad-hoc cell so it can run
    /// through the shared cell-execution core (and the serving layer)
    /// outside any matrix. The environment, group size, numeric path and
    /// seed are taken from the scenario's configuration; the condition and
    /// mobility axes are unknown for a hand-built scenario and report as
    /// `clear`/`static`. The cell id is the scenario's name.
    ///
    /// ```
    /// use uw_core::prelude::Scenario;
    /// use uw_eval::EvalCell;
    ///
    /// let cell = EvalCell::from_scenario(Scenario::dock_five_devices(7), 4);
    /// assert_eq!(cell.n_devices, 5);
    /// assert_eq!(cell.rounds, 4);
    /// assert_eq!(cell.seed, 7);
    /// ```
    pub fn from_scenario(scenario: Scenario, rounds: usize) -> Self {
        let config = scenario.config();
        Self {
            id: scenario.name().to_string(),
            environment: config.environment,
            n_devices: config.n_devices,
            condition: LinkProfile::Clear,
            mobility: MobilityProfile::Static,
            numeric_path: config.numeric_path,
            seed: config.seed,
            faults: None,
            rounds,
            scenario,
            replay: None,
        }
    }

    /// Attaches a [`FaultSchedule`] to the cell (builder style): the
    /// schedule is installed on the cell's session at execution time, and
    /// the cell id gains a `flt<hash>` segment before the seed so faulted
    /// statistics never collide with the clean cell's.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Result<Self> {
        faults.validate(self.n_devices)?;
        let mut segments: Vec<&str> = self.id.split('/').collect();
        let slug = fault_slug(&faults);
        segments.insert(segments.len() - 1, &slug);
        let id = segments.join("/");
        self.id = id.clone();
        self.scenario.set_name(id);
        self.faults = Some(faults);
        Ok(self)
    }
}

/// Stable id fragment of a fault schedule: `flt` plus an FNV-1a hash of
/// the canonical spec string, so equal schedules always produce equal
/// cell ids (and distinct ones collide with hash probability only).
pub fn fault_slug(faults: &FaultSchedule) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in faults.to_spec().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("flt{:08x}", (h >> 32) as u32 ^ h as u32)
}

impl ScenarioMatrix {
    /// The headline grid: all six environments × {4, 5} devices ×
    /// {clear, occluded} links, static, one seed — 24 cells covering the
    /// paper's Fig. 18/19a axes and the two extended sites.
    pub fn paper_default() -> Self {
        Self {
            environments: EnvironmentKind::ALL.to_vec(),
            topologies: vec![Topology::FourDevice, Topology::FiveDevice],
            // 12 m of extra reflection path models the paper's solid-sheet
            // occlusion (Fig. 19a): strong enough that Algorithm 1 drops
            // the link rather than the Huber refinement absorbing it.
            conditions: vec![LinkProfile::Clear, LinkProfile::Occluded { bias_m: 12.0 }],
            mobilities: vec![MobilityProfile::Static],
            numeric_paths: vec![NumericPath::F64],
            faults: vec![None],
            seeds: vec![1],
            recordings: vec![],
            rounds_per_cell: 12,
            fidelity: Fidelity::Statistical,
        }
    }

    /// Dock-testbed variants: missing links, device churn and the mobility
    /// profiles (Fig. 19b, Fig. 20, and the matrix's churn/swimmer
    /// extensions).
    pub fn dock_variants() -> Self {
        Self {
            environments: vec![EnvironmentKind::Dock],
            topologies: vec![Topology::FiveDevice],
            conditions: vec![
                LinkProfile::MissingLink,
                LinkProfile::DeviceChurn { after_round: 6 },
            ],
            mobilities: vec![
                MobilityProfile::Static,
                MobilityProfile::RopeOscillation { speed_cm_s: 40.0 },
                MobilityProfile::Swimmer { speed_cm_s: 40.0 },
            ],
            numeric_paths: vec![NumericPath::F64],
            faults: vec![None],
            seeds: vec![1],
            recordings: vec![],
            rounds_per_cell: 12,
            fidelity: Fidelity::Statistical,
        }
    }

    /// Mobility-only dock cells (clear links), so motion effects are
    /// measured without a confounding link fault.
    pub fn dock_mobility() -> Self {
        Self {
            environments: vec![EnvironmentKind::Dock],
            topologies: vec![Topology::FiveDevice],
            conditions: vec![LinkProfile::Clear],
            mobilities: vec![
                MobilityProfile::RopeOscillation { speed_cm_s: 40.0 },
                MobilityProfile::Swimmer { speed_cm_s: 40.0 },
            ],
            numeric_paths: vec![NumericPath::F64],
            faults: vec![None],
            seeds: vec![1],
            recordings: vec![],
            rounds_per_cell: 12,
            fidelity: Fidelity::Statistical,
        }
    }

    /// The strong-current drift cell at the tidal channel.
    pub fn tidal_drift() -> Self {
        Self {
            environments: vec![EnvironmentKind::TidalChannel],
            topologies: vec![Topology::FiveDevice],
            conditions: vec![LinkProfile::Clear],
            mobilities: vec![MobilityProfile::CurrentDrift { speed_cm_s: 30.0 }],
            numeric_paths: vec![NumericPath::F64],
            faults: vec![None],
            seeds: vec![1],
            recordings: vec![],
            rounds_per_cell: 12,
            fidelity: Fidelity::Statistical,
        }
    }

    /// Group-size sweep at the dock for the protocol-latency table
    /// (§3.2): latency is deterministic per group size, so two rounds per
    /// cell suffice.
    pub fn latency_sweep() -> Self {
        Self {
            environments: vec![EnvironmentKind::Dock],
            topologies: vec![Topology::Group(3), Topology::Group(6), Topology::Group(7)],
            conditions: vec![LinkProfile::Clear],
            mobilities: vec![MobilityProfile::Static],
            numeric_paths: vec![NumericPath::F64],
            faults: vec![None],
            seeds: vec![1],
            recordings: vec![],
            rounds_per_cell: 2,
            fidelity: Fidelity::Statistical,
        }
    }

    /// The on-device fixed-point cell: the dock 5-device testbed run
    /// end-to-end on the Q15 DSP path at hybrid fidelity, so every
    /// leader-link exchange exercises the `uw_dsp::fixed` block-floating-
    /// point FFTs and Q15 matched filter. Its acceptance band (relative to
    /// the f64 dock cell) is pinned by the differential harness in
    /// `crates/eval/tests/q15_cell_band.rs` and documented in the guide.
    pub fn q15_dock() -> Self {
        Self {
            environments: vec![EnvironmentKind::Dock],
            topologies: vec![Topology::FiveDevice],
            conditions: vec![LinkProfile::Clear],
            mobilities: vec![MobilityProfile::Static],
            numeric_paths: vec![NumericPath::Q15],
            faults: vec![None],
            seeds: vec![1],
            recordings: vec![],
            rounds_per_cell: 12,
            fidelity: Fidelity::Hybrid,
        }
    }

    /// The single-precision cell: the dock 5-device testbed run end-to-end
    /// on the f32 lane-kernel DSP path at hybrid fidelity, so every
    /// leader-link exchange exercises the `uw_dsp::float32` FFTs and
    /// matched filter. f32 carries ~100 dB of SQNR through the correlator,
    /// so its acceptance band (relative to the f64 dock cell) is far
    /// tighter than Q15's; it is pinned by the differential harness in
    /// `crates/eval/tests/f32_cell_band.rs` and documented in the guide.
    pub fn f32_dock() -> Self {
        Self {
            numeric_paths: vec![NumericPath::F32],
            ..Self::q15_dock()
        }
    }

    /// The full evaluation suite: every matrix the reproduction guide
    /// draws from. [`crate::runner::run_suite`] merges the expansions
    /// (first occurrence of a cell id wins).
    pub fn full_suite() -> Vec<Self> {
        vec![
            Self::paper_default(),
            Self::dock_variants(),
            Self::dock_mobility(),
            Self::tidal_drift(),
            Self::latency_sweep(),
            Self::f32_dock(),
            Self::q15_dock(),
        ]
    }

    /// The tier-1 smoke slice: the dock and boathouse 5-device clear/static
    /// cells whose acceptance bands the reproduction guide documents. Runs
    /// in seconds; `cargo test` re-checks the bands through it.
    pub fn smoke() -> Self {
        Self {
            environments: vec![EnvironmentKind::Dock, EnvironmentKind::Boathouse],
            topologies: vec![Topology::FiveDevice],
            conditions: vec![LinkProfile::Clear],
            mobilities: vec![MobilityProfile::Static],
            numeric_paths: vec![NumericPath::F64],
            faults: vec![None],
            seeds: vec![1],
            recordings: vec![],
            rounds_per_cell: 12,
            fidelity: Fidelity::Statistical,
        }
    }

    /// Number of cells this matrix expands to (grid cells plus one cell
    /// per imported campaign per numeric path).
    pub fn cell_count(&self) -> usize {
        self.environments.len()
            * self.topologies.len()
            * self.conditions.len()
            * self.mobilities.len()
            * self.numeric_paths.len()
            * self.faults.len()
            * self.seeds.len()
            + self.recordings.len() * self.numeric_paths.len()
    }

    /// Expands the matrix into concrete, ready-to-run cells.
    pub fn expand(&self) -> Result<Vec<EvalCell>> {
        let mut cells = Vec::with_capacity(self.cell_count());
        for &environment in &self.environments {
            for topology in &self.topologies {
                for &condition in &self.conditions {
                    for &mobility in &self.mobilities {
                        for &numeric_path in &self.numeric_paths {
                            for faults in &self.faults {
                                for &seed in &self.seeds {
                                    cells.push(self.build_cell(
                                        environment,
                                        *topology,
                                        condition,
                                        mobility,
                                        numeric_path,
                                        faults.as_ref(),
                                        seed,
                                    )?);
                                }
                            }
                        }
                    }
                }
            }
        }
        // Imported campaigns ride along after the grid: one cell per
        // campaign per numeric path, each reusing the campaign's shared
        // decoded audio.
        for campaign in &self.recordings {
            for &numeric_path in &self.numeric_paths {
                cells.push(campaign.cell_with_path(numeric_path)?);
            }
        }
        Ok(cells)
    }

    #[allow(clippy::too_many_arguments)]
    fn build_cell(
        &self,
        environment: EnvironmentKind,
        topology: Topology,
        condition: LinkProfile,
        mobility: MobilityProfile,
        numeric_path: NumericPath,
        faults: Option<&FaultSchedule>,
        seed: u64,
    ) -> Result<EvalCell> {
        let n = topology.n_devices();
        // f64 cells keep the historical five-segment id; the alternate
        // numeric paths (f32, Q15) insert their path segment so cells on
        // different paths never collide.
        let id = match numeric_path {
            NumericPath::F64 => format!(
                "{}/{}/{}/{}/s{}",
                environment.slug(),
                topology.slug(),
                condition.slug(),
                mobility.slug(),
                seed
            ),
            NumericPath::F32 | NumericPath::Q15 => format!(
                "{}/{}/{}/{}/{}/s{}",
                environment.slug(),
                topology.slug(),
                condition.slug(),
                mobility.slug(),
                numeric_path.slug(),
                seed
            ),
        };
        if numeric_path != NumericPath::F64 && self.fidelity != Fidelity::Hybrid {
            // The statistical model never runs the DSP, so a statistical
            // f32 or Q15 cell would silently measure nothing path-specific.
            return Err(uw_core::SystemError::InvalidConfig {
                reason: format!(
                    "cell {id}: the {} numeric path only affects waveform-level DSP; \
                     run it at Fidelity::Hybrid",
                    numeric_path.slug()
                ),
            });
        }
        let rounds = self.rounds_per_cell;
        let mut scenario = Scenario::for_site(environment, n, seed)?;
        scenario.config_mut().fidelity = self.fidelity;
        scenario.config_mut().numeric_path = numeric_path;
        match condition {
            LinkProfile::Clear => {}
            LinkProfile::Occluded { bias_m } => {
                scenario.network_mut().set_link_condition(
                    0,
                    1,
                    uw_core::network::LinkCondition::Occluded { bias_m },
                )?;
            }
            LinkProfile::MissingLink => {
                // Removing any of a 3-device group's three links leaves the
                // topology unrealizable, so the axis needs ≥ 4 devices.
                if n < 4 {
                    return Err(uw_core::SystemError::InvalidConfig {
                        reason: format!(
                            "cell {id}: the missing-link condition needs at least 4 \
                             devices, got {n}"
                        ),
                    });
                }
                scenario.network_mut().set_link_condition(
                    2,
                    n - 1,
                    uw_core::network::LinkCondition::Missing,
                )?;
            }
            LinkProfile::DeviceChurn { after_round } => {
                // Clamp into the cell's round budget so a small
                // `rounds_per_cell` still exercises (and reports) the churn
                // instead of silently never reaching it.
                let after = after_round.min(rounds.saturating_sub(1));
                scenario.network_mut().set_device_churn(n - 1, after)?;
            }
        }
        match mobility {
            MobilityProfile::Static => {}
            MobilityProfile::RopeOscillation { speed_cm_s } => {
                scenario.apply_rope_oscillation(2, speed_cm_s)?;
            }
            MobilityProfile::Swimmer { speed_cm_s } => {
                scenario.apply_swimmer(2, speed_cm_s)?;
            }
            MobilityProfile::CurrentDrift { speed_cm_s } => {
                scenario.apply_current_drift(speed_cm_s)?;
            }
        }
        scenario.set_name(id.clone());
        let cell = EvalCell {
            id,
            environment,
            n_devices: n,
            condition,
            mobility,
            numeric_path,
            seed,
            faults: None,
            rounds,
            scenario,
            replay: None,
        };
        match faults {
            // The clean axis entry leaves the cell — and its id — exactly
            // as pre-fault matrices produced it.
            None => Ok(cell),
            Some(f) => cell.with_faults(f.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_meets_the_grid_floor() {
        let m = ScenarioMatrix::paper_default();
        assert!(m.environments.len() >= 6);
        assert!(m.topologies.len() >= 2);
        assert!(m.conditions.len() >= 2);
        assert!(m.cell_count() >= 24);
        let cells = m.expand().unwrap();
        assert_eq!(cells.len(), m.cell_count());
        // Ids are unique and name their scenario.
        let mut ids: Vec<&str> = cells.iter().map(|c| c.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), cells.len());
        for cell in &cells {
            assert_eq!(cell.scenario.name(), cell.id);
            assert_eq!(cell.scenario.network().device_count(), cell.n_devices);
        }
    }

    #[test]
    fn conditions_are_applied_to_the_network() {
        let m = ScenarioMatrix::paper_default();
        let cells = m.expand().unwrap();
        let occluded = cells.iter().find(|c| c.id.contains("occluded")).unwrap();
        assert!(matches!(
            occluded.scenario.network().link_condition(0, 1),
            Some(uw_core::network::LinkCondition::Occluded { .. })
        ));
        let churn_cells = ScenarioMatrix::dock_variants().expand().unwrap();
        let churn = churn_cells.iter().find(|c| c.id.contains("churn")).unwrap();
        assert_eq!(churn.scenario.network().churn_round(4), Some(6));
        let missing = churn_cells
            .iter()
            .find(|c| c.id.contains("misslink"))
            .unwrap();
        assert_eq!(
            missing.scenario.network().link_condition(2, 4),
            Some(uw_core::network::LinkCondition::Missing)
        );
    }

    #[test]
    fn missing_link_needs_four_devices() {
        let m = ScenarioMatrix {
            topologies: vec![Topology::Group(3)],
            conditions: vec![LinkProfile::MissingLink],
            ..ScenarioMatrix::paper_default()
        };
        let err = m.expand().unwrap_err();
        assert!(err.to_string().contains("at least 4"), "{err}");
    }

    #[test]
    fn mobility_is_applied_to_the_network() {
        let cells = ScenarioMatrix::dock_mobility().expand().unwrap();
        for cell in &cells {
            let p0 = cell.scenario.network().positions_at(0.0)[2];
            let p1 = cell.scenario.network().positions_at(2.0)[2];
            assert!(p0.distance(&p1) > 0.05, "{} did not move", cell.id);
        }
        let drift = ScenarioMatrix::tidal_drift().expand().unwrap();
        let before = drift[0].scenario.network().positions_at(0.0);
        let after = drift[0].scenario.network().positions_at(10.0);
        assert_eq!(before[0], after[0]);
        assert!(before[1].distance(&after[1]) > 0.5);
    }

    #[test]
    fn per_matrix_round_counts_reach_the_cells() {
        let mut m = ScenarioMatrix::smoke();
        m.rounds_per_cell = 3;
        for cell in m.expand().unwrap() {
            assert_eq!(cell.rounds, 3);
        }
        // Churn clamps into the round budget so short runs still churn.
        m.conditions = vec![LinkProfile::DeviceChurn { after_round: 6 }];
        let cell = m.expand().unwrap().remove(0);
        assert_eq!(cell.scenario.network().churn_round(4), Some(2));
    }

    #[test]
    fn full_suite_expands_without_errors() {
        let mut total = 0;
        for m in ScenarioMatrix::full_suite() {
            total += m.expand().unwrap().len();
        }
        assert!(total >= 25, "suite has {total} cells");
    }

    #[test]
    fn q15_cells_get_their_own_id_segment_and_hybrid_fidelity() {
        let cells = ScenarioMatrix::q15_dock().expand().unwrap();
        assert_eq!(cells.len(), 1);
        let cell = &cells[0];
        assert_eq!(cell.id, "dock/5dev/clear/static/q15/s1");
        assert_eq!(cell.numeric_path, NumericPath::Q15);
        assert_eq!(cell.scenario.config().numeric_path, NumericPath::Q15);
        assert_eq!(cell.scenario.config().fidelity, Fidelity::Hybrid);
        // The f64 grid keeps its historical five-segment ids.
        let f64_cells = ScenarioMatrix::smoke().expand().unwrap();
        assert!(f64_cells.iter().all(|c| c.id.split('/').count() == 5));
        assert!(f64_cells.iter().all(|c| c.numeric_path == NumericPath::F64));
    }

    #[test]
    fn fault_axis_slugs_ids_and_leaves_clean_cells_untouched() {
        let schedule = FaultSchedule::parse("seed=7;loss:1..2:*:0.3;churn:2..:4").unwrap();
        let m = ScenarioMatrix {
            faults: vec![None, Some(schedule.clone())],
            ..ScenarioMatrix::smoke()
        };
        assert_eq!(m.cell_count(), 2 * ScenarioMatrix::smoke().cell_count());
        let cells = m.expand().unwrap();
        let clean: Vec<&EvalCell> = cells.iter().filter(|c| c.faults.is_none()).collect();
        let faulted: Vec<&EvalCell> = cells.iter().filter(|c| c.faults.is_some()).collect();
        assert_eq!(clean.len(), faulted.len());
        // Clean cells keep their historical five-segment ids bit-for-bit.
        assert!(clean.iter().all(|c| c.id.split('/').count() == 5));
        // Faulted cells insert a deterministic `flt<hash>` segment before
        // the seed and carry the schedule for the runner to install.
        let slug = fault_slug(&schedule);
        for cell in &faulted {
            let segments: Vec<&str> = cell.id.split('/').collect();
            assert_eq!(segments[segments.len() - 2], slug.as_str());
            assert!(segments.last().unwrap().starts_with('s'));
            assert_eq!(cell.scenario.name(), cell.id);
            assert_eq!(cell.faults.as_ref().unwrap(), &schedule);
        }
        // A schedule naming a device outside the group is rejected at expand.
        let bad = FaultSchedule::parse("seed=1;churn:1..:9").unwrap();
        let m = ScenarioMatrix {
            faults: vec![Some(bad)],
            ..ScenarioMatrix::smoke()
        };
        assert!(m.expand().is_err());
    }

    #[test]
    fn f32_cells_get_their_own_id_segment_and_hybrid_fidelity() {
        let cells = ScenarioMatrix::f32_dock().expand().unwrap();
        assert_eq!(cells.len(), 1);
        let cell = &cells[0];
        assert_eq!(cell.id, "dock/5dev/clear/static/f32/s1");
        assert_eq!(cell.numeric_path, NumericPath::F32);
        assert_eq!(cell.scenario.config().numeric_path, NumericPath::F32);
        assert_eq!(cell.scenario.config().fidelity, Fidelity::Hybrid);
    }

    #[test]
    fn statistical_non_f64_cells_are_rejected() {
        for path in [NumericPath::F32, NumericPath::Q15] {
            let m = ScenarioMatrix {
                numeric_paths: vec![path],
                ..ScenarioMatrix::smoke()
            };
            let err = m.expand().unwrap_err();
            assert!(err.to_string().contains("Fidelity::Hybrid"), "{err}");
        }
        // All three paths in one hybrid matrix expand to distinct cells.
        let m = ScenarioMatrix {
            numeric_paths: vec![NumericPath::F64, NumericPath::F32, NumericPath::Q15],
            environments: vec![EnvironmentKind::Dock],
            fidelity: Fidelity::Hybrid,
            ..ScenarioMatrix::smoke()
        };
        let cells = m.expand().unwrap();
        assert_eq!(cells.len(), 3);
        assert_ne!(cells[0].id, cells[1].id);
        assert_ne!(cells[1].id, cells[2].id);
        assert_ne!(cells[0].id, cells[2].id);
    }
}
