//! Environment presets for the deployment sites the evaluation sweeps.
//!
//! The first four are the paper's real testbeds (Fig. 10); the last two
//! extend the matrix along the environment axis motivated by the companion
//! ranging work (greater ranges, saltwater, currents):
//!
//! | Site         | Depth     | Extent | Character                                  |
//! |--------------|-----------|--------|--------------------------------------------|
//! | Pool         | 1–2.5 m   | 23 m   | hard walls, strong reverberation, quiet    |
//! | Dock         | 9 m       | 50 m   | boats/seaplanes, aquatic plants & animals  |
//! | Viewpoint    | 1–1.5 m   | 40 m   | very shallow waterfront                    |
//! | Boathouse    | 5 m       | 30 m   | busy fishing dock, people kayaking         |
//! | OpenWater    | 30 m      | 60 m   | deep saltwater site, weak reverberation    |
//! | TidalChannel | 4 m       | 35 m   | strong current, flow noise, brackish water |
//!
//! Each preset bundles the water properties, multipath severity, boundary
//! losses and noise profile used by the channel simulator.

use crate::absorption::{BoundaryLoss, Spreading};
use crate::multipath::MultipathConfig;
use crate::noise::NoiseProfile;
use crate::sound_speed::{wilson_sound_speed, WaterProperties};
use serde::{Deserialize, Serialize};

/// The deployment sites the evaluation matrix sweeps: the paper's four
/// testbeds plus two extended sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EnvironmentKind {
    /// Indoor swimming pool (23 m long, 1–2.5 m deep).
    Pool,
    /// Outdoor boat dock (50 m long, 9 m deep).
    Dock,
    /// Waterfront park viewpoint (40 m long, 1–1.5 m deep).
    Viewpoint,
    /// Fishing dock by a lake (30 m long, 5 m deep), busy with people.
    Boathouse,
    /// Deep open-water site away from shore (60 m extent, 30 m deep):
    /// saltwater, spherical spreading, weak reverberation, quiet.
    OpenWater,
    /// Tidal channel with a strong current (35 m long, 4 m deep): brackish
    /// water, turbulent flow noise, devices drift with the current.
    TidalChannel,
}

impl EnvironmentKind {
    /// All presets, paper sites first.
    pub const ALL: [EnvironmentKind; 6] = [
        EnvironmentKind::Pool,
        EnvironmentKind::Dock,
        EnvironmentKind::Viewpoint,
        EnvironmentKind::Boathouse,
        EnvironmentKind::OpenWater,
        EnvironmentKind::TidalChannel,
    ];

    /// The four real testbeds from the paper's evaluation (Fig. 10).
    pub const PAPER_SITES: [EnvironmentKind; 4] = [
        EnvironmentKind::Pool,
        EnvironmentKind::Dock,
        EnvironmentKind::Viewpoint,
        EnvironmentKind::Boathouse,
    ];

    /// Whether this site appears in the paper's measurement campaign (as
    /// opposed to the extended matrix axes).
    pub fn is_paper_site(&self) -> bool {
        Self::PAPER_SITES.contains(self)
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            EnvironmentKind::Pool => "Swimming pool",
            EnvironmentKind::Dock => "Dock",
            EnvironmentKind::Viewpoint => "Viewpoint",
            EnvironmentKind::Boathouse => "Boathouse",
            EnvironmentKind::OpenWater => "Open water",
            EnvironmentKind::TidalChannel => "Tidal channel",
        }
    }

    /// Short lowercase slug used in matrix cell identifiers and artifact
    /// file names.
    pub fn slug(&self) -> &'static str {
        match self {
            EnvironmentKind::Pool => "pool",
            EnvironmentKind::Dock => "dock",
            EnvironmentKind::Viewpoint => "viewpoint",
            EnvironmentKind::Boathouse => "boathouse",
            EnvironmentKind::OpenWater => "openwater",
            EnvironmentKind::TidalChannel => "tidal",
        }
    }

    /// The preset whose [`EnvironmentKind::slug`] is `slug`, if any.
    pub fn from_slug(slug: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.slug() == slug)
    }
}

/// A fully-parameterised acoustic environment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Environment {
    /// Which site this models.
    pub kind: EnvironmentKind,
    /// Water depth in metres.
    pub water_depth_m: f64,
    /// Maximum horizontal extent of the site in metres.
    pub max_range_m: f64,
    /// Water properties (temperature, salinity) for sound-speed computation.
    pub water: WaterProperties,
    /// Geometric spreading model.
    pub spreading: Spreading,
    /// Per-bounce boundary losses.
    pub boundary_loss: BoundaryLoss,
    /// Maximum number of boundary bounces simulated.
    pub max_bounces: usize,
    /// Background noise profile.
    pub noise: NoiseProfile,
}

impl Environment {
    /// Builds the preset for a given site.
    pub fn preset(kind: EnvironmentKind) -> Self {
        match kind {
            EnvironmentKind::Pool => Self {
                kind,
                water_depth_m: 2.5,
                max_range_m: 23.0,
                water: WaterProperties::pool(),
                spreading: Spreading::Cylindrical,
                // Tiled walls reflect strongly: low boundary loss, deep
                // reverberation tail.
                boundary_loss: BoundaryLoss {
                    surface_db: 0.5,
                    bottom_db: 2.0,
                },
                max_bounces: 6,
                noise: NoiseProfile::quiet(),
            },
            EnvironmentKind::Dock => Self {
                kind,
                water_depth_m: 9.0,
                max_range_m: 50.0,
                water: WaterProperties::default(),
                spreading: Spreading::Practical,
                boundary_loss: BoundaryLoss::default(),
                max_bounces: 4,
                noise: NoiseProfile::default(),
            },
            EnvironmentKind::Viewpoint => Self {
                kind,
                water_depth_m: 1.5,
                max_range_m: 40.0,
                water: WaterProperties::default(),
                spreading: Spreading::Cylindrical,
                boundary_loss: BoundaryLoss {
                    surface_db: 1.0,
                    bottom_db: 4.0,
                },
                max_bounces: 6,
                noise: NoiseProfile::default(),
            },
            EnvironmentKind::Boathouse => Self {
                kind,
                water_depth_m: 5.0,
                max_range_m: 30.0,
                water: WaterProperties::default(),
                spreading: Spreading::Practical,
                boundary_loss: BoundaryLoss {
                    surface_db: 1.0,
                    bottom_db: 5.0,
                },
                max_bounces: 4,
                noise: NoiseProfile::busy(),
            },
            EnvironmentKind::OpenWater => Self {
                kind,
                water_depth_m: 30.0,
                max_range_m: 60.0,
                water: WaterProperties::ocean(),
                // Deep water, boundaries far away: near-spherical spreading
                // and a soft sediment bottom that absorbs most of what does
                // reach it — the reverberation tail is weak and sparse.
                spreading: Spreading::Spherical,
                boundary_loss: BoundaryLoss {
                    surface_db: 2.0,
                    bottom_db: 10.0,
                },
                max_bounces: 2,
                noise: NoiseProfile::open_water(),
            },
            EnvironmentKind::TidalChannel => Self {
                kind,
                water_depth_m: 4.0,
                max_range_m: 35.0,
                water: WaterProperties::brackish(),
                spreading: Spreading::Practical,
                // Rippled sand and a rough, choppy surface scatter energy
                // out of the specular paths: moderate per-bounce losses.
                boundary_loss: BoundaryLoss {
                    surface_db: 2.0,
                    bottom_db: 6.0,
                },
                max_bounces: 4,
                noise: NoiseProfile::flowing(),
            },
        }
    }

    /// Speed of sound for this environment (m/s), from Wilson's equation at
    /// mid-depth.
    pub fn sound_speed(&self) -> f64 {
        let props = WaterProperties {
            depth_m: self.water_depth_m / 2.0,
            ..self.water
        };
        wilson_sound_speed(&props)
    }

    /// Builds a [`MultipathConfig`] for a link in this environment, with an
    /// optional extra direct-path loss in dB to model an occluded link.
    pub fn multipath_config(&self, occlusion_db: f64) -> MultipathConfig {
        MultipathConfig {
            water_depth_m: self.water_depth_m,
            sound_speed: self.sound_speed(),
            max_bounces: self.max_bounces,
            spreading: self.spreading,
            boundary_loss: self.boundary_loss,
            center_freq_hz: 3000.0,
            direct_path_extra_loss_db: occlusion_db,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_are_physical() {
        for kind in EnvironmentKind::ALL {
            let env = Environment::preset(kind);
            assert!(env.water_depth_m > 0.0);
            assert!(env.max_range_m > env.water_depth_m);
            let c = env.sound_speed();
            assert!(c > 1400.0 && c < 1600.0, "{:?}: c = {c}", kind);
            env.multipath_config(0.0).validate().unwrap();
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn pool_is_warmest_and_shallow() {
        let pool = Environment::preset(EnvironmentKind::Pool);
        let dock = Environment::preset(EnvironmentKind::Dock);
        assert!(pool.water.temperature_c > dock.water.temperature_c);
        assert!(pool.water_depth_m < dock.water_depth_m);
        // Warmer water → faster sound.
        assert!(pool.sound_speed() > dock.sound_speed());
    }

    #[test]
    fn boathouse_is_noisiest() {
        let boathouse = Environment::preset(EnvironmentKind::Boathouse);
        let pool = Environment::preset(EnvironmentKind::Pool);
        assert!(boathouse.noise.spike_rate_hz > pool.noise.spike_rate_hz);
        assert!(boathouse.noise.ambient_rms > pool.noise.ambient_rms);
    }

    #[test]
    fn occlusion_is_passed_through() {
        let env = Environment::preset(EnvironmentKind::Dock);
        assert_eq!(env.multipath_config(25.0).direct_path_extra_loss_db, 25.0);
        assert_eq!(env.multipath_config(0.0).direct_path_extra_loss_db, 0.0);
    }

    #[test]
    fn paper_sites_are_a_strict_subset() {
        for kind in EnvironmentKind::PAPER_SITES {
            assert!(kind.is_paper_site());
            assert!(EnvironmentKind::ALL.contains(&kind));
        }
        assert!(!EnvironmentKind::OpenWater.is_paper_site());
        assert!(!EnvironmentKind::TidalChannel.is_paper_site());
        assert_eq!(EnvironmentKind::ALL.len(), 6);
        // Slugs are unique (they key matrix cells and artifact names).
        let mut slugs: Vec<&str> = EnvironmentKind::ALL.iter().map(|k| k.slug()).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), EnvironmentKind::ALL.len());
    }

    #[test]
    fn open_water_has_weak_reverberation() {
        let open = Environment::preset(EnvironmentKind::OpenWater);
        let pool = Environment::preset(EnvironmentKind::Pool);
        // Fewer simulated bounces, each losing more energy.
        assert!(open.max_bounces < pool.max_bounces);
        assert!(open.boundary_loss.bottom_db > pool.boundary_loss.bottom_db);
        assert_eq!(open.spreading, Spreading::Spherical);
        // Saltwater is saline; the paper's lakes are not.
        assert!(open.water.salinity_ppt > 30.0);
        assert!(open.water_depth_m > Environment::preset(EnvironmentKind::Dock).water_depth_m);
    }

    #[test]
    fn tidal_channel_is_noisy_but_less_impulsive_than_boathouse() {
        let tidal = Environment::preset(EnvironmentKind::TidalChannel);
        let boathouse = Environment::preset(EnvironmentKind::Boathouse);
        let open = Environment::preset(EnvironmentKind::OpenWater);
        assert!(tidal.noise.ambient_rms > open.noise.ambient_rms);
        assert!(tidal.noise.spike_rate_hz < boathouse.noise.spike_rate_hz);
        assert!(tidal.noise.spike_rate_hz > open.noise.spike_rate_hz);
        // Brackish: saltier than the lakes, fresher than the open sea.
        assert!(tidal.water.salinity_ppt > 1.0);
        assert!(tidal.water.salinity_ppt < open.water.salinity_ppt);
    }

    #[test]
    fn presets_are_cloneable_and_comparable() {
        let env = Environment::preset(EnvironmentKind::Dock);
        let copy = env.clone();
        assert_eq!(env, copy);
        assert_ne!(Environment::preset(EnvironmentKind::Pool), env);
    }
}
