//! Threat Analysis benchmark scenarios.
//!
//! The C3IPBS ships five input scenarios of 1000 threats each; the
//! benchmark time is the total over all five. The original data is not
//! publicly distributable, so scenarios are generated from a seeded RNG
//! with the paper's stated statistics: 1000 threats per scenario, a
//! defended area with a battery of interceptor weapons, and threat
//! geometry that produces zero, one, or more interception intervals per
//! (threat, weapon) pair.

use super::model::{Threat, Weapon};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A complete Threat Analysis input: the trajectories of the incoming
/// threats and the locations/capabilities of the defending weapons.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ThreatScenario {
    /// Incoming ballistic threats.
    pub threats: Vec<Threat>,
    /// Defending interceptor batteries.
    pub weapons: Vec<Weapon>,
}

/// Why a [`ThreatScenario`] was rejected by [`ThreatScenario::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ThreatScenarioError {
    /// A threat or weapon field is NaN or infinite.
    NonFinite {
        /// `"threat"` or `"weapon"`.
        kind: &'static str,
        /// Index into the corresponding scenario vector.
        index: usize,
    },
    /// A threat's flight time is not strictly positive.
    NonPositiveFlightTime {
        /// Index into `threats`.
        index: usize,
    },
    /// A threat's timeline extends past [`MAX_TIMELINE_S`], which would
    /// make the second-by-second interval scan effectively unbounded
    /// (`Threat::last_step` saturates at `u32::MAX` steps).
    TimelineTooLong {
        /// Index into `threats`.
        index: usize,
        /// `launch_time + flight_time` for that threat (s).
        end_s: f64,
    },
    /// A threat's detect delay is negative or at least its flight time.
    BadDetectDelay {
        /// Index into `threats`.
        index: usize,
    },
    /// A weapon's interceptor speed or maximum range is not positive, its
    /// reaction time is negative, or its altitude band is inverted.
    BadWeapon {
        /// Index into `weapons`.
        index: usize,
    },
}

impl std::fmt::Display for ThreatScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonFinite { kind, index } => {
                write!(f, "{kind} {index} has a NaN or infinite field")
            }
            Self::NonPositiveFlightTime { index } => {
                write!(f, "threat {index} has non-positive flight time")
            }
            Self::TimelineTooLong { index, end_s } => write!(
                f,
                "threat {index} timeline ends at {end_s} s, past the {MAX_TIMELINE_S} s bound"
            ),
            Self::BadDetectDelay { index } => write!(
                f,
                "threat {index} detect delay is negative or >= flight time"
            ),
            Self::BadWeapon { index } => write!(
                f,
                "weapon {index} has non-positive speed/range, negative reaction \
                 time, or an inverted altitude band"
            ),
        }
    }
}

impl std::error::Error for ThreatScenarioError {}

/// Upper bound on `launch_time + flight_time` accepted by
/// [`ThreatScenario::validate`] (s). The interval scan walks the timeline
/// in 1 s steps, so an absurd impact time turns one (threat, weapon) pair
/// into billions of iterations; generated scenarios stay far below this.
pub const MAX_TIMELINE_S: f64 = 1_000_000.0;

impl ThreatScenario {
    /// Number of (threat, weapon) pairs the benchmark examines.
    pub fn n_pairs(&self) -> usize {
        self.threats.len() * self.weapons.len()
    }

    /// Check the scenario invariants the analysis kernels assume.
    ///
    /// [`generate`] always produces valid scenarios; this exists for
    /// untrusted inputs — fuzz-shrunk cases and hand-edited corpus files —
    /// so a malformed scenario is rejected up front instead of hanging or
    /// panicking inside a kernel.
    pub fn validate(&self) -> Result<(), ThreatScenarioError> {
        for (index, t) in self.threats.iter().enumerate() {
            let fields = [
                t.launch.0,
                t.launch.1,
                t.impact.0,
                t.impact.1,
                t.launch_time,
                t.flight_time,
                t.apex_height,
                t.detect_delay,
            ];
            if fields.iter().any(|v| !v.is_finite()) {
                return Err(ThreatScenarioError::NonFinite {
                    kind: "threat",
                    index,
                });
            }
            if t.flight_time <= 0.0 {
                return Err(ThreatScenarioError::NonPositiveFlightTime { index });
            }
            if t.detect_delay < 0.0 || t.detect_delay >= t.flight_time {
                return Err(ThreatScenarioError::BadDetectDelay { index });
            }
            let end_s = t.launch_time + t.flight_time;
            if t.launch_time < 0.0 || end_s > MAX_TIMELINE_S {
                return Err(ThreatScenarioError::TimelineTooLong { index, end_s });
            }
        }
        for (index, w) in self.weapons.iter().enumerate() {
            let fields = [
                w.pos.0,
                w.pos.1,
                w.interceptor_speed,
                w.max_range,
                w.min_alt,
                w.max_alt,
                w.reaction_time,
            ];
            if fields.iter().any(|v| !v.is_finite()) {
                return Err(ThreatScenarioError::NonFinite {
                    kind: "weapon",
                    index,
                });
            }
            if w.interceptor_speed <= 0.0
                || w.max_range <= 0.0
                || w.reaction_time < 0.0
                || w.min_alt > w.max_alt
            {
                return Err(ThreatScenarioError::BadWeapon { index });
            }
        }
        Ok(())
    }
}

/// Generation parameters for a synthetic scenario.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ThreatScenarioParams {
    /// Number of incoming threats (the benchmark uses 1000).
    pub n_threats: usize,
    /// Number of defending weapons.
    pub n_weapons: usize,
    /// RNG seed; equal seeds give identical scenarios.
    pub seed: u64,
    /// Side length of the theater square (m). Launches happen near one
    /// edge, the defended area is near the opposite edge.
    pub theater_m: f64,
    /// Window over which threat launches are staggered (s).
    pub launch_window_s: f64,
}

impl Default for ThreatScenarioParams {
    fn default() -> Self {
        Self {
            n_threats: 1000,
            n_weapons: 25,
            seed: 0,
            theater_m: 500_000.0,
            launch_window_s: 1800.0,
        }
    }
}

/// Generate a scenario from `params`, deterministically in the seed.
pub fn generate(params: ThreatScenarioParams) -> ThreatScenario {
    let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
    let side = params.theater_m;

    // Defended area: a band occupying the far 20% of the theater. Weapons
    // defend it; threats aim into it.
    let defended_x = 0.8 * side..side;

    let weapons = (0..params.n_weapons)
        .map(|_| Weapon {
            pos: (
                rng.random_range(defended_x.clone()),
                rng.random_range(0.0..side),
            ),
            interceptor_speed: rng.random_range(2_000.0..5_000.0),
            max_range: rng.random_range(40_000.0..160_000.0),
            min_alt: rng.random_range(200.0..2_000.0),
            max_alt: rng.random_range(20_000.0..45_000.0),
            reaction_time: rng.random_range(2.0..15.0),
        })
        .collect();

    let threats = (0..params.n_threats)
        .map(|_| {
            let flight_time = rng.random_range(150.0..500.0);
            Threat {
                launch: (
                    rng.random_range(0.0..0.2 * side),
                    rng.random_range(0.0..side),
                ),
                impact: (
                    rng.random_range(defended_x.clone()),
                    rng.random_range(0.0..side),
                ),
                launch_time: rng.random_range(0.0..params.launch_window_s),
                flight_time,
                // Ballistic apex grows with range; jitter keeps pairs from
                // being interchangeable.
                apex_height: rng.random_range(40_000.0..220_000.0),
                detect_delay: rng.random_range(0.05..0.25) * flight_time,
            }
        })
        .collect();

    ThreatScenario { threats, weapons }
}

/// Parameters of the five benchmark input scenarios: seeds 1–5, every
/// other parameter at benchmark scale.
pub fn benchmark_params() -> impl Iterator<Item = ThreatScenarioParams> {
    (1..=5).map(|seed| ThreatScenarioParams {
        seed,
        ..ThreatScenarioParams::default()
    })
}

/// The five benchmark input scenarios (paper: "total time for all five
/// input scenarios"): [`benchmark_params`], generated.
pub fn benchmark_suite() -> Vec<ThreatScenario> {
    benchmark_params().map(generate).collect()
}

/// A reduced scenario for tests and quick examples: 40 threats, 6 weapons.
pub fn small_scenario(seed: u64) -> ThreatScenario {
    generate(ThreatScenarioParams {
        n_threats: 40,
        n_weapons: 6,
        seed,
        theater_m: 300_000.0,
        launch_window_s: 600.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = generate(ThreatScenarioParams {
            seed: 7,
            ..Default::default()
        });
        let b = generate(ThreatScenarioParams {
            seed: 7,
            ..Default::default()
        });
        assert_eq!(a.threats.len(), b.threats.len());
        assert_eq!(a.threats[0], b.threats[0]);
        assert_eq!(a.weapons[3], b.weapons[3]);
        let c = generate(ThreatScenarioParams {
            seed: 8,
            ..Default::default()
        });
        assert_ne!(a.threats[0], c.threats[0], "different seeds must differ");
    }

    #[test]
    fn benchmark_suite_has_five_scenarios_of_1000_threats() {
        let suite = benchmark_suite();
        assert_eq!(suite.len(), 5);
        for s in &suite {
            assert_eq!(s.threats.len(), 1000);
            assert!(!s.weapons.is_empty());
        }
    }

    #[test]
    fn scenarios_in_suite_are_distinct() {
        let suite = benchmark_suite();
        assert_ne!(suite[0].threats[0], suite[1].threats[0]);
    }

    #[test]
    fn threat_parameters_are_physical() {
        let s = generate(ThreatScenarioParams::default());
        for th in &s.threats {
            assert!(th.flight_time > 0.0);
            assert!(th.apex_height > 0.0);
            assert!(th.detect_delay > 0.0 && th.detect_delay < th.flight_time);
            assert!(th.launch_time >= 0.0);
        }
        for w in &s.weapons {
            assert!(w.interceptor_speed > 0.0);
            assert!(w.max_range > 0.0);
            assert!(w.min_alt < w.max_alt);
        }
    }

    #[test]
    fn generated_scenarios_validate() {
        for seed in 0..4 {
            generate(ThreatScenarioParams {
                seed,
                ..Default::default()
            })
            .validate()
            .unwrap();
            small_scenario(seed).validate().unwrap();
        }
    }

    #[test]
    fn validate_rejects_malformed_scenarios() {
        let base = small_scenario(1);

        let mut s = base.clone();
        s.threats[3].apex_height = f64::NAN;
        assert!(matches!(
            s.validate(),
            Err(ThreatScenarioError::NonFinite {
                kind: "threat",
                index: 3
            })
        ));

        let mut s = base.clone();
        s.threats[0].flight_time = 0.0;
        assert!(matches!(
            s.validate(),
            Err(ThreatScenarioError::NonPositiveFlightTime { index: 0 })
        ));

        let mut s = base.clone();
        s.threats[1].launch_time = 5.0e9;
        assert!(matches!(
            s.validate(),
            Err(ThreatScenarioError::TimelineTooLong { index: 1, .. })
        ));

        let mut s = base.clone();
        s.threats[2].detect_delay = s.threats[2].flight_time * 2.0;
        assert!(matches!(
            s.validate(),
            Err(ThreatScenarioError::BadDetectDelay { index: 2 })
        ));

        let mut s = base.clone();
        s.weapons[4].min_alt = s.weapons[4].max_alt + 1.0;
        assert!(matches!(
            s.validate(),
            Err(ThreatScenarioError::BadWeapon { index: 4 })
        ));

        let mut s = base;
        s.weapons[0].pos.1 = f64::INFINITY;
        assert!(matches!(
            s.validate(),
            Err(ThreatScenarioError::NonFinite {
                kind: "weapon",
                index: 0
            })
        ));
    }

    #[test]
    fn small_scenario_is_small() {
        let s = small_scenario(1);
        assert_eq!(s.threats.len(), 40);
        assert_eq!(s.weapons.len(), 6);
        assert_eq!(s.n_pairs(), 240);
    }
}
