//! Terrain Masking benchmark scenarios: synthetic terrain and ground-based
//! threats.
//!
//! The C3IPBS terrain data is not publicly available; elevations are
//! generated with the diamond-square (midpoint displacement) fractal, the
//! standard synthetic model for natural terrain relief, from a seeded RNG.
//! Threat placement follows the paper's stated statistics: 60 threats per
//! scenario, each with a region of influence of up to 5 % of the terrain.

use crate::grid::Grid;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A ground-based threat (radar site) with a circular-ish region of
/// influence of Chebyshev radius `radius` cells.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GroundThreat {
    /// Grid x coordinate of the radar.
    pub x: usize,
    /// Grid y coordinate of the radar.
    pub y: usize,
    /// Region-of-influence radius in cells (Chebyshev).
    pub radius: usize,
    /// Height of the radar mast above local terrain (m).
    pub mast_height: f64,
}

/// A complete Terrain Masking input.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TerrainScenario {
    /// Ground elevation (m) at every grid point.
    pub terrain: Grid<f64>,
    /// Radar threats on the terrain.
    pub threats: Vec<GroundThreat>,
    /// Physical size of one grid cell (m).
    pub cell_size_m: f64,
}

/// Why a [`TerrainScenario`] is malformed (see [`TerrainScenario::validate`]).
#[derive(Debug, Clone, PartialEq)]
pub enum TerrainScenarioError {
    /// The terrain grid has zero cells.
    EmptyTerrain,
    /// The cell size is not a finite positive number.
    BadCellSize(f64),
    /// A terrain elevation is NaN or infinite.
    NonFiniteElevation {
        /// Offending cell.
        cell: (usize, usize),
        /// Elevation found there.
        value: f64,
    },
    /// A threat sits outside the terrain grid.
    OffGridThreat {
        /// Index of the threat in the scenario.
        index: usize,
        /// Threat coordinates.
        at: (usize, usize),
        /// Grid dimensions.
        grid: (usize, usize),
    },
    /// A threat's radius is absurdly large for the grid (every ring beyond
    /// the grid diagonal is empty, so the recurrence would spin on nothing).
    HugeRadius {
        /// Index of the threat in the scenario.
        index: usize,
        /// Radius found.
        radius: usize,
    },
    /// A threat's mast height is NaN or infinite.
    NonFiniteMast {
        /// Index of the threat in the scenario.
        index: usize,
        /// Mast height found.
        value: f64,
    },
}

impl std::fmt::Display for TerrainScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TerrainScenarioError::EmptyTerrain => write!(f, "terrain grid has zero cells"),
            TerrainScenarioError::BadCellSize(v) => {
                write!(f, "cell size must be finite and positive, got {v}")
            }
            TerrainScenarioError::NonFiniteElevation { cell, value } => {
                write!(f, "elevation at {cell:?} is not finite: {value}")
            }
            TerrainScenarioError::OffGridThreat { index, at, grid } => {
                write!(f, "threat {index} at {at:?} is outside the {grid:?} grid")
            }
            TerrainScenarioError::HugeRadius { index, radius } => {
                write!(f, "threat {index} has absurd radius {radius}")
            }
            TerrainScenarioError::NonFiniteMast { index, value } => {
                write!(f, "threat {index} mast height is not finite: {value}")
            }
        }
    }
}

impl std::error::Error for TerrainScenarioError {}

impl TerrainScenario {
    /// Check the scenario invariants every program variant assumes: a
    /// non-empty grid of finite elevations, a finite positive cell size,
    /// and threats that sit on the grid with sane radii and finite masts.
    ///
    /// The generators in this module always produce valid scenarios; this
    /// is the guard for *loaded* inputs (corpus replay, fuzzing, JSON
    /// files), so a malformed scenario fails with an error instead of
    /// panicking deep inside a recurrence.
    pub fn validate(&self) -> Result<(), TerrainScenarioError> {
        if self.terrain.is_empty() {
            return Err(TerrainScenarioError::EmptyTerrain);
        }
        if !(self.cell_size_m.is_finite() && self.cell_size_m > 0.0) {
            return Err(TerrainScenarioError::BadCellSize(self.cell_size_m));
        }
        for (x, y, &v) in self.terrain.iter_cells() {
            if !v.is_finite() {
                return Err(TerrainScenarioError::NonFiniteElevation {
                    cell: (x, y),
                    value: v,
                });
            }
        }
        let (xs, ys) = (self.terrain.x_size(), self.terrain.y_size());
        for (i, t) in self.threats.iter().enumerate() {
            if t.x >= xs || t.y >= ys {
                return Err(TerrainScenarioError::OffGridThreat {
                    index: i,
                    at: (t.x, t.y),
                    grid: (xs, ys),
                });
            }
            if t.radius > xs + ys {
                return Err(TerrainScenarioError::HugeRadius {
                    index: i,
                    radius: t.radius,
                });
            }
            if !t.mast_height.is_finite() {
                return Err(TerrainScenarioError::NonFiniteMast {
                    index: i,
                    value: t.mast_height,
                });
            }
        }
        Ok(())
    }
}

/// Generation parameters for a synthetic scenario.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TerrainScenarioParams {
    /// Terrain is `grid_size × grid_size` cells.
    pub grid_size: usize,
    /// Number of ground-based threats (the benchmark uses 60).
    pub n_threats: usize,
    /// RNG seed.
    pub seed: u64,
    /// Peak-to-valley elevation range of the generated terrain (m).
    pub relief_m: f64,
    /// Cell edge length (m).
    pub cell_size_m: f64,
    /// Maximum fraction of the terrain one threat's region may cover
    /// (paper: "up to 5% of the total terrain").
    pub max_region_fraction: f64,
}

impl Default for TerrainScenarioParams {
    fn default() -> Self {
        Self {
            grid_size: 1024,
            n_threats: 60,
            seed: 0,
            relief_m: 1500.0,
            cell_size_m: 100.0,
            max_region_fraction: 0.05,
        }
    }
}

/// Diamond-square midpoint-displacement terrain on a `(2^n + 1)`-sized
/// square, returned at exactly that size. `roughness` in `(0, 1)` controls
/// how fast displacement amplitude decays per level (higher = rougher).
pub fn diamond_square(levels: u32, roughness: f64, rng: &mut impl Rng) -> Grid<f64> {
    let size = (1usize << levels) + 1;
    let mut g = Grid::new(size, size, 0.0f64);
    // Seed corners.
    for &(x, y) in &[(0, 0), (size - 1, 0), (0, size - 1), (size - 1, size - 1)] {
        g[(x, y)] = rng.random_range(-1.0..1.0);
    }
    let mut step = size - 1;
    let mut amp = 1.0f64;
    while step > 1 {
        let half = step / 2;
        // Diamond step: centers of squares.
        for y in (half..size).step_by(step) {
            for x in (half..size).step_by(step) {
                let avg = (g[(x - half, y - half)]
                    + g[(x + half, y - half)]
                    + g[(x - half, y + half)]
                    + g[(x + half, y + half)])
                    / 4.0;
                g[(x, y)] = avg + rng.random_range(-amp..amp);
            }
        }
        // Square step: edge midpoints, averaging the diamond neighbors that
        // exist (edges of the map have only three).
        for y in (0..size).step_by(half) {
            let x_start = if (y / half).is_multiple_of(2) {
                half
            } else {
                0
            };
            for x in (x_start..size).step_by(step) {
                let mut sum = 0.0;
                let mut n = 0.0;
                let xi = x as isize;
                let yi = y as isize;
                for (dx, dy) in [
                    (0isize, -(half as isize)),
                    (0, half as isize),
                    (-(half as isize), 0),
                    (half as isize, 0),
                ] {
                    if g.contains(xi + dx, yi + dy) {
                        sum += g[((xi + dx) as usize, (yi + dy) as usize)];
                        n += 1.0;
                    }
                }
                g[(x, y)] = sum / n + rng.random_range(-amp..amp);
            }
        }
        step = half;
        amp *= roughness;
    }
    g
}

/// Keystream words [`diamond_square`] consumes, whatever elevations come
/// out: one `Range<f64>` sample (one `next_u64`, two words, no rejection
/// — `vendor/rand`) per cell of the `(2^levels + 1)²` square.
fn elevation_words(levels: u32) -> u64 {
    let size = (1u64 << levels) + 1;
    2 * size * size
}

/// What [`generate`] and [`generate_threats`] must agree on: the
/// scenario's random stream and the fractal's level count.
fn stream(params: &TerrainScenarioParams) -> (ChaCha8Rng, u32) {
    // Build fractal terrain at the next power-of-two-plus-one size and crop.
    // Integer arithmetic: `2^levels + 1 >= grid_size` must hold *exactly*,
    // or `generate`'s crop would index past the fractal grid. The previous
    // float form (`log2().ceil()`) could round an exact or near power of
    // two down a level for large sizes.
    let levels = params.grid_size.max(2).next_power_of_two().ilog2();
    let rng = ChaCha8Rng::seed_from_u64(params.seed ^ 0x7e44_a1ee_0000_0000);
    (rng, levels)
}

/// Generate a scenario from `params`, deterministically in the seed.
pub fn generate(params: TerrainScenarioParams) -> TerrainScenario {
    let (mut rng, levels) = stream(&params);
    let raw = diamond_square(levels, 0.55, &mut rng);
    // Normalize to [0, relief_m].
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in raw.as_slice() {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = (hi - lo).max(1e-12);
    let terrain = Grid::from_fn(params.grid_size, params.grid_size, |x, y| {
        (raw[(x, y)] - lo) / span * params.relief_m
    });
    TerrainScenario {
        terrain,
        threats: draw_threats(&params, &mut rng),
        cell_size_m: params.cell_size_m,
    }
}

/// The dimensions and threats of [`generate`]`(params)` without the
/// terrain: the threats are drawn after the elevations from one stream,
/// so seek past the elevation draws instead of making them.
pub fn generate_threats(params: TerrainScenarioParams) -> (usize, usize, Vec<GroundThreat>) {
    let (mut rng, levels) = stream(&params);
    rng.set_word_pos(elevation_words(levels) as u128);
    let threats = draw_threats(&params, &mut rng);
    (params.grid_size, params.grid_size, threats)
}

/// The threat loop: `rng` stands just past the elevation draws.
fn draw_threats(params: &TerrainScenarioParams, rng: &mut ChaCha8Rng) -> Vec<GroundThreat> {
    // Threat radii: up to the 5% cap. A Chebyshev-radius-R region covers
    // (2R+1)^2 cells, so the cap radius is the largest R with
    // (2R+1)^2 <= max_region_fraction * area. The radius is additionally
    // clamped to the grid: a radius beyond `grid_size - 1` is pure
    // clipping. On small grids the cap can force the radius all the way
    // to 0 (a single-cell region) — an unconditional floor here used to
    // let radius-2 regions exceed the cap or even swallow a tiny grid.
    let area = (params.grid_size * params.grid_size) as f64;
    let max_cells = params.max_region_fraction * area;
    let r_cap = if max_cells >= 1.0 {
        ((max_cells.sqrt() - 1.0) / 2.0).floor() as usize
    } else {
        0
    };
    let r_max = r_cap.min(params.grid_size.saturating_sub(1));
    let r_min = (r_max / 3).max(2).min(r_max);

    (0..params.n_threats)
        .map(|_| GroundThreat {
            x: rng.random_range(0..params.grid_size),
            y: rng.random_range(0..params.grid_size),
            radius: rng.random_range(r_min..=r_max),
            mast_height: rng.random_range(5.0..30.0),
        })
        .collect()
}

/// Parameters of the five benchmark input scenarios (seeds 1–5, benchmark
/// scale), for callers that generate them one at a time.
pub fn benchmark_params() -> impl Iterator<Item = TerrainScenarioParams> {
    (1..=5).map(|seed| TerrainScenarioParams {
        seed,
        ..TerrainScenarioParams::default()
    })
}

/// The five benchmark input scenarios ([`benchmark_params`], generated).
pub fn benchmark_suite() -> Vec<TerrainScenario> {
    benchmark_params().map(generate).collect()
}

/// A reduced scenario for tests and quick examples: 128×128 cells, 12
/// threats.
pub fn small_scenario(seed: u64) -> TerrainScenario {
    generate(TerrainScenarioParams {
        grid_size: 128,
        n_threats: 12,
        seed,
        ..TerrainScenarioParams::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diamond_square_size_is_power_of_two_plus_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = diamond_square(4, 0.5, &mut rng);
        assert_eq!(g.x_size(), 17);
        assert_eq!(g.y_size(), 17);
    }

    #[test]
    fn diamond_square_is_deterministic_in_seed() {
        let a = diamond_square(5, 0.5, &mut ChaCha8Rng::seed_from_u64(9));
        let b = diamond_square(5, 0.5, &mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(a, b);
        let c = diamond_square(5, 0.5, &mut ChaCha8Rng::seed_from_u64(10));
        assert_ne!(a, c);
    }

    /// Counts the keystream words drawn through it.
    struct CountingRng(ChaCha8Rng, u64);
    impl rand::RngCore for CountingRng {
        fn next_u32(&mut self) -> u32 {
            self.1 += 1;
            self.0.next_u32()
        }
    }

    #[test]
    fn diamond_square_draws_exactly_elevation_words() {
        // The data-independence claim `generate_threats` rests on: the
        // draw count is a function of `levels` alone.
        for levels in 0..=7 {
            for (seed, roughness) in [(1, 0.55), (2, 0.1), (3, 0.95)] {
                let mut rng = CountingRng(ChaCha8Rng::seed_from_u64(seed), 0);
                diamond_square(levels, roughness, &mut rng);
                assert_eq!(rng.1, elevation_words(levels), "levels {levels}");
                assert_eq!(rng.0.get_word_pos(), rng.1 as u128);
            }
        }
    }

    #[test]
    fn generate_threats_equals_generate_at_the_paper_parameter_sets() {
        for params in benchmark_params() {
            let s = generate(params);
            assert_eq!(
                generate_threats(params),
                (s.terrain.x_size(), s.terrain.y_size(), s.threats),
                "seed {}",
                params.seed
            );
        }
    }

    #[test]
    fn terrain_is_normalized_to_relief_range() {
        let s = small_scenario(1);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in s.terrain.as_slice() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        assert!(lo >= 0.0);
        assert!(hi <= 1500.0 + 1e-9);
        assert!(
            hi - lo > 100.0,
            "terrain should have meaningful relief, got {}",
            hi - lo
        );
    }

    #[test]
    fn regions_respect_the_five_percent_cap() {
        // The cap must hold for *every* grid size, not just the benchmark
        // default — tiny and non-power-of-two grids used to slip through
        // the old radius floor (a radius-2 region on a 4x4 grid covers
        // more cells than the whole grid).
        for grid_size in [
            1usize, 2, 3, 4, 5, 7, 8, 9, 16, 17, 23, 33, 64, 100, 128, 1024,
        ] {
            let s = generate(TerrainScenarioParams {
                grid_size,
                n_threats: 8,
                ..TerrainScenarioParams::default()
            });
            let area = (s.terrain.x_size() * s.terrain.y_size()) as f64;
            for t in &s.threats {
                let cells = ((2 * t.radius + 1) * (2 * t.radius + 1)) as f64;
                assert!(
                    cells <= 0.05 * area + 1.0,
                    "grid {grid_size}: region of radius {} covers {} cells > 5% of {}",
                    t.radius,
                    cells,
                    area
                );
                assert!(
                    t.radius < grid_size.max(1),
                    "grid {grid_size}: radius {} exceeds the grid",
                    t.radius
                );
            }
        }
    }

    #[test]
    fn generated_scenarios_validate_at_every_size() {
        for grid_size in [1usize, 2, 3, 5, 8, 17, 33, 100] {
            let s = generate(TerrainScenarioParams {
                grid_size,
                n_threats: 6,
                seed: 11,
                ..TerrainScenarioParams::default()
            });
            s.validate()
                .unwrap_or_else(|e| panic!("grid {grid_size}: {e}"));
        }
    }

    #[test]
    fn validate_rejects_malformed_scenarios() {
        let mut s = small_scenario(1);
        s.threats[0].x = 10_000;
        assert!(matches!(
            s.validate(),
            Err(TerrainScenarioError::OffGridThreat { index: 0, .. })
        ));

        let mut s = small_scenario(1);
        s.terrain[(3, 4)] = f64::NAN;
        assert!(matches!(
            s.validate(),
            Err(TerrainScenarioError::NonFiniteElevation { cell: (3, 4), .. })
        ));

        let mut s = small_scenario(1);
        s.cell_size_m = 0.0;
        assert!(matches!(
            s.validate(),
            Err(TerrainScenarioError::BadCellSize(_))
        ));

        let mut s = small_scenario(1);
        s.threats[2].radius = usize::MAX;
        assert!(matches!(
            s.validate(),
            Err(TerrainScenarioError::HugeRadius { index: 2, .. })
        ));

        let mut s = small_scenario(1);
        s.threats[1].mast_height = f64::INFINITY;
        assert!(matches!(
            s.validate(),
            Err(TerrainScenarioError::NonFiniteMast { index: 1, .. })
        ));

        assert_eq!(small_scenario(1).validate(), Ok(()));
    }

    #[test]
    fn power_of_two_and_tiny_grids_generate_at_exact_size() {
        // Regression for the float level computation: exact powers of two
        // must never round down to a fractal grid smaller than the crop.
        for grid_size in [1usize, 2, 3, 4, 8, 16, 64, 256, 512, 1023, 1024, 1025] {
            let s = generate(TerrainScenarioParams {
                grid_size,
                n_threats: 1,
                ..TerrainScenarioParams::default()
            });
            assert_eq!(s.terrain.x_size(), grid_size);
            assert_eq!(s.terrain.y_size(), grid_size);
        }
    }

    #[test]
    fn benchmark_suite_matches_paper_statistics() {
        let suite = benchmark_suite();
        assert_eq!(suite.len(), 5, "five input scenarios");
        for s in &suite {
            assert_eq!(s.threats.len(), 60, "60 threats per scenario");
        }
    }

    #[test]
    fn threats_are_on_the_grid() {
        let s = small_scenario(2);
        for t in &s.threats {
            assert!(t.x < s.terrain.x_size());
            assert!(t.y < s.terrain.y_size());
            assert!(t.radius >= 2);
            assert!(t.mast_height > 0.0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_scenario(3);
        let b = small_scenario(3);
        assert_eq!(a.terrain, b.terrain);
        assert_eq!(a.threats, b.threats);
    }
}
