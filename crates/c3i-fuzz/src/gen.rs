//! Seeded, distribution-driven scenario generation.
//!
//! Each case index under a campaign seed maps to one deterministic
//! scenario, so a failing case reproduces from `(seed, index)` alone. The
//! distributions are deliberately adversarial: the generator leans on
//! exactly the shapes the five fixed benchmark scenarios never exercise —
//! degenerate terrains, pathological grid sizes, threat clusters with
//! maximal region-of-influence overlap, and engagement timelines squeezed
//! into near-coincident launches.

use c3i::terrain::{GroundThreat, TerrainScenario, TerrainScenarioParams};
use c3i::threat::{ThreatScenario, ThreatScenarioParams};
use c3i::Grid;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One differential-fuzzing input: a scenario for either benchmark.
/// Serialized externally tagged (`{"Terrain": {..}}` / `{"Threat": {..}}`),
/// the representation `tests/corpus/` entries are stored in.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum FuzzCase {
    /// A Terrain Masking scenario (oracle: Program 3; variants: coarse
    /// Program 4 and the fine-grained ring recurrence).
    Terrain(TerrainScenario),
    /// A Threat Analysis scenario (oracle: Program 1; variants: chunked
    /// Program 2 and the fine-grained fetch-add program).
    Threat(ThreatScenario),
}

/// Knobs bounding how large generated scenarios get. The default is
/// full-size generation (`reduced: false`).
#[derive(Debug, Clone, Copy, Default)]
pub struct GenConfig {
    /// Cap scenario sizes for smoke runs (`repro --reduced --fuzz N`):
    /// grids stay ≤ 33 cells per side and threat counts stay single-digit.
    pub reduced: bool,
}

/// Generate case `index` of the campaign with `seed`, deterministically.
pub fn generate_case(seed: u64, index: usize, cfg: &GenConfig) -> FuzzCase {
    let mut rng = ChaCha8Rng::seed_from_u64(
        seed ^ (index as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x5bf0_3635),
    );
    if rng.random_range(0..2) == 0 {
        FuzzCase::Terrain(gen_terrain(&mut rng, cfg))
    } else {
        FuzzCase::Threat(gen_threat(&mut rng, cfg))
    }
}

/// Pathological grid sizes: tiny, non-power-of-two, power-of-two, and
/// off-by-one around powers of two.
const GRID_SIZES_REDUCED: &[usize] = &[1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 31, 32, 33];
const GRID_SIZES_FULL: &[usize] = &[1, 2, 3, 5, 7, 9, 15, 16, 17, 31, 33, 48, 63, 64, 65, 96];

fn pick<T: Copy>(rng: &mut ChaCha8Rng, xs: &[T]) -> T {
    xs[rng.random_range(0..xs.len())]
}

fn gen_terrain(rng: &mut ChaCha8Rng, cfg: &GenConfig) -> TerrainScenario {
    let sizes = if cfg.reduced {
        GRID_SIZES_REDUCED
    } else {
        GRID_SIZES_FULL
    };
    let n = pick(rng, sizes);

    // Degenerate terrain styles alongside the realistic fractal.
    let style = rng.random_range(0..5);
    let terrain: Grid<f64> = match style {
        // All-flat: every line-of-sight comparison ties.
        0 => Grid::new(n, n, rng.random_range(0.0..500.0)),
        // Cliff wall: a step function splits the grid — the recurrence
        // must handle an abrupt full-relief jump between adjacent cells.
        1 => {
            let wall = rng.random_range(0..n.max(1));
            let (lo, hi) = (
                rng.random_range(0.0..100.0),
                rng.random_range(900.0..1500.0),
            );
            Grid::from_fn(n, n, |x, _| if x < wall { lo } else { hi })
        }
        // Single spike on otherwise flat ground.
        2 => {
            let (sx, sy) = (rng.random_range(0..n.max(1)), rng.random_range(0..n.max(1)));
            let base = rng.random_range(0.0..50.0);
            let peak = rng.random_range(500.0..2000.0);
            Grid::from_fn(n, n, |x, y| if (x, y) == (sx, sy) { peak } else { base })
        }
        // Uncorrelated noise: no spatial structure at all.
        3 => {
            let mut g = Grid::new(n, n, 0.0);
            for y in 0..n {
                for x in 0..n {
                    g[(x, y)] = rng.random_range(0.0..1500.0);
                }
            }
            g
        }
        // Fractal terrain from the production generator.
        _ => {
            c3i::terrain::generate(TerrainScenarioParams {
                grid_size: n,
                n_threats: 0,
                seed: rng.random_range(0u64..=u64::MAX),
                ..TerrainScenarioParams::default()
            })
            .terrain
        }
    };

    // Threat placement: clusters force maximal region overlap (every
    // merge order matters), corners force heavy ring clipping.
    let n_threats = if cfg.reduced {
        rng.random_range(0..=6)
    } else {
        rng.random_range(0..=12)
    };
    let placement = rng.random_range(0..3);
    let focus = (rng.random_range(0..n.max(1)), rng.random_range(0..n.max(1)));
    let threats = (0..n_threats)
        .map(|_| {
            let (x, y) = match placement {
                // Adversarial cluster: everything within a couple of cells
                // of one focus point.
                0 => (
                    focus
                        .0
                        .saturating_add(rng.random_range(0usize..=2))
                        .min(n.saturating_sub(1)),
                    focus
                        .1
                        .saturating_sub(rng.random_range(0usize..=2).min(focus.1)),
                ),
                // Corners and edges: regions clip on one or two sides.
                1 => {
                    let c = n.saturating_sub(1);
                    pick(
                        rng,
                        &[(0, 0), (c, 0), (0, c), (c, c), (c / 2, 0), (0, c / 2)],
                    )
                }
                // Uniform.
                _ => (rng.random_range(0..n.max(1)), rng.random_range(0..n.max(1))),
            };
            // Radii up to well past the grid side: `2n` still validates
            // (the cap is `xs + ys`) and clips every ring, the worst case
            // for the ring recurrence.
            let radius = match rng.random_range(0..4) {
                0 => rng.random_range(0..=2.min(n.saturating_sub(1))),
                1 => n.saturating_sub(1),
                2 => 2 * n.saturating_sub(1),
                _ => rng.random_range(0..n.max(1)),
            };
            GroundThreat {
                x,
                y,
                radius,
                mast_height: rng.random_range(0.0..60.0),
            }
        })
        .collect();

    TerrainScenario {
        terrain,
        threats,
        cell_size_m: pick(rng, &[1.0, 30.0, 100.0, 1000.0]),
    }
}

fn gen_threat(rng: &mut ChaCha8Rng, cfg: &GenConfig) -> ThreatScenario {
    let (max_threats, max_weapons) = if cfg.reduced { (10, 4) } else { (24, 6) };
    let mut s = c3i::threat::generate(ThreatScenarioParams {
        n_threats: rng.random_range(0..=max_threats),
        n_weapons: rng.random_range(1..=max_weapons),
        seed: rng.random_range(0u64..=u64::MAX),
        theater_m: pick(rng, &[50_000.0, 300_000.0, 500_000.0]),
        launch_window_s: pick(rng, &[0.001, 1.0, 600.0, 1800.0]),
    });

    // Adversarial mutations on top of the realistic base distribution.
    match rng.random_range(0..5) {
        // Coincident engagement timelines: every threat launches at the
        // same instant, so every (threat, weapon) scan covers the same
        // time steps.
        0 => {
            let t0 = rng.random_range(0.0..100.0);
            for t in &mut s.threats {
                t.launch_time = t0;
            }
        }
        // Impact cluster: all threats aimed at one defended point — the
        // maximal-interval-overlap case.
        1 => {
            if let Some(&first) = s.threats.first().map(|t| &t.impact) {
                for t in &mut s.threats {
                    t.impact = first;
                }
            }
        }
        // Weapon extremes: one weapon that can never intercept (tiny
        // range) and one that intercepts almost everything.
        2 => {
            if let Some(w) = s.weapons.first_mut() {
                w.max_range = 1.0;
            }
            if let Some(w) = s.weapons.last_mut() {
                w.max_range = 1_000_000.0;
                w.reaction_time = 0.0;
                w.min_alt = 0.0;
                w.max_alt = 500_000.0;
            }
        }
        // Boundary flight times: the shortest scans round to zero or one
        // time step.
        3 => {
            for (i, t) in s.threats.iter_mut().enumerate() {
                if i % 2 == 0 {
                    t.flight_time = rng.random_range(0.5..3.0);
                    t.detect_delay = t.flight_time * 0.1;
                }
            }
        }
        // Band edges on the threats' own altitudes: each weapon's `min_alt`
        // or `max_alt` is one threat's `z` at a random step of its scan
        // (exactly, or nudged by less than a step), or its `max_alt` is
        // that threat's apex. The altitude window's margin check decides
        // the steps next to a crossing; the apex makes it fall back.
        _ => {
            if s.threats.is_empty() {
                return s;
            }
            for w in &mut s.weapons {
                let th = s.threats[rng.random_range(0..s.threats.len())];
                let (first, last) = (th.first_step(), th.last_step());
                let nudge = match rng.random_range(0..3) {
                    0 => 0.0,
                    1 => rng.random_range(-0.5..0.5),
                    _ => rng.random_range(-1e-6..1e-6),
                };
                let t = rng.random_range(first..=last.max(first)) as f64 + nudge;
                let t = t.clamp(th.launch_time, th.impact_time());
                let z = th.position(t).map_or(0.0, |p| p.2);
                match rng.random_range(0..3) {
                    0 => w.min_alt = z,
                    1 => w.max_alt = z,
                    _ => w.max_alt = th.apex_height,
                }
                if w.min_alt > w.max_alt {
                    (w.min_alt, w.max_alt) = (w.max_alt, w.min_alt);
                }
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_seed_and_index() {
        let cfg = GenConfig::default();
        for i in 0..8 {
            let a = generate_case(42, i, &cfg);
            let b = generate_case(42, i, &cfg);
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
                "case {i}"
            );
        }
        let a = generate_case(42, 0, &cfg);
        let c = generate_case(43, 0, &cfg);
        assert_ne!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&c).unwrap(),
            "different seeds must differ"
        );
    }

    #[test]
    fn generated_cases_validate() {
        // The generator must produce scenarios the kernels accept; the
        // Rejected path exists for hand-edited corpus files, not for the
        // generator's own output.
        for reduced in [true, false] {
            let cfg = GenConfig { reduced };
            for i in 0..40 {
                match generate_case(7, i, &cfg) {
                    FuzzCase::Terrain(s) => {
                        s.validate().unwrap_or_else(|e| panic!("case {i}: {e}"))
                    }
                    FuzzCase::Threat(s) => s.validate().unwrap_or_else(|e| panic!("case {i}: {e}")),
                }
            }
        }
    }

    #[test]
    fn both_kinds_and_degenerate_shapes_appear() {
        let cfg = GenConfig { reduced: true };
        let mut kinds = std::collections::HashSet::new();
        let mut tiny_grid = false;
        let mut clipped_radius = false;
        for i in 0..60 {
            match generate_case(3, i, &cfg) {
                FuzzCase::Terrain(s) => {
                    kinds.insert("terrain");
                    tiny_grid |= s.terrain.x_size() <= 3;
                    clipped_radius |= s
                        .threats
                        .iter()
                        .any(|t| t.radius >= s.terrain.x_size().max(1));
                }
                FuzzCase::Threat(_) => {
                    kinds.insert("threat");
                }
            }
        }
        assert_eq!(kinds.len(), 2, "both benchmark kinds must be generated");
        assert!(tiny_grid, "tiny grids must appear");
        assert!(clipped_radius, "grid-exceeding radii must appear");
    }

    #[test]
    fn the_ci_smoke_campaign_places_band_edges_on_the_trajectories() {
        // ci.sh runs `repro --reduced --fuzz 25 --fuzz-seed 1`: among those
        // cases a weapon's band edge sits on a threat's apex (the altitude
        // window falls back) and another on a threat's altitude at a step,
        // give or take a microsecond's climb (the margin check decides the
        // crossing).
        let cfg = GenConfig { reduced: true };
        let (mut at_apex, mut at_step) = (false, false);
        for i in 0..25 {
            let FuzzCase::Threat(s) = generate_case(1, i, &cfg) else {
                continue;
            };
            for w in &s.weapons {
                for th in &s.threats {
                    at_apex |= w.max_alt == th.apex_height;
                    let climb = 1e-6 * 4.0 * th.apex_height / th.flight_time;
                    at_step |= (th.first_step()..=th.last_step()).any(|step| {
                        let z = th.position(f64::from(step)).map_or(f64::NAN, |p| p.2);
                        [w.min_alt, w.max_alt]
                            .iter()
                            .any(|a| (a - z).abs() <= climb)
                    });
                }
            }
        }
        assert!(at_apex && at_step, "apex {at_apex}, step {at_step}");
    }
}
