//! Exact line-of-sight masking by continuous ray marching — an
//! *independent* oracle for the ring recurrence of [`super::los`].
//!
//! The benchmark algorithm (XDraw-style parent interpolation) is an
//! approximation: each cell inherits the blocking slope of one or two
//! parents on the previous ring. This module computes the reference
//! answer by sampling the terrain (bilinearly interpolated) at fine steps
//! along the actual radar→cell segment and taking the true maximum
//! blocking slope.
//!
//! Test-only: nothing outside this module's tests calls it. They hold
//! the production recurrence ([`super::los::per_threat_masking`]) against
//! it:
//!
//! 1. on axis-aligned and exact-diagonal rays the recurrence's parent
//!    chain follows the ray exactly, so recurrence == oracle;
//! 2. on arbitrary rays the recurrence is a bounded approximation of the
//!    oracle (interpolation smooths ridges) — close on smooth terrain.

use super::los::{max_sel, sensor_height, AltStore, Region, ScratchAlt};
use super::scenario::GroundThreat;
use crate::grid::Grid;

/// Bilinearly interpolated terrain elevation at fractional grid
/// coordinates (clamped to the grid).
fn elevation_at(terrain: &Grid<f64>, fx: f64, fy: f64) -> f64 {
    let max_x = (terrain.x_size() - 1) as f64;
    let max_y = (terrain.y_size() - 1) as f64;
    let fx = fx.clamp(0.0, max_x);
    let fy = fy.clamp(0.0, max_y);
    let x0 = fx.floor() as usize;
    let y0 = fy.floor() as usize;
    let x1 = (x0 + 1).min(terrain.x_size() - 1);
    let y1 = (y0 + 1).min(terrain.y_size() - 1);
    let tx = fx - x0 as f64;
    let ty = fy - y0 as f64;
    let top = terrain[(x0, y0)] * (1.0 - tx) + terrain[(x1, y0)] * tx;
    let bot = terrain[(x0, y1)] * (1.0 - tx) + terrain[(x1, y1)] * tx;
    top * (1.0 - ty) + bot * ty
}

/// The exact maximum blocking slope along the open segment from the radar
/// at `(cx, cy)` (sensor height `h_s`) toward cell `(x, y)`, sampling
/// every `step` cells. Terrain strictly between radar and cell counts;
/// the endpoints do not.
#[allow(clippy::too_many_arguments)] // same geometry signature as the recurrence it validates
fn exact_blocking_slope(
    terrain: &Grid<f64>,
    cell_size: f64,
    h_s: f64,
    cx: usize,
    cy: usize,
    x: usize,
    y: usize,
    step: f64,
) -> f64 {
    let dx = x as f64 - cx as f64;
    let dy = y as f64 - cy as f64;
    let dist = (dx * dx + dy * dy).sqrt();
    if dist < 1.0 {
        return f64::NEG_INFINITY;
    }
    let mut best = f64::NEG_INFINITY;
    // March from just past the radar to just before the cell.
    let mut t = step;
    while t <= dist - 1.0 {
        let fx = cx as f64 + dx * t / dist;
        let fy = cy as f64 + dy * t / dist;
        let elev = elevation_at(terrain, fx, fy);
        let slope = (elev - h_s) / (t * cell_size);
        if slope > best {
            best = slope;
        }
        t += step;
    }
    best
}

/// The exact per-threat masking field over the threat's region (clamped
/// like the benchmark's), computed entirely by ray marching.
fn exact_per_threat_masking(
    terrain: &Grid<f64>,
    cell_size: f64,
    threat: &GroundThreat,
    step: f64,
) -> (Region, ScratchAlt) {
    let region = Region::of_checked(threat, terrain.x_size(), terrain.y_size());
    let h_s = sensor_height(terrain, threat);
    let mut out = ScratchAlt::new(&region, f64::INFINITY);
    for (x, y) in region.cells() {
        let b = exact_blocking_slope(terrain, cell_size, h_s, region.cx, region.cy, x, y, step);
        let d = {
            let dx = x as f64 - region.cx as f64;
            let dy = y as f64 - region.cy as f64;
            (dx * dx + dy * dy).sqrt() * cell_size
        };
        let raw = if b == f64::NEG_INFINITY {
            f64::NEG_INFINITY
        } else {
            h_s + b * d
        };
        out.set(x, y, max_sel(raw, terrain[(x, y)]));
    }
    (region, out)
}

/// Aggregate comparison between the benchmark recurrence and the exact
/// oracle over one threat's region: (mean absolute error, max absolute
/// error, both in meters over cells where either field is finite).
fn compare_with_recurrence(
    terrain: &Grid<f64>,
    cell_size: f64,
    threat: &GroundThreat,
    step: f64,
) -> (f64, f64) {
    let (region, approx) = super::los::per_threat_masking(terrain, cell_size, threat);
    let (_, exact) = exact_per_threat_masking(terrain, cell_size, threat, step);
    let mut sum = 0.0;
    let mut max = 0.0f64;
    let mut n = 0u64;
    for (x, y) in region.cells() {
        let a = approx.get(x, y);
        let e = exact.get(x, y);
        if a.is_finite() || e.is_finite() {
            let d = (a - e).abs();
            sum += d;
            max = max.max(d);
            n += 1;
        }
    }
    (sum / n.max(1) as f64, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(size: usize, elev: f64) -> Grid<f64> {
        Grid::new(size, size, elev)
    }

    #[test]
    fn bilinear_interpolation_is_exact_at_nodes_and_linear_between() {
        let g = Grid::from_fn(4, 4, |x, y| (10 * x + y) as f64);
        assert_eq!(elevation_at(&g, 2.0, 3.0), 23.0);
        assert_eq!(elevation_at(&g, 1.5, 0.0), 15.0);
        assert_eq!(elevation_at(&g, 0.0, 1.5), 1.5);
        assert_eq!(elevation_at(&g, 1.5, 1.5), 16.5);
        // Clamped outside.
        assert_eq!(elevation_at(&g, -5.0, 0.0), 0.0);
        assert_eq!(elevation_at(&g, 10.0, 10.0), 33.0);
    }

    #[test]
    fn flat_terrain_has_negative_blocking_everywhere() {
        let terrain = flat(33, 100.0);
        let b = exact_blocking_slope(&terrain, 100.0, 120.0, 16, 16, 28, 20, 0.25);
        assert!(b < 0.0, "mast above flat ground sees everything: {b}");
    }

    #[test]
    fn axis_ray_matches_the_recurrence_exactly() {
        // Wall at x = cx + 4 (all y): on the +x axis the recurrence's
        // parent chain is the ray itself, so both must agree to fp noise.
        let size = 41;
        let mut terrain = flat(size, 0.0);
        let c = size / 2;
        for y in 0..size {
            terrain[(c + 4, y)] = 300.0;
        }
        let t = GroundThreat {
            x: c,
            y: c,
            radius: 15,
            mast_height: 10.0,
        };
        let (_, approx) = super::super::los::per_threat_masking(&terrain, 100.0, &t);
        let (_, exact) = exact_per_threat_masking(&terrain, 100.0, &t, 0.25);
        for dist in 6..=15 {
            let a = approx.get(c + dist, c);
            let e = exact.get(c + dist, c);
            assert!(
                (a - e).abs() < 1e-6,
                "axis cell at +{dist}: approx {a} vs exact {e}"
            );
        }
    }

    #[test]
    fn diagonal_ray_matches_the_recurrence_exactly() {
        let size = 41;
        let mut terrain = flat(size, 0.0);
        let c = size / 2;
        terrain[(c + 3, c + 3)] = 400.0;
        let t = GroundThreat {
            x: c,
            y: c,
            radius: 14,
            mast_height: 10.0,
        };
        let (_, approx) = super::super::los::per_threat_masking(&terrain, 100.0, &t);
        let (_, exact) = exact_per_threat_masking(&terrain, 100.0, &t, 0.25);
        for d in 5..=14 {
            let a = approx.get(c + d, c + d);
            let e = exact.get(c + d, c + d);
            // The bilinear oracle sees the single-cell peak slightly
            // differently than the discrete chain; tolerance in meters.
            assert!((a - e).abs() < 30.0, "diag cell +{d}: {a} vs {e}");
        }
    }

    #[test]
    fn recurrence_tracks_the_oracle_on_smooth_terrain() {
        // On fractal terrain with ~1500 m relief, the XDraw approximation
        // should track the exact field closely in the mean.
        let scenario =
            super::super::scenario::generate(super::super::scenario::TerrainScenarioParams {
                grid_size: 128,
                n_threats: 1,
                seed: 17,
                ..Default::default()
            });
        let t = GroundThreat {
            x: 64,
            y: 64,
            radius: 30,
            mast_height: 15.0,
        };
        let (mean, max) = compare_with_recurrence(&scenario.terrain, scenario.cell_size_m, &t, 0.5);
        assert!(
            mean < 30.0,
            "mean masking error too large: {mean} m (max {max})"
        );
    }

    #[test]
    fn oracle_is_monotone_in_sampling_resolution() {
        // Finer sampling can only find more blocking (higher slopes).
        let scenario =
            super::super::scenario::generate(super::super::scenario::TerrainScenarioParams {
                grid_size: 96,
                n_threats: 1,
                seed: 4,
                ..Default::default()
            });
        let h_s = sensor_height(
            &scenario.terrain,
            &GroundThreat {
                x: 48,
                y: 48,
                radius: 20,
                mast_height: 10.0,
            },
        );
        for &(x, y) in &[(60usize, 52usize), (33, 41), (48, 66)] {
            let coarse = exact_blocking_slope(&scenario.terrain, 100.0, h_s, 48, 48, x, y, 1.0);
            let fine = exact_blocking_slope(&scenario.terrain, 100.0, h_s, 48, 48, x, y, 0.1);
            assert!(
                fine >= coarse - 1e-12,
                "({x},{y}): fine {fine} < coarse {coarse}"
            );
        }
    }
}
