//! Correctness test for Terrain Masking output.
//!
//! The checks are independent of which program variant produced the grid:
//!
//! 1. cells outside every region of influence are `+∞`;
//! 2. covered cells are finite and never below the terrain;
//! 3. the grid equals the pointwise minimum of independently recomputed
//!    per-threat masking fields (exactly — all variants are bit-identical
//!    by construction);
//! 4. monotonicity: the masking of a scenario never *increases* when a
//!    threat is added (a unit test here: it compares two scenarios, so
//!    [`verify_masking`] cannot make it).

use super::los::per_threat_masking;
use super::scenario::TerrainScenario;
use crate::grid::Grid;

/// Why a Terrain Masking output failed verification.
#[derive(Debug, Clone, PartialEq)]
pub enum TerrainVerifyError {
    /// Output grid dimensions do not match the terrain.
    WrongShape {
        /// Expected (terrain) dimensions.
        expected: (usize, usize),
        /// Dimensions of the grid under test.
        got: (usize, usize),
    },
    /// A cell outside every region of influence is not `+∞`.
    UncoveredCellNotInfinite {
        /// Cell coordinates.
        cell: (usize, usize),
        /// Value found.
        value: f64,
    },
    /// A covered cell is `±∞` or NaN.
    CoveredCellNotFinite {
        /// Cell coordinates.
        cell: (usize, usize),
        /// Value found.
        value: f64,
    },
    /// A cell's masking altitude lies below the terrain surface.
    BelowTerrain {
        /// Cell coordinates.
        cell: (usize, usize),
        /// Masking value found.
        value: f64,
        /// Terrain elevation there.
        terrain: f64,
    },
    /// A cell disagrees with the independently recomputed min-composition.
    Mismatch {
        /// Cell coordinates.
        cell: (usize, usize),
        /// Value under test.
        got: f64,
        /// Independently recomputed value.
        expected: f64,
    },
}

impl std::fmt::Display for TerrainVerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TerrainVerifyError::WrongShape { expected, got } => {
                write!(f, "wrong shape: expected {expected:?}, got {got:?}")
            }
            TerrainVerifyError::UncoveredCellNotInfinite { cell, value } => {
                write!(f, "uncovered cell {cell:?} should be +inf, got {value}")
            }
            TerrainVerifyError::CoveredCellNotFinite { cell, value } => {
                write!(f, "covered cell {cell:?} should be finite, got {value}")
            }
            TerrainVerifyError::BelowTerrain {
                cell,
                value,
                terrain,
            } => {
                write!(f, "cell {cell:?}: masking {value} below terrain {terrain}")
            }
            TerrainVerifyError::Mismatch {
                cell,
                got,
                expected,
            } => {
                write!(f, "cell {cell:?}: got {got}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for TerrainVerifyError {}

/// Verify a masking grid against its scenario (checks 1–3 above).
pub fn verify_masking(
    scenario: &TerrainScenario,
    masking: &Grid<f64>,
) -> Result<(), TerrainVerifyError> {
    let terrain = &scenario.terrain;
    if (masking.x_size(), masking.y_size()) != (terrain.x_size(), terrain.y_size()) {
        return Err(TerrainVerifyError::WrongShape {
            expected: (terrain.x_size(), terrain.y_size()),
            got: (masking.x_size(), masking.y_size()),
        });
    }

    // Independent recomposition: min over standalone per-threat fields.
    let mut expected = Grid::new(terrain.x_size(), terrain.y_size(), f64::INFINITY);
    let mut covered = Grid::new(terrain.x_size(), terrain.y_size(), false);
    for t in &scenario.threats {
        let (region, field) = per_threat_masking(terrain, scenario.cell_size_m, t);
        for (x, y) in region.cells() {
            use super::los::AltStore;
            let v = field.get(x, y);
            if v < expected[(x, y)] {
                expected[(x, y)] = v;
            }
            covered[(x, y)] = true;
        }
    }

    for (x, y, &v) in masking.iter_cells() {
        if v.is_nan() {
            return Err(TerrainVerifyError::CoveredCellNotFinite {
                cell: (x, y),
                value: v,
            });
        }
        if !covered[(x, y)] {
            if !(v.is_infinite() && v > 0.0) {
                return Err(TerrainVerifyError::UncoveredCellNotInfinite {
                    cell: (x, y),
                    value: v,
                });
            }
            continue;
        }
        if !v.is_finite() {
            return Err(TerrainVerifyError::CoveredCellNotFinite {
                cell: (x, y),
                value: v,
            });
        }
        if v < terrain[(x, y)] - 1e-9 {
            return Err(TerrainVerifyError::BelowTerrain {
                cell: (x, y),
                value: v,
                terrain: terrain[(x, y)],
            });
        }
        let e = expected[(x, y)];
        if v != e {
            return Err(TerrainVerifyError::Mismatch {
                cell: (x, y),
                got: v,
                expected: e,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terrain::coarse::terrain_masking_coarse_host;
    use crate::terrain::fine::terrain_masking_fine_host;
    use crate::terrain::los::Region;
    use crate::terrain::scenario::small_scenario;
    use crate::terrain::sequential::terrain_masking_host;

    #[test]
    fn all_three_variants_verify() {
        let s = small_scenario(1);
        verify_masking(&s, &terrain_masking_host(&s)).expect("sequential");
        verify_masking(&s, &terrain_masking_coarse_host(&s, 4, 10)).expect("coarse");
        verify_masking(&s, &terrain_masking_fine_host(&s, 4)).expect("fine");
    }

    #[test]
    fn detects_wrong_shape() {
        let s = small_scenario(2);
        let wrong = Grid::new(3, 3, 0.0);
        assert!(matches!(
            verify_masking(&s, &wrong),
            Err(TerrainVerifyError::WrongShape { .. })
        ));
    }

    #[test]
    fn detects_corrupted_cell() {
        let s = small_scenario(3);
        let mut m = terrain_masking_host(&s);
        // Corrupt a covered cell (the threat's own cell is always covered).
        let t = s.threats[0];
        m[(t.x, t.y)] += 100.0;
        let err = verify_masking(&s, &m).unwrap_err();
        assert!(
            matches!(err, TerrainVerifyError::Mismatch { .. }),
            "unexpected: {err:?}"
        );
    }

    #[test]
    fn detects_spurious_coverage() {
        let s = small_scenario(4);
        let mut m = terrain_masking_host(&s);
        // Find an uncovered cell and fake a finite value there.
        let regions: Vec<Region> = s
            .threats
            .iter()
            .map(|t| Region::of_checked(t, s.terrain.x_size(), s.terrain.y_size()))
            .collect();
        let (x, y) = m
            .iter_cells()
            .find(|&(x, y, _)| !regions.iter().any(|r| r.contains(x, y)))
            .map(|(x, y, _)| (x, y))
            .expect("small scenario must have uncovered terrain");
        m[(x, y)] = 1234.5;
        assert!(matches!(
            verify_masking(&s, &m),
            Err(TerrainVerifyError::UncoveredCellNotInfinite { .. })
        ));
    }

    #[test]
    fn detects_nan() {
        let s = small_scenario(5);
        let mut m = terrain_masking_host(&s);
        m[(0, 0)] = f64::NAN;
        assert!(matches!(
            verify_masking(&s, &m),
            Err(TerrainVerifyError::CoveredCellNotFinite { .. })
        ));
    }

    /// Adding a threat never increases masking anywhere. Returns the
    /// first offending cell if violated.
    fn check_monotonicity(
        base: &Grid<f64>,
        with_extra_threat: &Grid<f64>,
    ) -> Result<(), TerrainVerifyError> {
        for (x, y, &b) in base.iter_cells() {
            let w = with_extra_threat[(x, y)];
            if w > b {
                return Err(TerrainVerifyError::Mismatch {
                    cell: (x, y),
                    got: w,
                    expected: b,
                });
            }
        }
        Ok(())
    }

    #[test]
    fn adding_a_threat_is_monotone() {
        let mut s = small_scenario(6);
        let extra = s.threats.pop().unwrap();
        let base = terrain_masking_host(&s);
        s.threats.push(extra);
        let more = terrain_masking_host(&s);
        check_monotonicity(&base, &more).expect("adding a threat must only lower masking");
    }
}
