//! Row-major 2-D grid used for terrain elevations, masking results, and
//! per-thread scratch arrays.
//!
//! The Terrain Masking benchmark is memory-bound: its time goes into
//! streaming reads and writes over large 2-D arrays. `Grid` is a flat
//! `Vec`-backed array with `(x, y)` indexing so those access patterns are
//! explicit and cheap, and so the simulators can reason about addresses
//! (`Grid::flat_index` is the word address used by trace generation).

use std::ops::{Index, IndexMut};

/// A dense `x_size × y_size` grid stored row-major (`y` major, `x` minor).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Grid<T> {
    x_size: usize,
    y_size: usize,
    data: Vec<T>,
}

impl<T: Clone> Grid<T> {
    /// A grid filled with `fill`.
    pub fn new(x_size: usize, y_size: usize, fill: T) -> Self {
        Self {
            x_size,
            y_size,
            data: vec![fill; x_size * y_size],
        }
    }

    /// Re-shape the grid to `x_size × y_size` and fill every cell with
    /// `fill`, reusing the existing backing storage. Allocates only when
    /// the new shape exceeds the retained capacity — the reuse hook the
    /// per-thread kernel arenas lean on to keep the masking pipeline free
    /// of hot-path allocations.
    pub fn reset(&mut self, x_size: usize, y_size: usize, fill: T) {
        self.x_size = x_size;
        self.y_size = y_size;
        self.data.clear();
        self.data.resize(x_size * y_size, fill);
    }
}

impl<T> Grid<T> {
    /// Build a grid from a function of the coordinates.
    pub fn from_fn(x_size: usize, y_size: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(x_size * y_size);
        for y in 0..y_size {
            for x in 0..x_size {
                data.push(f(x, y));
            }
        }
        Self {
            x_size,
            y_size,
            data,
        }
    }

    /// Grid width (number of `x` positions).
    pub fn x_size(&self) -> usize {
        self.x_size
    }

    /// Grid height (number of `y` positions).
    pub fn y_size(&self) -> usize {
        self.y_size
    }

    /// Total number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Whether `(x, y)` is inside the grid.
    pub fn contains(&self, x: isize, y: isize) -> bool {
        x >= 0 && y >= 0 && (x as usize) < self.x_size && (y as usize) < self.y_size
    }

    /// The flat word index of `(x, y)` — the "address" used by the memory
    /// trace generators.
    #[inline]
    pub fn flat_index(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.x_size && y < self.y_size);
        y * self.x_size + x
    }

    /// Borrow the backing storage (row-major).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Borrow row `y` as a contiguous slice.
    #[inline]
    pub fn row(&self, y: usize) -> &[T] {
        debug_assert!(y < self.y_size);
        &self.data[y * self.x_size..(y + 1) * self.x_size]
    }

    /// Mutably borrow row `y` as a contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [T] {
        debug_assert!(y < self.y_size);
        &mut self.data[y * self.x_size..(y + 1) * self.x_size]
    }

    /// Iterate the rows in `y` order, each as a contiguous slice — the
    /// access pattern the row-sweep kernels are built around.
    pub fn rows(&self) -> impl Iterator<Item = &[T]> {
        // `max(1)` keeps the zero-width grid from panicking in
        // `chunks_exact` (it has no rows to yield either way).
        self.data.chunks_exact(self.x_size.max(1))
    }

    /// Iterate `(x, y, &value)` in row-major order.
    pub fn iter_cells(&self) -> impl Iterator<Item = (usize, usize, &T)> {
        self.rows()
            .enumerate()
            .flat_map(|(y, row)| row.iter().enumerate().map(move |(x, v)| (x, y, v)))
    }
}

impl<T> Index<(usize, usize)> for Grid<T> {
    type Output = T;
    #[inline]
    fn index(&self, (x, y): (usize, usize)) -> &T {
        &self.data[self.flat_index(x, y)]
    }
}

impl<T> IndexMut<(usize, usize)> for Grid<T> {
    #[inline]
    fn index_mut(&mut self, (x, y): (usize, usize)) -> &mut T {
        let i = self.flat_index(x, y);
        &mut self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_fills_all_cells() {
        let g = Grid::new(3, 2, 7u32);
        assert_eq!(g.len(), 6);
        assert!(g.as_slice().iter().all(|&v| v == 7));
        assert_eq!(g.x_size(), 3);
        assert_eq!(g.y_size(), 2);
    }

    #[test]
    fn from_fn_and_indexing_agree() {
        let g = Grid::from_fn(4, 3, |x, y| 10 * y + x);
        for y in 0..3 {
            for x in 0..4 {
                assert_eq!(g[(x, y)], 10 * y + x);
            }
        }
    }

    #[test]
    fn flat_index_is_row_major() {
        let g = Grid::new(5, 4, 0u8);
        assert_eq!(g.flat_index(0, 0), 0);
        assert_eq!(g.flat_index(4, 0), 4);
        assert_eq!(g.flat_index(0, 1), 5);
        assert_eq!(g.flat_index(4, 3), 19);
    }

    #[test]
    fn index_mut_writes_through() {
        let mut g = Grid::new(2, 2, 0i32);
        g[(1, 0)] = 5;
        g[(0, 1)] = -3;
        assert_eq!(g.as_slice(), &[0, 5, -3, 0]);
    }

    #[test]
    fn contains_checks_bounds() {
        let g = Grid::new(3, 3, ());
        assert!(g.contains(0, 0));
        assert!(g.contains(2, 2));
        assert!(!g.contains(-1, 0));
        assert!(!g.contains(0, 3));
        assert!(!g.contains(3, 0));
    }

    #[test]
    fn iter_cells_yields_coordinates_in_row_major_order() {
        let g = Grid::from_fn(2, 2, |x, y| (x, y));
        let cells: Vec<_> = g.iter_cells().map(|(x, y, _)| (x, y)).collect();
        assert_eq!(cells, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn empty_grid() {
        let g: Grid<u8> = Grid::new(0, 5, 0);
        assert!(g.is_empty());
        assert_eq!(g.iter_cells().count(), 0);
        assert_eq!(g.rows().count(), 0);
    }

    #[test]
    fn rows_cover_the_grid_in_order() {
        let g = Grid::from_fn(3, 2, |x, y| 10 * y + x);
        let rows: Vec<Vec<usize>> = g.rows().map(|r| r.to_vec()).collect();
        assert_eq!(rows, vec![vec![0, 1, 2], vec![10, 11, 12]]);
        assert_eq!(g.row(1), &[10, 11, 12]);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut g = Grid::new(3, 2, 0u8);
        g.row_mut(1).copy_from_slice(&[7, 8, 9]);
        assert_eq!(g.as_slice(), &[0, 0, 0, 7, 8, 9]);
    }

    #[test]
    fn reset_reshapes_without_growing_capacity() {
        let mut g = Grid::new(8, 8, 1.5f64);
        g[(3, 3)] = 9.0;
        g.reset(5, 4, 0.0);
        assert_eq!((g.x_size(), g.y_size(), g.len()), (5, 4, 20));
        assert!(g.as_slice().iter().all(|&v| v == 0.0));
    }
}
