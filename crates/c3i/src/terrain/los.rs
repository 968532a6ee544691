//! The line-of-sight masking recurrence — the computational core of
//! Terrain Masking.
//!
//! For one radar threat, the *maximum safe altitude* at a terrain cell is
//! the ceiling of the radar's shadow there: an aircraft is invisible while
//! its elevation angle from the radar is below the steepest terrain angle
//! along the sight line. The recurrence propagates that "blocking slope"
//! outward ring by ring (the XDraw scheme): a cell on ring `k` derives its
//! blocking slope from one or two *parent* cells on ring `k − 1` crossed by
//! the ray from the radar, interpolating between them. This is exactly the
//! "value at one point is computed from the values at neighboring points"
//! dependence the paper describes: rings must be processed in order, but
//! all cells *within* a ring are independent — which is what the
//! fine-grained Tera variant exploits.
//!
//! The recurrence stores the **raw altitude** `h_s + B·d` per cell (sensor
//! height plus blocking slope times distance), from which a parent's
//! blocking slope is recovered exactly; raw altitudes are clamped to the
//! terrain elevation only when merged into the result, so every program
//! variant computes bit-identical masking grids.

use super::scenario::GroundThreat;
use crate::counts::Rec;
use crate::grid::Grid;
use std::ops::Range;

/// The clipped region of influence of one threat: the intersection of the
/// Chebyshev disc of radius `radius` around `(cx, cy)` with the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Radar cell x.
    pub cx: usize,
    /// Radar cell y.
    pub cy: usize,
    /// Chebyshev radius in cells.
    pub radius: usize,
    /// Clipped bounds, inclusive.
    pub x0: usize,
    /// Clipped bounds, inclusive.
    pub y0: usize,
    /// Clipped bounds, inclusive.
    pub x1: usize,
    /// Clipped bounds, inclusive.
    pub y1: usize,
}

/// Error returned by [`Region::of`] for a threat whose radar cell lies
/// outside the grid. A malformed (hand-edited or fuzz-replayed) scenario
/// fails with this instead of panicking deep inside a program variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffGridThreat {
    /// Radar cell of the offending threat.
    pub at: (usize, usize),
    /// Grid dimensions the threat was checked against.
    pub grid: (usize, usize),
}

impl std::fmt::Display for OffGridThreat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "threat at {:?} is outside the {:?} grid",
            self.at, self.grid
        )
    }
}

impl std::error::Error for OffGridThreat {}

impl Region {
    /// The region of influence of `threat` on an `x_size × y_size` grid,
    /// or an [`OffGridThreat`] error if the radar cell is off the grid.
    ///
    /// Program variants call this through [`Region::of_checked`]'s
    /// `expect` after scenario validation; callers handling untrusted
    /// input (the fuzzer, corpus replay) match on the `Result`.
    pub fn of(threat: &GroundThreat, x_size: usize, y_size: usize) -> Result<Self, OffGridThreat> {
        if threat.x >= x_size || threat.y >= y_size {
            return Err(OffGridThreat {
                at: (threat.x, threat.y),
                grid: (x_size, y_size),
            });
        }
        let r = threat.radius;
        Ok(Self {
            cx: threat.x,
            cy: threat.y,
            radius: r,
            x0: threat.x.saturating_sub(r),
            y0: threat.y.saturating_sub(r),
            x1: threat.x.saturating_add(r).min(x_size - 1),
            y1: threat.y.saturating_add(r).min(y_size - 1),
        })
    }

    /// [`Region::of`] for callers that have already validated the scenario
    /// (see `TerrainScenario::validate`): panics with the underlying error
    /// message on an off-grid threat instead of returning it.
    pub fn of_checked(threat: &GroundThreat, x_size: usize, y_size: usize) -> Self {
        Self::of(threat, x_size, y_size)
            .unwrap_or_else(|e| panic!("{e} (run TerrainScenario::validate first)"))
    }

    /// Number of cells in the clipped bounding box.
    pub fn n_cells(&self) -> usize {
        (self.x1 - self.x0 + 1) * (self.y1 - self.y0 + 1)
    }

    /// Whether `(x, y)` lies inside the clipped region.
    pub fn contains(&self, x: usize, y: usize) -> bool {
        (self.x0..=self.x1).contains(&x) && (self.y0..=self.y1).contains(&y)
    }

    /// Whether this region's bounding box overlaps `other`'s.
    pub fn overlaps(&self, other: &Region) -> bool {
        self.x0 <= other.x1 && other.x0 <= self.x1 && self.y0 <= other.y1 && other.y0 <= self.y1
    }

    /// Iterate all cells of the clipped region, row-major.
    pub fn cells(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (self.y0..=self.y1).flat_map(move |y| (self.x0..=self.x1).map(move |x| (x, y)))
    }

    /// The cells of Chebyshev ring `k` (distance exactly `k` from the
    /// radar) that survive clipping, in the canonical run order (see
    /// [`Region::ring_runs`]). Allocates; the kernels iterate the runs
    /// directly instead.
    pub fn ring(&self, k: usize) -> Vec<(usize, usize)> {
        self.ring_runs(k).cells().collect()
    }

    /// Ring `k` as at most four contiguous edge runs: top row, left
    /// column, right column, bottom row — the columns exclude the corner
    /// cells, which belong to the rows. This is the allocation-free
    /// representation the sweep kernels iterate; flattening the runs in
    /// order defines the canonical ring order.
    pub fn ring_runs(&self, k: usize) -> RingRuns {
        let mut runs = RingRuns::empty();
        if k == 0 {
            runs.push(RingRun::Row {
                y: self.cy,
                x0: self.cx,
                x1: self.cx,
            });
            return runs;
        }
        let (cx, cy, k) = (self.cx as isize, self.cy as isize, k as isize);
        let (x0, y0) = (self.x0 as isize, self.y0 as isize);
        let (x1, y1) = (self.x1 as isize, self.y1 as isize);
        let rx0 = (cx - k).max(x0);
        let rx1 = (cx + k).min(x1);
        let ry0 = (cy - k + 1).max(y0);
        let ry1 = (cy + k - 1).min(y1);
        if cy - k >= y0 && rx0 <= rx1 {
            runs.push(RingRun::Row {
                y: (cy - k) as usize,
                x0: rx0 as usize,
                x1: rx1 as usize,
            });
        }
        if ry0 <= ry1 {
            if cx - k >= x0 {
                runs.push(RingRun::Col {
                    x: (cx - k) as usize,
                    y0: ry0 as usize,
                    y1: ry1 as usize,
                });
            }
            if cx + k <= x1 {
                runs.push(RingRun::Col {
                    x: (cx + k) as usize,
                    y0: ry0 as usize,
                    y1: ry1 as usize,
                });
            }
        }
        if cy + k <= y1 && rx0 <= rx1 {
            runs.push(RingRun::Row {
                y: (cy + k) as usize,
                x0: rx0 as usize,
                x1: rx1 as usize,
            });
        }
        runs
    }
}

/// One contiguous edge run of a Chebyshev ring: a horizontal span of one
/// row or a vertical span of one column, bounds inclusive. Runs are never
/// empty by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingRun {
    /// Cells `(x0..=x1, y)`.
    Row {
        /// Row index.
        y: usize,
        /// First x, inclusive.
        x0: usize,
        /// Last x, inclusive.
        x1: usize,
    },
    /// Cells `(x, y0..=y1)`.
    Col {
        /// Column index.
        x: usize,
        /// First y, inclusive.
        y0: usize,
        /// Last y, inclusive.
        y1: usize,
    },
}

impl RingRun {
    /// Number of cells in the run.
    pub fn len(&self) -> usize {
        match *self {
            RingRun::Row { x0, x1, .. } => x1 - x0 + 1,
            RingRun::Col { y0, y1, .. } => y1 - y0 + 1,
        }
    }

    /// Runs are never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The `i`-th cell of the run.
    #[inline]
    pub fn cell(&self, i: usize) -> (usize, usize) {
        debug_assert!(i < self.len());
        match *self {
            RingRun::Row { y, x0, .. } => (x0 + i, y),
            RingRun::Col { x, y0, .. } => (x, y0 + i),
        }
    }

    /// Iterate the cells of the run in order.
    pub fn cells(self) -> impl Iterator<Item = (usize, usize)> {
        (0..self.len()).map(move |i| self.cell(i))
    }
}

/// A clipped ring as up to four contiguous edge runs — the stack-allocated
/// replacement for the per-ring `Vec` the recurrence used to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingRuns {
    runs: [RingRun; 4],
    n: usize,
}

impl RingRuns {
    const PLACEHOLDER: RingRun = RingRun::Row { y: 0, x0: 0, x1: 0 };

    /// No runs (a fully clipped-away ring).
    pub const fn empty() -> Self {
        Self {
            runs: [Self::PLACEHOLDER; 4],
            n: 0,
        }
    }

    fn push(&mut self, run: RingRun) {
        self.runs[self.n] = run;
        self.n += 1;
    }

    /// Number of runs (≤ 4).
    pub fn n_runs(&self) -> usize {
        self.n
    }

    /// Total number of cells across the runs.
    pub fn len(&self) -> usize {
        self.runs[..self.n].iter().map(RingRun::len).sum()
    }

    /// Whether the clipped ring has no cells.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Iterate the runs in canonical order.
    pub fn iter(self) -> impl Iterator<Item = RingRun> {
        self.runs.into_iter().take(self.n)
    }

    /// Iterate all cells run by run — the canonical ring order.
    pub fn cells(self) -> impl Iterator<Item = (usize, usize)> {
        self.iter().flat_map(RingRun::cells)
    }
}

/// Storage for raw per-threat altitudes during the recurrence. The
/// sequential program (Program 3) runs the recurrence *in place* over the
/// shared `masking` grid; the coarse-grained program (Program 4) runs it
/// over a per-thread scratch array. Both are [`AltStore`]s.
pub trait AltStore {
    /// Read the raw altitude at grid cell `(x, y)`.
    fn get(&self, x: usize, y: usize) -> f64;
    /// Write the raw altitude at grid cell `(x, y)`.
    fn set(&mut self, x: usize, y: usize, v: f64);
    /// Borrow the contiguous span `x0..=x1` of row `y` (grid coordinates)
    /// — the parent-row slice the row-sweep kernels stream over.
    fn row(&self, y: usize, x0: usize, x1: usize) -> &[f64];
    /// Mutably borrow the span `x0..=x1` of row `y` (grid coordinates).
    fn row_mut(&mut self, y: usize, x0: usize, x1: usize) -> &mut [f64];
}

impl AltStore for Grid<f64> {
    #[inline]
    fn get(&self, x: usize, y: usize) -> f64 {
        self[(x, y)]
    }
    #[inline]
    fn set(&mut self, x: usize, y: usize, v: f64) {
        self[(x, y)] = v;
    }
    #[inline]
    fn row(&self, y: usize, x0: usize, x1: usize) -> &[f64] {
        &Grid::row(self, y)[x0..=x1]
    }
    #[inline]
    fn row_mut(&mut self, y: usize, x0: usize, x1: usize) -> &mut [f64] {
        &mut Grid::row_mut(self, y)[x0..=x1]
    }
}

/// A scratch array covering only a region's bounding box — the per-thread
/// `temp` array of Program 4, sized at the paper's "up to 5% of the total
/// terrain" per thread.
#[derive(Debug, Clone)]
pub struct ScratchAlt {
    x0: usize,
    y0: usize,
    grid: Grid<f64>,
}

impl ScratchAlt {
    /// Scratch covering `region`, initialized to `fill`.
    pub fn new(region: &Region, fill: f64) -> Self {
        Self {
            x0: region.x0,
            y0: region.y0,
            grid: Grid::new(region.x1 - region.x0 + 1, region.y1 - region.y0 + 1, fill),
        }
    }

    /// A zero-sized scratch placeholder, to be [`ScratchAlt::reset`]
    /// before use. This is what a fresh [`KernelArena`] holds.
    pub fn empty() -> Self {
        Self {
            x0: 0,
            y0: 0,
            grid: Grid::new(0, 0, 0.0),
        }
    }

    /// Re-aim the scratch at `region` and fill it with `fill`, reusing the
    /// retained backing storage (see [`Grid::reset`]). This is the arena
    /// reuse hook that keeps repeated per-threat recurrences free of
    /// allocations.
    pub fn reset(&mut self, region: &Region, fill: f64) {
        self.x0 = region.x0;
        self.y0 = region.y0;
        self.grid
            .reset(region.x1 - region.x0 + 1, region.y1 - region.y0 + 1, fill);
    }

    /// Words of storage this scratch occupies.
    pub fn words(&self) -> usize {
        self.grid.len()
    }
}

impl AltStore for ScratchAlt {
    #[inline]
    fn get(&self, x: usize, y: usize) -> f64 {
        self.grid[(x - self.x0, y - self.y0)]
    }
    #[inline]
    fn set(&mut self, x: usize, y: usize, v: f64) {
        self.grid[(x - self.x0, y - self.y0)] = v;
    }
    #[inline]
    fn row(&self, y: usize, x0: usize, x1: usize) -> &[f64] {
        &self.grid.row(y - self.y0)[x0 - self.x0..=x1 - self.x0]
    }
    #[inline]
    fn row_mut(&mut self, y: usize, x0: usize, x1: usize) -> &mut [f64] {
        &mut self.grid.row_mut(y - self.y0)[x0 - self.x0..=x1 - self.x0]
    }
}

/// Sensor height above datum for a threat standing on the terrain.
pub fn sensor_height(terrain: &Grid<f64>, threat: &GroundThreat) -> f64 {
    terrain[(threat.x, threat.y)] + threat.mast_height
}

#[inline]
fn dist_cells(dx: isize, dy: isize, cell_size: f64) -> f64 {
    (((dx * dx + dy * dy) as f64).sqrt()) * cell_size
}

/// Compute the raw altitude of one cell on ring `k ≥ 2` from its parents on
/// ring `k − 1` (already present in `store`): the cell-at-a-time form the
/// recorded `terrain_masking_fine` and [`mod@reference`] run, and what the
/// sweep kernels are held equal to. No host program calls it.
///
/// Parent selection is the XDraw scheme: scale the offset by `(k−1)/k`; on
/// an edge-dominant cell the two parents straddle the scaled coordinate on
/// the dominant-axis edge of ring `k − 1`; on a diagonal cell the single
/// parent is the diagonal cell of ring `k − 1`.
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the benchmark kernel's signature: grid + threat geometry + cell
pub fn raw_alt_for_cell<S: AltStore, R: Rec>(
    terrain: &Grid<f64>,
    cell_size: f64,
    h_s: f64,
    cx: usize,
    cy: usize,
    x: usize,
    y: usize,
    store: &S,
    r: &mut R,
) -> f64 {
    let dx = x as isize - cx as isize;
    let dy = y as isize - cy as isize;
    let k = dx.abs().max(dy.abs());
    debug_assert!(k >= 2, "ring 0/1 cells have no parents");
    let scale = (k - 1) as f64 / k as f64;
    r.int(6); // offsets, ring index, parent arithmetic
    r.fp(2);

    // Blocking value of a parent: the steeper of its own terrain slope and
    // its inherited blocking slope (recovered from its raw altitude).
    let parent_v = |px: isize, py: isize, r: &mut R| -> f64 {
        let (pxu, pyu) = (px as usize, py as usize);
        let d = dist_cells(px - cx as isize, py - cy as isize, cell_size);
        let raw = store.get(pxu, pyu);
        let elev = terrain[(pxu, pyu)];
        r.sload(2); // raw + terrain, streaming over large grids
        r.fp(7); // distance, two slopes, max
        let b = if raw == f64::NEG_INFINITY {
            f64::NEG_INFINITY
        } else {
            (raw - h_s) / d
        };
        let slope = (elev - h_s) / d;
        b.max(slope)
    };

    let v = if dx.abs() == dy.abs() {
        // Diagonal: single parent one step in on both axes.
        parent_v(
            cx as isize + dx.signum() * (k - 1),
            cy as isize + dy.signum() * (k - 1),
            r,
        )
    } else {
        // Dominant-axis cell: the two parents straddle the scaled
        // subordinate coordinate on the dominant-axis edge of ring k−1.
        // One arm, axis-generalized (x-dominant ⟺ |dx| > |dy|); the
        // operation order matches the historical two-arm code exactly.
        let x_dom = dx.abs() > dy.abs();
        let (dom, sub, c_dom, c_sub) = if x_dom {
            (dx, dy, cx, cy)
        } else {
            (dy, dx, cy, cx)
        };
        let p_dom = c_dom as isize + dom.signum() * (k - 1);
        let f_sub = c_sub as f64 + sub as f64 * scale;
        let lo = f_sub.floor();
        let w = f_sub - lo;
        r.fp(4);
        let pv = |s: isize, r: &mut R| {
            if x_dom {
                parent_v(p_dom, s, r)
            } else {
                parent_v(s, p_dom, r)
            }
        };
        let v_lo = pv(lo as isize, r);
        if w == 0.0 {
            v_lo
        } else {
            let v_hi = pv(lo as isize + 1, r);
            v_lo * (1.0 - w) + v_hi * w
        }
    };

    let d = dist_cells(dx, dy, cell_size);
    r.fp(5);
    h_s + v * d
}

/// Per-ring scratch owned by a [`KernelArena`]: distance tables shared by
/// every run of one ring, and a staging buffer for one run's results.
///
/// The table entries are the *same integer expressions* `dist_cells`
/// evaluates per call (`aᵢ² + k²` in exact integer arithmetic, then one
/// sqrt), so looking them up is bit-identical to recomputing them — that
/// is what lets the sweep kernels hoist ~3 sqrts per cell out of the inner
/// loop without perturbing the masking grids.
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// `cell_d[a]`: distance of a ring-`k` cell whose off-axis offset is
    /// `a` (`cell_d[k]` is the corner). Valid indices `0..=k`.
    cell_d: Vec<f64>,
    /// `par_d[a]`: distance of a ring-`k−1` parent with off-axis offset
    /// `a`. Valid indices `0..k`.
    par_d: Vec<f64>,
    /// Staging buffer for one ring, written back run by run.
    row: Vec<f64>,
}

impl KernelScratch {
    /// An empty scratch; tables are (re)filled per ring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fill the distance tables for ring `k ≥ 1`, reusing capacity.
    pub fn fill(&mut self, k: usize, cell_size: f64) {
        let ki = k as isize;
        self.cell_d.clear();
        self.cell_d
            .extend((0..=ki).map(|a| dist_cells(a, ki, cell_size)));
        self.par_d.clear();
        self.par_d
            .extend((0..ki).map(|a| dist_cells(a, ki - 1, cell_size)));
    }
}

/// Reusable per-thread working storage for the masking kernels: the ring
/// distance tables, the per-threat `ScratchAlt` backing store, and the
/// fine-grained variant's ring result slots. Acquired via
/// [`KernelArena::with`], which hands out one arena per OS thread so a
/// whole table pipeline performs zero hot-path allocations after warm-up.
#[derive(Debug)]
pub struct KernelArena {
    /// Per-ring distance tables and run staging.
    pub kernel: KernelScratch,
    /// Per-threat raw-altitude scratch (Program 4's `temp` array).
    pub scratch: ScratchAlt,
    /// Per-ring atomic result slots for the fine-grained variant.
    pub ring_slots: Vec<std::sync::atomic::AtomicU64>,
}

impl KernelArena {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        Self {
            kernel: KernelScratch::new(),
            scratch: ScratchAlt::empty(),
            ring_slots: Vec::new(),
        }
    }

    /// Run `f` with this thread's arena. Reentrant calls (an arena user
    /// calling back into another arena user on the same thread) fall back
    /// to a fresh arena instead of panicking on the double borrow.
    pub fn with<T>(f: impl FnOnce(&mut KernelArena) -> T) -> T {
        use std::cell::RefCell;
        thread_local! {
            static ARENA: RefCell<KernelArena> = RefCell::new(KernelArena::new());
        }
        ARENA.with(|a| match a.try_borrow_mut() {
            Ok(mut arena) => f(&mut arena),
            Err(_) => f(&mut KernelArena::new()),
        })
    }

    /// Disjoint mutable borrows of the scratch store and the kernel
    /// tables, for callers that need both at once (the store is the
    /// recurrence target while the tables drive the sweeps).
    pub fn split(&mut self) -> (&mut ScratchAlt, &mut KernelScratch) {
        (&mut self.scratch, &mut self.kernel)
    }
}

impl Default for KernelArena {
    fn default() -> Self {
        Self::new()
    }
}

/// What the sweep kernels hoist out of one ring `k ≥ 2`: the threat's
/// geometry, the store holding ring `k − 1`, and ring `k`'s distance tables
/// ([`KernelScratch::fill`]). Shared borrows only, so the fine-grained
/// variant hands one to every thread of a ring.
#[derive(Debug, Clone, Copy)]
pub struct RingSweep<'a, S> {
    /// Terrain elevations.
    pub terrain: &'a Grid<f64>,
    /// Sensor height ([`sensor_height`]).
    pub h_s: f64,
    /// The threat's clipped region.
    pub region: &'a Region,
    /// Ring index.
    pub k: usize,
    /// Raw altitudes; ring `k − 1` is read, nothing is written.
    pub store: &'a S,
    /// Distance tables filled for ring `k`.
    pub kern: &'a KernelScratch,
}

/// Most cells a sweep interpolates from one stack array of parents' blocking
/// values; a chunk of `n` cells has at most `n + 1` parents.
const CHUNK: usize = 64;

impl<S: AltStore> RingSweep<'_, S> {
    /// Compute cells `range` (indices into `run`, non-empty) of one edge
    /// run of the ring and hand them to `sink` in run order. A whole run is
    /// `0..run.len()`; wherever a run is cut, its cells get the same bits.
    ///
    /// A row run (`y = cy ± k`) is y-dominant between its corners: a cell's
    /// parents sit on ring `k − 1`'s contiguous span of row `y ∓ 1`, read as
    /// two slices (raw altitudes, elevations). A column run (`x = cx ± k`;
    /// the corners belong to the rows) is x-dominant, and its parents are a
    /// strided walk of column `x ∓ 1`. A diagonal corner has one parent, the
    /// end of the parent row, and is peeled off where `range` reaches a row
    /// end; every other cell goes through one interpolation loop, shared by
    /// both run kinds, that works through the cells a chunk at a time.
    ///
    /// Each parent's blocking value is [`raw_alt_for_cell`]'s IEEE
    /// expression, evaluated once per parent instead of once per child that
    /// reads it, and the rest of a cell's arithmetic is that function's in
    /// its order, so the results are bit-identical to the reference
    /// recurrence. The op counts charged are also its: per parent *use*.
    pub fn run<R: Rec>(
        &self,
        run: RingRun,
        range: Range<usize>,
        mut sink: impl FnMut(f64),
        r: &mut R,
    ) {
        debug_assert!(range.start < range.end && range.end <= run.len());
        let (region, k, kern) = (self.region, self.k, self.kern);
        let (cx, cy) = (region.cx, region.cy);
        match run {
            RingRun::Row { y, x0, x1 } => {
                // Parent row: one step back toward the radar, clipped to
                // ring k−1's span of it (which holds every parent the run
                // interpolates between).
                let py = if y < cy { y + 1 } else { y - 1 };
                let px0 = (cx + 1).saturating_sub(k).max(region.x0);
                let px1 = (cx + k - 1).min(region.x1);
                let raw = self.store.row(py, px0, px1);
                let elev = &self.terrain.row(py)[px0..=px1];
                let parent = |px: usize| (raw[px - px0], elev[px - px0]);
                let corner = |px: usize, r: &mut R| {
                    r.int(6);
                    r.fp(2 + 7 + 5);
                    r.sload(2);
                    self.h_s + self.blocking(parent(px), kern.par_d[k - 1]) * kern.cell_d[k]
                };
                let has_l = range.start == 0 && x0 + k == cx;
                let has_r = range.end == run.len() && x1 == cx + k;
                if has_l {
                    sink(corner(px0, r));
                }
                let cells =
                    x0 + range.start + usize::from(has_l)..x0 + range.end - usize::from(has_r);
                self.interpolate(cx, px1, cells, parent, &mut sink, r);
                if has_r {
                    sink(corner(px1, r));
                }
            }
            RingRun::Col { x, y0, .. } => {
                // Parent column: one step back toward the radar.
                let px = if x < cx { x + 1 } else { x - 1 };
                let parent = |py: usize| (self.store.get(px, py), self.terrain[(px, py)]);
                let py1 = (cy + k - 1).min(region.y1);
                let cells = y0 + range.start..y0 + range.end;
                self.interpolate(cy, py1, cells, parent, &mut sink, r);
            }
        }
    }

    /// The interpolation loop of both run kinds. `cells` are coordinates
    /// along the run of edge-dominant cells, `c` is the radar's coordinate
    /// on that axis, and `parent(p)` reads the ring-`k − 1` parent at `p`
    /// (raw altitude, elevation) for `p ≤ p_end`. The cells go in chunks of
    /// at most [`CHUNK`]: the blocking values of a chunk's parents are
    /// evaluated once into a stack array, then each cell interpolates
    /// between the two that straddle its scaled coordinate.
    fn interpolate<R: Rec>(
        &self,
        c: usize,
        p_end: usize,
        cells: Range<usize>,
        parent: impl Fn(usize) -> (f64, f64),
        sink: &mut impl FnMut(f64),
        r: &mut R,
    ) {
        let KernelScratch { cell_d, par_d, .. } = self.kern;
        let scale = (self.k - 1) as f64 / self.k as f64;
        // The lower parent and the weight of the upper one. The scaled
        // coordinate `f` is ≥ 0: past the radar it is ≥ `c`, and short of it
        // `c − |s − c|·scale` is computed no lower than `c − |s − c| = s`
        // (`scale ≤ 1`, and rounding is monotone). So truncation is `floor`,
        // exactly, without the libm call `f64::floor` is on baseline x86-64.
        let straddle = |s: usize| {
            let f = c as f64 + (s as isize - c as isize) as f64 * scale;
            debug_assert!(f >= 0.0);
            let lo = f as usize;
            (lo, f - lo as f64)
        };
        let mut v = [0.0; CHUNK + 1];
        let mut first = cells.start;
        while first < cells.end {
            let end = (first + CHUNK).min(cells.end);
            let p0 = straddle(first).0;
            let p1 = (straddle(end - 1).0 + 1).min(p_end);
            debug_assert!(p1 - p0 <= CHUNK);
            for (v, p) in v.iter_mut().zip(p0..=p1) {
                *v = self.blocking(parent(p), par_d[p.abs_diff(c)]);
            }
            for s in first..end {
                let (lo, w) = straddle(s);
                // `raw_alt_for_cell`'s charges: per cell, and per parent use.
                let uses = if w == 0.0 { 1 } else { 2 };
                r.int(6);
                r.fp(2 + 4 + 7 * uses + 5);
                r.sload(2 * uses);
                let v_lo = v[lo - p0];
                let b = if w == 0.0 {
                    v_lo
                } else {
                    v_lo * (1.0 - w) + v[lo - p0 + 1] * w
                };
                sink(self.h_s + b * cell_d[s.abs_diff(c)]);
            }
            first = end;
        }
    }

    /// Blocking value of a parent `(raw, elev)` at distance `d`: the steeper
    /// of its inherited blocking slope (recovered from its raw altitude)
    /// and its own terrain slope — `raw_alt_for_cell`'s `parent_v`.
    #[inline]
    fn blocking(&self, (raw, elev): (f64, f64), d: f64) -> f64 {
        let b = if raw == f64::NEG_INFINITY {
            f64::NEG_INFINITY
        } else {
            (raw - self.h_s) / d
        };
        b.max((elev - self.h_s) / d)
    }
}

/// Write a ring back from its values in canonical order (`value(i)` is the
/// `i`-th cell's): a row run is one contiguous pass, a column run a strided
/// walk.
pub fn write_ring<S: AltStore>(store: &mut S, runs: RingRuns, value: impl Fn(usize) -> f64) {
    let mut first = 0;
    for run in runs.iter() {
        match run {
            RingRun::Row { y, x0, x1 } => {
                for (i, cell) in store.row_mut(y, x0, x1).iter_mut().enumerate() {
                    *cell = value(first + i);
                }
            }
            RingRun::Col { x, y0, y1 } => {
                for (i, y) in (y0..=y1).enumerate() {
                    store.set(x, y, value(first + i));
                }
            }
        }
        first += run.len();
    }
}

/// Run the full ring recurrence for `threat` into `store` using caller-
/// provided kernel scratch: after the call, `store` holds the raw altitude
/// for every cell of the region (rings 0 and 1 hold `-∞`: next to the
/// radar there is no intermediate terrain, so nothing is masked above
/// ground). Rings are processed in order as edge-run sweeps; cells within
/// a ring are independent.
pub fn compute_raw_alts_in<S: AltStore, R: Rec>(
    terrain: &Grid<f64>,
    cell_size: f64,
    threat: &GroundThreat,
    region: &Region,
    store: &mut S,
    kern: &mut KernelScratch,
    r: &mut R,
) {
    let h_s = sensor_height(terrain, threat);
    r.load(2);
    r.fp(1);
    for (x, y) in region.ring_runs(0).cells() {
        store.set(x, y, f64::NEG_INFINITY);
        r.sstore(1);
    }
    for (x, y) in region.ring_runs(1).cells() {
        store.set(x, y, f64::NEG_INFINITY);
        r.sstore(1);
    }
    for k in 2..=region.radius {
        kern.fill(k, cell_size);
        let runs = region.ring_runs(k);
        // The ring is staged and then written back: its cells read ring
        // k − 1 out of the store they are written to.
        let mut ring = std::mem::take(&mut kern.row);
        ring.clear();
        let sweep = RingSweep {
            terrain,
            h_s,
            region,
            k,
            store: &*store,
            kern,
        };
        for run in runs.iter() {
            sweep.run(run, 0..run.len(), |v| ring.push(v), r);
        }
        write_ring(store, runs, |i| ring[i]);
        r.sstore(runs.len() as u64);
        kern.row = ring;
    }
}

/// [`compute_raw_alts_in`] with kernel scratch drawn from this thread's
/// [`KernelArena`] — the drop-in equivalent of the historical entry point.
pub fn compute_raw_alts<S: AltStore, R: Rec>(
    terrain: &Grid<f64>,
    cell_size: f64,
    threat: &GroundThreat,
    region: &Region,
    store: &mut S,
    r: &mut R,
) {
    KernelArena::with(|a| {
        compute_raw_alts_in(terrain, cell_size, threat, region, store, &mut a.kernel, r)
    })
}

/// The pinned scalar baseline: the historical cell-at-a-time recurrence
/// the run-sweep kernels are benchmarked against (the `kernels` harness
/// phase) and differentially tested for bit-identity (the fuzzer's
/// reference config). Kept verbatim so the ≥1.5x gate always measures
/// against the exact pre-optimization code path.
pub mod reference {
    use super::*;

    /// The historical `Region::ring` enumeration order: top edge left to
    /// right, then left/right edge cells interleaved per row, then the
    /// bottom edge — the order the per-ring `Vec` used to be built in.
    pub fn ring(region: &Region, k: usize) -> Vec<(usize, usize)> {
        if k == 0 {
            return vec![(region.cx, region.cy)];
        }
        let mut out = Vec::with_capacity(8 * k);
        let (cx, cy, k) = (region.cx as isize, region.cy as isize, k as isize);
        let push = |x: isize, y: isize, out: &mut Vec<(usize, usize)>| {
            if x >= 0 && y >= 0 {
                let (x, y) = (x as usize, y as usize);
                if region.contains(x, y) {
                    out.push((x, y));
                }
            }
        };
        for x in (cx - k)..=(cx + k) {
            push(x, cy - k, &mut out);
        }
        for y in (cy - k + 1)..=(cy + k - 1) {
            push(cx - k, y, &mut out);
            push(cx + k, y, &mut out);
        }
        for x in (cx - k)..=(cx + k) {
            push(x, cy + k, &mut out);
        }
        out
    }

    /// The historical recurrence driver: allocate each ring's cell list
    /// and evaluate [`raw_alt_for_cell`] per cell. Bit-identical to
    /// [`super::compute_raw_alts`] by construction (the same expressions
    /// per cell, a parent's blocking value evaluated per child here and
    /// once per ring there, in a ring-internal, hence irrelevant, order).
    pub fn compute_raw_alts<S: AltStore, R: Rec>(
        terrain: &Grid<f64>,
        cell_size: f64,
        threat: &GroundThreat,
        region: &Region,
        store: &mut S,
        r: &mut R,
    ) {
        let h_s = sensor_height(terrain, threat);
        r.load(2);
        r.fp(1);
        for (x, y) in ring(region, 0) {
            store.set(x, y, f64::NEG_INFINITY);
            r.sstore(1);
        }
        for (x, y) in ring(region, 1) {
            store.set(x, y, f64::NEG_INFINITY);
            r.sstore(1);
        }
        for k in 2..=region.radius {
            for (x, y) in ring(region, k) {
                let v = raw_alt_for_cell(
                    terrain, cell_size, h_s, region.cx, region.cy, x, y, store, r,
                );
                store.set(x, y, v);
                r.sstore(1);
            }
        }
    }
}

/// Clamp a raw altitude into the final per-threat masking value at a cell:
/// the shadow ceiling, but never below the local terrain (an aircraft on
/// the ground can always be there; "safe altitude" bottoms out at ground
/// level).
#[inline]
pub fn clamp_alt(raw: f64, elev: f64) -> f64 {
    raw.max(elev)
}

/// The copy-out and reset that open a threat in the sequential and the
/// fine-grained programs, a row of the region at a time: `temp = masking`,
/// then `masking = +∞`.
pub(super) fn save_and_reset(masking: &mut Grid<f64>, temp: &mut ScratchAlt, region: &Region) {
    temp.reset(region, f64::INFINITY);
    for y in region.y0..=region.y1 {
        let row = &mut masking.row_mut(y)[region.x0..=region.x1];
        temp.row_mut(y, region.x0, region.x1).copy_from_slice(row);
        row.fill(f64::INFINITY);
    }
}

/// The min-merge that closes a threat in the same two programs, one zipped
/// pass per row: `masking = min(clamp(masking, terrain), temp)`.
pub(super) fn merge_min(
    masking: &mut Grid<f64>,
    terrain: &Grid<f64>,
    temp: &ScratchAlt,
    region: &Region,
) {
    let (x0, x1) = (region.x0, region.x1);
    for y in region.y0..=region.y1 {
        let raw = masking.row_mut(y)[x0..=x1].iter_mut();
        for ((m, &elev), &prior) in raw.zip(&terrain.row(y)[x0..=x1]).zip(temp.row(y, x0, x1)) {
            *m = clamp_alt(*m, elev).min(prior);
        }
    }
}

/// Convenience: the complete per-threat masking field over the threat's
/// region (clamped), as a scratch array. Used by the verifier and tests.
pub fn per_threat_masking(
    terrain: &Grid<f64>,
    cell_size: f64,
    threat: &GroundThreat,
) -> (Region, ScratchAlt) {
    let region = Region::of_checked(threat, terrain.x_size(), terrain.y_size());
    let mut scratch = ScratchAlt::new(&region, f64::INFINITY);
    compute_raw_alts(
        terrain,
        cell_size,
        threat,
        &region,
        &mut scratch,
        &mut crate::counts::NoRec,
    );
    // Clamp in place.
    let mut clamped = scratch.clone();
    for (x, y) in region.cells() {
        clamped.set(x, y, clamp_alt(scratch.get(x, y), terrain[(x, y)]));
    }
    (region, clamped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::NoRec;

    fn flat_terrain(size: usize, elev: f64) -> Grid<f64> {
        Grid::new(size, size, elev)
    }

    fn center_threat(size: usize, radius: usize) -> GroundThreat {
        GroundThreat {
            x: size / 2,
            y: size / 2,
            radius,
            mast_height: 20.0,
        }
    }

    #[test]
    fn region_clips_to_grid() {
        let t = GroundThreat {
            x: 2,
            y: 3,
            radius: 5,
            mast_height: 10.0,
        };
        let r = Region::of_checked(&t, 10, 10);
        assert_eq!((r.x0, r.y0, r.x1, r.y1), (0, 0, 7, 8));
        assert_eq!(r.n_cells(), 8 * 9);
    }

    #[test]
    fn off_grid_threat_is_an_error_not_a_panic() {
        let t = GroundThreat {
            x: 10,
            y: 3,
            radius: 2,
            mast_height: 10.0,
        };
        let err = Region::of(&t, 10, 10).unwrap_err();
        assert_eq!(err.at, (10, 3));
        assert_eq!(err.grid, (10, 10));
        assert!(err.to_string().contains("outside"));
    }

    #[test]
    fn huge_radius_clips_without_overflow() {
        let t = GroundThreat {
            x: 0,
            y: 0,
            radius: usize::MAX - 1,
            mast_height: 10.0,
        };
        let r = Region::of(&t, 5, 5).unwrap();
        assert_eq!((r.x0, r.y0, r.x1, r.y1), (0, 0, 4, 4));
    }

    #[test]
    fn ring_cells_have_exact_chebyshev_distance() {
        let t = center_threat(41, 15);
        let r = Region::of_checked(&t, 41, 41);
        for k in 0..=15 {
            let ring = r.ring(k);
            assert!(!ring.is_empty());
            for (x, y) in &ring {
                let d = (*x as isize - r.cx as isize)
                    .abs()
                    .max((*y as isize - r.cy as isize).abs());
                assert_eq!(d as usize, k);
            }
            // Unclipped interior ring has exactly 8k cells (1 for k=0).
            let expected = if k == 0 { 1 } else { 8 * k };
            assert_eq!(ring.len(), expected, "ring {k}");
        }
    }

    #[test]
    fn rings_partition_the_region() {
        let t = GroundThreat {
            x: 3,
            y: 4,
            radius: 6,
            mast_height: 10.0,
        };
        let r = Region::of_checked(&t, 20, 20);
        let mut from_rings: Vec<(usize, usize)> = (0..=6).flat_map(|k| r.ring(k)).collect();
        from_rings.sort_unstable();
        let mut all: Vec<(usize, usize)> = r.cells().collect();
        all.sort_unstable();
        assert_eq!(from_rings, all);
    }

    #[test]
    fn overlap_detection() {
        let a = Region {
            cx: 5,
            cy: 5,
            radius: 3,
            x0: 2,
            y0: 2,
            x1: 8,
            y1: 8,
        };
        let b = Region {
            cx: 10,
            cy: 10,
            radius: 3,
            x0: 7,
            y0: 7,
            x1: 13,
            y1: 13,
        };
        let c = Region {
            cx: 20,
            cy: 20,
            radius: 2,
            x0: 18,
            y0: 18,
            x1: 22,
            y1: 22,
        };
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn flat_terrain_masks_nothing_above_ground() {
        // On a flat plain a radar on a mast sees everything above ground:
        // every clamped masking value is exactly the terrain elevation.
        let terrain = flat_terrain(33, 100.0);
        let t = center_threat(33, 12);
        let (region, masked) = per_threat_masking(&terrain, 100.0, &t);
        for (x, y) in region.cells() {
            assert_eq!(masked.get(x, y), 100.0, "cell ({x},{y})");
        }
    }

    #[test]
    fn ridge_casts_a_growing_shadow() {
        // A tall wall east of the radar: cells beyond the wall are masked
        // up to an altitude that grows with distance (the shadow cone).
        let size = 41;
        let mut terrain = flat_terrain(size, 0.0);
        let c = size / 2;
        for y in 0..size {
            terrain[(c + 3, y)] = 500.0;
        }
        let t = GroundThreat {
            x: c,
            y: c,
            radius: 18,
            mast_height: 10.0,
        };
        let (_, masked) = per_threat_masking(&terrain, 100.0, &t);
        // Directly east, beyond the wall, masking must exceed ground and
        // increase with distance.
        let m5 = masked.get(c + 5, c);
        let m10 = masked.get(c + 10, c);
        let m15 = masked.get(c + 15, c);
        assert!(m5 > 0.0, "wall must cast a shadow: {m5}");
        assert!(m10 > m5);
        assert!(m15 > m10);
        // West of the radar there is no wall: bare ground.
        assert_eq!(masked.get(c - 10, c), 0.0);
    }

    #[test]
    fn shadow_height_matches_similar_triangles_on_the_axis() {
        // On the axis through the wall the parent chain is exact (no
        // interpolation), so the shadow ceiling obeys similar triangles:
        // (h_wall - h_s)/d_wall == (ceil - h_s)/d_cell.
        let size = 41;
        let mut terrain = flat_terrain(size, 0.0);
        let c = size / 2;
        terrain[(c + 4, c)] = 300.0;
        let t = GroundThreat {
            x: c,
            y: c,
            radius: 18,
            mast_height: 10.0,
        };
        let (_, masked) = per_threat_masking(&terrain, 100.0, &t);
        let h_s = 10.0;
        let d_wall = 4.0 * 100.0;
        for dist in [8usize, 12, 16] {
            let d_cell = dist as f64 * 100.0;
            let expected = h_s + (300.0 - h_s) / d_wall * d_cell;
            let got = masked.get(c + dist, c);
            assert!(
                (got - expected).abs() < 1e-6,
                "dist {dist}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn raw_alts_are_deterministic_between_stores() {
        // Scratch store and full-grid store must produce identical raw
        // values — this is the invariant that makes Program 3 and
        // Program 4 outputs bit-identical.
        let terrain = {
            let mut g = flat_terrain(25, 0.0);
            for (i, v) in g.as_mut_slice().iter_mut().enumerate() {
                *v = ((i * 2654435761) % 997) as f64;
            }
            g
        };
        let t = center_threat(25, 10);
        let region = Region::of_checked(&t, 25, 25);

        let mut scratch = ScratchAlt::new(&region, f64::INFINITY);
        compute_raw_alts(&terrain, 100.0, &t, &region, &mut scratch, &mut NoRec);

        let mut full = Grid::new(25, 25, f64::INFINITY);
        compute_raw_alts(&terrain, 100.0, &t, &region, &mut full, &mut NoRec);

        for (x, y) in region.cells() {
            let a = scratch.get(x, y);
            let b = AltStore::get(&full, x, y);
            assert!(a == b, "({x},{y}): {a} vs {b}");
        }
    }

    #[test]
    fn recurrence_records_memory_heavy_ops() {
        let terrain = flat_terrain(33, 50.0);
        let t = center_threat(33, 12);
        let region = Region::of_checked(&t, 33, 33);
        let mut scratch = ScratchAlt::new(&region, f64::INFINITY);
        let mut r = sthreads::OpRecorder::new();
        compute_raw_alts(&terrain, 100.0, &t, &region, &mut scratch, &mut r);
        let c = r.counts();
        assert!(c.stream_loads > 0 && c.stream_stores > 0 && c.fp_ops > 0);
        // Every region cell is stored exactly once (streaming class).
        assert_eq!(c.stream_stores, region.n_cells() as u64);
    }

    #[test]
    fn clamp_respects_terrain_floor() {
        assert_eq!(clamp_alt(f64::NEG_INFINITY, 120.0), 120.0);
        assert_eq!(clamp_alt(80.0, 120.0), 120.0);
        assert_eq!(clamp_alt(500.0, 120.0), 500.0);
    }

    #[test]
    fn scratch_words_match_region_size() {
        let t = center_threat(101, 30);
        let region = Region::of_checked(&t, 101, 101);
        let scratch = ScratchAlt::new(&region, 0.0);
        assert_eq!(scratch.words(), 61 * 61);
    }

    fn bumpy_terrain(size: usize) -> Grid<f64> {
        Grid::from_fn(size, size, |x, y| {
            (((x * 31 + y * 17) * 2654435761) % 997) as f64
        })
    }

    /// Threat placements that exercise every clipping shape: interior,
    /// all four corners, edge midpoints, and radii past the grid.
    fn clipping_threats(size: usize) -> Vec<GroundThreat> {
        let c = size - 1;
        [
            (size / 2, size / 2, size / 3),
            (0, 0, size / 2),
            (c, 0, size / 2),
            (0, c, size / 2),
            (c, c, size / 2),
            (size / 2, 0, size - 1),
            (0, size / 2, size - 1),
            (size / 2, size / 2, 2 * size),
            (1, size / 2, 2 * size),
        ]
        .into_iter()
        .map(|(x, y, radius)| GroundThreat {
            x,
            y,
            radius,
            mast_height: 15.0,
        })
        .collect()
    }

    #[test]
    fn ring_runs_are_at_most_four_and_cover_the_ring() {
        for t in clipping_threats(19) {
            let region = Region::of_checked(&t, 19, 19);
            for k in 0..=region.radius {
                let runs = region.ring_runs(k);
                assert!(runs.n_runs() <= 4);
                let flat: Vec<_> = runs.cells().collect();
                assert_eq!(flat.len(), runs.len());
                // Set-equal to the historical enumeration.
                let mut a = flat.clone();
                let mut b = reference::ring(&region, k);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "threat {t:?} ring {k}");
            }
        }
    }

    /// Each clipping threat on a 23-cell grid and on a 160-cell one, whose
    /// runs are long enough to span several of the sweeps' chunks.
    fn clipping_cases() -> impl Iterator<Item = (Grid<f64>, GroundThreat)> {
        [23, 160].into_iter().flat_map(|size| {
            let terrain = bumpy_terrain(size);
            clipping_threats(size)
                .into_iter()
                .map(move |t| (terrain.clone(), t))
        })
    }

    #[test]
    fn run_kernels_match_reference_bitwise_under_clipping() {
        for (terrain, t) in clipping_cases() {
            let region = Region::of_checked(&t, terrain.x_size(), terrain.y_size());
            let mut opt = ScratchAlt::new(&region, f64::INFINITY);
            compute_raw_alts(&terrain, 100.0, &t, &region, &mut opt, &mut NoRec);
            let mut refr = ScratchAlt::new(&region, f64::INFINITY);
            reference::compute_raw_alts(&terrain, 100.0, &t, &region, &mut refr, &mut NoRec);
            for (x, y) in region.cells() {
                assert_eq!(
                    opt.get(x, y).to_bits(),
                    refr.get(x, y).to_bits(),
                    "threat {t:?} cell ({x},{y}): {} vs {}",
                    opt.get(x, y),
                    refr.get(x, y)
                );
            }
        }
    }

    #[test]
    fn run_kernels_record_identical_op_counts_to_reference() {
        // The calibrated machine models consume these totals; the sweep
        // kernels must charge exactly what the historical recurrence did.
        for (terrain, t) in clipping_cases() {
            let region = Region::of_checked(&t, terrain.x_size(), terrain.y_size());
            let mut opt = ScratchAlt::new(&region, f64::INFINITY);
            let mut r_opt = sthreads::OpRecorder::new();
            compute_raw_alts(&terrain, 100.0, &t, &region, &mut opt, &mut r_opt);
            let mut refr = ScratchAlt::new(&region, f64::INFINITY);
            let mut r_ref = sthreads::OpRecorder::new();
            reference::compute_raw_alts(&terrain, 100.0, &t, &region, &mut refr, &mut r_ref);
            assert_eq!(r_opt.counts(), r_ref.counts(), "threat {t:?}");
        }
    }

    #[test]
    fn arena_scratch_reset_matches_fresh_scratch() {
        let terrain = bumpy_terrain(17);
        let threats = clipping_threats(17);
        KernelArena::with(|arena| {
            for t in &threats {
                let region = Region::of_checked(t, 17, 17);
                let (scratch, kern) = arena.split();
                scratch.reset(&region, f64::INFINITY);
                compute_raw_alts_in(&terrain, 30.0, t, &region, scratch, kern, &mut NoRec);
                let mut fresh = ScratchAlt::new(&region, f64::INFINITY);
                compute_raw_alts(&terrain, 30.0, t, &region, &mut fresh, &mut NoRec);
                for (x, y) in region.cells() {
                    assert_eq!(scratch.get(x, y).to_bits(), fresh.get(x, y).to_bits());
                }
            }
        });
    }
}
