//! Program 4: the coarse-grained multithreaded Terrain Masking program.
//!
//! Threads dynamically claim unprocessed threats ("`threat = next
//! unprocessed threat`"). Each thread computes the claimed threat's safe
//! altitudes into its **own** temp array, then folds them into the shared
//! `masking` array block by block: the terrain is blocked into
//! `num_blocks × num_blocks` equal blocks, each with its own lock, and a
//! block is locked around the min-merge of the overlap between the threat's
//! region and that block.
//!
//! The roles of `temp` and `masking` are swapped relative to Program 3 (the
//! recurrence runs in `temp`, the merge target is `masking`), which is also
//! what makes the per-thread temp arrays necessary — the paper's reason
//! this approach drowns in memory for the hundreds of threads the Tera MTA
//! wants.

use super::los::{compute_raw_alts_in, merged, AltStore, KernelArena, Region};
use super::scenario::TerrainScenario;
use crate::counts::{NoRec, OpCounts, Rec};
use crate::grid::Grid;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use sthreads::multithreaded_for;

/// The paper's block decomposition: `nb × nb` equal-ish blocks over the
/// terrain, one lock per block ("ten-by-ten blocking").
#[derive(Debug, Clone, Copy)]
pub struct Blocking {
    nb: usize,
    bw: usize,
    bh: usize,
    x_size: usize,
    y_size: usize,
}

impl Blocking {
    /// Block an `x_size × y_size` grid into `nb × nb` blocks.
    pub fn new(x_size: usize, y_size: usize, nb: usize) -> Self {
        assert!(nb > 0 && x_size > 0 && y_size > 0);
        Self {
            nb,
            bw: x_size.div_ceil(nb),
            bh: y_size.div_ceil(nb),
            x_size,
            y_size,
        }
    }

    /// Number of blocks per side.
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Inclusive cell bounds `(x0, y0, x1, y1)` of block `(bi, bj)`.
    pub fn block_bounds(&self, bi: usize, bj: usize) -> (usize, usize, usize, usize) {
        let x0 = bi * self.bw;
        let y0 = bj * self.bh;
        (
            x0,
            y0,
            ((bi + 1) * self.bw - 1).min(self.x_size - 1),
            ((bj + 1) * self.bh - 1).min(self.y_size - 1),
        )
    }

    /// Indices of blocks whose cells overlap `region`.
    pub fn blocks_overlapping(&self, region: &Region) -> Vec<(usize, usize)> {
        let bi0 = region.x0 / self.bw;
        let bi1 = region.x1 / self.bw;
        let bj0 = region.y0 / self.bh;
        let bj1 = region.y1 / self.bh;
        let mut out = Vec::with_capacity((bi1 - bi0 + 1) * (bj1 - bj0 + 1));
        for bi in bi0..=bi1 {
            for bj in bj0..=bj1 {
                if bi < self.nb && bj < self.nb {
                    out.push((bi, bj));
                }
            }
        }
        out
    }
}

/// A shared `f64` grid whose cells may be written concurrently from
/// different threads *under the block-lock discipline*: relaxed atomics
/// carry the values, the block locks provide the mutual exclusion and
/// ordering the algorithm needs.
struct SharedMaskGrid {
    x_size: usize,
    data: Vec<AtomicU64>,
}

impl SharedMaskGrid {
    fn new_infinite(x_size: usize, y_size: usize) -> Self {
        let bits = f64::INFINITY.to_bits();
        Self {
            x_size,
            data: (0..x_size * y_size).map(|_| AtomicU64::new(bits)).collect(),
        }
    }

    /// Cells `x0..=x1` of row `y`.
    fn row(&self, y: usize, x0: usize, x1: usize) -> &[AtomicU64] {
        &self.data[y * self.x_size + x0..=y * self.x_size + x1]
    }

    fn into_grid(self, y_size: usize) -> Grid<f64> {
        Grid::from_fn(self.x_size, y_size, |x, y| {
            f64::from_bits(self.data[y * self.x_size + x].load(Ordering::Relaxed))
        })
    }
}

/// Per-threat work shared by the host and counting variants: compute the
/// threat's raw altitudes into a scratch array, then merge them into
/// `masking` block by block under the supplied lock/unlock hooks.
fn process_threat<R: Rec>(
    scenario: &TerrainScenario,
    ti: usize,
    blocking: &Blocking,
    masking: &SharedMaskGrid,
    locks: Option<&[Mutex<()>]>,
    r: &mut R,
) {
    let terrain = &scenario.terrain;
    let threat = &scenario.threats[ti];
    let region = Region::of_checked(threat, terrain.x_size(), terrain.y_size());
    r.sync(1); // claim from the work queue (fetch-add)
    r.load(4);
    r.int(8);

    // Working storage (the per-thread temp array and the ring kernel
    // tables) comes from this worker thread's arena, reused across every
    // threat the worker claims.
    KernelArena::with(|arena| {
        let (temp, kern) = arena.split();

        // temp[x][y] = INFINITY over the region of influence.
        temp.reset(&region, f64::INFINITY);
        r.sstore(region.n_cells() as u64);

        // temp[x][y] = maximum safe altitude due to this threat.
        compute_raw_alts_in(
            terrain,
            scenario.cell_size_m,
            threat,
            &region,
            temp,
            kern,
            r,
        );

        // Merge into the shared masking array block by block, locking each
        // block around its overlap.
        for (bi, bj) in blocking.blocks_overlapping(&region) {
            // A poisoned lock still guards its block: the region re-raises
            // the panicking body's payload, not a `PoisonError`.
            let block = locks.map(|l| &l[bi * blocking.nb() + bj]);
            let _guard = block.map(|m| m.lock().unwrap_or_else(PoisonError::into_inner));
            r.sync(2); // lock + unlock
            let (bx0, by0, bx1, by1) = blocking.block_bounds(bi, bj);
            let x0 = bx0.max(region.x0);
            let x1 = bx1.min(region.x1);
            let y0 = by0.max(region.y0);
            let y1 = by1.min(region.y1);
            // One zipped pass per row of the overlap.
            for y in y0..=y1 {
                let shared = masking.row(y, x0, x1).iter();
                for ((m, &elev), &raw) in shared
                    .zip(&terrain.row(y)[x0..=x1])
                    .zip(temp.row(y, x0, x1))
                {
                    let prior = f64::from_bits(m.load(Ordering::Relaxed));
                    m.store(merged(raw, elev, prior).to_bits(), Ordering::Relaxed);
                }
            }
            let n = ((x1 - x0 + 1) * (y1 - y0 + 1)) as u64;
            r.sload(3 * n);
            r.fp(2 * n);
            r.sstore(n);
        }
    });
}

/// Coarse-grained Terrain Masking (Program 4) on real host threads:
/// `n_threads` workers self-schedule over the threats; merges are guarded
/// by `n_blocks × n_blocks` block locks. Per-cell merges commute (min
/// under block locks), so the grid is the same bit-for-bit in whatever
/// order the threats are claimed.
pub fn terrain_masking_coarse_host(
    scenario: &TerrainScenario,
    n_threads: usize,
    n_blocks: usize,
) -> Grid<f64> {
    let terrain = &scenario.terrain;
    let blocking = Blocking::new(terrain.x_size(), terrain.y_size(), n_blocks);
    let masking = SharedMaskGrid::new_infinite(terrain.x_size(), terrain.y_size());
    let locks: Vec<Mutex<()>> = (0..n_blocks * n_blocks).map(|_| Mutex::new(())).collect();

    let n_threats = scenario.threats.len();
    multithreaded_for(0..n_threats, n_threads, |ti| {
        process_threat(scenario, ti, &blocking, &masking, Some(&locks), &mut NoRec);
    });

    masking.into_grid(terrain.y_size())
}

/// Per-threat operation counts of the coarse-grained program (temp init,
/// recurrence, block-locked merge). Thread profiles for *any* worker count
/// are greedy aggregations of this vector — see [`greedy_bins`].
pub fn per_threat_counts(scenario: &TerrainScenario, n_blocks: usize) -> Vec<OpCounts> {
    let terrain = &scenario.terrain;
    let blocking = Blocking::new(terrain.x_size(), terrain.y_size(), n_blocks);
    let masking = SharedMaskGrid::new_infinite(terrain.x_size(), terrain.y_size());
    (0..scenario.threats.len())
        .map(|ti| {
            let mut r = OpCounts::default();
            process_threat(scenario, ti, &blocking, &masking, None, &mut r);
            r
        })
        .collect()
}

/// The deterministic model of dynamic self-scheduling: each item, in claim
/// order, goes to the least-loaded of `n_threads` logical threads. One
/// `OpCounts` per logical thread, in thread order.
pub fn greedy_bins(per_item: &[OpCounts], n_threads: usize) -> Vec<OpCounts> {
    let n = n_threads.max(1);
    let mut bins = vec![OpCounts::default(); n];
    let mut load = vec![0u64; n];
    for c in per_item {
        let t = load
            .iter()
            .enumerate()
            .min_by_key(|&(_, &l)| l)
            .map(|(i, _)| i)
            .unwrap();
        bins[t].add(c);
        load[t] += c.instructions();
    }
    bins
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terrain::scenario::small_scenario;
    use crate::terrain::sequential::terrain_masking_host;

    #[test]
    fn blocking_covers_the_grid_exactly() {
        let b = Blocking::new(100, 100, 10);
        let mut covered = vec![0u32; 100 * 100];
        for bi in 0..10 {
            for bj in 0..10 {
                let (x0, y0, x1, y1) = b.block_bounds(bi, bj);
                for y in y0..=y1 {
                    for x in x0..=x1 {
                        covered[y * 100 + x] += 1;
                    }
                }
            }
        }
        assert!(covered.iter().all(|&c| c == 1));
    }

    #[test]
    fn blocking_handles_non_divisible_sizes() {
        let b = Blocking::new(101, 97, 10);
        let (.., x1, y1) = b.block_bounds(9, 9);
        assert_eq!(x1, 100);
        assert_eq!(y1, 96);
    }

    #[test]
    fn blocks_overlapping_finds_the_right_blocks() {
        let b = Blocking::new(100, 100, 10);
        let region = Region {
            cx: 15,
            cy: 15,
            radius: 10,
            x0: 5,
            y0: 5,
            x1: 25,
            y1: 25,
        };
        let blocks = b.blocks_overlapping(&region);
        // Region spans cells 5..=25 → blocks 0..=2 on each axis.
        assert_eq!(blocks.len(), 9);
        assert!(blocks.contains(&(0, 0)) && blocks.contains(&(2, 2)));
        assert!(!blocks.contains(&(3, 0)));
    }

    #[test]
    fn coarse_host_matches_sequential_bitwise() {
        for seed in [1, 6] {
            let s = small_scenario(seed);
            let seq = terrain_masking_host(&s);
            for threads in [1, 2, 4, 8] {
                let coarse = terrain_masking_coarse_host(&s, threads, 10);
                assert_eq!(coarse, seq, "seed={seed} threads={threads}");
            }
        }
    }

    #[test]
    fn block_count_does_not_change_the_answer() {
        let s = small_scenario(2);
        let seq = terrain_masking_host(&s);
        for blocks in [1, 3, 10, 40] {
            let coarse = terrain_masking_coarse_host(&s, 4, blocks);
            assert_eq!(coarse, seq, "blocks={blocks}");
        }
    }

    #[test]
    fn greedy_assignment_is_reasonably_balanced() {
        let s = small_scenario(4);
        // 12 irregular threats over 3 threads: greedy keeps imbalance
        // (`n_threads * max_thread / total`) well under the worst case.
        let bins = greedy_bins(&per_threat_counts(&s, 10), 3);
        let max = bins.iter().map(OpCounts::instructions).max();
        let total: u64 = bins.iter().map(OpCounts::instructions).sum();
        let imbalance = 3.0 * max.unwrap() as f64 / total as f64;
        assert!((1.0..3.0).contains(&imbalance), "imbalance={imbalance}");
    }

    #[test]
    fn sync_ops_scale_with_block_granularity() {
        // Finer blocking ⇒ more lock acquisitions recorded.
        let s = small_scenario(5);
        let sync_ops = |n_blocks| -> u64 {
            let per_threat = per_threat_counts(&s, n_blocks);
            per_threat.iter().map(|c| c.sync_ops).sum()
        };
        assert!(sync_ops(20) > sync_ops(2));
    }
}
