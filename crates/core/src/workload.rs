//! Benchmark operation profiles, obtained once per workload and reused by
//! every experiment configuration.
//!
//! Everything the tables sweep — chunk counts (Table 6), processor counts
//! (Tables 3, 4, 9, 10), scheduling — is an *aggregation* of per-threat
//! operation counts, so the workload holds per-threat counts once per
//! scenario and the sweep configurations are assembled in microseconds.
//!
//! The counts are what the benchmark programs record under `c3i`'s
//! counting backend, but the workload does not run the programs to learn
//! them: Terrain Masking's annotations depend on ring geometry only and a
//! Threat Analysis step's cost on which exit of the interception
//! predicate it takes, so `c3i` counts both directly (one task per
//! scenario; no terrain is synthesized — the Terrain Masking threats are
//! drawn by seeking the scenario's random stream past the elevations).
//! The recorded programs are the oracle the counters are tested against,
//! not a second way to build.
//!
//! Two scales exist: [`WorkloadScale::Paper`] is the benchmark scale the
//! paper states (5 scenarios, 1000 threats for Threat Analysis, 60 threats
//! on a 1024² terrain for Terrain Masking); [`WorkloadScale::Reduced`] is
//! a proportionally smaller workload for tests and quick runs. Because
//! the calibration fits the workload-size factor to the paper's sequential
//! rows (see `calibrate`), both scales reproduce the same tables — the
//! Paper scale is the honest default for the `repro` binary.

use c3i::terrain::{self, TerrainOps, TerrainScenarioParams};
use c3i::threat::{self, ThreatOps, ThreatScenarioParams};
use c3i::{PhasedProfile, Profile};
use sthreads::{chunk_range, par_map, OpCounts, OpRecorder, ThreadCounts, ThreadPool};

/// Workload size selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum WorkloadScale {
    /// The paper's stated benchmark scale.
    Paper,
    /// A smaller, faster workload with the same structure.
    Reduced,
}

/// The block decomposition the paper uses for coarse-grained Terrain
/// Masking ("ten-by-ten blocking").
pub const TM_BLOCKS: usize = 10;

/// Measured operation profiles for the full benchmark suite (all
/// scenarios of both problems).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Workload {
    /// Which scale was measured.
    pub scale: WorkloadScale,
    /// Per-scenario, per-threat Threat Analysis counts.
    pub ta_per_threat: Vec<Vec<OpCounts>>,
    /// Per-scenario sequential Threat Analysis profiles (Program 1).
    pub ta_seq: Vec<Profile>,
    /// Per-scenario, per-threat coarse Terrain Masking counts (Program 4
    /// work items, 10×10 blocking).
    pub tm_per_threat: Vec<Vec<OpCounts>>,
    /// Per-scenario sequential Terrain Masking profiles (Program 3).
    pub tm_seq: Vec<Profile>,
    /// Per-scenario fine-grained Terrain Masking phased profiles.
    pub tm_fine: Vec<PhasedProfile>,
    /// Serial (init) op counts per Terrain Masking scenario — the masking
    /// initialization Program 4 performs before its parallel region.
    pub tm_serial: Vec<OpCounts>,
}

/// Generation parameters of the Threat Analysis suite at `scale`, in
/// scenario order.
pub fn ta_params(scale: WorkloadScale) -> Vec<ThreatScenarioParams> {
    match scale {
        WorkloadScale::Paper => threat::benchmark_params().collect(),
        // Reduced keeps the paper's 1000 threats per scenario (the
        // chunk-balance statistics of Tables 3-6 depend on it) and saves
        // time on the weapon count instead.
        WorkloadScale::Reduced => (1..=5)
            .map(|seed| ThreatScenarioParams {
                n_threats: 1000,
                n_weapons: 3,
                seed,
                theater_m: 400_000.0,
                launch_window_s: 900.0,
            })
            .collect(),
    }
}

/// Generation parameters of the Terrain Masking suite at `scale`, in
/// scenario order.
pub fn tm_params(scale: WorkloadScale) -> Vec<TerrainScenarioParams> {
    match scale {
        WorkloadScale::Paper => terrain::benchmark_params().collect(),
        // Reduced keeps the paper's *shape*: threat density relative to
        // grid area stays at the paper's level (so the serial-init share
        // of the traffic is representative), and regions of influence
        // still span hundreds of cells (so the fine-grained ring widths
        // remain wide relative to the MTA's latency).
        WorkloadScale::Reduced => (1..=5)
            .map(|seed| TerrainScenarioParams {
                grid_size: 512,
                n_threats: 30,
                seed,
                ..Default::default()
            })
            .collect(),
    }
}

/// One task's output in [`Workload::build_with`]: every measurement of
/// one scenario.
enum Measured {
    Ta(ThreatOps),
    Tm { grid_cells: u64, ops: TerrainOps },
}

impl Workload {
    /// Obtain the workload at `scale`: generate what each scenario's counts
    /// depend on and count what the benchmark programs would record on it
    /// (under a tenth of a second at Paper scale on two cores, most of it
    /// the Threat Analysis exit histogram). One task per scenario, run
    /// across all host processors — on the process-wide persistent pool,
    /// so back-to-back builds pay condvar wakeups rather than thread
    /// spawns — with dynamic self-scheduling; results are identical to
    /// the sequential path.
    pub fn build(scale: WorkloadScale) -> Self {
        Self::build_with(scale, ThreadPool::global().n_threads())
    }

    /// [`Workload::build`] with an explicit worker count.
    ///
    /// Nothing here runs a benchmark under a recorder. The counts come
    /// from `c3i`'s two counters — [`terrain::op_profile`] (ring geometry;
    /// it never reads the terrain) and [`threat::op_profile`] (a histogram
    /// of predicate exits per pair) — which are held equal, field by
    /// field, to the recorded programs by `c3i`'s differential tests, the
    /// fuzz runner and `tests/parallel_oracle.rs`.
    ///
    /// Counting is deterministic and every task writes into its own slot
    /// ([`par_map`]), so the result is **bit-identical** for every
    /// `n_threads` — the paper's own requirement that parallelization
    /// must not change program output, applied to our harness.
    /// `n_threads == 1` is the sequential oracle the regression tests
    /// compare against.
    pub fn build_with(scale: WorkloadScale, n_threads: usize) -> Self {
        let (ta, tm) = (ta_params(scale), tm_params(scale));

        // One task per scenario, generation included. A terrain's threats
        // are drawn from the same random stream after its elevations;
        // `generate_threats` seeks there, so no elevation is computed.
        // Scenario sizes vary (irregular work — the paper's case for
        // self-scheduling, which is what `par_map` does).
        let results = par_map(ta.len() + tm.len(), n_threads, |t| {
            match t.checked_sub(ta.len()) {
                None => Measured::Ta(threat::op_profile(&threat::generate(ta[t]))),
                Some(t) => {
                    let (xs, ys, threats) = terrain::generate_threats(tm[t]);
                    Measured::Tm {
                        grid_cells: (xs * ys) as u64,
                        ops: terrain::op_profile(xs, ys, &threats, TM_BLOCKS),
                    }
                }
            }
        });

        // `par_map` returns task outputs in task order, so each vector
        // assembles in scenario order.
        let mut w = Self {
            scale,
            ta_per_threat: Vec::with_capacity(ta.len()),
            ta_seq: Vec::with_capacity(ta.len()),
            tm_per_threat: Vec::with_capacity(tm.len()),
            tm_seq: Vec::with_capacity(tm.len()),
            tm_fine: Vec::with_capacity(tm.len()),
            tm_serial: Vec::with_capacity(tm.len()),
        };
        for measured in results {
            match measured {
                Measured::Ta(ops) => {
                    w.ta_per_threat.push(ops.per_threat);
                    w.ta_seq.push(ops.seq);
                }
                Measured::Tm { grid_cells, ops } => {
                    w.tm_per_threat.push(ops.coarse_per_threat);
                    w.tm_seq.push(ops.seq);
                    w.tm_fine.push(ops.fine);
                    let mut init = OpRecorder::new();
                    init.sstore(grid_cells);
                    init.int(2 * (TM_BLOCKS * TM_BLOCKS) as u64);
                    w.tm_serial.push(init.counts());
                }
            }
        }
        w
    }

    /// Number of scenarios in the suite.
    pub fn n_scenarios(&self) -> usize {
        self.ta_per_threat.len()
    }

    /// Per-scenario chunked Threat Analysis profiles (Program 2) with
    /// `n_chunks` chunks: per-threat counts grouped by the paper's
    /// blocking expression, plus the spawn prologue.
    pub fn ta_chunked(&self, n_chunks: usize) -> Vec<Profile> {
        self.ta_per_threat
            .iter()
            .map(|per_threat| {
                let n = per_threat.len();
                let chunks: Vec<OpCounts> = (0..n_chunks)
                    .map(|c| {
                        let r = chunk_range(c, n, n_chunks);
                        per_threat[r].iter().copied().sum()
                    })
                    .collect();
                let mut serial = OpRecorder::new();
                serial.int(2 * n_chunks as u64);
                serial.spawn(n_chunks as u64);
                Profile {
                    serial: serial.counts(),
                    parallel: ThreadCounts::new(chunks),
                }
            })
            .collect()
    }

    /// Per-scenario coarse Terrain Masking profiles (Program 4) with
    /// `n_threads` self-scheduled workers over 10×10 blocks.
    pub fn tm_coarse(&self, n_threads: usize) -> Vec<Profile> {
        self.tm_per_threat
            .iter()
            .zip(&self.tm_serial)
            .map(|(per_threat, &init)| {
                let mut serial = OpRecorder::new();
                serial.spawn(n_threads as u64);
                Profile {
                    serial: init.merged(&serial.counts()),
                    parallel: terrain::greedy_bins(per_threat, n_threads),
                }
            })
            .collect()
    }

    /// Suite-total Threat Analysis sequential operation counts.
    pub fn ta_total(&self) -> OpCounts {
        self.ta_seq.iter().map(|p| p.total()).sum()
    }

    /// Suite-total Terrain Masking sequential operation counts.
    pub fn tm_total(&self) -> OpCounts {
        self.tm_seq.iter().map(|p| p.total()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// Build the reduced workload once for every test in this module.
    pub(crate) fn reduced() -> &'static Workload {
        static W: OnceLock<Workload> = OnceLock::new();
        W.get_or_init(|| Workload::build(WorkloadScale::Reduced))
    }

    #[test]
    fn suite_has_five_scenarios() {
        assert_eq!(reduced().n_scenarios(), 5);
    }

    #[test]
    fn seeked_threats_equal_the_generated_scenarios_threats() {
        for p in tm_params(WorkloadScale::Reduced) {
            let s = terrain::generate(p);
            assert_eq!(
                terrain::generate_threats(p),
                (s.terrain.x_size(), s.terrain.y_size(), s.threats),
                "seed {}",
                p.seed
            );
        }
    }

    #[test]
    fn chunked_profiles_conserve_work() {
        let w = reduced();
        for n_chunks in [1usize, 4, 16, 256] {
            let chunked = w.ta_chunked(n_chunks);
            for (s, profile) in chunked.iter().enumerate() {
                let direct: OpCounts = w.ta_per_threat[s].iter().copied().sum();
                assert_eq!(
                    profile.parallel.total().instructions(),
                    direct.instructions(),
                    "scenario {s}, {n_chunks} chunks"
                );
                assert_eq!(profile.n_logical_threads(), n_chunks);
            }
        }
    }

    #[test]
    fn sequential_profile_is_the_sum_of_the_per_threat_counts() {
        // Program 1 is `num_intervals = 0` plus the per-threat loop
        // bodies, exactly: the workload counts each pair once and relies
        // on this to give both measurements.
        let w = reduced();
        for s in 0..w.n_scenarios() {
            let mut expected: OpCounts = w.ta_per_threat[s].iter().copied().sum();
            expected.int_ops += 1;
            assert_eq!(w.ta_seq[s].serial, OpCounts::default(), "scenario {s}");
            assert_eq!(
                w.ta_seq[s].parallel.per_thread(),
                [expected],
                "scenario {s}"
            );
        }
    }

    #[test]
    fn coarse_bins_balance_reasonably() {
        let w = reduced();
        for profile in w.tm_coarse(4) {
            let imb = profile.parallel.imbalance();
            assert!((1.0..2.0).contains(&imb), "imbalance {imb}");
        }
    }

    #[test]
    fn ta_is_compute_bound_and_tm_memory_bound() {
        let w = reduced();
        assert!(w.ta_total().stream_fraction() < 0.02);
        assert!(w.tm_total().stream_fraction() > 0.15);
    }

    #[test]
    fn fine_profiles_have_many_phases() {
        let w = reduced();
        for p in &w.tm_fine {
            assert!(p.n_phases() > 50, "phases: {}", p.n_phases());
            assert!(p.weighted_width() > 50.0);
        }
    }
}
