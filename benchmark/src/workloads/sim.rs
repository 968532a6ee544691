//! `sim-dense` and `sim-sparse`: the same `mta-sim` `Machine` used two
//! ways. Dense runs four kernels on `tera(2)` (2 MB memory) at utilization 0.93–1.0
//! (≈5.8 M simulated instructions), where the interpreter's decode and
//! dispatch do the work; sparse runs 1–8 streams on `tera(1)` at
//! utilization 0.03–0.27 (≈4.8 M instructions over ≈66 M cycles, most of
//! them skipped), where event-horizon fast-forward and wake bookkeeping
//! dominate. A dense-only gain that taxes the sparse path shows as
//! opposite moves. Every `RunResult` must equal the first op's field for
//! field. The seed moves the mixed kernel's data base address (which bank
//! each stream starts on); the kernels' sizes are fixed.

use super::Workload;
use crate::common::{timed_loop, Budget, Env, OpOutcome, Samples};
use crate::trace::Tracer;
use mta_sim::kernels::{
    chunked_scan_kernel, mixed_kernel, ray_sweep_kernel, run_kernel, vector_add_kernel,
};
use mta_sim::{MtaConfig, Program, RunResult};

/// One kernel of a sweep.
pub struct Kernel {
    /// Short name (`mixed`, `scan`, …); the span is `mta_sim.run.<name>`.
    pub name: &'static str,
    span: String,
    cfg: MtaConfig,
    program: Program,
}

/// A sweep of kernels plus the first op's results.
pub struct Sim {
    /// The kernels, in run order.
    pub kernels: Vec<Kernel>,
    /// The first op's result per kernel: the oracle for every later op.
    pub oracle: Vec<RunResult>,
}

fn kernel(name: &'static str, cfg: MtaConfig, program: Program) -> Kernel {
    Kernel {
        name,
        span: format!("mta_sim.run.{name}"),
        cfg,
        program,
    }
}

fn mixed_base(seed: u64) -> i64 {
    100_000 + (seed % 64) as i64
}

/// The published machine with a 2 MB memory: every kernel here fits in
/// 2^18 words, and with the default 2^22 each `run_kernel` would map,
/// fault in and unmap 36 MB — the op would then time the guest kernel's
/// page-fault path (which on the calibration host switches between modes
/// 40 % apart) rather than the simulator.
pub fn machine(n_processors: usize) -> MtaConfig {
    MtaConfig {
        mem_words: 1 << 18,
        ..MtaConfig::tera(n_processors)
    }
}

impl Sim {
    /// The dense sweep's kernels (`mta_sim.asm` span).
    pub fn dense_kernels(seed: u64, tr: &Tracer) -> Vec<Kernel> {
        tr.timed("mta_sim.asm", || {
            let cfg = machine(2);
            vec![
                kernel(
                    "mixed",
                    cfg.clone(),
                    mixed_kernel(256, 2000, 4, mixed_base(seed)),
                ),
                kernel("scan", cfg.clone(), chunked_scan_kernel(800, 300, 256).0),
                kernel("ray", cfg.clone(), ray_sweep_kernel(512, 128, 256).0),
                kernel("vadd", cfg, vector_add_kernel(65536, 256).0),
            ]
        })
        .0
    }

    /// The sparse sweep's kernels (`mta_sim.asm` span).
    pub fn sparse_kernels(seed: u64, tr: &Tracer) -> Vec<Kernel> {
        tr.timed("mta_sim.asm", || {
            [
                (1, "sparse1"),
                (2, "sparse2"),
                (4, "sparse4"),
                (8, "sparse8"),
            ]
            .into_iter()
            .map(|(streams, name)| {
                kernel(
                    name,
                    machine(1),
                    mixed_kernel(streams, 200_000 / streams as i64, 4, mixed_base(seed)),
                )
            })
            .collect()
        })
        .0
    }

    fn run_all(kernels: &[Kernel], tr: &Tracer) -> (Vec<RunResult>, u64) {
        let mut total = 0;
        let results = kernels
            .iter()
            .map(|k| {
                let (cfg, program) = (k.cfg.clone(), k.program.clone());
                let (result, ns) = tr.timed(&k.span, || {
                    // Dropping the machine is part of what a caller pays.
                    let (_machine, result) = run_kernel(cfg, program, &[]);
                    result
                });
                total += ns;
                result
            })
            .collect();
        (results, total)
    }

    /// Run the first op (the oracle) and `warmups` more.
    fn new(kernels: Vec<Kernel>, warmups: usize, tr: &Tracer) -> Result<Self, String> {
        let (oracle, _) = Self::run_all(&kernels, tr);
        let sim = Self { kernels, oracle };
        for _ in 0..warmups {
            sim.op(tr)
                .check
                .map_err(|why| format!("warm-up op failed: {why}"))?;
        }
        Ok(sim)
    }

    /// Simulated instructions per op.
    pub fn instructions(&self) -> u64 {
        self.oracle.iter().map(|r| r.stats.instructions()).sum()
    }

    /// Simulated cycles per op, summed over the kernels.
    pub fn cycles(&self) -> u64 {
        self.oracle.iter().map(|r| r.cycles).sum()
    }

    /// Issued instructions over issue slots, across the whole sweep.
    pub fn utilization(&self) -> f64 {
        let slots: u64 = self
            .oracle
            .iter()
            .zip(&self.kernels)
            .map(|(r, k)| r.cycles * k.cfg.n_processors as u64)
            .sum();
        self.instructions() as f64 / slots as f64
    }

    /// One sweep, checked against the first op's.
    pub fn op(&self, tr: &Tracer) -> OpOutcome {
        let (results, ns) = Self::run_all(&self.kernels, tr);
        let wrong: Vec<&str> = results
            .iter()
            .zip(&self.oracle)
            .zip(&self.kernels)
            .filter(|((got, want), _)| got != want)
            .map(|(_, k)| k.name)
            .collect();
        OpOutcome {
            ns,
            work: self.instructions() as f64,
            check: if wrong.is_empty() {
                Ok(())
            } else {
                Err(format!("RunResult differs from the first op's: {wrong:?}"))
            },
        }
    }

    fn measure(&self, budget: Budget, tr: &Tracer) -> Samples {
        timed_loop(budget, tr, || self.op(tr))
    }
}

/// The `sim-dense` workload.
pub struct SimDense(pub Sim);

/// The `sim-sparse` workload.
pub struct SimSparse(pub Sim);

impl Workload for SimDense {
    fn setup(seed: u64, _env: &Env, tr: &Tracer) -> Result<Self, String> {
        Sim::new(Sim::dense_kernels(seed, tr), 2, tr).map(Self)
    }
    fn measure(&mut self, budget: Budget, tr: &Tracer) -> Samples {
        self.0.measure(budget, tr)
    }
}

impl Workload for SimSparse {
    fn setup(seed: u64, _env: &Env, tr: &Tracer) -> Result<Self, String> {
        Sim::new(Sim::sparse_kernels(seed, tr), 6, tr).map(Self)
    }
    fn measure(&mut self, budget: Budget, tr: &Tracer) -> Samples {
        self.0.measure(budget, tr)
    }
}
