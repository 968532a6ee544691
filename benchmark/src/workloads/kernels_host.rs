//! `kernels-host`: the same c3i code as `paper-cold`, but through the
//! `NoRec` full-speed instantiation and through the `sthreads` pool. One
//! op sweeps the five paper-scale scenarios of each problem through the
//! six paper program variants — 26 scenario-variant evaluations, the
//! fine-grained Terrain Masking (≈4 400 two-wide pool regions) on
//! scenario 1 only — and compares every output with the sequential
//! kernel's. The paper fixes the scenarios (generator seeds 1–5); the
//! benchmark seed permutes the order they are evaluated in.

use super::Workload;
use crate::common::{timed_loop, Budget, Env, OpOutcome, Samples, SplitMix64, WIDTH};
use crate::trace::Tracer;
use c3i::terrain::{self, TerrainScenario};
use c3i::threat::{self, Interval, ThreatScenario};
use c3i::Grid;

/// Chunks of the chunked Threat Analysis (Program 2).
const TA_CHUNKS: usize = 64;
/// The paper's ten-by-ten blocking of coarse Terrain Masking (Program 4).
const TM_BLOCKS: usize = 10;

/// The six paper program variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Program 1, sequential Threat Analysis.
    TaSeq,
    /// Program 2, chunked Threat Analysis.
    TaChunked,
    /// Fine-grained Threat Analysis (fetch-add slot allocation).
    TaFine,
    /// Program 3, sequential Terrain Masking.
    TmSeq,
    /// Program 4, coarse-grained Terrain Masking under block locks.
    TmCoarse,
    /// Fine-grained Terrain Masking (one pool region per ring).
    TmFine,
}

impl Variant {
    /// The span (and per-layer metric stem) of this variant.
    pub fn span(self) -> &'static str {
        match self {
            Variant::TaSeq => "c3i.ta_seq",
            Variant::TaChunked => "c3i.ta_chunked2",
            Variant::TaFine => "c3i.ta_fine2",
            Variant::TmSeq => "c3i.tm_seq",
            Variant::TmCoarse => "c3i.tm_coarse2",
            Variant::TmFine => "c3i.tm_fine2",
        }
    }
}

/// State of the `kernels-host` workload.
pub struct KernelsHost {
    ta: Vec<ThreatScenario>,
    tm: Vec<TerrainScenario>,
    /// Sequential-kernel output per scenario, computed once at set-up.
    ta_oracle: Vec<Vec<Interval>>,
    tm_oracle: Vec<Grid<f64>>,
    /// The 26 evaluations of one op, in seeded order.
    order: Vec<(Variant, usize)>,
}

/// Bit-for-bit grid equality (`==` would let `-0.0`/`0.0` through and
/// reject equal NaNs).
fn same_bits(a: &Grid<f64>, b: &Grid<f64>) -> bool {
    a.x_size() == b.x_size()
        && a.y_size() == b.y_size()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

impl KernelsHost {
    /// Run one evaluation; returns its wall time and whether the output
    /// equals the sequential kernel's.
    fn evaluate(&self, variant: Variant, i: usize, tr: &Tracer) -> (u64, bool) {
        let name = variant.span();
        match variant {
            Variant::TaSeq => {
                let (out, ns) = tr.timed(name, || threat::threat_analysis_host(&self.ta[i]));
                (ns, out == self.ta_oracle[i])
            }
            Variant::TaChunked => {
                let (out, ns) = tr.timed(name, || {
                    threat::threat_analysis_chunked_host(&self.ta[i], TA_CHUNKS, WIDTH)
                });
                (ns, out.flatten() == self.ta_oracle[i])
            }
            Variant::TaFine => {
                let (out, ns) = tr.timed(name, || {
                    threat::threat_analysis_fine_host(&self.ta[i], WIDTH)
                });
                let same = threat::canonical(out.intervals)
                    == threat::canonical(self.ta_oracle[i].clone());
                (ns, same)
            }
            Variant::TmSeq => {
                let (out, ns) = tr.timed(name, || terrain::terrain_masking_host(&self.tm[i]));
                (ns, same_bits(&out, &self.tm_oracle[i]))
            }
            Variant::TmCoarse => {
                let (out, ns) = tr.timed(name, || {
                    terrain::terrain_masking_coarse_host(&self.tm[i], WIDTH, TM_BLOCKS)
                });
                (ns, same_bits(&out, &self.tm_oracle[i]))
            }
            Variant::TmFine => {
                let (out, ns) = tr.timed(name, || {
                    terrain::terrain_masking_fine_host(&self.tm[i], WIDTH)
                });
                (ns, same_bits(&out, &self.tm_oracle[i]))
            }
        }
    }

    /// One sweep: the op time is the sum of the kernel calls, so the
    /// output comparisons are not part of it.
    pub fn op(&self, tr: &Tracer) -> OpOutcome {
        let mut ns = 0;
        let mut wrong = Vec::new();
        for &(variant, i) in &self.order {
            let (t, same) = self.evaluate(variant, i, tr);
            ns += t;
            if !same {
                wrong.push(format!("{}[{i}]", variant.span()));
            }
        }
        OpOutcome {
            ns,
            work: self.order.len() as f64,
            check: if wrong.is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "output differs from the sequential kernel: {wrong:?}"
                ))
            },
        }
    }
}

impl Workload for KernelsHost {
    fn setup(seed: u64, _env: &Env, tr: &Tracer) -> Result<Self, String> {
        let ((ta, tm), _) = tr.timed("c3i.scenario_gen", || {
            (threat::benchmark_suite(), terrain::benchmark_suite())
        });
        let ta_oracle = ta.iter().map(threat::threat_analysis_host).collect();
        let tm_oracle = tm.iter().map(terrain::terrain_masking_host).collect();
        let mut order = Vec::new();
        for i in 0..ta.len() {
            order.extend([Variant::TaSeq, Variant::TaChunked, Variant::TaFine].map(|v| (v, i)));
        }
        for i in 0..tm.len() {
            order.extend([Variant::TmSeq, Variant::TmCoarse].map(|v| (v, i)));
        }
        order.push((Variant::TmFine, 0));
        SplitMix64(seed).shuffle(&mut order);
        let w = Self {
            ta,
            tm,
            ta_oracle,
            tm_oracle,
            order,
        };
        sthreads::ThreadPool::global().warm(WIDTH);
        w.op(tr)
            .check
            .map_err(|why| format!("warm-up op failed: {why}"))?;
        Ok(w)
    }

    fn measure(&mut self, budget: Budget, tr: &Tracer) -> Samples {
        timed_loop(budget, tr, || self.op(tr))
    }
}
