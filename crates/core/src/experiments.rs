//! The paper's experiments: one generator per table shape, and the list
//! of tables and figures they fill.
//!
//! Every generator returns a [`Table`] whose value cells carry both the
//! model's number and the paper's published number (from
//! [`crate::paper`]), so the rendered output *is* the
//! paper-vs-reproduction comparison. The Threat Analysis and Terrain
//! Masking twins share one generator per shape and differ only in the
//! data they pass it. Figures 1–4 are the speedup curves of Tables 3, 4,
//! 9, 10; [`Experiments::figure`] renders them as ASCII plots and exposes
//! the raw series for the benchmark harness.

use crate::calibrate::{calibrate, Calibration};
use crate::models::ConventionalModel;
use crate::paper::{self, ALPHA, EXEMPLAR, MACHINES, PPRO, TABLE5_CHUNKS, TERA};
use crate::tables::{ascii_speedup_figure, Cell, Table};
use crate::workload::{chunk_prologue, Workload};
use c3i::Profile;
use sthreads::{par_map, ThreadPool};

/// Every paper table, in paper order: `TABLES[n - 1]` generates Table `n`.
/// The twins of one shape share a generator and differ only in its data.
pub const TABLES: [fn(&Experiments) -> Table; 12] = [
    Experiments::table1,
    |e| e.sequential_table(&TA_SEQ),
    |e| e.scaling_table(&TA_PPRO),
    |e| e.scaling_table(&TA_EXEMPLAR),
    |e| e.scaling_table(&TA_TERA),
    Experiments::table6,
    Experiments::table7,
    |e| e.sequential_table(&TM_SEQ),
    |e| e.scaling_table(&TM_PPRO),
    |e| e.scaling_table(&TM_EXEMPLAR),
    |e| e.scaling_table(&TM_TERA),
    |e| e.summary_table(&TM_SUMMARY),
];

/// Which figure to render/extract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Figure 1: Threat Analysis speedup on the Pentium Pro.
    ThreatPPro,
    /// Figure 2: Threat Analysis speedup on the Exemplar.
    ThreatExemplar,
    /// Figure 3: Terrain Masking speedup on the Pentium Pro.
    TerrainPPro,
    /// Figure 4: Terrain Masking speedup on the Exemplar.
    TerrainExemplar,
}

impl Figure {
    /// Every figure, in paper order: `Figure::ALL[n - 1]` is Figure `n`.
    pub const ALL: [Figure; 4] = [
        Figure::ThreatPPro,
        Figure::ThreatExemplar,
        Figure::TerrainPPro,
        Figure::TerrainExemplar,
    ];

    /// The figure's id and caption, and the table whose speedups it plots.
    fn spec(self) -> (&'static str, &'static str, &'static Scaling) {
        match self {
            Figure::ThreatPPro => (
                "Figure 1",
                "Speedup of multithreaded Threat Analysis on quad Pentium Pro",
                &TA_PPRO,
            ),
            Figure::ThreatExemplar => (
                "Figure 2",
                "Speedup of multithreaded Threat Analysis on 16-processor Exemplar",
                &TA_EXEMPLAR,
            ),
            Figure::TerrainPPro => (
                "Figure 3",
                "Speedup of coarse-grained Terrain Masking on quad Pentium Pro",
                &TM_PPRO,
            ),
            Figure::TerrainExemplar => (
                "Figure 4",
                "Speedup of multithreaded Terrain Masking on 16-processor Exemplar",
                &TM_EXEMPLAR,
            ),
        }
    }
}

// ── the tables as data ───────────────────────────────────────────────────
//
// One value per table shape and benchmark; the generators below never ask
// which table they are building.

/// Tables 2 and 8: one benchmark's sequential seconds on each platform.
struct Sequential {
    id: &'static str,
    title: &'static str,
    /// Modeled seconds, in [`MACHINES`] order.
    model: fn(&Experiments) -> [f64; 4],
    paper: &'static [f64; 4],
}

/// Tables 3–5 and 9–11: one benchmark's seconds and speedups against the
/// processor count on one platform.
struct Scaling {
    id: &'static str,
    title: &'static str,
    /// The first header, spelled as the paper spells it in this table.
    procs_header: &'static str,
    /// The sequential table and the platform's index in it: the first
    /// row and the speedup baseline. `None` makes the first processor row
    /// the baseline.
    seq: Option<(&'static Sequential, usize)>,
    /// `(processors, published seconds)`, one per row.
    paper: &'static [(usize, f64)],
    /// Modeled seconds on `n` processors.
    time: fn(&Experiments, usize) -> f64,
}

/// Tables 7 and 12: one benchmark without, with automatic and with manual
/// parallelization, every cell read from the detail tables.
struct Summary {
    id: &'static str,
    title: &'static str,
    seq: &'static Sequential,
    ppro: &'static Scaling,
    exemplar: &'static Scaling,
    tera: &'static Scaling,
}

const CONV_PROCS: &str = "Number of processors";
const TERA_PROCS: &str = "Number of Processors";

const TA_SEQ: Sequential = Sequential {
    id: "Table 2",
    title: "Execution time of sequential Threat Analysis without parallelization",
    model: Experiments::ta_seq_secs,
    paper: &paper::TABLE2,
};

const TA_PPRO: Scaling = Scaling {
    id: "Table 3",
    title: "Multithreaded Threat Analysis on quad-processor Pentium Pro",
    procs_header: CONV_PROCS,
    seq: Some((&TA_SEQ, PPRO)),
    paper: &paper::TABLE3,
    time: |e, n| e.ta_conv_parallel(&e.cal.ppro, n),
};

const TA_EXEMPLAR: Scaling = Scaling {
    id: "Table 4",
    title: "Multithreaded Threat Analysis on 16-processor Exemplar",
    procs_header: CONV_PROCS,
    seq: Some((&TA_SEQ, EXEMPLAR)),
    paper: &paper::TABLE4,
    time: |e, n| e.ta_conv_parallel(&e.cal.exemplar, n),
};

const TA_TERA: Scaling = Scaling {
    id: "Table 5",
    title: "Multithreaded Threat Analysis on dual-processor Tera MTA (256 chunks)",
    procs_header: TERA_PROCS,
    seq: None,
    paper: &paper::TABLE5,
    time: |e, n| e.ta_tera(TABLE5_CHUNKS, n),
};

const TA_SUMMARY: Summary = Summary {
    id: "Table 7",
    title: "Performance comparison for execution times of Threat Analysis",
    seq: &TA_SEQ,
    ppro: &TA_PPRO,
    exemplar: &TA_EXEMPLAR,
    tera: &TA_TERA,
};

const TM_SEQ: Sequential = Sequential {
    id: "Table 8",
    title: "Execution time of sequential Terrain Masking without parallelization",
    model: Experiments::tm_seq_secs,
    paper: &paper::TABLE8,
};

const TM_PPRO: Scaling = Scaling {
    id: "Table 9",
    title: "Multithreaded Terrain Masking on quad-processor Pentium Pro (10x10 blocking)",
    procs_header: CONV_PROCS,
    seq: Some((&TM_SEQ, PPRO)),
    paper: &paper::TABLE9,
    time: |e, n| e.tm_conv_parallel(&e.cal.ppro, n),
};

const TM_EXEMPLAR: Scaling = Scaling {
    id: "Table 10",
    title: "Multithreaded Terrain Masking on 16-processor Exemplar (10x10 blocking)",
    procs_header: CONV_PROCS,
    seq: Some((&TM_SEQ, EXEMPLAR)),
    paper: &paper::TABLE10,
    time: |e, n| e.tm_conv_parallel(&e.cal.exemplar, n),
};

const TM_TERA: Scaling = Scaling {
    id: "Table 11",
    title: "Multithreaded (fine-grained) Terrain Masking on dual-processor Tera MTA",
    procs_header: TERA_PROCS,
    seq: None,
    paper: &paper::TABLE11,
    time: Experiments::tm_tera,
};

const TM_SUMMARY: Summary = Summary {
    id: "Table 12",
    title: "Performance comparison for execution times of Terrain Masking",
    seq: &TM_SEQ,
    ppro: &TM_PPRO,
    exemplar: &TM_EXEMPLAR,
    tera: &TM_TERA,
};

/// The full experiment harness: a measured workload plus calibrated
/// models.
pub struct Experiments {
    /// The measured workload profiles.
    pub workload: Workload,
    /// The calibrated models.
    pub cal: Calibration,
}

impl Experiments {
    /// Calibrate models against `workload` and wrap both.
    pub fn new(workload: Workload) -> Self {
        let cal = calibrate(&workload);
        Self { workload, cal }
    }

    // ── shared helpers ───────────────────────────────────────────────────
    //
    // The model sums are functions of a workload and a calibration; the
    // `&self` methods pass the harness's own, `sensitivity` a perturbed
    // calibration over the same borrowed workload.

    fn sum_seq(model: &ConventionalModel, profiles: &[Profile], scale: f64) -> f64 {
        profiles.iter().map(|p| model.seq_seconds(p, scale)).sum()
    }

    fn sum_par(
        model: &ConventionalModel,
        profiles: impl IntoIterator<Item = Profile>,
        n: usize,
        scale: f64,
    ) -> f64 {
        profiles
            .into_iter()
            .map(|p| model.parallel_seconds(&p, n, scale))
            .sum()
    }

    /// Modeled sequential Threat Analysis seconds on each platform.
    pub fn ta_seq_secs(&self) -> [f64; 4] {
        let w = &self.workload;
        let c = &self.cal;
        [
            Self::sum_seq(&c.alpha, &w.ta_seq, c.s_ta),
            Self::sum_seq(&c.ppro, &w.ta_seq, c.s_ta),
            Self::sum_seq(&c.exemplar, &w.ta_seq, c.s_ta),
            w.ta_seq.iter().map(|p| c.tera.seq_seconds(p, c.s_ta)).sum(),
        ]
    }

    /// Modeled sequential Terrain Masking seconds on each platform.
    pub fn tm_seq_secs(&self) -> [f64; 4] {
        let w = &self.workload;
        let c = &self.cal;
        [
            Self::sum_seq(&c.alpha, &w.tm_seq, c.s_tm),
            Self::sum_seq(&c.ppro, &w.tm_seq, c.s_tm),
            Self::sum_seq(&c.exemplar, &w.tm_seq, c.s_tm),
            w.tm_seq.iter().map(|p| c.tera.seq_seconds(p, c.s_tm)).sum(),
        ]
    }

    /// Modeled chunked Threat Analysis seconds on a conventional SMP with
    /// one chunk/thread per processor (the paper's configuration).
    pub fn ta_conv_parallel(&self, model: &ConventionalModel, n_procs: usize) -> f64 {
        Self::ta_conv_parallel_of(&self.workload, &self.cal, model, n_procs)
    }

    fn ta_conv_parallel_of(
        w: &Workload,
        cal: &Calibration,
        model: &ConventionalModel,
        n_procs: usize,
    ) -> f64 {
        Self::sum_par(model, w.ta_chunked(n_procs), n_procs, cal.s_ta)
    }

    /// Modeled chunked Threat Analysis seconds on the Tera. Zero chunks or
    /// zero processors never finish the work: `f64::INFINITY`.
    pub fn ta_tera(&self, n_chunks: usize, n_procs: usize) -> f64 {
        Self::ta_tera_of(&self.workload, &self.cal, n_chunks, n_procs)
    }

    fn ta_tera_of(w: &Workload, cal: &Calibration, n_chunks: usize, n_procs: usize) -> f64 {
        let prologue = chunk_prologue(n_chunks);
        w.ta_per_threat
            .iter()
            .map(|per_threat| {
                cal.tera
                    .chunked_seconds(&prologue, per_threat, n_chunks, n_procs, cal.s_ta)
            })
            .sum()
    }

    /// Modeled coarse Terrain Masking seconds on a conventional SMP.
    pub fn tm_conv_parallel(&self, model: &ConventionalModel, n_procs: usize) -> f64 {
        Self::sum_par(
            model,
            self.workload.tm_coarse(n_procs),
            n_procs,
            self.cal.s_tm,
        )
    }

    /// Modeled fine-grained Terrain Masking seconds on the Tera. Zero
    /// processors never finish the work: `f64::INFINITY`.
    pub fn tm_tera(&self, n_procs: usize) -> f64 {
        Self::tm_tera_of(&self.workload, &self.cal, n_procs)
    }

    fn tm_tera_of(w: &Workload, cal: &Calibration, n_procs: usize) -> f64 {
        w.tm_fine
            .iter()
            .map(|p| cal.tera.phased_seconds(p, n_procs, cal.s_tm))
            .sum()
    }

    // ── one generator per table shape ────────────────────────────────────

    fn sequential_table(&self, s: &Sequential) -> Table {
        Table {
            id: s.id.into(),
            title: s.title.into(),
            headers: vec!["Platform".into(), "Time (seconds)".into()],
            rows: MACHINES
                .iter()
                .zip((s.model)(self))
                .zip(s.paper)
                .map(|((m, secs), &p)| vec![Cell::text(m.name), Cell::val(secs, p)])
                .collect(),
        }
    }

    /// `s`'s speedup baseline as `(model, paper)` seconds, and its rows as
    /// `(processors, model, paper)` seconds.
    #[allow(clippy::type_complexity)] // (baseline, rows); named once, here
    fn scaling_points(&self, s: &Scaling) -> ((f64, f64), Vec<(usize, f64, f64)>) {
        let points: Vec<_> = s
            .paper
            .iter()
            .map(|&(n, p)| (n, (s.time)(self, n), p))
            .collect();
        let base = match s.seq {
            Some((seq, i)) => ((seq.model)(self)[i], seq.paper[i]),
            None => (points[0].1, points[0].2),
        };
        (base, points)
    }

    fn scaling_table(&self, s: &Scaling) -> Table {
        let ((base_m, base_p), points) = self.scaling_points(s);
        let seq_row = s.seq.map(|_| {
            vec![
                Cell::text("Sequential"),
                Cell::val(base_m, base_p),
                Cell::text("N.A."),
            ]
        });
        let rows = seq_row.into_iter().chain(points.iter().map(|&(n, m, p)| {
            vec![
                Cell::text(n.to_string()),
                Cell::val(m, p),
                Cell::val(base_m / m, base_p / p),
            ]
        }));
        Table {
            id: s.id.into(),
            title: s.title.into(),
            headers: vec![
                s.procs_header.into(),
                "Time (seconds)".into(),
                "Speedup".into(),
            ],
            rows: rows.collect(),
        }
    }

    fn summary_table(&self, s: &Summary) -> Table {
        let seq = (s.seq.model)(self);
        let none = |i: usize| (MACHINES[i].name.to_string(), seq[i], s.seq.paper[i]);
        let manual = |name: &str, spec: &Scaling, n: usize| {
            let plural = if n == 1 { "" } else { "s" };
            (
                format!("{name} ({n} processor{plural})"),
                (spec.time)(self, n),
                paper::at(spec.paper, n),
            )
        };
        let (ppro, exemplar, tera) = (&MACHINES[PPRO], &MACHINES[EXEMPLAR], &MACHINES[TERA]);
        let groups = [
            (
                "None",
                vec![none(ALPHA), none(PPRO), none(EXEMPLAR), none(TERA)],
            ),
            ("Automatic", vec![none(EXEMPLAR), none(TERA)]),
            (
                "Manual",
                vec![
                    manual(ppro.name, s.ppro, ppro.processors),
                    manual(exemplar.name, s.exemplar, 4),
                    manual(exemplar.name, s.exemplar, 8),
                    manual(exemplar.name, s.exemplar, exemplar.processors),
                    manual(tera.machine, s.tera, 1),
                    manual(tera.machine, s.tera, tera.processors),
                ],
            ),
        ];
        let rows = groups.into_iter().flat_map(|(group, rows)| {
            rows.into_iter()
                .enumerate()
                .map(move |(i, (platform, m, p))| {
                    vec![
                        Cell::text(if i == 0 { group } else { "" }),
                        Cell::text(platform),
                        Cell::val(m, p),
                    ]
                })
        });
        Table {
            id: s.id.into(),
            title: s.title.into(),
            headers: vec![
                "Parallelization".into(),
                "Platform".into(),
                "Time (seconds)".into(),
            ],
            rows: rows.collect(),
        }
    }

    // ── the tables with a shape of their own ─────────────────────────────

    /// Table 1: the platforms (from the paper, annotated with what stands
    /// in for each here).
    fn table1(&self) -> Table {
        const REPRODUCED_BY: [&str; 4] = [
            "calibrated uniprocessor cache model",
            "calibrated SMP model + smp-sim bus",
            "calibrated SMP model + smp-sim bus",
            "mta-sim + calibrated stream model",
        ];
        Table {
            id: "Table 1".into(),
            title: "Platforms used in the performance comparison".into(),
            headers: vec![
                "Machine".into(),
                "Processors".into(),
                "Operating System".into(),
                "Reproduced by".into(),
            ],
            rows: MACHINES
                .iter()
                .zip(REPRODUCED_BY)
                .map(|(m, by)| {
                    vec![
                        Cell::text(m.machine),
                        Cell::text(format!("{} x {} MHz {}", m.processors, m.clock_mhz, m.cpu)),
                        Cell::text(m.os),
                        Cell::text(by),
                    ]
                })
                .collect(),
        }
    }

    /// Table 6: Threat Analysis chunk-count sweep on the 2-processor Tera.
    fn table6(&self) -> Table {
        let rows = paper::TABLE6
            .iter()
            .map(|&(chunks, p)| {
                let m = self.ta_tera(chunks, MACHINES[TERA].processors);
                vec![Cell::text(chunks.to_string()), Cell::val(m, p)]
            })
            .collect();
        Table {
            id: "Table 6".into(),
            title: "Multithreaded Threat Analysis with varying number of chunks on Tera MTA".into(),
            headers: vec!["Number of Chunks".into(), "Time (seconds)".into()],
            rows,
        }
    }

    /// Table 7: Threat Analysis summary. The "Automatic" rows equal the
    /// sequential rows because the modeled compiler (like the real ones)
    /// rejects every loop — see [`Experiments::autopar_report`].
    fn table7(&self) -> Table {
        assert!(
            self.autopar_report().all_rejected_for_benchmarks(),
            "the autopar model must reject the benchmark loops"
        );
        self.summary_table(&TA_SUMMARY)
    }

    /// Every table, in paper order. Generated across all host processors
    /// (on the persistent worker pool — table generation is far too short
    /// to amortize per-region thread spawns); identical output to
    /// generating them one at a time.
    pub fn all_tables(&self) -> Vec<Table> {
        self.all_tables_with_threads(ThreadPool::global().n_threads())
    }

    /// [`Experiments::all_tables`] with an explicit worker count.
    ///
    /// Each table is a pure function of `&self`, so the generators run as
    /// one [`par_map`] over [`TABLES`], which preserves paper order
    /// regardless of thread interleaving.
    pub fn all_tables_with_threads(&self, n_threads: usize) -> Vec<Table> {
        par_map(TABLES.len(), n_threads, |i| TABLES[i](self))
    }

    // ── figures ──────────────────────────────────────────────────────────

    /// Model and paper speedup series for a figure: the speedup column of
    /// the table it plots.
    #[allow(clippy::type_complexity)] // (model series, paper series), both (procs, speedup)
    pub fn figure_series(&self, f: Figure) -> (Vec<(usize, f64)>, Vec<(usize, f64)>) {
        let ((base_m, base_p), points) = self.scaling_points(f.spec().2);
        let model = points.iter().map(|&(n, m, _)| (n, base_m / m)).collect();
        let paper_pts = points.iter().map(|&(n, _, p)| (n, base_p / p)).collect();
        (model, paper_pts)
    }

    /// Render a figure as an ASCII plot.
    pub fn figure(&self, f: Figure) -> String {
        let (id, title, _) = f.spec();
        let (model, paper_pts) = self.figure_series(f);
        ascii_speedup_figure(id, title, &model, &paper_pts)
    }

    // ── supporting experiments ───────────────────────────────────────────

    /// The automatic-parallelization experiment (§5/§6/§7): run the
    /// modeled 1998 compiler AND the dataflow pass over the benchmark
    /// loop nests.
    pub fn autopar_report(&self) -> AutoparSummary {
        AutoparSummary {
            report: autopar::programs::benchmark_report(),
            dataflow: autopar::programs::dataflow_report(),
        }
    }

    /// "Table Auto" — the living auto-vs-manual comparison (ISSUE 10):
    /// Programs 1–4 (plus the affine control loop) × {paper compilers,
    /// conservative pass, dataflow pass}, with the cleared obstacles,
    /// residual blockers (statement provenance included), the emitted
    /// schedule, and an execution check: every loop the
    /// dataflow pass newly parallelizes is run through the corresponding
    /// `c3i` kernel and its output asserted bit-identical to the
    /// sequential program (and hence to the paper's manual
    /// transformation, which computes the same sections).
    ///
    /// Every cell is deterministic text — no timings — so the CSV is
    /// scale-independent and diffable against the pinned
    /// `results/table_auto.csv` in CI. `n_threads` sets the width of
    /// the execution checks, never the verdicts.
    pub fn table_auto(n_threads: usize) -> Table {
        let n_threads = n_threads.max(1);
        let loops = autopar::programs::benchmark_loops();
        let conservative = autopar::programs::benchmark_report();
        let dataflow = autopar::programs::dataflow_report();
        assert!(
            dataflow.strictly_improves(&conservative),
            "the dataflow pass must parallelize strictly more loops"
        );

        // Display names and paper-column verdicts (no commas: cells go
        // through the naive CSV writer).
        let programs = [
            "Program 1: Threat Analysis (sequential)",
            "Program 2: Threat Analysis (chunked; pragma removed)",
            "Program 3: Terrain Masking (sequential)",
            "Program 4: Terrain Masking (coarse; pragma removed)",
            "Control: dense affine vector loop",
        ];
        let paper_verdicts = [
            "rejected",
            "pragma required",
            "rejected",
            "pragma required",
            "parallelized",
        ];

        let mut rows = Vec::new();
        for (i, (l, dv)) in loops.iter().zip(&dataflow.verdicts).enumerate() {
            let plan = autopar::emit_plan(l, dv);
            let exec = match i {
                0 => {
                    // Program 1's emitted transformation is per-iteration
                    // compaction: one output section per threat,
                    // concatenated in iteration order == the sequential
                    // interval list, element for element.
                    assert!(plan.is_some(), "P1 parallel");
                    exec_check_threat(true, n_threads);
                    "bit-identical to sequential (2 scenarios; per-threat sections)"
                }
                1 => {
                    // Program 2 is the manual transformation minus the
                    // pragma: 8 chunks, exactly the paper's structure.
                    assert!(plan.is_some(), "P2 parallel");
                    exec_check_threat(false, n_threads);
                    "bit-identical to sequential and manual (2 scenarios; 8 chunks)"
                }
                2 | 3 => "not executed (loop rejected)",
                _ => "parallel under both passes (no kernel twin)",
            };
            rows.push(vec![
                Cell::text(programs[i]),
                Cell::text(paper_verdicts[i]),
                Cell::text(if conservative.verdicts[i].parallel {
                    "parallel"
                } else {
                    "rejected"
                }),
                Cell::text(if dv.verdict.parallel {
                    "PARALLEL (auto)"
                } else {
                    "rejected"
                }),
                Cell::text(cleared_summary(dv)),
                Cell::text(residual_summary(&dv.verdict)),
                Cell::text(
                    plan.map(|p| p.schedule.to_string())
                        .unwrap_or_else(|| "-".into()),
                ),
                Cell::text(exec),
            ]);
        }
        Table {
            id: "Table Auto".into(),
            title: "Automatic parallelization: paper compilers vs conservative vs dataflow pass"
                .into(),
            headers: vec![
                "Program".into(),
                "Paper compilers".into(),
                "Conservative pass".into(),
                "Dataflow pass".into(),
                "Cleared obstacles".into(),
                "Residual blockers".into(),
                "Schedule".into(),
                "Execution check".into(),
            ],
            rows,
        }
    }

    /// Robustness analysis: perturb each calibrated constant by ±20% and
    /// recompute the paper's headline comparisons. The evaluation's
    /// *conclusions* (orderings and rough factors) should not hinge on
    /// exact calibration values; this experiment quantifies that. Each row
    /// reports a headline metric at the low/baseline/high setting of one
    /// constant.
    pub fn sensitivity(&self) -> Table {
        // Headline metrics, computed against a given calibration.
        let metrics = |cal: &Calibration| -> [f64; 3] {
            let w = &self.workload;
            let tera_seq_ta: f64 = w
                .ta_seq
                .iter()
                .map(|p| cal.tera.seq_seconds(p, cal.s_ta))
                .sum();
            let alpha_ta = Self::sum_seq(&cal.alpha, &w.ta_seq, cal.s_ta);
            [
                tera_seq_ta / alpha_ta, // Tera-vs-Alpha sequential slowdown
                Self::ta_tera_of(w, cal, TABLE5_CHUNKS, 1)
                    / Self::ta_conv_parallel_of(w, cal, &cal.exemplar, 4), // Tera(1)/Exemplar(4)
                Self::tm_tera_of(w, cal, 1) / Self::tm_tera_of(w, cal, 2), // TM 2-proc speedup
            ]
        };
        let base = metrics(&self.cal);

        let mut rows = Vec::new();
        let mut push = |name: &str, lo: Calibration, hi: Calibration| {
            let l = metrics(&lo);
            let h = metrics(&hi);
            for (i, label) in [
                "Tera/Alpha seq slowdown",
                "Tera(1)/Exemplar(4) TA",
                "TM 2-proc speedup",
            ]
            .iter()
            .enumerate()
            {
                rows.push(vec![
                    Cell::text(name.to_string()),
                    Cell::text((*label).to_string()),
                    Cell::bare(l[i]),
                    Cell::bare(base[i]),
                    Cell::bare(h[i]),
                ]);
            }
        };

        let scale_tera = |f: f64| -> Calibration {
            let mut c = self.cal.clone();
            c.tera.mem_latency *= f;
            c
        };
        push("MTA memory latency ±20%", scale_tera(0.8), scale_tera(1.2));

        let scale_eta = |f: f64| -> Calibration {
            let mut c = self.cal.clone();
            c.tera.eta2 = (c.tera.eta2 * f).min(1.0);
            c
        };
        push("MTA network eta2 ±20%", scale_eta(0.8), scale_eta(1.2));

        let scale_stream = |f: f64| -> Calibration {
            let mut c = self.cal.clone();
            c.exemplar.stream_cost *= f;
            c.ppro.stream_cost *= f;
            c.alpha.stream_cost *= f;
            c
        };
        push(
            "SMP streaming-op cost ±20%",
            scale_stream(0.8),
            scale_stream(1.2),
        );

        let scale_kappa = |f: f64| -> Calibration {
            let mut c = self.cal.clone();
            c.tera.spawn_cycles_per_task *= f;
            c
        };
        push(
            "fine-grain spawn cost ±20%",
            scale_kappa(0.8),
            scale_kappa(1.2),
        );

        Table {
            id: "Sensitivity".into(),
            title: "Headline metrics under ±20% perturbation of each calibrated constant".into(),
            headers: vec![
                "Perturbed constant".into(),
                "Metric".into(),
                "-20%".into(),
                "baseline".into(),
                "+20%".into(),
            ],
            rows,
        }
    }

    /// §8 outlook: the paper could not study scalability beyond two
    /// processors ("We look forward to investigating this issue when Tera
    /// MTAs with large numbers of processors are installed"). This
    /// projection extends the calibrated model to larger configurations,
    /// under two explicit assumptions: network efficiency stays at the
    /// calibrated 2-processor value, and the programs are used exactly as
    /// published (Threat Analysis with one chunk per threat — its maximum
    /// parallelism of 1000 logical threads; Terrain Masking with the
    /// fine-grained inner-loop structure and its serial future-spawning
    /// thread).
    ///
    /// The projection surfaces both §8 predictions: Threat Analysis keeps
    /// scaling until its 1000 threads spread too thin (128 streams per
    /// processor want ~L streams each), while fine-grained Terrain
    /// Masking hits an Amdahl wall at the serial spawner.
    pub fn scalability_projection(&self, procs: &[usize]) -> Table {
        let max_chunks = self
            .workload
            .ta_per_threat
            .iter()
            .map(Vec::len)
            .min()
            .unwrap_or(1000);
        let ta1 = self.ta_tera(max_chunks, 1);
        let tm1 = self.tm_tera(1);
        let rows = procs
            .iter()
            .map(|&p| {
                let ta = self.ta_tera(max_chunks, p);
                let tm = self.tm_tera(p);
                vec![
                    Cell::text(p.to_string()),
                    Cell::bare(ta),
                    Cell::bare(ta1 / ta),
                    Cell::bare(tm),
                    Cell::bare(tm1 / tm),
                ]
            })
            .collect();
        Table {
            id: "Projection".into(),
            title: format!(
                "Tera MTA scalability outlook (Section 8; model extrapolation, \
                 eta={:.2} held constant, TA parallelized over all {} threats)",
                self.cal.tera.eta2, max_chunks
            ),
            headers: vec![
                "Processors".into(),
                "Threat Analysis (s)".into(),
                "TA speedup".into(),
                "Terrain Masking (s)".into(),
                "TM speedup".into(),
            ],
            rows,
        }
    }
}

/// The modeled compilers' outcomes on the benchmark programs: the
/// conservative 1998 pass (paper-faithful, rejects everything) and the
/// dataflow pass (reductions, privatization, compaction, purity
/// summaries) side by side.
pub struct AutoparSummary {
    /// Conservative-pass verdicts for Programs 1–4 (no pragmas) plus the
    /// affine control loop.
    pub report: autopar::Report,
    /// Dataflow-pass verdicts over the same loops, in the same order.
    pub dataflow: autopar::DataflowReport,
}

impl AutoparSummary {
    /// Whether all four benchmark loop nests were rejected (the control
    /// loop is index 4).
    pub fn all_rejected_for_benchmarks(&self) -> bool {
        self.report.verdicts[..4].iter().all(|v| !v.parallel) && self.report.verdicts[4].parallel
    }
}

/// One-line summary of what the dataflow pass cleared on a loop, for the
/// "Table Auto" cells (semicolon-joined — cells must stay comma-free for
/// the naive CSV writer).
fn cleared_summary(v: &autopar::DataflowVerdict) -> String {
    let mut parts = Vec::new();
    for r in &v.reductions {
        parts.push(format!("{} reduction `{}`", r.op, r.name));
    }
    for s in &v.privatized_scalars {
        parts.push(format!("privatized scalar `{s}`"));
    }
    for a in &v.privatized_arrays {
        parts.push(format!("privatized array `{a}`"));
    }
    for (arr, ctr) in &v.compactions {
        parts.push(format!("compaction `{arr}[{ctr}]`"));
    }
    if !v.cleared_calls.is_empty() {
        parts.push(format!("pure calls: {}", v.cleared_calls.join(" ")));
    }
    if parts.is_empty() {
        "-".into()
    } else {
        parts.join("; ")
    }
}

/// One-line summary of the residual blockers (with line provenance) the
/// dataflow pass could NOT clear — empty for parallel loops.
fn residual_summary(v: &autopar::LoopVerdict) -> String {
    if v.parallel {
        return "-".into();
    }
    v.reasons
        .iter()
        .map(|r| {
            let what = match &r.kind {
                autopar::ReasonKind::ScalarDependence { name } => {
                    format!("carried scalar `{name}`")
                }
                autopar::ReasonKind::DataDependentSubscript { array } => {
                    format!("data-dependent store `{array}`")
                }
                autopar::ReasonKind::ArrayConflict { array, .. } => {
                    format!("array conflict `{array}`")
                }
                autopar::ReasonKind::OpaqueCall { name } => format!("opaque call `{name}`"),
            };
            if r.line > 0 {
                format!("{what} (line {})", r.line)
            } else {
                what
            }
        })
        .collect::<Vec<_>>()
        .join("; ")
}

/// Execution check behind the "Table Auto" rows: run the auto-parallelized
/// Threat Analysis structure through the real `c3i` chunked kernel and
/// assert the flattened output is bit-identical to the sequential
/// kernel, on two small scenarios (chunks are independent, so the output
/// cannot depend on the order the emitted schedule would run them in).
/// `per_threat` chooses Program 1's shape (one chunk per threat —
/// per-iteration compaction sections) versus Program 2's (the paper's 8
/// chunks).
fn exec_check_threat(per_threat: bool, n_threads: usize) {
    for seed in [1u64, 7] {
        let sc = c3i::threat::small_scenario(seed);
        let seq = c3i::threat::threat_analysis_host(&sc);
        let n_chunks = if per_threat { sc.threats.len() } else { 8 };
        let run = c3i::threat::threat_analysis_chunked_host(&sc, n_chunks, n_threads);
        let flat: Vec<_> = run.per_chunk.into_iter().flatten().collect();
        assert_eq!(
            flat, seq,
            "auto-parallelized Threat Analysis diverged from sequential (seed {seed})"
        );
    }
}

/// Stream counts exercised by `repro`'s utilization section (and by the
/// benchmark's simulator workloads).
pub const UTIL_STREAMS: [usize; 11] = [1, 2, 4, 8, 16, 32, 48, 64, 80, 100, 128];

/// The simulator configuration used for utilization measurements.
pub fn util_cfg() -> mta_sim::MtaConfig {
    mta_sim::MtaConfig {
        mem_words: 1 << 20,
        ..mta_sim::MtaConfig::tera(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadScale;
    use std::sync::OnceLock;

    fn exps() -> &'static Experiments {
        static E: OnceLock<Experiments> = OnceLock::new();
        E.get_or_init(|| Experiments::new(Workload::build(WorkloadScale::Reduced)))
    }

    /// Paper table `n`.
    fn table(n: usize) -> Table {
        TABLES[n - 1](exps())
    }

    /// Geometric-mean relative error of a table's referenced cells.
    fn max_rel_error(t: &Table) -> f64 {
        t.referenced_values()
            .iter()
            .map(|&(m, p)| ((m - p) / p).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn anchor_tables_are_tight() {
        assert!(max_rel_error(&table(2)) < 0.01, "{}", table(2).render());
        assert!(max_rel_error(&table(8)) < 0.01, "{}", table(8).render());
    }

    #[test]
    fn table3_ppro_threat_scaling_is_close() {
        let err = max_rel_error(&table(3));
        assert!(
            err < 0.15,
            "Table 3 worst error {err}:\n{}",
            table(3).render()
        );
    }

    #[test]
    fn table4_exemplar_threat_scaling_is_close() {
        let err = max_rel_error(&table(4));
        assert!(
            err < 0.20,
            "Table 4 worst error {err}:\n{}",
            table(4).render()
        );
    }

    #[test]
    fn table5_tera_threat_matches_shape() {
        let err = max_rel_error(&table(5));
        assert!(
            err < 0.20,
            "Table 5 worst error {err}:\n{}",
            table(5).render()
        );
    }

    #[test]
    fn table6_chunk_sweep_matches_shape() {
        let e = exps();
        let t = table(6);
        // Monotone non-increasing in chunk count, saturating at the end.
        let times: Vec<f64> = paper::TABLE6
            .iter()
            .map(|&(c, _)| e.ta_tera(c, 2))
            .collect();
        for w in times.windows(2) {
            assert!(w[1] <= w[0] * 1.02, "sweep must not regress: {times:?}");
        }
        let err = max_rel_error(&t);
        assert!(err < 0.35, "Table 6 worst error {err}:\n{}", t.render());
        // 8 chunks must be several times slower than 256 (hundreds of
        // threads needed — the paper's core point).
        assert!(times[0] / times[5] > 4.0, "{times:?}");
    }

    #[test]
    fn table9_ppro_terrain_saturates() {
        let e = exps();
        let err = max_rel_error(&table(9));
        assert!(
            err < 0.25,
            "Table 9 worst error {err}:\n{}",
            table(9).render()
        );
        // Speedup at 4 processors must be well below 4 (memory-bound).
        let seq = e.tm_seq_secs()[1];
        let s4 = seq / e.tm_conv_parallel(&e.cal.ppro, 4);
        assert!(s4 < 3.6, "PPro TM speedup must saturate: {s4}");
    }

    #[test]
    fn table10_exemplar_terrain_saturates() {
        let e = exps();
        let seq = e.tm_seq_secs()[2];
        let s16 = seq / e.tm_conv_parallel(&e.cal.exemplar, 16);
        assert!(s16 < 9.0, "Exemplar TM speedup must saturate: {s16}");
        assert!(s16 > 4.0, "but still speed up: {s16}");
        // Mid-range rows within a loose band (the paper's own data is
        // noisy and non-monotonic there).
        let err = max_rel_error(&table(10));
        assert!(
            err < 0.45,
            "Table 10 worst error {err}:\n{}",
            table(10).render()
        );
    }

    #[test]
    fn table11_tera_terrain_two_proc_prediction() {
        // P=1 is the κ anchor; P=2 is a genuine prediction: the paper saw
        // 34 s (1.4× speedup).
        let e = exps();
        let t2 = e.tm_tera(2);
        assert!((t2 - 34.0).abs() / 34.0 < 0.15, "Table 11 P=2: {t2}");
        let speedup = e.tm_tera(1) / t2;
        assert!(
            (1.2..1.7).contains(&speedup),
            "fine-grained 2-proc speedup {speedup}"
        );
    }

    #[test]
    fn threat_analysis_on_zero_chunks_or_processors_never_finishes() {
        let e = exps();
        for (n_chunks, n_procs) in [(0, 2), (256, 0), (0, 0), (100_000, 0)] {
            assert_eq!(
                e.ta_tera(n_chunks, n_procs),
                f64::INFINITY,
                "ta_tera({n_chunks}, {n_procs})"
            );
        }
    }

    #[test]
    fn terrain_masking_on_zero_processors_never_finishes() {
        assert_eq!(exps().tm_tera(0), f64::INFINITY);
    }

    #[test]
    fn summary_tables_are_consistent_with_detail_tables() {
        // A time cell's (model, paper) bits.
        let bits = |c: &Cell| match c {
            Cell::Value {
                model,
                paper: Some(p),
            } => (model.to_bits(), p.to_bits()),
            other => panic!("expected a referenced value, got {other:?}"),
        };
        // The time cell of `t`'s row labelled `label`.
        let cell = |t: &Table, label: &str| {
            let row = t
                .rows
                .iter()
                .find(|r| matches!(&r[0], Cell::Text(s) if s == label));
            bits(&row.unwrap_or_else(|| panic!("{} has no row {label}", t.id))[1])
        };
        for (summary, seq, ppro, exemplar, tera) in [
            (table(7), table(2), table(3), table(4), table(5)),
            (table(12), table(8), table(9), table(10), table(11)),
        ] {
            let expected = [
                ("None", "Alpha", cell(&seq, "Alpha")),
                ("", "Pentium Pro", cell(&seq, "Pentium Pro")),
                ("", "Exemplar", cell(&seq, "Exemplar")),
                ("", "Tera", cell(&seq, "Tera")),
                ("Automatic", "Exemplar", cell(&seq, "Exemplar")),
                ("", "Tera", cell(&seq, "Tera")),
                ("Manual", "Pentium Pro (4 processors)", cell(&ppro, "4")),
                ("", "Exemplar (4 processors)", cell(&exemplar, "4")),
                ("", "Exemplar (8 processors)", cell(&exemplar, "8")),
                ("", "Exemplar (16 processors)", cell(&exemplar, "16")),
                ("", "Tera MTA (1 processor)", cell(&tera, "1")),
                ("", "Tera MTA (2 processors)", cell(&tera, "2")),
            ];
            assert_eq!(summary.rows.len(), expected.len(), "{}", summary.id);
            for (row, (group, platform, time)) in summary.rows.iter().zip(expected) {
                let labels = [&row[0], &row[1]].map(|c| match c {
                    Cell::Text(s) => s.as_str(),
                    other => panic!("expected a label, got {other:?}"),
                });
                assert_eq!(labels, [group, platform], "{}", summary.id);
                assert_eq!(bits(&row[2]), time, "{} {platform}", summary.id);
            }
        }
    }

    #[test]
    fn headline_findings_hold() {
        let e = exps();
        // §7: one Tera processor ≈ four Exemplar processors on TA.
        let tera1 = e.ta_tera(256, 1);
        let ex4 = e.ta_conv_parallel(&e.cal.exemplar, 4);
        let ratio = tera1 / ex4;
        assert!(
            (0.6..1.6).contains(&ratio),
            "Tera(1) vs Exemplar(4): {ratio}"
        );
        // §7: dual Tera ≈ eight Exemplar processors on TM.
        let tera2 = e.tm_tera(2);
        let ex8 = e.tm_conv_parallel(&e.cal.exemplar, 8);
        let ratio = tera2 / ex8;
        assert!(
            (0.6..1.6).contains(&ratio),
            "Tera(2) vs Exemplar(8): {ratio}"
        );
        // Sequential Tera is dramatically slower than everything.
        let ta = e.ta_seq_secs();
        assert!(ta[3] > 5.0 * ta[1]);
    }

    #[test]
    fn figures_render_and_match_monotonicity() {
        let e = exps();
        for f in Figure::ALL {
            let plot = e.figure(f);
            assert!(plot.contains("Figure"));
            let (model, _) = e.figure_series(f);
            assert!(model.len() >= 4);
        }
        // Figure 2 (TA Exemplar): near-linear model speedups.
        let (model, _) = e.figure_series(Figure::ThreatExemplar);
        let s16 = model.last().unwrap().1;
        assert!(s16 > 12.0, "TA must scale near-linearly on Exemplar: {s16}");
    }

    #[test]
    fn automatic_parallelization_fails_like_the_paper() {
        let summary = exps().autopar_report();
        assert!(summary.all_rejected_for_benchmarks());
        // ...while the dataflow pass (ISSUE 10) clears strictly more.
        assert!(summary.dataflow.strictly_improves(&summary.report));
    }

    /// Table Auto is thread-count independent (the verdicts are
    /// bit-identical at any worker count and the cells carry no timings),
    /// runs its execution checks without diverging, and shows the
    /// headline improvement: P1 and P2 flip to PARALLEL, P3 and P4 stay
    /// honestly rejected.
    #[test]
    fn table_auto_is_deterministic_and_improving() {
        let t1 = Experiments::table_auto(1);
        let t4 = Experiments::table_auto(4);
        assert_eq!(t1.to_csv(), t4.to_csv());
        assert_eq!(t1.rows.len(), 5);
        let dataflow_col: Vec<&str> = t1
            .rows
            .iter()
            .map(|r| match &r[3] {
                Cell::Text(s) => s.as_str(),
                _ => panic!("table-auto cells are text"),
            })
            .collect();
        assert_eq!(
            dataflow_col,
            [
                "PARALLEL (auto)",
                "PARALLEL (auto)",
                "rejected",
                "rejected",
                "PARALLEL (auto)"
            ]
        );
    }

    #[test]
    fn conclusions_survive_calibration_perturbation() {
        let e = exps();
        let t = e.sensitivity();
        assert_eq!(t.rows.len(), 12);
        // Every perturbed value of each metric stays within its
        // conclusion-preserving band.
        for row in &t.rows {
            let metric = match &row[1] {
                Cell::Text(s) => s.clone(),
                _ => panic!(),
            };
            let vals: Vec<f64> = row[2..]
                .iter()
                .map(|c| match c {
                    Cell::Value { model, .. } => *model,
                    _ => panic!(),
                })
                .collect();
            for &v in &vals {
                match metric.as_str() {
                    // "dramatically slower sequentially": stays way above 5x.
                    "Tera/Alpha seq slowdown" => assert!(v > 8.0, "{metric}: {v}"),
                    // "approximately equivalent to four Exemplar procs":
                    // stays within a factor of 2 of parity.
                    "Tera(1)/Exemplar(4) TA" => {
                        assert!((0.5..2.0).contains(&v), "{metric}: {v}")
                    }
                    // sub-linear 2-proc TM speedup survives.
                    "TM 2-proc speedup" => assert!((1.05..1.9).contains(&v), "{metric}: {v}"),
                    other => panic!("unknown metric {other}"),
                }
            }
        }
    }

    #[test]
    fn scalability_projection_shows_the_section8_contrast() {
        let e = exps();
        let procs = [1usize, 2, 4, 8, 16, 32, 64, 128, 256];
        let t = e.scalability_projection(&procs);
        assert_eq!(t.rows.len(), procs.len());
        let times = |col: usize| -> Vec<f64> {
            t.rows
                .iter()
                .map(|r| match r[col] {
                    Cell::Value { model, .. } => model,
                    _ => panic!("expected value"),
                })
                .collect()
        };
        // Times are non-increasing while parallelism lasts (up to 32
        // processors); beyond that the 1000 available threads spread too
        // thin and the projection flattens (with chunk-placement jitter),
        // which is exactly the paper's "not all programs have the
        // potential for hundreds of threads" warning writ large.
        for col in [1usize, 3] {
            let v = times(col);
            for w in v[..6].windows(2) {
                assert!(w[1] <= w[0] * 1.001, "non-monotone projection: {w:?}");
            }
            let flat = v[5..].iter().cloned().fold(0.0f64, f64::max)
                / v[5..].iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(flat < 1.5, "tail should be flat-ish: {v:?}");
        }
        // Threat Analysis scales much further than fine Terrain Masking:
        // the serial future-spawner is an Amdahl wall.
        let ta = times(1);
        let tm = times(3);
        let ta_speedup_32 = ta[0] / ta[5];
        let tm_speedup_256 = tm[0] / tm[procs.len() - 1];
        assert!(ta_speedup_32 > 10.0, "TA projection: {ta_speedup_32}");
        assert!(
            tm_speedup_256 < 3.0,
            "TM must hit the spawn wall: {tm_speedup_256}"
        );
        assert!(ta_speedup_32 > 3.0 * tm_speedup_256);
    }

    #[test]
    fn all_tables_render_without_panic() {
        let e = exps();
        for t in e.all_tables() {
            let text = t.render();
            assert!(text.contains(&t.id));
            let _ = t.to_csv();
        }
    }

    /// Minimum speedup of the run-based arena kernels over the pinned
    /// scalar baseline on the terrain pipeline. The data-layout pass
    /// (edge-run ring iteration, row-sweep recurrence, hoisted distance
    /// tables, arena-backed scratch) must pay for its complexity; anything
    /// below this on the LOS recurrence means the kernels regressed.
    const KERNELS_SPEEDUP_GATE: f64 = 1.5;

    /// Fastest of `repeats` runs of `f`, in seconds, with its value:
    /// noise only ever inflates a run, so the minimum estimates the cost.
    fn best_of<T>(repeats: usize, mut f: impl FnMut() -> T) -> (f64, T) {
        let mut best: Option<(f64, T)> = None;
        for _ in 0..repeats {
            let start = std::time::Instant::now();
            let v = f();
            let secs = start.elapsed().as_secs_f64();
            if best.as_ref().is_none_or(|(b, _)| secs < *b) {
                best = Some((secs, v));
            }
        }
        best.expect("repeats > 0")
    }

    /// The terrain pipeline (Program 3) through the pinned scalar baseline
    /// (`terrain_masking_reference`: fresh per-threat allocations,
    /// cell-at-a-time recurrence) and through the run-based arena
    /// kernels, one thread each: the comparison is data layout, not
    /// scheduling, so core count cannot flip it. Identity always; the
    /// ratio only with optimizations on — debug builds pay bounds checks
    /// and no inlining, which flattens the data-layout win to ~1.1x
    /// (`ci.sh` runs this test under `--release`).
    #[test]
    fn measured_kernels_phase_clears_the_gate() {
        use c3i::terrain::{
            generate, terrain_masking_into, terrain_masking_reference, TerrainScenarioParams,
        };
        // The reduced workload scale's terrain configuration.
        let scenario = generate(TerrainScenarioParams {
            grid_size: 512,
            n_threats: 30,
            seed: 1,
            ..TerrainScenarioParams::default()
        });
        let (t_base, baseline) = best_of(3, || terrain_masking_reference(&scenario));
        let mut optimized = c3i::Grid::new(0, 0, f64::INFINITY);
        // One warm-up sizes the thread's arena; the timed runs then measure
        // the allocation-free steady state the pipeline actually runs in.
        terrain_masking_into(&scenario, &mut optimized, &mut c3i::NoRec);
        let (t_opt, ()) = best_of(3, || {
            terrain_masking_into(&scenario, &mut optimized, &mut c3i::NoRec)
        });
        assert_eq!(
            (baseline.x_size(), baseline.y_size()),
            (optimized.x_size(), optimized.y_size())
        );
        assert!(
            baseline
                .as_slice()
                .iter()
                .zip(optimized.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "optimized masking grid differs bitwise from the scalar baseline"
        );
        let speedup = t_base / t_opt;
        assert!(speedup.is_finite() && speedup > 0.0, "{t_base} / {t_opt}");
        assert!(
            cfg!(debug_assertions) || speedup >= KERNELS_SPEEDUP_GATE,
            "kernels speedup {speedup:.2}x is below the {KERNELS_SPEEDUP_GATE} gate \
             (scalar baseline {t_base:.6} s, optimized {t_opt:.6} s)"
        );
    }
}
