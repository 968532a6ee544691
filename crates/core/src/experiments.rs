//! The paper's experiments: one generator per table and figure.
//!
//! Every generator returns a [`Table`] whose value cells carry both the
//! model's number and the paper's published number, so the rendered output
//! *is* the paper-vs-reproduction comparison. Figures 1–4 are the speedup
//! curves of Tables 3, 4, 9, 10; [`Experiments::figure`] renders them as
//! ASCII plots and exposes the raw series for the benchmark harness.

use crate::calibrate::{calibrate, Calibration};
use crate::models::ConventionalModel;
use crate::tables::{ascii_speedup_figure, Cell, Table};
use crate::workload::{chunk_prologue, Workload};
use c3i::Profile;
use sthreads::{par_map, ThreadPool};

/// The paper's published numbers, verbatim from the tables.
pub mod paper {
    /// Table 2: sequential Threat Analysis seconds
    /// (Alpha, Pentium Pro, Exemplar, Tera).
    pub const TABLE2: [(&str, f64); 4] = [
        ("Alpha", 187.0),
        ("Pentium Pro", 458.0),
        ("Exemplar", 343.0),
        ("Tera", 2584.0),
    ];

    /// Table 3: chunked Threat Analysis on the quad Pentium Pro.
    /// `(processors, seconds)`; the sequential program took 458 s.
    pub const TABLE3: [(usize, f64); 4] = [(1, 466.0), (2, 233.0), (3, 157.0), (4, 117.0)];
    /// Sequential reference for Table 3.
    pub const TABLE3_SEQ: f64 = 458.0;

    /// Table 4: chunked Threat Analysis on the 16-processor Exemplar.
    pub const TABLE4: [(usize, f64); 16] = [
        (1, 343.0),
        (2, 172.0),
        (3, 115.0),
        (4, 87.0),
        (5, 69.0),
        (6, 58.0),
        (7, 50.0),
        (8, 43.0),
        (9, 39.0),
        (10, 35.0),
        (11, 32.0),
        (12, 29.0),
        (13, 27.0),
        (14, 26.0),
        (15, 24.0),
        (16, 22.0),
    ];
    /// Sequential reference for Table 4.
    pub const TABLE4_SEQ: f64 = 343.0;

    /// Table 5: chunked Threat Analysis on the Tera MTA (256 chunks).
    pub const TABLE5: [(usize, f64); 2] = [(1, 82.0), (2, 46.0)];

    /// Table 6: Threat Analysis chunk sweep on the 2-processor Tera.
    pub const TABLE6: [(usize, f64); 6] = [
        (8, 386.0),
        (16, 197.0),
        (32, 104.0),
        (64, 61.0),
        (128, 46.0),
        (256, 46.0),
    ];

    /// Table 8: sequential Terrain Masking seconds.
    pub const TABLE8: [(&str, f64); 4] = [
        ("Alpha", 158.0),
        ("Pentium Pro", 197.0),
        ("Exemplar", 228.0),
        ("Tera", 978.0),
    ];

    /// Table 9: coarse Terrain Masking on the quad Pentium Pro.
    pub const TABLE9: [(usize, f64); 4] = [(1, 172.0), (2, 97.0), (3, 74.0), (4, 65.0)];
    /// Sequential reference for Table 9.
    pub const TABLE9_SEQ: f64 = 197.0;

    /// Table 10: coarse Terrain Masking on the 16-processor Exemplar.
    pub const TABLE10: [(usize, f64); 16] = [
        (1, 228.0),
        (2, 102.0),
        (3, 90.0),
        (4, 59.0),
        (5, 62.0),
        (6, 43.0),
        (7, 51.0),
        (8, 37.0),
        (9, 49.0),
        (10, 34.0),
        (11, 41.0),
        (12, 34.0),
        (13, 32.0),
        (14, 40.0),
        (15, 41.0),
        (16, 37.0),
    ];
    /// Sequential reference for Table 10.
    pub const TABLE10_SEQ: f64 = 228.0;

    /// Table 11: fine-grained Terrain Masking on the Tera MTA.
    pub const TABLE11: [(usize, f64); 2] = [(1, 48.0), (2, 34.0)];
}

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

    // ── tables ───────────────────────────────────────────────────────────

    /// Table 1: the platforms (static — from the paper, annotated with
    /// what stands in for each here).
    pub fn table1(&self) -> Table {
        let row = |machine: &str, procs: &str, os: &str, sub: &str| {
            vec![
                Cell::text(machine),
                Cell::text(procs),
                Cell::text(os),
                Cell::text(sub),
            ]
        };
        Table {
            id: "Table 1".into(),
            title: "Platforms used in the performance comparison".into(),
            headers: vec![
                "Machine".into(),
                "Processors".into(),
                "Operating System".into(),
                "Reproduced by".into(),
            ],
            rows: vec![
                row(
                    "Digital AlphaStation",
                    "1 x 500 MHz Alpha 21164A",
                    "Digital Unix 4.0C",
                    "calibrated uniprocessor cache model",
                ),
                row(
                    "NeTpower Sparta",
                    "4 x 200 MHz Pentium Pro",
                    "Windows NT 4.0",
                    "calibrated SMP model + smp-sim bus",
                ),
                row(
                    "Hewlett-Packard Exemplar",
                    "16 x 180 MHz PA-8000",
                    "SPP-UX 5.3",
                    "calibrated SMP model + smp-sim bus",
                ),
                row(
                    "Tera MTA",
                    "2 x 255 MHz MTA-1",
                    "Carlos",
                    "mta-sim + calibrated stream model",
                ),
            ],
        }
    }

    /// Table 2: sequential Threat Analysis times.
    pub fn table2(&self) -> Table {
        let secs = self.ta_seq_secs();
        Table {
            id: "Table 2".into(),
            title: "Execution time of sequential Threat Analysis without parallelization".into(),
            headers: vec!["Platform".into(), "Time (seconds)".into()],
            rows: paper::TABLE2
                .iter()
                .zip(secs)
                .map(|(&(name, p), m)| vec![Cell::text(name), Cell::val(m, p)])
                .collect(),
        }
    }

    fn conv_scaling_table(
        &self,
        id: &str,
        title: &str,
        seq_model: f64,
        seq_paper: f64,
        rows: &[(usize, f64)],
        time: impl Fn(usize) -> f64,
    ) -> Table {
        let mut out_rows = vec![vec![
            Cell::text("Sequential"),
            Cell::val(seq_model, seq_paper),
            Cell::text("N.A."),
        ]];
        for &(n, p_secs) in rows {
            let m_secs = time(n);
            out_rows.push(vec![
                Cell::text(n.to_string()),
                Cell::val(m_secs, p_secs),
                Cell::val(seq_model / m_secs, seq_paper / p_secs),
            ]);
        }
        Table {
            id: id.into(),
            title: title.into(),
            headers: vec![
                "Number of processors".into(),
                "Time (seconds)".into(),
                "Speedup".into(),
            ],
            rows: out_rows,
        }
    }

    /// Table 3: chunked Threat Analysis on the quad Pentium Pro.
    pub fn table3(&self) -> Table {
        let seq = self.ta_seq_secs()[1];
        let ppro = self.cal.ppro.clone();
        self.conv_scaling_table(
            "Table 3",
            "Multithreaded Threat Analysis on quad-processor Pentium Pro",
            seq,
            paper::TABLE3_SEQ,
            &paper::TABLE3,
            |n| self.ta_conv_parallel(&ppro, n),
        )
    }

    /// Table 4: chunked Threat Analysis on the 16-processor Exemplar.
    pub fn table4(&self) -> Table {
        let seq = self.ta_seq_secs()[2];
        let exemplar = self.cal.exemplar.clone();
        self.conv_scaling_table(
            "Table 4",
            "Multithreaded Threat Analysis on 16-processor Exemplar",
            seq,
            paper::TABLE4_SEQ,
            &paper::TABLE4,
            |n| self.ta_conv_parallel(&exemplar, n),
        )
    }

    /// Table 5: chunked Threat Analysis on the Tera MTA (256 chunks).
    pub fn table5(&self) -> Table {
        let t1 = self.ta_tera(256, 1);
        let rows = paper::TABLE5
            .iter()
            .map(|&(n, p)| {
                let m = self.ta_tera(256, n);
                let p1 = paper::TABLE5[0].1;
                vec![
                    Cell::text(n.to_string()),
                    Cell::val(m, p),
                    Cell::val(t1 / m, p1 / p),
                ]
            })
            .collect();
        Table {
            id: "Table 5".into(),
            title: "Multithreaded Threat Analysis on dual-processor Tera MTA (256 chunks)".into(),
            headers: vec![
                "Number of Processors".into(),
                "Time (seconds)".into(),
                "Speedup".into(),
            ],
            rows,
        }
    }

    /// Table 6: Threat Analysis chunk-count sweep on the 2-processor Tera.
    pub fn table6(&self) -> Table {
        let rows = paper::TABLE6
            .iter()
            .map(|&(chunks, p)| {
                let m = self.ta_tera(chunks, 2);
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
    pub fn table7(&self) -> Table {
        let seq = self.ta_seq_secs();
        let auto_failed = self.autopar_report().all_rejected_for_benchmarks();
        assert!(
            auto_failed,
            "the autopar model must reject the benchmark loops"
        );
        let rows = vec![
            vec![
                Cell::text("None"),
                Cell::text("Alpha"),
                Cell::val(seq[0], 187.0),
            ],
            vec![
                Cell::text(""),
                Cell::text("Pentium Pro"),
                Cell::val(seq[1], 458.0),
            ],
            vec![
                Cell::text(""),
                Cell::text("Exemplar"),
                Cell::val(seq[2], 343.0),
            ],
            vec![
                Cell::text(""),
                Cell::text("Tera"),
                Cell::val(seq[3], 2584.0),
            ],
            vec![
                Cell::text("Automatic"),
                Cell::text("Exemplar"),
                Cell::val(seq[2], 343.0),
            ],
            vec![
                Cell::text(""),
                Cell::text("Tera"),
                Cell::val(seq[3], 2584.0),
            ],
            vec![
                Cell::text("Manual"),
                Cell::text("Pentium Pro (4 processors)"),
                Cell::val(self.ta_conv_parallel(&self.cal.ppro, 4), 117.0),
            ],
            vec![
                Cell::text(""),
                Cell::text("Exemplar (4 processors)"),
                Cell::val(self.ta_conv_parallel(&self.cal.exemplar, 4), 87.0),
            ],
            vec![
                Cell::text(""),
                Cell::text("Exemplar (8 processors)"),
                Cell::val(self.ta_conv_parallel(&self.cal.exemplar, 8), 43.0),
            ],
            vec![
                Cell::text(""),
                Cell::text("Exemplar (16 processors)"),
                Cell::val(self.ta_conv_parallel(&self.cal.exemplar, 16), 22.0),
            ],
            vec![
                Cell::text(""),
                Cell::text("Tera MTA (1 processor)"),
                Cell::val(self.ta_tera(256, 1), 82.0),
            ],
            vec![
                Cell::text(""),
                Cell::text("Tera MTA (2 processors)"),
                Cell::val(self.ta_tera(256, 2), 46.0),
            ],
        ];
        Table {
            id: "Table 7".into(),
            title: "Performance comparison for execution times of Threat Analysis".into(),
            headers: vec![
                "Parallelization".into(),
                "Platform".into(),
                "Time (seconds)".into(),
            ],
            rows,
        }
    }

    /// Table 8: sequential Terrain Masking times.
    pub fn table8(&self) -> Table {
        let secs = self.tm_seq_secs();
        Table {
            id: "Table 8".into(),
            title: "Execution time of sequential Terrain Masking without parallelization".into(),
            headers: vec!["Platform".into(), "Time (seconds)".into()],
            rows: paper::TABLE8
                .iter()
                .zip(secs)
                .map(|(&(name, p), m)| vec![Cell::text(name), Cell::val(m, p)])
                .collect(),
        }
    }

    /// Table 9: coarse Terrain Masking on the quad Pentium Pro.
    pub fn table9(&self) -> Table {
        let seq = self.tm_seq_secs()[1];
        let ppro = self.cal.ppro.clone();
        self.conv_scaling_table(
            "Table 9",
            "Multithreaded Terrain Masking on quad-processor Pentium Pro (10x10 blocking)",
            seq,
            paper::TABLE9_SEQ,
            &paper::TABLE9,
            |n| self.tm_conv_parallel(&ppro, n),
        )
    }

    /// Table 10: coarse Terrain Masking on the 16-processor Exemplar.
    pub fn table10(&self) -> Table {
        let seq = self.tm_seq_secs()[2];
        let exemplar = self.cal.exemplar.clone();
        self.conv_scaling_table(
            "Table 10",
            "Multithreaded Terrain Masking on 16-processor Exemplar (10x10 blocking)",
            seq,
            paper::TABLE10_SEQ,
            &paper::TABLE10,
            |n| self.tm_conv_parallel(&exemplar, n),
        )
    }

    /// Table 11: fine-grained Terrain Masking on the Tera MTA.
    pub fn table11(&self) -> Table {
        let t1 = self.tm_tera(1);
        let rows = paper::TABLE11
            .iter()
            .map(|&(n, p)| {
                let m = self.tm_tera(n);
                let p1 = paper::TABLE11[0].1;
                vec![
                    Cell::text(n.to_string()),
                    Cell::val(m, p),
                    Cell::val(t1 / m, p1 / p),
                ]
            })
            .collect();
        Table {
            id: "Table 11".into(),
            title: "Multithreaded (fine-grained) Terrain Masking on dual-processor Tera MTA".into(),
            headers: vec![
                "Number of Processors".into(),
                "Time (seconds)".into(),
                "Speedup".into(),
            ],
            rows,
        }
    }

    /// Table 12: Terrain Masking summary.
    pub fn table12(&self) -> Table {
        let seq = self.tm_seq_secs();
        let rows = vec![
            vec![
                Cell::text("None"),
                Cell::text("Alpha"),
                Cell::val(seq[0], 158.0),
            ],
            vec![
                Cell::text(""),
                Cell::text("Pentium Pro"),
                Cell::val(seq[1], 197.0),
            ],
            vec![
                Cell::text(""),
                Cell::text("Exemplar"),
                Cell::val(seq[2], 228.0),
            ],
            vec![Cell::text(""), Cell::text("Tera"), Cell::val(seq[3], 978.0)],
            vec![
                Cell::text("Automatic"),
                Cell::text("Exemplar"),
                Cell::val(seq[2], 228.0),
            ],
            vec![Cell::text(""), Cell::text("Tera"), Cell::val(seq[3], 978.0)],
            vec![
                Cell::text("Manual"),
                Cell::text("Pentium Pro (4 processors)"),
                Cell::val(self.tm_conv_parallel(&self.cal.ppro, 4), 65.0),
            ],
            vec![
                Cell::text(""),
                Cell::text("Exemplar (4 processors)"),
                Cell::val(self.tm_conv_parallel(&self.cal.exemplar, 4), 59.0),
            ],
            vec![
                Cell::text(""),
                Cell::text("Exemplar (8 processors)"),
                Cell::val(self.tm_conv_parallel(&self.cal.exemplar, 8), 37.0),
            ],
            vec![
                Cell::text(""),
                Cell::text("Exemplar (16 processors)"),
                Cell::val(self.tm_conv_parallel(&self.cal.exemplar, 16), 37.0),
            ],
            vec![
                Cell::text(""),
                Cell::text("Tera MTA (1 processor)"),
                Cell::val(self.tm_tera(1), 48.0),
            ],
            vec![
                Cell::text(""),
                Cell::text("Tera MTA (2 processors)"),
                Cell::val(self.tm_tera(2), 34.0),
            ],
        ];
        Table {
            id: "Table 12".into(),
            title: "Performance comparison for execution times of Terrain Masking".into(),
            headers: vec![
                "Parallelization".into(),
                "Platform".into(),
                "Time (seconds)".into(),
            ],
            rows,
        }
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
    /// one [`par_map`] over the fixed row of 12, which preserves paper
    /// order regardless of thread interleaving.
    pub fn all_tables_with_threads(&self, n_threads: usize) -> Vec<Table> {
        const GENERATORS: [fn(&Experiments) -> Table; 12] = [
            Experiments::table1,
            Experiments::table2,
            Experiments::table3,
            Experiments::table4,
            Experiments::table5,
            Experiments::table6,
            Experiments::table7,
            Experiments::table8,
            Experiments::table9,
            Experiments::table10,
            Experiments::table11,
            Experiments::table12,
        ];
        par_map(GENERATORS.len(), n_threads, |i| GENERATORS[i](self))
    }

    // ── figures ──────────────────────────────────────────────────────────

    /// Model and paper speedup series for a figure.
    #[allow(clippy::type_complexity)] // (model series, paper series), both (procs, speedup)
    pub fn figure_series(&self, f: Figure) -> (Vec<(usize, f64)>, Vec<(usize, f64)>) {
        let (seq_m, seq_p, rows, time): (f64, f64, &[(usize, f64)], Box<dyn Fn(usize) -> f64>) =
            match f {
                Figure::ThreatPPro => (
                    self.ta_seq_secs()[1],
                    paper::TABLE3_SEQ,
                    &paper::TABLE3,
                    Box::new(|n| self.ta_conv_parallel(&self.cal.ppro, n)),
                ),
                Figure::ThreatExemplar => (
                    self.ta_seq_secs()[2],
                    paper::TABLE4_SEQ,
                    &paper::TABLE4,
                    Box::new(|n| self.ta_conv_parallel(&self.cal.exemplar, n)),
                ),
                Figure::TerrainPPro => (
                    self.tm_seq_secs()[1],
                    paper::TABLE9_SEQ,
                    &paper::TABLE9,
                    Box::new(|n| self.tm_conv_parallel(&self.cal.ppro, n)),
                ),
                Figure::TerrainExemplar => (
                    self.tm_seq_secs()[2],
                    paper::TABLE10_SEQ,
                    &paper::TABLE10,
                    Box::new(|n| self.tm_conv_parallel(&self.cal.exemplar, n)),
                ),
            };
        let model = rows.iter().map(|&(n, _)| (n, seq_m / time(n))).collect();
        let paper_pts = rows.iter().map(|&(n, p)| (n, seq_p / p)).collect();
        (model, paper_pts)
    }

    /// Render a figure as an ASCII plot.
    pub fn figure(&self, f: Figure) -> String {
        let (id, title) = match f {
            Figure::ThreatPPro => (
                "Figure 1",
                "Speedup of multithreaded Threat Analysis on quad Pentium Pro",
            ),
            Figure::ThreatExemplar => (
                "Figure 2",
                "Speedup of multithreaded Threat Analysis on 16-processor Exemplar",
            ),
            Figure::TerrainPPro => (
                "Figure 3",
                "Speedup of coarse-grained Terrain Masking on quad Pentium Pro",
            ),
            Figure::TerrainExemplar => (
                "Figure 4",
                "Speedup of multithreaded Terrain Masking on 16-processor Exemplar",
            ),
        };
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
                Self::ta_tera_of(w, cal, 256, 1)
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

    /// Geometric-mean relative error of a table's referenced cells.
    fn max_rel_error(t: &Table) -> f64 {
        t.referenced_values()
            .iter()
            .map(|&(m, p)| ((m - p) / p).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn anchor_tables_are_tight() {
        let e = exps();
        assert!(max_rel_error(&e.table2()) < 0.01, "{}", e.table2().render());
        assert!(max_rel_error(&e.table8()) < 0.01, "{}", e.table8().render());
    }

    #[test]
    fn table3_ppro_threat_scaling_is_close() {
        let e = exps();
        let err = max_rel_error(&e.table3());
        assert!(
            err < 0.15,
            "Table 3 worst error {err}:\n{}",
            e.table3().render()
        );
    }

    #[test]
    fn table4_exemplar_threat_scaling_is_close() {
        let e = exps();
        let err = max_rel_error(&e.table4());
        assert!(
            err < 0.20,
            "Table 4 worst error {err}:\n{}",
            e.table4().render()
        );
    }

    #[test]
    fn table5_tera_threat_matches_shape() {
        let e = exps();
        let err = max_rel_error(&e.table5());
        assert!(
            err < 0.20,
            "Table 5 worst error {err}:\n{}",
            e.table5().render()
        );
    }

    #[test]
    fn table6_chunk_sweep_matches_shape() {
        let e = exps();
        let t = e.table6();
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
        let err = max_rel_error(&e.table9());
        assert!(
            err < 0.25,
            "Table 9 worst error {err}:\n{}",
            e.table9().render()
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
        let err = max_rel_error(&e.table10());
        assert!(
            err < 0.45,
            "Table 10 worst error {err}:\n{}",
            e.table10().render()
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
        let e = exps();
        let t7 = e.table7();
        let t12 = e.table12();
        assert_eq!(t7.rows.len(), 12);
        assert_eq!(t12.rows.len(), 12);
        // Spot-check: Table 7 Tera(1) equals Table 5 P=1.
        let t5_p1 = e.ta_tera(256, 1);
        if let Cell::Value { model, .. } = &t7.rows[10][2] {
            assert!((model - t5_p1).abs() < 1e-9);
        } else {
            panic!("unexpected cell");
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
        for f in [
            Figure::ThreatPPro,
            Figure::ThreatExemplar,
            Figure::TerrainPPro,
            Figure::TerrainExemplar,
        ] {
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
