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
use crate::workload::Workload;
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

    /// Build the harness for `scale` via the snapshot cache
    /// ([`crate::cache::load_or_measure`]): measurement and calibration
    /// run only when no fresh snapshot exists.
    pub fn load_or_measure(scale: crate::workload::WorkloadScale) -> (Self, crate::CacheStatus) {
        let (workload, cal, status) = crate::cache::load_or_measure(scale);
        (Self { workload, cal }, status)
    }

    // ── shared helpers ───────────────────────────────────────────────────

    fn sum_seq(&self, model: &ConventionalModel, profiles: &[Profile], scale: f64) -> f64 {
        profiles.iter().map(|p| model.seq_seconds(p, scale)).sum()
    }

    fn sum_par(
        &self,
        model: &ConventionalModel,
        profiles: &[Profile],
        n: usize,
        scale: f64,
    ) -> f64 {
        profiles
            .iter()
            .map(|p| model.parallel_seconds(p, n, scale))
            .sum()
    }

    /// Modeled sequential Threat Analysis seconds on each platform.
    pub fn ta_seq_secs(&self) -> [f64; 4] {
        let w = &self.workload;
        let c = &self.cal;
        [
            self.sum_seq(&c.alpha, &w.ta_seq, c.s_ta),
            self.sum_seq(&c.ppro, &w.ta_seq, c.s_ta),
            self.sum_seq(&c.exemplar, &w.ta_seq, c.s_ta),
            w.ta_seq.iter().map(|p| c.tera.seq_seconds(p, c.s_ta)).sum(),
        ]
    }

    /// Modeled sequential Terrain Masking seconds on each platform.
    pub fn tm_seq_secs(&self) -> [f64; 4] {
        let w = &self.workload;
        let c = &self.cal;
        [
            self.sum_seq(&c.alpha, &w.tm_seq, c.s_tm),
            self.sum_seq(&c.ppro, &w.tm_seq, c.s_tm),
            self.sum_seq(&c.exemplar, &w.tm_seq, c.s_tm),
            w.tm_seq.iter().map(|p| c.tera.seq_seconds(p, c.s_tm)).sum(),
        ]
    }

    /// Modeled chunked Threat Analysis seconds on a conventional SMP with
    /// one chunk/thread per processor (the paper's configuration).
    pub fn ta_conv_parallel(&self, model: &ConventionalModel, n_procs: usize) -> f64 {
        self.sum_par(
            model,
            &self.workload.ta_chunked(n_procs),
            n_procs,
            self.cal.s_ta,
        )
    }

    /// Modeled chunked Threat Analysis seconds on the Tera.
    pub fn ta_tera(&self, n_chunks: usize, n_procs: usize) -> f64 {
        self.workload
            .ta_chunked(n_chunks)
            .iter()
            .map(|p| self.cal.tera.chunked_seconds(p, n_procs, self.cal.s_ta))
            .sum()
    }

    /// Modeled coarse Terrain Masking seconds on a conventional SMP.
    pub fn tm_conv_parallel(&self, model: &ConventionalModel, n_procs: usize) -> f64 {
        self.sum_par(
            model,
            &self.workload.tm_coarse(n_procs),
            n_procs,
            self.cal.s_tm,
        )
    }

    /// Modeled fine-grained Terrain Masking seconds on the Tera.
    pub fn tm_tera(&self, n_procs: usize) -> f64 {
        self.workload
            .tm_fine
            .iter()
            .map(|p| self.cal.tera.phased_seconds(p, n_procs, self.cal.s_tm))
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
            dataflow: autopar::programs::dataflow_report(1),
        }
    }

    /// "Table Auto" — the living auto-vs-manual comparison (ISSUE 10):
    /// Programs 1–4 (plus the affine control loop) × {paper compilers,
    /// conservative pass, dataflow pass}, with the cleared obstacles,
    /// residual blockers (statement provenance included), the emitted
    /// `sthreads` schedule, and an execution check: every loop the
    /// dataflow pass newly parallelizes is run through the corresponding
    /// `c3i` kernel and its output asserted bit-identical to the
    /// sequential program (and hence to the paper's manual
    /// transformation, which computes the same sections).
    ///
    /// Every cell is deterministic text — no timings — so the CSV is
    /// scale-independent and diffable against the pinned
    /// `results/table_auto.csv` in CI. `n_threads` drives the SCC-DAG
    /// dataflow solve and the execution checks, never the verdicts
    /// (which are bit-identical at any worker count).
    pub fn table_auto(n_threads: usize) -> Table {
        let n_threads = n_threads.max(1);
        let loops = autopar::programs::benchmark_loops();
        let conservative = autopar::programs::benchmark_report();
        let dataflow = autopar::programs::dataflow_report(n_threads);
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
            let with = Experiments {
                workload: self.workload.clone(),
                cal: cal.clone(),
            };
            let tera_seq_ta: f64 = with
                .workload
                .ta_seq
                .iter()
                .map(|p| cal.tera.seq_seconds(p, cal.s_ta))
                .sum();
            let alpha_ta = with.sum_seq(&cal.alpha, &with.workload.ta_seq, cal.s_ta);
            [
                tera_seq_ta / alpha_ta, // Tera-vs-Alpha sequential slowdown
                with.ta_tera(256, 1) / with.ta_conv_parallel(&cal.exemplar, 4), // Tera(1)/Exemplar(4)
                with.tm_tera(1) / with.tm_tera(2),                              // TM 2-proc speedup
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

    /// Whether the dataflow pass parallelizes strictly more loops than
    /// the conservative pass (it must — ISSUE 10's acceptance bar).
    pub fn dataflow_improves(&self) -> bool {
        self.dataflow.strictly_improves(&self.report)
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

// ── harness self-timing (the BENCH_harness.json report) ──────────────────

/// Stream counts exercised by the utilization sweep phase (and by
/// `repro`'s utilization section).
pub const UTIL_STREAMS: [usize; 11] = [1, 2, 4, 8, 16, 32, 48, 64, 80, 100, 128];

/// The simulator configuration used for utilization measurements.
pub fn util_cfg() -> mta_sim::MtaConfig {
    mta_sim::MtaConfig {
        mem_words: 1 << 20,
        ..mta_sim::MtaConfig::tera(1)
    }
}

/// Minimum acceptable parallel speedup for the table-generation phase.
/// The phase's work is tiny (~1 ms), so the only way to fail this gate is
/// to pay dispatch overhead for parallelism that cannot help — exactly the
/// regression the overhead-aware sequential cutoff in `par_map` exists to
/// prevent.
pub const TABLE_GEN_SPEEDUP_GATE: f64 = 0.95;

/// Paired seq/par repeats behind the gated table-generation median. Odd,
/// so the median is one measured ratio.
const TABLE_GEN_REPEATS: usize = 31;

/// Minimum acceptable speedup of the run-based arena kernels over the
/// pinned scalar baseline on the terrain pipeline. The data-layout pass
/// (edge-run ring iteration, row-sweep recurrence, hoisted distance
/// tables, arena-backed scratch) must pay for its complexity; anything
/// below this on the LOS recurrence means the kernels regressed.
pub const KERNELS_SPEEDUP_GATE: f64 = 1.5;

/// Where a phase's parallel wall-clock went, from `sthreads::stats`
/// snapshot deltas taken around the phase with nano-timing enabled.
///
/// The three components are *worker-side* accounting, not a partition of
/// wall-clock: `useful_work_s` sums body execution across all workers, so
/// with perfect N-way scaling it is ≈ N × the phase's wall-clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PhaseBreakdown {
    /// Seconds between a region's publication and each worker's pickup,
    /// summed over workers — the price of waking the pool.
    pub dispatch_overhead_s: f64,
    /// Seconds separating the busiest worker from the mean — time the
    /// region's barrier spent waiting on stragglers.
    pub imbalance_s: f64,
    /// Seconds of loop-body execution summed across workers (including
    /// work kept inline by the sequential cutoff).
    pub useful_work_s: f64,
}

impl PhaseBreakdown {
    fn from_delta(d: &sthreads::StatsSnapshot) -> Self {
        Self {
            dispatch_overhead_s: d.dispatch_ns as f64 / 1e9,
            imbalance_s: d.imbalance_ns as f64 / 1e9,
            useful_work_s: d.busy_ns as f64 / 1e9,
        }
    }
}

/// One row of the harness self-timing report: the same phase run two
/// ways — one host thread vs all of them — producing identical output.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PhaseTiming {
    /// Phase name (stable — `ci.sh` gates on "table generation").
    pub phase: String,
    /// Wall-clock seconds on one host thread.
    pub seq_seconds: f64,
    /// Wall-clock seconds on `host_threads` threads.
    pub par_seconds: f64,
    /// Robust speedup estimate: the median of per-repeat paired
    /// `seq/par` ratios (each repeat times the two arms back-to-back).
    /// For single-repeat phases this equals
    /// `seq_seconds / par_seconds`; with repeats the paired median
    /// resists host-load spikes that the ratio of minima would not.
    pub speedup: f64,
    /// Whether the parallel run's output was bit-identical to the
    /// sequential run's.
    pub identical_output: bool,
    /// Where the parallel run's time went.
    pub breakdown: PhaseBreakdown,
}

/// The `kernels` phase: the full terrain pipeline (Program 3) run through
/// the pinned scalar baseline (`terrain_masking_reference`: fresh
/// per-threat allocations, cell-at-a-time recurrence) and through the
/// run-based arena kernels, on one thread each. Unlike [`PhaseTiming`],
/// both arms are sequential — the comparison is data layout, not
/// scheduling.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct KernelsPhase {
    /// Wall-clock seconds of the pinned scalar baseline.
    pub baseline_scalar_s: f64,
    /// Wall-clock seconds of the optimized kernels.
    pub optimized_s: f64,
    /// `baseline_scalar_s / optimized_s`.
    pub speedup: f64,
    /// Whether the optimized masking grid was bit-identical to the
    /// baseline's.
    pub identical_output: bool,
}

/// The `BENCH_harness.json` document.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HarnessReport {
    /// Workload scale the phases ran at (`"Paper"` or `"Reduced"`).
    pub scale: String,
    /// Host threads used for the parallel runs.
    pub host_threads: usize,
    /// Measured cost of waking the pool for an empty region, used by the
    /// sequential cutoff (see `sthreads::stats::dispatch_floor_ns`).
    pub dispatch_floor_ns: u64,
    /// One entry per parallelized harness phase.
    pub phases: Vec<PhaseTiming>,
    /// The kernel data-layout comparison (deliberately not optional: a
    /// report without it predates the extended schema and must not pass
    /// the gate).
    pub kernels: KernelsPhase,
}

impl HarnessReport {
    /// Check the report against the harness's invariants: every phase
    /// present and bit-identical, every number finite and positive, and
    /// the table-generation phase at or above
    /// [`TABLE_GEN_SPEEDUP_GATE`]. Returns every violation, not just the
    /// first — this is the `ci.sh` regression gate.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut errs = Vec::new();
        if self.host_threads == 0 {
            errs.push("host_threads is zero".to_string());
        }
        if self.phases.is_empty() {
            errs.push("report has no phases".to_string());
        }
        for p in &self.phases {
            if !p.identical_output {
                errs.push(format!(
                    "phase '{}': parallel output differs from sequential",
                    p.phase
                ));
            }
            for (name, v) in [
                ("seq_seconds", p.seq_seconds),
                ("par_seconds", p.par_seconds),
                ("speedup", p.speedup),
            ] {
                if !(v.is_finite() && v > 0.0) {
                    errs.push(format!("phase '{}': {name} = {v} is not positive", p.phase));
                }
            }
            for (name, v) in [
                ("dispatch_overhead_s", p.breakdown.dispatch_overhead_s),
                ("imbalance_s", p.breakdown.imbalance_s),
                ("useful_work_s", p.breakdown.useful_work_s),
            ] {
                if !(v.is_finite() && v >= 0.0) {
                    errs.push(format!(
                        "phase '{}': breakdown.{name} = {v} is invalid",
                        p.phase
                    ));
                }
            }
        }
        match self.phases.iter().find(|p| p.phase == "table generation") {
            Some(tg) if tg.speedup < TABLE_GEN_SPEEDUP_GATE => errs.push(format!(
                "table generation speedup {:.2}x is below the {TABLE_GEN_SPEEDUP_GATE} gate \
                 (seq {:.6} s, par {:.6} s) — parallel dispatch is costing more than it saves",
                tg.speedup, tg.seq_seconds, tg.par_seconds
            )),
            Some(_) => {}
            None => errs.push("missing 'table generation' phase".to_string()),
        }
        let k = &self.kernels;
        if !k.identical_output {
            errs.push(
                "kernels: optimized masking grid differs bitwise from the scalar baseline"
                    .to_string(),
            );
        }
        for (name, v) in [
            ("baseline_scalar_s", k.baseline_scalar_s),
            ("optimized_s", k.optimized_s),
            ("speedup", k.speedup),
        ] {
            if !(v.is_finite() && v > 0.0) {
                errs.push(format!("kernels: {name} = {v} is not positive"));
            }
        }
        if k.speedup.is_finite() && k.speedup < KERNELS_SPEEDUP_GATE {
            errs.push(format!(
                "kernels speedup {:.2}x is below the {KERNELS_SPEEDUP_GATE} gate \
                 (scalar baseline {:.6} s, optimized {:.6} s) — the run-based arena \
                 kernels are not paying for themselves",
                k.speedup, k.baseline_scalar_s, k.optimized_s
            ));
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    /// Human-readable rendition of the report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Harness self-timing ({} scale, {} host threads; pool dispatch floor {} ns)\n",
            self.scale, self.host_threads, self.dispatch_floor_ns
        ));
        out.push_str(
            "  phase                  1 thread      parallel   speedup  identical   \
             dispatch  imbalance     useful\n",
        );
        for p in &self.phases {
            out.push_str(&format!(
                "  {:<20} {:>8.3} s   {:>8.3} s   {:>6.2}x  {:<9} {:>8.1} ms {:>7.1} ms {:>7.1} ms\n",
                p.phase,
                p.seq_seconds,
                p.par_seconds,
                p.speedup,
                p.identical_output,
                p.breakdown.dispatch_overhead_s * 1e3,
                p.breakdown.imbalance_s * 1e3,
                p.breakdown.useful_work_s * 1e3,
            ));
        }
        let k = &self.kernels;
        out.push_str(&format!(
            "  kernels (data layout): scalar baseline {:.3} s, optimized {:.3} s, \
             {:.2}x, identical {}\n",
            k.baseline_scalar_s, k.optimized_s, k.speedup, k.identical_output,
        ));
        out
    }
}

/// Run `f` `repeats` times; return the fastest run's seconds, value, and
/// stats delta. Repeats exist for sub-millisecond phases, where a single
/// scheduler hiccup would dominate the measurement and flap the ci gate.
fn best_of<T>(repeats: usize, mut f: impl FnMut() -> T) -> (f64, T, sthreads::StatsSnapshot) {
    assert!(repeats > 0);
    let mut best: Option<(f64, T, sthreads::StatsSnapshot)> = None;
    for _ in 0..repeats {
        let before = sthreads::stats::snapshot();
        let start = std::time::Instant::now();
        let v = f();
        let secs = start.elapsed().as_secs_f64();
        let delta = sthreads::stats::snapshot() - before;
        if best.as_ref().is_none_or(|(b, _, _)| secs < *b) {
            best = Some((secs, v, delta));
        }
    }
    best.unwrap()
}

fn measure_phase<T>(
    name: &str,
    repeats: usize,
    mut seq: impl FnMut() -> T,
    mut par: impl FnMut() -> T,
    same: impl Fn(&T, &T) -> bool,
) -> PhaseTiming {
    assert!(repeats > 0);
    // The arms alternate rather than running as back-to-back blocks, and
    // the gated `speedup` is the *median of per-repeat paired ratios*
    // rather than the ratio of the per-arm minima. Pairing means a
    // sustained host-load spike inflates both halves of the repeat it
    // lands on (the ratio survives); the median then discards the
    // repeats a short spike hit asymmetrically. On a noisy shared CI
    // host this is the difference between a gate that measures the code
    // and one that measures the neighbours. `seq_seconds`/`par_seconds`
    // still report the per-arm minima (noise only ever inflates a run,
    // so the minimum estimates the true cost).
    let mut best_seq: Option<(f64, T)> = None;
    let mut best_par: Option<(f64, T, sthreads::StatsSnapshot)> = None;
    let mut ratios = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let start = std::time::Instant::now();
        let v = seq();
        let secs_seq = start.elapsed().as_secs_f64();
        if best_seq.as_ref().is_none_or(|(b, _)| secs_seq < *b) {
            best_seq = Some((secs_seq, v));
        }
        let before = sthreads::stats::snapshot();
        let start = std::time::Instant::now();
        let v = par();
        let secs_par = start.elapsed().as_secs_f64();
        let delta = sthreads::stats::snapshot() - before;
        if best_par.as_ref().is_none_or(|(b, _, _)| secs_par < *b) {
            best_par = Some((secs_par, v, delta));
        }
        ratios.push(secs_seq / secs_par);
    }
    ratios.sort_unstable_by(f64::total_cmp);
    let speedup = ratios[ratios.len() / 2];
    let (t_seq, v_seq) = best_seq.unwrap();
    let (t_par, v_par, delta) = best_par.unwrap();
    PhaseTiming {
        phase: name.to_string(),
        seq_seconds: t_seq,
        par_seconds: t_par,
        speedup,
        identical_output: same(&v_seq, &v_par),
        breakdown: PhaseBreakdown::from_delta(&delta),
    }
}

/// Measure the `kernels` phase: the terrain pipeline through the pinned
/// scalar baseline vs the run-based arena kernels, one thread each,
/// best-of-3, with a bitwise output comparison. The scenario matches the
/// workload scale's terrain configuration so the numbers describe the
/// pipeline the tables actually time.
pub fn measure_kernels(scale: crate::workload::WorkloadScale) -> KernelsPhase {
    use c3i::terrain::{
        generate, terrain_masking_into, terrain_masking_reference, TerrainScenarioParams,
    };
    let params = match scale {
        crate::workload::WorkloadScale::Paper => TerrainScenarioParams {
            seed: 1,
            ..TerrainScenarioParams::default()
        },
        crate::workload::WorkloadScale::Reduced => TerrainScenarioParams {
            grid_size: 512,
            n_threats: 30,
            seed: 1,
            ..TerrainScenarioParams::default()
        },
    };
    let scenario = generate(params);
    let (t_base, baseline, _) = best_of(3, || terrain_masking_reference(&scenario));
    let mut optimized = c3i::Grid::new(0, 0, f64::INFINITY);
    // One warm-up sizes the thread's arena; the timed runs then measure
    // the allocation-free steady state the pipeline actually runs in.
    terrain_masking_into(&scenario, &mut optimized, &mut c3i::NoRec);
    let (t_opt, _, _) = best_of(3, || {
        terrain_masking_into(&scenario, &mut optimized, &mut c3i::NoRec)
    });
    let identical = baseline.x_size() == optimized.x_size()
        && baseline.y_size() == optimized.y_size()
        && baseline
            .as_slice()
            .iter()
            .zip(optimized.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    KernelsPhase {
        baseline_scalar_s: t_base,
        optimized_s: t_opt,
        speedup: t_base / t_opt,
        identical_output: identical,
    }
}

/// Time every parallelized harness phase sequentially and on `n_threads`
/// host threads, verify the outputs are bit-identical, and attribute the
/// parallel time via `sthreads::stats`. This is `repro --timing`'s
/// engine; the caller serializes the result to `BENCH_harness.json`.
///
/// The pool is pre-warmed so parallel timings measure steady-state
/// dispatch (condvar wakeups), not one-time thread creation — the paper's
/// own distinction between stream creation and `CreateThread` (§7).
pub fn harness_timing(scale: crate::workload::WorkloadScale, n_threads: usize) -> HarnessReport {
    ThreadPool::global().warm(n_threads);
    let floor = sthreads::stats::dispatch_floor_ns();
    let was_timing = sthreads::stats::timing_enabled();
    sthreads::stats::set_timing(true);

    let mut phases = Vec::new();
    phases.push(measure_phase(
        "workload measurement",
        1,
        || Workload::build_with(scale, 1),
        || Workload::build_with(scale, n_threads),
        |a, b| a == b,
    ));

    let exps = Experiments::new(Workload::build_with(scale, n_threads));
    let csv = |tables: &[Table]| -> String {
        tables
            .iter()
            .map(|t| t.to_csv())
            .collect::<Vec<_>>()
            .join("\n")
    };
    // Table generation takes ~0.7 ms — short enough for one preempted
    // run to swing a ratio — so the gated median rests on
    // TABLE_GEN_REPEATS paired ratios (~45 ms in all).
    phases.push(measure_phase(
        "table generation",
        TABLE_GEN_REPEATS,
        || exps.all_tables_with_threads(1),
        || exps.all_tables_with_threads(n_threads),
        |a, b| csv(a) == csv(b),
    ));

    phases.push(measure_phase(
        "utilization sweep",
        1,
        || mta_sim::kernels::measure_utilization_sweep(&util_cfg(), &UTIL_STREAMS, 400, 3, 1),
        || {
            mta_sim::kernels::measure_utilization_sweep(
                &util_cfg(),
                &UTIL_STREAMS,
                400,
                3,
                n_threads,
            )
        },
        |a, b| a == b,
    ));

    sthreads::stats::set_timing(was_timing);
    let kernels = measure_kernels(scale);
    HarnessReport {
        scale: format!("{scale:?}"),
        host_threads: n_threads,
        dispatch_floor_ns: floor,
        phases,
        kernels,
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
        assert!(summary.dataflow_improves());
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

    fn good_report() -> HarnessReport {
        let phase = |name: &str, seq: f64, par: f64| PhaseTiming {
            phase: name.to_string(),
            seq_seconds: seq,
            par_seconds: par,
            speedup: seq / par,
            identical_output: true,
            breakdown: PhaseBreakdown {
                dispatch_overhead_s: 1e-5,
                imbalance_s: 2e-5,
                useful_work_s: seq,
            },
        };
        HarnessReport {
            scale: "Reduced".to_string(),
            host_threads: 4,
            dispatch_floor_ns: 4000,
            phases: vec![
                phase("workload measurement", 2.0, 0.6),
                phase("table generation", 0.001, 0.001),
                phase("utilization sweep", 1.0, 0.3),
            ],
            kernels: KernelsPhase {
                baseline_scalar_s: 0.9,
                optimized_s: 0.4,
                speedup: 0.9 / 0.4,
                identical_output: true,
            },
        }
    }

    #[test]
    fn valid_harness_report_passes_validation() {
        good_report().validate().expect("valid report must pass");
    }

    #[test]
    fn table_generation_slowdown_fails_the_gate() {
        let mut r = good_report();
        let tg = r
            .phases
            .iter_mut()
            .find(|p| p.phase == "table generation")
            .unwrap();
        tg.par_seconds = tg.seq_seconds / 0.63; // the regression this PR fixes
        tg.speedup = 0.63;
        let errs = r.validate().unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("below the 0.95 gate")),
            "{errs:?}"
        );
    }

    #[test]
    fn nonidentical_output_and_bad_numbers_are_reported_together() {
        let mut r = good_report();
        r.phases[0].identical_output = false;
        r.phases[2].breakdown.useful_work_s = f64::NAN;
        let errs = r.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.contains("differs from sequential")));
        assert!(errs.iter().any(|e| e.contains("useful_work_s")));
        assert_eq!(errs.len(), 2, "{errs:?}");
    }

    #[test]
    fn missing_table_generation_phase_is_an_error() {
        let mut r = good_report();
        r.phases.retain(|p| p.phase != "table generation");
        let errs = r.validate().unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.contains("missing 'table generation'")),
            "{errs:?}"
        );
    }

    #[test]
    fn legacy_report_with_a_deleted_phase_still_passes() {
        // Reports written before the parallel tick was deleted list an
        // `mta_par` phase, and those written before the work-stealing
        // schedule was deleted a `fine_grain` phase. Phase names are
        // data, not schema: the report must parse, and the extra phase is
        // held only to the checks every phase gets (identity, positive
        // numbers) — not to a gate of its own, even at a ratio the old
        // 0.95 gates would have failed. Nor is either phase required:
        // `good_report` has neither.
        for name in ["mta_par", "fine_grain"] {
            let mut r = good_report();
            let mut legacy = r.phases[0].clone();
            legacy.phase = name.to_string();
            legacy.speedup = 0.5;
            r.phases.push(legacy);
            let json = serde_json::to_string(&r).unwrap();
            let parsed: HarnessReport = serde_json::from_str(&json).expect("legacy report parses");
            assert_eq!(parsed.phases.last().unwrap().phase, name);
            parsed.validate().expect("an unknown phase is not an error");
        }
    }

    #[test]
    fn kernels_slowdown_fails_the_gate() {
        let mut r = good_report();
        r.kernels.optimized_s = r.kernels.baseline_scalar_s / 1.2;
        r.kernels.speedup = 1.2;
        let errs = r.validate().unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("below the 1.5 gate")),
            "{errs:?}"
        );
    }

    #[test]
    fn kernels_nonidentical_output_fails_validation() {
        let mut r = good_report();
        r.kernels.identical_output = false;
        let errs = r.validate().unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.contains("differs bitwise from the scalar baseline")),
            "{errs:?}"
        );
    }

    #[test]
    fn harness_report_rejects_json_missing_kernels() {
        // A pre-extension report without the kernels phase must not parse:
        // the ≥1.5x data-layout gate cannot be skipped by feeding the ci
        // gate a stale file.
        let legacy = r#"{
            "scale": "Reduced",
            "host_threads": 4,
            "dispatch_floor_ns": 4000,
            "phases": [{
                "phase": "table generation",
                "seq_seconds": 0.001,
                "par_seconds": 0.001,
                "speedup": 1.0,
                "identical_output": true,
                "breakdown": {
                    "dispatch_overhead_s": 0.0,
                    "imbalance_s": 0.0,
                    "useful_work_s": 0.001
                }
            }]
        }"#;
        assert!(serde_json::from_str::<HarnessReport>(legacy).is_err());
    }

    #[test]
    fn measured_kernels_phase_clears_the_gate() {
        // The real measurement on the reduced scenario: bit-identical
        // output in every profile, and a speedup at or above the ci gate
        // when optimizations are on. Debug builds pay bounds checks and
        // no inlining, which flattens the data-layout win to ~1.1x, so
        // the perf half of the assertion is release-only — `repro --gate`
        // (always release in ci.sh) enforces it on every CI run anyway.
        let k = measure_kernels(WorkloadScale::Reduced);
        assert!(k.identical_output, "{k:?}");
        assert!(k.speedup.is_finite() && k.speedup > 0.0, "{k:?}");
        #[cfg(not(debug_assertions))]
        assert!(
            k.speedup >= KERNELS_SPEEDUP_GATE,
            "kernels speedup below gate: {k:?}"
        );
    }

    #[test]
    fn empty_report_fails_validation() {
        let r = HarnessReport {
            scale: "Reduced".to_string(),
            host_threads: 0,
            dispatch_floor_ns: 0,
            phases: Vec::new(),
            kernels: good_report().kernels,
        };
        let errs = r.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.contains("no phases")));
        assert!(errs.iter().any(|e| e.contains("host_threads")));
    }

    #[test]
    fn harness_report_round_trips_through_json() {
        let r = good_report();
        let json = serde_json::to_string(&r).unwrap();
        let back: HarnessReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        // The extended schema's keys must actually be present in the JSON.
        assert!(json.contains("\"breakdown\""));
        assert!(json.contains("\"dispatch_overhead_s\""));
        assert!(json.contains("\"kernels\""));
        assert!(json.contains("\"baseline_scalar_s\""));
    }

    #[test]
    fn harness_report_rejects_json_missing_breakdown() {
        // A pre-extension BENCH_harness.json (no breakdown key) must not
        // silently parse — the ci gate relies on the schema being current.
        let legacy = r#"{
            "scale": "Reduced",
            "host_threads": 4,
            "phases": [{
                "phase": "table generation",
                "seq_seconds": 0.001,
                "par_seconds": 0.001,
                "speedup": 1.0,
                "identical_output": true
            }]
        }"#;
        assert!(serde_json::from_str::<HarnessReport>(legacy).is_err());
    }
}
