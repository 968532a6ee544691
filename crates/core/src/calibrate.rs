//! Calibration: pinning the models' free constants to the paper.
//!
//! Everything the models need falls into three groups:
//!
//! 1. **Hardware constants** taken from Table 1 and §2 of the paper:
//!    clock rates, processor counts, the MTA's issue pipeline and streams
//!    per processor (all in [`crate::paper`]), and the memory latency and
//!    thread costs below.
//!
//! 2. **Workload-size factors** `S_TA`, `S_TM`: the C3IPBS inputs are not
//!    public, so our synthetic scenarios do a different absolute amount of
//!    work. One scalar per benchmark maps our abstract operation counts to
//!    the original workload, fit to the *Tera sequential* rows (Tables 2
//!    and 8) — chosen because the MTA's sequential time is the entry the
//!    architecture determines most directly (instruction count × average
//!    latency, no cache behaviour to argue about).
//!
//! 3. **Platform efficiency constants**, each fit to exactly one paper
//!    row and documented here (every anchor is read from [`crate::paper`]):
//!    * per-platform cycles-per-resident-op `c` and cycles-per-streaming-op
//!      `m`: solved from that platform's two sequential rows (Tables 2, 8);
//!    * MTA 2-processor network efficiency `η₂` (the paper itself
//!      attributes the sub-linear 2-processor scaling to the "development
//!      status of the current Tera MTA network"): fit to Table 5's
//!      2-processor row;
//!    * MTA fine-grained spawn cost per future `κ`: fit to Table 11's
//!      1-processor row;
//!    * shared-bus cycles per streaming op: Pentium Pro fit to Table 9's
//!      4-processor row, Exemplar fit to Table 10's 16-processor row.
//!
//! Every other row of every table — 40+ entries, all speedup curves, the
//! chunk sweep of Table 6, and Table 11's 2-processor row — is a
//! *prediction*. EXPERIMENTS.md tabulates paper-vs-model for all of them.

use crate::models::{ConventionalModel, TeraModel};
use crate::paper::{self, ALPHA, EXEMPLAR, MACHINES, PPRO, TABLE5_CHUNKS, TERA};
use crate::workload::{chunk_prologue, Workload};
use c3i::OpCounts;

/// Fixed (non-fit) cost constants, from §2/§7 of the paper.
mod constants {
    /// Lock/unlock or atomic on a conventional SMP: "hundreds to
    /// thousands of cycles" — we use the low end.
    pub const CONV_SYNC_CYCLES: f64 = 300.0;
    /// OS thread creation: "tens of thousands to hundreds of thousands of
    /// cycles".
    pub const CONV_SPAWN_CYCLES: f64 = 50_000.0;
    /// MTA memory-operation latency in cycles (uncontended; matches the
    /// `mta-sim` default of bank service + network).
    pub const TERA_MEM_LATENCY: f64 = 70.0;
    /// The MTA's 64 banks at one access per 4 cycles: 16 words/cycle —
    /// far above what two processors can demand, so the prototype's
    /// bandwidth never binds in these workloads.
    pub const TERA_NETWORK_WORDS_PER_CYCLE: f64 = 16.0;
}

/// The calibrated model set.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Calibration {
    /// DEC AlphaStation (uniprocessor).
    pub alpha: ConventionalModel,
    /// NeTpower Sparta, quad Pentium Pro.
    pub ppro: ConventionalModel,
    /// HP Exemplar, 16 PA-8000s.
    pub exemplar: ConventionalModel,
    /// Tera MTA, two processors.
    pub tera: TeraModel,
    /// Workload-size factor for Threat Analysis.
    pub s_ta: f64,
    /// Workload-size factor for Terrain Masking.
    pub s_tm: f64,
}

fn resident_ops(ops: &OpCounts) -> f64 {
    (ops.int_ops + ops.fp_ops + ops.loads + ops.stores) as f64
}

/// Solve the 2×2 system for the per-op costs of platform `i` of Table 1
/// from its two sequential anchors (Tables 2 and 8).
fn fit_conventional(
    i: usize,
    ta_ops: &OpCounts,
    tm_ops: &OpCounts,
    s_ta: f64,
    s_tm: f64,
) -> ConventionalModel {
    let machine = &MACHINES[i];
    let (name, clock_mhz) = (machine.name, machine.clock_mhz);
    // s_ta*(Rta*c + Sta*m) = ta_secs*clock ; s_tm*(Rtm*c + Stm*m) = tm_secs*clock
    let a11 = s_ta * resident_ops(ta_ops);
    let a12 = s_ta * ta_ops.stream_ops() as f64;
    let a21 = s_tm * resident_ops(tm_ops);
    let a22 = s_tm * tm_ops.stream_ops() as f64;
    let b1 = paper::TABLE2[i] * clock_mhz * 1e6;
    let b2 = paper::TABLE8[i] * clock_mhz * 1e6;
    let det = a11 * a22 - a12 * a21;
    assert!(det.abs() > 1e-6, "degenerate calibration system for {name}");
    let c = (b1 * a22 - b2 * a12) / det;
    let m = (a11 * b2 - a21 * b1) / det;
    assert!(c > 0.0, "{name}: negative resident cost {c}");
    assert!(m > 0.0, "{name}: negative stream cost {m}");
    ConventionalModel {
        name: name.to_string(),
        clock_mhz,
        n_processors: machine.processors,
        resident_cost: c,
        stream_cost: m,
        sync_cost: constants::CONV_SYNC_CYCLES,
        spawn_cost: constants::CONV_SPAWN_CYCLES,
        bus_cost_per_stream_op: 0.0, // fit below for the SMPs
    }
}

/// Calibrate all models against `workload` (see module docs for exactly
/// which paper rows are anchors).
pub fn calibrate(workload: &Workload) -> Calibration {
    let mut tera = TeraModel {
        clock_mhz: MACHINES[TERA].clock_mhz,
        issue_latency: paper::TERA_ISSUE_CYCLES,
        mem_latency: constants::TERA_MEM_LATENCY,
        streams_per_processor: paper::TERA_STREAMS,
        eta2: 1.0,
        network_words_per_cycle: constants::TERA_NETWORK_WORDS_PER_CYCLE,
        spawn_cycles_per_task: 0.0,
    };
    let clock = tera.clock_mhz * 1e6;

    // ── workload-size factors from the Tera sequential rows ────────────
    let t0_ta: f64 = workload
        .ta_seq
        .iter()
        .map(|p| tera.seq_seconds(p, 1.0))
        .sum();
    let s_ta = paper::TABLE2[TERA] / t0_ta;
    let t0_tm: f64 = workload
        .tm_seq
        .iter()
        .map(|p| tera.seq_seconds(p, 1.0))
        .sum();
    let s_tm = paper::TABLE8[TERA] / t0_tm;

    // ── conventional per-op costs from Tables 2 and 8 ───────────────────
    let ta_ops = workload.ta_total();
    let tm_ops = workload.tm_total();
    let [alpha, mut ppro, mut exemplar] =
        [ALPHA, PPRO, EXEMPLAR].map(|i| fit_conventional(i, &ta_ops, &tm_ops, s_ta, s_tm));

    // ── MTA network efficiency η₂ from Table 5's 2-processor row ───────
    // T = s_ta * (serial + issue₂/η) / clock  (memory term non-binding for
    // the compute-bound Threat Analysis; asserted in tests).
    let prologue = chunk_prologue(TABLE5_CHUNKS);
    // One prologue per scenario, added one at a time as the per-scenario
    // profiles were, so η₂ keeps its bits.
    let serial2: f64 = workload
        .ta_per_threat
        .iter()
        .map(|_| tera.serial_cycles_of(&prologue))
        .sum();
    let issue2: f64 = workload
        .ta_per_threat
        .iter()
        .map(|per_threat| tera.chunked_issue_cycles(per_threat, TABLE5_CHUNKS, 2))
        .sum();
    let target_cycles = paper::at(&paper::TABLE5, 2) * clock / s_ta - serial2;
    assert!(target_cycles > 0.0, "eta2 calibration target underflow");
    tera.eta2 = (issue2 / target_cycles).min(1.0);

    // ── MTA fine-grained spawn cost κ from Table 11's 1-processor row ───
    let serial_fine: f64 = workload
        .tm_fine
        .iter()
        .map(|p| tera.serial_cycles_of(&p.serial))
        .sum();
    let issue_fine1: f64 = workload
        .tm_fine
        .iter()
        .map(|p| tera.phased_issue_cycles(p, 1))
        .sum();
    let tasks: f64 = workload
        .tm_fine
        .iter()
        .map(TeraModel::phased_task_count)
        .sum();
    let spawn_budget = paper::at(&paper::TABLE11, 1) * clock / s_tm - serial_fine - issue_fine1;
    assert!(
        spawn_budget > 0.0,
        "fine-grained issue model already exceeds Table 11's 1-processor time"
    );
    tera.spawn_cycles_per_task = spawn_budget / tasks;

    // ── SMP bus costs from Table 9 (P=4) and Table 10 (P=16) ───────────
    // At those points — each machine's full size — the memory-bound
    // program is interconnect-limited:
    // T = s_tm * (serial + stream_total × bus_cost) / clock.
    let fit_bus = |model: &ConventionalModel, table: &[(usize, f64)]| -> f64 {
        let n_procs = model.n_processors;
        let coarse = workload.tm_coarse(n_procs);
        let serial_cycles: f64 = coarse.iter().map(|p| model.cpu_cycles(&p.serial)).sum();
        let stream_total: f64 = coarse
            .iter()
            .map(|p| p.parallel.iter().map(OpCounts::stream_ops).sum::<u64>() as f64)
            .sum();
        let budget = paper::at(table, n_procs) * model.clock_mhz * 1e6 / s_tm - serial_cycles;
        assert!(budget > 0.0, "{}: bus calibration underflow", model.name);
        budget / stream_total
    };
    ppro.bus_cost_per_stream_op = fit_bus(&ppro, &paper::TABLE9);
    exemplar.bus_cost_per_stream_op = fit_bus(&exemplar, &paper::TABLE10);

    Calibration {
        alpha,
        ppro,
        exemplar,
        tera,
        s_ta,
        s_tm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadScale;
    use std::sync::OnceLock;

    fn cal() -> &'static (Workload, Calibration) {
        static C: OnceLock<(Workload, Calibration)> = OnceLock::new();
        C.get_or_init(|| {
            let w = Workload::build(WorkloadScale::Reduced);
            let c = calibrate(&w);
            (w, c)
        })
    }

    #[test]
    fn anchors_are_reproduced_exactly() {
        let (w, c) = cal();
        let t = |models: &ConventionalModel, profs: &[c3i::Profile], s: f64| -> f64 {
            profs.iter().map(|p| models.seq_seconds(p, s)).sum()
        };
        // Table 2.
        assert!((t(&c.alpha, &w.ta_seq, c.s_ta) - 187.0).abs() < 0.5);
        assert!((t(&c.ppro, &w.ta_seq, c.s_ta) - 458.0).abs() < 0.5);
        assert!((t(&c.exemplar, &w.ta_seq, c.s_ta) - 343.0).abs() < 0.5);
        let tera_ta: f64 = w.ta_seq.iter().map(|p| c.tera.seq_seconds(p, c.s_ta)).sum();
        assert!((tera_ta - 2584.0).abs() < 1.0);
        // Table 8.
        assert!((t(&c.alpha, &w.tm_seq, c.s_tm) - 158.0).abs() < 0.5);
        assert!((t(&c.ppro, &w.tm_seq, c.s_tm) - 197.0).abs() < 0.5);
        assert!((t(&c.exemplar, &w.tm_seq, c.s_tm) - 228.0).abs() < 0.5);
        let tera_tm: f64 = w.tm_seq.iter().map(|p| c.tera.seq_seconds(p, c.s_tm)).sum();
        assert!((tera_tm - 978.0).abs() < 1.0);
    }

    #[test]
    fn calibrated_constants_are_physical() {
        let (_, c) = cal();
        for m in [&c.alpha, &c.ppro, &c.exemplar] {
            assert!(
                m.resident_cost > 0.1 && m.resident_cost < 50.0,
                "{}: c={}",
                m.name,
                m.resident_cost
            );
            assert!(
                m.stream_cost > m.resident_cost,
                "{}: streaming must cost more than resident",
                m.name
            );
            assert!(m.stream_cost < 500.0, "{}: m={}", m.name, m.stream_cost);
        }
        assert!(
            c.tera.eta2 > 0.5 && c.tera.eta2 <= 1.0,
            "eta2={}",
            c.tera.eta2
        );
        assert!(
            c.tera.spawn_cycles_per_task > 0.0 && c.tera.spawn_cycles_per_task < 500.0,
            "kappa={}",
            c.tera.spawn_cycles_per_task
        );
        assert!(c.ppro.bus_cost_per_stream_op > 0.0);
        assert!(c.exemplar.bus_cost_per_stream_op > 0.0);
        // The Exemplar crossbar has more bandwidth than the PPro FSB
        // relative to its demand... at least both are bounded.
        assert!(c.ppro.bus_cost_per_stream_op < 1000.0);
    }

    #[test]
    fn anchor_rows_for_parallel_fits_are_met() {
        let (w, c) = cal();
        // Table 5 P=2 (η₂ fit).
        let prologue = chunk_prologue(256);
        let t5: f64 = w
            .ta_per_threat
            .iter()
            .map(|per_threat| {
                c.tera
                    .chunked_seconds(&prologue, per_threat, 256, 2, c.s_ta)
            })
            .sum();
        assert!((t5 - 46.0).abs() < 1.0, "Table5 P2: {t5}");
        // Table 11 P=1 (κ fit).
        let t11: f64 = w
            .tm_fine
            .iter()
            .map(|p| c.tera.phased_seconds(p, 1, c.s_tm))
            .sum();
        assert!((t11 - 48.0).abs() < 1.0, "Table11 P1: {t11}");
        // Table 9 P=4 (PPro bus fit) — bus-bound by assumption; allow the
        // makespan to have been the binding term instead (then the fit is
        // an upper bound).
        let t9: f64 = w
            .tm_coarse(4)
            .iter()
            .map(|p| c.ppro.parallel_seconds(p, 4, c.s_tm))
            .sum();
        assert!((t9 - 65.0).abs() < 5.0, "Table9 P4: {t9}");
        // Table 10 P=16 (Exemplar bus fit).
        let t10: f64 = w
            .tm_coarse(16)
            .iter()
            .map(|p| c.exemplar.parallel_seconds(p, 16, c.s_tm))
            .sum();
        assert!((t10 - 37.0).abs() < 5.0, "Table10 P16: {t10}");
    }

    #[test]
    fn ta_memory_term_does_not_bind_on_the_tera() {
        // The η₂ fit assumed Threat Analysis is issue-bound at 2
        // processors; verify.
        let (w, c) = cal();
        for per_threat in &w.ta_per_threat {
            let issue = c.tera.chunked_issue_cycles(per_threat, 256, 2) / c.tera.eta(2);
            let mem = c
                .tera
                .mem_cycles(per_threat.iter().map(OpCounts::mem_ops).sum());
            assert!(issue > mem, "memory term binding: issue={issue} mem={mem}");
        }
    }
}
