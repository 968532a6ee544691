//! Regression oracle for the harness's own parallelization: measuring the
//! workload and generating the tables across host threads must produce
//! **byte-identical** results to the sequential path — the same
//! "parallelization must not change program output" bar the paper holds
//! its benchmark parallelizations to, applied to our measurement harness.
//!
//! The same bar covers *how* the workload is obtained: `Workload::build`
//! counts (ring geometry, an exit-class histogram) where it used to run
//! the `Rec`-generic kernels under an `OpRecorder`. [`recorded_workload`]
//! is that recorded assembly, kept as the oracle, and the built workload
//! must equal it in every `OpCounts` and every phase.

use std::sync::OnceLock;
use tera_c3i::c3i::{terrain, threat};
use tera_c3i::eval_core::workload::{ta_params, tm_params, TM_BLOCKS};
use tera_c3i::eval_core::{Experiments, Workload, WorkloadScale};
use tera_c3i::sthreads::OpRecorder;

/// The sequential oracle: one worker, measured once per test binary.
fn oracle() -> &'static Workload {
    static W: OnceLock<Workload> = OnceLock::new();
    W.get_or_init(|| Workload::build_with(WorkloadScale::Reduced, 1))
}

/// The workload as the five recorded entry points of `c3i` produce it:
/// every scenario generated, then run under the counting backend once per
/// measurement (Programs 1 and 3, the per-threat decompositions of
/// Programs 2 and 4, the fine-grained phase list).
fn recorded_workload(scale: WorkloadScale) -> Workload {
    let ta: Vec<_> = ta_params(scale).into_iter().map(threat::generate).collect();
    let tm: Vec<_> = tm_params(scale)
        .into_iter()
        .map(terrain::generate)
        .collect();
    Workload {
        scale,
        ta_per_threat: ta.iter().map(threat::per_threat_counts).collect(),
        ta_seq: ta
            .iter()
            .map(|s| threat::threat_analysis_profile(s).1)
            .collect(),
        tm_per_threat: tm
            .iter()
            .map(|s| terrain::per_threat_counts(s, TM_BLOCKS))
            .collect(),
        tm_seq: tm
            .iter()
            .map(|s| terrain::terrain_masking_profile(s).1)
            .collect(),
        tm_fine: tm
            .iter()
            .map(|s| terrain::terrain_masking_fine(s).1)
            .collect(),
        tm_serial: tm
            .iter()
            .map(|s| {
                let mut r = OpRecorder::new();
                r.sstore(s.terrain.len() as u64);
                r.int(2 * (TM_BLOCKS * TM_BLOCKS) as u64);
                r.counts()
            })
            .collect(),
    }
}

#[test]
fn built_workload_equals_recorded_workload() {
    assert_eq!(oracle(), &recorded_workload(WorkloadScale::Reduced));
}

/// The same identity at the scale the tables are generated at, at every
/// worker count. The recorded side is five full passes over five 1024²
/// scenarios — seconds optimized, far longer not — so it runs under
/// `--release` only; `ci.sh` does.
#[test]
#[cfg_attr(debug_assertions, ignore = "paper scale: run with --release")]
fn built_workload_equals_recorded_workload_at_paper_scale() {
    let recorded = recorded_workload(WorkloadScale::Paper);
    for n_threads in [1usize, 2, 8] {
        let built = Workload::build_with(WorkloadScale::Paper, n_threads);
        assert_eq!(built, recorded, "paper workload at {n_threads} threads");
    }
}

#[test]
fn parallel_workload_measurement_equals_sequential_oracle() {
    // Full-struct equality covers every OpCounts of every scenario
    // (OpCounts is integer-only, so == is exact, not approximate).
    for n_threads in [1usize, 2, 8] {
        let w = Workload::build_with(WorkloadScale::Reduced, n_threads);
        assert_eq!(&w, oracle(), "workload diverged at {n_threads} threads");
    }
}

#[test]
fn parallel_table_generation_is_byte_identical() {
    let exps = Experiments::new(oracle().clone());
    let render = |tables: &[tera_c3i::eval_core::Table]| {
        tables
            .iter()
            .map(|t| format!("{}\n{}", t.render(), t.to_csv()))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let sequential = render(&exps.all_tables_with_threads(1));
    for n_threads in [2usize, 8] {
        let parallel = render(&exps.all_tables_with_threads(n_threads));
        assert_eq!(
            parallel, sequential,
            "table output diverged at {n_threads} threads"
        );
    }
}

#[test]
fn default_build_equals_explicit_sequential_build() {
    // `Workload::build` picks the host thread count; whatever it picked,
    // the result must equal the oracle.
    let w = Workload::build(WorkloadScale::Reduced);
    assert_eq!(&w, oracle());
}
