//! Regression oracle for the harness's own parallelization: measuring the
//! workload and generating the tables across host threads must produce
//! **byte-identical** results to the sequential path — the same
//! "parallelization must not change program output" bar the paper holds
//! its benchmark parallelizations to, applied to our measurement harness.

use std::sync::OnceLock;
use tera_c3i::eval_core::{Experiments, Workload, WorkloadScale};

/// The sequential oracle: one worker, measured once per test binary.
fn oracle() -> &'static Workload {
    static W: OnceLock<Workload> = OnceLock::new();
    W.get_or_init(|| Workload::build_with(WorkloadScale::Reduced, 1))
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
