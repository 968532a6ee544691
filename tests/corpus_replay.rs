//! Replay every pinned regression under `tests/corpus/` through the full
//! differential matrix.
//!
//! Each entry is a minimized fuzz case (see `crates/c3i-fuzz`) pinned
//! alongside the fix for the bug it exposed. Entries that encode
//! once-crashing malformed inputs must now be `Rejected` gracefully;
//! valid entries must pass the oracle-vs-variants check bit-for-bit. Any
//! `Failed` outcome here is a regression.
//!
//! To pin a new entry: run `repro --fuzz N --fuzz-seed S`, fix the bug it
//! finds, then copy the minimized JSON it writes under `target/c3i-fuzz/`
//! into `tests/corpus/` (see README "Differential fuzzing").

use c3i_fuzz::{load_case, run_case, CaseOutcome};
use std::path::Path;

#[test]
fn corpus_entries_replay_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus must exist")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 4,
        "corpus unexpectedly small ({} entries) — was it checked out?",
        entries.len()
    );

    let mut failures = Vec::new();
    for path in &entries {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let case = load_case(path).unwrap_or_else(|e| panic!("{name}: unreadable: {e}"));
        match run_case(&case) {
            CaseOutcome::Passed | CaseOutcome::Rejected(_) => {}
            CaseOutcome::Failed(f) => failures.push(format!("{name}: {f}")),
        }
    }
    assert!(
        failures.is_empty(),
        "corpus regressions:\n{}",
        failures.join("\n")
    );
}

#[test]
fn corpus_malformed_entries_are_rejected_not_panicking() {
    // The two pinned malformed entries exercise the validation gates that
    // replaced panics/hangs; they must stay on the Rejected path.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    for (name, needle) in [
        ("terrain-off-grid-threat.json", "outside"),
        ("threat-huge-launch-time.json", "timeline"),
    ] {
        let case = load_case(dir.join(name)).unwrap();
        match run_case(&case) {
            CaseOutcome::Rejected(msg) => {
                assert!(msg.contains(needle), "{name}: unexpected rejection: {msg}")
            }
            other => panic!("{name}: expected Rejected, got {other:?}"),
        }
    }
}
