//! Serde-backed snapshot cache for the measured workload + calibration.
//!
//! Obtaining the workload (generating every scenario and counting what
//! the benchmark programs record on it) and calibrating against it is
//! most of a cold harness start — tenths of a second at Paper scale,
//! against milliseconds to load a snapshot — and the result is a pure
//! function of the measurement code and the [`WorkloadScale`]. This
//! module memoizes that function on disk: `repro`, the integration tests,
//! and the criterion benches all call [`load_or_measure`] and only the
//! first of them pays for measurement.
//!
//! Correctness comes from the *code fingerprint*: a snapshot stores a hash
//! of every source file the measured numbers depend on (benchmark
//! algorithms, counting backend, workload/calibration definitions,
//! embedded via `include_str!` at compile time). Any edit to those files
//! changes the fingerprint of the running binary, so stale snapshots are
//! silently re-measured, never trusted. Unreadable or corrupt snapshots
//! are likewise treated as misses.
//!
//! Knobs (environment variables):
//! * `C3I_CACHE_DIR` — override the snapshot directory (default:
//!   `target/c3i-cache` in the workspace).
//! * `C3I_NO_CACHE` — when set (to anything non-empty), neither read nor
//!   write snapshots.

use crate::calibrate::{calibrate, Calibration};
use crate::workload::{Workload, WorkloadScale};
use std::path::{Path, PathBuf};

/// Everything [`load_or_measure`] persists: the fingerprint that guards
/// staleness plus the two expensive-to-recompute values.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Snapshot {
    /// [`code_fingerprint`] of the binary that wrote the snapshot.
    pub fingerprint: String,
    /// The measured workload profiles.
    pub workload: Workload,
    /// Models calibrated against `workload`.
    pub cal: Calibration,
}

/// How [`load_or_measure`] obtained its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// A valid snapshot with a matching fingerprint was loaded.
    Hit,
    /// No usable snapshot; measured and wrote a fresh one.
    Miss,
    /// `C3I_NO_CACHE` was set; measured without touching the disk.
    Disabled,
}

/// Sources the measured numbers depend on, embedded at compile time as
/// `(crates-relative path, content)` pairs. The path is hashed with the
/// content (so moves invalidate too) and lets the coverage test map each
/// entry back to the file on disk. The whole `c3i` crate is included, and
/// so is the vendored RNG it draws every scenario from — over-inclusion
/// only re-measures, under-inclusion trusts stale numbers.
const MEASUREMENT_SOURCES: &[(&str, &str)] = &[
    ("core/src/workload.rs", include_str!("workload.rs")),
    ("core/src/calibrate.rs", include_str!("calibrate.rs")),
    ("core/src/models.rs", include_str!("models.rs")),
    ("c3i/src/lib.rs", include_str!("../../c3i/src/lib.rs")),
    ("c3i/src/grid.rs", include_str!("../../c3i/src/grid.rs")),
    ("c3i/src/counts.rs", include_str!("../../c3i/src/counts.rs")),
    (
        "c3i/src/threat/mod.rs",
        include_str!("../../c3i/src/threat/mod.rs"),
    ),
    (
        "c3i/src/threat/model.rs",
        include_str!("../../c3i/src/threat/model.rs"),
    ),
    (
        "c3i/src/threat/scenario.rs",
        include_str!("../../c3i/src/threat/scenario.rs"),
    ),
    (
        "c3i/src/threat/sequential.rs",
        include_str!("../../c3i/src/threat/sequential.rs"),
    ),
    (
        "c3i/src/threat/chunked.rs",
        include_str!("../../c3i/src/threat/chunked.rs"),
    ),
    (
        "c3i/src/threat/fine.rs",
        include_str!("../../c3i/src/threat/fine.rs"),
    ),
    (
        "c3i/src/threat/verify.rs",
        include_str!("../../c3i/src/threat/verify.rs"),
    ),
    (
        "c3i/src/terrain/mod.rs",
        include_str!("../../c3i/src/terrain/mod.rs"),
    ),
    (
        "c3i/src/terrain/scenario.rs",
        include_str!("../../c3i/src/terrain/scenario.rs"),
    ),
    (
        "c3i/src/terrain/los.rs",
        include_str!("../../c3i/src/terrain/los.rs"),
    ),
    (
        "c3i/src/terrain/count.rs",
        include_str!("../../c3i/src/terrain/count.rs"),
    ),
    (
        "c3i/src/terrain/exact.rs",
        include_str!("../../c3i/src/terrain/exact.rs"),
    ),
    (
        "c3i/src/terrain/sequential.rs",
        include_str!("../../c3i/src/terrain/sequential.rs"),
    ),
    (
        "c3i/src/terrain/coarse.rs",
        include_str!("../../c3i/src/terrain/coarse.rs"),
    ),
    (
        "c3i/src/terrain/fine.rs",
        include_str!("../../c3i/src/terrain/fine.rs"),
    ),
    (
        "c3i/src/terrain/verify.rs",
        include_str!("../../c3i/src/terrain/verify.rs"),
    ),
    (
        "sthreads/src/counting.rs",
        include_str!("../../sthreads/src/counting.rs"),
    ),
    // The RNG every scenario is drawn from: the ChaCha8 stream and the
    // range sampling that turns its words into threats and weapons.
    (
        "../vendor/rand_chacha/src/lib.rs",
        include_str!("../../../vendor/rand_chacha/src/lib.rs"),
    ),
    (
        "../vendor/rand/src/lib.rs",
        include_str!("../../../vendor/rand/src/lib.rs"),
    ),
];

/// FNV-1a hash (64-bit, hex) over every measurement-defining source file.
/// Two binaries agree on this string iff they agree on the measurement
/// code, which is exactly the condition for sharing snapshots.
pub fn code_fingerprint() -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (path, src) in MEASUREMENT_SOURCES {
        for b in path.bytes().chain(src.bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separate files so content cannot shift between them unnoticed.
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The snapshot directory: `C3I_CACHE_DIR` if set, else `target/c3i-cache`
/// next to the workspace's build artifacts.
pub fn cache_dir() -> PathBuf {
    match std::env::var_os("C3I_CACHE_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/c3i-cache"),
    }
}

fn snapshot_path(dir: &Path, scale: WorkloadScale) -> PathBuf {
    let slug = match scale {
        WorkloadScale::Paper => "paper",
        WorkloadScale::Reduced => "reduced",
    };
    dir.join(format!("workload_{slug}.json"))
}

fn cache_disabled() -> bool {
    std::env::var_os("C3I_NO_CACHE").is_some_and(|v| !v.is_empty())
}

/// Load a usable snapshot from `dir`, or `None` on any problem (missing
/// file, parse error, fingerprint or scale mismatch).
fn try_load(dir: &Path, scale: WorkloadScale, fingerprint: &str) -> Option<Snapshot> {
    let text = std::fs::read_to_string(snapshot_path(dir, scale)).ok()?;
    let snap: Snapshot = serde_json::from_str(&text).ok()?;
    (snap.fingerprint == fingerprint && snap.workload.scale == scale).then_some(snap)
}

/// Write `snap` to `dir` atomically (temp file + rename), so a concurrent
/// reader never sees a torn snapshot. Errors are swallowed: the cache is
/// an optimization and must never fail the harness.
fn try_store(dir: &Path, snap: &Snapshot) {
    let Ok(text) = serde_json::to_string(snap) else {
        return;
    };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let final_path = snapshot_path(dir, snap.workload.scale);
    let tmp_path = final_path.with_extension(format!("tmp.{}", std::process::id()));
    // The temp file must not outlive this call on *either* failure path:
    // a failed write can still leave a partial file (or a dangling link
    // target) behind, not just a failed rename.
    if std::fs::write(&tmp_path, text).is_err() || std::fs::rename(&tmp_path, &final_path).is_err()
    {
        let _ = std::fs::remove_file(&tmp_path);
    }
}

/// [`load_or_measure`] against an explicit directory (the testable core;
/// the public entry point resolves the directory from the environment).
pub fn load_or_measure_in(
    dir: &Path,
    scale: WorkloadScale,
    use_cache: bool,
) -> (Workload, Calibration, CacheStatus) {
    let fingerprint = code_fingerprint();
    if use_cache {
        if let Some(snap) = try_load(dir, scale, &fingerprint) {
            return (snap.workload, snap.cal, CacheStatus::Hit);
        }
    }
    let workload = Workload::build(scale);
    let cal = calibrate(&workload);
    if !use_cache {
        return (workload, cal, CacheStatus::Disabled);
    }
    try_store(
        dir,
        &Snapshot {
            fingerprint,
            workload: workload.clone(),
            cal: cal.clone(),
        },
    );
    (workload, cal, CacheStatus::Miss)
}

/// Return the measured workload and calibration for `scale`, from the
/// snapshot cache when possible (see the module docs for the staleness
/// guarantee and the `C3I_CACHE_DIR` / `C3I_NO_CACHE` knobs).
pub fn load_or_measure(scale: WorkloadScale) -> (Workload, Calibration, CacheStatus) {
    load_or_measure_in(&cache_dir(), scale, !cache_disabled())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A unique throwaway directory per test (no temp-dir crate; pid +
    /// counter keeps concurrent test binaries apart).
    fn scratch_dir() -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("c3i-cache-test-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fingerprint_is_stable_within_a_build() {
        assert_eq!(code_fingerprint(), code_fingerprint());
        assert_eq!(code_fingerprint().len(), 16);
    }

    #[test]
    fn miss_then_hit_round_trips_identical_values() {
        let dir = scratch_dir();
        let (w1, c1, s1) = load_or_measure_in(&dir, WorkloadScale::Reduced, true);
        assert_eq!(s1, CacheStatus::Miss);
        let (w2, c2, s2) = load_or_measure_in(&dir, WorkloadScale::Reduced, true);
        assert_eq!(s2, CacheStatus::Hit);
        assert_eq!(w1, w2, "cached workload must round-trip exactly");
        assert_eq!(c1, c2, "cached calibration must round-trip exactly");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_is_remeasured() {
        let dir = scratch_dir();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(snapshot_path(&dir, WorkloadScale::Reduced), "{ not json").unwrap();
        let (_, _, status) = load_or_measure_in(&dir, WorkloadScale::Reduced, true);
        assert_eq!(status, CacheStatus::Miss);
        // And the bad file was replaced by a loadable one.
        let (_, _, status) = load_or_measure_in(&dir, WorkloadScale::Reduced, true);
        assert_eq!(status, CacheStatus::Hit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_snapshot_is_remeasured() {
        // A crash (or full disk) mid-write outside the atomic-rename path
        // leaves a prefix of valid JSON; it must read as a miss, never a
        // panic.
        let dir = scratch_dir();
        let (_, _, status) = load_or_measure_in(&dir, WorkloadScale::Reduced, true);
        assert_eq!(status, CacheStatus::Miss);
        let path = snapshot_path(&dir, WorkloadScale::Reduced);
        let text = std::fs::read(&path).unwrap();
        for keep in [0, 1, text.len() / 2, text.len() - 1] {
            std::fs::write(&path, &text[..keep]).unwrap();
            let (_, _, status) = load_or_measure_in(&dir, WorkloadScale::Reduced, true);
            assert_eq!(status, CacheStatus::Miss, "truncated at {keep} bytes");
        }
        // Each miss rewrote the snapshot, so the cache self-heals.
        let (_, _, status) = load_or_measure_in(&dir, WorkloadScale::Reduced, true);
        assert_eq!(status, CacheStatus::Hit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_tmp_write_leaves_no_tmp_file() {
        // The PR-8 satellite bug: when `fs::write` itself failed,
        // `try_store` only cleaned the temp path up after a *rename*
        // failure, leaking `.tmp.<pid>` entries into the cache dir.
        let dir = scratch_dir();
        let (workload, cal, _) = load_or_measure_in(&dir, WorkloadScale::Reduced, true);
        let final_path = snapshot_path(&dir, WorkloadScale::Reduced);
        let tmp_path = final_path.with_extension(format!("tmp.{}", std::process::id()));
        // Force the write itself to fail: point the deterministic temp
        // path at a target inside a directory that does not exist, so
        // `fs::write`'s open(2) follows the link and gets ENOENT while a
        // directory entry for the temp path already exists.
        std::os::unix::fs::symlink(dir.join("missing-subdir/target"), &tmp_path).unwrap();
        try_store(
            &dir,
            &Snapshot {
                fingerprint: code_fingerprint(),
                workload,
                cal,
            },
        );
        assert!(
            std::fs::symlink_metadata(&tmp_path).is_err(),
            "the temp path must be cleaned up when the write itself fails"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_covers_every_measurement_source_on_disk() {
        // The measurement chain is workload.rs -> c3i benchmarks ->
        // sthreads counting backend. Walk the benchmark crate on disk and
        // require every source file to be embedded, byte-identical — a new
        // c3i file that silently isn't fingerprinted would let stale
        // snapshots survive edits to it.
        let crates_root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        let c3i_src = crates_root.join("c3i/src");
        let mut walk = vec![c3i_src.clone()];
        let mut checked = 0usize;
        while let Some(dir) = walk.pop() {
            for entry in std::fs::read_dir(&dir).unwrap() {
                let p = entry.unwrap().path();
                if p.is_dir() {
                    walk.push(p);
                } else if p.extension().is_some_and(|e| e == "rs") {
                    let rel = format!("c3i/src/{}", p.strip_prefix(&c3i_src).unwrap().display());
                    let embedded = MEASUREMENT_SOURCES
                        .iter()
                        .find(|(path, _)| *path == rel)
                        .unwrap_or_else(|| {
                            panic!("{rel} is not fingerprinted — add it to MEASUREMENT_SOURCES")
                        })
                        .1;
                    let on_disk = std::fs::read_to_string(&p).unwrap();
                    assert_eq!(embedded, on_disk, "{rel}: embedded copy differs from disk");
                    checked += 1;
                }
            }
        }
        assert!(checked >= 18, "walked only {checked} c3i sources");
        // The measurement-side singletons outside c3i, the RNG every
        // scenario is drawn from among them.
        for must in [
            "core/src/workload.rs",
            "core/src/calibrate.rs",
            "core/src/models.rs",
            "sthreads/src/counting.rs",
            "../vendor/rand_chacha/src/lib.rs",
            "../vendor/rand/src/lib.rs",
        ] {
            let embedded = MEASUREMENT_SOURCES
                .iter()
                .find(|(p, _)| *p == must)
                .unwrap_or_else(|| panic!("{must} missing from MEASUREMENT_SOURCES"))
                .1;
            let on_disk = std::fs::read_to_string(crates_root.join(must)).unwrap();
            assert_eq!(embedded, on_disk, "{must}: embedded copy differs from disk");
        }
    }

    #[test]
    fn stale_fingerprint_is_remeasured() {
        let dir = scratch_dir();
        let (_, _, status) = load_or_measure_in(&dir, WorkloadScale::Reduced, true);
        assert_eq!(status, CacheStatus::Miss);
        // Forge a snapshot from a "different build".
        let path = snapshot_path(&dir, WorkloadScale::Reduced);
        let text = std::fs::read_to_string(&path).unwrap();
        let forged = text.replacen(&code_fingerprint(), "deadbeefdeadbeef", 1);
        std::fs::write(&path, forged).unwrap();
        let (_, _, status) = load_or_measure_in(&dir, WorkloadScale::Reduced, true);
        assert_eq!(
            status,
            CacheStatus::Miss,
            "foreign fingerprints must not be trusted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_cache_neither_reads_nor_writes() {
        let dir = scratch_dir();
        let (_, _, status) = load_or_measure_in(&dir, WorkloadScale::Reduced, false);
        assert_eq!(status, CacheStatus::Disabled);
        assert!(!dir.exists(), "disabled cache must not create {dir:?}");
    }
}
