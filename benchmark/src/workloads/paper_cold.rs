//! `paper-cold`: ROADMAP's own definition of end to end — one `repro` run
//! from cold start to last table. The op spawns
//! `repro --no-cache all --csv <tmp>` at paper scale and byte-compares
//! the 13 CSVs it writes with the pinned `results/`. It is the only
//! workload where the c3i *counting* instantiation (`Workload::build`)
//! dominates. The paper's inputs are fixed, so the seed changes nothing
//! here.

use super::Workload;
use crate::common::{
    reaped_children_peak_rss_mb, timed_loop, wait_timeout, Budget, Env, OpOutcome, Samples,
    CHILD_TIMEOUT,
};
use crate::trace::Tracer;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// State of the `paper-cold` workload.
pub struct PaperCold {
    repro: PathBuf,
    dir: PathBuf,
    /// `(file name, bytes)` of every pinned CSV, sorted by name.
    expected: Vec<(String, Vec<u8>)>,
}

/// Every `*.csv` in `dir` as `(file name, bytes)`, sorted by name.
fn read_csvs(dir: &Path) -> Result<Vec<(String, Vec<u8>)>, String> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "csv") {
            let name = path
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            let bytes =
                std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            out.push((name, bytes));
        }
    }
    out.sort();
    Ok(out)
}

impl PaperCold {
    /// One cold reproduction, checked.
    fn op(&self, tr: &Tracer) -> OpOutcome {
        let csv = self.dir.join("csv");
        let _ = std::fs::remove_dir_all(&csv);
        let redirect = |name: &str| {
            File::create(self.dir.join(name)).map_or_else(|_| Stdio::null(), Stdio::from)
        };
        let mut cmd = Command::new(&self.repro);
        cmd.args(["--no-cache", "all", "--csv"])
            .arg(&csv)
            .stdin(Stdio::null())
            .stdout(redirect("stdout.txt"))
            .stderr(redirect("stderr.txt"));
        let (status, ns) = tr.timed("repro.cold_all", || {
            cmd.spawn()
                .ok()
                .and_then(|mut child| wait_timeout(&mut child, CHILD_TIMEOUT))
        });
        let check = match status {
            None => Err("repro did not start or timed out".to_string()),
            Some(s) if !s.success() => Err(format!("repro exited with {s}")),
            Some(_) => read_csvs(&csv).and_then(|got| {
                if got == self.expected {
                    return Ok(());
                }
                let differing: Vec<&str> = self
                    .expected
                    .iter()
                    .filter(|e| !got.contains(e))
                    .map(|(name, _)| name.as_str())
                    .collect();
                Err(format!(
                    "{} CSVs written, {} pinned; differing or missing: {differing:?}",
                    got.len(),
                    self.expected.len()
                ))
            }),
        };
        OpOutcome {
            ns,
            work: 1.0,
            check,
        }
    }
}

impl Workload for PaperCold {
    fn setup(_seed: u64, env: &Env, tr: &Tracer) -> Result<Self, String> {
        let dir = env.tmp.join("paper-cold");
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let expected = read_csvs(&env.results)?;
        if expected.len() != 13 {
            return Err(format!(
                "expected 13 pinned CSVs in results/, found {}",
                expected.len()
            ));
        }
        let w = Self {
            repro: env.repro.clone(),
            dir,
            expected,
        };
        // One warm-up op: pages the binary in and proves the check passes
        // before anything is timed.
        w.op(tr)
            .check
            .map_err(|why| format!("warm-up op failed: {why}"))?;
        Ok(w)
    }

    fn measure(&mut self, budget: Budget, tr: &Tracer) -> Samples {
        timed_loop(budget, tr, || self.op(tr))
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        reaped_children_peak_rss_mb()
    }
}
