//! Differential scenario fuzzing for the C3I benchmark kernels.
//!
//! The paper validates each benchmark on only five fixed seeded scenarios.
//! This crate closes that blind spot: a seeded, distribution-driven
//! generator produces adversarial Terrain Masking and Threat Analysis
//! scenarios (threat clusters with maximal region-of-influence overlap,
//! degenerate terrains — flat, cliff wall, single spike — pathological
//! grid sizes including non-powers-of-two and tiny grids, and randomized
//! engagement timelines), and every scenario runs through the full
//! differential matrix:
//!
//! > sequential oracle × {coarse, fine, chunked} × {1, 2, 8} workers
//!
//! asserting bit-identical outputs (set-identical for the fine-grained
//! Threat Analysis variant, whose slot order is inherently racy). A
//! failing scenario is minimized with delta-debugging shrinking before it
//! is reported, and minimized regressions are pinned under `tests/corpus/`
//! where a standard `#[test]` replays them on every CI run.
//!
//! Entry points: [`run_campaign`] (the `repro --fuzz N` backend),
//! [`run_case`] (one scenario through the whole matrix), and
//! [`shrink_case`] (delta-debugging minimization). The [`mix`] module
//! reuses the same seeded-generation idiom for *service traffic*:
//! deterministic scenario-evaluation request mixes replayed by
//! `repro --load` against a `repro --serve` server.

#![warn(missing_docs)]

pub mod campaign;
pub mod gen;
pub mod mix;
pub mod runner;
pub mod shrink;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport, MinimizedFailure};
pub use gen::{generate_case, FuzzCase, GenConfig};
pub use mix::{generate_mix, generate_request};
pub use runner::{run_case, CaseOutcome, Failure};
pub use shrink::shrink_case;

use std::path::Path;

/// Write a fuzz case to a JSON file (pretty-printed, so corpus entries
/// diff readably in review).
pub fn save_case(case: &FuzzCase, path: impl AsRef<Path>) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(case)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    std::fs::write(path, json)
}

/// Read a fuzz case from a JSON file (a `tests/corpus/` entry or a file
/// written by a failing `repro --fuzz` run).
pub fn load_case(path: impl AsRef<Path>) -> std::io::Result<FuzzCase> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_round_trip_through_json() {
        let dir = std::env::temp_dir();
        for (i, case) in [
            generate_case(1, 0, &GenConfig { reduced: true }),
            generate_case(1, 1, &GenConfig { reduced: true }),
        ]
        .iter()
        .enumerate()
        {
            let path = dir.join(format!(
                "c3i_fuzz_roundtrip_{}_{i}.json",
                std::process::id()
            ));
            save_case(case, &path).unwrap();
            let loaded = load_case(&path).unwrap();
            assert_eq!(
                serde_json::to_string(case).unwrap(),
                serde_json::to_string(&loaded).unwrap()
            );
            std::fs::remove_file(path).ok();
        }
    }
}
