//! Seeded generation of scenario-evaluation **request mixes** for the
//! `repro --serve` service.
//!
//! Where [`crate::gen`] fuzzes the benchmark *kernels* with adversarial
//! scenarios, this module fuzzes the *service* with adversarial traffic:
//! a deterministic, seed-replayable stream of [`EvalRequest`]s spanning
//! every request kind — cheap pings, every paper table and figure,
//! modeled-benchmark configurations across all four platforms with
//! boundary processor/chunk counts, scalability projections, and the
//! expensive sensitivity sweep. The `repro --load` generator replays a
//! mix through a live server and checks every response against a direct
//! sequential evaluation; the CI smoke pins one seed.
//!
//! The distribution is weighted toward cheap requests (pings, model
//! evaluations) with a tail of heavy ones (tables, sensitivity), so a
//! replay exercises concurrent admission with realistically mixed
//! service times rather than uniform work.

use eval_core::experiments::{Figure, TABLES};
use eval_core::paper::{ALPHA, EXEMPLAR, MACHINES, PPRO};
use eval_core::{EvalRequest, Platform};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Processor counts that probe model boundaries on the Tera (whose model
/// projects past the paper's 2-processor machine, §8) and in scalability
/// requests: serial, the paper's machine sizes, and the projection range.
const PROC_COUNTS: &[usize] = &[1, 2, 3, 4, 8, 16, 64, 256, 1024];

/// Tera chunk counts from the paper's chunking experiments (Table 5 uses
/// 11–89; the fine-grained limit is one chunk per threat).
const CHUNK_COUNTS: &[usize] = &[1, 11, 23, 45, 89, 256, 1024, 100_000];

const PLATFORMS: &[Platform] = &[
    Platform::Alpha,
    Platform::PentiumPro,
    Platform::Exemplar,
    Platform::Tera,
];

fn pick<T: Copy>(rng: &mut ChaCha8Rng, xs: &[T]) -> T {
    xs[rng.random_range(0..xs.len())]
}

/// A processor count admissible on `platform`: conventional machines are
/// bounded by their Table 1 sizes (the Exemplar's draws include its full
/// size and one less); the Tera model projects freely.
fn procs_for(rng: &mut ChaCha8Rng, platform: Platform) -> usize {
    match platform {
        Platform::Alpha => MACHINES[ALPHA].processors,
        Platform::PentiumPro => rng.random_range(1..=MACHINES[PPRO].processors),
        Platform::Exemplar => {
            let n = MACHINES[EXEMPLAR].processors;
            pick(rng, &[1, 2, 4, 8, n - 1, n])
        }
        Platform::Tera => pick(rng, PROC_COUNTS),
    }
}

/// Generate request `index` of the mix with `seed`, deterministically —
/// the same index/seed pair always yields the same request, so a mix can
/// be replayed request-by-request without materializing it.
pub fn generate_request(seed: u64, index: usize) -> EvalRequest {
    let mut rng = ChaCha8Rng::seed_from_u64(
        seed ^ (index as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x0C31_5E7F),
    );
    match rng.random_range(0..100u32) {
        // Cheap head: liveness probes and modeled-benchmark seconds.
        0..=9 => EvalRequest::Ping,
        10..=39 => {
            let platform = pick(&mut rng, PLATFORMS);
            EvalRequest::ThreatModel {
                platform,
                n_procs: procs_for(&mut rng, platform),
                n_chunks: pick(&mut rng, CHUNK_COUNTS),
            }
        }
        40..=64 => {
            let platform = pick(&mut rng, PLATFORMS);
            EvalRequest::TerrainModel {
                platform,
                n_procs: procs_for(&mut rng, platform),
            }
        }
        // Medium: rendered tables and figures.
        65..=84 => EvalRequest::Table {
            n: rng.random_range(1..=TABLES.len() as u8),
        },
        85..=92 => EvalRequest::FigurePlot {
            n: rng.random_range(1..=Figure::ALL.len() as u8),
        },
        // Heavy tail: projections and the perturbation sweep.
        93..=97 => {
            let len = rng.random_range(1..=8usize);
            EvalRequest::Scalability {
                procs: (0..len).map(|_| pick(&mut rng, PROC_COUNTS)).collect(),
            }
        }
        _ => EvalRequest::Sensitivity,
    }
}

/// Generate the full `n`-request mix for `seed`.
pub fn generate_mix(seed: u64, n: usize) -> Vec<EvalRequest> {
    (0..n).map(|i| generate_request(seed, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The processor counts the service admits: Table 1's for the
    /// conventional machines, whose models enforce it, and the request
    /// bound for the Tera, whose model projects past it.
    fn platform_cap(platform: Platform) -> usize {
        match platform {
            Platform::Alpha => MACHINES[ALPHA].processors,
            Platform::PentiumPro => MACHINES[PPRO].processors,
            Platform::Exemplar => MACHINES[EXEMPLAR].processors,
            Platform::Tera => 1024,
        }
    }

    #[test]
    fn mix_is_deterministic_and_valid() {
        let a = generate_mix(1, 200);
        let b = generate_mix(1, 200);
        assert_eq!(a, b, "same seed must replay identically");
        let c = generate_mix(2, 200);
        assert_ne!(a, c, "different seeds must differ");
        // Every generated request must pass service admission (no
        // BadRequest traffic in a load run).
        for req in &a {
            match req {
                EvalRequest::Table { n } => assert!((1..=TABLES.len()).contains(&usize::from(*n))),
                EvalRequest::FigurePlot { n } => {
                    assert!((1..=Figure::ALL.len()).contains(&usize::from(*n)))
                }
                EvalRequest::ThreatModel {
                    platform,
                    n_procs,
                    n_chunks,
                } => {
                    assert!((1..=platform_cap(*platform)).contains(n_procs));
                    assert!((1..=100_000).contains(n_chunks));
                }
                EvalRequest::TerrainModel { platform, n_procs } => {
                    assert!((1..=platform_cap(*platform)).contains(n_procs))
                }
                EvalRequest::Scalability { procs } => {
                    assert!(!procs.is_empty() && procs.len() <= 64);
                    assert!(procs.iter().all(|p| (1..=65_536).contains(p)));
                }
                EvalRequest::Ping | EvalRequest::Sensitivity | EvalRequest::Sleep { .. } => {}
            }
        }
    }

    #[test]
    fn mix_covers_every_request_kind() {
        let mix = generate_mix(1, 500);
        let has = |f: &dyn Fn(&EvalRequest) -> bool| mix.iter().any(f);
        assert!(has(&|r| matches!(r, EvalRequest::Ping)));
        assert!(has(&|r| matches!(r, EvalRequest::Table { .. })));
        assert!(has(&|r| matches!(r, EvalRequest::FigurePlot { .. })));
        assert!(has(&|r| matches!(r, EvalRequest::ThreatModel { .. })));
        assert!(has(&|r| matches!(r, EvalRequest::TerrainModel { .. })));
        assert!(has(&|r| matches!(r, EvalRequest::Scalability { .. })));
        assert!(has(&|r| matches!(r, EvalRequest::Sensitivity)));
    }

    #[test]
    fn generate_request_matches_generate_mix() {
        let mix = generate_mix(7, 50);
        for (i, req) in mix.iter().enumerate() {
            assert_eq!(&generate_request(7, i), req);
        }
    }
}
