//! The seeded request mix `serve-mix` replays, generated by the benchmark
//! itself: 10 % ping, 55 % threat/terrain model (30 + 25), 20 % table,
//! 8 % figure, 5 % scalability, 2 % sensitivity, every argument
//! admissible on its platform (so no request is refused as a
//! `bad_request`). The requests of block `i` are the same for every seed;
//! the seed sets the order they are sent in, so the work in a run does
//! not depend on it.

use crate::common::SplitMix64;
use eval_core::{EvalRequest, Platform};

/// Request kinds, one per `eval_core.evaluate_us.*` metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Liveness probe.
    Ping,
    /// Modeled Threat Analysis seconds.
    ThreatModel,
    /// Modeled Terrain Masking seconds.
    TerrainModel,
    /// A rendered paper table.
    Table,
    /// A rendered paper figure.
    Figure,
    /// The §8 scalability projection.
    Scalability,
    /// The ±20 % calibration-perturbation table.
    Sensitivity,
}

impl Kind {
    /// Every kind, in metric order.
    pub const ALL: [Kind; 7] = [
        Kind::Ping,
        Kind::ThreatModel,
        Kind::TerrainModel,
        Kind::Table,
        Kind::Figure,
        Kind::Scalability,
        Kind::Sensitivity,
    ];

    /// The kind of `req` (`Sleep` is never generated).
    pub fn of(req: &EvalRequest) -> Kind {
        match req {
            EvalRequest::Ping | EvalRequest::Sleep { .. } => Kind::Ping,
            EvalRequest::ThreatModel { .. } => Kind::ThreatModel,
            EvalRequest::TerrainModel { .. } => Kind::TerrainModel,
            EvalRequest::Table { .. } => Kind::Table,
            EvalRequest::FigurePlot { .. } => Kind::Figure,
            EvalRequest::Scalability { .. } => Kind::Scalability,
            EvalRequest::Sensitivity => Kind::Sensitivity,
        }
    }

    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Ping => "ping",
            Kind::ThreatModel => "threat_model",
            Kind::TerrainModel => "terrain_model",
            Kind::Table => "table",
            Kind::Figure => "figure",
            Kind::Scalability => "scalability",
            Kind::Sensitivity => "sensitivity",
        }
    }

    /// Cost class: `cheap` (ping, models), `render` (tables, figures),
    /// `heavy` (projections, the sensitivity sweep).
    pub fn class(self) -> &'static str {
        match self {
            Kind::Ping | Kind::ThreatModel | Kind::TerrainModel => "cheap",
            Kind::Table | Kind::Figure => "render",
            Kind::Scalability | Kind::Sensitivity => "heavy",
        }
    }
}

/// Processor counts probing the Tera model's projection range (§8) and
/// the scalability lists.
const PROC_COUNTS: &[usize] = &[1, 2, 3, 4, 8, 16, 64, 256, 1024];
/// Tera chunk counts around the paper's chunking experiments (Table 5).
const CHUNK_COUNTS: &[usize] = &[1, 11, 23, 45, 89, 256, 1024, 100_000];
const PLATFORMS: &[Platform] = &[
    Platform::Alpha,
    Platform::PentiumPro,
    Platform::Exemplar,
    Platform::Tera,
];

fn procs_for(rng: &mut SplitMix64, platform: Platform) -> usize {
    match platform {
        Platform::Alpha => 1,
        Platform::PentiumPro => 1 + rng.below(4),
        Platform::Exemplar => rng.pick(&[1, 2, 4, 8, 15, 16]),
        Platform::Tera => rng.pick(PROC_COUNTS),
    }
}

/// Requests per block. Every block holds exactly the stated shares.
pub const BLOCK: usize = 100;

/// Seeds the arguments of the requests, whatever `--seed` is.
const ARGUMENT_SEED: u64 = 0xC3_1998;

/// One request of `kind`; a scalability request projects over as many
/// processor counts as `lens` yields next.
fn request(
    rng: &mut SplitMix64,
    kind: Kind,
    lens: &mut impl Iterator<Item = usize>,
) -> EvalRequest {
    match kind {
        Kind::Ping => EvalRequest::Ping,
        Kind::ThreatModel => {
            let platform = rng.pick(PLATFORMS);
            EvalRequest::ThreatModel {
                platform,
                n_procs: procs_for(rng, platform),
                n_chunks: rng.pick(CHUNK_COUNTS),
            }
        }
        Kind::TerrainModel => {
            let platform = rng.pick(PLATFORMS);
            EvalRequest::TerrainModel {
                platform,
                n_procs: procs_for(rng, platform),
            }
        }
        Kind::Table => EvalRequest::Table {
            n: 1 + rng.below(12) as u8,
        },
        Kind::Figure => EvalRequest::FigurePlot {
            n: 1 + rng.below(4) as u8,
        },
        Kind::Scalability => EvalRequest::Scalability {
            procs: (0..lens.next().unwrap_or(1))
                .map(|_| rng.pick(PROC_COUNTS))
                .collect(),
        },
        Kind::Sensitivity => EvalRequest::Sensitivity,
    }
}

/// `blocks` blocks of the mix for `seed`: each block is the stated shares
/// of [`BLOCK`] requests — the same requests for every seed — in a seeded
/// order.
pub fn generate(seed: u64, blocks: usize) -> Vec<EvalRequest> {
    const SHARES: [(Kind, usize); 7] = [
        (Kind::Ping, 10),
        (Kind::ThreatModel, 30),
        (Kind::TerrainModel, 25),
        (Kind::Table, 20),
        (Kind::Figure, 8),
        (Kind::Scalability, 5),
        (Kind::Sensitivity, 2),
    ];
    // The five projections of a block cover 1 to 8 processor counts.
    const SCALABILITY_LENS: [usize; 5] = [1, 2, 4, 6, 8];
    let mut args = SplitMix64(ARGUMENT_SEED);
    let mut order = SplitMix64(seed);
    let mut out = Vec::with_capacity(blocks * BLOCK);
    for _ in 0..blocks {
        let mut lens = SCALABILITY_LENS.iter().copied();
        let mut block: Vec<EvalRequest> = SHARES
            .iter()
            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
            .map(|kind| request(&mut args, kind, &mut lens))
            .collect();
        debug_assert_eq!(block.len(), BLOCK);
        order.shuffle(&mut block);
        out.extend(block);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eval_core::{Evaluator, Experiments, Workload, WorkloadScale};

    /// The Table 1 machine sizes the service enforces at admission.
    fn platform_cap(platform: Platform) -> usize {
        match platform {
            Platform::Alpha => 1,
            Platform::PentiumPro => 4,
            Platform::Exemplar => 16,
            Platform::Tera => 1024,
        }
    }

    #[test]
    fn equal_seeds_agree_and_different_seeds_differ() {
        assert_eq!(generate(1, 5), generate(1, 5));
        assert_ne!(generate(1, 5), generate(2, 5));
        assert_eq!(generate(7, 5)[..BLOCK], generate(7, 1)[..]);
    }

    #[test]
    fn every_seed_sends_the_same_requests_block_by_block() {
        let sorted = |seed| -> Vec<Vec<String>> {
            generate(seed, 6)
                .chunks(BLOCK)
                .map(|block| {
                    let mut reqs: Vec<String> = block.iter().map(|r| format!("{r:?}")).collect();
                    reqs.sort();
                    reqs
                })
                .collect()
        };
        assert_eq!(sorted(1), sorted(2));
        assert_ne!(sorted(1)[0], sorted(1)[1], "blocks differ from one another");
    }

    #[test]
    fn every_block_holds_exactly_the_stated_shares() {
        for block in generate(3, 20).chunks(BLOCK) {
            let count = |k: Kind| block.iter().filter(|r| Kind::of(r) == k).count();
            assert_eq!(
                Kind::ALL.map(count),
                [10, 30, 25, 20, 8, 5, 2],
                "ping, threat, terrain, table, figure, scalability, sensitivity"
            );
            let mut lens: Vec<usize> = block
                .iter()
                .filter_map(|r| match r {
                    EvalRequest::Scalability { procs } => Some(procs.len()),
                    _ => None,
                })
                .collect();
            lens.sort_unstable();
            assert_eq!(lens, [1, 2, 4, 6, 8]);
        }
    }

    /// Admissible means the service answers instead of refusing: checked
    /// against the real evaluator (reduced scale — admission does not
    /// depend on scale) and against the Table 1 caps.
    #[test]
    fn every_request_is_admissible() {
        let scale = WorkloadScale::Reduced;
        let evaluator = Evaluator::new(Experiments::new(Workload::build(scale)), scale);
        let mut seen = std::collections::HashSet::new();
        // Every seed sends these same requests; 40 blocks is the whole pool.
        for req in generate(1, 40) {
            match &req {
                EvalRequest::ThreatModel {
                    platform, n_procs, ..
                }
                | EvalRequest::TerrainModel { platform, n_procs } => {
                    assert!((1..=platform_cap(*platform)).contains(n_procs), "{req:?}")
                }
                _ => {}
            }
            if seen.insert(format!("{req:?}")) {
                assert!(evaluator.evaluate(&req).is_ok(), "{req:?} refused");
            }
        }
    }
}
