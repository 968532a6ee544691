//! The two Criterion groups the docs cite as sources. Every other timing
//! is produced, checked and bounded by the repo benchmark (`benchmark/`).
//!
//! * `overhead` — parallel-region dispatch: fresh scoped threads vs the
//!   parked pool, and `par_map` of trivial vs substantial tasks
//!   (EXPERIMENTS.md, `docs/LAYERS.md`).
//! * `kernels` — each c3i hot kernel beside its pinned baseline
//!   (EXPERIMENTS.md; `ci.sh` runs it at quick scale as a smoke).
