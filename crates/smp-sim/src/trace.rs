//! Operation traces for the trace-driven SMP simulator.
//!
//! A trace is a sequence of [`Op`]s per processor. [`TracePattern`]
//! generates the patterns the analytic models need validated:
//!
//! * `ResidentLoop` — repeated sweeps over a cache-resident block
//!   (Threat Analysis's per-pair working set: "the threads ... execute
//!   mostly within cache");
//! * `Stream` — a single pass over a large private array (Terrain
//!   Masking's copy/reset/merge loops);
//! * `SharedStream` — a streaming sweep over an array shared with other
//!   processors (the `masking` array merges, which also produce
//!   invalidation traffic);
//! * `Strided` — fixed-stride sweep (line-reuse ablation).

/// One trace operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `n` cycles of pure computation (no memory).
    Compute(u64),
    /// One memory access at word `addr`; `write` selects store semantics.
    Mem {
        /// Word address.
        addr: usize,
        /// Store if true, load otherwise.
        write: bool,
    },
}

/// Synthetic per-processor access patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePattern {
    /// `rounds` sweeps over `block_words` words starting at `base`, with
    /// `compute_per_access` compute cycles between accesses.
    ResidentLoop {
        /// First word of the block.
        base: usize,
        /// Block size in words (should fit in cache).
        block_words: usize,
        /// Number of sweeps.
        rounds: usize,
        /// Compute cycles between accesses.
        compute_per_access: u64,
    },
    /// One pass over `words` words starting at `base` with the given
    /// stride, `compute_per_access` compute cycles between accesses,
    /// writing if `write`.
    Stream {
        /// First word.
        base: usize,
        /// Number of accesses.
        words: usize,
        /// Stride in words.
        stride: usize,
        /// Compute cycles between accesses.
        compute_per_access: u64,
        /// Store if true.
        write: bool,
    },
}

impl TracePattern {
    /// Materialize the trace.
    pub fn generate(&self) -> Vec<Op> {
        let mut out = Vec::new();
        match *self {
            TracePattern::ResidentLoop {
                base,
                block_words,
                rounds,
                compute_per_access,
            } => {
                for _ in 0..rounds {
                    for w in 0..block_words {
                        if compute_per_access > 0 {
                            out.push(Op::Compute(compute_per_access));
                        }
                        out.push(Op::Mem {
                            addr: base + w,
                            write: false,
                        });
                    }
                }
            }
            TracePattern::Stream {
                base,
                words,
                stride,
                compute_per_access,
                write,
            } => {
                for i in 0..words {
                    if compute_per_access > 0 {
                        out.push(Op::Compute(compute_per_access));
                    }
                    out.push(Op::Mem {
                        addr: base + i * stride,
                        write,
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resident_loop_repeats_the_block() {
        let t = TracePattern::ResidentLoop {
            base: 100,
            block_words: 3,
            rounds: 2,
            compute_per_access: 0,
        }
        .generate();
        let addrs: Vec<usize> = t
            .iter()
            .filter_map(|op| match op {
                Op::Mem { addr, .. } => Some(*addr),
                _ => None,
            })
            .collect();
        assert_eq!(addrs, vec![100, 101, 102, 100, 101, 102]);
    }

    #[test]
    fn stream_strides() {
        let t = TracePattern::Stream {
            base: 0,
            words: 4,
            stride: 8,
            compute_per_access: 2,
            write: true,
        }
        .generate();
        assert_eq!(t.len(), 8, "compute + mem per access");
        assert_eq!(
            t[1],
            Op::Mem {
                addr: 0,
                write: true
            }
        );
        assert_eq!(
            t[7],
            Op::Mem {
                addr: 24,
                write: true
            }
        );
    }

    #[test]
    fn generation_emits_one_mem_op_per_word_visit() {
        for (p, mem_ops) in [
            (
                TracePattern::ResidentLoop {
                    base: 0,
                    block_words: 10,
                    rounds: 3,
                    compute_per_access: 1,
                },
                30,
            ),
            (
                TracePattern::Stream {
                    base: 0,
                    words: 25,
                    stride: 2,
                    compute_per_access: 0,
                    write: false,
                },
                25,
            ),
        ] {
            let n = p
                .generate()
                .iter()
                .filter(|op| matches!(op, Op::Mem { .. }))
                .count();
            assert_eq!(n, mem_ops);
        }
    }
}
