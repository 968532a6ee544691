//! Operation recording for the machine models.
//!
//! The benchmark algorithms are written once, generic over [`Rec`]. With
//! [`NoRec`] every recording call is a no-op the optimizer deletes, so the
//! host-timed variants pay nothing. With [`sthreads::OpRecorder`] the same
//! code path produces the abstract operation counts (per logical thread)
//! that `eval-core`'s calibrated platform models turn into the paper's
//! table entries.

use sthreads::{OpCounts, OpRecorder, ThreadCounts};

/// Abstract-operation recorder interface. Counts are in units of "machine
/// operations": one `int`/`fp` is one ALU instruction, one `load`/`store`
/// is one word of memory traffic, one `sync` is one synchronized memory
/// operation (full/empty access, fetch-add, or lock transition), one
/// `spawn` is one logical thread creation.
pub trait Rec {
    /// Whether this recorder actually accumulates counts. Kernels with a
    /// batched fast path (the SoA engagement scan) check this at compile
    /// time: when `true` they take the historical stepwise path so
    /// recorded totals stay exactly those of the reference code; when
    /// `false` (the [`NoRec`] timing path) they are free to batch, since
    /// outputs are bit-identical either way. The harness reads neither
    /// instantiation for its op counts — it counts them
    /// (`terrain::op_profile`, `threat::op_profile`) — so the counting
    /// instantiation is the oracle those counters are tested against.
    const COUNTING: bool = true;
    /// Record `n` integer ALU operations.
    fn int(&mut self, n: u64);
    /// Record `n` floating-point operations.
    fn fp(&mut self, n: u64);
    /// Record `n` memory loads.
    fn load(&mut self, n: u64);
    /// Record `n` memory stores.
    fn store(&mut self, n: u64);
    /// Record `n` streaming loads over large, low-reuse arrays.
    fn sload(&mut self, n: u64);
    /// Record `n` streaming stores over large, low-reuse arrays.
    fn sstore(&mut self, n: u64);
    /// Record `n` synchronization operations.
    fn sync(&mut self, n: u64);
    /// Record `n` logical thread spawns.
    fn spawn(&mut self, n: u64);
}

/// The zero-cost recorder used by the host-timed benchmark variants.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoRec;

impl Rec for NoRec {
    const COUNTING: bool = false;
    #[inline(always)]
    fn int(&mut self, _n: u64) {}
    #[inline(always)]
    fn fp(&mut self, _n: u64) {}
    #[inline(always)]
    fn load(&mut self, _n: u64) {}
    #[inline(always)]
    fn store(&mut self, _n: u64) {}
    #[inline(always)]
    fn sload(&mut self, _n: u64) {}
    #[inline(always)]
    fn sstore(&mut self, _n: u64) {}
    #[inline(always)]
    fn sync(&mut self, _n: u64) {}
    #[inline(always)]
    fn spawn(&mut self, _n: u64) {}
}

impl Rec for OpRecorder {
    #[inline]
    fn int(&mut self, n: u64) {
        OpRecorder::int(self, n);
    }
    #[inline]
    fn fp(&mut self, n: u64) {
        OpRecorder::fp(self, n);
    }
    #[inline]
    fn load(&mut self, n: u64) {
        OpRecorder::load(self, n);
    }
    #[inline]
    fn store(&mut self, n: u64) {
        OpRecorder::store(self, n);
    }
    #[inline]
    fn sload(&mut self, n: u64) {
        OpRecorder::sload(self, n);
    }
    #[inline]
    fn sstore(&mut self, n: u64) {
        OpRecorder::sstore(self, n);
    }
    #[inline]
    fn sync(&mut self, n: u64) {
        OpRecorder::sync(self, n);
    }
    #[inline]
    fn spawn(&mut self, n: u64) {
        OpRecorder::spawn(self, n);
    }
}

/// The operation profile of one benchmark run: a serial phase (input setup,
/// result initialization the paper's programs perform on one thread) and a
/// parallel region with per-logical-thread counts.
#[derive(Debug, Default, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Profile {
    /// Work performed before/after the parallel region on a single thread.
    pub serial: OpCounts,
    /// Per-logical-thread work inside the parallel region. For sequential
    /// programs this holds exactly one logical thread.
    pub parallel: ThreadCounts,
}

impl Profile {
    /// A purely sequential profile (the whole program is the serial phase
    /// plus a single-thread "region" holding the main computation).
    pub fn sequential(serial: OpCounts, main: OpCounts) -> Self {
        Self {
            serial,
            parallel: ThreadCounts::new(vec![main]),
        }
    }

    /// Sum of all operations in the run.
    pub fn total(&self) -> OpCounts {
        self.serial.merged(&self.parallel.total())
    }

    /// Number of logical threads in the parallel region.
    pub fn n_logical_threads(&self) -> usize {
        self.parallel.n_threads()
    }
}

/// One flat-parallel inner loop: `width` independent iterations performing
/// `ops` in total. The fine-grained Terrain Masking variant is a sequence
/// of these (one per ring of the masking recurrence, plus the bulk
/// copy/merge loops), separated by barriers.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ParallelPhase {
    /// Number of independent iterations available to run concurrently.
    pub width: u64,
    /// Total operations across the whole phase.
    pub ops: OpCounts,
}

/// The operation profile of a fine-grained (inner-loop parallel) program:
/// a serial phase plus an ordered sequence of barrier-separated parallel
/// phases. The machine models charge each phase at the concurrency its
/// `width` supports — this is what makes narrow rings limit the Tera's
/// two-processor speedup (Table 11).
#[derive(Debug, Default, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PhasedProfile {
    /// Work performed on a single thread outside the parallel phases.
    pub serial: OpCounts,
    /// Barrier-separated inner-loop parallel phases, in execution order.
    pub phases: Vec<ParallelPhase>,
}

impl PhasedProfile {
    /// Sum of all operations in the run.
    pub fn total(&self) -> OpCounts {
        self.phases
            .iter()
            .fold(self.serial, |acc, p| acc.merged(&p.ops))
    }

    /// Number of barrier-separated phases.
    pub fn n_phases(&self) -> usize {
        self.phases.len()
    }

    /// Operation-weighted mean phase width — the parallelism actually
    /// available to the machine, counting wide phases more.
    pub fn weighted_width(&self) -> f64 {
        let total: u64 = self.phases.iter().map(|p| p.ops.instructions()).sum();
        if total == 0 {
            return 0.0;
        }
        self.phases
            .iter()
            .map(|p| p.width as f64 * p.ops.instructions() as f64)
            .sum::<f64>()
            / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(int_ops: u64) -> OpCounts {
        OpCounts {
            int_ops,
            ..OpCounts::default()
        }
    }

    #[test]
    fn norec_is_a_noop() {
        let mut r = NoRec;
        r.int(5);
        r.fp(5);
        r.load(5);
        r.store(5);
        r.sync(5);
        r.spawn(5);
        // NoRec carries no state; the assertion is that this compiles and
        // the generic algorithms can be instantiated with it.
    }

    #[test]
    fn oprecorder_implements_rec() {
        let mut r = OpRecorder::new();
        Rec::int(&mut r, 3);
        Rec::load(&mut r, 2);
        assert_eq!(r.counts().int_ops, 3);
        assert_eq!(r.counts().loads, 2);
    }

    #[test]
    fn profile_total_includes_serial_and_parallel() {
        let p = Profile {
            serial: ops(10),
            parallel: ThreadCounts::new(vec![ops(5), ops(7)]),
        };
        assert_eq!(p.total().int_ops, 22);
        assert_eq!(p.n_logical_threads(), 2);
    }

    #[test]
    fn sequential_profile_has_one_logical_thread() {
        let p = Profile::sequential(ops(1), ops(100));
        assert_eq!(p.n_logical_threads(), 1);
        assert_eq!(p.total().int_ops, 101);
    }

    #[test]
    fn phased_profile_totals_and_width() {
        let p = PhasedProfile {
            serial: ops(5),
            phases: vec![
                ParallelPhase {
                    width: 10,
                    ops: ops(100),
                },
                ParallelPhase {
                    width: 40,
                    ops: ops(300),
                },
            ],
        };
        assert_eq!(p.total().int_ops, 405);
        assert_eq!(p.n_phases(), 2);
        // weighted width = (10*100 + 40*300) / 400 = 32.5
        assert!((p.weighted_width() - 32.5).abs() < 1e-12);
    }

    #[test]
    fn empty_phased_profile_width_is_zero() {
        let p = PhasedProfile::default();
        assert_eq!(p.weighted_width(), 0.0);
        assert_eq!(p.total(), OpCounts::default());
    }
}
