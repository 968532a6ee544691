//! The host-speed probe that makes the timings drift-tolerant.
//!
//! The calibration host is a 2-vCPU VM on a shared machine, and how fast
//! it runs a fixed piece of code is not constant: the clock follows the
//! neighbours' load, and so does the share of the core a sibling hardware
//! thread leaves over. With nothing else running in the VM, same-code run
//! medians of every workload sat 20–35 % apart within ten minutes, in
//! shifts that outlast a run — so no statistic over one run removes them.
//!
//! So a fixed amount of register-only arithmetic — eight independent
//! multiply-add chains, enough to keep the core's execution units busy,
//! so that it slows down both with the clock and with a busy sibling —
//! is timed immediately before every op and again after the last one, and
//! each op's wall time is scaled by `NOMINAL_NS / probe`: timings are
//! reported *at the nominal host speed*.
//!
//! Every run keeps both readings ([`Timed`]) and prints both, and every
//! record under `benchmark/calibration/` holds both over the same runs
//! (`reported` and `as_clock`), so what the scaling does is on file: among
//! the nine same-code sets of the committed `--sets 3` records the worst
//! `op_ms` difference is 17 / 10 / 6 / 6 / 15 % scaled against 27 / 15 /
//! 10 / 6 / 31 % as the clock read it (`paper-cold`, `kernels-host`,
//! `sim-dense`, `sim-sparse`, `serve-mix`); the README has the full table.
//! Scaling by the run's median probe instead of the probes next to each
//! op did about half as well — the host's speed moves within a run — as
//! did a single dependent chain (which reads only the clock), and a
//! pointer chase through 8 MB made things worse.
//!
//! What the scaling cannot hide: the probe is the benchmark's own code,
//! untouched by a change to the program, so a slower program reads slower
//! by exactly its slow-down. What it does not remove: contention for the
//! caches and memory beyond what the probe sees, which is why the
//! memory-heavy workloads keep the larger residual spread.

use std::hint::black_box;
use std::time::Instant;

/// Rounds of one probe loop; each round advances all eight chains.
const ROUNDS: u64 = 150_000;

/// What one probe loop reads on the calibration host when nothing
/// competes with it (the fastest twentieth of 5 700 readings). On another
/// host this only rescales every timing by one constant factor.
pub const NOMINAL_NS: u64 = 385_000;

fn loop_ns() -> u64 {
    let t0 = Instant::now();
    let mut x = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..ROUNDS {
        for v in x.iter_mut() {
            *v = v.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        black_box(&mut x);
    }
    black_box(x);
    t0.elapsed().as_nanos() as u64
}

/// The fastest of three probe loops (≈1.2 ms in all): the minimum
/// discards a loop that was preempted, which says nothing about speed.
pub fn probe_ns() -> u64 {
    (0..3).map(|_| loop_ns()).min().expect("three loops")
}

/// Scale `wall_ns`, measured between probes `before` and `after`, to the
/// nominal host speed.
pub fn at_nominal(wall_ns: u64, before: u64, after: u64) -> u64 {
    let probe = (before + after) as f64 / 2.0;
    (wall_ns as f64 * NOMINAL_NS as f64 / probe.max(1.0)).round() as u64
}

/// One measured interval: as the clock read it, and at the nominal host
/// speed. Both are kept to the end of a run, so that every record shows
/// what the scaling did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timed {
    /// Wall time as the clock read it, nanoseconds.
    pub raw_ns: u64,
    /// The same interval at the nominal host speed, nanoseconds.
    pub ns: u64,
}

impl Timed {
    /// `raw_ns` of wall time measured between probes `before` and `after`.
    pub fn new(raw_ns: u64, before: u64, after: u64) -> Self {
        Self {
            raw_ns,
            ns: at_nominal(raw_ns, before, after),
        }
    }

    /// The reading as the clock took it (`raw`) or at the nominal speed.
    pub fn pick(self, raw: bool) -> u64 {
        if raw {
            self.raw_ns
        } else {
            self.ns
        }
    }
}

/// Host speed relative to nominal, in percent, for a probe reading.
pub fn speed_pct(probe_ns: u64) -> f64 {
    100.0 * NOMINAL_NS as f64 / probe_ns.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_the_ratio_to_the_mean_probe() {
        assert_eq!(at_nominal(1_000_000, NOMINAL_NS, NOMINAL_NS), 1_000_000);
        // A host running at half speed doubles both readings.
        assert_eq!(
            at_nominal(2_000_000, 2 * NOMINAL_NS, 2 * NOMINAL_NS),
            1_000_000
        );
        assert_eq!(at_nominal(3_000_000, NOMINAL_NS, 2 * NOMINAL_NS), 2_000_000);
        assert_eq!(speed_pct(2 * NOMINAL_NS), 50.0);
    }
}
