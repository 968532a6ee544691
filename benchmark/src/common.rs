//! Shared plumbing: where things live, the timed-op loop, child-process
//! handling, resident-set readings and the seeded generator.

use crate::hostref::{self, Timed};
use crate::trace::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Child, ExitStatus};
use std::time::{Duration, Instant};

/// Load-generating threads / connections / logical workers. The host this
/// was calibrated on has `nproc` = 2; the width is fixed so that op and
/// region counts do not depend on where the benchmark runs.
pub const WIDTH: usize = 2;

/// A spawned op that has not exited by now has failed.
pub const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

/// Paths, all relative to the repository root (the working directory):
/// relative so that the Unix socket path stays under the 108-byte limit
/// however deep the checkout sits.
pub struct Env {
    /// The `repro` binary built from the root workspace.
    pub repro: PathBuf,
    /// The pinned CSVs `paper-cold` diffs against.
    pub results: PathBuf,
    /// Scratch space of this process; removed when `Env` drops.
    pub tmp: PathBuf,
    /// Where trace files go.
    pub out: PathBuf,
}

impl Env {
    /// Resolve the paths and create this process's scratch directory.
    /// Fails unless the working directory is the repository root and
    /// `repro` has been built (`benchmark/run.sh` does both).
    pub fn new(repro: Option<PathBuf>) -> Result<Self, String> {
        let results = PathBuf::from("results");
        if !results.join("table_1.csv").is_file() || !Path::new("benchmark/Cargo.toml").is_file() {
            return Err(
                "run from the repository root (results/ and benchmark/ not found); \
                        use benchmark/run.sh"
                    .into(),
            );
        }
        let repro = repro.unwrap_or_else(|| {
            let target = std::env::var_os("CARGO_TARGET_DIR")
                .filter(|v| !v.is_empty())
                .map_or_else(|| PathBuf::from("target"), PathBuf::from);
            target.join("release/repro")
        });
        if !repro.is_file() {
            return Err(format!(
                "{} not found; build it with `cargo build --release -p repro` \
                 (benchmark/run.sh does)",
                repro.display()
            ));
        }
        let out = PathBuf::from("benchmark/out");
        let tmp = match std::env::var_os("BENCH_TMP").filter(|v| !v.is_empty()) {
            Some(dir) => PathBuf::from(dir),
            None => out.join(format!("tmp.{}", std::process::id())),
        };
        std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
        Ok(Self {
            repro,
            results,
            tmp,
            out,
        })
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}

/// How long a measurement runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Start ops until this much wall time has passed (at least four, so
    /// that the four rounds of a run time at least 16).
    Seconds(f64),
    /// Exactly this many ops.
    Ops(u64),
}

/// What one measurement produced.
#[derive(Debug, Default)]
pub struct Samples {
    /// Time of each op.
    pub ops: Vec<Timed>,
    /// Every host-speed probe reading taken around the ops.
    pub probes: Vec<u64>,
    /// Work units completed by ops whose output checked out.
    pub work_units: f64,
    /// The time the ops took: summed op time for the one-at-a-time
    /// workloads, the summed load slices for `serve-mix`.
    pub timed: Timed,
    /// `serve-mix` only: per load slice, the requests answered correctly
    /// in it and how long it ran.
    pub slices: Vec<(f64, Timed)>,
    /// Ops started.
    pub attempted: u64,
    /// Ops whose output failed its check (or that panicked, timed out,
    /// exited non-zero, or were rejected).
    pub failed: u64,
    /// Up to a few human-readable reasons, for the log.
    pub failures: Vec<String>,
}

impl Samples {
    /// Append another measurement of the same workload.
    pub fn merge(&mut self, other: Samples) {
        self.ops.extend(other.ops);
        self.probes.extend(other.probes);
        self.work_units += other.work_units;
        self.timed.raw_ns += other.timed.raw_ns;
        self.timed.ns += other.timed.ns;
        self.slices.extend(other.slices);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(8);
    }

    /// Median op time: at the nominal host speed, or as the clock read it.
    pub fn median_op_ns(&self, raw: bool) -> Option<u64> {
        let ns: Vec<u64> = self.ops.iter().map(|t| t.pick(raw)).collect();
        crate::stats::median(&ns)
    }

    /// Work units of the ops that passed ÷ the time the ops took.
    pub fn work_per_s(&self, raw: bool) -> f64 {
        self.work_units / (self.timed.pick(raw) as f64 / 1e9)
    }
}

/// Outcome of one op of a one-at-a-time workload.
pub struct OpOutcome {
    /// Wall time of the op (the calls into the program, not the checks).
    pub ns: u64,
    /// Work units the op completed.
    pub work: f64,
    /// `Err(reason)` if any output failed its check.
    pub check: Result<(), String>,
}

/// Run `op` one at a time until the budget is used up, with a host-speed
/// probe between ops; each op's spans get their own op id in `tr`. A
/// panicking op is a failed op, not a dead benchmark.
pub fn timed_loop(budget: Budget, tr: &Tracer, mut op: impl FnMut() -> OpOutcome) -> Samples {
    let mut s = Samples::default();
    let t0 = Instant::now();
    let mut before = hostref::probe_ns();
    s.probes.push(before);
    loop {
        let done = match budget {
            Budget::Seconds(secs) => s.attempted >= 4 && t0.elapsed().as_secs_f64() >= secs,
            Budget::Ops(n) => s.attempted >= n,
        };
        if done {
            return s;
        }
        s.attempted += 1;
        tr.next_op();
        let started = Instant::now();
        let (raw, outcome) = match catch_unwind(AssertUnwindSafe(&mut op)) {
            Ok(OpOutcome { ns, work, check }) => (ns, check.map(|()| work)),
            Err(_) => (
                started.elapsed().as_nanos() as u64,
                Err("op panicked".to_string()),
            ),
        };
        let after = hostref::probe_ns();
        let t = Timed::new(raw, before, after);
        before = after;
        s.probes.push(after);
        s.ops.push(t);
        s.timed.raw_ns += t.raw_ns;
        s.timed.ns += t.ns;
        match outcome {
            Ok(work) => s.work_units += work,
            Err(why) => {
                s.failed += 1;
                s.failures.push(why);
                s.failures.truncate(8);
            }
        }
    }
}

/// Wait for `child` to exit, killing it at `limit`. `None` means it timed
/// out (and has been killed and reaped). Polls once a millisecond, which
/// is under 0.2 % of the shortest spawned op.
pub fn wait_timeout(child: &mut Child, limit: Duration) -> Option<ExitStatus> {
    let t0 = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Some(status),
            Ok(None) if t0.elapsed() < limit => std::thread::sleep(Duration::from_millis(1)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return None;
            }
        }
    }
}

/// Peak resident set (`VmHWM`) of a live process in MB — this process
/// when `pid` is `None`.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Largest peak resident set among the children this process has waited
/// for, in MB. `/proc` has nothing left to read once a child has exited,
/// so this asks the kernel's accounting instead.
pub fn reaped_children_peak_rss_mb() -> Option<f64> {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of
    /// which the first is `ru_maxrss` in kilobytes.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss_kb: i64,
        rest: [i64; 13],
    }
    const RUSAGE_CHILDREN: i32 = -1;
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        times: [0; 4],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout
    // the 64-bit Linux ABI fixes (144 bytes); the call writes only to it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    (rc == 0 && usage.maxrss_kb > 0).then(|| usage.maxrss_kb as f64 / 1024.0)
}

/// SplitMix64: the benchmark's own generator, so that a seed means the
/// same inputs whatever happens to the vendored `rand`.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0; the modulo bias at these sizes is far
    /// below anything a timing could show).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// One element of `xs`.
    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}
