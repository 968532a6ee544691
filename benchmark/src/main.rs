//! The repo benchmark (see `benchmark/README.md`).
//!
//! ```text
//! c3i-benchmark [--workload] <name|all> [--seed S] [--seconds T] [--trace [0|1]]
//!               [--sets N | --seeds N] [--repro PATH]
//! ```
//!
//! Run from the repository root (`benchmark/run.sh` builds `repro` and
//! this binary, then does exactly that). One invocation sets a workload
//! up from the seed, measures for `--seconds`, checks every output, and
//! prints every metric by name with its unit and sample count; the last
//! line of standard output is the machine-readable result. The exit code
//! is non-zero if any op failed.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

mod alloc;
mod calibrate;
mod common;
mod hostref;
mod layers;
mod mix;
mod names;
mod stats;
mod trace;
mod workloads;

use common::{Budget, Env, Samples};
use hostref::Timed;
use names::{MetricDef, Metrics, END_TO_END, PER_LAYER};
use trace::Tracer;
use workloads::kernels_host::KernelsHost;
use workloads::paper_cold::PaperCold;
use workloads::serve_mix::ServeMix;
use workloads::sim::{SimDense, SimSparse};
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Rounds of an untraced run: each sets the workload up afresh and then
/// measures for a quarter of `--seconds`. The set-ups are thereby spread
/// over the whole run (`setup_s` is their median), and the ops are timed
/// on four independent instances of the state — four server children on
/// `serve-mix`, `peak_rss_mb` being the median of their peaks — so one
/// unlucky instance cannot set a run's figures.
const ROUNDS: usize = 4;

/// What one run produced: the contract's `correct`/`attempted`/`failed`
/// plus the metrics, in declaration order.
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Ops started.
    pub attempted: u64,
    /// Ops that failed their check.
    pub failed: u64,
    /// Metric values with their declarations.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// The timings among them as the clock read them (untraced runs).
    pub as_clock: Vec<(&'static MetricDef, f64)>,
    /// Human-readable lines printed above the result line.
    pub notes: Vec<String>,
}

/// `{"name": {"value": v, "unit": "u"}, …}`. Written by hand: the names
/// are keys, which the vendored derive-only `serde` cannot express, and
/// every name and unit is checked to need no escaping (`tests.rs`).
fn metrics_json(metrics: &[(&MetricDef, f64)]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(d, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!("{{{}}}", metrics.join(", "))
}

/// Start of the line that repeats the timings as the clock read them.
pub const AS_CLOCK: &str = "as-clock: ";

impl Report {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }

    /// Print the notes, one line per metric, then the result line.
    pub fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        for (d, v) in &self.metrics {
            println!("  {:<36} {v:>16.4} {}", d.name, d.unit);
        }
        if !self.as_clock.is_empty() {
            println!("{AS_CLOCK}{}", metrics_json(&self.as_clock));
        }
        println!("{}", self.json());
    }
}

fn fail_pct(s: &Samples) -> f64 {
    100.0 * s.failed as f64 / s.attempted.max(1) as f64
}

/// The untraced run: every end-to-end metric.
fn measure<W: Workload>(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    env: &Env,
) -> Result<Report, String> {
    let off = Tracer::off();
    let (mut setups, mut peaks) = (Vec::new(), Vec::new());
    let mut samples = Samples::default();
    for _ in 0..ROUNDS {
        let before = hostref::probe_ns();
        let t0 = Instant::now();
        let mut w = W::setup(seed, env, &off)?;
        let raw = t0.elapsed().as_nanos() as u64;
        let after = hostref::probe_ns();
        setups.push(Timed::new(raw, before, after));
        samples.probes.extend([before, after]);
        samples.merge(w.measure(Budget::Seconds(seconds / ROUNDS as f64), &off));
        peaks.push(w.peak_rss_mb().ok_or("cannot read the peak resident set")?);
    }
    let run_probe = stats::median(&samples.probes).expect("probed");

    let timings = |raw: bool| -> Result<Metrics, String> {
        let setups: Vec<u64> = setups.iter().map(|t| t.pick(raw)).collect();
        let mut m = Metrics::default();
        m.set(
            "setup_s",
            stats::median(&setups).expect("ROUNDS > 0") as f64 / 1e9,
        );
        m.set(
            "op_ms",
            stats::ms(samples.median_op_ns(raw).ok_or("no op completed")?),
        );
        m.set("work_per_s", W::work_per_s(&samples, raw));
        Ok(m)
    };
    let mut m = timings(false)?;
    m.set(
        "peak_rss_mb",
        stats::median_f64(&peaks).expect("ROUNDS > 0"),
    );
    let as_clock = timings(true)?;

    let mut notes = vec![
        format!(
            "{workload}: seed {seed}, {} ops in {:.2} s timed over {ROUNDS} rounds (set-up, then ops), \
             {} failed ({:.3} %), op_ms over {} samples",
            samples.attempted,
            samples.timed.raw_ns as f64 / 1e9,
            samples.failed,
            fail_pct(&samples),
            samples.ops.len(),
        ),
        format!(
            "  times are at the nominal host speed: host ran at {:.1} % of it (median of {} probes)",
            hostref::speed_pct(run_probe),
            samples.probes.len(),
        ),
    ];
    notes.extend(samples.failures.iter().map(|f| format!("  FAILED: {f}")));
    Ok(Report {
        workload,
        attempted: samples.attempted,
        failed: samples.failed,
        metrics: m.ordered(END_TO_END)?,
        as_clock: END_TO_END
            .iter()
            .filter_map(|d| as_clock.get(d.name).map(|v| (d, v)))
            .collect(),
        notes,
    })
}

/// The traced run: the workload's own ops with tracing off then on (the
/// difference is `trace.overhead_pct`), then the probe battery for every
/// per-layer metric. Writes `benchmark/out/trace-<workload>.json`.
fn traced<W: Workload>(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    env: &Env,
) -> Result<Report, String> {
    let (off, on) = (Tracer::off(), Tracer::on());
    let mut w = W::setup(seed, env, &off)?;
    let slice = Budget::Seconds(0.2 * seconds);
    let plain = w.measure(slice, &off);
    let spanned = w.measure(slice, &on);
    drop(w);
    // Per-layer figures are wall time, so the overhead is too.
    let (plain_ns, spanned_ns) = match (plain.median_op_ns(true), spanned.median_op_ns(true)) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err("no op completed".into()),
    };

    let mut m = Metrics::default();
    m.set(
        "trace.overhead_pct",
        100.0 * (spanned_ns as f64 / plain_ns as f64 - 1.0),
    );
    let tally = layers::battery(seed, env, &on, &mut m)?;
    // Per-layer timings are wall time; this says how fast the host was
    // while they were taken.
    let probes: Vec<u64> = plain
        .probes
        .iter()
        .chain(&spanned.probes)
        .copied()
        .collect();
    m.set(
        "host.speed_pct",
        hostref::speed_pct(stats::median(&probes).expect("probed")),
    );

    let attempted = plain.attempted + spanned.attempted + tally.attempted;
    let failed = plain.failed + spanned.failed + tally.failed;
    let spans = on.spans();
    let path = env.out.join(format!("trace-{workload}.json"));
    std::fs::write(&path, trace::to_json(workload, seed, &spans))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let mut notes = vec![format!(
        "{workload} (traced): seed {seed}, {attempted} ops, {failed} failed; op_ms untraced {:.4} \
         over {} samples, traced {:.4} over {}; {} spans in {}",
        stats::ms(plain_ns),
        plain.ops.len(),
        stats::ms(spanned_ns),
        spanned.ops.len(),
        spans.len(),
        path.display(),
    )];
    for f in plain
        .failures
        .iter()
        .chain(&spanned.failures)
        .chain(&tally.failures)
    {
        notes.push(format!("  FAILED: {f}"));
    }
    Ok(Report {
        workload,
        attempted,
        failed,
        metrics: m.ordered(PER_LAYER)?,
        as_clock: Vec::new(),
        notes,
    })
}

/// Run workload `name` once.
pub fn run(name: &str, seed: u64, seconds: f64, trace: bool, env: &Env) -> Result<Report, String> {
    macro_rules! dispatch {
        ($w:ty, $name:expr) => {
            if trace {
                traced::<$w>($name, seed, seconds, env)
            } else {
                measure::<$w>($name, seed, seconds, env)
            }
        };
    }
    match name {
        "paper-cold" => dispatch!(PaperCold, "paper-cold"),
        "kernels-host" => dispatch!(KernelsHost, "kernels-host"),
        "sim-dense" => dispatch!(SimDense, "sim-dense"),
        "sim-sparse" => dispatch!(SimSparse, "sim-sparse"),
        "serve-mix" => dispatch!(ServeMix, "serve-mix"),
        other => Err(format!(
            "unknown workload '{other}'; expected one of {:?} or 'all'",
            WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>()
        )),
    }
}

/// Run workload `name` in a fresh process of this binary and return its
/// standard output. `all` and `--sets` use this so that every workload
/// starts from the same process state (heap, peak resident set) as a
/// stand-alone run.
pub fn run_in_child(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    env: &Env,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--repro")
        .arg(&env.repro)
        .env("BENCH_TMP", env.tmp.join("child"))
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    // A run with failed ops still prints its result (and exits 1); a run
    // that measured nothing prints none.
    if stdout.lines().last().is_some_and(|l| l.starts_with('{')) {
        Ok(stdout)
    } else {
        Err(format!("{name} printed no result (exit {})", out.status))
    }
}

/// One metric of a result line.
#[derive(serde::Deserialize)]
pub struct Reading {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The `metrics` of an untraced run's result line, and of its as-clock
/// line (which has no `peak_rss_mb`): the names of [`END_TO_END`].
#[derive(serde::Deserialize)]
pub struct EndToEnd {
    setup_s: Reading,
    op_ms: Reading,
    work_per_s: Reading,
    peak_rss_mb: Option<Reading>,
}

impl EndToEnd {
    /// The reading named `name`.
    pub fn get(&self, name: &str) -> Option<&Reading> {
        match name {
            "setup_s" => Some(&self.setup_s),
            "op_ms" => Some(&self.op_ms),
            "work_per_s" => Some(&self.work_per_s),
            "peak_rss_mb" => self.peak_rss_mb.as_ref(),
            _ => None,
        }
    }
}

/// An untraced run's result line, parsed back.
#[derive(serde::Deserialize)]
pub struct ResultLine {
    /// No op failed.
    pub correct: bool,
    /// Ops started.
    pub attempted: u64,
    /// Ops that failed their check.
    pub failed: u64,
    /// The end-to-end metrics.
    pub metrics: EndToEnd,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    calibrate: Option<calibrate::Plan>,
    repro: Option<PathBuf>,
}

const USAGE: &str = "usage: c3i-benchmark [--workload] <paper-cold|kernels-host|sim-dense|\
sim-sparse|serve-mix|all> [--seed S] [--seconds T] [--trace [0|1]] [--sets N | --seeds N] \
[--repro PATH]";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 16.0,
        trace: false,
        calibrate: None,
        repro: None,
    };
    let mut args = args.into_iter().peekable();
    while let Some(a) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{a} requires {what}"));
        match a.as_str() {
            "--workload" => out.workload = value("a workload name")?,
            "--seed" => {
                out.seed = value("a seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--sets" | "--seeds" => {
                let n = value("a count")?.parse().map_err(|e| format!("{a}: {e}"))?;
                out.calibrate = Some(if a == "--sets" {
                    calibrate::Plan::Sets(n)
                } else {
                    calibrate::Plan::Seeds(n)
                });
            }
            "--repro" => out.repro = Some(PathBuf::from(value("a path")?)),
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                out.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            "--help" | "-h" => return Err(USAGE.into()),
            s if s.starts_with('-') => return Err(format!("unknown flag '{s}'\n{USAGE}")),
            s => out.workload = s.to_string(),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let env = match Env::new(args.repro.clone()) {
        Ok(env) => env,
        Err(msg) => {
            eprintln!("c3i-benchmark: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(plan) = args.calibrate {
        return match calibrate::run(plan, args.seed, args.seconds, &env) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(msg) => {
                eprintln!("c3i-benchmark: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    if args.workload == "all" {
        let mut ok = true;
        for (name, _) in WORKLOADS {
            match run_in_child(name, args.seed, args.seconds, args.trace, &env) {
                Ok(stdout) => {
                    print!("{stdout}");
                    ok &= stdout
                        .lines()
                        .last()
                        .is_some_and(|l| l.starts_with("{\"correct\": true,"));
                }
                Err(msg) => {
                    eprintln!("c3i-benchmark: {msg}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    match run(&args.workload, args.seed, args.seconds, args.trace, &env) {
        Ok(report) => {
            report.print();
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            // No result line: the run measured nothing.
            eprintln!("c3i-benchmark: {}: {msg}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests;
