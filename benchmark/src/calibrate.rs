//! Noise calibration: run the workloads repeatedly with the same code and
//! report, per workload and end-to-end metric, how far apart the runs read
//! — each timing both at the nominal host speed (what the benchmark
//! reports) and as the clock read it (what it would report without
//! [`crate::hostref`]), over the same runs.
//!
//! `--sets N` runs the full workload set N times back to back with one
//! seed; the bounds in `BENCHMARK.json` are derived from three such
//! records taken at different times (see the README). `--seeds N` is the
//! driver's acceptance protocol: each workload N times in a row, each time
//! with another seed. Records go to `benchmark/calibration/`.

use crate::common::Env;
use crate::names::END_TO_END;
use crate::stats::{median_f64, quartile_spread, worst_pairwise_diff};
use crate::workloads::WORKLOADS;
use crate::{EndToEnd, ResultLine, AS_CLOCK};
use std::time::{SystemTime, UNIX_EPOCH};

/// Which runs a calibration makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// The full workload set this many times, one seed.
    Sets(usize),
    /// Each workload this many times in a row, seeds `seed, seed + 1, …`.
    Seeds(usize),
}

/// How far apart the values of one metric read.
#[derive(serde::Serialize)]
struct Scatter {
    /// One value per run: each is already a median (or a rate) over the
    /// ops of that run.
    values: Vec<f64>,
    /// `(max - min) / min`.
    worst_pairwise_diff: f64,
    /// `(Q3 - Q1) / median`, quartiles as Python's
    /// `statistics.quantiles(values, n=4)`; `None` under four values.
    quartile_spread: Option<f64>,
}

impl Scatter {
    fn of(values: Vec<f64>) -> Self {
        Self {
            worst_pairwise_diff: worst_pairwise_diff(&values),
            quartile_spread: quartile_spread(&values),
            values,
        }
    }

    fn shown(&self) -> String {
        let spread = self
            .quartile_spread
            .map_or(String::new(), |s| format!("{:.1}%", 100.0 * s));
        format!("{:>7.1}% {spread:>7}", 100.0 * self.worst_pairwise_diff)
    }
}

#[derive(serde::Serialize)]
struct Row {
    workload: String,
    metric: String,
    unit: String,
    /// Nearest-rank median of the reported values (the lower middle one
    /// for an even count).
    median: f64,
    /// The metric as reported: timings at the nominal host speed.
    reported: Scatter,
    /// Timings only: the same runs as the clock read them.
    as_clock: Option<Scatter>,
}

#[derive(serde::Serialize)]
struct Record {
    stamp_utc: String,
    /// `sets` or `seeds`.
    plan: String,
    runs_per_workload: usize,
    host_parallelism: usize,
    first_seed: u64,
    run_seconds: f64,
    ops_attempted: u64,
    ops_failed: u64,
    rows: Vec<Row>,
}

/// `YYYYMMDDTHHMMSSZ` for a Unix time (civil-from-days, proleptic
/// Gregorian).
fn stamp(unix: u64) -> String {
    let (days, secs) = ((unix / 86_400) as i64, unix % 86_400);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}{month:02}{day:02}T{:02}{:02}{:02}Z",
        secs / 3600,
        secs % 3600 / 60,
        secs % 60
    )
}

/// Make the runs of `plan`; returns whether every op of every run passed
/// its check.
pub fn run(plan: Plan, seed: u64, seconds: f64, env: &Env) -> Result<bool, String> {
    let (kind, n) = match plan {
        Plan::Sets(n) => ("sets", n),
        Plan::Seeds(n) => ("seeds", n),
    };
    if n < 2 {
        return Err(format!("--{kind} needs at least 2 runs to compare"));
    }
    // (workload index, seed) in the order the runs are made.
    let schedule: Vec<(usize, u64)> = match plan {
        Plan::Sets(n) => (0..n)
            .flat_map(|_| (0..WORKLOADS.len()).map(move |wi| (wi, seed)))
            .collect(),
        Plan::Seeds(n) => (0..WORKLOADS.len())
            .flat_map(|wi| (0..n as u64).map(move |i| (wi, seed + i)))
            .collect(),
    };
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_err(|e| e.to_string())?;
    let stamp = stamp(now.as_secs());
    // values[workload][metric][run], and the same as the clock read them
    let mut values = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    let mut as_clock = values.clone();
    let (mut attempted, mut failed) = (0, 0);
    for (done, &(wi, seed)) in schedule.iter().enumerate() {
        let name = WORKLOADS[wi].0;
        let stdout = crate::run_in_child(name, seed, seconds, false, env)?;
        let result = stdout.lines().next_back().unwrap_or_default();
        eprintln!(
            "run {}/{}: {}",
            done + 1,
            schedule.len(),
            stdout.lines().next().unwrap_or(name)
        );
        let result: ResultLine =
            serde_json::from_str(result).map_err(|e| format!("{name}: result line: {e}"))?;
        let clock = stdout
            .lines()
            .find_map(|l| l.strip_prefix(AS_CLOCK))
            .ok_or(format!("{name}: no as-clock line"))?;
        let clock: EndToEnd =
            serde_json::from_str(clock).map_err(|e| format!("{name}: as-clock line: {e}"))?;
        attempted += result.attempted;
        failed += result.failed;
        for (mi, d) in END_TO_END.iter().enumerate() {
            let reading = result.metrics.get(d.name);
            values[wi][mi].push(reading.ok_or(format!("{name}: no {}", d.name))?.value);
            as_clock[wi][mi].extend(clock.get(d.name).map(|r| r.value));
        }
    }

    let mut rows = Vec::new();
    println!(
        "{:<13} {:<12} {:>13} | {:>8} {:>7} | {:>8} {:>7}",
        "", "", "", "reported", "", "as clock", ""
    );
    println!(
        "{:<13} {:<12} {:>13} | {:>8} {:>7} | {:>8} {:>7}",
        "workload", "metric", "median", "worst", "spread", "worst", "spread"
    );
    for (((name, _), per_metric), per_metric_clock) in WORKLOADS.iter().zip(values).zip(as_clock) {
        for ((d, vals), clock) in END_TO_END.iter().zip(per_metric).zip(per_metric_clock) {
            let median = median_f64(&vals).expect("n >= 2");
            let clock = (clock.len() == vals.len()).then(|| Scatter::of(clock));
            let reported = Scatter::of(vals);
            println!(
                "{name:<13} {:<12} {median:>13.4} | {} | {} {}",
                d.name,
                reported.shown(),
                clock.as_ref().map_or(format!("{:>16}", ""), Scatter::shown),
                d.unit,
            );
            rows.push(Row {
                workload: name.to_string(),
                metric: d.name.to_string(),
                unit: d.unit.to_string(),
                median,
                reported,
                as_clock: clock,
            });
        }
    }
    println!("ops attempted {attempted}, failed {failed}");

    let record = Record {
        stamp_utc: stamp.clone(),
        plan: kind.to_string(),
        runs_per_workload: n,
        host_parallelism: std::thread::available_parallelism().map_or(1, |p| p.get()),
        first_seed: seed,
        run_seconds: seconds,
        ops_attempted: attempted,
        ops_failed: failed,
        rows,
    };
    let path = format!("benchmark/calibration/{kind}-{stamp}.json");
    let json = serde_json::to_string_pretty(&record).map_err(|e| e.to_string())?;
    std::fs::write(&path, json + "\n").map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(failed == 0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn stamps_are_civil_utc() {
        assert_eq!(super::stamp(0), "19700101T000000Z");
        assert_eq!(super::stamp(951_782_400), "20000229T000000Z");
        assert_eq!(super::stamp(1_790_812_799), "20260930T235959Z");
    }
}
