//! `repro` — regenerate every table and figure of the SC'98 paper.
//!
//! ```text
//! repro [FLAG...] [SECTION...]    print the requested sections (default: all)
//! repro --serve ADDR [FLAG...]    serve scenario-evaluation requests
//! repro --load ADDR [FLAG...]     replay a request mix against a server
//! ```
//!
//! [`FLAGS`] and [`SECTIONS`] are the one statement of what the command
//! line accepts: the parser loops over them and `repro --help` prints
//! the usage rendered from them. Anything else — an unknown flag, a
//! positional that is not a section, a value-taking flag whose operand
//! is missing or flag-like (a bare `repro --csv` is a mistake, not a
//! request to skip CSV output) — gets the usage message and exit status
//! 2.
//!
//! With no arguments the binary measures the paper-scale workload,
//! calibrates the machine models, and prints Tables 1–12 with the paper's
//! published value next to every modeled value, followed by ASCII
//! renditions of Figures 1–4. `--reduced` uses the smaller test workload
//! (same structure, faster). `--csv DIR` additionally writes one CSV per
//! table; a DIR or file that cannot be written ends the run with the path
//! and the error on stderr and exit status 1.
//!
//! The expensive workload measurement is memoized on disk (see
//! `eval_core::cache`); `--no-cache` forces a fresh measurement without
//! reading or writing snapshots. `repro` produces and gates no timing of
//! its own: every timing comes from `benchmark/` (see its README).
//!
//! `--profile` appends an observability report: the `sthreads::stats`
//! counters of the whole run (regions, tasks, batches, parks), plus a
//! sample `mta-sim` run's machine counters (issue slots, bank-queue
//! histogram, full/empty retry traffic).
//!
//! `--serve ADDR` loads the workload once and serves scenario-evaluation
//! requests over a socket (Unix path if ADDR contains `/`, else TCP)
//! behind `eval_core::service`'s bounded admission, each on its
//! connection's thread (`--threads` does not affect it); `--load ADDR`
//! replays a fuzzer-generated request mix against such a server, checks
//! every response against a direct sequential evaluation, and exits
//! non-zero unless every request completed bit-identical — an identity
//! and completion smoke that writes no file.

use eval_core::cache;
use eval_core::experiments::{self, Figure};
use eval_core::workload::WorkloadScale;
use eval_core::{Client, Evaluator, Server, Service, ServiceConfig};
use mta_sim::kernels::measure_utilization_sweep;
use std::io::Write;
use std::num::NonZeroUsize;
use sthreads::ThreadPool;

#[derive(Debug)]
struct Options {
    scale: WorkloadScale,
    csv_dir: Option<String>,
    use_cache: bool,
    profile: bool,
    n_threads: Option<usize>,
    fuzz: Option<usize>,
    fuzz_seed: u64,
    serve: Option<String>,
    load: Option<String>,
    requests: usize,
    conns: usize,
    mix_seed: u64,
    stop_server: bool,
    sections: Vec<String>,
}

/// Every positional `repro` accepts; anything else is a usage error.
const SECTIONS: &[&str] = &[
    "tables",
    "figures",
    "utilization",
    "autopar",
    "table-auto",
    "scalability",
    "sensitivity",
    "all",
];

/// One flag: its spelling, its operand as `(metavar, what)` — the usage
/// shows the metavar, the errors say `what` — and its effect on the
/// options. The effect gets the operand iff the flag takes one, and
/// hands an operand it cannot parse back as the error.
struct Flag(
    &'static str,
    Option<(&'static str, &'static str)>,
    fn(&mut Options, Option<String>) -> Result<(), String>,
);

const ADDR: &str = "a socket address (host:port or unix path)";

/// Every flag `repro` accepts besides `--help` / `-h`, in usage order.
const FLAGS: &[Flag] = &[
    Flag("--reduced", None, |o, _| {
        set(&mut o.scale, WorkloadScale::Reduced)
    }),
    Flag("--no-cache", None, |o, _| set(&mut o.use_cache, false)),
    Flag("--profile", None, |o, _| set(&mut o.profile, true)),
    Flag("--fuzz", Some(("N", "a case count")), |o, v| {
        set(&mut o.fuzz, Some(num(v)?))
    }),
    Flag("--fuzz-seed", Some(("S", "a u64 seed")), |o, v| {
        set(&mut o.fuzz_seed, num(v)?)
    }),
    Flag("--threads", Some(("N", "a positive integer")), |o, v| {
        set(&mut o.n_threads, Some(num::<NonZeroUsize>(v)?.get()))
    }),
    Flag("--csv", Some(("DIR", "a directory")), |o, v| {
        set(&mut o.csv_dir, v)
    }),
    Flag("--serve", Some(("ADDR", ADDR)), |o, v| set(&mut o.serve, v)),
    Flag("--load", Some(("ADDR", ADDR)), |o, v| set(&mut o.load, v)),
    Flag("--requests", Some(("N", "a request count")), |o, v| {
        set(&mut o.requests, num(v)?)
    }),
    Flag("--conns", Some(("N", "a connection count")), |o, v| {
        set(&mut o.conns, num(v)?)
    }),
    Flag("--mix-seed", Some(("S", "a u64 seed")), |o, v| {
        set(&mut o.mix_seed, num(v)?)
    }),
    Flag("--stop-server", None, |o, _| set(&mut o.stop_server, true)),
];

fn set<T>(slot: &mut T, value: T) -> Result<(), String> {
    *slot = value;
    Ok(())
}

/// A numeric operand, parsed; the operand itself when it does not parse.
fn num<T: std::str::FromStr>(v: Option<String>) -> Result<T, String> {
    let v = v.expect("a value-taking flag is applied to its operand");
    v.parse().map_err(|_| v)
}

fn usage() -> String {
    let mut u = String::from("usage: repro");
    for Flag(name, operand, _) in FLAGS {
        match operand {
            Some((metavar, _)) => u.push_str(&format!(" [{name} {metavar}]")),
            None => u.push_str(&format!(" [{name}]")),
        }
    }
    format!("{u} [{}]...", SECTIONS.join("|"))
}

/// The options a command line asks for; `Ok(None)` when it asks for the
/// usage (`--help` / `-h`) instead of a run.
fn parse_args_from(args: impl IntoIterator<Item = String>) -> Result<Option<Options>, String> {
    let mut opts = Options {
        scale: WorkloadScale::Paper,
        csv_dir: None,
        use_cache: true,
        profile: false,
        n_threads: None,
        fuzz: None,
        fuzz_seed: 1,
        serve: None,
        load: None,
        requests: 64,
        conns: 4,
        mix_seed: 1,
        stop_server: false,
        sections: Vec::new(),
    };
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if a == "--help" || a == "-h" {
            return Ok(None);
        }
        let Some(Flag(_, operand, apply)) = FLAGS.iter().find(|f| f.0 == a) else {
            if a.starts_with('-') {
                return Err(format!("unknown flag '{a}'"));
            }
            if !SECTIONS.contains(&a.as_str()) {
                return Err(format!("unknown section '{a}'"));
            }
            opts.sections.push(a);
            continue;
        };
        let Some((_, what)) = operand else {
            apply(&mut opts, None)?;
            continue;
        };
        // A missing operand and one that looks like the next flag are
        // both hard errors: `repro --csv` must not behave like `repro`.
        let v = match args.next() {
            Some(v) if !v.starts_with("--") => v,
            Some(v) => return Err(format!("{a} requires {what}, got flag '{v}'")),
            None => return Err(format!("{a} requires {what}")),
        };
        apply(&mut opts, Some(v)).map_err(|bad| format!("{a}: cannot parse '{bad}' as {what}"))?;
    }
    if opts.sections.is_empty() {
        opts.sections.push("all".to_string());
    }
    Ok(Some(opts))
}

fn parse_args() -> Options {
    match parse_args_from(std::env::args().skip(1)) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            println!("{}", usage());
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("repro: {msg}");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    }
}

fn want(opts: &Options, section: &str) -> bool {
    opts.sections.iter().any(|s| s == section || s == "all")
}

/// `--serve ADDR`: load the workload **once** into a long-lived
/// [`Evaluator`], put the [`Service`]'s bounded admission in front of it,
/// and serve the framed-JSON protocol until a client sends `Shutdown`.
/// Each request is evaluated on its connection's thread, so `--threads`
/// does not affect `--serve`.
fn run_serve(addr: &str, scale: WorkloadScale, use_cache: bool) -> ! {
    eprintln!("serve: loading workload ({scale:?} scale) and calibrating models...");
    let (evaluator, status) = Evaluator::load(scale, use_cache);
    eprintln!(
        "serve: workload {status:?} (snapshot dir {})",
        cache::cache_dir().display()
    );
    let service = Service::start(evaluator, ServiceConfig::default());
    let server = match Server::bind(addr, service) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("serving on {}", server.local_addr());
    std::io::stdout().flush().ok();
    server.run();
    eprintln!("serve: shutdown complete");
    std::process::exit(0);
}

/// Per-connection tally from one load-generator thread.
#[derive(Default)]
struct ConnStats {
    rejected: usize,
    completed: usize,
    mismatches: Vec<String>,
    /// Why the connection stopped before the end of its slice.
    failure: Option<String>,
}

/// Replay the slice of `mix` owned by connection `conn` (indices
/// congruent to `conn` mod `stride`) over one connection. Overload
/// rejections back off by the server's hint and retry the same request;
/// every completed response is compared byte-for-byte against the local
/// direct evaluation into `stats`. An unreachable or dropped server is
/// the `Err`: the connection stops and its remaining requests are never
/// completed.
fn replay_connection(
    addr: &str,
    mix: &[eval_core::EvalRequest],
    evaluator: &Evaluator,
    conn: usize,
    stride: usize,
    stats: &mut ConnStats,
) -> Result<(), String> {
    let mut client =
        Client::connect(addr).map_err(|e| format!("connection {conn} cannot reach {addr}: {e}"))?;
    let mut i = conn;
    while i < mix.len() {
        let req = &mix[i];
        loop {
            let resp = client
                .call(req.clone())
                .map_err(|e| format!("connection {conn} request {i} failed: {e}"))?;
            match resp.error {
                Some(err) if err.kind == "overloaded" => {
                    stats.rejected += 1;
                    let back_off = err.retry_after_ms.unwrap_or(5).max(1);
                    std::thread::sleep(std::time::Duration::from_millis(back_off));
                }
                Some(err) => {
                    stats.mismatches.push(format!(
                        "request {i}: server error {}: {}",
                        err.kind, err.message
                    ));
                    break;
                }
                None => {
                    stats.completed += 1;
                    let served = resp.ok.unwrap_or_default();
                    match evaluator.evaluate(req) {
                        Ok(expected) if expected == served => {}
                        Ok(expected) => stats.mismatches.push(format!(
                            "request {i}: served response differs from direct evaluation \
                             ({} vs {} bytes)",
                            served.len(),
                            expected.len()
                        )),
                        Err(e) => stats
                            .mismatches
                            .push(format!("request {i}: direct evaluation failed: {e}")),
                    }
                    break;
                }
            }
        }
        i += stride;
    }
    Ok(())
}

/// `--load ADDR`: replay a seeded request mix against a running server
/// and verify bit-identity against direct sequential evaluation. Exits
/// non-zero if any response differed, any request was dropped or any
/// connection failed. A
/// smoke, not a measurement: service timings come from the benchmark's
/// `serve-mix` workload.
fn run_load(addr: &str, opts: &Options) -> ! {
    let requests = opts.requests;
    let conns = opts.conns.clamp(1, requests.max(1));
    eprintln!(
        "load: {requests} requests over {conns} connections (mix seed {}) against {addr}",
        opts.mix_seed
    );
    // The reference evaluator loads the same snapshot (same scale, same
    // cache dir): workload measurement is deterministic, so the direct
    // sequential evaluation here is the bit-exact oracle for every
    // served response.
    let (evaluator, status) = Evaluator::load(opts.scale, opts.use_cache);
    eprintln!("load: reference workload {status:?}");
    let mix = c3i_fuzz::generate_mix(opts.mix_seed, requests);

    let per_conn: Vec<ConnStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mix = &mix;
                let evaluator = &evaluator;
                s.spawn(move || {
                    let mut stats = ConnStats::default();
                    stats.failure =
                        replay_connection(addr, mix, evaluator, c, conns, &mut stats).err();
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection thread panicked"))
            .collect()
    });

    if opts.stop_server {
        match Client::connect(addr).map(|mut c| c.shutdown_server()) {
            Ok(Ok(_)) => eprintln!("load: server acknowledged shutdown"),
            Ok(Err(e)) => eprintln!("load: shutdown request failed: {e}"),
            Err(e) => eprintln!("load: cannot reconnect for shutdown: {e}"),
        }
    }

    let completed: usize = per_conn.iter().map(|c| c.completed).sum();
    let rejected: usize = per_conn.iter().map(|c| c.rejected).sum();
    let mismatches: Vec<&String> = per_conn.iter().flat_map(|c| &c.mismatches).collect();
    println!(
        "Service load smoke ({:?} scale, {conns} connections, mix seed {})\n\
         \x20 requests             {requests:>8}  ({completed} completed, {rejected} overload \
         rejections retried)\n\
         \x20 identical to direct  {:>8}",
        opts.scale,
        opts.mix_seed,
        mismatches.is_empty(),
    );
    for m in mismatches.iter().take(10) {
        eprintln!("load: MISMATCH: {m}");
    }
    if mismatches.len() > 10 {
        eprintln!("load: ... and {} more mismatches", mismatches.len() - 10);
    }
    let failure = per_conn.iter().find_map(|c| c.failure.as_ref());
    if let Some(first) = failure {
        let dropped = requests - completed;
        eprintln!("load: {dropped} of {requests} requests not completed; first failure: {first}");
    }
    if mismatches.is_empty() && completed == requests && failure.is_none() {
        std::process::exit(0);
    }
    std::process::exit(1);
}

fn utilization_report(n_threads: usize) -> String {
    let mut out = String::new();
    // mixed_kernel with alu_per_iter = 3: 5 instructions per iteration,
    // 4 taking `issue_latency` and 1 load taking `mem_extra_latency +
    // bank_service` => L = (4*21 + 70)/5 = 30.8 cycles on the Tera.
    let cfg = experiments::util_cfg();
    let l = (4 * cfg.issue_latency + cfg.mem_extra_latency + cfg.bank_service) as f64 / 5.0;
    out.push_str("Processor utilization vs hardware streams (mta-sim, 20% memory mix)\n");
    out.push_str(&format!(
        "  paper Section 5/7: single stream ~5%, ~80 streams to saturate; this mix: 1/L = {:.1}%, saturates at L = {l:.1} streams\n",
        100.0 / l
    ));
    out.push_str("  streams  measured   model min(1, s/L)\n");
    let measured = measure_utilization_sweep(&cfg, &experiments::UTIL_STREAMS, 400, 3, n_threads);
    for (&s, u) in experiments::UTIL_STREAMS.iter().zip(measured) {
        let model = (s as f64 / l).min(1.0);
        out.push_str(&format!("  {s:>7}  {u:>8.3}   {model:>8.3}\n"));
    }
    out
}

/// The `--profile` report: process-lifetime pool counters, and a sample
/// simulator run's structured machine counters.
fn profile_report() -> String {
    use sthreads::stats;
    let s = stats::snapshot();
    let mut out = String::new();
    out.push_str("Observability profile (sthreads::stats, process lifetime)\n");
    out.push_str(&format!(
        "  pool regions          {:>10}  (nested fallback {})\n",
        s.regions, s.nested_regions
    ));
    out.push_str(&format!(
        "  tasks / batches       {:>10} / {} (mean batch {:.1} tasks)\n",
        s.tasks,
        s.batches,
        s.mean_batch_items()
    ));
    out.push_str(&format!("  worker parks          {:>10}\n", s.parks));

    // One deterministic simulator run, profiled through SimStats: 32
    // streams of the standard utilization mix plus a fetch-add hot word.
    let (_, r) = mta_sim::kernels::run_kernel(
        experiments::util_cfg(),
        mta_sim::kernels::mixed_kernel(32, 400, 3, 4096),
        &[],
    );
    let st = &r.stats;
    out.push_str("\nSimulator machine counters (mixed kernel, 32 streams, 1 processor)\n");
    out.push_str(&format!(
        "  cycles / instructions {:>10} / {}  (utilization {:.1}%)\n",
        r.cycles,
        st.instructions(),
        100.0 * r.utilization()
    ));
    let active_slots: usize = st
        .streams
        .issued_per_slot
        .iter()
        .map(|p| p.iter().filter(|&&n| n > 0).count())
        .sum();
    out.push_str(&format!(
        "  issue slots used      {:>10}  (peak live {:?})\n",
        active_slots, st.streams.peak_live_per_processor
    ));
    out.push_str(&format!(
        "  threads               {:>10} forks, {} soft spawns\n",
        st.threads.forks, st.threads.soft_spawns
    ));
    out.push_str(&format!(
        "  full/empty sync       {:>10} retries, {} wakes, {} reparks\n",
        st.sync.blocked, st.sync.wakes, st.sync.reparks
    ));
    out.push_str(&format!(
        "  memory accesses       {:>10}  ({:.1}% queued; {} bank-queue cycles)\n",
        st.memory.accesses,
        100.0 * st.memory.queued_fraction(),
        st.memory.bank_queue_cycles
    ));
    out.push_str(&format!(
        "  queue-wait histogram  {:>10?}  (cycles: 0, 1-4, 5-16, 17-64, 65+)\n",
        st.memory.queue_wait_hist
    ));
    out
}

/// `--fuzz N [--fuzz-seed S]`: run the differential fuzzing campaign and
/// exit. Every generated scenario runs through sequential oracle ×
/// {coarse, fine, chunked} × {1, 2, 8} workers; any failure is
/// ddmin-minimized, written under `target/c3i-fuzz/`, and the process
/// exits 1.
fn run_fuzz(n_cases: usize, seed: u64, reduced: bool) -> ! {
    use c3i_fuzz::CaseOutcome;
    eprintln!(
        "fuzz: {n_cases} cases, seed {seed}{} — oracle x {{coarse, fine, chunked}} x \
         {{1, 2, 8}} workers",
        if reduced { ", reduced sizes" } else { "" }
    );
    let report = c3i_fuzz::run_campaign(
        &c3i_fuzz::CampaignConfig {
            n_cases,
            seed,
            reduced,
        },
        |index, outcome| match outcome {
            CaseOutcome::Passed => {
                if (index + 1) % 25 == 0 {
                    eprintln!("fuzz: {}/{n_cases} cases checked", index + 1);
                }
            }
            CaseOutcome::Rejected(msg) => {
                eprintln!("fuzz: case {index} rejected by validation: {msg}")
            }
            CaseOutcome::Failed(f) => eprintln!("fuzz: case {index} FAILED: {f}"),
        },
    );
    println!(
        "fuzz: {} cases — {} passed, {} rejected, {} failed (seed {seed})",
        report.n_cases,
        report.n_passed,
        report.n_rejected,
        report.failures.len()
    );
    if report.ok() {
        std::process::exit(0);
    }
    let dir = std::path::Path::new("target/c3i-fuzz");
    std::fs::create_dir_all(dir).expect("create target/c3i-fuzz");
    for f in &report.failures {
        let path = dir.join(format!("seed{seed}-case{}.json", f.index));
        c3i_fuzz::save_case(&f.case, &path).expect("write minimized failure");
        println!(
            "fuzz: case {} minimized to {} — {}\n      reproduce: repro --fuzz {} --fuzz-seed {seed}\n      \
             pin it: fix the bug, then copy {} into tests/corpus/",
            f.index,
            path.display(),
            f.failure,
            f.index + 1,
            path.display()
        );
    }
    std::process::exit(1);
}

/// End the run on a path `repro` cannot write: the path and the error on
/// stderr, exit status 1.
fn cannot_write(path: &str, e: std::io::Error) -> ! {
    eprintln!("repro: cannot write {path}: {e}");
    std::process::exit(1);
}

/// Write `t` as `DIR/<table id>.csv` into the existing `DIR`; returns the
/// path.
fn write_csv(dir: &str, t: &eval_core::Table) -> String {
    let path = format!("{dir}/{}.csv", t.id.to_lowercase().replace(' ', "_"));
    std::fs::write(&path, t.to_csv()).unwrap_or_else(|e| cannot_write(&path, e));
    path
}

fn main() {
    let opts = parse_args();
    if let Some(n_cases) = opts.fuzz {
        run_fuzz(
            n_cases,
            opts.fuzz_seed,
            opts.scale == WorkloadScale::Reduced,
        );
    }
    if let Some(addr) = &opts.serve {
        run_serve(addr, opts.scale, opts.use_cache);
    }
    let n_threads = opts
        .n_threads
        .unwrap_or_else(|| ThreadPool::global().n_threads());
    if let Some(addr) = &opts.load {
        run_load(addr, &opts);
    }
    // Before any workload is built: a paper-scale build takes a while, and
    // a CSV directory that cannot be created should not wait for it.
    if let Some(dir) = &opts.csv_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| cannot_write(dir, e));
    }
    let mut out = String::new();

    // "table-auto" is the living auto-vs-manual comparison (ISSUE 10):
    // every cell is deterministic text and the execution checks run on
    // small fixed scenarios, so it needs no workload measurement and no
    // calibration. It renders first, and when it is the only requested
    // section repro exits here — that path is the CI smoke that diffs
    // the CSV against the pinned results/table_auto.csv.
    if want(&opts, "table-auto") {
        let t = experiments::Experiments::table_auto(n_threads);
        out.push_str(&t.render());
        out.push('\n');
        if let Some(dir) = &opts.csv_dir {
            eprintln!("wrote {}", write_csv(dir, &t));
        }
        if opts.sections.iter().all(|s| s == "table-auto") {
            print!("{out}");
            return;
        }
    }

    eprintln!(
        "loading workload ({:?} scale) and calibrating models...",
        opts.scale
    );
    let (evaluator, status) = Evaluator::load(opts.scale, opts.use_cache);
    eprintln!(
        "workload: {status:?} (snapshot dir {})",
        cache::cache_dir().display()
    );
    let exps = evaluator.experiments();
    out.push_str(&format!(
        "Reproduction of \"An Initial Evaluation of the Tera Multithreaded Architecture\n\
         and Programming System Using the C3I Parallel Benchmark Suite\" (SC'98).\n\
         Workload scale: {:?}. Calibration: S_TA={:.1} S_TM={:.1} eta2={:.3} kappa={:.1}\n\n",
        exps.workload.scale,
        exps.cal.s_ta,
        exps.cal.s_tm,
        exps.cal.tera.eta2,
        exps.cal.tera.spawn_cycles_per_task
    ));

    if want(&opts, "tables") {
        for t in &exps.all_tables_with_threads(n_threads) {
            out.push_str(&t.render());
            out.push('\n');
            if let Some(dir) = &opts.csv_dir {
                write_csv(dir, t);
            }
        }
    }

    if want(&opts, "figures") {
        for f in Figure::ALL {
            out.push_str(&exps.figure(f));
            out.push('\n');
        }
    }

    if want(&opts, "autopar") {
        let summary = exps.autopar_report();
        out.push_str("Automatic parallelization (modeled Tera/Exemplar compilers):\n");
        out.push_str(&summary.report.to_string());
        out.push_str(
            "\nDataflow pass (reductions, privatization, compaction, purity summaries):\n",
        );
        out.push_str(&summary.dataflow.to_string());
        out.push('\n');
    }

    if want(&opts, "scalability") {
        out.push_str(
            &exps
                .scalability_projection(&[1, 2, 4, 8, 16, 32, 64, 128, 256])
                .render(),
        );
        out.push('\n');
    }

    if want(&opts, "sensitivity") {
        out.push_str(&exps.sensitivity().render());
        out.push('\n');
    }

    if want(&opts, "utilization") {
        out.push_str(&utilization_report(n_threads));
        out.push('\n');
    }

    if opts.profile {
        out.push_str(&profile_report());
        out.push('\n');
    }

    print!("{out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args_from(args.iter().map(|s| s.to_string()))
            .map(|opts| opts.unwrap_or_else(|| panic!("{args:?} asked for --help")))
    }

    /// Every value-taking flag must reject a missing or flag-like operand,
    /// naming the flag in the error: a bare `repro --csv` must not behave
    /// like plain `repro`.
    #[test]
    fn value_flags_reject_missing_or_flaglike_operands() {
        for Flag(flag, ..) in FLAGS.iter().filter(|Flag(_, operand, _)| operand.is_some()) {
            let err = parse(&[flag]).expect_err(flag);
            assert!(
                err.contains(flag),
                "{flag}: error '{err}' must name the flag"
            );
            let err = parse(&[flag, "--reduced"]).expect_err(flag);
            assert!(
                err.contains(flag),
                "{flag} with a flag as operand: error '{err}' must name the flag"
            );
        }
    }

    #[test]
    fn numeric_operands_must_parse() {
        for bad in [
            &["--fuzz", "many"][..],
            &["--fuzz-seed", "1.5"],
            &["--threads", "-2"],
            &["--threads", "0"],
            &["--requests", "x"],
            &["--conns", ""],
            &["--mix-seed", "-1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn unknown_flags_are_rejected() {
        // `--timing` and `--gate` were flags once; `benchmark/` replaced
        // them. `--json` and `--out` were too: nothing turned `--json` on,
        // and `--out` wrote what stdout gets.
        for args in [
            &["--bogus"][..],
            &["--timing"],
            &["--gate", "x"],
            &["--json", "t.json", "tables"],
            &["--out", "o.txt"],
        ] {
            assert!(parse(args).unwrap_err().contains(args[0]), "{args:?}");
        }
    }

    /// `repro --reduced tabels` used to load the workload, print the
    /// header and exit 0 with no section rendered.
    #[test]
    fn unknown_sections_are_rejected() {
        for args in [&["tabels"][..], &["--reduced", "tables", "figure"], &[""]] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("unknown section"), "{args:?}: {err}");
        }
        for &section in SECTIONS {
            assert_eq!(parse(&[section]).unwrap().sections, [section]);
            assert!(usage().contains(section), "usage must list {section}");
        }
    }

    /// `--help` used to `exit(0)` from inside the parser.
    #[test]
    fn help_is_a_parser_outcome_and_the_usage_names_every_flag() {
        for h in ["--help", "-h"] {
            let parsed = parse_args_from(["--reduced", h].map(String::from));
            assert!(matches!(parsed, Ok(None)), "{h}");
        }
        for Flag(name, ..) in FLAGS {
            assert!(usage().contains(&format!("[{name}")), "{name}");
        }
    }

    #[test]
    fn valid_invocations_parse() {
        let o = parse(&["--reduced", "--csv", "outdir", "tables"]).unwrap();
        assert_eq!(o.scale, WorkloadScale::Reduced);
        assert_eq!(o.csv_dir.as_deref(), Some("outdir"));
        assert_eq!(o.sections, ["tables"]);

        let o = parse(&["--serve", "target/c3i.sock", "--threads", "2", "--no-cache"]).unwrap();
        assert_eq!(o.serve.as_deref(), Some("target/c3i.sock"));
        assert_eq!(o.n_threads, Some(2));
        assert!(!o.use_cache);

        let o = parse(&[
            "--load",
            "127.0.0.1:9311",
            "--requests",
            "40",
            "--conns",
            "4",
            "--mix-seed",
            "7",
            "--stop-server",
        ])
        .unwrap();
        assert_eq!(o.load.as_deref(), Some("127.0.0.1:9311"));
        assert_eq!(o.requests, 40);
        assert_eq!(o.conns, 4);
        assert_eq!(o.mix_seed, 7);
        assert!(o.stop_server);

        // Defaults when no sections are given.
        let o = parse(&[]).unwrap();
        assert_eq!(o.sections, ["all"]);
        assert_eq!(o.requests, 64);
        assert_eq!(o.conns, 4);
        assert!(o.use_cache);
    }
}
