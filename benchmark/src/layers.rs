//! The traced run's probe battery: every per-layer metric, from spans
//! recorded around calls into each layer.
//!
//! The battery is the same whatever workload the traced run was asked
//! for: it sets each workload up once, runs a few traced ops of each, and
//! adds the probes no workload isolates (an empty pool region, one
//! `Evaluator::evaluate` per request kind, a wire ping, `repro --help`).
//! For `paper-cold` the traced side is an in-process replica of the
//! `repro all` pipeline through the same public functions; what the
//! spawned op costs beyond the replica is reported as
//! `repro.residual_ms`, not hidden.

use crate::alloc;
use crate::common::{wait_timeout, Budget, Env, Samples, CHILD_TIMEOUT, WIDTH};
use crate::mix::Kind;
use crate::names::Metrics;
use crate::stats::{median, ms, quantile, us};
use crate::trace::Tracer;
use crate::workloads::kernels_host::{KernelsHost, Variant};
use crate::workloads::paper_cold::PaperCold;
use crate::workloads::serve_mix::ServeMix;
use crate::workloads::sim::{self, Sim, SimDense, SimSparse};
use crate::workloads::Workload;
use eval_core::cache::load_or_measure_in;
use eval_core::experiments::{util_cfg, UTIL_STREAMS};
use eval_core::service::{Service, ServiceConfig};
use eval_core::{
    calibrate, CacheStatus, Client, EvalRequest, Evaluator, Experiments, Figure, WorkloadScale,
};
use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Median duration of the spans named `span`, in ms.
fn span_ms(tr: &Tracer, span: &str) -> Result<f64, String> {
    median(&tr.durations(span))
        .map(ms)
        .ok_or_else(|| format!("no span named {span}"))
}

/// Median of `n` timings of `f`, in ns.
fn median_of(n: usize, mut f: impl FnMut()) -> u64 {
    let samples: Vec<u64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    median(&samples).expect("n > 0")
}

/// Ops attempted and failed across the battery's workload slices.
#[derive(Default)]
pub struct Tally {
    /// Ops started.
    pub attempted: u64,
    /// Ops whose output failed its check.
    pub failed: u64,
    /// Reasons, for the log.
    pub failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, s: &Samples) {
        self.attempted += s.attempted;
        self.failed += s.failed;
        self.failures.extend(s.failures.iter().cloned());
    }
}

/// `sthreads`: the cost of opening a region and of a fine-grained loop.
fn sthreads_probe(m: &mut Metrics) {
    let pool = sthreads::ThreadPool::global();
    pool.warm(WIDTH);
    let region = median_of(4000, || {
        pool.run_width(WIDTH, |t| {
            black_box(t);
        })
    });
    m.set("sthreads.region_empty_us", us(region));
    // ~1 µs of arithmetic per iteration, fixed work rather than fixed time.
    let body = |i: usize| {
        let mut x = i as u64 | 1;
        for _ in 0..300 {
            x = black_box(
                x.wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407),
            );
        }
        black_box(x);
    };
    let parfor = median_of(25, || {
        sthreads::ParFor::new(0..10_000).threads(WIDTH).run(body)
    });
    m.set("sthreads.parfor_1us_x10k_ms", ms(parfor));
}

/// `c3i` through the pool (one `kernels-host` slice) and through the
/// counting instantiation (the passes `Workload::build` runs).
fn c3i_probe(
    seed: u64,
    env: &Env,
    tr: &Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut w = KernelsHost::setup(seed, env, tr)?;
    m.set("c3i.scenario_gen_ms", span_ms(tr, "c3i.scenario_gen")?);

    // One op with the pool counters and the allocator watched…
    let before = sthreads::stats::snapshot();
    let (samples, allocs) = alloc::count(|| w.measure(Budget::Ops(1), tr));
    let d = sthreads::stats::snapshot() - before;
    tally.add(&samples);
    m.set("c3i.allocs_per_op", allocs as f64);
    m.set("sthreads.regions", d.regions as f64);
    m.set("sthreads.tasks", d.tasks as f64);
    m.set(
        "sthreads.serial_cutoff_regions",
        d.serial_cutoff_regions as f64,
    );
    m.set("sthreads.steals", d.steals as f64);
    m.set("sthreads.steal_fails", d.steal_fails as f64);
    m.set("sthreads.parks", d.parks as f64);
    let attempts = d.steals + d.steal_fails;
    m.set(
        "sthreads.steal_success_ratio",
        if attempts == 0 {
            1.0
        } else {
            d.steals as f64 / attempts as f64
        },
    );
    // …and two more for the timings (with the warm-up op: four sets of spans).
    tally.add(&w.measure(Budget::Ops(2), tr));
    for v in [
        Variant::TaSeq,
        Variant::TaChunked,
        Variant::TaFine,
        Variant::TmSeq,
        Variant::TmCoarse,
        Variant::TmFine,
    ] {
        let per_op = median(&tr.per_op_totals(v.span())).ok_or("no c3i spans")?;
        m.set(format!("{}_ms", v.span()), ms(per_op));
    }
    drop(w);

    // The counting passes, sequentially over the paper suite.
    use c3i::{terrain, threat};
    let (ta, tm) = (threat::benchmark_suite(), terrain::benchmark_suite());
    let ((intervals, ta_ops), _) = tr.timed("c3i.ta_count", || {
        let (mut intervals, mut ops) = (0u64, 0u64);
        for s in &ta {
            black_box(threat::per_threat_counts(s));
            let (found, profile) = threat::threat_analysis_profile(s);
            intervals += found.len() as u64;
            ops += profile.total().instructions();
        }
        (intervals, ops)
    });
    let ((tm_ops, tm_bytes), _) = tr.timed("c3i.tm_count", || {
        let (mut ops, mut bytes) = (0u64, 0u64);
        for s in &tm {
            black_box(terrain::per_threat_counts(s, 10));
            let (masking, profile) = terrain::terrain_masking_profile(s);
            black_box(terrain::terrain_masking_fine(s));
            ops += profile.total().instructions();
            // Computed from grid sizes, not measured: the terrain read
            // once and the masking written once, 8 bytes a cell.
            bytes += 8 * (s.terrain.len() + masking.len()) as u64;
        }
        (ops, bytes)
    });
    m.set("c3i.ta_count_ms", span_ms(tr, "c3i.ta_count")?);
    m.set("c3i.tm_count_ms", span_ms(tr, "c3i.tm_count")?);
    m.set("c3i.ta_intervals", intervals as f64);
    m.set("c3i.ta_ops", ta_ops as f64);
    m.set("c3i.tm_ops", tm_ops as f64);
    m.set("c3i.tm_bytes_computed", tm_bytes as f64);
    Ok(())
}

/// `mta-sim`: one slice of each simulator workload plus assembly and
/// machine construction on their own.
fn mta_sim_probe(
    seed: u64,
    env: &Env,
    tr: &Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut dense = SimDense::setup(seed, env, tr)?;
    let (samples, allocs) = alloc::count(|| dense.measure(Budget::Ops(1), tr));
    tally.add(&samples);
    m.set("mta_sim.allocs_per_op", allocs as f64);
    let mut sparse = SimSparse::setup(seed, env, tr)?;
    tally.add(&sparse.measure(Budget::Ops(1), tr));

    m.set(
        "mta_sim.asm_ms",
        tr.durations("mta_sim.asm").iter().map(|&ns| ms(ns)).sum(),
    );
    let program = mta_sim::kernels::mixed_kernel(256, 2000, 4, 100_000);
    let machine_new = median_of(5, || {
        black_box(mta_sim::Machine::new(sim::machine(2), program.clone()).ok());
    });
    m.set("mta_sim.machine_new_ms", ms(machine_new));

    let mut sweep_ns = |sim: &Sim| -> Result<u64, String> {
        let mut total = 0;
        for k in &sim.kernels {
            let run = median(&tr.durations(&format!("mta_sim.run.{}", k.name)))
                .ok_or("no mta_sim.run spans")?;
            m.set(format!("mta_sim.run_ms.{}", k.name), ms(run));
            total += run;
        }
        Ok(total)
    };
    let (dense, sparse) = (&dense.0, &sparse.0);
    let (dense_ns, sparse_ns) = (sweep_ns(dense)?, sweep_ns(sparse)?);
    m.set(
        "mta_sim.host_ns_per_instr",
        dense_ns as f64 / dense.instructions() as f64,
    );
    m.set(
        "mta_sim.host_ns_per_cycle",
        sparse_ns as f64 / sparse.cycles() as f64,
    );
    m.set("mta_sim.dense_instr", dense.instructions() as f64);
    m.set("mta_sim.dense_cycles", dense.cycles() as f64);
    m.set("mta_sim.dense_utilization", dense.utilization());
    m.set("mta_sim.sparse_instr", sparse.instructions() as f64);
    m.set("mta_sim.sparse_cycles", sparse.cycles() as f64);
    m.set("mta_sim.sparse_utilization", sparse.utilization());
    let both = || dense.oracle.iter().chain(&sparse.oracle);
    m.set(
        "mta_sim.bank_queue_cycles",
        both()
            .map(|r| r.stats.memory.bank_queue_cycles)
            .sum::<u64>() as f64,
    );
    m.set(
        "mta_sim.sync_reparks",
        both().map(|r| r.stats.sync.reparks).sum::<u64>() as f64,
    );
    Ok(())
}

/// The `repro all` pipeline in-process, one span per stage under
/// `repro.replica`. Returns the harness it built and the replica's time.
fn replica_probe(tr: &Tracer, m: &mut Metrics) -> Result<(Experiments, u64), String> {
    let scale = WorkloadScale::Paper;
    let (exps, total_ns) = tr.timed("repro.replica", || {
        tr.timed("eval_core.table_auto", || {
            let t = Experiments::table_auto(WIDTH);
            black_box((t.render(), t.to_csv()));
        });
        let workload = tr
            .timed("eval_core.workload_build", || {
                eval_core::Workload::build(scale)
            })
            .0;
        let cal = tr.timed("eval_core.calibrate", || calibrate(&workload)).0;
        let exps = Experiments { workload, cal };
        tr.timed("eval_core.tables", || {
            for t in exps.all_tables() {
                black_box((t.render(), t.to_csv()));
            }
        });
        tr.timed("eval_core.figures", || {
            for f in [
                Figure::ThreatPPro,
                Figure::ThreatExemplar,
                Figure::TerrainPPro,
                Figure::TerrainExemplar,
            ] {
                black_box(exps.figure(f));
            }
        });
        tr.timed("autopar.report", || {
            let summary = exps.autopar_report();
            black_box((summary.report.to_string(), summary.dataflow.to_string()));
        });
        tr.timed("eval_core.scalability", || {
            black_box(
                exps.scalability_projection(&[1, 2, 4, 8, 16, 32, 64, 128, 256])
                    .render(),
            );
        });
        tr.timed("eval_core.sensitivity", || {
            black_box(exps.sensitivity().render())
        });
        tr.timed("mta_sim.util_sweep", || {
            black_box(mta_sim::kernels::measure_utilization_sweep(
                &util_cfg(),
                &UTIL_STREAMS,
                400,
                3,
                WIDTH,
            ));
        });
        exps
    });
    for stage in [
        "eval_core.workload_build",
        "eval_core.calibrate",
        "eval_core.tables",
        "eval_core.figures",
        "eval_core.scalability",
        "eval_core.table_auto",
        "eval_core.sensitivity",
        "autopar.report",
        "mta_sim.util_sweep",
    ] {
        m.set(format!("{stage}_ms"), span_ms(tr, stage)?);
    }
    Ok((exps, total_ns))
}

/// Run `repro` with `args`, optionally against a snapshot directory;
/// returns the wall time, or an error if it fails.
fn run_repro(env: &Env, args: &[&str], cache: Option<&std::path::Path>) -> Result<u64, String> {
    let mut cmd = Command::new(&env.repro);
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    match cache {
        Some(dir) => cmd.env("C3I_CACHE_DIR", dir).env_remove("C3I_NO_CACHE"),
        None => &mut cmd,
    };
    let t0 = Instant::now();
    let status = cmd
        .spawn()
        .ok()
        .and_then(|mut c| wait_timeout(&mut c, CHILD_TIMEOUT));
    let ns = t0.elapsed().as_nanos() as u64;
    match status {
        Some(s) if s.success() => Ok(ns),
        other => Err(format!("repro {args:?} failed: {other:?}")),
    }
}

/// `service`, `wire` and the `Evaluator` behind them: one `serve-mix`
/// slice plus the probes that separate protocol cost from evaluation.
fn serve_probe(
    seed: u64,
    env: &Env,
    tr: &Tracer,
    exps: Experiments,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut w = ServeMix::setup(seed, env, tr)?;
    m.set(
        "eval_core.cache_store_ms",
        span_ms(tr, "eval_core.cache_store")?,
    );
    m.set("repro.serve_ready_ms", span_ms(tr, "repro.serve_ready")?);
    let (status, load_ns) = tr.timed("eval_core.cache_load", || {
        load_or_measure_in(&w.cache, WorkloadScale::Paper, true).2
    });
    if status != CacheStatus::Hit {
        return Err(format!("snapshot reload reported {status:?}, expected Hit"));
    }
    m.set("eval_core.cache_load_ms", ms(load_ns));

    let load = w.measure(Budget::Ops(4000), tr);
    tally.add(&load);
    for class in ["cheap", "render", "heavy"] {
        let p50 = median(&w.last_latencies(Some(class))).ok_or("no requests of a class")?;
        m.set(format!("serve.p50_ms.{class}"), ms(p50));
    }
    // 4000 requests leave 40 beyond p99: enough for the percentile.
    let p99 = quantile(&w.last_latencies(None), 0.99).ok_or("no requests")?;
    m.set("serve.p99_ms", ms(p99));
    m.set("serve.rejected", w.rejected as f64);
    m.set("serve.retries", w.retries as f64);

    // Direct evaluation, per kind, over the distinct requests of the mix.
    for kind in Kind::ALL {
        let mut seen = std::collections::HashSet::new();
        let reqs: Vec<&EvalRequest> = w
            .pool
            .iter()
            .filter(|r| Kind::of(r) == kind && seen.insert(format!("{r:?}")))
            .take(64)
            .collect();
        let span = format!("eval_core.evaluate.{}", kind.name());
        for _ in 0..3 {
            for req in &reqs {
                tr.timed(&span, || black_box(w.evaluator.evaluate(req).is_ok()));
            }
        }
        let ns = median(&tr.durations(&span)).ok_or(format!("mix has no {kind:?} request"))?;
        m.set(format!("eval_core.evaluate_us.{}", kind.name()), us(ns));
    }

    // One connection, pings only: the wire + queue handshake floor.
    let mut client = Client::connect(&w.server.addr).map_err(|e| format!("connect: {e}"))?;
    let rtt = median_of(2000, || {
        black_box(client.call(EvalRequest::Ping).is_ok());
    });
    m.set("wire.ping_rtt_us", us(rtt));
    drop(client);

    // The same handshake without the socket.
    let service = Service::start(
        Evaluator::new(exps, WorkloadScale::Paper),
        ServiceConfig::default(),
    );
    let submit_wait = median_of(2000, || {
        black_box(
            service
                .submit(EvalRequest::Ping)
                .map(|p| p.wait().is_ok())
                .is_ok(),
        );
    });
    m.set("service.submit_wait_us", us(submit_wait));
    drop(service);

    let warm: Vec<u64> = (0..3)
        .map(|_| run_repro(env, &["all"], Some(&w.cache)))
        .collect::<Result<_, _>>()?;
    m.set("repro.warm_all_ms", ms(median(&warm).expect("three runs")));
    Ok(())
}

/// `smp-sim`: one streaming and one cache-resident pattern on 4 CPUs.
/// Moves no end-to-end metric today (only `validate.rs` tests call the
/// crate); listed so the ROADMAP audit has its number.
fn smp_sim_probe(tr: &Tracer, m: &mut Metrics) {
    use smp_sim::{SmpConfig, SmpMachine, TracePattern};
    let traces: Vec<_> = (0..4)
        .map(|cpu| {
            let base = cpu * (1 << 22);
            if cpu % 2 == 0 {
                TracePattern::Stream {
                    base,
                    words: 400_000,
                    stride: 1,
                    compute_per_access: 2,
                    write: false,
                }
            } else {
                TracePattern::ResidentLoop {
                    base,
                    block_words: 16 * 1024,
                    rounds: 25,
                    compute_per_access: 2,
                }
            }
            .generate()
        })
        .collect();
    let (result, ns) = tr.timed("smp_sim.run", || {
        SmpMachine::new(SmpConfig {
            n_cpus: 4,
            cpu: eval_core::validate::validation_cpu(),
            bus_per_transaction: 6,
        })
        .run(&traces)
    });
    m.set("smp_sim.run_ms", ms(ns));
    m.set("smp_sim.hit_rate", result.hit_rate());
    m.set("smp_sim.makespan_cycles", result.makespan() as f64);
}

/// Run the whole battery, recording into `tr` and `m`.
pub fn battery(seed: u64, env: &Env, tr: &Tracer, m: &mut Metrics) -> Result<Tally, String> {
    let mut tally = Tally::default();
    sthreads_probe(m);
    c3i_probe(seed, env, tr, m, &mut tally)?;
    mta_sim_probe(seed, env, tr, m, &mut tally)?;
    smp_sim_probe(tr, m);
    let (exps, replica_ns) = replica_probe(tr, m)?;
    // The spawned runs sit right beside the replica they are compared
    // with, so that both see the same host.
    let mut cold = PaperCold::setup(seed, env, tr)?;
    tally.add(&cold.measure(Budget::Ops(2), tr));
    let spawned = median(&tr.durations("repro.cold_all")).ok_or("no cold runs")?;
    m.set("repro.residual_ms", ms(spawned) - ms(replica_ns));
    serve_probe(seed, env, tr, exps, m, &mut tally)?;
    let startup: Vec<u64> = (0..5)
        .map(|_| run_repro(env, &["--help"], None))
        .collect::<Result<_, _>>()?;
    m.set("repro.startup_ms", ms(median(&startup).expect("five runs")));
    Ok(tally)
}
