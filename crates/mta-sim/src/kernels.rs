//! Ready-made IR kernels for tests, microbenchmarks, and the
//! reproduction of the paper's microarchitectural claims:
//!
//! * single-stream utilization ≈ 1/21 ≈ 5 % (§5: "a single thread on the
//!   Tera MTA can issue only one instruction every 21 cycles");
//! * tens of streams needed to saturate a processor for compute-heavy
//!   work, ≈80 for realistic memory-heavy mixes (§7: "80 concurrent
//!   threads are typically required to obtain full utilization");
//! * one-instruction synchronization (fetch-add self-scheduling,
//!   producer/consumer through full/empty words);
//! * bank conflicts under hot-bank strides in the 64-way interleave.
//!
//! Every kernel follows the same shape: a main stream forks `n_workers`
//! workers (each receiving its id in `r1`) and halts; workers do the
//! kernel work and halt. Completion is detected by the machine running
//! out of live streams.

use crate::asm::Assembler;
use crate::ir::{Program, Reg};
use crate::machine::{Machine, MtaConfig, RunResult};

/// Register carrying the worker id (set by `Fork`).
const ID: Reg = 1;
/// Scratch register used by load kernels.
const TMP: Reg = 8;

/// Emit the standard fan-out prologue: fork `n_workers` workers at
/// `worker` (ids `0..n_workers` in `r1`), then halt the main stream.
fn fanout(a: &mut Assembler, n_workers: i64, worker: &str) {
    a.li(2, 0); // next id
    a.li(3, n_workers);
    a.label("spawn");
    a.bge_l(2, 3, "spawned");
    a.fork_l(worker, 2);
    a.addi(2, 2, 1);
    a.jmp_l("spawn");
    a.label("spawned");
    a.halt();
}

/// A pure-ALU kernel: `n_workers` streams each run `iters` iterations of
/// integer work (2 instructions per iteration).
pub fn alu_kernel(n_workers: usize, iters: i64) -> Program {
    let mut a = Assembler::new();
    fanout(&mut a, n_workers as i64, "work");
    a.label("work");
    a.li(4, iters);
    a.label("loop");
    a.addi(4, 4, -1);
    a.bne_l(4, 0, "loop");
    a.halt();
    a.assemble().expect("alu_kernel must assemble")
}

/// A strided-load kernel: worker `w` performs `iters` loads at addresses
/// `base + (w*iters + i) * stride`. With `stride == 1` traffic spreads
/// over all banks; with `stride == n_banks` every access hits one bank
/// (hot-banking).
pub fn mem_kernel(n_workers: usize, iters: i64, stride: i64, base: i64) -> Program {
    // 6-way unrolled so loads dominate the instruction stream (6 loads per
    // 14 instructions) — enough demand to expose hot-bank serialization.
    const UNROLL: i64 = 6;
    let mut a = Assembler::new();
    fanout(&mut a, n_workers as i64, "work");
    a.label("work");
    a.li(4, iters);
    a.li(5, iters * UNROLL * stride);
    a.mul(5, ID, 5);
    a.addi(5, 5, base);
    a.li(6, stride);
    a.label("loop");
    for _ in 0..UNROLL {
        a.load(TMP, 5, 0);
        a.add(5, 5, 6);
    }
    a.addi(4, 4, -1);
    a.bne_l(4, 0, "loop");
    a.halt();
    a.assemble().expect("mem_kernel must assemble")
}

/// A mixed compute/memory kernel: each iteration does `alu_per_iter`
/// integer instructions and one load, giving a memory fraction of
/// `1 / (alu_per_iter + 1)`. This is the knob for the
/// utilization-vs-streams experiments.
pub fn mixed_kernel(n_workers: usize, iters: i64, alu_per_iter: i64, base: i64) -> Program {
    assert!(alu_per_iter >= 1);
    let mut a = Assembler::new();
    fanout(&mut a, n_workers as i64, "work");
    a.label("work");
    a.li(4, iters);
    a.li(5, 0);
    a.mov(6, ID);
    a.addi(6, 6, base);
    a.label("loop");
    for _ in 0..(alu_per_iter - 1) {
        a.addi(5, 5, 1);
    }
    a.load(TMP, 6, 0);
    a.addi(4, 4, -1);
    a.bne_l(4, 0, "loop");
    a.halt();
    a.assemble().expect("mixed_kernel must assemble")
}

/// Memory layout of [`vector_add_kernel`].
#[derive(Debug, Clone, Copy)]
pub struct VectorAddLayout {
    /// First word of operand `a`.
    pub a_base: usize,
    /// First word of operand `b`.
    pub b_base: usize,
    /// First word of the result `c`.
    pub c_base: usize,
    /// Vector length.
    pub n: usize,
}

/// `c[i] = a[i] + b[i]` (f64), statically chunked over `n_workers` streams
/// by the paper's `(chunk*n)/num_chunks` blocking.
pub fn vector_add_kernel(n: usize, n_workers: usize) -> (Program, VectorAddLayout) {
    let layout = VectorAddLayout {
        a_base: 1024,
        b_base: 1024 + n,
        c_base: 1024 + 2 * n,
        n,
    };
    let mut a = Assembler::new();
    fanout(&mut a, n_workers as i64, "work");
    a.label("work");
    a.li(4, n as i64);
    a.li(5, n_workers as i64);
    a.mul(6, ID, 4);
    a.div(6, 6, 5); // r6 = first = id*n/w
    a.mov(7, ID);
    a.addi(7, 7, 1);
    a.mul(7, 7, 4);
    a.div(7, 7, 5); // r7 = end = (id+1)*n/w
    a.label("loop");
    a.bge_l(6, 7, "done");
    a.li(9, layout.a_base as i64);
    a.add(9, 9, 6);
    a.load(10, 9, 0); // a[i]
    a.li(11, layout.b_base as i64);
    a.add(11, 11, 6);
    a.load(12, 11, 0); // b[i]
    a.fadd(13, 10, 12);
    a.li(14, layout.c_base as i64);
    a.add(14, 14, 6);
    a.store(13, 14, 0); // c[i]
    a.addi(6, 6, 1);
    a.jmp_l("loop");
    a.label("done");
    a.halt();
    (
        a.assemble().expect("vector_add_kernel must assemble"),
        layout,
    )
}

/// Memory layout of [`reduce_kernel`].
#[derive(Debug, Clone, Copy)]
pub struct ReduceLayout {
    /// First word of the input vector (u64 integers).
    pub data_base: usize,
    /// The self-scheduling claim counter (starts 0, full).
    pub claim_addr: usize,
    /// The shared accumulator (starts 0, full; updated with fetch-add).
    pub sum_addr: usize,
    /// Input length.
    pub n: usize,
}

/// Self-scheduled integer sum: workers claim indices with `fetch_add` on a
/// shared counter and add each element into a shared accumulator with
/// another `fetch_add` — the MTA idiom the fine-grained Threat Analysis
/// variant uses for `num_intervals`.
pub fn reduce_kernel(n: usize, n_workers: usize) -> (Program, ReduceLayout) {
    let layout = ReduceLayout {
        data_base: 4096,
        claim_addr: 512,
        sum_addr: 513,
        n,
    };
    let mut a = Assembler::new();
    fanout(&mut a, n_workers as i64, "work");
    a.label("work");
    a.li(4, layout.claim_addr as i64);
    a.li(5, layout.sum_addr as i64);
    a.li(6, n as i64);
    a.li(7, 1);
    a.label("claim");
    a.fetch_add(9, 4, 0, 7); // r9 = my index
    a.bge_l(9, 6, "done"); // out of work
    a.li(10, layout.data_base as i64);
    a.add(10, 10, 9);
    a.load(11, 10, 0); // data[i]
    a.fetch_add(12, 5, 0, 11); // sum += data[i]
    a.jmp_l("claim");
    a.label("done");
    a.halt();
    (a.assemble().expect("reduce_kernel must assemble"), layout)
}

/// Memory layout of [`pipeline_kernel`].
#[derive(Debug, Clone, Copy)]
pub struct PipelineLayout {
    /// First channel word (one per stage boundary).
    pub chan_base: usize,
    /// Where the sink stores the sum of received values.
    pub sink_addr: usize,
    /// Number of pipeline stages.
    pub stages: usize,
    /// Values fed through the pipeline.
    pub items: i64,
}

/// A producer/consumer chain of `stages` streams connected by full/empty
/// channel words: stage `k` takes from channel `k`, adds 1, and puts into
/// channel `k+1`; the main stream feeds `items` values (`0..items`) into
/// channel 0 and a sink stream drains channel `stages`, storing the sum
/// of received values at `sink_addr`. All channel words must be set empty
/// before the run.
pub fn pipeline_kernel(stages: usize, items: i64) -> (Program, PipelineLayout) {
    assert!(stages >= 1 && items >= 1);
    let layout = PipelineLayout {
        chan_base: 256,
        sink_addr: 255,
        stages,
        items,
    };
    let mut a = Assembler::new();
    a.li(2, 0);
    a.li(3, stages as i64);
    a.label("spawn");
    a.bge_l(2, 3, "spawned");
    a.fork_l("stage", 2);
    a.addi(2, 2, 1);
    a.jmp_l("spawn");
    a.label("spawned");
    a.fork_l("sink", 0);
    // feed: store_sync items into channel 0.
    a.li(4, layout.chan_base as i64);
    a.li(5, 0);
    a.li(6, items);
    a.label("feed");
    a.bge_l(5, 6, "fed");
    a.store_sync(5, 4, 0);
    a.addi(5, 5, 1);
    a.jmp_l("feed");
    a.label("fed");
    a.halt();
    // stage worker: in = chan_base + id, out = in + 1
    a.label("stage");
    a.li(4, layout.chan_base as i64);
    a.add(4, 4, ID);
    a.mov(5, 4);
    a.addi(5, 5, 1);
    a.li(6, items);
    a.label("stage_loop");
    a.load_sync(7, 4, 0);
    a.addi(7, 7, 1);
    a.store_sync(7, 5, 0);
    a.addi(6, 6, -1);
    a.bne_l(6, 0, "stage_loop");
    a.halt();
    // sink: take from chan_base + stages, accumulate, store the sum.
    a.label("sink");
    a.li(4, (layout.chan_base + stages) as i64);
    a.li(5, 0);
    a.li(6, items);
    a.label("sink_loop");
    a.load_sync(7, 4, 0);
    a.add(5, 5, 7);
    a.addi(6, 6, -1);
    a.bne_l(6, 0, "sink_loop");
    a.li(9, layout.sink_addr as i64);
    a.store(5, 9, 0);
    a.halt();
    (a.assemble().expect("pipeline_kernel must assemble"), layout)
}

/// Memory layout of [`chunked_scan_kernel`].
#[derive(Debug, Clone, Copy)]
pub struct ChunkedScanLayout {
    /// Per-pair window table: `2` words per pair (`start`, `end`).
    pub windows_base: usize,
    /// Shared interval counter (fetch-add target).
    pub count_addr: usize,
    /// Number of (threat, weapon) pairs.
    pub n_pairs: usize,
    /// Time steps scanned per pair.
    pub steps: i64,
}

/// A miniature chunked Threat Analysis in simulator IR — the Table 6
/// experiment at cycle level. `n_pairs` pairs are split over `n_chunks`
/// worker streams with the paper's blocking expression; each pair scans
/// `steps` time steps (one window-table load plus compare/advance per
/// step, the benchmark's ~25% memory mix) and counts pairs whose window
/// is non-empty via fetch-add on a shared counter.
///
/// Sweeping `n_chunks` on a fixed machine reproduces, *in the simulator*,
/// the saturation shape of the paper's Table 6 that the analytic model
/// predicts with `min(1, s/L)`.
pub fn chunked_scan_kernel(
    n_pairs: usize,
    steps: i64,
    n_chunks: usize,
) -> (Program, ChunkedScanLayout) {
    let layout = ChunkedScanLayout {
        windows_base: 8192,
        count_addr: 600,
        n_pairs,
        steps,
    };
    let mut a = Assembler::new();
    fanout(&mut a, n_chunks as i64, "work");
    a.label("work");
    // r4 = first pair = id*n/chunks ; r5 = end pair = (id+1)*n/chunks
    a.li(2, n_pairs as i64);
    a.li(3, n_chunks as i64);
    a.mul(4, ID, 2);
    a.div(4, 4, 3);
    a.mov(5, ID);
    a.addi(5, 5, 1);
    a.mul(5, 5, 2);
    a.div(5, 5, 3);
    a.label("pair");
    a.bge_l(4, 5, "done");
    // r6 = &windows[pair]
    a.li(6, layout.windows_base as i64);
    a.add(6, 6, 4);
    a.add(6, 6, 4); // base + 2*pair
    a.li(7, steps); // step counter
    a.li(9, 0); // feasible-step count for this pair
    a.label("step");
    a.load(10, 6, 0); // window start
    a.load(11, 6, 1); // window end
    a.slt(12, 10, 11); // start < end ?
    a.add(9, 9, 12);
    a.addi(7, 7, -1);
    a.bne_l(7, 0, "step");
    // One fetch-add per pair with a non-empty window.
    a.beq_l(9, 0, "next");
    a.li(13, layout.count_addr as i64);
    a.li(14, 1);
    a.fetch_add(15, 13, 0, 14);
    a.label("next");
    a.addi(4, 4, 1);
    a.jmp_l("pair");
    a.label("done");
    a.halt();
    (
        a.assemble().expect("chunked_scan_kernel must assemble"),
        layout,
    )
}

/// Memory layout of [`ray_sweep_kernel`].
#[derive(Debug, Clone, Copy)]
pub struct RaySweepLayout {
    /// Input slopes, row-major `[ray][step]`, f64 bit patterns.
    pub slopes_base: usize,
    /// Output running maxima, same shape.
    pub out_base: usize,
    /// Self-scheduling ray claim counter.
    pub claim_addr: usize,
    /// Number of rays.
    pub n_rays: usize,
    /// Steps per ray.
    pub len: usize,
}

/// A miniature fine-grained Terrain Masking in simulator IR: the masking
/// recurrence decomposed into independent *rays*. Each ray is a serial
/// max-propagation chain (`out[k] = max(out[k-1], slope[k])` — the
/// blocking-slope recurrence); rays are independent and self-scheduled
/// over `n_workers` streams with a one-instruction fetch-add claim.
///
/// The available parallelism equals the ray count, which is what makes
/// this the Table 11 experiment at cycle level: with few rays a second
/// processor buys almost nothing; with hundreds it scales.
pub fn ray_sweep_kernel(n_rays: usize, len: usize, n_workers: usize) -> (Program, RaySweepLayout) {
    let layout = RaySweepLayout {
        slopes_base: 16384,
        out_base: 16384 + n_rays * len,
        claim_addr: 700,
        n_rays,
        len,
    };
    let mut a = Assembler::new();
    fanout(&mut a, n_workers as i64, "work");
    a.label("work");
    a.li(2, layout.claim_addr as i64);
    a.li(3, n_rays as i64);
    a.li(4, 1);
    a.label("claim");
    a.fetch_add(5, 2, 0, 4); // r5 = ray index
    a.bge_l(5, 3, "done");
    // r6 = &slopes[ray][0], r7 = &out[ray][0]
    a.li(9, len as i64);
    a.mul(6, 5, 9);
    a.addi(6, 6, layout.slopes_base as i64);
    a.mul(7, 5, 9);
    a.addi(7, 7, layout.out_base as i64);
    // r10 = running max (start at -inf), r11 = step counter
    a.lif(10, f64::NEG_INFINITY);
    a.li(11, len as i64);
    a.label("step");
    a.load(12, 6, 0); // slope[k]
    a.fmax(10, 10, 12); // running max
    a.store(10, 7, 0); // out[k]
    a.addi(6, 6, 1);
    a.addi(7, 7, 1);
    a.addi(11, 11, -1);
    a.bne_l(11, 0, "step");
    a.jmp_l("claim");
    a.label("done");
    a.halt();
    (
        a.assemble().expect("ray_sweep_kernel must assemble"),
        layout,
    )
}

/// Run `program` on a fresh machine, marking `empties` empty first.
/// Panics on deadlock/fault/timeout — kernels are supposed to finish.
pub fn run_kernel(cfg: MtaConfig, program: Program, empties: &[usize]) -> (Machine, RunResult) {
    let mut m = Machine::new(cfg, program).expect("kernel must validate");
    for &a in empties {
        m.memory_mut().set_empty(a);
    }
    m.spawn(0, 0).expect("spawn main");
    let r = m.run(2_000_000_000);
    assert!(
        r.completed && r.faults.is_empty(),
        "kernel failed: completed={} deadlocked={} faults={:?}",
        r.completed,
        r.deadlocked,
        r.faults
    );
    (m, r)
}

/// Measure machine utilization for a mixed workload of `n_workers`
/// streams (see [`mixed_kernel`]).
pub fn measure_utilization(cfg: MtaConfig, n_workers: usize, iters: i64, alu_per_iter: i64) -> f64 {
    let program = mixed_kernel(n_workers, iters, alu_per_iter, 100_000);
    let (_, r) = run_kernel(cfg, program, &[]);
    r.utilization()
}

/// [`measure_utilization`] for each stream count in `streams`, simulated
/// across `n_threads` host workers.
///
/// Each sweep point is an independent simulation on its own fresh
/// [`Machine`], so the points run concurrently with dynamic
/// self-scheduling (cycle counts grow with the stream count, making the
/// work irregular — the paper's own argument for self-scheduled loops)
/// on sthreads' persistent worker pool, so repeated sweeps reuse parked
/// workers instead of spawning threads.
/// Results are in `streams` order and identical to calling
/// [`measure_utilization`] sequentially: the simulator is deterministic
/// and shares no state between points.
pub fn measure_utilization_sweep(
    cfg: &MtaConfig,
    streams: &[usize],
    iters: i64,
    alu_per_iter: i64,
    n_threads: usize,
) -> Vec<f64> {
    sthreads::par_map(streams.len(), n_threads, |i| {
        measure_utilization(cfg.clone(), streams[i], iters, alu_per_iter)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg1() -> MtaConfig {
        MtaConfig {
            mem_words: 1 << 20,
            ..MtaConfig::tera(1)
        }
    }

    #[test]
    fn vector_add_computes_the_sum() {
        let n = 200;
        let (program, layout) = vector_add_kernel(n, 8);
        let mut m = Machine::new(cfg1(), program).unwrap();
        for i in 0..n {
            m.memory_mut().store_f64(layout.a_base + i, i as f64);
            m.memory_mut().store_f64(layout.b_base + i, 2.0 * i as f64);
        }
        m.spawn(0, 0).unwrap();
        let r = m.run(100_000_000);
        assert!(r.completed, "{r:?}");
        for i in 0..n {
            assert_eq!(
                m.memory().load_f64(layout.c_base + i),
                3.0 * i as f64,
                "c[{i}]"
            );
        }
    }

    #[test]
    fn vector_add_handles_more_workers_than_elements() {
        let n = 5;
        let (program, layout) = vector_add_kernel(n, 16);
        let mut m = Machine::new(cfg1(), program).unwrap();
        for i in 0..n {
            m.memory_mut().store_f64(layout.a_base + i, 1.0);
            m.memory_mut().store_f64(layout.b_base + i, 1.0);
        }
        m.spawn(0, 0).unwrap();
        let r = m.run(100_000_000);
        assert!(r.completed, "{r:?}");
        for i in 0..n {
            assert_eq!(m.memory().load_f64(layout.c_base + i), 2.0);
        }
    }

    #[test]
    fn reduce_kernel_sums_everything_once() {
        let n = 300;
        let (program, layout) = reduce_kernel(n, 16);
        let mut m = Machine::new(cfg1(), program).unwrap();
        for i in 0..n {
            m.memory_mut()
                .store(layout.data_base + i, (i * i % 97) as u64);
        }
        m.spawn(0, 0).unwrap();
        let r = m.run(200_000_000);
        assert!(r.completed, "{r:?}");
        let expected: u64 = (0..n).map(|i| (i * i % 97) as u64).sum();
        assert_eq!(m.memory().load(layout.sum_addr), expected);
        assert!(m.memory().load(layout.claim_addr) >= n as u64);
    }

    #[test]
    fn pipeline_delivers_all_items() {
        let stages = 6;
        let items = 20;
        let (program, layout) = pipeline_kernel(stages, items);
        let empties: Vec<usize> = (0..=stages).map(|k| layout.chan_base + k).collect();
        let (m, r) = run_kernel(cfg1(), program, &empties);
        // Each of the values 0..items gains +1 per stage.
        let expected: i64 = (0..items).map(|v| v + stages as i64).sum();
        assert_eq!(m.memory().load(layout.sink_addr) as i64, expected);
        assert!(r.stats.sync.blocked > 0, "a pipeline must block somewhere");
    }

    #[test]
    fn single_stream_utilization_is_about_five_percent() {
        // §5/§7: 1 instruction per 21 cycles ⇒ ≈4.8% for ALU-dominated
        // code, lower once memory latency bites.
        let u = measure_utilization(cfg1(), 1, 2000, 8);
        assert!(u < 0.06, "single stream must be ≈5%: {u}");
        assert!(u > 0.02, "but not absurdly low: {u}");
    }

    #[test]
    fn utilization_rises_with_streams() {
        let u1 = measure_utilization(cfg1(), 1, 500, 6);
        let u8 = measure_utilization(cfg1(), 8, 500, 6);
        let u32 = measure_utilization(cfg1(), 32, 500, 6);
        let u96 = measure_utilization(cfg1(), 96, 500, 6);
        assert!(u1 < u8 && u8 < u32 && u32 < u96, "{u1} {u8} {u32} {u96}");
        assert!(u96 > 0.85, "96 streams should near-saturate: {u96}");
    }

    #[test]
    fn parallel_sweep_matches_sequential_measurements() {
        let streams = [1usize, 8, 32];
        let sequential: Vec<f64> = streams
            .iter()
            .map(|&s| measure_utilization(cfg1(), s, 300, 6))
            .collect();
        for n_threads in [1usize, 4] {
            let swept = measure_utilization_sweep(&cfg1(), &streams, 300, 6, n_threads);
            assert_eq!(swept, sequential, "n_threads={n_threads}");
        }
    }

    #[test]
    fn memory_heavy_mixes_need_around_eighty_streams() {
        // §7: "80 concurrent threads are typically required to obtain full
        // utilization of a single Tera MTA processor." For a 50%-memory
        // mix, 32 streams must not be enough and ~80 must come close.
        let u32 = measure_utilization(cfg1(), 32, 400, 1);
        let u80 = measure_utilization(cfg1(), 80, 400, 1);
        assert!(
            u32 < 0.90,
            "32 streams must NOT saturate a memory mix: {u32}"
        );
        assert!(
            u80 > 0.80,
            "≈80 streams must get close to saturation: {u80}"
        );
    }

    #[test]
    fn hot_banking_serializes_memory() {
        // stride 64 (= n_banks) hammers one bank; stride 1 spreads. Same
        // instruction counts, very different cycle counts. (Large memory:
        // the strided footprint is 64×200×6×64 words ≈ 5 M.)
        let big = || MtaConfig {
            mem_words: 1 << 23,
            ..MtaConfig::tera(1)
        };
        let (_, cold) = run_kernel(big(), mem_kernel(64, 200, 1, 4096), &[]);
        let (_, hot) = run_kernel(big(), mem_kernel(64, 200, 64, 4096), &[]);
        assert_eq!(cold.stats.instructions(), hot.stats.instructions());
        assert!(
            hot.cycles as f64 > 1.4 * cold.cycles as f64,
            "hot-banking must serialize: hot={} cold={}",
            hot.cycles,
            cold.cycles
        );
        assert!(hot.stats.memory.bank_queue_cycles > cold.stats.memory.bank_queue_cycles);
        // The histogram must tell the same story: the hot run's waits land
        // in the deep buckets, the cold run's almost all in bucket 0.
        let hot_hist = hot.stats.memory.queue_wait_hist;
        assert!(
            hot_hist[3] + hot_hist[4] > 0,
            "hot-banking must produce deep queue waits: {hot_hist:?}"
        );
        assert!(
            hot.stats.memory.queued_fraction() > cold.stats.memory.queued_fraction(),
            "hot={} cold={}",
            hot.stats.memory.queued_fraction(),
            cold.stats.memory.queued_fraction()
        );
    }

    #[test]
    fn two_processors_speed_up_a_wide_alu_kernel() {
        let wide = |procs: usize| {
            let cfg = MtaConfig {
                mem_words: 1 << 20,
                ..MtaConfig::tera(procs)
            };
            let (_, r) = run_kernel(cfg, alu_kernel(128, 300), &[]);
            r.cycles
        };
        let c1 = wide(1);
        let c2 = wide(2);
        let speedup = c1 as f64 / c2 as f64;
        assert!(
            speedup > 1.6 && speedup < 2.1,
            "2-processor speedup out of range: {speedup} ({c1} vs {c2})"
        );
    }

    #[test]
    fn narrow_kernels_do_not_speed_up_on_two_processors() {
        // 4 streams cannot even fill one processor; a second processor
        // helps little. (The germ of the paper's Table 11 observation.)
        let narrow = |procs: usize| {
            let cfg = MtaConfig {
                mem_words: 1 << 20,
                ..MtaConfig::tera(procs)
            };
            let (_, r) = run_kernel(cfg, alu_kernel(4, 2000), &[]);
            r.cycles
        };
        let c1 = narrow(1);
        let c2 = narrow(2);
        let speedup = c1 as f64 / c2 as f64;
        assert!(speedup < 1.2, "narrow kernel must not scale: {speedup}");
    }

    #[test]
    fn chunked_scan_counts_nonempty_windows() {
        let n_pairs = 60;
        let (program, layout) = chunked_scan_kernel(n_pairs, 20, 16);
        let mut m = Machine::new(
            MtaConfig {
                mem_words: 1 << 16,
                ..MtaConfig::tera(1)
            },
            program,
        )
        .unwrap();
        // Pairs with even index get a non-empty window.
        let mut expected = 0u64;
        for p in 0..n_pairs {
            let (s, e) = if p % 2 == 0 { (3u64, 9u64) } else { (5, 5) };
            m.memory_mut().store(layout.windows_base + 2 * p, s);
            m.memory_mut().store(layout.windows_base + 2 * p + 1, e);
            if s < e {
                expected += 1;
            }
        }
        m.spawn(0, 0).unwrap();
        let r = m.run(200_000_000);
        assert!(r.completed, "{r:?}");
        assert_eq!(m.memory().load(layout.count_addr), expected);
    }

    #[test]
    fn chunked_scan_reproduces_the_table6_saturation_shape() {
        // Sweep chunks on a fixed 2-processor machine: times must fall
        // ~linearly while streams are scarce and flatten once the streams
        // per processor cover the mix latency — the Table 6 shape.
        let run = |chunks: usize| {
            let (program, layout) = chunked_scan_kernel(192, 30, chunks);
            let mut m = Machine::new(
                MtaConfig {
                    mem_words: 1 << 16,
                    ..MtaConfig::tera(2)
                },
                program,
            )
            .unwrap();
            for p in 0..layout.n_pairs {
                m.memory_mut().store(layout.windows_base + 2 * p, 1);
                m.memory_mut().store(layout.windows_base + 2 * p + 1, 2);
            }
            m.spawn(0, 0).unwrap();
            let r = m.run(2_000_000_000);
            assert!(r.completed, "{chunks} chunks: {r:?}");
            r.cycles as f64
        };
        let t8 = run(8);
        let t32 = run(32);
        let t128 = run(128);
        // Scarce-stream regime: 4x the chunks ≈ 4x faster.
        let early = t8 / t32;
        assert!((3.0..5.0).contains(&early), "early-regime scaling: {early}");
        // Saturation: going from 32 to 128 chunks gains much less than 4x.
        let late = t32 / t128;
        assert!(late < 2.5, "late-regime scaling must flatten: {late}");
        // Overall dynamic range matches Table 6's ~8.4x (386s -> 46s).
        let overall = t8 / t128;
        assert!((4.0..14.0).contains(&overall), "overall range: {overall}");
    }

    #[test]
    fn ray_sweep_computes_running_maxima() {
        let (n_rays, len) = (12usize, 30usize);
        let (program, layout) = ray_sweep_kernel(n_rays, len, 8);
        let mut m = Machine::new(
            MtaConfig {
                mem_words: 1 << 16,
                ..MtaConfig::tera(1)
            },
            program,
        )
        .unwrap();
        let slope = |r: usize, k: usize| ((r * 31 + k * 17) % 100) as f64 - 50.0;
        for r in 0..n_rays {
            for k in 0..len {
                m.memory_mut()
                    .store_f64(layout.slopes_base + r * len + k, slope(r, k));
            }
        }
        m.spawn(0, 0).unwrap();
        let res = m.run(500_000_000);
        assert!(res.completed, "{res:?}");
        for r in 0..n_rays {
            let mut expect = f64::NEG_INFINITY;
            for k in 0..len {
                expect = expect.max(slope(r, k));
                let got = m.memory().load_f64(layout.out_base + r * len + k);
                assert_eq!(got, expect, "ray {r} step {k}");
            }
        }
    }

    #[test]
    fn ray_width_limits_two_processor_speedup_like_table_11() {
        // Few rays: the second processor is nearly useless. Many rays:
        // near-2x. This is the fine-grained Terrain Masking scaling story
        // measured in the cycle simulator.
        let time = |n_rays: usize, procs: usize| {
            let workers = (2 * n_rays).min(256);
            let (program, layout) = ray_sweep_kernel(n_rays, 40, workers);
            let mut m = Machine::new(
                MtaConfig {
                    mem_words: 1 << 18,
                    ..MtaConfig::tera(procs)
                },
                program,
            )
            .unwrap();
            for i in 0..n_rays * 40 {
                m.memory_mut()
                    .store_f64(layout.slopes_base + i, (i % 7) as f64);
            }
            m.spawn(0, 0).unwrap();
            let r = m.run(2_000_000_000);
            assert!(r.completed);
            r.cycles as f64
        };
        let narrow = time(6, 1) / time(6, 2);
        let wide = time(240, 1) / time(240, 2);
        assert!(narrow < 1.35, "6 rays must not scale to 2 procs: {narrow}");
        assert!(wide > 1.6, "240 rays must scale: {wide}");
    }

    #[test]
    fn saturated_alu_cycles_scale_linearly_with_added_work() {
        // Past saturation (>21 streams of ALU), adding workers adds work
        // but no parallelism: cycles grow ≈ linearly with workers.
        let run = |w: usize| {
            let (_, r) = run_kernel(cfg1(), alu_kernel(w, 300), &[]);
            r.cycles as f64
        };
        let ratio = run(84) / run(42);
        assert!((1.7..2.3).contains(&ratio), "expected ~2x, got {ratio}");
    }
}
