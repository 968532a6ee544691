//! Analytic machine models: operation profiles → predicted seconds.
//!
//! Two model families cover the four platforms of Table 1:
//!
//! * [`ConventionalModel`] — cache-based uniprocessors and SMPs (Alpha,
//!   Pentium Pro, Exemplar). Cache-resident operations cost
//!   `resident_cost` cycles each; streaming operations cost `stream_cost`
//!   cycles (amortized miss service); all misses cross a shared
//!   interconnect with finite bandwidth, which caps memory-bound speedup
//!   (the mechanism `smp-sim` demonstrates in its bus-saturation tests);
//!   OS threads cost tens of thousands of cycles to create and hundreds
//!   per synchronization (§7 of the paper).
//!
//! * [`TeraModel`] — the MTA. No cache: every memory operation costs the
//!   full `mem_latency`; every instruction occupies its stream for
//!   `issue_latency` = 21 cycles; a processor issues at most one
//!   instruction per cycle from its ready streams, so utilization with
//!   `s` streams of average instruction latency `L` is `min(1, s/L)` —
//!   the mechanism `mta-sim` demonstrates with its utilization-curve
//!   tests. Thread creation costs a few cycles, synchronization is one
//!   memory operation.

use c3i::{OpCounts, PhasedProfile, Profile};
use sthreads::chunk_range;

/// A cache-based conventional platform.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ConventionalModel {
    /// Platform name as in Table 1.
    pub name: String,
    /// Clock rate (MHz).
    pub clock_mhz: f64,
    /// Processors available.
    pub n_processors: usize,
    /// Cycles per cache-resident operation (int, fp, resident load/store).
    pub resident_cost: f64,
    /// Cycles per streaming memory operation (amortized line-miss cost).
    pub stream_cost: f64,
    /// Cycles per synchronization operation (lock/unlock, atomic).
    pub sync_cost: f64,
    /// Cycles per OS thread creation.
    pub spawn_cost: f64,
    /// Shared-interconnect cycles consumed per streaming operation (every
    /// miss crosses the bus; this bounds aggregate memory throughput).
    pub bus_cost_per_stream_op: f64,
}

impl ConventionalModel {
    /// CPU cycles to execute the *workload-proportional* part of `ops` on
    /// one processor (everything except thread creation — spawn counts are
    /// configuration constants, not workload, so the calibration's
    /// workload-size factor must not multiply them).
    pub fn cpu_cycles(&self, ops: &OpCounts) -> f64 {
        let resident = (ops.int_ops + ops.fp_ops + ops.loads + ops.stores) as f64;
        resident * self.resident_cost
            + ops.stream_ops() as f64 * self.stream_cost
            + ops.sync_ops as f64 * self.sync_cost
    }

    /// Unscaled overhead cycles (OS thread creation).
    pub fn overhead_cycles(&self, ops: &OpCounts) -> f64 {
        ops.spawns as f64 * self.spawn_cost
    }

    /// Seconds for a sequential run of `profile`, scaled by the workload
    /// factor `scale` (see `calibrate`).
    pub fn seq_seconds(&self, profile: &Profile, scale: f64) -> f64 {
        let total = profile.total();
        (scale * self.cpu_cycles(&total) + self.overhead_cycles(&total)) / (self.clock_mhz * 1e6)
    }

    /// Seconds for a parallel run: logical threads of the profile's
    /// region are assigned round-robin to `n_procs` processors; the
    /// critical path is the most-loaded processor, and aggregate
    /// streaming traffic cannot exceed the interconnect's bandwidth.
    pub fn parallel_seconds(&self, profile: &Profile, n_procs: usize, scale: f64) -> f64 {
        assert!(
            n_procs >= 1 && n_procs <= self.n_processors,
            "{} has {} processors",
            self.name,
            self.n_processors
        );
        let serial =
            scale * self.cpu_cycles(&profile.serial) + self.overhead_cycles(&profile.total());
        let per_worker = self.worker_cycles(profile, n_procs);
        let makespan = per_worker.iter().copied().fold(0.0f64, f64::max);
        let total_stream: f64 = profile.parallel.iter().map(|c| c.stream_ops() as f64).sum();
        let bus = total_stream * self.bus_cost_per_stream_op;
        let cycles = serial + scale * makespan.max(bus);
        cycles / (self.clock_mhz * 1e6)
    }

    /// Per-processor CPU cycles after round-robin assignment of logical
    /// threads.
    fn worker_cycles(&self, profile: &Profile, n_procs: usize) -> Vec<f64> {
        let mut w = vec![0.0f64; n_procs];
        for (i, ops) in profile.parallel.iter().enumerate() {
            w[i % n_procs] += self.cpu_cycles(ops);
        }
        w
    }
}

/// The Tera MTA analytic model.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TeraModel {
    /// Clock rate (MHz): 255.
    pub clock_mhz: f64,
    /// Pipeline depth: cycles between issues of one stream (21).
    pub issue_latency: f64,
    /// Memory-operation latency (cycles, uncontended): ≈70.
    pub mem_latency: f64,
    /// Hardware stream contexts per processor: 128.
    pub streams_per_processor: usize,
    /// Network efficiency at 2 processors (the paper's
    /// "development status of the current Tera MTA network"); 1.0 at one
    /// processor. Calibrated from Table 5's 2-processor row.
    pub eta2: f64,
    /// Aggregate memory words per cycle the prototype network sustains
    /// (bandwidth ceiling for memory-bound code). Calibrated from
    /// Table 11's 2-processor row.
    pub network_words_per_cycle: f64,
    /// Serial spawn cycles per fine-grained task (future creation —
    /// §2 lists 50–100 cycles per software thread; the fork instruction
    /// itself also occupies the spawning stream). Calibrated from
    /// Table 11's 1-processor row.
    pub spawn_cycles_per_task: f64,
}

impl TeraModel {
    /// Mean instruction latency (cycles) of an operation mix: compute ops
    /// hold a stream for the pipeline depth; every memory or
    /// synchronization operation holds it for the full memory latency
    /// (no cache to hide it).
    pub fn avg_latency(&self, ops: &OpCounts) -> f64 {
        let n = ops.instructions();
        if n == 0 {
            return self.issue_latency;
        }
        let mem = (ops.mem_ops() + ops.spawns) as f64;
        let compute = n as f64 - mem;
        (compute * self.issue_latency + mem * self.mem_latency) / n as f64
    }

    /// Seconds for a single-threaded run: one stream, every instruction
    /// waits out its own latency (the paper's "one instruction every 21
    /// cycles", worse when memory-bound).
    pub fn seq_seconds(&self, profile: &Profile, scale: f64) -> f64 {
        let ops = profile.total();
        let cycles = ops.instructions() as f64 * self.avg_latency(&ops);
        scale * cycles / (self.clock_mhz * 1e6)
    }

    /// Network efficiency at `n_procs` (interpolating the calibrated
    /// 2-processor point; the paper never ran more).
    pub fn eta(&self, n_procs: usize) -> f64 {
        if n_procs <= 1 {
            1.0
        } else {
            self.eta2
        }
    }

    /// Cycles a single stream needs for `ops` (serial-phase cost).
    pub fn serial_cycles_of(&self, ops: &OpCounts) -> f64 {
        ops.instructions() as f64 * self.avg_latency(ops)
    }

    /// Issue-side makespan (cycles, before network efficiency) of the
    /// chunked program's region: `per_threat` blocked into `n_chunks`
    /// chunks by [`chunk_range`], the chunks spread round-robin over
    /// `n_procs` processors; each processor's utilization is `min(1, s/L)`
    /// with `s` resident streams. Zero chunks or zero processors never
    /// finish the work: `f64::INFINITY`.
    pub fn chunked_issue_cycles(
        &self,
        per_threat: &[OpCounts],
        n_chunks: usize,
        n_procs: usize,
    ) -> f64 {
        self.chunked_pass(per_threat, n_chunks, n_procs).0
    }

    /// Network-bandwidth-bound cycles of a region's `mem_ops` memory
    /// operations.
    pub fn mem_cycles(&self, mem_ops: u64) -> f64 {
        mem_ops as f64 / self.network_words_per_cycle
    }

    /// Seconds for the chunked program: `serial` work on one stream, then
    /// `per_threat` in `n_chunks` chunks (logical threads) spread
    /// round-robin over processors; each processor's utilization is
    /// `min(1, s/L)` with `s` resident streams; aggregate memory traffic
    /// is capped by the network. Zero chunks or zero processors never
    /// finish the work: `f64::INFINITY`.
    pub fn chunked_seconds(
        &self,
        serial: &OpCounts,
        per_threat: &[OpCounts],
        n_chunks: usize,
        n_procs: usize,
        scale: f64,
    ) -> f64 {
        let serial_cycles = self.serial_cycles_of(serial);
        let (issue_makespan, mem_ops) = self.chunked_pass(per_threat, n_chunks, n_procs);
        let mem_cycles = self.mem_cycles(mem_ops);
        let cycles = serial_cycles + (issue_makespan / self.eta(n_procs)).max(mem_cycles);
        scale * cycles / (self.clock_mhz * 1e6)
    }

    /// One pass over the chunks of [`Self::chunked_issue_cycles`]: the
    /// issue-side makespan and the region's memory operations. An empty
    /// chunk (possible when chunks outnumber threats, or when its threats
    /// count nothing) halts immediately and contributes no resident
    /// stream, so only the nonempty chunks are visited, each added into
    /// its processor's total.
    fn chunked_pass(&self, per_threat: &[OpCounts], n_chunks: usize, n_procs: usize) -> (f64, u64) {
        if n_chunks == 0 || n_procs == 0 {
            return (f64::INFINITY, 0);
        }
        let n = per_threat.len();
        // Per processor: the total of its chunks and their number.
        let mut procs = vec![(OpCounts::default(), 0usize); n_procs.min(n_chunks)];
        let mut deal = |chunk: usize, ops: OpCounts| {
            if ops.instructions() > 0 {
                let (total, streams) = &mut procs[chunk % n_procs];
                total.add(&ops);
                *streams += 1;
            }
        };
        if n_chunks <= n {
            // Every chunk holds a threat.
            for c in 0..n_chunks {
                let chunk = &per_threat[chunk_range(c, n, n_chunks)];
                deal(c, chunk.iter().copied().sum());
            }
        } else {
            // Chunks outnumber threats, so a nonempty chunk holds exactly
            // one: threat `i` is the whole of the least chunk `c` with
            // `(c + 1) * n / n_chunks > i`.
            for (i, &ops) in per_threat.iter().enumerate() {
                deal(((i + 1) * n_chunks - 1) / n, ops);
            }
        }
        let makespan = procs
            .iter()
            .filter(|&&(_, streams)| streams > 0)
            .map(|(total, streams)| {
                let instr = total.instructions() as f64;
                let latency = self.avg_latency(total);
                let s = (*streams).min(self.streams_per_processor) as f64;
                // Issue-limited (s >= L) or latency-limited (s < L):
                // cycles = max(instr, instr*L/s).
                instr.max(instr * latency / s)
            })
            .fold(0.0f64, f64::max);
        // An empty chunk counts nothing, so the processors hold it all.
        let mem_ops = procs.iter().map(|(total, _)| total.mem_ops()).sum();
        (makespan, mem_ops)
    }

    /// Seconds for a fine-grained (inner-loop) program: a sequence of
    /// barrier-separated phases. Each phase's concurrency is its width;
    /// each task spawn costs `spawn_cycles_per_task` on the *sequential
    /// outer thread* (the fine Terrain Masking program keeps the threat
    /// loop serial and creates futures from it, so spawning does not
    /// parallelize — this is what limits its 2-processor speedup to the
    /// paper's 1.4×); memory traffic is network-capped. See
    /// [`Self::phased_issue_cycles`] for zero processors.
    pub fn phased_seconds(&self, profile: &PhasedProfile, n_procs: usize, scale: f64) -> f64 {
        let serial_cycles = self.serial_cycles_of(&profile.serial);
        let (issue_cycles, runs) = self.phased_pass(profile, n_procs);
        // Exact integer sums: each distinct phase times its runs.
        let (mut tasks, mut mem_ops) = (0u64, profile.serial.mem_ops());
        for (ph, &k) in profile.distinct().iter().zip(&runs) {
            tasks += ph.width * k;
            mem_ops += ph.ops.mem_ops() * k;
        }
        let spawn_cycles = tasks as f64 * self.spawn_cycles_per_task;
        let mem_cycles = self.mem_cycles(mem_ops);
        let cycles =
            serial_cycles + (issue_cycles / self.eta(n_procs) + spawn_cycles).max(mem_cycles);
        scale * cycles / (self.clock_mhz * 1e6)
    }

    /// Issue-side cycles (before network efficiency, excluding spawn
    /// overhead) of a phased profile on `n_procs` processors. Zero
    /// processors never finish the work: `f64::INFINITY`.
    pub fn phased_issue_cycles(&self, profile: &PhasedProfile, n_procs: usize) -> f64 {
        self.phased_pass(profile, n_procs).0
    }

    /// One pass over a phased profile's run order: the issue-side cycles
    /// on `n_procs` processors — one term per distinct phase, the terms
    /// added in run order, so the sum is the same `f64`, to the bit, as
    /// a term per phase — and how many times each distinct phase runs.
    fn phased_pass(&self, profile: &PhasedProfile, n_procs: usize) -> (f64, Vec<u64>) {
        if n_procs == 0 {
            return (f64::INFINITY, Vec::new());
        }
        let p = n_procs as f64;
        let terms: Vec<f64> = profile
            .distinct()
            .iter()
            .map(|ph| {
                let instr = ph.ops.instructions() as f64;
                let latency = self.avg_latency(&ph.ops);
                // Streams available per processor for this phase.
                let s = (ph.width as f64 / p)
                    .min(self.streams_per_processor as f64)
                    .max(1.0);
                let per_proc_instr = instr / p;
                per_proc_instr.max(per_proc_instr * latency / s)
            })
            .collect();
        let mut runs = vec![0u64; terms.len()];
        let mut issue_cycles = 0.0f64;
        for &i in profile.order() {
            issue_cycles += terms[i as usize];
            runs[i as usize] += 1;
        }
        (issue_cycles, runs)
    }

    /// Total fine-grained tasks (futures) a phased profile spawns.
    pub fn phased_task_count(profile: &PhasedProfile) -> f64 {
        profile.phases().map(|ph| ph.width).sum::<u64>() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c3i::ParallelPhase;

    fn ops(compute: u64, stream: u64) -> OpCounts {
        OpCounts {
            int_ops: compute,
            stream_loads: stream,
            ..OpCounts::default()
        }
    }

    fn conv() -> ConventionalModel {
        ConventionalModel {
            name: "test".into(),
            clock_mhz: 100.0,
            n_processors: 8,
            resident_cost: 1.0,
            stream_cost: 10.0,
            sync_cost: 100.0,
            spawn_cost: 10_000.0,
            bus_cost_per_stream_op: 4.0,
        }
    }

    fn tera() -> TeraModel {
        TeraModel {
            clock_mhz: 255.0,
            issue_latency: 21.0,
            mem_latency: 70.0,
            streams_per_processor: 128,
            eta2: 0.9,
            network_words_per_cycle: 0.8,
            spawn_cycles_per_task: 20.0,
        }
    }

    #[test]
    fn conventional_seq_time_is_cycle_sum_over_clock() {
        let p = Profile::sequential(OpCounts::default(), ops(1_000_000, 0));
        let t = conv().seq_seconds(&p, 1.0);
        assert!((t - 0.01).abs() < 1e-9, "{t}");
    }

    #[test]
    fn conventional_compute_bound_scales_linearly() {
        let m = conv();
        let p = Profile {
            serial: OpCounts::default(),
            parallel: vec![ops(1_000_000, 0); 8],
        };
        let t1 = m.parallel_seconds(&p, 1, 1.0);
        let t8 = m.parallel_seconds(&p, 8, 1.0);
        assert!((t1 / t8 - 8.0).abs() < 0.01, "speedup {}", t1 / t8);
    }

    #[test]
    fn conventional_memory_bound_hits_the_bus_ceiling() {
        let m = conv();
        // Stream-dominated: per-thread 100k stream ops at cost 10 = 1M
        // CPU cycles; bus cost 4 × 800k total = 3.2M cycles.
        let p = Profile {
            serial: OpCounts::default(),
            parallel: vec![ops(0, 100_000); 8],
        };
        let t1 = m.parallel_seconds(&p, 1, 1.0);
        let t8 = m.parallel_seconds(&p, 8, 1.0);
        let speedup = t1 / t8;
        assert!(
            speedup < 3.0,
            "bus must cap memory-bound speedup: {speedup}"
        );
    }

    #[test]
    fn conventional_imbalance_lengthens_makespan() {
        let m = conv();
        let balanced = Profile {
            serial: OpCounts::default(),
            parallel: vec![ops(100, 0); 4],
        };
        let mut threads = vec![ops(10, 0); 3];
        threads.push(ops(370, 0));
        let skewed = Profile {
            serial: OpCounts::default(),
            parallel: threads,
        };
        // Same total work; the skewed decomposition must be slower on 4.
        assert!(m.parallel_seconds(&skewed, 4, 1.0) > 2.0 * m.parallel_seconds(&balanced, 4, 1.0));
    }

    /// The chunked program with one chunk per entry of `per_threat` and
    /// no serial work.
    fn tera_chunked(m: &TeraModel, per_threat: &[OpCounts], n_procs: usize) -> f64 {
        let none = OpCounts::default();
        m.chunked_seconds(&none, per_threat, per_threat.len(), n_procs, 1.0)
    }

    #[test]
    fn tera_single_stream_pays_full_latency() {
        let m = tera();
        // Pure compute: 1 instr / 21 cycles.
        let p = Profile::sequential(OpCounts::default(), ops(1_000_000, 0));
        let t = m.seq_seconds(&p, 1.0);
        assert!((t - 21e6 / 255e6).abs() < 1e-9);
        // Memory-heavy sequential code is even slower per instruction.
        let pm = Profile::sequential(OpCounts::default(), ops(500_000, 500_000));
        assert!(m.seq_seconds(&pm, 1.0) > t);
    }

    #[test]
    fn tera_needs_many_chunks_to_saturate() {
        let m = tera();
        // A 50% memory mix: L = (21 + 70)/2 = 45.5, so saturation needs
        // ≈46 streams — the Table 6 regime.
        let mk = |chunks: usize| {
            let each = 5_000_000 / chunks as u64;
            tera_chunked(&m, &vec![ops(each, each); chunks], 1)
        };
        let (t4, t32, t128) = (mk(4), mk(32), mk(128));
        assert!(
            t4 > 4.0 * t32,
            "4 chunks must be far from saturation: {t4} vs {t32}"
        );
        assert!(
            t32 > 1.2 * t128,
            "32 streams cannot cover L=45.5: {t32} vs {t128}"
        );
        // At 128 chunks utilization is 1: issue time = instr/clock.
        assert!((t128 - 10e6 / 255e6).abs() / t128 < 0.01, "{t128}");
    }

    #[test]
    fn tera_seq_to_saturated_ratio_is_avg_latency() {
        // The paper's 32× (§5): seq/saturated == L for the mix.
        let m = tera();
        let mix = ops(770_000, 230_000);
        let seq = m.seq_seconds(&Profile::sequential(OpCounts::default(), mix), 1.0);
        let chunks = 256;
        let per = OpCounts {
            int_ops: mix.int_ops / chunks,
            stream_loads: mix.stream_loads / chunks,
            ..OpCounts::default()
        };
        let sat = tera_chunked(&m, &vec![per; chunks as usize], 1);
        let ratio = seq / sat;
        let expected_l = m.avg_latency(&mix);
        assert!(
            (ratio - expected_l).abs() / expected_l < 0.05,
            "{ratio} vs {expected_l}"
        );
    }

    #[test]
    fn tera_two_processors_apply_network_efficiency() {
        let m = tera();
        let par = vec![ops(100_000, 0); 256];
        let t1 = tera_chunked(&m, &par, 1);
        let t2 = tera_chunked(&m, &par, 2);
        let speedup = t1 / t2;
        assert!((speedup - 2.0 * m.eta2).abs() < 0.05, "{speedup}");
    }

    #[test]
    fn tera_memory_bound_work_hits_the_network_ceiling() {
        let m = tera();
        let par = vec![ops(1_000, 99_000); 256];
        let t1 = tera_chunked(&m, &par, 1);
        let t2 = tera_chunked(&m, &par, 2);
        assert!(
            t1 / t2 < 1.1,
            "network-capped work must not scale: {}",
            t1 / t2
        );
    }

    #[test]
    fn phased_narrow_rings_limit_utilization() {
        let m = tera();
        let wide = PhasedProfile::new(
            OpCounts::default(),
            [ParallelPhase {
                width: 1000,
                ops: ops(1_000_000, 0),
            }],
        );
        let narrow = PhasedProfile::new(
            OpCounts::default(),
            (0..100).map(|_| ParallelPhase {
                width: 10,
                ops: ops(10_000, 0),
            }),
        );
        // Same total instructions, same spawn totals — narrow phases must
        // be slower because 10 streams cannot cover L = 21.
        let tw = m.phased_seconds(&wide, 1, 1.0);
        let tn = m.phased_seconds(&narrow, 1, 1.0);
        assert!(tn > 1.5 * tw, "narrow {tn} vs wide {tw}");
    }

    #[test]
    fn phased_spawn_overhead_scales_with_width() {
        let m = tera();
        let phase = |width| ParallelPhase {
            width,
            ops: ops(1_000_000, 0),
        };
        let few_tasks = PhasedProfile::new(OpCounts::default(), [phase(128)]);
        let many_tasks = PhasedProfile::new(OpCounts::default(), [phase(1_000_000)]);
        assert!(m.phased_seconds(&many_tasks, 1, 1.0) > m.phased_seconds(&few_tasks, 1, 1.0));
    }

    #[test]
    fn scale_factor_is_linear() {
        let m = conv();
        let p = Profile::sequential(OpCounts::default(), ops(1000, 100));
        assert!((m.seq_seconds(&p, 2.0) - 2.0 * m.seq_seconds(&p, 1.0)).abs() < 1e-12);
    }
}
