//! The Tera model's two folds against the loops they replace.
//!
//! `TeraModel::phased_issue_cycles` (fine-grained Terrain Masking, Table 11
//! and the §8 outlook) and the chunked fold (Program 2, Tables 5 and 6)
//! must give the same `f64` bits as the straightforward loops below: one
//! term per phase, added in run order; one chunk total per chunk, the
//! nonempty chunks dealt round-robin to processors. Those loops are the
//! oracles, kept verbatim; the properties drive both over random phase
//! lists and per-threat counts (all-zero threats included), chunk counts
//! below, at and above the threat count, and 1 to 65,536 processors. The
//! paper-scale arm is ignored unoptimized; `ci.sh` runs it with
//! `--release`.

use c3i::{ParallelPhase, PhasedProfile, Profile};
use eval_core::{calibrate, Experiments, TeraModel, Workload, WorkloadScale};
use proptest::prelude::*;
use sthreads::OpCounts;

// ── the oracles ─────────────────────────────────────────────────────────

/// Issue-side cycles of a phase list on `n_procs` processors: one term
/// per phase, summed in run order.
fn oracle_phased_issue_cycles(m: &TeraModel, phases: &[ParallelPhase], n_procs: usize) -> f64 {
    let p = n_procs as f64;
    let mut issue_cycles = 0.0f64;
    for ph in phases {
        let instr = ph.ops.instructions() as f64;
        let latency = m.avg_latency(&ph.ops);
        // Streams available per processor for this phase.
        let s = (ph.width as f64 / p)
            .min(m.streams_per_processor as f64)
            .max(1.0);
        let per_proc_instr = instr / p;
        issue_cycles += per_proc_instr.max(per_proc_instr * latency / s);
    }
    issue_cycles
}

fn oracle_phased_task_count(phases: &[ParallelPhase]) -> f64 {
    phases.iter().map(|ph| ph.width as f64).sum()
}

fn oracle_phased_seconds(
    m: &TeraModel,
    serial: &OpCounts,
    phases: &[ParallelPhase],
    n_procs: usize,
    scale: f64,
) -> f64 {
    let serial_cycles = m.serial_cycles_of(serial);
    let issue_cycles = oracle_phased_issue_cycles(m, phases, n_procs);
    let spawn_cycles = oracle_phased_task_count(phases) * m.spawn_cycles_per_task;
    let total = phases.iter().fold(*serial, |acc, p| acc.merged(&p.ops));
    let mem_cycles = total.mem_ops() as f64 / m.network_words_per_cycle;
    let cycles = serial_cycles + (issue_cycles / m.eta(n_procs) + spawn_cycles).max(mem_cycles);
    scale * cycles / (m.clock_mhz * 1e6)
}

/// Issue-side makespan of a chunked region: chunks spread round-robin,
/// each processor's utilization `min(1, s/L)` with `s` resident streams.
fn oracle_chunked_issue_cycles(m: &TeraModel, profile: &Profile, n_procs: usize) -> f64 {
    let mut per_proc: Vec<Vec<&OpCounts>> = vec![Vec::new(); n_procs];
    for (i, ops) in profile.parallel.per_thread().iter().enumerate() {
        // Empty chunks (possible when chunks outnumber threats) halt
        // immediately and contribute no resident stream.
        if ops.instructions() > 0 {
            per_proc[i % n_procs].push(ops);
        }
    }
    let mut issue_makespan = 0.0f64;
    for chunks in &per_proc {
        if chunks.is_empty() {
            continue;
        }
        let total: OpCounts = chunks.iter().map(|c| **c).sum();
        let instr = total.instructions() as f64;
        let latency = m.avg_latency(&total);
        let s = chunks.len().min(m.streams_per_processor) as f64;
        let cycles = instr.max(instr * latency / s);
        issue_makespan = issue_makespan.max(cycles);
    }
    issue_makespan
}

fn oracle_chunked_seconds(m: &TeraModel, profile: &Profile, n_procs: usize, scale: f64) -> f64 {
    let serial_cycles = m.serial_cycles_of(&profile.serial);
    let issue_makespan = oracle_chunked_issue_cycles(m, profile, n_procs);
    let mem_cycles = profile.parallel.total().mem_ops() as f64 / m.network_words_per_cycle;
    let cycles = serial_cycles + (issue_makespan / m.eta(n_procs)).max(mem_cycles);
    scale * cycles / (m.clock_mhz * 1e6)
}

// ── the production folds, on the oracles' inputs ────────────────────────

fn phased_profile(serial: OpCounts, phases: &[ParallelPhase]) -> PhasedProfile {
    PhasedProfile::new(serial, phases.iter().copied())
}

/// A workload holding one Threat Analysis scenario, so that Program 2's
/// chunk assembly (`Workload::ta_chunked`) builds the oracle's profile.
fn one_scenario(per_threat: &[OpCounts]) -> Workload {
    Workload {
        scale: WorkloadScale::Reduced,
        ta_per_threat: vec![per_threat.to_vec()],
        ta_seq: Vec::new(),
        tm_per_threat: Vec::new(),
        tm_seq: Vec::new(),
        tm_fine: Vec::new(),
        tm_serial: Vec::new(),
    }
}

fn chunked_profile(per_threat: &[OpCounts], n_chunks: usize) -> Profile {
    one_scenario(per_threat)
        .ta_chunked(n_chunks)
        .next()
        .unwrap()
}

/// `(issue cycles, seconds)` of the production chunked fold.
fn chunked(
    m: &TeraModel,
    per_threat: &[OpCounts],
    n_chunks: usize,
    n_procs: usize,
    scale: f64,
) -> (f64, f64) {
    let prologue = chunked_profile(per_threat, n_chunks).serial;
    (
        m.chunked_issue_cycles(per_threat, n_chunks, n_procs),
        m.chunked_seconds(&prologue, per_threat, n_chunks, n_procs, scale),
    )
}

/// The oracle's `(issue cycles, seconds)` for the same inputs.
fn chunked_oracle(
    m: &TeraModel,
    per_threat: &[OpCounts],
    n_chunks: usize,
    n_procs: usize,
    scale: f64,
) -> (f64, f64) {
    let profile = chunked_profile(per_threat, n_chunks);
    (
        oracle_chunked_issue_cycles(m, &profile, n_procs),
        oracle_chunked_seconds(m, &profile, n_procs, scale),
    )
}

// ── inputs ──────────────────────────────────────────────────────────────

fn tera() -> TeraModel {
    TeraModel {
        clock_mhz: 255.0,
        issue_latency: 21.0,
        mem_latency: 70.0,
        streams_per_processor: 128,
        eta2: 0.87,
        network_words_per_cycle: 0.8,
        spawn_cycles_per_task: 23.5,
    }
}

/// One field of an operation count: zero a quarter of the time, so mixes
/// with no memory (or no compute) traffic occur.
fn field() -> impl Strategy<Value = u64> {
    (0u32..4, 1u64..1 << 20).prop_map(|(z, v)| if z == 0 { 0 } else { v })
}

fn op_counts() -> impl Strategy<Value = OpCounts> {
    (
        (field(), field(), field(), field()),
        (field(), field(), field(), field()),
    )
        .prop_map(
            |(
                (int_ops, loads, fp_ops, stores),
                (stream_loads, stream_stores, sync_ops, spawns),
            )| {
                OpCounts {
                    int_ops,
                    loads,
                    fp_ops,
                    stores,
                    stream_loads,
                    stream_stores,
                    sync_ops,
                    spawns,
                }
            },
        )
}

/// A threat's counts: all zero one time in five (a chunk made only of
/// such threats halts at once and holds no stream).
fn threat_counts() -> impl Strategy<Value = OpCounts> {
    (0u32..5, op_counts()).prop_map(|(z, ops)| if z == 0 { OpCounts::default() } else { ops })
}

/// A phase list drawn from a small palette of shapes, so that shapes
/// repeat as the rings of equal threats do; widths include 0 (a fully
/// clipped ring) and stay below 2^32, so the task count is exact.
fn phase_list() -> impl Strategy<Value = Vec<ParallelPhase>> {
    let shape = (0u32..6, 1u64..1 << 32, op_counts()).prop_map(|(z, w, ops)| ParallelPhase {
        width: if z == 0 { 0 } else { w },
        ops,
    });
    (
        proptest::collection::vec(shape, 1..12),
        proptest::collection::vec(0usize..1 << 16, 0..200),
    )
        .prop_map(|(palette, picks)| {
            picks
                .into_iter()
                .map(|i| palette[i % palette.len()])
                .collect()
        })
}

/// 1 to 65,536 processors, the edges included.
fn n_procs() -> impl Strategy<Value = usize> {
    (0u32..4, 1usize..=65_536).prop_map(|(edge, p)| match edge {
        0 => [1, 2, 3, 128, 1024, 65_536][p % 6],
        _ => p,
    })
}

/// A chunk count relative to `n` threats: below, equal, above, or
/// Table 6's service maximum.
fn n_chunks(n: usize) -> impl Strategy<Value = usize> {
    (0u32..5, 1usize..4096).prop_map(move |(kind, c)| match kind {
        0 => 1 + c % n.max(1),
        1 => n.max(1),
        2 => n + 1 + c,
        3 => 100_000,
        _ => c,
    })
}

fn bits(x: (f64, f64)) -> (u64, u64) {
    (x.0.to_bits(), x.1.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn phased_fold_equals_the_oracle(
        phases in phase_list(),
        serial in op_counts(),
        n_procs in n_procs(),
    ) {
        let m = tera();
        let profile = phased_profile(serial, &phases);
        prop_assert_eq!(
            m.phased_issue_cycles(&profile, n_procs).to_bits(),
            oracle_phased_issue_cycles(&m, &phases, n_procs).to_bits()
        );
        // `==`, not bits: an empty list's f64 sum is -0.0, the integer
        // count's +0.0; the seconds below are equal to the bit either way.
        prop_assert_eq!(
            TeraModel::phased_task_count(&profile),
            oracle_phased_task_count(&phases)
        );
        prop_assert_eq!(
            profile.total(),
            phases.iter().fold(serial, |acc, p| acc.merged(&p.ops))
        );
        prop_assert_eq!(
            m.phased_seconds(&profile, n_procs, 1.7).to_bits(),
            oracle_phased_seconds(&m, &serial, &phases, n_procs, 1.7).to_bits()
        );
    }

    #[test]
    fn chunked_fold_equals_the_oracle(
        (per_threat, n_chunks) in (0usize..300).prop_flat_map(|n| {
            (proptest::collection::vec(threat_counts(), n), n_chunks(n))
        }),
        n_procs in n_procs(),
    ) {
        let m = tera();
        prop_assert_eq!(
            bits(chunked(&m, &per_threat, n_chunks, n_procs, 0.9)),
            bits(chunked_oracle(&m, &per_threat, n_chunks, n_procs, 0.9))
        );
    }
}

/// The two entry points the tables read, against the oracles summed
/// over the scenarios in order.
fn assert_experiments_equal_the_oracles(e: &Experiments, procs: &[usize], chunks: &[usize]) {
    let (w, cal) = (&e.workload, &e.cal);
    for &p in procs {
        let oracle: f64 = w
            .tm_fine
            .iter()
            .map(|f| {
                let phases: Vec<ParallelPhase> = f.phases().collect();
                oracle_phased_seconds(&cal.tera, &f.serial, &phases, p, cal.s_tm)
            })
            .sum();
        assert_eq!(e.tm_tera(p).to_bits(), oracle.to_bits(), "tm_tera({p})");
    }
    for &c in chunks {
        for &p in procs {
            let oracle: f64 = w
                .ta_chunked(c)
                .map(|profile| oracle_chunked_seconds(&cal.tera, &profile, p, cal.s_ta))
                .sum();
            assert_eq!(
                e.ta_tera(c, p).to_bits(),
                oracle.to_bits(),
                "ta_tera({c}, {p})"
            );
        }
    }
}

#[test]
fn reduced_scale_entry_points_equal_the_oracles() {
    let e = Experiments::new(Workload::build(WorkloadScale::Reduced));
    assert_experiments_equal_the_oracles(&e, &[1, 2, 3, 64, 1024], &[1, 256, 1000, 1001]);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "paper scale: run with --release")]
fn paper_scale_entry_points_equal_the_oracles() {
    let w = Workload::build(WorkloadScale::Paper);
    let cal = calibrate(&w);
    let e = Experiments { workload: w, cal };
    let procs: Vec<usize> = (1..=1024).collect();
    assert_experiments_equal_the_oracles(&e, &procs, &[]);
    assert_experiments_equal_the_oracles(
        &e,
        &[1, 2, 3, 4, 16, 128, 999, 1000, 1001, 1024, 4096, 65_536],
        &[1, 2, 7, 256, 999, 1000, 1001, 4096, 100_000],
    );
}
