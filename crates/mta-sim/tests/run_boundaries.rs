//! The boundaries of `Machine::run`'s loop, pinned.
//!
//! `pinned_digests.rs` holds whole runs; this file holds what a rebuild of
//! the *loop* can move without changing any of them: the cycle a timeout,
//! a completion or a deadlock is reported at, a run cut in two at any
//! cycle, the fast-forward taking the minimum over processors, and
//! configurations whose zero latencies schedule a stream for a cycle that
//! has already been reached. The pinned figures were recorded with the
//! scheduler as a binary heap and the fast-forward as its own loop
//! iteration; every test here passed unedited on that code.

use mta_sim::asm_text::assemble_text;
use mta_sim::kernels::{alu_kernel, mem_kernel, mixed_kernel, pipeline_kernel};
use mta_sim::{Machine, MtaConfig, Program, RunResult};

/// A budget no run here reaches.
const MAX: u64 = 50_000_000;

/// Tera parameters with a memory just large enough for every kernel here.
fn cfg(n_processors: usize) -> MtaConfig {
    MtaConfig {
        mem_words: 1 << 13,
        ..MtaConfig::tera(n_processors)
    }
}

/// A machine with `empties` set empty and the main stream spawned.
fn machine(cfg: &MtaConfig, program: &Program, empties: &[usize]) -> Machine {
    let mut m = Machine::new(cfg.clone(), program.clone()).expect("machine must validate");
    for &a in empties {
        m.memory_mut().set_empty(a);
    }
    m.spawn(0, 0).expect("spawn main stream");
    m
}

/// Everything a `RunResult` holds, folded to three numbers: cycles and
/// instructions readable in a failure, and FNV-1a over the `Debug`
/// rendering for the rest (every field is an integer, a flag or a string).
fn fingerprint(r: &RunResult) -> (u64, u64, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{r:?}").bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (r.cycles, r.stats.instructions(), h)
}

/// Four workers, placed round-robin over the processors, each take from
/// their own word (1000 + id) that stays empty: every stream ends parked.
fn all_park() -> Program {
    assemble_text(
        "       li r2, 0
                li r3, 4
        spawn:  bge r2, r3, spawned
                fork work, r2
                addi r2, r2, 1
                jmp spawn
        spawned:
                halt
        work:   li r4, 1000
                add r4, r4, r1
                loadsync r5, 0(r4)
                halt",
    )
    .expect("program assembles")
}

/// Four consumers park on one empty word; main delays, then publishes four
/// values: every publish wakes all parked consumers, one takes the word
/// and the others re-park. Forks, wakes and reparks in one program.
fn consumers_race() -> Program {
    assemble_text(
        "       li r2, 0
                li r3, 4
        spawn:  bge r2, r3, spawned
                fork consume, r2
                addi r2, r2, 1
                jmp spawn
        spawned:
                li r7, 30
        delay:  addi r7, r7, -1
                bne r7, r0, delay
                li r1, 4
                li r3, 1000
        produce:
                storesync r0, 0(r3)
                addi r1, r1, -1
                bne r1, r0, produce
                halt
        consume:
                li r3, 1000
                loadsync r4, 0(r3)
                li r5, 1001
                li r6, 1
                fetchadd r4, 0(r5), r6
                halt",
    )
    .expect("program assembles")
}

#[test]
fn split_runs_compose() {
    let cases = [
        ("alu", cfg(1), alu_kernel(8, 40)),
        ("mem", cfg(1), mem_kernel(6, 20, 1, 2048)),
        ("hot-bank", cfg(1), mem_kernel(32, 5, 64, 2048)),
        ("mixed x4", cfg(4), mixed_kernel(12, 15, 4, 4096)),
        ("one stream", cfg(1), mixed_kernel(1, 50, 4, 4096)),
    ];
    for (label, cfg, program) in cases {
        let whole = machine(&cfg, &program, &[]).run(MAX);
        assert!(whole.completed, "{label}: {whole:?}");
        let total = whole.cycles;
        assert!(total > 400, "{label}: only {total} cycles to cut");
        // The first and the last fifty cycles, and three hundred between.
        let cuts = (0..50)
            .chain((1..=300).map(|i| 50 + i * (total - 100) / 301))
            .chain(total - 50..total);
        for cut in cuts {
            let mut m = machine(&cfg, &program, &[]);
            let head = m.run(cut);
            assert_eq!(
                (head.cycles, head.completed, head.deadlocked),
                (cut, false, false),
                "{label}: cut at {cut} of {total}"
            );
            assert_eq!(m.run(MAX), whole, "{label}: resumed from {cut}");
        }
    }
}

#[test]
fn every_budget_reports_its_own_cycle() {
    let (cfg, program) = (cfg(1), mixed_kernel(3, 4, 2, 4096));
    let total = machine(&cfg, &program, &[]).run(MAX).cycles;
    assert!(total > 100);
    for k in 0..=total + 3 {
        let r = machine(&cfg, &program, &[]).run(k);
        assert_eq!(
            (r.cycles, r.completed, r.deadlocked),
            (k.min(total), k >= total, false),
            "budget {k}, completion at {total}"
        );
    }
}

#[test]
fn deadlock_and_idle_processor_cycles_are_pinned() {
    // Every stream parks, on both processors: the cycle after the last
    // issue is where the deadlock is seen.
    let mut m = machine(&cfg(2), &all_park(), &[1000, 1001, 1002, 1003]);
    let r = m.run(MAX);
    assert!(r.deadlocked && !r.completed, "{r:?}");
    assert_eq!(fingerprint(&r), DEADLOCK_2P);
    // A deadlocked machine stays where it is.
    assert_eq!(m.run(MAX), r);

    // Main forks one worker and halts. On two processors the worker lands
    // on processor 1 and processor 0 has no event for the rest of the run,
    // so every fast-forward is the minimum over one idle and one busy
    // processor; on one processor both share it.
    let program = mixed_kernel(1, 20, 2, 4096);
    let one = machine(&cfg(1), &program, &[]).run(MAX);
    let two = machine(&cfg(2), &program, &[]).run(MAX);
    assert!(one.completed && two.completed);
    assert_eq!((one.cycles, two.cycles), IDLE_PROCESSOR);
    assert_eq!(one.stats.mix, two.stats.mix);
}

const DEADLOCK_2P: (u64, u64, u64) = (408, 32, 9592517961401365865);
const IDLE_PROCESSOR: (u64, u64) = (2811, 2810);

/// Configurations whose zero latencies push a stream into the scheduler
/// for the cycle already under way, and one whose soft-spawn delay lies
/// far beyond every other latency.
fn due_now_configs() -> Vec<(&'static str, MtaConfig)> {
    let base = MtaConfig {
        streams_per_processor: 3,
        ..cfg(2)
    };
    vec![
        (
            "issue_latency 0",
            MtaConfig {
                issue_latency: 0,
                ..base.clone()
            },
        ),
        (
            "fork_cost 0",
            MtaConfig {
                fork_cost: 0,
                ..base.clone()
            },
        ),
        (
            "wake_latency 0",
            MtaConfig {
                wake_latency: 0,
                ..base.clone()
            },
        ),
        (
            "all three 0",
            MtaConfig {
                issue_latency: 0,
                fork_cost: 0,
                wake_latency: 0,
                ..base.clone()
            },
        ),
        (
            "soft_spawn_cost 1000",
            MtaConfig {
                soft_spawn_cost: 1000,
                ..base
            },
        ),
    ]
}

#[test]
fn already_due_and_far_future_entries_keep_their_order() {
    let (pipeline, layout) = pipeline_kernel(4, 6);
    let channels: Vec<usize> = (0..=layout.stages).map(|k| layout.chan_base + k).collect();
    let mut seen = Vec::new();
    for (label, cfg) in due_now_configs() {
        // Six logical threads on six contexts, chained by full/empty
        // words across both processors; then five racing on one word.
        let r = machine(&cfg, &pipeline, &channels).run(MAX);
        assert!(r.completed, "{label}: {r:?}");
        seen.push((format!("{label}, pipeline"), fingerprint(&r)));
        let r = machine(&cfg, &consumers_race(), &[1000]).run(MAX);
        assert!(r.completed, "{label}: {r:?}");
        seen.push((format!("{label}, race"), fingerprint(&r)));
        // Nine logical threads on six contexts: three queue as software
        // threads and start `soft_spawn_cost` after a context frees.
        let r = machine(&cfg, &alu_kernel(8, 60), &[]).run(MAX);
        assert!(r.completed, "{label}: {r:?}");
        assert!(r.stats.threads.soft_spawns > 0, "{label}");
        seen.push((format!("{label}, queued"), fingerprint(&r)));
    }
    // On a mismatch the left side is the listing to re-pin from.
    let seen: Vec<(&str, _)> = seen.iter().map(|(l, f)| (l.as_str(), *f)).collect();
    assert_eq!(seen, DUE_NOW);
}

const DUE_NOW: [(&str, (u64, u64, u64)); 15] = [
    (
        "issue_latency 0, pipeline",
        (1211, 237, 10559736240787719262),
    ),
    ("issue_latency 0, race", (453, 129, 7458828764089843182)),
    ("issue_latency 0, queued", (528, 1012, 5686127137556351262)),
    ("fork_cost 0, pipeline", (2129, 236, 5587636894328661567)),
    ("fork_cost 0, race", (2246, 129, 14883739023849136215)),
    ("fork_cost 0, queued", (5307, 1012, 17688696738153173212)),
    (
        "wake_latency 0, pipeline",
        (2139, 236, 15676073494418391775),
    ),
    ("wake_latency 0, race", (2254, 129, 725187923995155659)),
    ("wake_latency 0, queued", (5310, 1012, 6789260726929873868)),
    ("all three 0, pipeline", (1208, 237, 17665969933046125691)),
    ("all three 0, race", (450, 129, 10403526030413487935)),
    ("all three 0, queued", (531, 1012, 5983689605820905000)),
    (
        "soft_spawn_cost 1000, pipeline",
        (2139, 236, 2753658225684413880),
    ),
    (
        "soft_spawn_cost 1000, race",
        (2254, 129, 4986450382471948602),
    ),
    (
        "soft_spawn_cost 1000, queued",
        (6235, 1012, 15979684021494955969),
    ),
];

#[test]
fn a_spawn_between_two_runs_is_scheduled_at_the_current_cycle() {
    let (cfg, program) = (cfg(2), alu_kernel(6, 30));
    let mut m = machine(&cfg, &program, &[]);
    let head = m.run(200);
    assert_eq!((head.cycles, head.completed), (200, false));
    // A second main stream, due at cycle 200 exactly.
    m.spawn(0, 0).expect("a context is free");
    assert_eq!(fingerprint(&m.run(MAX)), SPAWN_MID_RUN);
}

const SPAWN_MID_RUN: (u64, u64, u64) = (1979, 800, 1789883551372494899);

#[test]
fn a_stream_due_this_cycle_sorts_among_those_already_due_by_slot() {
    // With `fork_cost: 0` a fork issued on processor 0 at cycle `c` puts a
    // stream on processor 1 that is due at `c` itself, and processor 1
    // takes its turn at `c` after the fork: the scheduler hands out what
    // is due at `c` in slot order, so the newcomer in the lower slot goes
    // first. Here `b` (processor 1, slot 1) is due at 64, `main` issues at
    // 63, and `fk` forks `x` at 64 into processor 1's slot 0, freed by `q`
    // at 42: `x` issues at 64 and `b` at 65, and `b` finishes last. A run
    // loop that moves processor 1's due streams to its ready queue *before*
    // the issue phase of cycle 64 lets `b` go first and ends a cycle early.
    let program = assemble_text(
        "       fork q, r0
                fork fk, r0
                addi r2, r2, 0
                addi r2, r2, 0
                halt
        q:      addi r2, r2, 0
                addi r2, r2, 0
                halt
        fk:     fork b, r0
                fork x, r0
                fork x, r0
                halt
        b:      li r4, 5
        bloop:  addi r4, r4, -1
                bne r4, r0, bloop
                halt
        x:      halt",
    )
    .expect("program assembles");
    let cfg = MtaConfig {
        fork_cost: 0,
        ..cfg(2)
    };
    let r = machine(&cfg, &program, &[]).run(MAX);
    assert!(r.completed, "{r:?}");
    assert_eq!((r.cycles, r.stats.instructions()), (255, 26));
    assert_eq!(r.stats.streams.issued_per_slot[1][..2], [4, 12]);
}
