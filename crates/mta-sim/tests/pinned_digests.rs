//! Pinned digests of `Machine::run`, the simulator's single driver.
//!
//! Every case below runs one program to its end (completion, timeout,
//! deadlock, or faults) and hashes everything observable about the run —
//! the whole `RunResult` (cycles, flags, fault list, full `SimStats`) and
//! the final memory image (every word and its full/empty bit) — with
//! FNV-1a. The digests were recorded while the crate still had a second,
//! windowed multi-worker driver, which reproduced every one of them at 1,
//! 2 and 8 workers before it was deleted; they are what any rebuild of
//! `machine.rs` is gated against. A digest changes only when simulated
//! behaviour or timing changes: if that is intended, say why in the
//! commit and re-pin from the listing the failing assertion prints.

use mta_sim::asm_text::assemble_text;
use mta_sim::ir::{Instr, Program};
use mta_sim::kernels::{
    alu_kernel, chunked_scan_kernel, mem_kernel, mixed_kernel, pipeline_kernel, ray_sweep_kernel,
    reduce_kernel, vector_add_kernel,
};
use mta_sim::{
    InstrMix, Machine, MemStats, MtaConfig, RunResult, SimStats, StreamStats, SyncStats,
    ThreadStats,
};

/// 64-bit FNV-1a over a stream of words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    /// A list of words, then its length so adjacent lists cannot run
    /// into each other.
    fn words(&mut self, vs: impl IntoIterator<Item = u64>) {
        let mut n = 0;
        for v in vs {
            self.word(v);
            n += 1;
        }
        self.word(n);
    }
}

/// Digest of a finished run. The result is destructured exhaustively so a
/// new `RunResult`/`SimStats` field fails to compile here until it is
/// hashed too.
fn digest(m: &Machine, r: &RunResult) -> u64 {
    let RunResult {
        cycles,
        completed,
        deadlocked,
        faults,
        stats:
            SimStats {
                streams:
                    StreamStats {
                        issued_per_processor,
                        issued_per_slot,
                        peak_live_per_processor,
                    },
                threads: ThreadStats { forks, soft_spawns },
                sync:
                    SyncStats {
                        blocked,
                        wakes,
                        reparks,
                    },
                memory:
                    MemStats {
                        accesses,
                        bank_queue_cycles,
                        queue_wait_hist,
                    },
                mix:
                    InstrMix {
                        alu,
                        memory: plain,
                        sync: synced,
                        thread,
                    },
            },
    } = r;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.words([*cycles, u64::from(*completed), u64::from(*deadlocked)]);
    for f in faults {
        h.bytes(f.as_bytes());
        h.word(f.len() as u64);
    }
    h.word(faults.len() as u64);
    h.words(issued_per_processor.iter().copied());
    for slots in issued_per_slot {
        h.words(slots.iter().copied());
    }
    h.words(peak_live_per_processor.iter().map(|&n| n as u64));
    h.words([*forks, *soft_spawns, *blocked, *wakes, *reparks]);
    h.words([*accesses, *bank_queue_cycles]);
    h.words(queue_wait_hist.iter().copied());
    h.words([*alu, *plain, *synced, *thread]);
    let mem = m.memory();
    h.words((0..mem.len()).map(|a| mem.load(a)));
    h.words((0..mem.len()).map(|a| u64::from(mem.try_read_ff(a).is_some())));
    h.0
}

/// The runs of the matrix so far: label, result, digest.
#[derive(Default)]
struct Runs(Vec<(String, RunResult, u64)>);

impl Runs {
    /// Run `program` from pc 0 under `cfg` after `setup` has initialized
    /// memory, for at most `max_cycles`, and record it.
    fn run(
        &mut self,
        label: &str,
        cfg: MtaConfig,
        program: Program,
        max_cycles: u64,
        setup: impl FnOnce(&mut Machine),
    ) {
        let mut m = Machine::new(cfg, program).expect("machine must validate");
        setup(&mut m);
        m.spawn(0, 0).expect("spawn main stream");
        let r = m.run(max_cycles);
        let d = digest(&m, &r);
        self.0.push((label.to_string(), r, d));
    }
}

/// A small-memory Tera config so hashing the final memory stays cheap.
fn cfg(n_processors: usize) -> MtaConfig {
    MtaConfig {
        mem_words: 1 << 16,
        ..MtaConfig::tera(n_processors)
    }
}

fn set_empty(m: &mut Machine, addrs: impl IntoIterator<Item = usize>) {
    for a in addrs {
        m.memory_mut().set_empty(a);
    }
}

/// Main forks four workers (placed round-robin over the processors) that
/// run `work` with `r1 = id`, then runs `main_tail` itself.
fn forked(main_tail: &str, work: &str) -> Program {
    let source = format!(
        "       li r2, 0
                li r3, 4
        spawn:  bge r2, r3, spawned
                fork work, r2
                addi r2, r2, 1
                jmp spawn
        spawned:
                {main_tail}
                halt
        work:
                {work}
                halt"
    );
    assemble_text(&source).expect("program assembles")
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random but structurally valid program: branch targets stay in range,
/// memory traffic lands in a small shared region with a few words left
/// empty, and forks/syncs/divides are all on the menu — so runs exercise
/// completion, timeout, deadlock, and faults.
fn random_program(rng: &mut XorShift, len: usize) -> Program {
    let mut code = Vec::with_capacity(len);
    for i in 0..len {
        // Destinations skip r0 (read-only); sources may use it.
        let rd = |rng: &mut XorShift| 1 + rng.below(7) as u8;
        let r = |rng: &mut XorShift| rng.below(8) as u8;
        let target = |rng: &mut XorShift| rng.below(len as u64) as usize;
        // Addresses land in [1000, 1032): overlapping streams contend on
        // data words and full/empty bits.
        let offset = |rng: &mut XorShift| 1000 + rng.below(32) as i64;
        let instr = match rng.below(20) {
            0 => Instr::Li {
                rd: rd(rng),
                imm: rng.below(64) as i64 - 8,
            },
            1 => Instr::Add {
                rd: rd(rng),
                ra: r(rng),
                rb: r(rng),
            },
            2 => Instr::Addi {
                rd: rd(rng),
                ra: r(rng),
                imm: rng.below(16) as i64 - 8,
            },
            3 => Instr::Mul {
                rd: rd(rng),
                ra: r(rng),
                rb: r(rng),
            },
            4 => Instr::Div {
                rd: rd(rng),
                ra: r(rng),
                rb: r(rng),
            },
            5 => Instr::Slt {
                rd: rd(rng),
                ra: r(rng),
                rb: r(rng),
            },
            6 => Instr::FAdd {
                rd: rd(rng),
                ra: r(rng),
                rb: r(rng),
            },
            7 => Instr::Jmp {
                target: target(rng),
            },
            8 => Instr::Beq {
                ra: r(rng),
                rb: r(rng),
                target: target(rng),
            },
            9 => Instr::Bne {
                ra: r(rng),
                rb: r(rng),
                target: target(rng),
            },
            10 | 11 => Instr::Load {
                rd: rd(rng),
                base: 0,
                offset: offset(rng),
            },
            12 | 13 => Instr::Store {
                rs: r(rng),
                base: 0,
                offset: offset(rng),
            },
            14 => Instr::LoadSync {
                rd: rd(rng),
                base: 0,
                offset: offset(rng),
            },
            15 => Instr::StoreSync {
                rs: r(rng),
                base: 0,
                offset: offset(rng),
            },
            16 => Instr::FetchAdd {
                rd: rd(rng),
                base: 0,
                offset: offset(rng),
                rs: r(rng),
            },
            17 => Instr::Fork {
                entry: target(rng),
                arg: r(rng),
            },
            18 => Instr::ReadFF {
                rd: rd(rng),
                base: 0,
                offset: offset(rng),
            },
            _ => {
                if i == len - 1 || rng.below(4) == 0 {
                    Instr::Halt
                } else {
                    Instr::Mov {
                        rd: rd(rng),
                        rs: r(rng),
                    }
                }
            }
        };
        code.push(instr);
    }
    code.push(Instr::Halt);
    Program::new(code)
}

const MAX: u64 = 50_000_000;

/// The pinned matrix: the eight kernels (with the input data their own
/// tests use), the timing corner cases, the deadlock/fault/wake programs,
/// and 25 fixed-seed random programs.
fn run_matrix() -> Runs {
    let mut runs = Runs::default();
    runs.run("alu", cfg(2), alu_kernel(8, 40), MAX, |_| {});
    // Stride 1 spreads banks; stride == n_banks aims at one of them (six
    // workers are too few to collide, so the two runs agree).
    for stride in [1, 64] {
        let label = format!("mem stride {stride}");
        runs.run(&label, cfg(2), mem_kernel(6, 20, stride, 2048), MAX, |_| {});
    }
    // Enough streams on one slow bank that accesses queue deep: every
    // wait-histogram bucket fills.
    let mut c = cfg(2);
    c.bank_service = 8;
    runs.run("mem hot bank", c, mem_kernel(32, 5, 64, 2048), MAX, |_| {});
    runs.run("mixed", cfg(4), mixed_kernel(12, 15, 4, 4096), MAX, |_| {});

    let (program, l) = vector_add_kernel(48, 6);
    runs.run("vector_add", cfg(2), program, MAX, |m| {
        for i in 0..48 {
            m.memory_mut()
                .store(l.a_base + i, (i as f64 * 0.5).to_bits());
            m.memory_mut()
                .store(l.b_base + i, (100.0 - i as f64).to_bits());
        }
    });
    let (program, l) = reduce_kernel(40, 5);
    runs.run("reduce", cfg(2), program, MAX, |m| {
        for i in 0..l.n {
            m.memory_mut().store(l.data_base + i, (i * 7 + 3) as u64);
        }
    });
    // Producer/consumer chains over full/empty words: the sync-heavy case.
    let (program, l) = pipeline_kernel(4, 12);
    runs.run("pipeline", cfg(2), program, MAX, |m| {
        set_empty(m, (0..=l.stages).map(|c| l.chan_base + c));
    });
    let (program, l) = chunked_scan_kernel(10, 6, 4);
    runs.run("chunked_scan", cfg(2), program, MAX, |m| {
        for p in 0..10 {
            let start = (p % 3) as u64;
            let end = if p % 2 == 0 { start + 2 } else { start };
            m.memory_mut().store(l.windows_base + 2 * p, start);
            m.memory_mut().store(l.windows_base + 2 * p + 1, end);
        }
    });
    let (n_rays, len) = (6, 8);
    let (program, l) = ray_sweep_kernel(n_rays, len, 4);
    runs.run("ray_sweep", cfg(2), program, MAX, |m| {
        for r in 0..n_rays {
            for k in 0..len {
                let slope = ((r * 13 + k * 7) % 31) as f64 - 15.0;
                m.memory_mut()
                    .store(l.slopes_base + r * len + k, slope.to_bits());
            }
        }
    });

    // A budget that expires mid-run: clamped cycle count, partial stats.
    for max in [100, 1_000, 5_000] {
        let label = format!("timeout {max}");
        runs.run(&label, cfg(2), alu_kernel(8, 10_000), max, |_| {});
    }
    // More forked workers than hardware contexts: forks overflow into the
    // pending-thread queue and soft-spawn onto freed slots.
    let mut c = cfg(2);
    c.streams_per_processor = 3;
    runs.run("soft_spawn", c, alu_kernel(12, 25), MAX, |_| {});

    // Each worker takes from its own word (1000 + id), which stays empty.
    let work = "li r4, 1000\n add r4, r4, r1\n loadsync r5, 0(r4)";
    runs.run("deadlock", cfg(2), forked("", work), MAX, |m| {
        set_empty(m, 1000..1004);
    });
    // Worker 0 divides by its own id and faults; the rest finish.
    let work = "li r4, 100\n div r5, r4, r1";
    runs.run("div_fault", cfg(2), forked("", work), MAX, |_| {});
    // A future: the workers park on an empty word with `readff`; main
    // publishes it once with `put` after a delay, waking them all. (No
    // kernel uses `put`/`readff`; this pins their wake timing.)
    let delay = "li r7, 60\n delay: addi r7, r7, -1\n bne r7, r0, delay";
    let publish = format!("{delay}\n li r4, 1000\n li r5, 42\n put r5, 0(r4)");
    let work = "li r4, 1000\n readff r5, 0(r4)\n add r5, r5, r1\n store r5, 1(r4)
                add r6, r4, r1\n store r5, 8(r6)";
    runs.run("put_future", cfg(2), forked(&publish, work), MAX, |m| {
        set_empty(m, [1000]);
    });
    // The workers park on one empty word; main publishes four values one
    // at a time with `storesync`. Every publish wakes all waiters, one
    // wins, the losers re-park — the only reparks in the matrix.
    let delay = "li r7, 200\n delay: addi r7, r7, -1\n bne r7, r0, delay";
    let produce = format!(
        "{delay}\n li r1, 4\n li r3, 1000
         produce: storesync r1, 0(r3)\n addi r1, r1, -1\n bne r1, r0, produce"
    );
    let work = "li r3, 1000\n loadsync r4, 0(r3)\n li r6, 1\n fetchadd r5, 1(r3), r6";
    runs.run("contended_take", cfg(2), forked(&produce, work), MAX, |m| {
        set_empty(m, [1000]);
    });

    let mut c = cfg(2);
    c.streams_per_processor = 4; // small so forks overflow into soft spawns
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    for case in 0..25 {
        let seed = rng.next() | 1;
        let program = random_program(&mut XorShift(seed), 30);
        runs.run(&format!("fuzz {case}"), c.clone(), program, 30_000, |m| {
            set_empty(m, (0..4).map(|k| 1000 + k * 7));
        });
    }
    runs
}

/// `(label, digest)` in the order [`run_matrix`] produces them.
const PINNED: &[(&str, u64)] = &[
    ("alu", 0x1cc600dae95458bd),
    ("mem stride 1", 0xb5df2bf7b5b44e4b),
    ("mem stride 64", 0xb5df2bf7b5b44e4b),
    ("mem hot bank", 0x3a100f04ade72e96),
    ("mixed", 0x5cb4cea38ce8d219),
    ("vector_add", 0xdbb0bf20bad914eb),
    ("reduce", 0x3a6a4054b8bad860),
    ("pipeline", 0x666dc36b17c7a2a8),
    ("chunked_scan", 0x73d1536520b5fae7),
    ("ray_sweep", 0xfe3ce52c97486e56),
    ("timeout 100", 0xa9ce5364519ddfa2),
    ("timeout 1000", 0x023ce5fe6dae8f02),
    ("timeout 5000", 0x1b7183f580f022fb),
    ("soft_spawn", 0x056cdbdd17710c1c),
    ("deadlock", 0xd2cde94bffbd06b9),
    ("div_fault", 0x6415c36eb37cbbb5),
    ("put_future", 0x548d75c196d2d16f),
    ("contended_take", 0xa46203aa7adfbe12),
    ("fuzz 0", 0x0b2ce490a4149eaf),
    ("fuzz 1", 0x833720a7b78bd68e),
    ("fuzz 2", 0x88d7f90c5e2db263),
    ("fuzz 3", 0x5c0dc6245eb2189f),
    ("fuzz 4", 0xbd3fc1ecd9c6c36b),
    ("fuzz 5", 0xbb1734bf91c289b8),
    ("fuzz 6", 0x1fef6c78c7b1a499),
    ("fuzz 7", 0xc4a85bc487ffec29),
    ("fuzz 8", 0x9d417bf00e0ee73a),
    ("fuzz 9", 0x054223f8ec97dba4),
    ("fuzz 10", 0x1e9a4129ba4970f1),
    ("fuzz 11", 0xae47899f627e0bd9),
    ("fuzz 12", 0x56a11a2e6526a2f8),
    ("fuzz 13", 0x3f984a3109485f1e),
    ("fuzz 14", 0x5f12293c34f1f4b0),
    ("fuzz 15", 0x5f12293c34f1f4b0),
    ("fuzz 16", 0xd2c8a8474bf8cc41),
    ("fuzz 17", 0xf14e09a7e7cef905),
    ("fuzz 18", 0x73760f5b66fe462e),
    ("fuzz 19", 0x4a412952fec17d12),
    ("fuzz 20", 0xff61b9a190111cc2),
    ("fuzz 21", 0xb482021b4f86e1e4),
    ("fuzz 22", 0xbc52cdfc76a3b451),
    ("fuzz 23", 0x8a9bc3f6b86a577a),
    ("fuzz 24", 0xb2454eae210f3e9a),
];

#[test]
fn machine_run_reproduces_every_pinned_digest() {
    let runs = run_matrix().0;
    let listing: String = runs
        .iter()
        .map(|(label, _, d)| format!("    (\"{label}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(
        runs.len(),
        PINNED.len(),
        "matrix and PINNED disagree in length; current digests:\n{listing}"
    );
    for ((label, _, d), (pinned_label, pinned)) in runs.iter().zip(PINNED) {
        assert_eq!(label, pinned_label, "matrix order changed");
        assert_eq!(
            d, pinned,
            "{label}: digest {d:#018x} != pinned {pinned:#018x}; current digests:\n{listing}"
        );
    }
    // The digests pin *what* happened; this pins that the matrix still
    // reaches every kind of ending, so no digest goes vacuous.
    let any = |f: &dyn Fn(&RunResult) -> bool| runs.iter().any(|(_, r, _)| f(r));
    assert!(any(&|r| r.completed && r.faults.is_empty()));
    assert!(any(&|r| !r.completed && !r.deadlocked));
    assert!(any(&|r| r.deadlocked));
    assert!(any(&|r| !r.faults.is_empty()));
    assert!(any(&|r| r.stats.threads.soft_spawns > 0));
    assert!(any(&|r| r.stats.sync.blocked > 0 && r.stats.sync.wakes > 0));
    assert!(any(&|r| r.stats.sync.reparks > 0));
    assert!(any(&|r| r
        .stats
        .memory
        .queue_wait_hist
        .iter()
        .all(|&n| n > 0)));
}
