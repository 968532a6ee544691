//! Drive the cycle-level Tera MTA simulator directly: write a small
//! multithreaded program in the simulator IR, run it, and reproduce the
//! paper's microarchitectural observations (5% single-stream utilization,
//! ~80 streams to saturate, one-cycle synchronization, hot banks).
//!
//! ```text
//! cargo run --release --example mta_microsim
//! ```

use tera_c3i::mta_sim::kernels::{self, measure_utilization};
use tera_c3i::mta_sim::{Assembler, Machine, MtaConfig};

fn main() {
    // ── 1. A hand-written kernel: parallel dot-product via fetch-add ───
    // Workers claim elements with a fetch-add on word 512 and accumulate
    // the integer dot product into word 513 with another fetch-add.
    const N: usize = 500;
    let mut a = Assembler::new();
    // main: fork 32 workers, then halt.
    a.li(2, 0);
    a.li(3, 32);
    a.label("spawn");
    a.bge_l(2, 3, "done_spawn");
    a.fork_l("worker", 2);
    a.addi(2, 2, 1);
    a.jmp_l("spawn");
    a.label("done_spawn");
    a.halt();
    // worker: loop { i = fetch_add(claim); if i >= N halt; sum += x[i]*y[i] }
    a.label("worker");
    a.li(4, 512); // claim counter
    a.li(5, 513); // accumulator
    a.li(6, N as i64);
    a.li(7, 1);
    a.label("claim");
    a.fetch_add(9, 4, 0, 7);
    a.bge_l(9, 6, "out");
    a.li(10, 1024);
    a.add(10, 10, 9);
    a.load(11, 10, 0); // x[i]
    a.li(12, 1024 + N as i64);
    a.add(12, 12, 9);
    a.load(13, 12, 0); // y[i]
    a.mul(14, 11, 13);
    a.fetch_add(15, 5, 0, 14); // sum += x[i]*y[i]
    a.jmp_l("claim");
    a.label("out");
    a.halt();
    let program = a.assemble().expect("assemble");

    let mut m = Machine::new(
        MtaConfig {
            mem_words: 1 << 16,
            ..MtaConfig::tera(1)
        },
        program,
    )
    .expect("machine");
    for i in 0..N {
        m.memory_mut().store(1024 + i, (i % 7) as u64);
        m.memory_mut().store(1024 + N + i, (i % 5) as u64);
    }
    m.spawn(0, 0).expect("spawn");
    let r = m.run(100_000_000);
    let expected: u64 = (0..N as u64).map(|i| (i % 7) * (i % 5)).sum();
    assert!(r.completed);
    assert_eq!(m.memory().load(513), expected);
    println!("fetch-add dot product: {} (correct)", m.memory().load(513));
    println!(
        "  {} instructions in {} cycles on 32 streams -> {:.1}% utilization, {} sync blocks",
        r.stats.instructions(),
        r.cycles,
        100.0 * r.utilization(),
        r.stats.sync.blocked
    );

    // ── 2. The utilization curve (paper Sections 5 and 7) ──────────────
    println!("\nutilization vs streams (20% memory mix):");
    let cfg = || MtaConfig {
        mem_words: 1 << 20,
        ..MtaConfig::tera(1)
    };
    for s in [1usize, 4, 16, 32, 64, 80, 128] {
        let u = measure_utilization(cfg(), s, 300, 3);
        let bar = "#".repeat((u * 50.0) as usize);
        println!("  {s:>3} streams |{bar:<50}| {:.1}%", u * 100.0);
    }
    println!("  -> a single stream gets ~5% of the machine; saturation needs dozens of streams");

    // ── 3. Hot banks: why interleaving matters ──────────────────────────
    let big = || MtaConfig {
        mem_words: 1 << 23,
        ..MtaConfig::tera(1)
    };
    let (_, cold) = kernels::run_kernel(big(), kernels::mem_kernel(64, 150, 1, 4096), &[]);
    let (_, hot) = kernels::run_kernel(big(), kernels::mem_kernel(64, 150, 64, 4096), &[]);
    println!(
        "\nbank interleaving: unit stride {} cycles vs stride-64 (one bank) {} cycles ({:.2}x slower)",
        cold.cycles,
        hot.cycles,
        hot.cycles as f64 / cold.cycles as f64
    );

    // ── 4. Pipeline of streams through full/empty words ────────────────
    let (program, layout) = kernels::pipeline_kernel(8, 50);
    let empties: Vec<usize> = (0..=8).map(|k| layout.chan_base + k).collect();
    let (m, r) = kernels::run_kernel(
        MtaConfig {
            mem_words: 1 << 16,
            ..MtaConfig::tera(2)
        },
        program,
        &empties,
    );
    println!(
        "\n8-stage producer/consumer pipeline over full/empty words: sum {}, {} wakeups, {} cycles",
        m.memory().load(layout.sink_addr),
        r.stats.sync.wakes,
        r.cycles
    );
}
