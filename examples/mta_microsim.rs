//! Drive the cycle-level Tera MTA simulator directly: hand-assemble a
//! small multithreaded program, load its data, run it, and read the
//! result and the statistics back. The paper's claim it checks is
//! one-cycle synchronization: 32 streams claim work and accumulate
//! through `fetch_add` on shared words, and no stream ever blocks.
//!
//! The simulator's other observations are held by the tests in
//! `mta_sim::kernels`: single-stream utilization and the streams needed
//! to saturate a processor (the curve `repro utilization` prints), hot
//! banks, and pipelines through full/empty words.
//!
//! ```text
//! cargo run --release --example mta_microsim
//! ```

use tera_c3i::mta_sim::{Assembler, Machine, MtaConfig};

fn main() {
    // A parallel dot product via fetch-add. Workers claim elements with a
    // fetch-add on word 512 and accumulate the integer dot product into
    // word 513 with another fetch-add.
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
    assert_eq!(
        r.stats.sync.blocked, 0,
        "a fetch-add is a one-cycle synchronization and never blocks a stream"
    );
}
