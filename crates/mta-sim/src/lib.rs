//! # mta-sim — a cycle-level simulator of the Tera MTA
//!
//! The paper evaluates the first installed Tera MTA (San Diego Supercomputer
//! Center, two processors). No MTA hardware exists today, so this crate
//! implements the architectural mechanisms the paper's findings rest on:
//!
//! * up to 256 **processors**, each with 128 hardware **streams**
//!   (instruction stream + register set) — [`processor`];
//! * **one-cycle switching** between streams: each cycle a processor issues
//!   one instruction from some ready stream; a stream that has issued
//!   cannot issue again for 21 cycles (the pipeline depth), so a
//!   single-threaded program gets at most 1/21 ≈ 5 % of a processor —
//!   exactly the paper's §5 observation;
//! * a flat, **cache-less shared memory**, 64-way interleaved into banks
//!   with finite service rate — [`memory`]; memory latency is masked only
//!   by having other streams to issue from;
//! * a **full/empty bit on every word**, giving one-instruction
//!   producer/consumer synchronization, `fetch_add`, and futures — the
//!   fine-grained synchronization the paper's Tera-only program variants
//!   use;
//! * hardware **thread creation** in a few cycles ([`ir::Instr::Fork`]),
//!   versus tens of thousands of cycles for OS threads on the conventional
//!   platforms.
//!
//! Programs for the simulator are written in a small register IR
//! ([`ir::Instr`]) assembled with [`asm::Assembler`]; [`kernels`] contains
//! ready-made kernels (vector ops, reductions, producer/consumer chains,
//! miniature versions of both C3I benchmarks) used by tests and
//! benchmarks. The simulator is fully deterministic: the same program and
//! configuration always produce the same cycle counts.
//!
//! The simulator is used two ways by the rest of the workspace:
//!
//! 1. directly, to reproduce the paper's microarchitectural claims
//!    (single-stream utilization ≈ 5 %, ~80 streams for full utilization,
//!    one-cycle synchronization), and
//! 2. to validate the *analytic* Tera model in `eval-core` that scales
//!    those mechanisms up to the full benchmark runs of Tables 5, 6
//!    and 11.
//!
//! # Quick example
//!
//! Run the mixed utilization kernel single-streamed on one processor and
//! observe the §5 ceiling — one stream can issue at most once per
//! 21-cycle pipeline, so utilization sits below ~5%:
//!
//! ```
//! use mta_sim::{kernels, MtaConfig};
//!
//! let cfg = MtaConfig { mem_words: 1 << 16, ..MtaConfig::tera(1) };
//! let program = kernels::mixed_kernel(1, 200, 3, 4096);
//! let (_, result) = kernels::run_kernel(cfg, program, &[]);
//! assert!(result.completed);
//! assert!(result.utilization() < 0.06);
//! ```

#![forbid(unsafe_code)]

pub mod asm;
pub mod asm_text;
pub mod interp;
pub mod ir;
pub mod kernels;
pub mod machine;
pub mod memory;
pub mod processor;

pub use asm::Assembler;
pub use ir::{Instr, Program, Reg};
pub use machine::{
    ClockError, InstrMix, Machine, MachineError, MtaConfig, RunResult, SimStats, StreamStats,
    SyncStats, ThreadStats,
};
pub use memory::{MemStats, Memory};
