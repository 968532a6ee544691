//! The whole machine: processors + interleaved memory + thread placement,
//! stepped cycle by cycle (with fast-forward over globally idle gaps).
//!
//! Timing model (defaults chosen to match the published MTA numbers and
//! the paper's observations):
//!
//! * every instruction occupies its stream for `issue_latency` = 21 cycles
//!   (the pipeline depth — a lone stream issues at most once per 21
//!   cycles ⇒ ≈5 % single-thread utilization, §5/§7 of the paper);
//! * memory operations additionally pay `mem_extra_latency` network/memory
//!   cycles plus bank queueing (64-way interleaved, `bank_service` cycles
//!   per access), ≈70 cycles uncontended — maskable only by other streams;
//! * synchronized operations on a word in the wrong full/empty state park
//!   the stream on the word's waiter list; the complementary transition
//!   re-readies it `wake_latency` cycles later (synchronization itself is
//!   a one-instruction, few-cycle affair — the MTA strength the paper
//!   highlights);
//! * `Fork` creates a hardware stream in `fork_cost` = 2 cycles while
//!   contexts are free, then falls back to queued software threads at
//!   `soft_spawn_cost` (the paper's 50–100 cycle software threads).

use crate::ir::{Instr, Program, Reg};
use crate::memory::Memory;
use crate::processor::{Processor, Stream};
use std::collections::{HashMap, VecDeque};

/// Machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MtaConfig {
    /// Number of processors (the SDSC machine had 2; up to 256).
    pub n_processors: usize,
    /// Hardware stream contexts per processor (128 on the MTA).
    pub streams_per_processor: usize,
    /// Clock rate, for converting cycles to seconds (255 MHz).
    pub clock_mhz: f64,
    /// Cycles between consecutive issues of one stream (pipeline depth).
    pub issue_latency: u64,
    /// Extra network + memory-pipeline cycles for a memory operation
    /// beyond bank service.
    pub mem_extra_latency: u64,
    /// Cycles a bank is busy per access.
    pub bank_service: u64,
    /// Number of interleaved memory banks.
    pub n_banks: usize,
    /// Extra cycles charged to a `Fork` that gets a hardware context.
    pub fork_cost: u64,
    /// Delay before a queued software thread starts on a freed context.
    pub soft_spawn_cost: u64,
    /// Delay from a full/empty transition to a parked stream re-issuing.
    pub wake_latency: u64,
    /// Memory size in words.
    pub mem_words: usize,
    /// Explicit-dependence lookahead: how many memory operations one
    /// stream may have outstanding while continuing to issue independent
    /// instructions. `1` disables lookahead (every instruction waits for
    /// the previous one — the behaviour the paper's measurements imply
    /// for the compiled benchmark code); the MTA hardware supported up
    /// to 8, encoded by the compiler in each instruction.
    pub lookahead: u64,
}

impl MtaConfig {
    /// The published Tera MTA parameters with `n_processors` processors.
    pub fn tera(n_processors: usize) -> Self {
        Self {
            n_processors,
            streams_per_processor: 128,
            clock_mhz: 255.0,
            issue_latency: 21,
            mem_extra_latency: 66,
            bank_service: 4,
            n_banks: 64,
            fork_cost: 2,
            soft_spawn_cost: 75,
            wake_latency: 3,
            mem_words: 1 << 22,
            lookahead: 1,
        }
    }

    /// Uncontended memory-operation latency (bank service + network).
    pub fn mem_latency(&self) -> u64 {
        self.bank_service + self.mem_extra_latency
    }
}

impl Default for MtaConfig {
    fn default() -> Self {
        Self::tera(1)
    }
}

/// Machine counters of one run, grouped by subsystem.
///
/// This is the simulator's analog of `sthreads::stats` on the host: the
/// paper's architecture-level quantities — issue-slot usage per stream
/// (§5's 1/21 single-stream ceiling), memory-bank queueing (§4's
/// interleaving), and full/empty retry traffic (§6's one-instruction
/// synchronization) — surfaced as structured data instead of a flat bag
/// of ad-hoc fields.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SimStats {
    /// Issue-slot accounting per processor and per hardware stream slot.
    pub streams: StreamStats,
    /// Thread-creation traffic (hardware forks vs queued software threads).
    pub threads: ThreadStats,
    /// Full/empty-bit synchronization traffic.
    pub sync: SyncStats,
    /// Memory-system counters, including the bank queue-depth histogram.
    pub memory: crate::memory::MemStats,
    /// Instructions issued by kind: ALU/branch, plain memory,
    /// synchronized memory, thread control (fork/halt).
    pub mix: InstrMix,
}

/// Where the machine's issue slots went.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct StreamStats {
    /// Instructions issued, per processor.
    pub issued_per_processor: Vec<u64>,
    /// Instructions issued per hardware stream slot, per processor. A
    /// slot is reused by successive streams, so this is issue pressure on
    /// the *context*, the quantity §5's utilization argument is about.
    pub issued_per_slot: Vec<Vec<u64>>,
    /// High-water mark of live streams, per processor.
    pub peak_live_per_processor: Vec<usize>,
}

impl StreamStats {
    /// Total instructions issued across processors.
    pub fn instructions(&self) -> u64 {
        self.issued_per_processor.iter().sum()
    }

    /// Per-processor fraction of issue slots used over `cycles`.
    pub fn issue_slot_utilization(&self, cycles: u64) -> Vec<f64> {
        self.issued_per_processor
            .iter()
            .map(|&n| {
                if cycles == 0 {
                    0.0
                } else {
                    n as f64 / cycles as f64
                }
            })
            .collect()
    }
}

/// Thread-creation counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ThreadStats {
    /// Hardware forks that got a free stream context (few cycles each).
    pub forks: u64,
    /// Logical threads that had to queue for a context (software
    /// threads, `soft_spawn_cost` cycles — the paper's 50–100 cycles).
    pub soft_spawns: u64,
}

/// Full/empty-bit synchronization counters. A synchronized operation that
/// finds the wrong state parks with its pc unchanged and *retries* the
/// whole instruction when the complementary transition wakes it, so
/// `blocked` is exactly the full/empty retry count.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SyncStats {
    /// Synchronized operations that found the wrong full/empty state and
    /// parked for retry.
    pub blocked: u64,
    /// Streams re-readied by full/empty transitions.
    pub wakes: u64,
    /// Woken streams whose retry found the wrong state *again* (lost the
    /// race to another consumer) and re-parked — contention, not just
    /// ordering.
    pub reparks: u64,
}

/// Issued-instruction mix.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InstrMix {
    /// ALU, float, move, and branch instructions.
    pub alu: u64,
    /// Plain loads and stores.
    pub memory: u64,
    /// Full/empty-synchronized operations (incl. fetch-add, put).
    pub sync: u64,
    /// Forks and halts.
    pub thread: u64,
}

impl InstrMix {
    /// Fraction of issued instructions that touch memory (plain + sync).
    pub fn mem_fraction(&self) -> f64 {
        let total = self.alu + self.memory + self.sync + self.thread;
        if total == 0 {
            0.0
        } else {
            (self.memory + self.sync) as f64 / total as f64
        }
    }
}

impl SimStats {
    /// Total instructions issued across processors.
    pub fn instructions(&self) -> u64 {
        self.streams.instructions()
    }
}

/// Outcome of [`Machine::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Cycles elapsed until the last stream halted (or the run aborted).
    pub cycles: u64,
    /// Whether every stream halted normally.
    pub completed: bool,
    /// Whether the run aborted because all live streams were parked on
    /// full/empty bits with nothing to wake them.
    pub deadlocked: bool,
    /// Streams killed by faults (address/divide errors), with messages.
    pub faults: Vec<String>,
    /// Machine counters for the run.
    pub stats: SimStats,
}

impl RunResult {
    /// Machine-wide processor utilization: issued instructions over issue
    /// slots (`cycles × processors`).
    pub fn utilization(&self) -> f64 {
        let n = self.stats.streams.issued_per_processor.len() as f64;
        if self.cycles == 0 || n == 0.0 {
            return 0.0;
        }
        self.stats.instructions() as f64 / (self.cycles as f64 * n)
    }

    /// Wall-clock seconds at `clock_mhz`.
    ///
    /// A non-finite or non-positive clock rate is a configuration error,
    /// not a measurement: dividing by it would yield `inf`/`NaN` that
    /// flows silently into downstream CSVs, so it is rejected as a typed
    /// [`ClockError`] instead.
    pub fn seconds(&self, clock_mhz: f64) -> Result<f64, ClockError> {
        if !clock_mhz.is_finite() || clock_mhz <= 0.0 {
            return Err(ClockError { clock_mhz });
        }
        Ok(self.cycles as f64 / (clock_mhz * 1e6))
    }
}

/// A degenerate clock rate passed to [`RunResult::seconds`]: zero,
/// negative, or non-finite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockError {
    /// The rejected clock rate, in MHz.
    pub clock_mhz: f64,
}

impl std::fmt::Display for ClockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "clock rate must be finite and positive, got {} MHz",
            self.clock_mhz
        )
    }
}

impl std::error::Error for ClockError {}

/// Why [`Machine::new`] or [`Machine::spawn`] refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// The program failed [`Program::validate`]; the message names the
    /// instruction.
    InvalidProgram(String),
    /// A configuration field holds a value no machine can be built from
    /// (a zero count or a zero service time).
    InvalidConfig {
        /// Name of the offending [`MtaConfig`] field.
        field: &'static str,
    },
    /// The spawn entry point lies past the end of the program.
    SpawnOutOfRange {
        /// The requested entry pc.
        entry: usize,
        /// Number of instructions in the program.
        program_len: usize,
    },
    /// Every stream context on every processor is occupied.
    NoFreeContext,
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidProgram(msg) => write!(f, "invalid program: {msg}"),
            Self::InvalidConfig { field } => {
                write!(f, "invalid configuration: {field} must be positive")
            }
            Self::SpawnOutOfRange { entry, program_len } => write!(
                f,
                "spawn entry {entry} out of range (program has {program_len} instructions)"
            ),
            Self::NoFreeContext => write!(f, "no free stream context for initial spawn"),
        }
    }
}

impl std::error::Error for MachineError {}

/// The full/empty state a parked stream is waiting for its word to reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Wait {
    Full,
    Empty,
}

/// A memory or full/empty instruction with its address operands taken
/// off: what [`Machine::access`] does to the resolved word.
#[derive(Clone, Copy)]
enum MemOp {
    Load { rd: Reg },
    Store { rs: Reg },
    LoadSync { rd: Reg },
    StoreSync { rs: Reg },
    ReadFF { rd: Reg },
    Put { rs: Reg },
    FetchAdd { rd: Reg, rs: Reg },
}

/// The simulated machine.
pub struct Machine {
    config: MtaConfig,
    program: Program,
    memory: Memory,
    processors: Vec<Processor>,
    /// Parked `(processor, slot)` streams, FIFO per word and awaited state.
    waiters: HashMap<(usize, Wait), VecDeque<(usize, usize)>>,
    pending_threads: VecDeque<(usize, u64)>,
    next_place: usize,
    cycle: u64,
    faults: Vec<String>,
    threads: ThreadStats,
    sync: SyncStats,
    mix: InstrMix,
}

impl Machine {
    /// Build a machine for `program` under `config`. Both are validated up
    /// front, so nothing past this point panics on a bad count.
    pub fn new(config: MtaConfig, program: Program) -> Result<Self, MachineError> {
        program.validate().map_err(MachineError::InvalidProgram)?;
        for (field, positive) in [
            ("n_processors", config.n_processors > 0),
            ("streams_per_processor", config.streams_per_processor > 0),
            ("n_banks", config.n_banks > 0),
            ("bank_service", config.bank_service > 0),
        ] {
            if !positive {
                return Err(MachineError::InvalidConfig { field });
            }
        }
        let memory = Memory::new(config.mem_words, config.n_banks, config.bank_service);
        let processors = (0..config.n_processors)
            .map(|_| Processor::new(config.streams_per_processor))
            .collect();
        Ok(Self {
            config,
            program,
            memory,
            processors,
            waiters: HashMap::new(),
            pending_threads: VecDeque::new(),
            next_place: 0,
            cycle: 0,
            faults: Vec::new(),
            threads: ThreadStats::default(),
            sync: SyncStats::default(),
            mix: InstrMix::default(),
        })
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MtaConfig {
        &self.config
    }

    /// Read access to memory (for initializing inputs / reading results).
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Write access to memory (for initializing inputs).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.memory
    }

    /// Start a stream at instruction `entry` with `r1 = arg`, placed
    /// round-robin. Returns an error if every context on every processor
    /// is busy (initial spawns should never queue).
    pub fn spawn(&mut self, entry: usize, arg: u64) -> Result<(), MachineError> {
        if entry >= self.program.len() {
            return Err(MachineError::SpawnOutOfRange {
                entry,
                program_len: self.program.len(),
            });
        }
        if self.place(entry, arg, self.cycle) {
            Ok(())
        } else {
            Err(MachineError::NoFreeContext)
        }
    }

    /// Install a new stream on the next processor, round-robin, that has a
    /// free context, issueable at `ready_at`. `false` if none has.
    fn place(&mut self, entry: usize, arg: u64, ready_at: u64) -> bool {
        let n = self.processors.len();
        for i in 0..n {
            let p = (self.next_place + i) % n;
            if self.processors[p].has_free_slot() {
                self.processors[p].install(Stream::new(entry, arg), ready_at);
                self.next_place = (p + 1) % n;
                return true;
            }
        }
        false
    }

    fn live_total(&self) -> usize {
        self.processors.iter().map(|p| p.live).sum()
    }

    /// Run until every stream halts, a deadlock is detected, or
    /// `max_cycles` elapses.
    pub fn run(&mut self, max_cycles: u64) -> RunResult {
        let mut deadlocked = false;
        let mut done = self.live_total() == 0 && self.pending_threads.is_empty();
        while !done && self.cycle < max_cycles {
            let next_cycle = self.cycle + 1;
            let mut any = false;
            for p in 0..self.processors.len() {
                // Try ready streams until one actually issues; streams
                // blocked on lookahead dependences are rescheduled at
                // their dependence time and do not consume the issue slot.
                while let Some(slot) = self.processors[p].next_to_issue(self.cycle) {
                    if self.try_issue(p, slot) {
                        any = true;
                        break;
                    }
                }
            }
            if any {
                self.cycle = next_cycle;
                done = self.live_total() == 0 && self.pending_threads.is_empty();
                if done || next_cycle >= max_cycles {
                    break;
                }
            }
            // Fast-forward to the next event, straight after an issue too, or detect
            // deadlock (only parked streams remain).
            let now = self.cycle;
            let next = self
                .processors
                .iter_mut()
                .filter_map(|p| p.next_event(now))
                .min();
            match next {
                // Clamp the jump to the budget: a fast-forward past
                // `max_cycles` would make a timed-out run report more
                // cycles than it was allowed to spend, skewing
                // `seconds()`/`utilization()` in sweep tables.
                Some(t) => self.cycle = t.max(next_cycle).min(max_cycles),
                None => {
                    deadlocked = true;
                    break;
                }
            }
        }
        let completed = self.live_total() == 0 && self.pending_threads.is_empty();
        RunResult {
            cycles: self.cycle,
            completed,
            deadlocked,
            faults: self.faults.clone(),
            stats: SimStats {
                streams: StreamStats {
                    issued_per_processor: self.processors.iter().map(|p| p.issued).collect(),
                    issued_per_slot: self
                        .processors
                        .iter()
                        .map(|p| p.issued_per_slot.clone())
                        .collect(),
                    peak_live_per_processor: self.processors.iter().map(|p| p.peak_live).collect(),
                },
                threads: self.threads,
                sync: self.sync,
                memory: self.memory.stats(),
                mix: self.mix,
            },
        }
    }

    /// Kill the stream with a fault message.
    fn fault(&mut self, p: usize, slot: usize, msg: String) {
        self.faults.push(format!("proc {p} slot {slot}: {msg}"));
        self.retire(p, slot);
    }

    /// Free the context of a halted or faulted stream and hand it to the
    /// oldest queued software thread, if any.
    fn retire(&mut self, p: usize, slot: usize) {
        self.processors[p].remove(slot);
        if let Some((entry, arg)) = self.pending_threads.pop_front() {
            let at = self.cycle + self.config.soft_spawn_cost;
            self.processors[p].install(Stream::new(entry, arg), at);
        }
    }

    /// The word at `addr` just became `reached`: re-ready every stream
    /// parked waiting for that, `wake_latency` cycles from now.
    fn wake(&mut self, addr: usize, reached: Wait) {
        if let Some(list) = self.waiters.get_mut(&(addr, reached)) {
            let at = self.cycle + self.config.wake_latency;
            while let Some((wp, wslot)) = list.pop_front() {
                self.processors[wp].stream_mut(wslot).was_woken = true;
                self.processors[wp].make_ready_at(wslot, at);
                self.sync.wakes += 1;
            }
        }
    }

    /// Check lookahead dependences for the stream's next instruction and
    /// either execute it (true) or reschedule the stream at its
    /// dependence-ready time (false).
    fn try_issue(&mut self, p: usize, slot: usize) -> bool {
        if self.config.lookahead > 1 {
            let now = self.cycle;
            let s = self.processors[p].stream_mut(slot);
            if let Some(&instr) = self.program.code.get(s.pc) {
                // The scoreboard: source and destination registers must
                // have arrived; a synchronized operation is a memory
                // fence; a plain one needs a free lookahead slot.
                s.prune_outstanding(now);
                let mut wait = now;
                for r in instr.src_regs().into_iter().flatten() {
                    wait = wait.max(s.reg_ready_at[r as usize]);
                }
                if let Some(rd) = instr.dst_reg() {
                    wait = wait.max(s.reg_ready_at[rd as usize]);
                }
                if instr.is_sync() {
                    wait = wait.max(s.latest_outstanding(now));
                } else if instr.is_memory() && s.outstanding.len() >= self.config.lookahead as usize
                {
                    wait = wait.max(s.earliest_outstanding(now));
                }
                if wait > now {
                    self.processors[p].make_ready_at(slot, wait);
                    return false;
                }
            }
        }
        self.execute(p, slot);
        true
    }

    /// Execute one instruction of the stream in `(p, slot)` at the current
    /// cycle.
    fn execute(&mut self, p: usize, slot: usize) {
        let pc = self.processors[p].stream(slot).pc;
        let Some(&instr) = self.program.code.get(pc) else {
            self.fault(p, slot, format!("pc {pc} ran off the end of the program"));
            return;
        };
        self.processors[p].record_issue(slot);
        if instr.is_sync() {
            self.mix.sync += 1;
        } else if instr.is_memory() {
            self.mix.memory += 1;
        } else if matches!(instr, Instr::Fork { .. } | Instr::Halt) {
            self.mix.thread += 1;
        } else {
            self.mix.alu += 1;
        }

        let issue_done = self.cycle + self.config.issue_latency;
        let mut ready_at = issue_done;
        let mut next_pc = pc + 1;
        // Set by the seven memory and full/empty arms, which share
        // `access`: address operands and what to do to the word.
        let mut mem = None;
        // ALU, float, move and branch instructions touch only the issuing
        // stream; the arms after them reach into the rest of the machine.
        let s = self.processors[p].stream_mut(slot);
        match instr {
            Instr::Li { rd, imm } => s.set_reg(rd, imm as u64),
            Instr::Mov { rd, rs } => s.set_reg(rd, s.reg(rs)),
            Instr::Add { rd, ra, rb } => s.set_reg(rd, s.reg(ra).wrapping_add(s.reg(rb))),
            Instr::Sub { rd, ra, rb } => s.set_reg(rd, s.reg(ra).wrapping_sub(s.reg(rb))),
            Instr::Mul { rd, ra, rb } => s.set_reg(rd, s.reg(ra).wrapping_mul(s.reg(rb))),
            Instr::Div { rd, ra, rb } => {
                let (a, b) = (s.reg(ra) as i64, s.reg(rb) as i64);
                if b == 0 {
                    self.fault(p, slot, "divide by zero".into());
                    return;
                }
                s.set_reg(rd, a.wrapping_div(b) as u64);
            }
            Instr::Addi { rd, ra, imm } => s.set_reg(rd, s.reg(ra).wrapping_add(imm as u64)),
            Instr::Slt { rd, ra, rb } => {
                s.set_reg(rd, ((s.reg(ra) as i64) < (s.reg(rb) as i64)) as u64)
            }
            Instr::FAdd { rd, ra, rb } => s.set_reg_f(rd, s.reg_f(ra) + s.reg_f(rb)),
            Instr::FSub { rd, ra, rb } => s.set_reg_f(rd, s.reg_f(ra) - s.reg_f(rb)),
            Instr::FMul { rd, ra, rb } => s.set_reg_f(rd, s.reg_f(ra) * s.reg_f(rb)),
            Instr::FDiv { rd, ra, rb } => s.set_reg_f(rd, s.reg_f(ra) / s.reg_f(rb)),
            Instr::FMax { rd, ra, rb } => s.set_reg_f(rd, s.reg_f(ra).max(s.reg_f(rb))),
            Instr::FMin { rd, ra, rb } => s.set_reg_f(rd, s.reg_f(ra).min(s.reg_f(rb))),
            Instr::FLt { rd, ra, rb } => s.set_reg(rd, (s.reg_f(ra) < s.reg_f(rb)) as u64),
            Instr::IToF { rd, rs } => s.set_reg_f(rd, s.reg(rs) as i64 as f64),
            Instr::FToI { rd, rs } => s.set_reg(rd, s.reg_f(rs) as i64 as u64),
            Instr::Jmp { target } => next_pc = target,
            Instr::Beq { ra, rb, target } => {
                if s.reg(ra) == s.reg(rb) {
                    next_pc = target;
                }
            }
            Instr::Bne { ra, rb, target } => {
                if s.reg(ra) != s.reg(rb) {
                    next_pc = target;
                }
            }
            Instr::Blt { ra, rb, target } => {
                if (s.reg(ra) as i64) < (s.reg(rb) as i64) {
                    next_pc = target;
                }
            }
            Instr::Bge { ra, rb, target } => {
                if (s.reg(ra) as i64) >= (s.reg(rb) as i64) {
                    next_pc = target;
                }
            }
            Instr::Load { rd, base, offset } => mem = Some((base, offset, MemOp::Load { rd })),
            Instr::Store { rs, base, offset } => mem = Some((base, offset, MemOp::Store { rs })),
            Instr::LoadSync { rd, base, offset } => {
                mem = Some((base, offset, MemOp::LoadSync { rd }))
            }
            Instr::StoreSync { rs, base, offset } => {
                mem = Some((base, offset, MemOp::StoreSync { rs }))
            }
            Instr::ReadFF { rd, base, offset } => mem = Some((base, offset, MemOp::ReadFF { rd })),
            Instr::Put { rs, base, offset } => mem = Some((base, offset, MemOp::Put { rs })),
            Instr::FetchAdd {
                rd,
                base,
                offset,
                rs,
            } => mem = Some((base, offset, MemOp::FetchAdd { rd, rs })),
            Instr::Fork { entry, arg } => {
                let argv = s.reg(arg);
                if self.place(entry, argv, self.cycle + self.config.fork_cost) {
                    self.threads.forks += 1;
                } else {
                    self.pending_threads.push_back((entry, argv));
                    self.threads.soft_spawns += 1;
                }
                ready_at = issue_done + self.config.fork_cost;
            }
            Instr::Halt => {
                self.retire(p, slot);
                return;
            }
        }
        if let Some((base, offset, op)) = mem {
            match self.access(p, slot, base, offset, op) {
                Some(t) => ready_at = t,
                None => return,
            }
        }
        let s = self.processors[p].stream_mut(slot);
        s.was_woken = false;
        s.pc = next_pc;
        self.processors[p].make_ready_at(slot, ready_at);
    }

    /// Perform memory operation `op` on the word at `base + offset`,
    /// resolved and bounds-checked here for all seven kinds. Returns the
    /// cycle at which the stream may issue again, or `None` if it must not
    /// advance: the address faulted, or the word was in the wrong
    /// full/empty state and the stream parked on it (pc unchanged: the
    /// instruction re-executes on wake).
    fn access(&mut self, p: usize, slot: usize, base: Reg, offset: i64, op: MemOp) -> Option<u64> {
        let a = (self.processors[p].stream(slot).reg(base) as i64).wrapping_add(offset);
        let checked = if a < 0 {
            Err(format!("negative address {a}"))
        } else {
            self.memory.check(a as usize)
        };
        if let Err(e) = checked {
            self.fault(p, slot, e);
            return None;
        }
        let addr = a as usize;
        // Completion time: bank queueing + service + network.
        let t = self.memory.schedule_access(addr, self.cycle);
        let completion =
            (t.done + self.config.mem_extra_latency).max(self.cycle + self.config.issue_latency);
        let s = self.processors[p].stream_mut(slot);
        // Plain accesses under lookahead are pipelined: the stream keeps
        // issuing at the pipeline rate and the access joins its in-flight
        // list (a load's result register is scoreboarded until the data
        // returns). Everything else waits for completion.
        let pipelined =
            self.config.lookahead > 1 && matches!(op, MemOp::Load { .. } | MemOp::Store { .. });
        let mut ready_at = completion;
        if pipelined {
            ready_at = self.cycle + self.config.issue_latency;
            s.outstanding.push(completion);
        }
        // What the word's full/empty state machine did: the state it
        // reached (waking the streams parked for that), or the state this
        // stream must wait for.
        let mut reached = None;
        let mut blocked_on = None;
        match op {
            MemOp::Load { rd } => {
                s.set_reg(rd, self.memory.load(addr));
                if pipelined && rd != 0 {
                    s.reg_ready_at[rd as usize] = completion;
                }
            }
            MemOp::Store { rs } => self.memory.store(addr, s.reg(rs)),
            MemOp::LoadSync { rd } => match self.memory.try_take(addr) {
                Some(v) => {
                    s.set_reg(rd, v);
                    reached = Some(Wait::Empty);
                }
                None => blocked_on = Some(Wait::Full),
            },
            MemOp::StoreSync { rs } => {
                if self.memory.try_put_sync(addr, s.reg(rs)) {
                    reached = Some(Wait::Full);
                } else {
                    blocked_on = Some(Wait::Empty);
                }
            }
            MemOp::ReadFF { rd } => match self.memory.try_read_ff(addr) {
                Some(v) => s.set_reg(rd, v),
                None => blocked_on = Some(Wait::Full),
            },
            MemOp::Put { rs } => {
                self.memory.put(addr, s.reg(rs));
                reached = Some(Wait::Full);
            }
            MemOp::FetchAdd { rd, rs } => match self.memory.try_fetch_add(addr, s.reg(rs)) {
                Some(old) => s.set_reg(rd, old),
                None => blocked_on = Some(Wait::Full),
            },
        }
        if let Some(state) = blocked_on {
            // Every park is one full/empty retry; a park of a just-woken
            // stream additionally counts as a repark (it lost the word to
            // another consumer between wake and retry).
            self.sync.blocked += 1;
            if std::mem::take(&mut s.was_woken) {
                self.sync.reparks += 1;
            }
            self.processors[p].park(slot);
            self.waiters
                .entry((addr, state))
                .or_default()
                .push_back((p, slot));
            return None;
        }
        if let Some(state) = reached {
            self.wake(addr, state);
        }
        Some(ready_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;

    fn run_program(f: impl FnOnce(&mut Assembler), procs: usize) -> (Machine, RunResult) {
        let mut a = Assembler::new();
        f(&mut a);
        let program = a.assemble().expect("assembly failed");
        let mut m = Machine::new(
            MtaConfig {
                mem_words: 1 << 16,
                ..MtaConfig::tera(procs)
            },
            program,
        )
        .expect("bad machine");
        m.spawn(0, 0).unwrap();
        let r = m.run(50_000_000);
        (m, r)
    }

    #[test]
    fn empty_halt_program_completes() {
        let (_, r) = run_program(|a| a.halt(), 1);
        assert!(r.completed);
        assert!(!r.deadlocked);
        assert_eq!(r.stats.instructions(), 1);
    }

    #[test]
    fn arithmetic_and_store() {
        let (m, r) = run_program(
            |a| {
                a.li(1, 6);
                a.li(2, 7);
                a.mul(3, 1, 2);
                a.li(4, 100); // address
                a.store(3, 4, 0);
                a.halt();
            },
            1,
        );
        assert!(r.completed);
        assert_eq!(m.memory().load(100), 42);
    }

    #[test]
    fn floating_point_ops() {
        let (m, r) = run_program(
            |a| {
                a.lif(1, 1.5);
                a.lif(2, 2.5);
                a.fadd(3, 1, 2); // 4.0
                a.fmul(4, 3, 3); // 16.0
                a.fdiv(5, 4, 2); // 6.4
                a.li(6, 10);
                a.store(5, 6, 0);
                a.halt();
            },
            1,
        );
        assert!(r.completed);
        assert_eq!(m.memory().load_f64(10), 6.4);
    }

    #[test]
    fn single_stream_issues_once_per_21_cycles() {
        // 100 ALU instructions then halt: cycles ≈ 100 * 21.
        let (_, r) = run_program(
            |a| {
                a.li(1, 100);
                a.label("loop");
                a.addi(1, 1, -1);
                a.bne_l(1, 0, "loop");
                a.halt();
            },
            1,
        );
        assert!(r.completed);
        let instr = r.stats.instructions();
        assert_eq!(instr, 1 + 200 + 1, "li + 100*(addi,bne) + halt");
        // Utilization ≈ 1/21 — the paper's "roughly 5% processor
        // utilization" for single-threaded code.
        let u = r.utilization();
        assert!((u - 1.0 / 21.0).abs() < 0.005, "utilization {u}");
    }

    #[test]
    fn memory_latency_slows_a_single_stream_beyond_21_cycles() {
        // A pointer-chasing loop: every iteration is a load. Cycles per
        // instruction must be ≈ (21 + ~70)/2 > 21.
        let (_, r) = run_program(
            |a| {
                a.li(1, 200); // counter
                a.li(2, 500); // address
                a.label("loop");
                a.load(3, 2, 0);
                a.addi(1, 1, -1);
                a.bne_l(1, 0, "loop");
                a.halt();
            },
            1,
        );
        assert!(r.completed);
        let cpi = r.cycles as f64 / r.stats.instructions() as f64;
        assert!(
            cpi > 25.0,
            "memory ops must stretch CPI past the pipeline depth: {cpi}"
        );
    }

    #[test]
    fn many_streams_reach_high_utilization() {
        // 64 streams of pure ALU work fill the issue slot nearly fully.
        let (_, r) = run_program(
            |a| {
                // main: fork 63 workers, then do the same work itself.
                a.li(2, 63);
                a.label("spawn");
                a.fork_l("work", 0);
                a.addi(2, 2, -1);
                a.bne_l(2, 0, "spawn");
                a.label("work");
                a.li(1, 400);
                a.label("loop");
                a.addi(1, 1, -1);
                a.bne_l(1, 0, "loop");
                a.halt();
            },
            1,
        );
        assert!(r.completed);
        assert_eq!(r.stats.threads.forks, 63);
        let u = r.utilization();
        assert!(u > 0.85, "64 ALU streams should nearly saturate: {u}");
    }

    #[test]
    fn producer_consumer_synchronizes_through_full_empty_bits() {
        // Word 1000 starts EMPTY. Producer writes 5 values with StoreSync,
        // consumer takes them with LoadSync and accumulates into word 1001.
        let mut a = Assembler::new();
        // main: set up then fork producer and consumer... main IS producer.
        a.li(2, 1000); // channel address
        a.fork_l("consumer", 0);
        a.li(1, 1);
        a.label("produce");
        a.store_sync(1, 2, 0); // waits empty
        a.addi(1, 1, 1);
        a.li(3, 6);
        a.bne_l(1, 3, "produce");
        a.halt();
        a.label("consumer");
        a.li(2, 1000);
        a.li(4, 0); // sum
        a.li(5, 5); // count
        a.label("consume");
        a.load_sync(3, 2, 0); // waits full
        a.add(4, 4, 3);
        // Slow consumer: a delay loop, so the producer runs ahead and must
        // block on the full channel word.
        a.li(7, 40);
        a.label("delay");
        a.addi(7, 7, -1);
        a.bne_l(7, 0, "delay");
        a.addi(5, 5, -1);
        a.bne_l(5, 0, "consume");
        a.li(6, 1001);
        a.store(4, 6, 0);
        a.halt();
        let program = a.assemble().unwrap();
        let mut m = Machine::new(
            MtaConfig {
                mem_words: 1 << 12,
                ..MtaConfig::tera(1)
            },
            program,
        )
        .unwrap();
        m.memory_mut().set_empty(1000);
        m.spawn(0, 0).unwrap();
        let r = m.run(10_000_000);
        assert!(r.completed, "run did not complete: {r:?}");
        assert_eq!(m.memory().load(1001), 1 + 2 + 3 + 4 + 5);
        assert!(
            r.stats.sync.blocked > 0,
            "the rendezvous must actually block"
        );
        assert!(r.stats.sync.wakes > 0);
    }

    #[test]
    fn fetch_add_allocates_unique_slots() {
        // 8 workers each fetch_add(1) on a counter at word 2000, writing
        // their ticket to 2100+ticket. All tickets 0..8 must be written.
        let mut a = Assembler::new();
        a.li(2, 8);
        a.label("spawn");
        a.fork_l("work", 0);
        a.addi(2, 2, -1);
        a.bne_l(2, 0, "spawn");
        a.halt();
        a.label("work");
        a.li(3, 2000);
        a.li(4, 1);
        a.fetch_add(5, 3, 0, 4); // r5 = ticket
        a.li(6, 2100);
        a.add(6, 6, 5);
        a.store(4, 6, 0); // mark ticket claimed
        a.halt();
        let program = a.assemble().unwrap();
        let mut m = Machine::new(
            MtaConfig {
                mem_words: 1 << 12,
                ..MtaConfig::tera(2)
            },
            program,
        )
        .unwrap();
        m.spawn(0, 0).unwrap();
        let r = m.run(10_000_000);
        assert!(r.completed);
        for t in 0..8 {
            assert_eq!(m.memory().load(2100 + t), 1, "ticket {t} unclaimed");
        }
        assert_eq!(m.memory().load(2000), 8);
    }

    #[test]
    fn deadlock_is_detected() {
        // A single stream takes from an empty word that nobody fills.
        let single = "li r2, 100\n loadsync r3, 0(r2)\n halt";
        // Four forked workers, placed round-robin over the processors,
        // each take from their own word (1000 + id) that stays empty: every
        // live stream ends up parked, on more than one processor.
        let spread = "
                    li r2, 0
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
                    halt";
        let single = crate::asm_text::assemble_text(single).unwrap();
        let spread = crate::asm_text::assemble_text(spread).unwrap();
        for (program, procs, empties) in [
            (single, 1, 100..101),
            (spread.clone(), 2, 1000..1004),
            (spread, 4, 1000..1004),
        ] {
            let mut m = Machine::new(
                MtaConfig {
                    mem_words: 1 << 12,
                    ..MtaConfig::tera(procs)
                },
                program,
            )
            .unwrap();
            for addr in empties {
                m.memory_mut().set_empty(addr);
            }
            m.spawn(0, 0).unwrap();
            let r = m.run(1_000_000);
            assert!(r.deadlocked && !r.completed, "{procs} processors: {r:?}");
            let used = r.stats.streams.peak_live_per_processor;
            assert!(
                used.iter().all(|&n| n > 0),
                "parked streams must span all {procs} processors: {used:?}"
            );
        }
    }

    #[test]
    fn invalid_program_is_a_typed_error() {
        let jump_past_end = Program::new(vec![Instr::Jmp { target: 7 }]);
        let err = Machine::new(MtaConfig::tera(1), jump_past_end)
            .err()
            .unwrap();
        assert!(matches!(err, MachineError::InvalidProgram(_)), "{err}");
        assert!(err.to_string().contains("branch target 7"), "{err}");
    }

    #[test]
    fn degenerate_config_is_a_typed_error_not_a_panic() {
        type Zero = fn(&mut MtaConfig);
        let zeros: [(&str, Zero); 4] = [
            ("n_processors", |c| c.n_processors = 0),
            ("streams_per_processor", |c| c.streams_per_processor = 0),
            ("n_banks", |c| c.n_banks = 0),
            ("bank_service", |c| c.bank_service = 0),
        ];
        for (field, zero) in zeros {
            let mut cfg = MtaConfig::tera(1);
            zero(&mut cfg);
            let err = Machine::new(cfg, Program::new(vec![Instr::Halt]))
                .err()
                .unwrap();
            assert_eq!(err, MachineError::InvalidConfig { field });
            assert!(err.to_string().contains(field), "{err}");
        }
    }

    #[test]
    fn spawn_failures_are_typed_errors() {
        let cfg = MtaConfig {
            streams_per_processor: 2,
            mem_words: 16,
            ..MtaConfig::tera(2)
        };
        let mut m = Machine::new(cfg, Program::new(vec![Instr::Halt])).unwrap();
        let past_end = MachineError::SpawnOutOfRange {
            entry: 1,
            program_len: 1,
        };
        assert_eq!(m.spawn(1, 0), Err(past_end));
        for _ in 0..4 {
            m.spawn(0, 0).unwrap();
        }
        assert_eq!(m.spawn(0, 0), Err(MachineError::NoFreeContext));
    }

    #[test]
    fn out_of_bounds_access_faults_the_stream() {
        let (_, r) = run_program(
            |a| {
                a.li(2, 1 << 20); // beyond the 1<<16 test memory
                a.load(3, 2, 0);
                a.halt();
            },
            1,
        );
        assert!(!r.faults.is_empty());
        assert!(r.faults[0].contains("out of range"));
    }

    #[test]
    fn divide_by_zero_faults() {
        let (_, r) = run_program(
            |a| {
                a.li(1, 5);
                a.div(3, 1, 0);
                a.halt();
            },
            1,
        );
        assert!(!r.faults.is_empty());
        assert!(r.faults[0].contains("divide by zero"));
    }

    #[test]
    fn software_threads_queue_when_contexts_are_exhausted() {
        // 1 processor with only 4 stream contexts, forking 10 workers.
        let mut a = Assembler::new();
        a.li(2, 10);
        a.label("spawn");
        a.fork_l("work", 0);
        a.addi(2, 2, -1);
        a.bne_l(2, 0, "spawn");
        a.halt();
        a.label("work");
        // Long-lived workers keep all contexts busy while main keeps
        // forking, so later forks must queue as software threads.
        a.li(6, 200);
        a.label("busy");
        a.addi(6, 6, -1);
        a.bne_l(6, 0, "busy");
        a.li(3, 3000);
        a.li(4, 1);
        a.fetch_add(5, 3, 0, 4);
        a.halt();
        let program = a.assemble().unwrap();
        let cfg = MtaConfig {
            streams_per_processor: 4,
            mem_words: 1 << 12,
            ..MtaConfig::tera(1)
        };
        let mut m = Machine::new(cfg, program).unwrap();
        m.spawn(0, 0).unwrap();
        let r = m.run(10_000_000);
        assert!(r.completed, "{r:?}");
        assert!(
            r.stats.threads.soft_spawns > 0,
            "some workers must have queued"
        );
        assert_eq!(
            m.memory().load(3000),
            10,
            "all 10 workers must eventually run"
        );
    }

    #[test]
    fn forks_spread_across_processors() {
        let mut a = Assembler::new();
        a.li(2, 16);
        a.label("spawn");
        a.fork_l("work", 0);
        a.addi(2, 2, -1);
        a.bne_l(2, 0, "spawn");
        a.halt();
        a.label("work");
        a.li(1, 50);
        a.label("loop");
        a.addi(1, 1, -1);
        a.bne_l(1, 0, "loop");
        a.halt();
        let program = a.assemble().unwrap();
        let mut m = Machine::new(
            MtaConfig {
                mem_words: 1 << 12,
                ..MtaConfig::tera(2)
            },
            program,
        )
        .unwrap();
        m.spawn(0, 0).unwrap();
        let r = m.run(10_000_000);
        assert!(r.completed);
        assert!(r.stats.streams.peak_live_per_processor[0] > 1);
        assert!(
            r.stats.streams.peak_live_per_processor[1] > 1,
            "{:?}",
            r.stats.streams.peak_live_per_processor
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let build = || {
            let mut a = Assembler::new();
            a.li(2, 12);
            a.label("spawn");
            a.fork_l("work", 2);
            a.addi(2, 2, -1);
            a.bne_l(2, 0, "spawn");
            a.halt();
            a.label("work");
            a.li(3, 4000);
            a.add(3, 3, 1);
            a.li(4, 7);
            a.store(4, 3, 0);
            a.li(5, 30);
            a.label("loop");
            a.addi(5, 5, -1);
            a.bne_l(5, 0, "loop");
            a.halt();
            a.assemble().unwrap()
        };
        let run = || {
            let mut m = Machine::new(
                MtaConfig {
                    mem_words: 1 << 13,
                    ..MtaConfig::tera(2)
                },
                build(),
            )
            .unwrap();
            m.spawn(0, 0).unwrap();
            m.run(10_000_000)
        };
        let r1 = run();
        let r2 = run();
        assert_eq!(r1, r2, "simulation must be deterministic");
    }

    #[test]
    fn instruction_mix_is_recorded() {
        let (_, r) = run_program(
            |a| {
                a.li(2, 100); // alu
                a.li(3, 1); // alu
                a.store(3, 2, 0); // memory
                a.fetch_add(4, 2, 0, 3); // sync
                a.halt(); // thread
            },
            1,
        );
        assert_eq!(r.stats.mix.alu, 2);
        assert_eq!(r.stats.mix.memory, 1);
        assert_eq!(r.stats.mix.sync, 1);
        assert_eq!(r.stats.mix.thread, 1);
        assert!((r.stats.mix.mem_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn per_slot_issue_counts_sum_to_per_processor_totals() {
        let (_, r) = run_program(
            |a| {
                a.li(2, 6);
                a.label("spawn");
                a.fork_l("work", 0);
                a.addi(2, 2, -1);
                a.bne_l(2, 0, "spawn");
                a.label("work");
                a.li(1, 50);
                a.label("loop");
                a.addi(1, 1, -1);
                a.bne_l(1, 0, "loop");
                a.halt();
            },
            1,
        );
        assert!(r.completed);
        let s = &r.stats.streams;
        assert_eq!(s.issued_per_slot.len(), s.issued_per_processor.len());
        for (proc_total, slots) in s.issued_per_processor.iter().zip(&s.issued_per_slot) {
            assert_eq!(slots.iter().sum::<u64>(), *proc_total);
        }
        // 7 streams ran on one processor, so at least 7 slots issued.
        assert!(s.issued_per_slot[0].iter().filter(|&&n| n > 0).count() >= 7);
    }

    #[test]
    fn contended_fetch_add_counts_reparks() {
        // Many workers fetch_add on a word that main toggles empty/full
        // through a StoreSync chain is hard to arrange; instead park many
        // consumers on one empty word and publish it once: every woken
        // consumer races to take it, exactly one wins per publish, the
        // losers re-park — those are reparks.
        let mut a = Assembler::new();
        a.li(2, 4); // fork 4 consumers
        a.label("spawn");
        a.fork_l("consume", 0);
        a.addi(2, 2, -1);
        a.bne_l(2, 0, "spawn");
        // main: delay so all consumers park, then publish 4 values.
        a.li(7, 200);
        a.label("delay");
        a.addi(7, 7, -1);
        a.bne_l(7, 0, "delay");
        a.li(1, 4);
        a.li(3, 1000);
        a.label("produce");
        a.store_sync(0, 3, 0); // waits empty, publishes 0
        a.addi(1, 1, -1);
        a.bne_l(1, 0, "produce");
        a.halt();
        a.label("consume");
        a.li(3, 1000);
        a.load_sync(4, 3, 0); // take one value
        a.li(5, 1001);
        a.li(6, 1);
        a.fetch_add(4, 5, 0, 6); // count completions
        a.halt();
        let program = a.assemble().unwrap();
        let mut m = Machine::new(
            MtaConfig {
                mem_words: 1 << 12,
                ..MtaConfig::tera(1)
            },
            program,
        )
        .unwrap();
        m.memory_mut().set_empty(1000);
        m.spawn(0, 0).unwrap();
        let r = m.run(10_000_000);
        assert!(r.completed, "{r:?}");
        assert_eq!(m.memory().load(1001), 4, "all four consumers finish");
        let sync = r.stats.sync;
        assert!(sync.blocked > 0);
        assert!(
            sync.reparks > 0,
            "woken consumers racing for one word must repark: {sync:?}"
        );
        assert!(
            sync.reparks < sync.blocked,
            "a repark is a subset of blocks: {sync:?}"
        );
    }

    #[test]
    fn uncontended_sync_has_no_reparks() {
        // One producer, one consumer, one channel word: a woken stream
        // always finds the state it was woken for, so reparks stay 0 even
        // though blocking happens.
        let mut a = Assembler::new();
        a.li(2, 1000);
        a.fork_l("consumer", 0);
        a.li(1, 1);
        a.label("produce");
        a.store_sync(1, 2, 0);
        a.addi(1, 1, 1);
        a.li(3, 6);
        a.bne_l(1, 3, "produce");
        a.halt();
        a.label("consumer");
        a.li(2, 1000);
        a.li(5, 5);
        a.label("consume");
        a.load_sync(3, 2, 0);
        a.addi(5, 5, -1);
        a.bne_l(5, 0, "consume");
        a.halt();
        let program = a.assemble().unwrap();
        let mut m = Machine::new(
            MtaConfig {
                mem_words: 1 << 12,
                ..MtaConfig::tera(1)
            },
            program,
        )
        .unwrap();
        m.memory_mut().set_empty(1000);
        m.spawn(0, 0).unwrap();
        let r = m.run(10_000_000);
        assert!(r.completed, "{r:?}");
        assert!(r.stats.sync.blocked > 0, "{:?}", r.stats.sync);
        assert_eq!(
            r.stats.sync.reparks, 0,
            "one producer + one consumer never race: {:?}",
            r.stats.sync
        );
    }

    #[test]
    fn lookahead_hides_latency_of_independent_loads() {
        // A single stream issuing back-to-back independent loads: with
        // lookahead 1 each load blocks (~91 cycles/instr on the load);
        // with lookahead 8 the stream keeps issuing at the pipeline rate.
        let build = || {
            let mut a = Assembler::new();
            a.li(1, 100); // counter
            a.li(2, 1000); // address
            a.label("loop");
            a.load(3, 2, 0);
            a.load(4, 2, 1);
            a.load(5, 2, 2);
            a.load(6, 2, 3);
            a.addi(2, 2, 4);
            a.addi(1, 1, -1);
            a.bne_l(1, 0, "loop");
            a.halt();
            a.assemble().unwrap()
        };
        let run = |lookahead: u64| {
            let cfg = MtaConfig {
                mem_words: 1 << 16,
                lookahead,
                ..MtaConfig::tera(1)
            };
            let mut m = Machine::new(cfg, build()).unwrap();
            m.spawn(0, 0).unwrap();
            let r = m.run(50_000_000);
            assert!(r.completed, "{r:?}");
            r.cycles as f64 / r.stats.instructions() as f64
        };
        let cpi_blocking = run(1);
        let cpi_lookahead = run(8);
        // Blocking: ~(4*70 + 3*21)/7 = 49 cycles/instr.
        assert!(cpi_blocking > 40.0, "blocking CPI {cpi_blocking}");
        assert!(
            cpi_lookahead < 25.0,
            "lookahead must hide independent-load latency: {cpi_lookahead}"
        );
    }

    #[test]
    fn dependent_load_chain_defeats_lookahead() {
        // Pointer chase: each load's address comes from the previous load,
        // so lookahead cannot overlap anything.
        let build = || {
            let mut a = Assembler::new();
            a.li(1, 150);
            a.li(2, 1000);
            a.label("loop");
            a.load(2, 2, 0); // r2 = mem[r2] (RAW chain)
            a.addi(1, 1, -1);
            a.bne_l(1, 0, "loop");
            a.halt();
            a.assemble().unwrap()
        };
        let run = |lookahead: u64| {
            let cfg = MtaConfig {
                mem_words: 1 << 16,
                lookahead,
                ..MtaConfig::tera(1)
            };
            let mut m = Machine::new(cfg, build()).unwrap();
            // Make the chase walk in place: mem[1000] = 1000.
            m.memory_mut().store(1000, 1000);
            m.spawn(0, 0).unwrap();
            let r = m.run(50_000_000);
            assert!(r.completed);
            r.cycles
        };
        let blocking = run(1);
        let lookahead = run(8);
        // Lookahead may hide the loop overhead (addi/bne) behind the
        // load, but never the load-to-load dependence itself: the
        // per-iteration time stays pinned at the ~70-cycle memory
        // latency instead of dropping to the ~21-cycle pipeline rate.
        let per_iter = lookahead as f64 / 150.0;
        assert!(
            (60.0..100.0).contains(&per_iter),
            "chased loads must stay latency-bound: {per_iter} cycles/iter"
        );
        assert!(blocking > lookahead, "hiding loop overhead is still a win");
    }

    #[test]
    fn lookahead_respects_the_outstanding_budget() {
        // 16 independent loads in a burst: lookahead 2 must be slower
        // than lookahead 8 (budget exhaustion stalls the stream).
        let build = || {
            let mut a = Assembler::new();
            a.li(2, 1000);
            for i in 0..16 {
                a.load((3 + (i % 8)) as u8, 2, i);
            }
            a.halt();
            a.assemble().unwrap()
        };
        let run = |lookahead: u64| {
            let cfg = MtaConfig {
                mem_words: 1 << 16,
                lookahead,
                ..MtaConfig::tera(1)
            };
            let mut m = Machine::new(cfg, build()).unwrap();
            m.spawn(0, 0).unwrap();
            let r = m.run(10_000_000);
            assert!(r.completed);
            r.cycles
        };
        let la2 = run(2);
        let la8 = run(8);
        assert!(
            la2 > la8,
            "narrow lookahead must stall more: la2={la2} la8={la8}"
        );
    }

    #[test]
    fn lookahead_preserves_results_and_sync_fencing() {
        // Store then LoadSync on the same channel under lookahead: the
        // sync op fences, so the rendezvous still works and the computed
        // values are identical to the blocking configuration.
        let build = || {
            let mut a = Assembler::new();
            a.li(1, 50);
            a.li(2, 2000); // output base
            a.li(4, 0); // accumulator
            a.label("loop");
            a.load(5, 2, -1000); // independent input load
            a.add(4, 4, 5);
            a.store(4, 2, 0);
            a.addi(2, 2, 1);
            a.addi(1, 1, -1);
            a.bne_l(1, 0, "loop");
            a.halt();
            a.assemble().unwrap()
        };
        let run = |lookahead: u64| {
            let cfg = MtaConfig {
                mem_words: 1 << 16,
                lookahead,
                ..MtaConfig::tera(1)
            };
            let mut m = Machine::new(cfg, build()).unwrap();
            m.memory_mut().store(1000, 3);
            m.spawn(0, 0).unwrap();
            let r = m.run(10_000_000);
            assert!(r.completed);
            let out: Vec<u64> = (0..50).map(|i| m.memory().load(2000 + i)).collect();
            out
        };
        assert_eq!(run(1), run(8), "lookahead must not change program results");
    }

    #[test]
    fn timeout_reports_incomplete() {
        let (_, r) = run_program(
            |a| {
                a.label("forever");
                a.jmp_l("forever");
            },
            1,
        );
        assert!(!r.completed);
        assert!(!r.deadlocked);
    }

    #[test]
    fn fast_forward_never_overshoots_the_cycle_budget() {
        // A single stream issues one load at cycle 0 and is then not ready
        // again until the memory latency has elapsed (~91 cycles for the
        // Tera parameters). With a budget of 5 cycles the fast-forward
        // used to jump straight to the next event and report ~91 cycles —
        // more than the budget — skewing seconds()/utilization() in sweep
        // tables. The reported cycle count must be clamped to the budget.
        let mut a = Assembler::new();
        a.li(1, 1000);
        a.load(2, 1, 0);
        a.load(3, 1, 0);
        a.halt();
        let mut m = Machine::new(
            MtaConfig {
                mem_words: 1 << 16,
                ..MtaConfig::tera(1)
            },
            a.assemble().unwrap(),
        )
        .unwrap();
        m.spawn(0, 0).unwrap();
        let max = 5;
        let r = m.run(max);
        assert!(!r.completed);
        assert_eq!(
            r.cycles, max,
            "timed-out run must report exactly its budget"
        );
    }

    #[test]
    fn seconds_rejects_degenerate_clock_rates() {
        let (_, r) = run_program(|a| a.halt(), 1);
        for bad in [0.0, -255.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = r.seconds(bad).expect_err("degenerate clock must error");
            assert!(err.to_string().contains("finite and positive"), "{err}");
        }
        let ok = r.seconds(255.0).unwrap();
        assert!(ok.is_finite() && ok >= 0.0);
        assert_eq!(ok, r.cycles as f64 / 255.0e6);
    }

    #[test]
    fn utilization_is_finite_for_degenerate_results() {
        // Zero cycles and zero processors both used to divide by zero.
        let empty = RunResult {
            cycles: 0,
            completed: false,
            deadlocked: false,
            faults: Vec::new(),
            stats: SimStats::default(),
        };
        assert_eq!(empty.utilization(), 0.0);
        let (_, real) = run_program(|a| a.halt(), 1);
        assert!(real.utilization().is_finite());
    }
}
