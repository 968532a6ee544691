//! The register IR executed by the simulator.
//!
//! A deliberately small, RISC-style instruction set with the Tera-specific
//! additions that matter to the paper: synchronized (full/empty) memory
//! operations, an atomic fetch-and-add, and hardware thread creation.
//!
//! Each stream has 32 general-purpose 64-bit registers (`r0` is hardwired
//! to zero, as on most RISC machines). Floating-point values live in the
//! same registers as IEEE-754 bit patterns; the `F*` instructions interpret
//! them as `f64`.

/// A register index, `0..NUM_REGS`. Register 0 always reads as zero.
pub type Reg = u8;

/// Number of general-purpose registers per stream.
pub const NUM_REGS: usize = 32;

/// A branch/jump target: an instruction index in the assembled program.
pub type Target = usize;

/// One instruction of the simulator IR.
///
/// Memory addresses are in *words*; the effective address of a memory
/// operation is `regs[base] + offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    // ── moves and integer ALU ────────────────────────────────────────────
    /// `rd = imm`
    Li { rd: Reg, imm: i64 },
    /// `rd = rs`
    Mov { rd: Reg, rs: Reg },
    /// `rd = ra + rb` (wrapping)
    Add { rd: Reg, ra: Reg, rb: Reg },
    /// `rd = ra - rb` (wrapping)
    Sub { rd: Reg, ra: Reg, rb: Reg },
    /// `rd = ra * rb` (wrapping)
    Mul { rd: Reg, ra: Reg, rb: Reg },
    /// `rd = ra / rb` (signed; divide-by-zero halts the stream with an error)
    Div { rd: Reg, ra: Reg, rb: Reg },
    /// `rd = ra + imm` (wrapping)
    Addi { rd: Reg, ra: Reg, imm: i64 },
    /// `rd = (ra < rb) ? 1 : 0` (signed)
    Slt { rd: Reg, ra: Reg, rb: Reg },

    // ── floating point (f64 bit patterns in integer registers) ──────────
    /// `rd = ra + rb` as f64
    FAdd { rd: Reg, ra: Reg, rb: Reg },
    /// `rd = ra - rb` as f64
    FSub { rd: Reg, ra: Reg, rb: Reg },
    /// `rd = ra * rb` as f64
    FMul { rd: Reg, ra: Reg, rb: Reg },
    /// `rd = ra / rb` as f64
    FDiv { rd: Reg, ra: Reg, rb: Reg },
    /// `rd = max(ra, rb)` as f64
    FMax { rd: Reg, ra: Reg, rb: Reg },
    /// `rd = min(ra, rb)` as f64
    FMin { rd: Reg, ra: Reg, rb: Reg },
    /// `rd = (f64)(i64)ra`
    IToF { rd: Reg, rs: Reg },

    // ── control flow ─────────────────────────────────────────────────────
    /// Unconditional jump.
    Jmp { target: Target },
    /// Branch if `ra == rb`.
    Beq { ra: Reg, rb: Reg, target: Target },
    /// Branch if `ra != rb`.
    Bne { ra: Reg, rb: Reg, target: Target },
    /// Branch if `ra < rb` (signed).
    Blt { ra: Reg, rb: Reg, target: Target },
    /// Branch if `ra >= rb` (signed).
    Bge { ra: Reg, rb: Reg, target: Target },

    // ── ordinary memory (ignores full/empty bits) ────────────────────────
    /// `rd = mem[base + offset]`
    Load { rd: Reg, base: Reg, offset: i64 },
    /// `mem[base + offset] = rs`
    Store { rs: Reg, base: Reg, offset: i64 },

    // ── synchronized memory (full/empty bits) ────────────────────────────
    /// Wait until the word is **full**, read it, set it **empty**.
    LoadSync { rd: Reg, base: Reg, offset: i64 },
    /// Wait until the word is **empty**, write it, set it **full**.
    StoreSync { rs: Reg, base: Reg, offset: i64 },
    /// Wait until the word is **full**, read it, *leave it full*.
    ReadFF { rd: Reg, base: Reg, offset: i64 },
    /// Write the word unconditionally and set it **full** (producer
    /// publish; resolves a future).
    Put { rs: Reg, base: Reg, offset: i64 },
    /// Atomic fetch-and-add on a **full** word: `rd = mem[addr]`,
    /// `mem[addr] += rs`; waits if the word is empty.
    FetchAdd {
        rd: Reg,
        base: Reg,
        offset: i64,
        rs: Reg,
    },

    // ── threads ──────────────────────────────────────────────────────────
    /// Create a new stream starting at `entry` with its `r1` set to this
    /// stream's `arg` register (all other registers zero). Costs
    /// `fork_cost` extra cycles on the forking stream. The machine places
    /// the new stream on a processor round-robin; if every hardware stream
    /// context is busy the logical thread queues until one frees (the
    /// "software thread" case, charged `soft_spawn_cost`).
    Fork { entry: Target, arg: Reg },
    /// Terminate this stream.
    Halt,
}

impl Instr {
    /// Whether this instruction accesses memory (and therefore pays memory
    /// latency and occupies a bank).
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            Instr::Load { .. }
                | Instr::Store { .. }
                | Instr::LoadSync { .. }
                | Instr::StoreSync { .. }
                | Instr::ReadFF { .. }
                | Instr::Put { .. }
                | Instr::FetchAdd { .. }
        )
    }

    /// The branch target or fork entry, if this instruction has one: the
    /// field [`crate::asm::Assembler::assemble`] patches with a label's
    /// address.
    pub fn target_mut(&mut self) -> Option<&mut Target> {
        match self {
            Instr::Jmp { target }
            | Instr::Beq { target, .. }
            | Instr::Bne { target, .. }
            | Instr::Blt { target, .. }
            | Instr::Bge { target, .. } => Some(target),
            Instr::Fork { entry, .. } => Some(entry),
            _ => None,
        }
    }

    /// Whether this instruction synchronizes on full/empty bits.
    pub fn is_sync(&self) -> bool {
        matches!(
            self,
            Instr::LoadSync { .. }
                | Instr::StoreSync { .. }
                | Instr::ReadFF { .. }
                | Instr::FetchAdd { .. }
        )
    }
}

/// An assembled program: a flat instruction sequence with resolved branch
/// targets, shared by all streams of a machine.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// The instructions; `Target`s index into this vector.
    pub code: Vec<Instr>,
}

impl Program {
    /// Wrap a raw instruction sequence (targets must already be resolved).
    pub fn new(code: Vec<Instr>) -> Self {
        Self { code }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Validate static properties: register indices in range, branch
    /// targets inside the program, `r0` never written.
    pub fn validate(&self) -> Result<(), String> {
        let check_reg = |r: Reg, what: &str, i: usize| -> Result<(), String> {
            if (r as usize) >= NUM_REGS {
                Err(format!("instr {i}: {what} register r{r} out of range"))
            } else {
                Ok(())
            }
        };
        let check_rd = |r: Reg, i: usize| -> Result<(), String> {
            check_reg(r, "destination", i)?;
            if r == 0 {
                Err(format!("instr {i}: r0 is read-only"))
            } else {
                Ok(())
            }
        };
        let check_target = |t: Target, i: usize| -> Result<(), String> {
            if t >= self.code.len() {
                Err(format!("instr {i}: branch target {t} out of range"))
            } else {
                Ok(())
            }
        };
        for (i, instr) in self.code.iter().enumerate() {
            match *instr {
                Instr::Li { rd, .. } | Instr::IToF { rd, .. } | Instr::Mov { rd, .. } => {
                    check_rd(rd, i)?
                }
                Instr::Add { rd, ra, rb }
                | Instr::Sub { rd, ra, rb }
                | Instr::Mul { rd, ra, rb }
                | Instr::Div { rd, ra, rb }
                | Instr::Slt { rd, ra, rb }
                | Instr::FAdd { rd, ra, rb }
                | Instr::FSub { rd, ra, rb }
                | Instr::FMul { rd, ra, rb }
                | Instr::FDiv { rd, ra, rb }
                | Instr::FMax { rd, ra, rb }
                | Instr::FMin { rd, ra, rb } => {
                    check_rd(rd, i)?;
                    check_reg(ra, "source", i)?;
                    check_reg(rb, "source", i)?;
                }
                Instr::Addi { rd, ra, .. } => {
                    check_rd(rd, i)?;
                    check_reg(ra, "source", i)?;
                }
                Instr::Jmp { target } => check_target(target, i)?,
                Instr::Beq { ra, rb, target }
                | Instr::Bne { ra, rb, target }
                | Instr::Blt { ra, rb, target }
                | Instr::Bge { ra, rb, target } => {
                    check_reg(ra, "source", i)?;
                    check_reg(rb, "source", i)?;
                    check_target(target, i)?;
                }
                Instr::Load { rd, base, .. }
                | Instr::LoadSync { rd, base, .. }
                | Instr::ReadFF { rd, base, .. } => {
                    check_rd(rd, i)?;
                    check_reg(base, "base", i)?;
                }
                Instr::Store { rs, base, .. }
                | Instr::StoreSync { rs, base, .. }
                | Instr::Put { rs, base, .. } => {
                    check_reg(rs, "source", i)?;
                    check_reg(base, "base", i)?;
                }
                Instr::FetchAdd { rd, base, rs, .. } => {
                    check_rd(rd, i)?;
                    check_reg(base, "base", i)?;
                    check_reg(rs, "source", i)?;
                }
                Instr::Fork { entry, arg } => {
                    check_target(entry, i)?;
                    check_reg(arg, "argument", i)?;
                }
                Instr::Halt => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_classification() {
        assert!(Instr::Load {
            rd: 1,
            base: 2,
            offset: 0
        }
        .is_memory());
        assert!(Instr::StoreSync {
            rs: 1,
            base: 2,
            offset: 0
        }
        .is_memory());
        assert!(Instr::FetchAdd {
            rd: 1,
            base: 2,
            offset: 0,
            rs: 3
        }
        .is_memory());
        assert!(!Instr::Add {
            rd: 1,
            ra: 2,
            rb: 3
        }
        .is_memory());
        assert!(!Instr::Halt.is_memory());
    }

    #[test]
    fn sync_classification() {
        assert!(Instr::LoadSync {
            rd: 1,
            base: 2,
            offset: 0
        }
        .is_sync());
        assert!(Instr::ReadFF {
            rd: 1,
            base: 2,
            offset: 0
        }
        .is_sync());
        assert!(!Instr::Load {
            rd: 1,
            base: 2,
            offset: 0
        }
        .is_sync());
        assert!(!Instr::Put {
            rs: 1,
            base: 2,
            offset: 0
        }
        .is_sync());
    }

    #[test]
    fn validate_accepts_a_correct_program() {
        let p = Program::new(vec![
            Instr::Li { rd: 1, imm: 5 },
            Instr::Add {
                rd: 2,
                ra: 1,
                rb: 1,
            },
            Instr::Bne {
                ra: 2,
                rb: 0,
                target: 3,
            },
            Instr::Halt,
        ]);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validate_rejects_write_to_r0() {
        let p = Program::new(vec![Instr::Li { rd: 0, imm: 5 }, Instr::Halt]);
        assert!(p.validate().unwrap_err().contains("r0"));
    }

    #[test]
    fn validate_rejects_out_of_range_register() {
        let p = Program::new(vec![
            Instr::Add {
                rd: 40,
                ra: 1,
                rb: 2,
            },
            Instr::Halt,
        ]);
        assert!(p.validate().unwrap_err().contains("out of range"));
    }

    #[test]
    fn validate_rejects_bad_branch_target() {
        let p = Program::new(vec![Instr::Jmp { target: 99 }]);
        assert!(p.validate().unwrap_err().contains("target"));
    }
}
