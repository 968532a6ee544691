//! A timing-free reference interpreter for the simulator IR.
//!
//! [`run_reference`] executes a single-stream program with plain
//! sequential semantics — no pipeline, no banks, no stream scheduling.
//! Because the cycle-level [`crate::Machine`] must compute the *same
//! values* regardless of all its timing machinery, the reference
//! interpreter serves as a differential-testing oracle: property tests
//! generate random programs and require identical final register and
//! memory states (see `tests/reference.rs`).
//!
//! Only single-stream, non-blocking programs are supported: `Fork` is
//! rejected, and a synchronized operation that would block is reported as
//! [`RefOutcome::Blocked`] (the machine equivalent is a deadlock).

use crate::ir::{Instr, Program, NUM_REGS};

/// Result of a reference run.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // the register file is the payload of interest
pub enum RefOutcome {
    /// Program halted normally.
    Halted {
        /// Final register file.
        regs: [u64; NUM_REGS],
        /// Instructions executed.
        executed: u64,
    },
    /// A synchronized operation would block forever.
    Blocked {
        /// Index of the blocking instruction.
        at: usize,
    },
    /// A fault (address out of range, divide by zero).
    Fault {
        /// Description.
        msg: String,
    },
    /// The step budget ran out (probable infinite loop).
    OutOfFuel,
}

/// Execute `program` as a single stream against `memory` (data +
/// full/empty bits mutated in place), starting at instruction 0 with
/// `r1 = arg`. `fuel` bounds the number of executed instructions.
pub fn run_reference(
    program: &Program,
    memory: &mut crate::memory::Memory,
    arg: u64,
    fuel: u64,
) -> RefOutcome {
    let mut regs = [0u64; NUM_REGS];
    regs[1] = arg;
    let mut pc = 0usize;
    let mut executed = 0u64;

    let get = |regs: &[u64; NUM_REGS], r: u8| regs[r as usize];
    let getf = |regs: &[u64; NUM_REGS], r: u8| f64::from_bits(regs[r as usize]);

    macro_rules! set {
        ($rd:expr, $v:expr) => {
            if $rd != 0 {
                regs[$rd as usize] = $v;
            }
        };
    }
    macro_rules! setf {
        ($rd:expr, $v:expr) => {
            set!($rd, ($v).to_bits())
        };
    }

    while executed < fuel {
        let Some(&instr) = program.code.get(pc) else {
            return RefOutcome::Fault {
                msg: format!("pc {pc} out of range"),
            };
        };
        executed += 1;
        let mut next = pc + 1;
        let addr_of = |regs: &[u64; NUM_REGS], base: u8, off: i64| -> Result<usize, String> {
            let a = (get(regs, base) as i64).wrapping_add(off);
            if a < 0 {
                return Err(format!("negative address {a}"));
            }
            let a = a as usize;
            memory_check(memory, a)?;
            Ok(a)
        };
        match instr {
            Instr::Li { rd, imm } => set!(rd, imm as u64),
            Instr::Mov { rd, rs } => set!(rd, get(&regs, rs)),
            Instr::Add { rd, ra, rb } => set!(rd, get(&regs, ra).wrapping_add(get(&regs, rb))),
            Instr::Sub { rd, ra, rb } => set!(rd, get(&regs, ra).wrapping_sub(get(&regs, rb))),
            Instr::Mul { rd, ra, rb } => set!(rd, get(&regs, ra).wrapping_mul(get(&regs, rb))),
            Instr::Div { rd, ra, rb } => {
                let b = get(&regs, rb) as i64;
                if b == 0 {
                    return RefOutcome::Fault {
                        msg: "divide by zero".into(),
                    };
                }
                set!(rd, (get(&regs, ra) as i64).wrapping_div(b) as u64)
            }
            Instr::Addi { rd, ra, imm } => set!(rd, get(&regs, ra).wrapping_add(imm as u64)),
            Instr::Slt { rd, ra, rb } => {
                set!(
                    rd,
                    ((get(&regs, ra) as i64) < (get(&regs, rb) as i64)) as u64
                )
            }
            Instr::FAdd { rd, ra, rb } => setf!(rd, getf(&regs, ra) + getf(&regs, rb)),
            Instr::FSub { rd, ra, rb } => setf!(rd, getf(&regs, ra) - getf(&regs, rb)),
            Instr::FMul { rd, ra, rb } => setf!(rd, getf(&regs, ra) * getf(&regs, rb)),
            Instr::FDiv { rd, ra, rb } => setf!(rd, getf(&regs, ra) / getf(&regs, rb)),
            Instr::FMax { rd, ra, rb } => setf!(rd, getf(&regs, ra).max(getf(&regs, rb))),
            Instr::FMin { rd, ra, rb } => setf!(rd, getf(&regs, ra).min(getf(&regs, rb))),
            Instr::IToF { rd, rs } => setf!(rd, get(&regs, rs) as i64 as f64),
            Instr::Jmp { target } => next = target,
            Instr::Beq { ra, rb, target } => {
                if get(&regs, ra) == get(&regs, rb) {
                    next = target;
                }
            }
            Instr::Bne { ra, rb, target } => {
                if get(&regs, ra) != get(&regs, rb) {
                    next = target;
                }
            }
            Instr::Blt { ra, rb, target } => {
                if (get(&regs, ra) as i64) < (get(&regs, rb) as i64) {
                    next = target;
                }
            }
            Instr::Bge { ra, rb, target } => {
                if (get(&regs, ra) as i64) >= (get(&regs, rb) as i64) {
                    next = target;
                }
            }
            Instr::Load { rd, base, offset } => match addr_of(&regs, base, offset) {
                Ok(a) => set!(rd, memory.load(a)),
                Err(msg) => return RefOutcome::Fault { msg },
            },
            Instr::Store { rs, base, offset } => match addr_of(&regs, base, offset) {
                Ok(a) => memory.store(a, get(&regs, rs)),
                Err(msg) => return RefOutcome::Fault { msg },
            },
            Instr::LoadSync { rd, base, offset } => match addr_of(&regs, base, offset) {
                Ok(a) => match memory.try_take(a) {
                    Some(v) => set!(rd, v),
                    None => return RefOutcome::Blocked { at: pc },
                },
                Err(msg) => return RefOutcome::Fault { msg },
            },
            Instr::StoreSync { rs, base, offset } => match addr_of(&regs, base, offset) {
                Ok(a) => {
                    if !memory.try_put_sync(a, get(&regs, rs)) {
                        return RefOutcome::Blocked { at: pc };
                    }
                }
                Err(msg) => return RefOutcome::Fault { msg },
            },
            Instr::ReadFF { rd, base, offset } => match addr_of(&regs, base, offset) {
                Ok(a) => match memory.try_read_ff(a) {
                    Some(v) => set!(rd, v),
                    None => return RefOutcome::Blocked { at: pc },
                },
                Err(msg) => return RefOutcome::Fault { msg },
            },
            Instr::Put { rs, base, offset } => match addr_of(&regs, base, offset) {
                Ok(a) => memory.put(a, get(&regs, rs)),
                Err(msg) => return RefOutcome::Fault { msg },
            },
            Instr::FetchAdd {
                rd,
                base,
                offset,
                rs,
            } => match addr_of(&regs, base, offset) {
                Ok(a) => match memory.try_fetch_add(a, get(&regs, rs)) {
                    Some(old) => set!(rd, old),
                    None => return RefOutcome::Blocked { at: pc },
                },
                Err(msg) => return RefOutcome::Fault { msg },
            },
            Instr::Fork { .. } => {
                return RefOutcome::Fault {
                    msg: "reference interpreter does not support Fork".into(),
                }
            }
            Instr::Halt => return RefOutcome::Halted { regs, executed },
        }
        pc = next;
    }
    RefOutcome::OutOfFuel
}

fn memory_check(memory: &crate::memory::Memory, a: usize) -> Result<(), String> {
    memory.check(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::memory::Memory;

    fn run(f: impl FnOnce(&mut Assembler)) -> (RefOutcome, Memory) {
        let mut a = Assembler::new();
        f(&mut a);
        let program = a.assemble().unwrap();
        let mut mem = Memory::new(1 << 12, 16, 1);
        let out = run_reference(&program, &mut mem, 7, 1_000_000);
        (out, mem)
    }

    #[test]
    fn arithmetic_and_memory_round_trip() {
        let (out, mem) = run(|a| {
            a.li(2, 21);
            a.add(3, 2, 2); // 42
            a.li(4, 100);
            a.store(3, 4, 0);
            a.load(5, 4, 0);
            a.halt();
        });
        match out {
            RefOutcome::Halted { regs, executed } => {
                assert_eq!(regs[5], 42);
                assert_eq!(regs[1], 7, "arg preserved");
                assert_eq!(executed, 6);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(mem.load(100), 42);
    }

    #[test]
    fn blocked_sync_is_reported() {
        let (out, _) = run(|a| {
            a.li(2, 50);
            a.load_sync(3, 2, 0); // word 50 is full => ok
            a.load_sync(4, 2, 0); // now empty => blocks
            a.halt();
        });
        assert_eq!(out, RefOutcome::Blocked { at: 2 });
    }

    #[test]
    fn infinite_loop_runs_out_of_fuel() {
        let (out, _) = run(|a| {
            a.label("x");
            a.jmp_l("x");
        });
        assert_eq!(out, RefOutcome::OutOfFuel);
    }

    #[test]
    fn faults_are_reported() {
        let (out, _) = run(|a| {
            a.li(2, 1 << 30);
            a.load(3, 2, 0);
            a.halt();
        });
        assert!(matches!(out, RefOutcome::Fault { .. }));
    }
}
