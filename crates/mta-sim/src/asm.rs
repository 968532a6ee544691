//! A label-resolving assembler for the simulator IR.
//!
//! Kernels are built by emitting instructions against string labels that
//! are resolved to instruction indices when the program is finished:
//!
//! ```
//! use mta_sim::asm::Assembler;
//! use mta_sim::ir::Instr;
//!
//! let mut a = Assembler::new();
//! a.li(1, 10);                 // r1 = 10 (loop counter)
//! a.label("loop");
//! a.addi(1, 1, -1);            // r1 -= 1
//! a.bne_l(1, 0, "loop");       // while r1 != 0
//! a.halt();
//! let program = a.assemble().unwrap();
//! assert_eq!(program.len(), 4);
//! ```

use crate::ir::{Instr, Program, Reg};
use std::collections::HashMap;

/// Incremental program builder with named labels.
#[derive(Default)]
pub struct Assembler {
    /// Emitted instructions, each with the label its target (branch
    /// target or fork entry) is patched to by [`Assembler::assemble`].
    pending: Vec<(Instr, Option<String>)>,
    labels: HashMap<String, usize>,
}

impl Assembler {
    /// A fresh, empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current instruction index (where the next emitted instruction goes).
    pub fn here(&self) -> usize {
        self.pending.len()
    }

    /// Define `name` at the current position. Panics on redefinition.
    pub fn label(&mut self, name: &str) {
        let prev = self.labels.insert(name.to_string(), self.here());
        assert!(prev.is_none(), "label {name:?} defined twice");
    }

    /// Emit a raw instruction.
    pub fn emit(&mut self, i: Instr) {
        self.pending.push((i, None));
    }

    /// Emit a branch or fork whose target is `label`'s address.
    pub(crate) fn emit_to(&mut self, i: Instr, label: &str) {
        self.pending.push((i, Some(label.to_string())));
    }

    // ── ergonomic emitters ───────────────────────────────────────────────

    /// `rd = imm`
    pub fn li(&mut self, rd: Reg, imm: i64) {
        self.emit(Instr::Li { rd, imm });
    }

    /// `rd = imm` for an f64 constant (bit pattern).
    pub fn lif(&mut self, rd: Reg, imm: f64) {
        self.emit(Instr::Li {
            rd,
            imm: imm.to_bits() as i64,
        });
    }

    /// `rd = rs`
    pub fn mov(&mut self, rd: Reg, rs: Reg) {
        self.emit(Instr::Mov { rd, rs });
    }

    /// `rd = ra + rb`
    pub fn add(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.emit(Instr::Add { rd, ra, rb });
    }

    /// `rd = ra - rb`
    pub fn sub(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.emit(Instr::Sub { rd, ra, rb });
    }

    /// `rd = ra * rb`
    pub fn mul(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.emit(Instr::Mul { rd, ra, rb });
    }

    /// `rd = ra / rb`
    pub fn div(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.emit(Instr::Div { rd, ra, rb });
    }

    /// `rd = ra + imm`
    pub fn addi(&mut self, rd: Reg, ra: Reg, imm: i64) {
        self.emit(Instr::Addi { rd, ra, imm });
    }

    /// `rd = (ra < rb) ? 1 : 0`
    pub fn slt(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.emit(Instr::Slt { rd, ra, rb });
    }

    /// f64 add.
    pub fn fadd(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.emit(Instr::FAdd { rd, ra, rb });
    }

    /// f64 subtract.
    pub fn fsub(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.emit(Instr::FSub { rd, ra, rb });
    }

    /// f64 multiply.
    pub fn fmul(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.emit(Instr::FMul { rd, ra, rb });
    }

    /// f64 divide.
    pub fn fdiv(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.emit(Instr::FDiv { rd, ra, rb });
    }

    /// f64 max.
    pub fn fmax(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.emit(Instr::FMax { rd, ra, rb });
    }

    /// f64 min.
    pub fn fmin(&mut self, rd: Reg, ra: Reg, rb: Reg) {
        self.emit(Instr::FMin { rd, ra, rb });
    }

    /// int → f64 convert.
    pub fn itof(&mut self, rd: Reg, rs: Reg) {
        self.emit(Instr::IToF { rd, rs });
    }

    /// `mem[base+off] = rs` (ordinary).
    pub fn store(&mut self, rs: Reg, base: Reg, off: i64) {
        self.emit(Instr::Store {
            rs,
            base,
            offset: off,
        });
    }

    /// `rd = mem[base+off]` (ordinary).
    pub fn load(&mut self, rd: Reg, base: Reg, off: i64) {
        self.emit(Instr::Load {
            rd,
            base,
            offset: off,
        });
    }

    /// Synchronized consuming load (wait full → set empty).
    pub fn load_sync(&mut self, rd: Reg, base: Reg, off: i64) {
        self.emit(Instr::LoadSync {
            rd,
            base,
            offset: off,
        });
    }

    /// Synchronized store (wait empty → set full).
    pub fn store_sync(&mut self, rs: Reg, base: Reg, off: i64) {
        self.emit(Instr::StoreSync {
            rs,
            base,
            offset: off,
        });
    }

    /// Read-and-leave-full.
    pub fn read_ff(&mut self, rd: Reg, base: Reg, off: i64) {
        self.emit(Instr::ReadFF {
            rd,
            base,
            offset: off,
        });
    }

    /// Unconditional publish (set full).
    pub fn put(&mut self, rs: Reg, base: Reg, off: i64) {
        self.emit(Instr::Put {
            rs,
            base,
            offset: off,
        });
    }

    /// Atomic fetch-and-add.
    pub fn fetch_add(&mut self, rd: Reg, base: Reg, off: i64, rs: Reg) {
        self.emit(Instr::FetchAdd {
            rd,
            base,
            offset: off,
            rs,
        });
    }

    /// Terminate the stream.
    pub fn halt(&mut self) {
        self.emit(Instr::Halt);
    }

    // ── label-taking control flow ────────────────────────────────────────

    /// Unconditional jump to `label`.
    pub fn jmp_l(&mut self, label: &str) {
        self.emit_to(Instr::Jmp { target: 0 }, label);
    }

    /// Branch to `label` if `ra == rb`.
    pub fn beq_l(&mut self, ra: Reg, rb: Reg, label: &str) {
        self.emit_to(Instr::Beq { ra, rb, target: 0 }, label);
    }

    /// Branch to `label` if `ra != rb`.
    pub fn bne_l(&mut self, ra: Reg, rb: Reg, label: &str) {
        self.emit_to(Instr::Bne { ra, rb, target: 0 }, label);
    }

    /// Branch to `label` if `ra < rb` (signed).
    pub fn blt_l(&mut self, ra: Reg, rb: Reg, label: &str) {
        self.emit_to(Instr::Blt { ra, rb, target: 0 }, label);
    }

    /// Branch to `label` if `ra >= rb` (signed).
    pub fn bge_l(&mut self, ra: Reg, rb: Reg, label: &str) {
        self.emit_to(Instr::Bge { ra, rb, target: 0 }, label);
    }

    /// Fork a stream at `label` with `r1 = regs[arg]`.
    pub fn fork_l(&mut self, label: &str, arg: Reg) {
        self.emit_to(Instr::Fork { entry: 0, arg }, label);
    }

    /// Resolve labels and produce the validated [`Program`].
    pub fn assemble(self) -> Result<Program, String> {
        let mut code = Vec::with_capacity(self.pending.len());
        for (mut instr, label) in self.pending {
            if let Some(label) = label {
                let at = self.labels.get(&label).copied();
                let at = at.ok_or_else(|| format!("undefined label {label:?}"))?;
                *instr
                    .target_mut()
                    .expect("only branches and forks take a label") = at;
            }
            code.push(instr);
        }
        let program = Program::new(code);
        program.validate()?;
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut a = Assembler::new();
        a.jmp_l("end"); // forward reference
        a.label("loop");
        a.addi(1, 1, 1);
        a.jmp_l("loop"); // backward reference
        a.label("end");
        a.halt();
        let p = a.assemble().unwrap();
        assert_eq!(p.code[0], Instr::Jmp { target: 3 });
        assert_eq!(p.code[2], Instr::Jmp { target: 1 });
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut a = Assembler::new();
        a.jmp_l("nowhere");
        assert!(a.assemble().unwrap_err().contains("nowhere"));
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn duplicate_label_panics() {
        let mut a = Assembler::new();
        a.label("x");
        a.halt();
        a.label("x");
    }

    #[test]
    fn assemble_validates_the_program() {
        let mut a = Assembler::new();
        a.li(0, 1); // write to r0
        a.halt();
        assert!(a.assemble().unwrap_err().contains("r0"));
    }

    #[test]
    fn fork_label_resolves_to_entry() {
        let mut a = Assembler::new();
        a.fork_l("worker", 2);
        a.halt();
        a.label("worker");
        a.halt();
        let p = a.assemble().unwrap();
        assert_eq!(p.code[0], Instr::Fork { entry: 2, arg: 2 });
    }

    #[test]
    fn lif_round_trips_f64_constants() {
        let mut a = Assembler::new();
        a.lif(1, 3.5);
        a.halt();
        let p = a.assemble().unwrap();
        match p.code[0] {
            Instr::Li { imm, .. } => assert_eq!(f64::from_bits(imm as u64), 3.5),
            _ => panic!(),
        }
    }
}
